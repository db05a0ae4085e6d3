void i(void) { iff = int_ + _int; in = inT; }
int g 	= 1;
int zz_end_of_file_ident