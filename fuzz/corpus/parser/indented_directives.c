void f(void) {
  #if 0
    int x = 1;
	 #endif
  y = 2; #define Z
}
