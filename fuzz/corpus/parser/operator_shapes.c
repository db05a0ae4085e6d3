void f(void) {
  a = b = c;
  a = a - b - c;
  x = c ? x, y : z = w;
  x = (int)-y;
  x = a ? b : c ? d : e;
}
int tail = 0x1F