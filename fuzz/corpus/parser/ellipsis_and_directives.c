#include "flash.h"
#define LONG_MACRO(a, b) \
    do { \
        (a) = (b); \
    } while (0)
#if defined(SOMETHING) && \
    SOMETHING > 1
#endif
int printf_like(const char* fmt, ...);
void Variadic(int first, ...) {
  printf_like("%d", first);
}
