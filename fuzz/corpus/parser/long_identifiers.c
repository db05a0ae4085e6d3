typedef unsigned long long_typedef_name_over_sixteen_bytes_t;
long_typedef_name_over_sixteen_bytes_t global_counter_with_a_long_name;
void HandlerWithAVeryLongNameIndeed(void) {
  long_typedef_name_over_sixteen_bytes_t local_variable_long_name = 0;
  local_variable_long_name = global_counter_with_a_long_name_plus_more;
  CALL_A_MACRO_WITH_A_LONG_NAME(local_variable_long_name, "a string literal that is long");
  goto label_with_a_long_name_here;
label_with_a_long_name_here:
  return;
}
