# Usage-error harness: one flag with one rejected value must exit 3 and
# name the flag's contract on stderr. The value is passed as a single
# argument, so values with spaces or signs reach the binary unmangled.
#
# Usage:
#   cmake -DEXE=<binary> -DFLAG=<flag> "-DVALUE=<value>" -DEXPECT=<regex>
#         [-DEXTRA=<args...>] -P expect_usage.cmake
foreach(var EXE FLAG VALUE EXPECT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "expect_usage.cmake: -D${var}=... is required")
    endif()
endforeach()

# stdin is empty so a daemon that wrongly accepted the flag exits at EOF
# (status 0) instead of waiting for requests.
execute_process(
    COMMAND ${EXE} ${FLAG} "${VALUE}" ${EXTRA}
    INPUT_FILE /dev/null
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
    message(FATAL_ERROR
        "${FLAG} '${VALUE}' exited ${rc}, expected the usage exit 3\n"
        "stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "${FLAG} '${VALUE}' exited 3 without the expected message "
        "'${EXPECT}'\nstderr: ${err}")
endif()
message(STATUS "${FLAG} '${VALUE}' is a usage error, as expected")
