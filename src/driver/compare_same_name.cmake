# Same-name cache harness: two files that each define `static void
# helper`, and a file that defines `helper` twice. Every definition has
# its own cache key, so a warm --cache run must render exactly what a
# fresh run without the cache renders: after one helper's body changes,
# and for both definitions in the one file.
#
# Usage:
#   cmake -DMCCHECK=<path> -DJOBS=<n> -DWORKDIR=<scratch dir>
#         -P compare_same_name.cmake
foreach(var MCCHECK JOBS WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "compare_same_name.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(cache_dir ${WORKDIR}/cache)
set(a ${WORKDIR}/a.c)
set(b ${WORKDIR}/b.c)
set(c ${WORKDIR}/c.c)
file(WRITE ${a} "static void helper(void) { int x = 1; }\n")
file(WRITE ${b} "static void helper(void) { int x = 1; }\n")
file(WRITE ${c} "static void helper(void) { int x = 1; }\n"
                "static void helper(void) { float y = 1.5; }\n")

# run(<tag> [--cache]): one mccheck invocation over the three files,
# capturing stdout/rc into out_<tag>/rc_<tag>.
function(run tag)
    set(cache_args)
    if(ARGN)
        set(cache_args --cache ${cache_dir})
    endif()
    execute_process(
        COMMAND ${MCCHECK} ${a} ${b} ${c} --format json --jobs ${JOBS}
                ${cache_args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    set(out_${tag} "${out}" PARENT_SCOPE)
    set(rc_${tag} "${rc}" PARENT_SCOPE)
    set(err_${tag} "${err}" PARENT_SCOPE)
endfunction()

# same(<cached> <fresh>): the two runs agree byte for byte.
function(same cached fresh)
    if(NOT rc_${cached} EQUAL rc_${fresh} OR
       NOT out_${cached} STREQUAL out_${fresh})
        message(FATAL_ERROR
            "the ${cached} --cache run (rc=${rc_${cached}}) differs from "
            "a fresh run (rc=${rc_${fresh}})\n--- ${cached}:\n"
            "${out_${cached}}\n--- fresh:\n${out_${fresh}}\n"
            "stderr: ${err_${cached}}")
    endif()
endfunction()

run(cold cache)
run(fresh)
if(out_fresh STREQUAL "")
    message(FATAL_ERROR "the fresh run printed nothing (rc=${rc_fresh}, "
                        "stderr: ${err_fresh})")
endif()
same(cold fresh)
run(warm cache)
same(warm fresh)

file(WRITE ${a} "static void helper(void) { float x = 1.5; }\n")
run(edited cache)
run(edited_fresh)
same(edited edited_fresh)
if(out_edited_fresh STREQUAL out_fresh)
    message(FATAL_ERROR "the edit to a.c changed no finding; the "
                        "comparison is vacuous")
endif()

message(STATUS "same-name definitions replay their own results "
               "(jobs=${JOBS})")
