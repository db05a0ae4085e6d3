# Witness-determinism harness: with --witness on, the machine-readable
# output (witness objects included) must be byte-identical whatever
# --jobs says and whether the findings were computed cold or replayed
# from a warm cache. The in-process engine differential, and the
# structural check of every witness against its CFG, are in
# tests/metal/engine_differential_test.cc and
# tests/metal/witness_check_test.cc.
#
# Usage:
#   cmake -DMCCHECK=<path> -DPROTOCOL=<name> -DWORKDIR=<scratch dir>
#         -P compare_witness.cmake
#
# The corpus protocols carry intentional bugs, so mccheck exits 1
# (findings); the harness requires every run to agree with the first and
# the output to actually carry witnesses (a vacuous pass is a failure).
foreach(var MCCHECK PROTOCOL WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_witness.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(cache_dir ${WORKDIR}/cache)

# run(<tag> <args...>): one witness-enabled JSON run; extra args select
# the jobs / cache axis under test.
function(run tag)
    execute_process(
        COMMAND ${MCCHECK} --protocol ${PROTOCOL} --format json --witness
                ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    set(out_${tag} "${out}" PARENT_SCOPE)
    set(err_${tag} "${err}" PARENT_SCOPE)
    set(rc_${tag} "${rc}" PARENT_SCOPE)
endfunction()

run(base --jobs 1)
if(out_base STREQUAL "")
    message(FATAL_ERROR
        "witness run produced no stdout for ${PROTOCOL} "
        "(rc=${rc_base}, stderr: ${err_base})")
endif()
if(NOT out_base MATCHES "\"witness\"")
    message(FATAL_ERROR
        "witness-enabled JSON for ${PROTOCOL} carries no \"witness\" "
        "object; the comparison is vacuous:\n${out_base}")
endif()

run(jobs4 --jobs 4)
run(cold --jobs 4 --cache ${cache_dir})
run(warm --jobs 4 --cache ${cache_dir})

foreach(tag jobs4 cold warm)
    if(NOT rc_base EQUAL rc_${tag})
        message(FATAL_ERROR
            "exit codes differ for ${PROTOCOL} with --witness: "
            "base -> ${rc_base}, ${tag} -> ${rc_${tag}}\n"
            "stderr(${tag}): ${err_${tag}}")
    endif()
    if(NOT out_base STREQUAL out_${tag})
        message(FATAL_ERROR
            "stdout differs between the base and ${tag} runs for "
            "${PROTOCOL} with --witness; witness bytes must be identical "
            "across jobs and cache temperature")
    endif()
endforeach()

message(STATUS
    "${PROTOCOL} (--witness): jobs 1/4, cold/warm agree "
    "byte-for-byte")
