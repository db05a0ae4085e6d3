# Metal-mode differential harness: run one user metal checker
# (`mccheck --metal`) over every emitted source of a corpus protocol and
# require the same bytes
#
#   - as the committed goldens (text and JSON, clean and under an
#     injected checker.unit fault),
#   - at --jobs 1 and --jobs 4,
#   - cold and warm against an analysis cache (the warm run must replay
#     every unit: cache.hits >= 1, cache.misses == 0),
#   - under --inject-fault checker.unit:3 at both job counts (exit 2),
#   - and, when a daemon and python3 are given, from a mccheckd `check`
#     request made through tools/mccheckd_client.py.
#
# Usage:
#   cmake -DMCCHECK=<path> -DMETAL=<checker.metal> -DCORPUS=<dir>
#         -DPROTOCOL=<name> -DGOLDEN=<path prefix> -DWORKDIR=<scratch dir>
#         [-DMCCHECKD=<path> -DCLIENT=<mccheckd_client.py> -DPYTHON=<py>]
#         -P compare_metal.cmake
#
# CORPUS is an --emit-corpus output directory; the sources under
# CORPUS/PROTOCOL are passed relative to CORPUS, so the rendered file
# names (and hence the goldens) do not depend on the build tree. The
# goldens are GOLDEN.txt, GOLDEN.json and GOLDEN_fault.json; with
# MCHECK_REGEN_GOLDENS=1 in the environment they are rewritten from this
# build instead of compared.
foreach(var MCCHECK METAL CORPUS PROTOCOL GOLDEN WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare_metal.cmake: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
set(cache_dir ${WORKDIR}/cache)

file(GLOB sources RELATIVE ${CORPUS} ${CORPUS}/${PROTOCOL}/*.c)
list(SORT sources)
list(LENGTH sources nsources)
if(nsources EQUAL 0)
    message(FATAL_ERROR "no sources under ${CORPUS}/${PROTOCOL}")
endif()
get_filename_component(metal_name ${METAL} NAME)

# run(<tag> <format> <jobs> [extra mccheck args...]): one mccheck
# invocation, capturing stdout/stderr/rc into out_<tag>/err_<tag>/rc_<tag>.
function(run tag format jobs)
    execute_process(
        COMMAND ${MCCHECK} --metal ${METAL} ${sources} --format ${format}
                --jobs ${jobs} ${ARGN}
        WORKING_DIRECTORY ${CORPUS}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    set(out_${tag} "${out}" PARENT_SCOPE)
    set(err_${tag} "${err}" PARENT_SCOPE)
    set(rc_${tag} "${rc}" PARENT_SCOPE)
endfunction()

# same(<base tag> <tag>): exit code and stdout must match byte for byte.
function(same base tag)
    if(NOT rc_${base} EQUAL rc_${tag})
        message(FATAL_ERROR
            "${metal_name}: exit codes differ: ${base} -> ${rc_${base}}, "
            "${tag} -> ${rc_${tag}}\nstderr(${tag}): ${err_${tag}}")
    endif()
    if(NOT out_${base} STREQUAL out_${tag})
        message(FATAL_ERROR
            "${metal_name}: stdout differs between the ${base} and ${tag} "
            "runs\n--- ${base}:\n${out_${base}}\n--- ${tag}:\n${out_${tag}}")
    endif()
endfunction()

# golden(<tag> <file>): compare (or, when regenerating, write) a golden.
function(golden tag file)
    if("$ENV{MCHECK_REGEN_GOLDENS}" STREQUAL "1")
        file(WRITE ${file} "${out_${tag}}")
        return()
    endif()
    if(NOT EXISTS ${file})
        message(FATAL_ERROR "${metal_name}: missing golden ${file}")
    endif()
    file(READ ${file} want)
    if(NOT want STREQUAL out_${tag})
        message(FATAL_ERROR
            "${metal_name}: ${tag} output differs from ${file}\n"
            "--- got:\n${out_${tag}}")
    endif()
endfunction()

# metrics_require(<tag> <regex> <what>)
function(metrics_require tag regex what)
    file(READ ${WORKDIR}/${tag}.metrics.json report)
    if(NOT report MATCHES "${regex}")
        message(FATAL_ERROR
            "${metal_name} (${tag} run): expected ${what} "
            "(regex: ${regex})\nmetrics: ${report}")
    endif()
endfunction()

foreach(format text json)
    run(${format}_j1 ${format} 1)
    if(NOT rc_${format}_j1 EQUAL 0 AND NOT rc_${format}_j1 EQUAL 1)
        message(FATAL_ERROR
            "${metal_name} (${format}): exit ${rc_${format}_j1}, want 0 "
            "or 1\nstderr: ${err_${format}_j1}")
    endif()
    if(out_${format}_j1 STREQUAL "")
        message(FATAL_ERROR "${metal_name} (${format}): no output")
    endif()
    run(${format}_j4 ${format} 4)
    same(${format}_j1 ${format}_j4)
endforeach()
golden(text_j1 ${GOLDEN}.txt)
golden(json_j1 ${GOLDEN}.json)

run(cold json 4 --cache ${cache_dir} --metrics ${WORKDIR}/cold.metrics.json)
metrics_require(cold "\"cache.misses\": [1-9]" "cold-run cache misses")
run(warm json 1 --cache ${cache_dir} --metrics ${WORKDIR}/warm.metrics.json)
metrics_require(warm "\"cache.hits\": [1-9]" "warm-run cache hits")
metrics_require(warm "\"cache.misses\": 0[,\n ]" "zero warm-run misses")
same(json_j1 cold)
same(json_j1 warm)

foreach(jobs 1 4)
    run(fault_j${jobs} json ${jobs} --inject-fault checker.unit:3)
    if(NOT rc_fault_j${jobs} EQUAL 2)
        message(FATAL_ERROR
            "${metal_name}: checker.unit:3 at --jobs ${jobs} exited "
            "${rc_fault_j${jobs}}, want 2 (degraded)\n"
            "stderr: ${err_fault_j${jobs}}")
    endif()
endforeach()
same(fault_j1 fault_j4)
golden(fault_j1 ${GOLDEN}_fault.json)

if(DEFINED MCCHECKD AND DEFINED CLIENT AND DEFINED PYTHON)
    foreach(format text json)
        execute_process(
            COMMAND ${PYTHON} ${CLIENT} --daemon ${MCCHECKD}
                    check --metal ${METAL} --format ${format} ${sources}
            WORKING_DIRECTORY ${CORPUS}
            OUTPUT_VARIABLE out
            ERROR_VARIABLE err
            RESULT_VARIABLE rc)
        set(out_daemon_${format} "${out}")
        set(err_daemon_${format} "${err}")
        set(rc_daemon_${format} "${rc}")
        same(${format}_j1 daemon_${format})
    endforeach()
endif()

message(STATUS
    "${metal_name} over ${PROTOCOL}: goldens, jobs 1/4, cold/warm cache, "
    "fault containment and daemon runs agree byte-for-byte")
