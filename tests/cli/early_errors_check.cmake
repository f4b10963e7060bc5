# CTest script: bad output paths and machine specs are refused before
# any work is done, with a diagnostic and exit status 2.
#
#  1. A bench harness given a --machine spec that does not resolve exits
#     2 with the machine-description message, before any benchmark runs
#     (no "Running" banner, no abort).
#  2. A bench harness given an unwritable --json path exits 2 with
#     "cannot write", before any benchmark runs; a --json file the
#     probe created is removed again when no result is written.
#  3. swpipe_cli --certify-out on an unwritable path exits 2 naming the
#     file before it schedules anything: with a loop whose scheduling
#     itself fails, the certificate-file diagnostic must come first.
#  4. The --certify-out probe leaves no file behind when it created
#     one, and leaves an existing file untouched when the run fails.
#  5. A machine description whose latency exceeds the 4096-cycle limit
#     (examples/machines/scalar.mach with a 300000000-cycle div) is
#     refused at parse time by both front ends, with the line-numbered
#     limit diagnostic: exit 2, no panic, no "Running" banner.
#  6. A removed run flag is an unknown option: swpipe_cli --memo 0
#     exits 2.
#
# Both front ends probe through the one helper in driver/run_flags.
#
# Invoked as:
#   cmake -DCLI=<swpipe_cli> -DBENCH=<table1_convergence> -DWORK=<scratch dir>
#         -P early_errors_check.cmake

if(NOT CLI OR NOT BENCH OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DCLI=... -DBENCH=... -DWORK=... -P early_errors_check.cmake")
endif()

# 1. Bench harness, unknown machine.
execute_process(COMMAND ${BENCH} --machine nosuch --loops 4
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench --machine nosuch exited '${rc}', want 2: ${err}")
endif()
if(NOT err MATCHES "cannot read machine description file 'nosuch'")
    message(FATAL_ERROR "bench --machine nosuch without the machdesc diagnostic: ${err}")
endif()
if(out MATCHES "Running" OR err MATCHES "Running")
    message(FATAL_ERROR "bench started its benchmarks before refusing --machine: ${out}${err}")
endif()

# 2. Bench harness, unwritable --json; then a probe-created file that
#    no result is written to.
set(bad ${WORK}/early_errors_no_such_dir/x.json)
execute_process(COMMAND ${BENCH} --json ${bad} --loops 4
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bench --json ${bad} exited '${rc}', want 2: ${err}")
endif()
string(FIND "${err}" "cannot write ${bad}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "bench --json ${bad} without the 'cannot write' diagnostic: ${err}")
endif()
if(out MATCHES "Running" OR err MATCHES "Running")
    message(FATAL_ERROR "bench started its benchmarks before refusing --json: ${out}${err}")
endif()

set(fresh ${WORK}/early_errors_fresh.json)
file(REMOVE ${fresh})
execute_process(COMMAND ${BENCH} --json ${fresh} --loops 4
        --benchmark_filter=NoSuchBenchmark
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench --json ${fresh} with no matching benchmark exited '${rc}', want 0")
endif()
if(EXISTS ${fresh})
    file(REMOVE ${fresh})
    message(FATAL_ERROR "the --json probe left ${fresh} behind")
endif()

# A loop whose scheduling fails with its own diagnostic (a carried
# lifetime beyond the int cycle range; see lifetime_limit_check.cmake).
set(ddg ${WORK}/early_errors_big3.ddg)
file(WRITE ${ddg} "loop big3
iterations 10
node a div
node s st
edge a a reg 134217728
edge a s reg 0
end
")

# 3. Unwritable --certify-out is refused before scheduling.
set(bad ${WORK}/early_errors_no_such_dir/certs.jsonl)
execute_process(COMMAND ${CLI} ${ddg} --certify-out ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "swpipe_cli --certify-out ${bad} exited '${rc}', want 2: ${err}")
endif()
string(FIND "${err}" "cannot write certificate file ${bad}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "swpipe_cli scheduled before probing --certify-out: ${err}")
endif()

# 4. The probe removes a file it created, and keeps an existing one.
set(fresh ${WORK}/early_errors_fresh.jsonl)
file(REMOVE ${fresh})
execute_process(COMMAND ${CLI} ${ddg} --certify-out ${fresh}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "swpipe_cli accepted the overflowing loop")
endif()
if(EXISTS ${fresh})
    file(REMOVE ${fresh})
    message(FATAL_ERROR "the --certify-out probe left ${fresh} behind")
endif()

set(kept ${WORK}/early_errors_kept.jsonl)
file(WRITE ${kept} "previous results\n")
execute_process(COMMAND ${CLI} ${ddg} --certify-out ${kept}
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
file(READ ${kept} content)
file(REMOVE ${kept} ${ddg})
if(NOT content STREQUAL "previous results\n")
    message(FATAL_ERROR "the --certify-out probe changed an existing file: '${content}'")
endif()

# 5. Latency above the limit, in both front ends.
file(READ ${CMAKE_CURRENT_LIST_DIR}/../../examples/machines/scalar.mach scalar)
string(REPLACE "op div  alu 17" "op div  alu 300000000" slowdiv "${scalar}")
if(slowdiv STREQUAL scalar)
    message(FATAL_ERROR "scalar.mach no longer binds 'op div  alu 17'")
endif()
set(mach ${WORK}/early_errors_slowdiv.mach)
file(WRITE ${mach} "${slowdiv}")
set(want "line 13: opcode 'div' exceeds the 4096-cycle latency limit, got 300000000")
foreach(cmd "${CLI};--suite;40" "${BENCH};--loops;40")
    execute_process(COMMAND ${cmd} --machine ${mach}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${cmd} with a 300000000-cycle div exited '${rc}', want 2: ${err}")
    endif()
    string(FIND "${err}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${cmd} with a 300000000-cycle div without the limit diagnostic: ${err}")
    endif()
    if(err MATCHES "panic" OR out MATCHES "Running" OR err MATCHES "Running")
        message(FATAL_ERROR "${cmd} got past parsing the 300000000-cycle div: ${out}${err}")
    endif()
endforeach()
file(REMOVE ${mach})

# 6. --memo is gone.
execute_process(COMMAND ${CLI} --memo 0
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "swpipe_cli --memo 0 exited '${rc}', want 2: ${err}")
endif()
if(NOT err MATCHES "unknown option --memo")
    message(FATAL_ERROR "swpipe_cli --memo 0 without 'unknown option --memo': ${err}")
endif()
