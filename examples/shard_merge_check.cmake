# CTest script: prove the sharded CLI workflow end to end.
#
# Runs `swpipe_cli --suite` unsharded, then as three shard processes
# with deliberately different --threads/--chunk/--memo settings, merges the shard files with --merge-shards, and fails
# unless the merged stdout is byte-identical to the unsharded run.
# Also checks that the merge refuses an incomplete shard set.
#
# Invoked as:
#   cmake -DCLI=<swpipe_cli> -DWORK=<scratch dir> -P shard_merge_check.cmake

if(NOT CLI OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK=... -P shard_merge_check.cmake")
endif()

set(args --suite 12 --csv --registers 24 --simulate 8)

function(run_cli outvar expect_rc)
    execute_process(COMMAND ${CLI} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expect_rc})
        message(FATAL_ERROR "swpipe_cli ${ARGN} exited ${rc} (wanted ${expect_rc}): ${err}")
    endif()
    set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

run_cli(baseline 0 ${args} --threads 2)

# Each shard runs under a different execution configuration on purpose:
# the merge must be byte-identical regardless.
run_cli(s0 0 ${args} --shard 0/3 --shard-out ${WORK}/swp_s0.json
    --threads 4 --chunk fixed)
run_cli(s1 0 ${args} --shard 1/3 --shard-out ${WORK}/swp_s1.json
    --chunk auto)
run_cli(s2 0 ${args} --shard 2/3 --shard-out ${WORK}/swp_s2.json
    --memo 0)

run_cli(merged 0 --merge-shards
    ${WORK}/swp_s0.json ${WORK}/swp_s1.json ${WORK}/swp_s2.json)

if(NOT merged STREQUAL baseline)
    message(FATAL_ERROR "merged shard output differs from the unsharded run")
endif()

# An incomplete set must be refused (exit 2), not silently merged.
run_cli(ignored 2 --merge-shards ${WORK}/swp_s0.json ${WORK}/swp_s1.json)

message(STATUS "sharded run merges byte-identical to the unsharded run")
