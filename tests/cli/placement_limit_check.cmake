# CTest script: a carried edge that moves a placement window beyond the
# int cycle range must be refused with a diagnostic, not placed at a
# wrapped time. The memory edge u -> v carries II * distance =
# 17 * 2^27 > INT_MAX (the divides force II 17); lifetime analysis
# cannot catch it because a memory edge carries no value. Before the
# check, HRMS wrapped the window and the run did not finish.
#
# Invoked as:
#   cmake -DCLI=<swpipe_cli> -DWORK=<scratch dir> -P placement_limit_check.cmake

if(NOT CLI OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK=... -P placement_limit_check.cmake")
endif()

set(ddg ${WORK}/placement_limit_far7.ddg)
file(WRITE ${ddg} "loop far7
iterations 10
node a div
node b div
node s st
node u st
node v ld
node w st
edge a b reg 0
edge b s reg 0
edge v w reg 0
edge u v mem 134217728
end
")

execute_process(COMMAND ${CLI} ${ddg} --strategy spill --kernel
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
file(REMOVE ${ddg})

if(rc EQUAL 0)
    message(FATAL_ERROR "swpipe_cli accepted the overflowing window: ${out}")
endif()
if(NOT err MATCHES "loop 'far7': node n[0-9]+ would issue at cycle -?[0-9]+ at II 17, outside the placement range \\[-1073741823, 1073741823\\]")
    message(FATAL_ERROR "swpipe_cli exited ${rc} without the placement diagnostic: ${err}")
endif()
if(out MATCHES "fits budget")
    message(FATAL_ERROR "swpipe_cli printed a result for the overflowing window: ${out}")
endif()
