# CTest script: a loop whose carried lifetime ends beyond the int cycle
# range must be refused with a diagnostic, not scheduled with a wrapped
# lifetime. II * distance = 17 * 2^27 exceeds INT_MAX.
#
# Invoked as:
#   cmake -DCLI=<swpipe_cli> -DWORK=<scratch dir> -P lifetime_limit_check.cmake

if(NOT CLI OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK=... -P lifetime_limit_check.cmake")
endif()

set(ddg ${WORK}/lifetime_limit_big3.ddg)
file(WRITE ${ddg} "loop big3
iterations 10
node a div
node s st
edge a a reg 134217728
edge a s reg 0
end
")

execute_process(COMMAND ${CLI} ${ddg}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
file(REMOVE ${ddg})

if(rc EQUAL 0)
    message(FATAL_ERROR "swpipe_cli accepted the overflowing loop: ${out}")
endif()
if(NOT err MATCHES "loop 'big3': value n0 is live until cycle 2281701376 at II 17")
    message(FATAL_ERROR "swpipe_cli exited ${rc} without the lifetime diagnostic: ${err}")
endif()
if(out MATCHES "fits budget")
    message(FATAL_ERROR "swpipe_cli printed a result for the overflowing loop: ${out}")
endif()
