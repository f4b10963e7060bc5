# CTest script: fig7_spill_behavior's bus utilization divides by the
# units of the class that executes loads, whatever that class's index.
#
# Two descriptions of one machine (one memory unit, two ALUs, the same
# machine name) differ only in the order of their class directives.
# fig7 --json must write the same bytes for both: a bus% read off
# class 0 would halve for the description that lists the ALUs first.
#
# Invoked as:
#   cmake -DBENCH=<fig7_spill_behavior> -DWORK=<scratch dir>
#         -P fig7_class_order_check.cmake

if(NOT BENCH OR NOT WORK)
    message(FATAL_ERROR "usage: cmake -DBENCH=... -DWORK=... -P fig7_class_order_check.cmake")
endif()

set(mem_class "class mem 1 pipelined\n")
set(alu_class "class alu 2 pipelined\n")
string(CONCAT ops
    "op ld mem 2\nop st mem 1\nop add alu 4\nop mul alu 4\n"
    "op div alu 17\nop sqrt alu 30\nop copy alu 1\nop nop alu 1\n"
    "op sel alu 1\n")
file(WRITE ${WORK}/fig7_mem_first.mach
    "machine MemAlu\n${mem_class}${alu_class}${ops}")
file(WRITE ${WORK}/fig7_alu_first.mach
    "machine MemAlu\n${alu_class}${mem_class}${ops}")

foreach(order IN ITEMS mem_first alu_first)
    execute_process(
        COMMAND ${BENCH} --machine ${WORK}/fig7_${order}.mach
                --json ${WORK}/fig7_${order}.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fig7 on ${order} exited '${rc}': ${err}")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/fig7_mem_first.json ${WORK}/fig7_alu_first.json
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "fig7 --json depends on the order of the class "
                        "directives: compare ${WORK}/fig7_mem_first.json "
                        "with ${WORK}/fig7_alu_first.json")
endif()
