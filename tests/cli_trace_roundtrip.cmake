# Round trip through the CLI's trace file: `cli --save-trace` writes a
# generated trace, `cli --load-trace` replays that file, and both runs
# must print the same accuracy line.
#
# Usage: cmake -DCLI=<path to cli> -DTRACE=<scratch .bpt path>
#              -P cli_trace_roundtrip.cmake

set(args --predictor perceptron --budget-kb 16)

execute_process(
    COMMAND ${CLI} --workload 181.mcf --ops 20000 --seed 42
            --save-trace ${TRACE} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE saved ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli --save-trace exited ${rc}: ${err}")
endif()

execute_process(
    COMMAND ${CLI} --load-trace ${TRACE} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE loaded ERROR_VARIABLE err)
file(REMOVE ${TRACE})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli --load-trace exited ${rc}: ${err}")
endif()

string(REGEX MATCH "[^\n]*% mispredicted" savedLine "${saved}")
string(REGEX MATCH "[^\n]*% mispredicted" loadedLine "${loaded}")
if(savedLine STREQUAL "")
    message(FATAL_ERROR "no accuracy line in:\n${saved}")
endif()
if(NOT savedLine STREQUAL loadedLine)
    message(FATAL_ERROR "accuracy differs after the round trip:\n"
                        "  saved:  ${savedLine}\n"
                        "  loaded: ${loadedLine}")
endif()
message(STATUS "round trip ok: ${savedLine}")
