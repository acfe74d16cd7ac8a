# Runs a command and compares its standard output byte for byte with a
# committed golden file; fails (with the path of the captured output)
# when they differ or the command exits non-zero.
#
#   cmake -DCMD=<exe> -DARGS=<arg;...> -DGOLDEN=<file> -DOUT=<file>
#         -P golden_diff.cmake
execute_process(COMMAND ${CMD} ${ARGS} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output differs from ${GOLDEN}; captured in ${OUT}")
endif()
