# Runs one experiment driver with --metrics-out and fails unless it wrote a
# metrics file with collected runs in it.
#   cmake -DDRIVER=<binary> -DOUT=<file> -P driver_metrics.cmake
file(REMOVE ${OUT})
execute_process(COMMAND ${DRIVER} --metrics-out ${OUT} --quiet
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited ${status}")
endif()
if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "${DRIVER} wrote no ${OUT}")
endif()
file(READ ${OUT} metrics)
string(FIND "${metrics}" "\"collected\": true" found)
if(found EQUAL -1)
  message(FATAL_ERROR "${OUT} holds no collected runs")
endif()
