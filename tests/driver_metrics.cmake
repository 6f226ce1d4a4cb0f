# Runs one experiment driver with --run-dir and fails unless the directory
# holds a metrics.json with collected runs in it and a timeline.json.
#   cmake -DDRIVER=<binary> -DRUN_DIR=<dir> -P driver_metrics.cmake
file(REMOVE_RECURSE ${RUN_DIR})
execute_process(COMMAND ${DRIVER} --run-dir ${RUN_DIR} --quiet
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited ${status}")
endif()
foreach(artifact metrics.json timeline.json)
  if(NOT EXISTS ${RUN_DIR}/${artifact})
    message(FATAL_ERROR "${DRIVER} wrote no ${RUN_DIR}/${artifact}")
  endif()
endforeach()
file(READ ${RUN_DIR}/metrics.json metrics)
string(FIND "${metrics}" "\"collected\": true" found)
if(found EQUAL -1)
  message(FATAL_ERROR "${RUN_DIR}/metrics.json holds no collected runs")
endif()
