# graphsurge_serve must reject malformed numeric flags with its usage text
# and exit status 2, before loading graphs or binding a port.
#
#   cmake -DSERVE=<path to graphsurge_serve> -P serve_args_test.cmake
set(cases
  "--port 65536"
  "--port 80x"
  "--port -1"
  "--port x"
  "--threads 0"
  "--threads -4"
  "--threads 4.5"
  "--workers 0"
  "--max-sessions 0"
  "--max-sessions 99999999999999999999999"
  "--threads")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${SERVE}" ${args}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 10)
  if(NOT code EQUAL 2 OR NOT err MATCHES "usage:")
    message(FATAL_ERROR
            "graphsurge_serve ${case}: exit '${code}', stderr '${err}'")
  endif()
endforeach()
