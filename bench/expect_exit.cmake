# Run CMD with the space-separated ARGS; pass only if it exits with status
# EXIT and its stderr matches the regex STDERR.
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXIT=<n> "-DSTDERR=<regex>" \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status '${rc}', want ${EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
