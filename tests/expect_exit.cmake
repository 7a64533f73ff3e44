# Runs BIN with ARGS (a space-separated string) and passes only if it
# exits WANT and, when NAMED is given, names NAMED on stderr.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${argv}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL WANT)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want ${WANT}\n${err}")
endif()
if(DEFINED NAMED)
  string(FIND "${err}" "${NAMED}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not name ${NAMED}\n${err}")
  endif()
endif()
