# Runs one bench command line and passes only if it exits 2 (usage
# error) with stderr matching EXPECT. Used by the bench_flags_* ctests:
#   cmake -DCMD=<binary> "-DARGS=--a;--b" -DEXPECT=<regex> -P this.cmake
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
