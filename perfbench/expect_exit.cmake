# Runs one short mech_large_domain benchmark run with --corrupt ${CORRUPT}
# and fails unless the exit code equals ${EXPECT}.
#   cmake -DBIN=<service_load> -DCORRUPT=none|answer|epsilon -DEXPECT=<code>
#         -P expect_exit.cmake
execute_process(
  COMMAND "${BIN}" --workload mech_large_domain --seed 11 --seconds 1
          --trace 0 --corrupt "${CORRUPT}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "--corrupt ${CORRUPT}: exit ${rc}, expected ${EXPECT}\n"
          "${out}\n${err}")
endif()
