# ctest driver: runs one bench binary and fails unless its stdout is
# byte-identical to the committed table under bench/golden/.
#
# Expects -DBENCH=<path to the binary> -DGOLDEN=<committed table>
# -DOUT=<where to write this run's stdout>.
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (exit ${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
