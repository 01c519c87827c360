# End-to-end smoke of the LP layer through the CLI, registered as the
# cli_maxload_smoke ctest by tools/CMakeLists.txt:
#
#   1. flowsched_cli maxload --transfer on a ring cell and plain maxload on
#      a spread cell; each "replicated max load" line must match its
#      pinned text byte for byte;
#   2. --transfer must print at least one owner -> machine move;
#   3. a NaN Zipf exponent (--s nan) is rejected with exit 2, not
#      reported as a lambda.
#
# Usable standalone:
#
#   cmake -DCLI=build/tools/flowsched_cli -DWORK_DIR=/tmp \
#         -P tools/maxload_smoke.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "maxload_smoke.cmake: -DCLI= is required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/maxload_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

set(ring_args --m 15 --k 6 --s 1.25 --strategy overlapping --seed 7 --transfer)
set(ring_lambda "replicated max load:   lambda=15 (100.00% of m)")
set(spread_args --m 15 --k 4 --strategy spread)
set(spread_lambda "replicated max load:   lambda=11.0664 (73.78% of m)")

foreach(cell ring spread)
  execute_process(
    COMMAND ${CLI} maxload ${${cell}_args}
    OUTPUT_FILE ${dir}/${cell}.out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "maxload_smoke: ${cell} cell failed (rc=${rc})")
  endif()
  file(STRINGS ${dir}/${cell}.out lines REGEX "^replicated max load")
  if(NOT lines STREQUAL ${cell}_lambda)
    message(FATAL_ERROR
        "maxload_smoke: ${cell} cell printed\n  ${lines}\nexpected\n"
        "  ${${cell}_lambda}")
  endif()
endforeach()

file(STRINGS ${dir}/ring.out transfer_lines REGEX "^  [0-9]+ <- [0-9]+: ")
list(LENGTH transfer_lines n_moves)
if(n_moves EQUAL 0)
  message(FATAL_ERROR "maxload_smoke: --transfer printed no moves")
endif()
execute_process(
  COMMAND ${CLI} maxload --m 8 --k 2 --s nan
  OUTPUT_VARIABLE nan_out
  ERROR_VARIABLE nan_err
  RESULT_VARIABLE nan_rc)
if(NOT nan_rc EQUAL 2)
  message(FATAL_ERROR
      "maxload_smoke: --s nan exited ${nan_rc}, expected 2:\n${nan_out}")
endif()
message(STATUS
    "maxload_smoke: pinned lambdas match, ${n_moves} transfer moves, "
    "--s nan rejected")
