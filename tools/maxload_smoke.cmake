# End-to-end smoke of the LP layer through the CLI, registered as the
# cli_maxload_smoke ctest by tools/CMakeLists.txt:
#
#   1. flowsched_cli maxload --solver lp (with --transfer) and
#      --solver flow on the same cell;
#   2. the two "replicated max load" lines must agree exactly as printed
#      (both solvers round to the same 6 significant digits — they agree
#      to ~1e-9 on lambda, see docs/lp.md).
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

foreach(solver lp flow)
  set(extra)
  if(solver STREQUAL "lp")
    set(extra --transfer)
  endif()
  execute_process(
    COMMAND ${CLI} maxload --m 15 --k 6 --s 1.25 --strategy overlapping
            --seed 7 --solver ${solver} ${extra}
    OUTPUT_FILE ${dir}/${solver}.out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "maxload_smoke: --solver ${solver} failed (rc=${rc})")
  endif()
endforeach()

foreach(solver lp flow)
  file(STRINGS ${dir}/${solver}.out lines REGEX "replicated max load")
  if(lines STREQUAL "")
    message(FATAL_ERROR "maxload_smoke: no lambda line in ${solver}.out")
  endif()
  set(lambda_${solver} "${lines}")
endforeach()

if(NOT lambda_lp STREQUAL lambda_flow)
  message(FATAL_ERROR
      "maxload_smoke: lp and flow disagree:\n  lp:   ${lambda_lp}\n"
      "  flow: ${lambda_flow}")
endif()

file(STRINGS ${dir}/lp.out transfer_lines REGEX "^  [0-9]+ <- [0-9]+: ")
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
    "maxload_smoke: lp == flow, ${n_moves} transfer moves, --s nan rejected")
