# Bound-landscape smoke, registered as the bounds_smoke ctest by
# tools/CMakeLists.txt (docs/bounds.md):
#
#   1. `flowsched_cli bounds --m ...` prints the closed-form landscape table
#      with the binding theorems named — no simulation involved;
#   2. the planner answers the handbook's capacity-planning example
#      (m = 256 ring, target F = 20 -> min replicated k = 237 = m - F + 1),
#      exits 3 on an infeasible target and 2 on a NaN --load;
#   3. bench_ext_bounds overlays the analytical bounds on simulated Fmax
#      and must report bound-violations=0.
#
# Usable standalone:
#
#   cmake -DCLI=build/tools/flowsched_cli -DBENCH=build/bench/bench_ext_bounds \
#         -DWORK_DIR=/tmp -P tools/bounds_smoke.cmake
if(NOT DEFINED CLI OR NOT DEFINED BENCH)
  message(FATAL_ERROR "bounds_smoke.cmake: -DCLI= and -DBENCH= are required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/bounds_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# --- 1. closed-form landscape ----------------------------------------------
execute_process(
  COMMAND ${CLI} bounds --m 16 --k 3
  OUTPUT_FILE ${dir}/landscape.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bounds_smoke: landscape query failed (rc=${rc})")
endif()
file(READ ${dir}/landscape.txt landscape)
foreach(expected "Th. 1" "Th. 3" "Th. 8" "Cor. 1")
  if(NOT landscape MATCHES "${expected}")
    message(FATAL_ERROR
        "bounds_smoke: landscape table lacks binding theorem '${expected}':\n"
        "${landscape}")
  endif()
endforeach()

# --- 2. planner: the docs/bounds.md worked example -------------------------
execute_process(
  COMMAND ${CLI} bounds --m 256 --structure interval --target-fmax 20
  OUTPUT_FILE ${dir}/planner.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bounds_smoke: planner query failed (rc=${rc})")
endif()
file(READ ${dir}/planner.txt planner)
if(NOT planner MATCHES "min replicated k:  237")
  message(FATAL_ERROR
      "bounds_smoke: planner did not answer min replicated k = 237 for the "
      "m=256 / F=20 ring example:\n${planner}")
endif()

# An infeasible target (below the optimum itself) must exit 3.
execute_process(
  COMMAND ${CLI} bounds --m 16 --structure interval --target-fmax 1 --opt-lb 2
  OUTPUT_FILE ${dir}/infeasible.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR
      "bounds_smoke: infeasible planner query exited ${rc}, expected 3")
endif()

# A NaN load is an input error (exit 2), not a skipped saturation scan.
execute_process(
  COMMAND ${CLI} bounds --m 16 --structure interval --target-fmax 20 --load nan
  OUTPUT_FILE ${dir}/nan-load.txt ERROR_VARIABLE nan_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
      "bounds_smoke: planner query with --load nan exited ${rc}, expected 2")
endif()

# --- 3. overlay bench: zero bound violations -------------------------------
execute_process(
  COMMAND ${BENCH} --reps 3 --slots 20 --threads 1
  OUTPUT_FILE ${dir}/bench.txt
  ERROR_VARIABLE bench_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  file(READ ${dir}/bench.txt out)
  message(FATAL_ERROR
      "bounds_smoke: bench_ext_bounds failed (rc=${rc}):\n${out}\n${bench_err}")
endif()
file(READ ${dir}/bench.txt bench)
if(NOT bench MATCHES "bound-violations=0")
  message(FATAL_ERROR
      "bounds_smoke: bench_ext_bounds did not report bound-violations=0:\n"
      "${bench}")
endif()

message(STATUS
    "bounds_smoke: landscape named, planner answered, zero violations")
