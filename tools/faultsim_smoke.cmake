# End-to-end smoke of the fault-injection layer through the CLI, registered
# as the cli_faultsim_smoke ctest by tools/CMakeLists.txt:
#
#   1. `flowsched_cli faultsim` replays both committed corpus fault cases —
#      overlapping and disjoint replication — through the real engine with
#      the fault-mode audit on; each must exit 0 and print "audit: clean";
#   2. a plain instance (no fault directives) routed through the seeded
#      random-plan path (--mtbf/--mean-down/--horizon) must also audit
#      clean, for every recovery policy;
#   3. the disjoint case must report parked attempts (its whole second
#      replica group is down in [1, 4)) — the "never silently dropped"
#      contract exercised end to end;
#   4. a non-finite --horizon (inf, nan) is rejected with exit code 2
#      instead of generating crashes forever;
#   5. a negative --mean-down is rejected with exit code 2, even when the
#      horizon is too short for any crash to draw a repair time.
#
# Usable standalone:
#
#   cmake -DCLI=build/tools/flowsched_cli -DCORPUS_DIR=tests/corpus \
#         -DWORK_DIR=/tmp -P tools/faultsim_smoke.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "faultsim_smoke.cmake: -DCLI= is required")
endif()
if(NOT DEFINED CORPUS_DIR)
  message(FATAL_ERROR "faultsim_smoke.cmake: -DCORPUS_DIR= is required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/faultsim_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# 1. Committed fault cases replay clean under audit.
foreach(case fault-overlapping fault-disjoint)
  execute_process(
    COMMAND ${CLI} faultsim --input ${CORPUS_DIR}/${case}.txt --fates
    OUTPUT_FILE ${dir}/${case}.out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "faultsim_smoke: ${case} exited ${rc}, expected 0")
  endif()
  file(READ ${dir}/${case}.out report)
  if(NOT report MATCHES "audit: clean")
    message(FATAL_ERROR "faultsim_smoke: ${case} did not print "
        "'audit: clean':\n${report}")
  endif()
endforeach()

# 3. The disjoint case's whole-group outage must park requests, not drop
# them: parked > 0 and dropped=0.
file(READ ${dir}/fault-disjoint.out disjoint)
if(NOT disjoint MATCHES "dropped=0 ")
  message(FATAL_ERROR "faultsim_smoke: disjoint case dropped tasks:"
      "\n${disjoint}")
endif()
if(disjoint MATCHES "parked=0")
  message(FATAL_ERROR "faultsim_smoke: disjoint whole-group outage did not "
      "park any attempt:\n${disjoint}")
endif()

# 2. Plain instance through the seeded random-plan path, one run per
# recovery policy.
set(inst ${dir}/plain.txt)
file(WRITE ${inst} "machines 3
task 0 2 1,2
task 0 1 2,3
task 0.5 1 1,3
task 1 2 1,2,3
task 1.25 0.5 1
task 2 1.5 2,3
")
foreach(recovery immediate backoff checkpoint)
  execute_process(
    COMMAND ${CLI} faultsim --input ${inst} --mtbf 4 --mean-down 1
            --horizon 16 --seed 11 --recovery ${recovery}
    OUTPUT_FILE ${dir}/plain-${recovery}.out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "faultsim_smoke: plain instance with ${recovery} recovery exited "
        "${rc}, expected 0")
  endif()
  file(READ ${dir}/plain-${recovery}.out report)
  if(NOT report MATCHES "audit: clean")
    message(FATAL_ERROR "faultsim_smoke: plain/${recovery} did not print "
        "'audit: clean':\n${report}")
  endif()
endforeach()

# 4. A non-finite horizon must fail fast: FaultPlan::random would otherwise
# never leave its renewal loop. The timeout turns a hang into a failure.
foreach(horizon inf nan)
  execute_process(
    COMMAND ${CLI} faultsim --input ${inst} --horizon ${horizon}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 10)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "faultsim_smoke: --horizon ${horizon} exited "
        "'${rc}', expected 2")
  endif()
  if(NOT err MATCHES "horizon must be finite")
    message(FATAL_ERROR "faultsim_smoke: --horizon ${horizon} did not name "
        "the field:\n${err}")
  endif()
endforeach()

# 5. A negative mean repair time is rejected up front, not only once a
# crash happens to be drawn: --horizon 1 draws no crash at --mtbf 64.
execute_process(
  COMMAND ${CLI} faultsim --input ${inst} --mean-down -1 --mtbf 64 --horizon 1
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 10)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "faultsim_smoke: --mean-down -1 exited '${rc}', "
      "expected 2")
endif()
if(NOT err MATCHES "mean_down must not be negative")
  message(FATAL_ERROR "faultsim_smoke: --mean-down -1 did not name the "
      "field:\n${err}")
endif()

message(STATUS "faultsim smoke passed: corpus cases and all recovery "
    "policies audit clean, non-finite horizons and negative repair times "
    "rejected")
