# Bench usage-error smoke, registered as the bench_usage_errors ctest by
# bench/CMakeLists.txt. A usage error must end in one "<bench>: <what>"
# line on stderr and exit status 2, never in an uncaught exception:
#
#   1. every bench that parses options rejects an unknown one (--bogus);
#   2. bench_fig11_simulation and bench_fig3_schedule report a --trace-dir
#      that does not exist;
#   3. every bench that takes --reps or --requests rejects 0, naming the
#      option.
#
# Usable standalone:
#
#   cmake "-DBENCHES=build/bench/bench_fig3_schedule;build/bench/bench_fig11_simulation" \
#         -DWORK_DIR=/tmp -P tools/bench_usage_smoke.cmake
cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)

if(NOT DEFINED BENCHES)
  message(FATAL_ERROR "bench_usage_smoke.cmake: -DBENCHES= is required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(missing ${WORK_DIR}/bench_usage_smoke/no-such-dir)
file(REMOVE_RECURSE ${WORK_DIR}/bench_usage_smoke)

function(expect_usage_error bench)
  get_filename_component(name ${bench} NAME)
  execute_process(COMMAND ${bench} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "bench_usage_smoke: '${name} ${ARGN}' exited '${rc}', expected 2")
  endif()
  if(NOT err MATCHES "^${name}: ")
    message(FATAL_ERROR "bench_usage_smoke: '${name} ${ARGN}' did not report "
        "'${name}: <what>' on stderr:\n${err}")
  endif()
  # An empty count must name the option it came from.
  list(GET ARGN 0 option)
  if(option MATCHES "^--(reps|requests)$" AND NOT err MATCHES "${option}")
    message(FATAL_ERROR "bench_usage_smoke: '${name} ${ARGN}' did not name "
        "${option} on stderr:\n${err}")
  endif()
endfunction()

set(reps_benches bench_fig11_simulation bench_ablation_k bench_ext_adaptive
    bench_ext_failures bench_ext_bounds bench_ext_shard)
set(requests_benches bench_fig11_simulation bench_ext_adaptive
    bench_ext_failures bench_ext_shard)

foreach(bench IN LISTS BENCHES)
  expect_usage_error(${bench} --bogus)
  get_filename_component(name ${bench} NAME)
  if(name STREQUAL "bench_fig11_simulation" OR
     name STREQUAL "bench_fig3_schedule")
    expect_usage_error(${bench} --trace-dir ${missing})
  endif()
  if(name IN_LIST reps_benches)
    expect_usage_error(${bench} --reps 0)
  endif()
  if(name IN_LIST requests_benches)
    expect_usage_error(${bench} --requests 0)
  endif()
endforeach()
message(STATUS "bench_usage_smoke: OK")
