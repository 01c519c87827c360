# Streaming-pipeline smoke, registered as the cli_stream_smoke ctest by
# tools/CMakeLists.txt:
#
#   1. a short exact-regime stream (requests below the exact-quantile cap)
#      reports quantiles=exact and a sane per-rep line;
#   2. a stream past the cap engages the histogram path (quantiles=hist)
#      while keeping the RSS bound (--assert-rss-mb turns it into the exit
#      status);
#   3. --json emits the machine-readable report with the p999 field;
#   4. a typo'd flag fails fast instead of running;
#   5. the sharded path (docs/sharding.md): on an aligned-disjoint store,
#      stdout at --shards 1 and --shards 4 (with a 4-worker team) is
#      byte-identical to the legacy single-queue path;
#   6. an out-of-range shard count fails fast;
#   7. a request count above INT_MAX exits 2 instead of wrapping the report;
#   8. a non-integral request count exits 2 instead of being truncated, while
#      an integral one in exponent form (1e3) still runs; a count of 0 exits
#      2 naming --requests instead of printing an empty report;
#   9. an overloaded hot-key stream (about 2*10^4 requests waiting at the
#      peak) stays under a 10 MB RSS bound: the engine holds 8 B per waiting
#      request, not a queue entry and a task slot each;
#  10. a NaN or negative RSS bound, an infinite service time and an infinite
#      arrival rate exit 2 instead of switching the bound off, reporting
#      mean=inf or releasing every request at t = 0.
#
# Usable standalone:
#
#   cmake -DCLI=build/tools/flowsched_cli -DWORK_DIR=/tmp \
#         -P tools/stream_smoke.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "stream_smoke.cmake: -DCLI= is required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/stream_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# --- 1. exact regime ---------------------------------------------------------
execute_process(
  COMMAND ${CLI} stream --requests 20000 --m 16 --lambda 12 --reps 2 --seed 7
  OUTPUT_FILE ${dir}/exact.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: exact-regime stream failed (rc=${rc})")
endif()
file(READ ${dir}/exact.txt exact_out)
if(NOT exact_out MATCHES "quantiles=exact")
  message(FATAL_ERROR
      "stream_smoke: exact-regime report lacks quantiles=exact:\n${exact_out}")
endif()
if(NOT exact_out MATCHES "rep=1 ")
  message(FATAL_ERROR "stream_smoke: missing rep=1 line:\n${exact_out}")
endif()

# --- 2. sketch regime under an RSS bound ------------------------------------
# 200k requests exceeds the 2^16 exact-quantile cap; the whole run must fit
# comfortably under 256 MB (it retains O(backlog) state, not O(requests)).
execute_process(
  COMMAND ${CLI} stream --requests 200000 --m 16 --lambda 12 --seed 7
          --assert-rss-mb 256
  OUTPUT_FILE ${dir}/sketch.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "stream_smoke: sketch-regime stream failed or broke the RSS bound "
      "(rc=${rc})")
endif()
file(READ ${dir}/sketch.txt sketch_out)
if(NOT sketch_out MATCHES "quantiles=hist")
  message(FATAL_ERROR
      "stream_smoke: past-cap stream did not engage the histogram:\n"
      "${sketch_out}")
endif()

# --- 3. JSON report ---------------------------------------------------------
execute_process(
  COMMAND ${CLI} stream --requests 5000 --m 8 --lambda 6 --seed 7 --json
  OUTPUT_FILE ${dir}/report.json RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: --json stream failed (rc=${rc})")
endif()
file(READ ${dir}/report.json json_out)
if(NOT json_out MATCHES "\"p999\"" OR NOT json_out MATCHES "\"peak_backlog\"")
  message(FATAL_ERROR
      "stream_smoke: JSON report lacks p999/peak_backlog:\n${json_out}")
endif()

# --- 4. typos fail fast -----------------------------------------------------
execute_process(
  COMMAND ${CLI} stream --requets 10
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: misspelled flag was accepted")
endif()

# --- 5. sharded path: byte-equal to the single queue ------------------------
# Aligned disjoint blocks (m=16, k=4) keep every replica set shard-local at
# S=4, so legacy, --shards 1, and --shards 4 --shard-workers 4 must print
# the identical report (stdout carries no shard/worker info by design).
set(shard_args stream --requests 8000 --m 16 --k 4 --strategy disjoint --seed 7)
execute_process(
  COMMAND ${CLI} ${shard_args}
  OUTPUT_FILE ${dir}/shard_legacy.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: legacy disjoint stream failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CLI} ${shard_args} --shards 1
  OUTPUT_FILE ${dir}/shard_s1.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: --shards 1 stream failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CLI} ${shard_args} --shards 4 --shard-workers 4
  OUTPUT_FILE ${dir}/shard_s4.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: --shards 4 stream failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/shard_legacy.txt ${dir}/shard_s1.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "stream_smoke: --shards 1 diverged from the single-queue path "
      "(diff ${dir}/shard_legacy.txt ${dir}/shard_s1.txt)")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/shard_s1.txt ${dir}/shard_s4.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "stream_smoke: --shards 4 diverged on a shard-local workload "
      "(diff ${dir}/shard_s1.txt ${dir}/shard_s4.txt)")
endif()

# --- 6. invalid shard counts fail fast --------------------------------------
execute_process(
  COMMAND ${CLI} stream --requests 10 --m 4 --shards 8
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "stream_smoke: --shards > m was accepted")
endif()

# --- 7. request counts past INT_MAX are rejected ---------------------------
execute_process(
  COMMAND ${CLI} stream --requests 1e20 --m 4
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
      "stream_smoke: --requests 1e20 did not exit 2 (rc=${rc})")
endif()

# --- 8. request counts must be integral -----------------------------------
execute_process(
  COMMAND ${CLI} stream --requests 2.5 --m 4
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
      "stream_smoke: --requests 2.5 did not exit 2 (rc=${rc})")
endif()
execute_process(
  COMMAND ${CLI} stream --requests 1e3 --m 4
  OUTPUT_VARIABLE integral_out ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT integral_out MATCHES "requests=1000 ")
  message(FATAL_ERROR
      "stream_smoke: --requests 1e3 was not run as 1000 requests "
      "(rc=${rc}):\n${integral_out}")
endif()

execute_process(
  COMMAND ${CLI} stream --requests 0 --m 4
  OUTPUT_QUIET ERROR_VARIABLE zero_err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT zero_err MATCHES "--requests")
  message(FATAL_ERROR
      "stream_smoke: --requests 0 did not exit 2 naming --requests "
      "(rc=${rc}): ${zero_err}")
endif()

# --- 9. a deep backlog under an RSS bound ---------------------------------
# Zipf 1.2 over 1600 keys overloads the hottest replica set. Peak RSS reads
# about 4.5 MB with per-machine finish rings; the global completion queue
# and slot arena they replaced read about 15.5 MB on the same run.
execute_process(
  COMMAND ${CLI} stream --requests 2000000 --m 16 --zipf-s 1.2 --lambda 12
          --seed 7 --assert-rss-mb 10
  OUTPUT_FILE ${dir}/hot.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
      "stream_smoke: hot-key stream failed or broke the 10 MB RSS bound "
      "(rc=${rc})")
endif()

# --- 10. bad bounds, service times and rates exit 2 -------------------------
foreach(bad "--assert-rss-mb;nan" "--assert-rss-mb;-5"
            "--dist;constant;--service;inf" "--service;nan" "--lambda;inf")
  execute_process(
    COMMAND ${CLI} stream --requests 100 --m 4 ${bad}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "stream_smoke: stream ${bad} did not exit 2 (rc=${rc})")
  endif()
endforeach()

message(STATUS
    "stream_smoke: exact + sketch regimes, JSON, RSS bounds, sharded path OK")
