# Differential-fuzzer smoke, registered as the fuzz_smoke ctest by
# tools/CMakeLists.txt:
#
#   1. a short seeded campaign across all structures comes back clean;
#   2. the same campaign at --threads 4 prints a byte-identical report
#      (the determinism contract of src/check/fuzz.hpp);
#   3. with --inject-bug the planted EFT queue-depth off-by-one is caught
#      and every reproducer shrinks to at most 6 tasks;
#   4. with --inject-fault-bug the planted downtime-ignoring dispatcher is
#      caught by a [fault-*] check and shrinks to at most 3 tasks;
#   5. the clean campaign ran the core-vs-OnlineEngine differential
#      ([diff-streaming]: the bare StreamingEngine core against the
#      retention layer, + windowed [stream-*] audit) on every run —
#      asserted via the report's stream-checks counter;
#   6. the clean campaign armed the bound-landscape differential
#      ([diff-bounds], docs/bounds.md) on every run — asserted via the
#      report's bounds-checks counter — and --no-bounds disarms it;
#   7. the clean campaign ran the sharded-engine differential
#      ([shard-equiv] bit-equality + [shard-valid] structural audit,
#      docs/sharding.md) on every run — asserted via the report's
#      shard-checks counter — and --no-shard disarms it;
#   8. the clean campaign ran the non-clairvoyant battery ([nc-no-peek],
#      [setup-accounting], [diff-nc], [nc-lb]/[nc-ceiling],
#      docs/scenarios.md) on every run — asserted via the report's
#      nc-checks counter — and --no-nc disarms it;
#   9. the clean campaign ran the weighted battery ([weighted-accounting],
#      [diff-weighted], [weighted-ceiling]) on every run — asserted via the
#      report's weighted-checks counter — and --no-weighted disarms it;
#  10. with --inject-nc-bug the planted clairvoyance leak (true frontiers
#      handed to a censored policy) is caught by an [nc-*] check and every
#      reproducer shrinks to at most 4 tasks;
#  11. the clean campaign ran the adaptive-replication control battery
#      ([control-determinism]/[control-movement-bound]/
#      [control-setup-accounting] + the [diff-control] controller-off ==
#      static differential, docs/control.md) on every run — asserted via
#      the report's control-checks counter — and --no-control disarms it;
#  12. with --inject-control-bug the planted flapping controller (layout
#      flipped every epoch, frontier jumped in one step) is caught by a
#      [control-*] check and shrinks to at most 4 tasks;
#  13. every committed reproducer in tests/corpus replays clean (fault
#      cases route through the fault battery, ncsetup cases through the
#      non-clairvoyant battery, control cases through the control battery,
#      automatically).
#
# Usable standalone:
#
#   cmake -DFUZZ=build/tools/flowsched_fuzz \
#         -DCORPUS_DIR=tests/corpus -DWORK_DIR=/tmp -P tools/fuzz_smoke.cmake
if(NOT DEFINED FUZZ)
  message(FATAL_ERROR "fuzz_smoke.cmake: -DFUZZ= is required")
endif()
if(NOT DEFINED WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/fuzz_smoke)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# --- 1 + 2. clean campaign, byte-identical across thread counts ------------
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 40 --threads 1
  OUTPUT_FILE ${dir}/t1.txt RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  file(READ ${dir}/t1.txt out)
  message(FATAL_ERROR "fuzz_smoke: seeded campaign not clean (rc=${rc1}):\n${out}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 40 --threads 4
  OUTPUT_FILE ${dir}/t4.txt RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "fuzz_smoke: campaign failed at --threads 4 (rc=${rc4})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/t1.txt ${dir}/t4.txt
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: report differs between --threads 1 and --threads 4 "
      "(diff ${dir}/t1.txt ${dir}/t4.txt)")
endif()

# --- 3. the injected bug is caught and shrinks small -----------------------
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 12 --threads 1 --inject-bug
          --corpus-dir ${dir}/found
  OUTPUT_FILE ${dir}/bug.txt RESULT_VARIABLE bug_rc)
if(NOT bug_rc EQUAL 1)
  file(READ ${dir}/bug.txt out)
  message(FATAL_ERROR
      "fuzz_smoke: --inject-bug campaign did not report findings "
      "(rc=${bug_rc}):\n${out}")
endif()
file(READ ${dir}/bug.txt bug_report)
if(NOT bug_report MATCHES "policy=EFT-Min")
  message(FATAL_ERROR
      "fuzz_smoke: injected EFT bug not attributed to EFT-Min:\n${bug_report}")
endif()
string(REGEX MATCHALL "shrunk-to=([0-9]+)" shrunk_all "${bug_report}")
if(shrunk_all STREQUAL "")
  message(FATAL_ERROR "fuzz_smoke: no shrunk reproducer in:\n${bug_report}")
endif()
foreach(hit IN LISTS shrunk_all)
  string(REGEX REPLACE "shrunk-to=" "" n_tasks "${hit}")
  if(n_tasks GREATER 6)
    message(FATAL_ERROR
        "fuzz_smoke: reproducer kept ${n_tasks} tasks (> 6); the shrinker "
        "regressed:\n${bug_report}")
  endif()
endforeach()
file(GLOB reproducers ${dir}/found/*.txt)
if(reproducers STREQUAL "")
  message(FATAL_ERROR "fuzz_smoke: --corpus-dir produced no reproducer files")
endif()

# --- 4. the injected *fault* bug is caught and shrinks small ---------------
# Pinned to one structure: dropping tasks perturbs the whole EFT cascade,
# so ddmin can stall above 3 tasks on the adversarial structures; nested
# instances shrink all the way and still witness every [fault-*] check.
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 12 --threads 1 --inject-fault-bug
          --fault-every 1 --structure nested --corpus-dir ${dir}/fault-found
  OUTPUT_FILE ${dir}/fault-bug.txt RESULT_VARIABLE fault_rc)
if(NOT fault_rc EQUAL 1)
  file(READ ${dir}/fault-bug.txt out)
  message(FATAL_ERROR
      "fuzz_smoke: --inject-fault-bug campaign did not report findings "
      "(rc=${fault_rc}):\n${out}")
endif()
file(READ ${dir}/fault-bug.txt fault_report)
if(NOT fault_report MATCHES "\\[fault-")
  message(FATAL_ERROR
      "fuzz_smoke: injected fault bug not caught by a [fault-*] check:\n"
      "${fault_report}")
endif()
string(REGEX MATCHALL "shrunk-to=([0-9]+)" fault_shrunk "${fault_report}")
if(fault_shrunk STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: no shrunk fault reproducer in:\n${fault_report}")
endif()
foreach(hit IN LISTS fault_shrunk)
  string(REGEX REPLACE "shrunk-to=" "" n_tasks "${hit}")
  if(n_tasks GREATER 3)
    message(FATAL_ERROR
        "fuzz_smoke: fault reproducer kept ${n_tasks} tasks (> 3); the "
        "shrinker regressed:\n${fault_report}")
  endif()
endforeach()
file(GLOB fault_reproducers ${dir}/fault-found/*.txt)
if(fault_reproducers STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: --inject-fault-bug produced no reproducer files")
endif()

# --- 5. the streaming differential actually ran ----------------------------
# stream_every defaults to 1, so the clean campaign above must have executed
# the core-vs-OnlineEngine check on all 40 runs. A zero (or absent) counter
# means the differential silently stopped running.
file(READ ${dir}/t1.txt clean_report)
if(NOT clean_report MATCHES "stream-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the stream-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: streaming differential never ran (stream-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-stream
  OUTPUT_FILE ${dir}/nostream.txt RESULT_VARIABLE nostream_rc)
if(NOT nostream_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: --no-stream campaign failed (rc=${nostream_rc})")
endif()
file(READ ${dir}/nostream.txt nostream_report)
if(NOT nostream_report MATCHES "stream-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-stream did not disable the streaming differential:\n"
      "${nostream_report}")
endif()

# --- 6. the bound-landscape differential actually ran ----------------------
# bounds_diff defaults to on, so the clean campaign must have armed
# [diff-bounds] (work ceiling + Cor. 1 on disjoint families) on all runs.
if(NOT clean_report MATCHES "bounds-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the bounds-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: bound-landscape differential never ran (bounds-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-bounds
  OUTPUT_FILE ${dir}/nobounds.txt RESULT_VARIABLE nobounds_rc)
if(NOT nobounds_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: --no-bounds campaign failed (rc=${nobounds_rc})")
endif()
file(READ ${dir}/nobounds.txt nobounds_report)
if(NOT nobounds_report MATCHES "bounds-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-bounds did not disable the bound differential:\n"
      "${nobounds_report}")
endif()

# --- 7. the sharded differential actually ran -------------------------------
# shard_every defaults to 1, so the clean campaign must have run the
# sharded-vs-single-queue check (S in {2, 4}, forced multi-epoch routing and
# steals) on every multi-machine run.
if(NOT clean_report MATCHES "shard-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the shard-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: sharded differential never ran (shard-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-shard
  OUTPUT_FILE ${dir}/noshard.txt RESULT_VARIABLE noshard_rc)
if(NOT noshard_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: --no-shard campaign failed (rc=${noshard_rc})")
endif()
file(READ ${dir}/noshard.txt noshard_report)
if(NOT noshard_report MATCHES "shard-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-shard did not disable the sharded differential:\n"
      "${noshard_report}")
endif()

# --- 8. the non-clairvoyant battery actually ran ----------------------------
# nc_every defaults to 1, so the clean campaign must have pushed every run
# through the censored-engine battery.
if(NOT clean_report MATCHES "nc-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the nc-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: non-clairvoyant battery never ran (nc-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-nc
  OUTPUT_FILE ${dir}/nonc.txt RESULT_VARIABLE nonc_rc)
if(NOT nonc_rc EQUAL 0)
  message(FATAL_ERROR "fuzz_smoke: --no-nc campaign failed (rc=${nonc_rc})")
endif()
file(READ ${dir}/nonc.txt nonc_report)
if(NOT nonc_report MATCHES " nc-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-nc did not disable the non-clairvoyant battery:\n"
      "${nonc_report}")
endif()

# --- 9. the weighted battery actually ran -----------------------------------
# weighted_every defaults to 1, so the clean campaign must have pushed a
# randomly-weighted copy of every run's instance through the weighted checks.
if(NOT clean_report MATCHES "weighted-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the weighted-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: weighted battery never ran (weighted-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-weighted
  OUTPUT_FILE ${dir}/noweighted.txt RESULT_VARIABLE noweighted_rc)
if(NOT noweighted_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: --no-weighted campaign failed (rc=${noweighted_rc})")
endif()
file(READ ${dir}/noweighted.txt noweighted_report)
if(NOT noweighted_report MATCHES "weighted-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-weighted did not disable the weighted battery:\n"
      "${noweighted_report}")
endif()

# --- 10. the injected clairvoyance leak is caught and shrinks small ---------
# Pinned to the nested structure for the same shrinkability reason as the
# fault-bug step. The leak hands true frontiers/loads/p_i to the censored
# dispatcher, so the frontier-reading policies diverge under the
# [nc-no-peek] counterfactual permutation.
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 12 --threads 1 --inject-nc-bug
          --structure nested --no-faults --no-stream --no-shard
          --corpus-dir ${dir}/nc-found
  OUTPUT_FILE ${dir}/nc-bug.txt RESULT_VARIABLE nc_rc)
if(NOT nc_rc EQUAL 1)
  file(READ ${dir}/nc-bug.txt out)
  message(FATAL_ERROR
      "fuzz_smoke: --inject-nc-bug campaign did not report findings "
      "(rc=${nc_rc}):\n${out}")
endif()
file(READ ${dir}/nc-bug.txt nc_report)
if(NOT nc_report MATCHES "\\[nc-")
  message(FATAL_ERROR
      "fuzz_smoke: injected clairvoyance leak not caught by an [nc-*] "
      "check:\n${nc_report}")
endif()
string(REGEX MATCHALL "shrunk-to=([0-9]+)" nc_shrunk "${nc_report}")
if(nc_shrunk STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: no shrunk nc reproducer in:\n${nc_report}")
endif()
# The best reproducer must be minimal (<= 4 tasks). Randomized policies can
# plateau higher — removing tasks renumbers the counter-RNG task ids, which
# changes their draws and mutates the finding mid-shrink — so the bound is
# on the minimum over findings, not on every finding.
set(nc_best 1000000)
foreach(hit IN LISTS nc_shrunk)
  string(REGEX REPLACE "shrunk-to=" "" n_tasks "${hit}")
  if(n_tasks LESS nc_best)
    set(nc_best ${n_tasks})
  endif()
endforeach()
if(nc_best GREATER 4)
  message(FATAL_ERROR
      "fuzz_smoke: smallest nc reproducer kept ${nc_best} tasks (> 4); "
      "the shrinker regressed:\n${nc_report}")
endif()
file(GLOB nc_reproducers ${dir}/nc-found/*.txt)
if(nc_reproducers STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: --inject-nc-bug produced no reproducer files")
endif()

# --- 11. the control battery actually ran -----------------------------------
# control_every defaults to 1, so the clean campaign must have run the
# audited adaptive run plus the controller-off-vs-static differential on
# every instance.
if(NOT clean_report MATCHES "control-checks=([0-9]+)")
  message(FATAL_ERROR
      "fuzz_smoke: report lacks the control-checks counter:\n${clean_report}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: control battery never ran (control-checks=0):\n"
      "${clean_report}")
endif()
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 8 --threads 1 --no-control
  OUTPUT_FILE ${dir}/nocontrol.txt RESULT_VARIABLE nocontrol_rc)
if(NOT nocontrol_rc EQUAL 0)
  message(FATAL_ERROR
      "fuzz_smoke: --no-control campaign failed (rc=${nocontrol_rc})")
endif()
file(READ ${dir}/nocontrol.txt nocontrol_report)
if(NOT nocontrol_report MATCHES " control-checks=0")
  message(FATAL_ERROR
      "fuzz_smoke: --no-control did not disable the control battery:\n"
      "${nocontrol_report}")
endif()

# --- 12. the injected control flap is caught and shrinks small ---------------
# The planted flap breaks determinism on the very first decision epoch (a
# clean controller replay decides differently), so the finding survives
# aggressive stream shrinking — down to a single task.
execute_process(
  COMMAND ${FUZZ} run --seed 42 --runs 4 --threads 1 --inject-control-bug
          --no-faults --no-stream --no-shard --no-nc --no-weighted
          --corpus-dir ${dir}/control-found
  OUTPUT_FILE ${dir}/control-bug.txt RESULT_VARIABLE control_rc)
if(NOT control_rc EQUAL 1)
  file(READ ${dir}/control-bug.txt out)
  message(FATAL_ERROR
      "fuzz_smoke: --inject-control-bug campaign did not report findings "
      "(rc=${control_rc}):\n${out}")
endif()
file(READ ${dir}/control-bug.txt control_report)
if(NOT control_report MATCHES "\\[control-")
  message(FATAL_ERROR
      "fuzz_smoke: injected flap not caught by a [control-*] check:\n"
      "${control_report}")
endif()
string(REGEX MATCHALL "shrunk-to=([0-9]+)" control_shrunk "${control_report}")
if(control_shrunk STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: no shrunk control reproducer in:\n${control_report}")
endif()
foreach(hit IN LISTS control_shrunk)
  string(REGEX REPLACE "shrunk-to=" "" n_tasks "${hit}")
  if(n_tasks GREATER 4)
    message(FATAL_ERROR
        "fuzz_smoke: control reproducer kept ${n_tasks} tasks (> 4); the "
        "shrinker regressed:\n${control_report}")
  endif()
endforeach()
file(GLOB control_reproducers ${dir}/control-found/*.txt)
if(control_reproducers STREQUAL "")
  message(FATAL_ERROR
      "fuzz_smoke: --inject-control-bug produced no reproducer files")
endif()

# --- 13. committed corpus replays clean ------------------------------------
if(DEFINED CORPUS_DIR)
  file(GLOB corpus ${CORPUS_DIR}/*.txt)
  foreach(f IN LISTS corpus)
    execute_process(COMMAND ${FUZZ} replay --input ${f} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "fuzz_smoke: corpus replay failed for ${f} (rc=${rc})")
    endif()
  endforeach()
endif()

message(STATUS "fuzz_smoke: clean campaign, deterministic report, bug caught")
