# End-to-end checks of crash-safe persistence: kill-and-resume and
# shard-and-merge sweeps must reproduce the uninterrupted single-process
# run byte for byte. Invoked by ctest as:
#   cmake -DTOOL=<thistle-opt> -DWORK_DIR=<dir> -DCHECK=resume|shards
#         [-DCHECKER=<check_run_report.py> -DPYTHON=<python3>]
#         -P CheckResume.cmake
#
#  resume: run a sweep with --cache-dir, SIGKILL it mid-flight at a
#          fixed journal record (the persist.kill fault site), resume with
#          --resume, and require that the kill landed, that the resumed
#          run both replayed and solved tasks, and that its output and run
#          report match an uninterrupted run (persistence accounting lines
#          aside).
#  shards: split the same sweep across 4 --shard runs, recombine with
#          --merge-shards, and require the merged run to match a plain
#          single-process run with every task replayed from checkpoints.

set(NETWORK --network resnet18 --threads 2)

# Strips the accounting that legitimately differs between a cold, warm
# and resumed run: cache statistics, persistence progress lines, and the
# run-report path notice (the reports live in different files). The
# patterns are anchored to line starts via a sentinel newline — a cache
# *directory* named ".../foo-cache" must not trip the "cache:" match.
function(strip_accounting VAR TEXT)
  string(REGEX REPLACE "\n(cache: |persist: |run report written to )[^\n]*"
    "" TEXT "\n${TEXT}")
  string(REGEX REPLACE "^\n" "" TEXT "${TEXT}")
  set(${VAR} "${TEXT}" PARENT_SCOPE)
endfunction()

# Canonicalizes a run report (drops timing/telemetry/persistence
# sections) and returns it; fails the test on schema violations.
function(canonical_report VAR REPORT)
  execute_process(
    COMMAND ${PYTHON} ${CHECKER} --canonical ${REPORT}
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "schema check failed on ${REPORT}:\n${OUT}\n${ERR}")
  endif()
  set(${VAR} "${OUT}" PARENT_SCOPE)
endfunction()

if(CHECK STREQUAL "resume")
  set(DIR ${WORK_DIR}/resume-cache)
  file(REMOVE_RECURSE ${DIR})

  # 1. The uninterrupted baseline (no durable cache).
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --trace-json ${WORK_DIR}/resume-base.json
    OUTPUT_VARIABLE BASE_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "baseline run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()

  # 2. Start the same sweep with a checkpoint directory and SIGKILL it
  #    mid-flight: persist.kill makes the process kill itself right after
  #    it flushed journal record KILL_AT, whatever the machine's speed.
  #    The sweep has 408 tasks, so the kill must land.
  set(KILL_AT 100)
  set(ENV{THISTLE_FAULT} persist.kill:${KILL_AT})
  execute_process(
    COMMAND sh -c "\"$0\" \"$@\" >/dev/null 2>&1; echo $?"
            ${TOOL} ${NETWORK} --cache-dir ${DIR}
    OUTPUT_VARIABLE KILLED
    RESULT_VARIABLE CODE)
  unset(ENV{THISTLE_FAULT})
  string(STRIP "${KILLED}" KILLED)
  if(NOT CODE EQUAL 0 OR NOT KILLED STREQUAL "137")
    message(FATAL_ERROR "the checkpointed run was not SIGKILLed at journal "
      "record ${KILL_AT}: exit status '${KILLED}' (harness '${CODE}')")
  endif()

  # 3. Resume. The checkpointed tasks replay as exact cache hits; the
  #    rest solve cold. The result must match the baseline byte for
  #    byte.
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --resume ${DIR}
            --trace-json ${WORK_DIR}/resume-resumed.json
    OUTPUT_VARIABLE RESUMED_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "resumed run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()
  if(NOT RESUMED_OUT MATCHES "persist: ")
    message(FATAL_ERROR "resumed run: no persistence accounting\n${RESUMED_OUT}")
  endif()
  # The kill landed mid-sweep: the resumed run's report shows it loaded
  # exactly the killed run's records, replayed each as a cache hit and
  # solved the rest.
  file(READ ${WORK_DIR}/resume-resumed.json RESUMED_REPORT)
  foreach(FIELD loaded_entries cache_hits cache_misses)
    string(REGEX MATCH "\"${FIELD}\": ([0-9]+)" MATCH "${RESUMED_REPORT}")
    set(${FIELD} "${CMAKE_MATCH_1}")
  endforeach()
  if(NOT loaded_entries EQUAL KILL_AT OR NOT cache_hits EQUAL KILL_AT
     OR NOT cache_misses GREATER 0)
    message(FATAL_ERROR "resumed run: expected ${KILL_AT} loaded entries, "
      "${KILL_AT} cache hits and some misses; got loaded_entries="
      "'${loaded_entries}' cache_hits='${cache_hits}' "
      "cache_misses='${cache_misses}'")
  endif()
  strip_accounting(BASE_OUT "${BASE_OUT}")
  strip_accounting(RESUMED_OUT "${RESUMED_OUT}")
  if(NOT BASE_OUT STREQUAL RESUMED_OUT)
    message(FATAL_ERROR
      "resume changed the results\n"
      "---- uninterrupted ----\n${BASE_OUT}\n---- resumed ----\n${RESUMED_OUT}")
  endif()

  # 4. Clean exit compacted the journal into a snapshot.
  if(NOT EXISTS ${DIR}/gpcache.snap)
    message(FATAL_ERROR "resumed run: no compacted snapshot in ${DIR}")
  endif()
  if(EXISTS ${DIR}/gpcache.journal)
    message(FATAL_ERROR "resumed run: journal survived compaction in ${DIR}")
  endif()

  # 5. The run reports agree on everything but timing and the
  #    persistence accounting itself.
  if(PYTHON)
    canonical_report(BASE_JSON ${WORK_DIR}/resume-base.json)
    canonical_report(RESUMED_JSON ${WORK_DIR}/resume-resumed.json)
    if(NOT BASE_JSON STREQUAL RESUMED_JSON)
      message(FATAL_ERROR
        "resume changed the run report\n"
        "---- uninterrupted ----\n${BASE_JSON}\n"
        "---- resumed ----\n${RESUMED_JSON}")
    endif()
  endif()

elseif(CHECK STREQUAL "shards")
  set(DIR ${WORK_DIR}/shard-cache)
  file(REMOVE_RECURSE ${DIR})

  # 1. The single-process baseline.
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --trace-json ${WORK_DIR}/shard-base.json
    OUTPUT_VARIABLE BASE_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "baseline run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()

  # 2. Four shards, each solving a quarter of the task grid into its own
  #    checkpoint segment.
  foreach(I RANGE 1 4)
    execute_process(
      COMMAND ${TOOL} ${NETWORK} --cache-dir ${DIR} --shard ${I}/4
      OUTPUT_VARIABLE OUT
      ERROR_VARIABLE ERR
      RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      message(FATAL_ERROR
        "shard ${I}/4: expected exit 0, got '${CODE}'\n${OUT}\n${ERR}")
    endif()
    if(NOT EXISTS ${DIR}/shard-${I}-of-4.snap)
      message(FATAL_ERROR "shard ${I}/4 left no checkpoint segment")
    endif()
  endforeach()

  # 3. Merge. Every task must replay from a shard segment — zero misses
  #    — and reproduce the single-process run byte for byte.
  execute_process(
    COMMAND ${TOOL} ${NETWORK} --cache-dir ${DIR} --merge-shards
            --trace-json ${WORK_DIR}/shard-merge.json
    OUTPUT_VARIABLE MERGE_OUT
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    message(FATAL_ERROR "merge run: expected exit 0, got '${CODE}'\n${ERR}")
  endif()
  if(NOT MERGE_OUT MATCHES ", 0 misses")
    message(FATAL_ERROR
      "merge run re-solved tasks the shards already checkpointed\n${MERGE_OUT}")
  endif()
  strip_accounting(BASE_OUT "${BASE_OUT}")
  strip_accounting(MERGE_OUT "${MERGE_OUT}")
  if(NOT BASE_OUT STREQUAL MERGE_OUT)
    message(FATAL_ERROR
      "merge changed the results\n"
      "---- single-process ----\n${BASE_OUT}\n---- merged ----\n${MERGE_OUT}")
  endif()

  # 4. The merge compacted everything into one snapshot and retired the
  #    per-shard segments.
  if(NOT EXISTS ${DIR}/gpcache.snap)
    message(FATAL_ERROR "merge run: no compacted snapshot in ${DIR}")
  endif()
  file(GLOB LEFTOVER ${DIR}/shard-*.snap ${DIR}/shard-*.journal)
  if(LEFTOVER)
    message(FATAL_ERROR "merge run left shard segments behind: ${LEFTOVER}")
  endif()

  if(PYTHON)
    canonical_report(BASE_JSON ${WORK_DIR}/shard-base.json)
    canonical_report(MERGE_JSON ${WORK_DIR}/shard-merge.json)
    if(NOT BASE_JSON STREQUAL MERGE_JSON)
      message(FATAL_ERROR
        "merge changed the run report\n"
        "---- single-process ----\n${BASE_JSON}\n---- merged ----\n${MERGE_JSON}")
    endif()
  endif()

else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
