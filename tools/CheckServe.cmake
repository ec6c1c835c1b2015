# End-to-end contract of the thistle-serve daemon (docs/SERVING.md):
# answers to a query must be byte-identical whether served cold, hot
# from the in-memory cache, reloaded from the durable snapshot after a
# restart, or raced by identical concurrent clients — and must match
# what a standalone thistle-opt run computes for the same problem.
# Invoked by ctest as:
#   cmake -DSERVE=<thistle-serve> -DQUERY=<thistle-query>
#         -DOPT=<thistle-opt> -DWORK_DIR=<dir>
#         [-DCHECKER=<check_run_report.py> -DPYTHON=<python3>]
#         [-DFAULTS=ON] -P CheckServe.cmake
# FAULTS says the fault-injection hooks are compiled in; every daemon
# then runs with THISTLE_FAULT=thistle.deadline:0, which only a query
# with a deadline consults.

set(DIR ${WORK_DIR}/serve-cache)
set(PORTFILE ${WORK_DIR}/serve-port.txt)
set(PIDFILE ${WORK_DIR}/serve-pid.txt)
file(REMOVE_RECURSE ${DIR})
file(REMOVE ${PORTFILE} ${PIDFILE})

# Every failure goes through here: it kills the daemon the PID file
# names and waits until it is gone, so a failed check never leaves one
# behind, then fails.
function(die MSG)
  if(EXISTS ${PIDFILE})
    file(READ ${PIDFILE} PID)
    string(STRIP "${PID}" PID)
    execute_process(COMMAND sh -c "kill -9 ${PID} 2>/dev/null; \
for i in $(seq 100); do kill -0 ${PID} 2>/dev/null || break; sleep 0.1; done")
  endif()
  message(FATAL_ERROR "${MSG}")
endfunction()

# Runs a command and dies naming WHAT unless it exits 0.
function(must_pass WHAT)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    die("${WHAT}: exit '${CODE}'\n${OUT}\n${ERR}")
  endif()
endfunction()

# The layer and network queries the daemon will be asked to solve, and
# the equivalent standalone thistle-opt invocations they must match.
set(Q_LAYER "{\"schema\":\"thistle-serve/1\",\"id\":1,\"query\":{\"workload\":{\"layer\":[16,8,14,14,3,3]}}}")
set(Q_NET "{\"schema\":\"thistle-serve/1\",\"id\":2,\"query\":{\"workload\":{\"network\":\"resnet18\"}}}")
set(Q_DEADLINE "{\"schema\":\"thistle-serve/1\",\"id\":3,\"query\":{\"workload\":{\"layer\":[16,8,14,14,3,3]},\"deadline_ms\":600000}}")

function(wait_for_file PATH WHAT)
  foreach(I RANGE 100)
    if(EXISTS ${PATH})
      return()
    endif()
    execute_process(COMMAND sh -c "sleep 0.1")
  endforeach()
  die("timed out waiting for ${WHAT} (${PATH})")
endfunction()

function(wait_for_exit WHAT)
  file(READ ${PIDFILE} PID)
  string(STRIP "${PID}" PID)
  foreach(I RANGE 200)
    execute_process(COMMAND sh -c "kill -0 ${PID} 2>/dev/null"
      RESULT_VARIABLE ALIVE)
    if(NOT ALIVE EQUAL 0)
      file(REMOVE ${PIDFILE})
      return()
    endif()
    execute_process(COMMAND sh -c "sleep 0.1")
  endforeach()
  die("timed out waiting for ${WHAT} to exit (pid ${PID})")
endfunction()

if(FAULTS)
  set(DAEMON_FAULT thistle.deadline:0)
endif()
function(start_daemon REPORT LOG)
  file(REMOVE ${PORTFILE} ${PIDFILE})
  execute_process(
    COMMAND sh -c "THISTLE_FAULT='${DAEMON_FAULT}' '${SERVE}' \
--cache-dir '${DIR}' --threads 2 \
--port-file '${PORTFILE}' --trace-json '${REPORT}' \
> '${LOG}' 2>&1 & echo $! > '${PIDFILE}'"
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    die("could not launch thistle-serve ('${CODE}')")
  endif()
  wait_for_file(${PORTFILE} "daemon port file")
endfunction()

# Sends requests with thistle-query, captures the raw response lines in
# OUTFILE. Every response the daemon ever produces is captured in some
# file so the final accounting check can reconcile them against the
# daemon's own run report.
function(run_query OUTFILE)
  execute_process(
    COMMAND ${QUERY} --port-file ${PORTFILE} ${ARGN}
    OUTPUT_FILE ${OUTFILE}
    ERROR_VARIABLE ERR
    RESULT_VARIABLE CODE)
  if(NOT CODE EQUAL 0)
    die("thistle-query exit '${CODE}'\n${ERR}")
  endif()
endfunction()

# Cuts a response at its `server` section — latency, queue depth and
# per-request cache accounting legitimately differ between runs; the
# rest must not.
function(strip_server VAR LINE)
  string(FIND "${LINE}" ",\"server\":" POS REVERSE)
  if(NOT POS EQUAL -1)
    string(SUBSTRING "${LINE}" 0 ${POS} LINE)
    string(APPEND LINE "}")
  endif()
  set(${VAR} "${LINE}" PARENT_SCOPE)
endfunction()

function(first_line VAR PATH)
  file(STRINGS ${PATH} LINES)
  list(GET LINES 0 L)
  set(${VAR} "${L}" PARENT_SCOPE)
endfunction()

# 1. Standalone baselines: what thistle-opt computes for the same
#    problems, with run reports for the report-identity check below.
must_pass("layer baseline" ${OPT} --layer 16,8,14,14,3,3
  --trace-json ${WORK_DIR}/serve-opt-layer.json)
must_pass("network baseline" ${OPT} --network resnet18 --threads 2
  --trace-json ${WORK_DIR}/serve-opt-net.json)

# 2. First daemon lifetime: cold solve, hot replay, concurrent race.
start_daemon(${WORK_DIR}/serve-report-1.json ${WORK_DIR}/serve-log-1.txt)

run_query(${WORK_DIR}/serve-r1.jsonl --request ${Q_LAYER})
first_line(COLD ${WORK_DIR}/serve-r1.jsonl)
if(NOT COLD MATCHES "\"status\":\"ok\"")
  die("cold layer query did not succeed\n${COLD}")
endif()

run_query(${WORK_DIR}/serve-r2.jsonl --request ${Q_LAYER})
first_line(HOT ${WORK_DIR}/serve-r2.jsonl)
strip_server(COLD_CORE "${COLD}")
strip_server(HOT_CORE "${HOT}")
if(NOT COLD_CORE STREQUAL HOT_CORE)
  die("hot replay diverged from the cold solve\n\
---- cold ----\n${COLD_CORE}\n---- hot ----\n${HOT_CORE}")
endif()

# Eight identical requests racing on their own connections must
# collapse to one answer — the dedup/batching path cannot change bytes.
set(RACE ${WORK_DIR}/serve-race.jsonl)
file(WRITE ${RACE} "")
foreach(I RANGE 1 8)
  file(APPEND ${RACE} "${Q_LAYER}\n")
endforeach()
run_query(${WORK_DIR}/serve-r3.jsonl --parallel --file ${RACE})
file(STRINGS ${WORK_DIR}/serve-r3.jsonl RACE_LINES)
list(LENGTH RACE_LINES N)
if(NOT N EQUAL 8)
  die("race: expected 8 responses, got ${N}")
endif()
set(RACE_CORES "")
foreach(L ${RACE_LINES})
  strip_server(CORE "${L}")
  list(APPEND RACE_CORES "${CORE}")
endforeach()
list(REMOVE_DUPLICATES RACE_CORES)
list(LENGTH RACE_CORES UNIQUE)
if(NOT UNIQUE EQUAL 1)
  die("race: ${UNIQUE} distinct answers to identical queries\n${RACE_CORES}")
endif()
list(GET RACE_CORES 0 RACE_CORE)
if(NOT RACE_CORE STREQUAL COLD_CORE)
  die("race: concurrent answer diverged from the cold solve\n\
---- cold ----\n${COLD_CORE}\n---- raced ----\n${RACE_CORE}")
endif()

# Network-level query, an expired deadline (must degrade, not crash),
# and the error paths: garbage input and a bad schema tag answer with
# structured invalid-input envelopes while the daemon keeps serving.
# The deadline cannot expire by itself: the armed thistle.deadline site
# expires it for pair task 0 (without the hooks the answer is ok), and
# the unlimited rerun of the same layer must still succeed.
run_query(${WORK_DIR}/serve-r4.jsonl --request ${Q_NET})
first_line(NET ${WORK_DIR}/serve-r4.jsonl)
if(NOT NET MATCHES "\"status\":\"ok\"")
  die("network query did not succeed\n${NET}")
endif()

run_query(${WORK_DIR}/serve-r5.jsonl --request ${Q_DEADLINE}
  --request ${Q_LAYER})
file(STRINGS ${WORK_DIR}/serve-r5.jsonl DL_LINES)
list(GET DL_LINES 0 DL)
list(GET DL_LINES 1 UNLIMITED)
if(FAULTS)
  set(WANT "\"status\":\"degraded\",\"exit_code\":1")
  set(EXPIRED true)
else()
  set(WANT "\"status\":\"ok\",\"exit_code\":0")
  set(EXPIRED false)
endif()
if(NOT DL MATCHES "${WANT}" OR NOT DL MATCHES "\"deadline_expired\":${EXPIRED}")
  die("deadline query: wanted ${WANT}, deadline_expired ${EXPIRED}\n${DL}")
endif()
if(NOT UNLIMITED MATCHES "\"status\":\"ok\"")
  die("unlimited query after the deadline query did not succeed\n${UNLIMITED}")
endif()

run_query(${WORK_DIR}/serve-r6.jsonl
  --request "this is not json"
  --request "{\"schema\":\"bogus/9\",\"query\":{}}"
  --request "{\"cmd\":\"ping\"}"
  --request "{\"cmd\":\"stats\"}")
file(STRINGS ${WORK_DIR}/serve-r6.jsonl ERRS)
list(GET ERRS 0 BAD_JSON)
list(GET ERRS 1 BAD_SCHEMA)
list(GET ERRS 2 PONG)
list(GET ERRS 3 STATS)
foreach(RESP IN ITEMS "${BAD_JSON}" "${BAD_SCHEMA}")
  if(NOT RESP MATCHES "\"status\":\"invalid\"" OR
     NOT RESP MATCHES "\"exit_code\":2")
    die("bad input not rejected as invalid\n${RESP}")
  endif()
endforeach()
if(NOT PONG MATCHES "\"status\":\"ok\"")
  die("ping failed\n${PONG}")
endif()
if(NOT STATS MATCHES "\"serve\":")
  die("stats response lacks the serve section\n${STATS}")
endif()

# 3. Clean shutdown over the wire: the daemon acknowledges, compacts
#    its journal into the snapshot, and writes its run report.
run_query(${WORK_DIR}/serve-r7.jsonl --request "{\"cmd\":\"shutdown\"}")
wait_for_exit("daemon (first lifetime)")
wait_for_file(${WORK_DIR}/serve-report-1.json "first daemon run report")
if(NOT EXISTS ${DIR}/gpcache.snap)
  die("shutdown left no compacted snapshot in ${DIR}")
endif()
if(EXISTS ${DIR}/gpcache.journal)
  die("journal survived shutdown compaction in ${DIR}")
endif()

# 4. Second daemon lifetime on the same cache directory: the answer now
#    comes from the reloaded snapshot and must still be byte-identical.
start_daemon(${WORK_DIR}/serve-report-2.json ${WORK_DIR}/serve-log-2.txt)
run_query(${WORK_DIR}/serve-p2r1.jsonl --request ${Q_LAYER})
first_line(RELOADED ${WORK_DIR}/serve-p2r1.jsonl)
strip_server(RELOADED_CORE "${RELOADED}")
if(NOT RELOADED_CORE STREQUAL COLD_CORE)
  die("disk-reloaded answer diverged from the cold solve\n\
---- cold ----\n${COLD_CORE}\n---- reloaded ----\n${RELOADED_CORE}")
endif()
run_query(${WORK_DIR}/serve-p2r2.jsonl --request "{\"cmd\":\"shutdown\"}")
wait_for_exit("daemon (second lifetime)")
wait_for_file(${WORK_DIR}/serve-report-2.json "second daemon run report")

# 5. Schema-level checks: every captured response is a valid
#    thistle-serve/1 envelope, the embedded reports are byte-identical
#    to the standalone thistle-opt run reports in the shared diff normal
#    form, and the daemon's accounting reconciles with the responses.
if(PYTHON)
  foreach(F serve-r1 serve-r2 serve-r3 serve-r4 serve-r5 serve-r6
            serve-r7 serve-p2r1 serve-p2r2)
    must_pass("envelope check on ${F}"
      ${PYTHON} ${CHECKER} --serve ${WORK_DIR}/${F}.jsonl)
  endforeach()

  function(reports_match RESPONSES BASELINE WHAT)
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --extract-report ${RESPONSES}
      OUTPUT_VARIABLE SERVED ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      die("report extraction failed on ${RESPONSES}:\n${ERR}")
    endif()
    execute_process(
      COMMAND ${PYTHON} ${CHECKER} --for-diff ${BASELINE}
      OUTPUT_VARIABLE STANDALONE ERROR_VARIABLE ERR RESULT_VARIABLE CODE)
    if(NOT CODE EQUAL 0)
      die("diff form failed on ${BASELINE}:\n${ERR}")
    endif()
    if(NOT SERVED STREQUAL STANDALONE)
      die("${WHAT}: served report diverged from standalone thistle-opt\n\
---- served ----\n${SERVED}\n---- standalone ----\n${STANDALONE}")
    endif()
  endfunction()
  reports_match(${WORK_DIR}/serve-r1.jsonl
    ${WORK_DIR}/serve-opt-layer.json "layer query")
  reports_match(${WORK_DIR}/serve-r4.jsonl
    ${WORK_DIR}/serve-opt-net.json "network query")

  must_pass("serve accounting" ${PYTHON} ${CHECKER} --serve-consistency
    ${WORK_DIR}/serve-report-1.json
    ${WORK_DIR}/serve-r1.jsonl ${WORK_DIR}/serve-r2.jsonl
    ${WORK_DIR}/serve-r3.jsonl ${WORK_DIR}/serve-r4.jsonl
    ${WORK_DIR}/serve-r5.jsonl ${WORK_DIR}/serve-r6.jsonl
    ${WORK_DIR}/serve-r7.jsonl)
  must_pass("second-lifetime accounting"
    ${PYTHON} ${CHECKER} --serve-consistency
    ${WORK_DIR}/serve-report-2.json
    ${WORK_DIR}/serve-p2r1.jsonl ${WORK_DIR}/serve-p2r2.jsonl)
endif()

# 6. Every query kind the two parsers share builds the same job as the
#    equivalent thistle-opt flags. A third daemon lifetime answers one
#    query of each kind; every embedded report must equal the standalone
#    run's report in the shared diff normal form. Each case is
#    "name|thistle-opt flags|query".
if(PYTHON)
  set(DIR ${WORK_DIR}/serve-cache-kinds)
  file(REMOVE_RECURSE ${DIR})
  set(L "{\"layer\":[16,8,14,14,3,3]}")
  set(CASES
    "object_layer|--layer 8,8,10,10,3,3 --groups 8 --padding valid|{\"workload\":{\"layer\":{\"groups\":8,\"padding\":\"valid\",\"dims\":[8,8,10,10,3,3]}}}"
    "transposed|--layer 4,8,5,5,3,3,2 --transposed|{\"workload\":{\"layer\":{\"dims\":[4,8,5,5,3,3,2],\"transposed\":true}}}"
    "resnet|--resnet 12|{\"workload\":{\"resnet\":12}}"
    "yolo|--yolo 11|{\"workload\":{\"yolo\":11}}"
    "codesign|--layer 16,8,14,14,3,3 --mode codesign|{\"workload\":${L},\"mode\":\"codesign\"}"
    "codesign_area|--layer 16,8,14,14,3,3 --mode codesign --area-budget 1000000|{\"workload\":${L},\"mode\":\"codesign\",\"area_budget\":1000000}"
    "edp_candidates|--layer 16,8,14,14,3,3 --objective edp --candidates 3|{\"workload\":${L},\"objective\":\"edp\",\"candidates\":3}"
    "delay_candidates|--layer 16,8,14,14,3,3 --objective delay --candidates 4|{\"workload\":${L},\"objective\":\"delay\",\"candidates\":4}"
    "arch|--layer 16,8,14,14,3,3 --pes 64 --regs 256 --sram-words 32768|{\"workload\":${L},\"arch\":{\"pes\":64,\"regs\":256,\"sram_words\":32768}}")

  # The standalone baselines run before the daemon starts, so a failing
  # one cannot leave it running.
  set(KINDS "")
  foreach(CASE IN LISTS CASES)
    string(REPLACE "|" ";" PARTS "${CASE}")
    list(GET PARTS 0 KIND)
    list(GET PARTS 1 FLAGS)
    separate_arguments(FLAGS UNIX_COMMAND "${FLAGS}")
    must_pass("${KIND} baseline"
      ${OPT} ${FLAGS} --trace-json ${WORK_DIR}/serve-opt-${KIND}.json)
    list(APPEND KINDS ${KIND})
  endforeach()

  start_daemon(${WORK_DIR}/serve-report-3.json ${WORK_DIR}/serve-log-3.txt)
  set(RESPONSES "")
  foreach(CASE IN LISTS CASES)
    string(REPLACE "|" ";" PARTS "${CASE}")
    list(GET PARTS 0 KIND)
    list(GET PARTS 2 REQUEST)
    run_query(${WORK_DIR}/serve-k-${KIND}.jsonl --request
      "{\"schema\":\"thistle-serve/1\",\"id\":\"${KIND}\",\"query\":${REQUEST}}")
    list(APPEND RESPONSES ${WORK_DIR}/serve-k-${KIND}.jsonl)
  endforeach()
  run_query(${WORK_DIR}/serve-k-shutdown.jsonl --request "{\"cmd\":\"shutdown\"}")
  list(APPEND RESPONSES ${WORK_DIR}/serve-k-shutdown.jsonl)
  wait_for_exit("daemon (third lifetime)")
  wait_for_file(${WORK_DIR}/serve-report-3.json "third daemon run report")

  foreach(F ${RESPONSES})
    must_pass("envelope check on ${F}" ${PYTHON} ${CHECKER} --serve ${F})
  endforeach()
  foreach(KIND ${KINDS})
    reports_match(${WORK_DIR}/serve-k-${KIND}.jsonl
      ${WORK_DIR}/serve-opt-${KIND}.json "${KIND} query")
  endforeach()
  must_pass("third-lifetime accounting" ${PYTHON} ${CHECKER}
    --serve-consistency ${WORK_DIR}/serve-report-3.json ${RESPONSES})
endif()
