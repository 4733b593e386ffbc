# CTest script behind the `server_smoke_check` test (registered in
# tools/CMakeLists.txt): boots hetsched_advisord on a Unix socket, waits
# for readiness, asks the scheduler_advisor --server thin client for
# advice, scrapes it with hetsched_scrape (exposition validity, flight
# trace, health latency probe) under advisor_bench's background load,
# exercises the SIGUSR1 dump path, and finally shuts it down with
# SIGTERM asserting the drain flushed its artifacts. The daemon runs
# with a fast --refit-interval the whole time, so the background refit
# thread (docs/SERVER.md §4.10) is soaked against every other code path
# here — bench load, scrapes, signal handling — and the SIGTERM drain
# proves the thread joins cleanly. Inputs (via -D):
# ADVISORD, BENCH, ADVISOR, SCRAPE, WORK_DIR, HETSCHED_OBS (the build's
# option: where it is ON the registry's histograms reach the exposition
# too).
set(sock "${WORK_DIR}/server_smoke.sock")
set(ready "${WORK_DIR}/server_smoke.ready")
set(daemon_log "${WORK_DIR}/server_smoke.daemon.log")
set(dump_prefix "${WORK_DIR}/server_smoke.dump.")
set(metrics_out "${WORK_DIR}/server_smoke.metrics_out.json")
file(REMOVE "${sock}" "${ready}" "${daemon_log}" "${metrics_out}")
file(GLOB stale_dumps "${dump_prefix}*")
if(stale_dumps)
  file(REMOVE ${stale_dumps})
endif()

# Start the daemon in the background; capture its ready line (stdout).
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          sh -c "'${ADVISORD}' --socket='${sock}' --plan=ns --refit-interval=0.25 --dump-prefix='${dump_prefix}' --metrics-out='${metrics_out}' > '${ready}' 2> '${daemon_log}' & echo $!"
  OUTPUT_VARIABLE daemon_pid
  OUTPUT_STRIP_TRAILING_WHITESPACE)
if(NOT daemon_pid MATCHES "^[0-9]+$")
  message(FATAL_ERROR "failed to launch hetsched_advisord: ${daemon_pid}")
endif()

# Wait (up to ~30 s) for the ready line; the ns-plan fit takes a moment.
set(is_ready FALSE)
foreach(attempt RANGE 120)
  if(EXISTS "${ready}")
    file(READ "${ready}" ready_line)
    if(ready_line MATCHES "hetsched_advisord: ready")
      set(is_ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.25)
endforeach()

macro(kill_daemon)
  execute_process(COMMAND sh -c "kill -TERM ${daemon_pid} 2>/dev/null; \
for i in 1 2 3 4 5 6 7 8 9 10; do kill -0 ${daemon_pid} 2>/dev/null || exit 0; sleep 0.2; done; \
kill -KILL ${daemon_pid} 2>/dev/null || true")
endmacro()

if(NOT is_ready)
  kill_daemon()
  file(READ "${daemon_log}" log_tail)
  message(FATAL_ERROR "daemon never became ready:\n${log_tail}")
endif()

# Ask the thin-client CLI for advice.
execute_process(
  COMMAND "${ADVISOR}" 6400 "--server=unix:${sock}" --top=3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  kill_daemon()
  message(FATAL_ERROR "scheduler_advisor --server exited ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "top configurations for N = 6400")
  kill_daemon()
  message(FATAL_ERROR "thin client printed no recommendation:\n${out}")
endif()

# -- live introspection (docs/SERVER.md §4.6–§4.9, §7) -----------------------

# Scrape the Prometheus exposition while a background bench keeps the
# daemon busy, then probe the health SLO (p99 < 10 ms over the wire) —
# the scrape must stay valid and fast under load, not just when idle.
# The scrape and the probe start once the bench prints its (flushed)
# load line, after its first answer. The subshell keeps the bench's
# exit status, so a load that met an error answer fails the check. The
# test runs RUN_SERIAL, so no other test's campaign shares the cores.
set(bench_out "${WORK_DIR}/server_smoke.bench.out")
set(bench_status "${WORK_DIR}/server_smoke.bench.status")
file(REMOVE "${bench_out}" "${bench_status}")
execute_process(
  COMMAND sh -c "('${BENCH}' '--connect=unix:${sock}' > '${bench_out}' 2>&1; \
echo $? > '${bench_status}') > /dev/null 2>&1 &")

macro(fail_bench why)
  kill_daemon()
  file(READ "${bench_out}" bench_text)
  message(FATAL_ERROR "background advisor_bench ${why}:\n${bench_text}")
endmacro()

execute_process(COMMAND sh -c "for i in $(seq 1 1200); do \
grep -q 'load against' '${bench_out}' 2>/dev/null && exit 0; \
test -s '${bench_status}' && exit 1; sleep 0.05; done; exit 1"
  RESULT_VARIABLE load_started)
if(NOT load_started EQUAL 0)
  fail_bench("never started its load")
endif()

set(prom "${WORK_DIR}/server_smoke.prom")
execute_process(
  COMMAND "${SCRAPE}" "--connect=unix:${sock}" "--out=${prom}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  kill_daemon()
  message(FATAL_ERROR "hetsched_scrape exited ${rc}:\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${SCRAPE}" "--connect=unix:${sock}" --probe-health=100
          --health-slo-ms=10
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  kill_daemon()
  message(FATAL_ERROR "health probe missed the 10 ms p99 SLO:\n${out}\n${err}")
endif()
message(STATUS "${out}")

# Let the background bench finish before shutdown-path assertions, and
# require that every one of its answers was `ok`.
execute_process(COMMAND sh -c "for i in $(seq 1 300); do \
test -s '${bench_status}' && exit 0; sleep 0.2; done; exit 1"
  RESULT_VARIABLE bench_wait)
if(NOT bench_wait EQUAL 0)
  fail_bench("never finished")
endif()
file(STRINGS "${bench_status}" bench_rc)
if(NOT bench_rc STREQUAL "0")
  fail_bench("exited with ${bench_rc}")
endif()

# The exposition must satisfy the format checker (UTF-8, metric/label
# name grammar, TYPE-before-sample, no duplicate series) and carry the
# series operators alert on.
execute_process(
  COMMAND "${SCRAPE}" "--check=${prom}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  kill_daemon()
  message(FATAL_ERROR "invalid Prometheus exposition:\n${out}\n${err}")
endif()
file(READ "${prom}" prom_text)
set(required_series
    "hetsched_up 1"
    "hetsched_service_requests"
    "hetsched_server_op_wall_seconds_bucket"
    "hetsched_health_degraded")
if(HETSCHED_OBS)
  list(APPEND required_series "hetsched_server_batch_size_bucket")
endif()
foreach(series ${required_series})
  if(NOT prom_text MATCHES "${series}")
    kill_daemon()
    message(FATAL_ERROR "exposition lost the '${series}' series:\n${prom_text}")
  endif()
endforeach()

# Flight recorder as a Chrome-trace fragment.
set(flight_trace "${WORK_DIR}/server_smoke.flight_trace.json")
execute_process(
  COMMAND "${SCRAPE}" "--connect=unix:${sock}" --flight=256
          "--out=${flight_trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  kill_daemon()
  message(FATAL_ERROR "flight scrape exited ${rc}:\n${out}\n${err}")
endif()
file(READ "${flight_trace}" flight_text)
if(NOT flight_text MATCHES "traceEvents" OR NOT flight_text MATCHES "\"cat\":\"server\"")
  kill_daemon()
  message(FATAL_ERROR "flight trace is not a Chrome-trace fragment:\n${flight_text}")
endif()

# SIGUSR1 must drop timestamped flight + metrics dumps (the no-network
# introspection fallback of docs/SERVER.md §7).
execute_process(COMMAND sh -c "kill -USR1 ${daemon_pid}")
set(flight_dump "")
foreach(attempt RANGE 40)
  file(GLOB flight_dumps "${dump_prefix}*.flight.json")
  file(GLOB metrics_dumps "${dump_prefix}*.metrics.json")
  if(flight_dumps AND metrics_dumps)
    list(GET flight_dumps 0 flight_dump)
    list(GET metrics_dumps 0 metrics_dump)
    break()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.25)
endforeach()
if(NOT flight_dump)
  kill_daemon()
  file(READ "${daemon_log}" log_tail)
  message(FATAL_ERROR "SIGUSR1 produced no dump files:\n${log_tail}")
endif()
file(READ "${flight_dump}" dump_text)
if(NOT dump_text MATCHES "hetsched.flight.v1")
  kill_daemon()
  message(FATAL_ERROR "flight dump lost its schema tag:\n${dump_text}")
endif()
file(READ "${metrics_dump}" dump_text)
if(NOT dump_text MATCHES "hetsched.metrics.v1")
  kill_daemon()
  message(FATAL_ERROR "metrics dump lost its schema tag:\n${dump_text}")
endif()

# SIGTERM drain must flush the --metrics-out artifact before exit — a
# supervisor watching the file sees it complete when the process dies.
kill_daemon()
if(NOT EXISTS "${metrics_out}")
  file(READ "${daemon_log}" log_tail)
  message(FATAL_ERROR "SIGTERM drain did not flush ${metrics_out}:\n${log_tail}")
endif()
file(READ "${metrics_out}" metrics_text)
if(NOT metrics_text MATCHES "^\\{")
  message(FATAL_ERROR "flushed metrics artifact is not JSON:\n${metrics_text}")
endif()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON _probe ERROR_VARIABLE json_err GET "${metrics_text}" counters)
  if(json_err)
    message(FATAL_ERROR "flushed metrics artifact unparseable: ${json_err}")
  endif()
endif()

message(STATUS "server smoke: daemon served bench + thin client, scrape "
               "validated, SIGUSR1 dumps and SIGTERM drain-flush verified "
               "over ${sock}")
