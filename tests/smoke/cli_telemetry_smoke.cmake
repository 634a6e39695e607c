# End-to-end telemetry smoke test, run by ctest in both the plain and the
# sanitizer configurations:
#
#   generate -> anonymize -> attack --threads=2 --metrics-json --trace-out
#
# then validates that the metrics snapshot and the Chrome trace are
# well-formed JSON with the expected structure. Driven as
#
#   cmake -DHINPRIV_CLI=<path> -DWORK_DIR=<dir> -P cli_telemetry_smoke.cmake

if(NOT HINPRIV_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "pass -DHINPRIV_CLI=<cli> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(
    COMMAND "${HINPRIV_CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hinpriv_cli ${ARGN} failed (rc=${rc}):\n${out}\n${err}")
  endif()
endfunction()

# Runs the CLI and requires the `error: ...` exit 1 that an out-of-range
# flag gets before any thread starts (not an abort in a cast-wrapped
# reserve). The timeout stops a `serve` that wrongly starts serving.
function(run_cli_refused)
  execute_process(
    COMMAND "${HINPRIV_CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    TIMEOUT 60
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "^error: ")
    message(FATAL_ERROR
            "hinpriv_cli ${ARGN}: want exit 1 with 'error: ...', got "
            "rc=${rc}:\n${out}\n${err}")
  endif()
endfunction()

run_cli(generate --users=300 --seed=7 --out=net.graph)
run_cli(anonymize --in=net.graph --scheme=kdda --out=anon.graph
        --mapping=mapping.tsv)
run_cli_refused(attack --target=anon.graph --aux=net.graph --threads=-1)
run_cli_refused(serve --target=anon.graph --aux=net.graph --port=0
                --workers=-1)
run_cli_refused(audit --in=net.graph --max_distance=-2)
run_cli_refused(serve --target=anon.graph --aux=net.graph --port=0
                --max_distance=-3)
run_cli(attack --target=anon.graph --aux=net.graph --mapping=mapping.tsv
        --threads=2 --max_distance=1 --heartbeat_sec=0
        --metrics-json=metrics.json --trace-out=run.trace.json)

# --- metrics.json -----------------------------------------------------------

file(READ "${WORK_DIR}/metrics.json" metrics)
string(JSON schema ERROR_VARIABLE json_err GET "${metrics}" schema)
if(json_err OR NOT schema STREQUAL "hinpriv-metrics-v1")
  message(FATAL_ERROR "metrics.json: bad schema '${schema}' (${json_err})")
endif()
foreach(counter dehin/full_tests dehin/prefilter_rejects dehin/cache_hits)
  string(JSON value ERROR_VARIABLE json_err
         GET "${metrics}" counters "${counter}")
  if(json_err)
    message(FATAL_ERROR "metrics.json: missing counter ${counter}")
  endif()
endforeach()
string(JSON full_tests GET "${metrics}" counters dehin/full_tests)
if(full_tests LESS 1)
  message(FATAL_ERROR "metrics.json: attack ran no full match tests")
endif()
string(JSON hist_count ERROR_VARIABLE json_err
       GET "${metrics}" histograms dehin/candidate_set_size/d1 count)
if(json_err OR hist_count LESS 300)
  message(FATAL_ERROR
          "metrics.json: candidate-set histogram missing or short "
          "(count=${hist_count}, want >= 300 targets; ${json_err})")
endif()

# --- run.trace.json ---------------------------------------------------------

file(READ "${WORK_DIR}/run.trace.json" trace)
string(JSON num_events ERROR_VARIABLE json_err
       LENGTH "${trace}" traceEvents)
if(json_err)
  message(FATAL_ERROR "run.trace.json: not valid trace JSON (${json_err})")
endif()
if(num_events LESS 4)
  message(FATAL_ERROR "run.trace.json: only ${num_events} events recorded")
endif()

# Matched B/E pairs overall, and the expected span + worker names present.
set(begins 0)
set(ends 0)
set(saw_parallel_span FALSE)
set(saw_worker_thread FALSE)
math(EXPR last "${num_events} - 1")
foreach(i RANGE 0 ${last})
  string(JSON ph GET "${trace}" traceEvents ${i} ph)
  if(ph STREQUAL "B")
    math(EXPR begins "${begins} + 1")
    string(JSON name GET "${trace}" traceEvents ${i} name)
    if(name STREQUAL "eval/attack_parallel")
      set(saw_parallel_span TRUE)
    endif()
  elseif(ph STREQUAL "E")
    math(EXPR ends "${ends} + 1")
  elseif(ph STREQUAL "M")
    string(JSON name GET "${trace}" traceEvents ${i} args name)
    if(name MATCHES "^exec/worker-")
      set(saw_worker_thread TRUE)
    endif()
  endif()
endforeach()
if(NOT begins EQUAL ends)
  message(FATAL_ERROR
          "run.trace.json: unbalanced spans (${begins} B vs ${ends} E)")
endif()
if(NOT saw_parallel_span)
  message(FATAL_ERROR "run.trace.json: no eval/attack_parallel span")
endif()
if(NOT saw_worker_thread)
  message(FATAL_ERROR "run.trace.json: no exec/worker-* thread metadata")
endif()

message(STATUS "cli telemetry smoke OK: ${begins} span pairs, "
               "${full_tests} full tests, d1 histogram count ${hist_count}")
