#!/usr/bin/env bash
# Introspection-under-load smoke, run as a CI step: start `serve`, put
# attack load on it from a background client loop, and poll the admin
# verbs WHILE the load runs — stats must answer with monotonically
# nondecreasing counters, health must report a known state, the metrics
# verb must emit parseable Prometheus text, and the `stats --port`
# operator view must render. This exercises the admin-thread path
# end to end (process boundary + TCP), complementing
# tests/service/service_introspection_test.cc.
#
# Usage: stats_under_load_smoke.sh <path-to-hinpriv_cli>
set -euo pipefail

CLI=${1:?usage: stats_under_load_smoke.sh <hinpriv_cli>}
WORK=$(mktemp -d)
PORT=${STATS_SMOKE_PORT:-7493}
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$CLI" generate --users=1500 --seed=9 --out="$WORK/net.graph"
"$CLI" anonymize --in="$WORK/net.graph" --scheme=kdda --out="$WORK/pub.graph"

"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/net.graph" \
  --port="$PORT" --heartbeat_sec=1 2>"$WORK/serve.err" &
SERVE_PID=$!

for _ in $(seq 1 100); do
  if "$CLI" query --port="$PORT" --method=health >/dev/null 2>&1; then
    break
  fi
  sleep 0.2
done
"$CLI" query --port="$PORT" --method=health >/dev/null \
  || { echo "server never became ready" >&2; exit 1; }

# Background load: attack queries in a loop until the smoke is done.
(
  i=0
  while :; do
    "$CLI" query --port="$PORT" --method=attack_one \
      --target_id="$((i % 1500))" --max_distance=1 >/dev/null 2>&1 || exit 0
    i=$((i + 1))
  done
) &
LOAD_PID=$!

received() { # -> cumulative requests_received from the stats verb
  "$CLI" query --port="$PORT" --method=stats \
    | grep -o '"requests_received": *[0-9]*' | grep -o '[0-9]*'
}

# Poll stats during the load: every sample must answer, and the
# cumulative counter must never move backward (and must move forward
# overall, since the load is running).
prev=-1
first=-1
for poll in $(seq 1 5); do
  now=$(received)
  [ -n "$now" ] || { echo "stats poll $poll returned no counter" >&2; exit 1; }
  [ "$now" -ge "$prev" ] \
    || { echo "requests_received went backward: $prev -> $now" >&2; exit 1; }
  [ "$first" -ge 0 ] || first=$now
  prev=$now
  health=$("$CLI" query --port="$PORT" --method=health \
    | grep -o '"health": *"[a-z]*"')
  case "$health" in
    *ok* | *degraded* | *shedding*) ;;
    *) echo "unknown health state: $health" >&2; exit 1 ;;
  esac
  sleep 0.4
done
[ "$prev" -gt "$first" ] \
  || { echo "requests_received never advanced under load" >&2; exit 1; }

# The metrics verb exports linted Prometheus text.
"$CLI" query --port="$PORT" --method=metrics --path="$WORK/metrics.prom" \
  >/dev/null
grep -q '^hinpriv_service_requests_received_total [0-9]' "$WORK/metrics.prom" \
  || { echo "Prometheus export missing service counters" >&2; exit 1; }
grep -q '^hinpriv_service_request_latency_us_bucket{le=' "$WORK/metrics.prom" \
  || { echo "Prometheus export missing histogram buckets" >&2; exit 1; }

# The operator view renders one-shot against the live server.
"$CLI" stats --port="$PORT" > "$WORK/stats.out"
grep -q '^health: ' "$WORK/stats.out" \
  || { echo "stats --port did not render the operator view" >&2; exit 1; }
grep -q 'window' "$WORK/stats.out" \
  || { echo "stats --port missing the windows table" >&2; exit 1; }

# The serve heartbeat wrote at least one line to stderr.
kill "$LOAD_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
kill "$SERVE_PID" && wait "$SERVE_PID" 2>/dev/null || true
grep -q '^\[serve\] health=' "$WORK/serve.err" \
  || { echo "no heartbeat lines on serve stderr" >&2; exit 1; }

echo "stats under load smoke: counters $first -> $prev, admin verbs OK"
