#!/usr/bin/env bash
# Streaming-growth smoke, run as a CI step: record growth batches with
# `grow --delta-out`, replay them into a live server via the apply_delta
# verb, and assert the served answers afterwards are identical to a server
# cold-started from the fully grown graph. This is the end-to-end (process
# boundary + TCP + delta stream file) complement to
# tests/core/dehin_delta_differential_test and tests/service/
# service_delta_test. A server whose --aux is an mmap snapshot takes the
# same stream (the batches land in the graph's heap overlay, never in the
# mapping) and must answer identically too, and report the delta epoch.
#
# Usage: delta_smoke.sh <path-to-hinpriv_cli>
set -euo pipefail

CLI=${1:?usage: delta_smoke.sh <hinpriv_cli>}
WORK=$(mktemp -d)
LIVE_PORT=${LIVE_PORT:-7493}
COLD_PORT=${COLD_PORT:-7494}
SNAP_PORT=${SNAP_PORT:-7495}
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$CLI" generate --users=2000 --seed=7 --out="$WORK/net.graph"
"$CLI" anonymize --in="$WORK/net.graph" --scheme=kdda \
  --out="$WORK/pub.graph" --mapping="$WORK/secret.tsv"
# Record three growth batches as a replayable delta stream AND materialize
# the grown graph for the cold-start oracle below.
"$CLI" grow --in="$WORK/net.graph" --batches=3 --seed=11 \
  --out="$WORK/grown.graph" --delta-out="$WORK/batches.deltas"
"$CLI" convert --in="$WORK/net.graph" --out="$WORK/net.snap" --verify

wait_ready() { # port
  for _ in $(seq 1 100); do
    if "$CLI" query --port="$1" --method=stats >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "server on port $1 never became ready" >&2
  return 1
}

query_all() { # port outfile — normalized to just the candidate sets, so
              # timing fields can't cause spurious diffs
  : > "$2"
  for id in 3 17 42 99 256 1023; do
    "$CLI" query --port="$1" --method=attack_one --target_id="$id" \
      --max_distance=1 | grep -o '"candidates":\[[0-9,]*\]' >> "$2"
  done
}

# --- Live path: base aux, warm queries, then stream the deltas in --------
"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/net.graph" \
  --port="$LIVE_PORT" &
LIVE_PID=$!
wait_ready "$LIVE_PORT"
# Warm the match cache first so apply_delta exercises real epoch
# invalidation, not an empty cache.
query_all "$LIVE_PORT" "$WORK/warm.out"
"$CLI" query --port="$LIVE_PORT" --method=apply_delta \
  --path="$WORK/batches.deltas" | tee "$WORK/apply.json" \
  | grep -q '"batches_applied":3'
query_all "$LIVE_PORT" "$WORK/live.out"
kill "$LIVE_PID" && wait "$LIVE_PID" 2>/dev/null || true

# --- Oracle: cold start over the grown graph -----------------------------
"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/grown.graph" \
  --port="$COLD_PORT" &
COLD_PID=$!
wait_ready "$COLD_PORT"
query_all "$COLD_PORT" "$WORK/cold.out"
kill "$COLD_PID" && wait "$COLD_PID" 2>/dev/null || true

[ -s "$WORK/live.out" ] || { echo "no candidate sets captured" >&2; exit 1; }
diff -u "$WORK/live.out" "$WORK/cold.out"

# --- Snapshot path: a mapped base grows through the same overlay ---------
"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/net.snap" \
  --port="$SNAP_PORT" &
SNAP_PID=$!
wait_ready "$SNAP_PORT"
query_all "$SNAP_PORT" "$WORK/snap_warm.out"
"$CLI" query --port="$SNAP_PORT" --method=apply_delta \
  --path="$WORK/batches.deltas" | grep -q '"batches_applied":3'
query_all "$SNAP_PORT" "$WORK/snap.out"
"$CLI" query --port="$SNAP_PORT" --method=health | grep -q '"delta_epoch":3'
kill "$SNAP_PID" && wait "$SNAP_PID" 2>/dev/null || true
diff -u "$WORK/snap.out" "$WORK/cold.out"

echo "delta smoke: $(wc -l < "$WORK/live.out") answers, incremental/cold parity OK on text and snapshot servers"
