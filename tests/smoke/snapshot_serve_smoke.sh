#!/usr/bin/env bash
# Snapshot round-trip serving smoke, run as a CI step: convert a synthetic
# network into a HINPRIVS snapshot, warm-start `serve --aux` from the mmap'd
# file, and assert the attack answers are identical to a server that loaded
# the same network through the text path. While the snapshot server runs,
# net.snap is rewritten from a smaller graph: the writer renames a new file
# into place, so the live mapping must keep answering from the old graph.
# Each server must then drain cleanly on SIGTERM: exit 0 and print the
# drain banner. This is the end-to-end (process boundary + TCP) complement
# to tests/core/dehin_snapshot_differential_test.
#
# First, a text round trip through the CLI on a network that spans many
# text-reader chunks: text -> snapshot -> text must give back the same
# bytes. The text writer is canonical, so any divergence in the chunked
# loader or in GraphBuilder::Build() shows as a byte difference.
#
# Usage: snapshot_serve_smoke.sh <path-to-hinpriv_cli>
set -euo pipefail

CLI=${1:?usage: snapshot_serve_smoke.sh <hinpriv_cli>}
WORK=$(mktemp -d)
SNAP_PORT=${SNAP_PORT:-7491}
TEXT_PORT=${TEXT_PORT:-7492}
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$CLI" generate --users=20000 --seed=5 --out="$WORK/big.graph"
"$CLI" convert --in="$WORK/big.graph" --out="$WORK/big.snap"
"$CLI" convert --in="$WORK/big.snap" --out="$WORK/big.roundtrip.graph"
cmp "$WORK/big.graph" "$WORK/big.roundtrip.graph"
echo "text round trip: $(wc -c < "$WORK/big.graph") bytes identical" \
  "after text -> snapshot -> text"

"$CLI" generate --users=2000 --seed=7 --out="$WORK/net.graph"
"$CLI" anonymize --in="$WORK/net.graph" --scheme=kdda \
  --out="$WORK/pub.graph" --mapping="$WORK/secret.tsv"
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

stop_cleanly() { # pid log name — SIGTERM must drain: exit 0, drain banner
  kill "$1"
  local rc=0
  wait "$1" || rc=$?
  if [ "$rc" -ne 0 ] ||
     ! grep -q "draining in-flight requests" "$2"; then
    echo "$3 server did not drain cleanly (exit $rc)" >&2
    cat "$2" >&2
    exit 1
  fi
}

"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/net.snap" \
  --port="$SNAP_PORT" > "$WORK/snap_serve.log" &
SNAP_PID=$!
wait_ready "$SNAP_PORT"
query_all "$SNAP_PORT" "$WORK/snap.out"
# Rewrite net.snap under the live server, then query it again.
"$CLI" generate --users=500 --seed=8 --out="$WORK/small.graph"
"$CLI" convert --in="$WORK/small.graph" --out="$WORK/net.snap"
query_all "$SNAP_PORT" "$WORK/rewritten.out"
stop_cleanly "$SNAP_PID" "$WORK/snap_serve.log" snapshot

"$CLI" serve --target="$WORK/pub.graph" --aux="$WORK/net.graph" \
  --port="$TEXT_PORT" > "$WORK/text_serve.log" &
TEXT_PID=$!
wait_ready "$TEXT_PORT"
query_all "$TEXT_PORT" "$WORK/text.out"
stop_cleanly "$TEXT_PID" "$WORK/text_serve.log" text

[ -s "$WORK/snap.out" ] || { echo "no candidate sets captured" >&2; exit 1; }
diff -u "$WORK/snap.out" "$WORK/text.out"
diff -u "$WORK/rewritten.out" "$WORK/text.out"
echo "snapshot serve smoke: $(wc -l < "$WORK/snap.out") answers, parity OK," \
  "also after rewriting the served snapshot; both servers drained cleanly"
