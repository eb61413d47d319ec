#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the slipd job server.
#
# Boots slipd on an ephemeral port, pushes a burst of small jobs through
# it with curl, leaves long jobs in flight, SIGTERMs the server, and
# asserts the graceful-drain contract:
#
#   1. the burst completes with every job done,
#   2. slipd exits 0 after the signal (the drain finished),
#   3. every in-flight job is persisted as "interrupted" and resumable,
#      with its checkpoint artifact (state.ckpt) on disk,
#   4. a restarted slipd over the same data dir resumes one of them to
#      completion.
#
# Used by `make serve-smoke` and the serve-smoke CI job.
set -euo pipefail

cd "$(dirname "$0")/.."

BURST_JOBS="${BURST_JOBS:-40}"
BURST_CONCURRENCY="${BURST_CONCURRENCY:-16}"

work="$(mktemp -d)"
bin="$work/bin"
data="$work/data"
mkdir -p "$bin"
trap 'kill "$SLIPD_PID" 2>/dev/null || true; rm -rf "$work"' EXIT

echo "== build"
go build -o "$bin/slipd" ./cmd/slipd

echo "== boot slipd"
"$bin/slipd" -addr 127.0.0.1:0 -addr-file "$work/addr" -data "$data" -pool 4 \
    >"$work/slipd.log" 2>&1 &
SLIPD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$work/addr" ] && break
    sleep 0.1
done
[ -s "$work/addr" ] || { echo "FAIL: slipd never wrote its address"; cat "$work/slipd.log"; exit 1; }
ADDR="$(cat "$work/addr")"
echo "   listening on $ADDR"

# submit POSTs one wallforce job of the given lattice and step count and
# prints its id.
submit() {
    curl -sf -X POST "http://$ADDR/jobs" \
        -d "{\"kind\":\"wallforce\",\"nx\":$1,\"ny\":$2,\"nz\":$3,\"steps\":$4}" |
        sed -n 's/.*"id": "\([^"]*\)".*/\1/p'
}
# burst_one runs one small job to its terminal state and prints that state.
burst_one() {
    curl -sf "http://$ADDR/jobs/$(submit 4 16 4 40)/wait?timeout_ms=120000" |
        sed -n 's/.*"state": "\([^"]*\)".*/\1/p'
}
export ADDR
export -f submit burst_one

echo "== burst: $BURST_JOBS small jobs x $BURST_CONCURRENCY clients"
burst_done="$(seq "$BURST_JOBS" | xargs -P "$BURST_CONCURRENCY" -I{} bash -c burst_one | grep -c '^done$' || true)"
echo "   done=$burst_done/$BURST_JOBS"
if [ "$burst_done" -ne "$BURST_JOBS" ]; then
    echo "FAIL: burst left jobs not done"
    cat "$work/slipd.log"
    exit 1
fi

echo "== leave long jobs in flight, then SIGTERM"
long_ids="$(seq 4 | xargs -P 4 -I{} bash -c 'submit 8 32 8 400000' || true)"
[ "$(printf '%s\n' "$long_ids" | grep -c .)" -eq 4 ] || { echo "FAIL: long-job submit refused"; cat "$work/slipd.log"; exit 1; }
# "running" is not progress: a job is marked running before its solver is
# built, and a drain landing there checkpoints step 0. Wait until every
# long job has streamed a frame past step 0, so whichever one the resume
# below picks must report start_step >= 1.
for id in $long_ids; do
    { timeout 60 curl -sfN "http://$ADDR/jobs/$id/stream" || true; } | grep -q -m1 '"step":[1-9]' ||
        { echo "FAIL: long job $id never streamed a step"; cat "$work/slipd.log"; exit 1; }
done
kill -TERM "$SLIPD_PID"
drain_rc=0
wait "$SLIPD_PID" || drain_rc=$?
if [ "$drain_rc" -ne 0 ]; then
    echo "FAIL: slipd exited $drain_rc after SIGTERM (want 0: graceful drain)"
    cat "$work/slipd.log"
    exit 1
fi
echo "   slipd drained cleanly (exit 0)"

echo "== assert in-flight jobs checkpointed"
interrupted=$(grep -l '"state": "interrupted"' "$data"/jobs/*/status.json | wc -l)
resumable=$(grep -l '"resumable": true' "$data"/jobs/*/status.json | wc -l)
ckpts=$(find "$data" -name state.ckpt | wc -l)
echo "   interrupted=$interrupted resumable=$resumable checkpoints=$ckpts"
if [ "$interrupted" -lt 1 ] || [ "$resumable" -lt 1 ] || [ "$ckpts" -lt 1 ]; then
    echo "FAIL: drain left no resumable interrupted jobs"
    exit 1
fi

echo "== restart and resume one interrupted job"
resume_id="$(basename "$(dirname "$(grep -l '"state": "interrupted"' "$data"/jobs/*/status.json | head -1)")")"
rm -f "$work/addr"
"$bin/slipd" -addr 127.0.0.1:0 -addr-file "$work/addr" -data "$data" -pool 2 \
    >>"$work/slipd.log" 2>&1 &
SLIPD_PID=$!
for _ in $(seq 1 50); do
    [ -s "$work/addr" ] && break
    sleep 0.1
done
ADDR="$(cat "$work/addr")"
job="$(curl -sf -X POST "http://$ADDR/jobs" -d "{\"steps\":60,\"resume\":\"$resume_id\"}")"
id="$(printf '%s' "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
final="$(curl -sf "http://$ADDR/jobs/$id/wait?timeout_ms=60000")"
state="$(printf '%s' "$final" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')"
start_step="$(printf '%s' "$final" | sed -n 's/.*"start_step": \([0-9]*\).*/\1/p')"
echo "   resume of $resume_id: state=$state start_step=${start_step:-0}"
if [ "$state" != "done" ] || [ "${start_step:-0}" -lt 1 ]; then
    echo "FAIL: resume did not continue from the interrupt checkpoint"
    printf '%s\n' "$final"
    exit 1
fi
kill -TERM "$SLIPD_PID"
wait "$SLIPD_PID" || { echo "FAIL: second drain not clean"; exit 1; }

echo "PASS: serve smoke (burst, graceful drain, checkpointed interrupts, resume)"
