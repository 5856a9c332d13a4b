#!/bin/sh
# Smoke test: ursa_batch rides out sustained load shedding, and queue
# pressure never changes a program.
#
# Phase 1: a one-worker server with a one-deep queue sheds most of every
# 16-request window. Each shed file backs off on its own budget while the
# rest of the batch keeps flowing, so all 200 copies of one trace must
# compile: the batch exits 0 and prints the same program 200 times.
#
# Phase 2: a one-worker server with a four-deep queue stays under
# pressure for the whole batch, so its load average enters degradation
# tier 1. Every beam-2 request must still come back as exactly the
# program `ursa_cc --beam 2` prints.
#
# Usage: ursa_batch_shed_smoke.sh <ursa_served> <ursa_batch> <trace.ur>
#                                 <ursa_cc>
set -eu

SERVED="$1"
BATCH="$2"
SRC="$3"
CC="$4"
DIR=$(mktemp -d "${TMPDIR:-/tmp}/ursa_shed_smoke.XXXXXX")

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
  [ -n "${SRV_PID:-}" ] && wait "$SRV_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

# start_server SOCKET QUEUE_DEPTH: one worker, waits for the socket.
start_server() {
  "$SERVED" --socket "$1" --workers 1 --queue-depth "$2" 2>/dev/null &
  SRV_PID=$!
  I=0
  while [ ! -S "$1" ]; do
    I=$((I + 1))
    if [ "$I" -gt 100 ]; then
      echo "FAIL: server socket never appeared" >&2
      exit 1
    fi
    sleep 0.05
  done
}

stop_server() {
  "$BATCH" --socket "$1" --shutdown
  wait "$SRV_PID"
  SRV_PID=
}

# repeat200 FILE: FILE's contents 200 times, the expected batch output.
repeat200() {
  I=0
  while [ "$I" -lt 200 ]; do
    cat "$1"
    I=$((I + 1))
  done
}

I=0
while [ "$I" -lt 200 ]; do
  cp "$SRC" "$DIR/f$I.ur"
  I=$((I + 1))
done

SOCK="$DIR/served.sock"
start_server "$SOCK" 1
"$BATCH" --socket "$SOCK" --machine 2x3 "$SRC" >"$DIR/one.out"
"$BATCH" --socket "$SOCK" --machine 2x3 --window 16 "$DIR"/f*.ur \
  >"$DIR/batch.out" 2>"$DIR/batch.err" || {
  echo "FAIL: ursa_batch exited non-zero under shedding" >&2
  head -20 "$DIR/batch.err" >&2
  exit 1
}
repeat200 "$DIR/one.out" >"$DIR/want.out"
cmp -s "$DIR/want.out" "$DIR/batch.out" || {
  echo "FAIL: batch output differs from 200 single compiles" >&2
  exit 1
}
stop_server "$SOCK"

SOCK="$DIR/pressured.sock"
start_server "$SOCK" 4
"$CC" "$SRC" --machine 2x3 --beam 2 >"$DIR/beam.out"
"$BATCH" --socket "$SOCK" --machine 2x3 --beam 2 --window 16 "$DIR"/f*.ur \
  >"$DIR/batch2.out" 2>"$DIR/batch2.err" || {
  echo "FAIL: beam-2 ursa_batch exited non-zero under queue pressure" >&2
  head -20 "$DIR/batch2.err" >&2
  exit 1
}
repeat200 "$DIR/beam.out" >"$DIR/want2.out"
cmp -s "$DIR/want2.out" "$DIR/batch2.out" || {
  echo "FAIL: under queue pressure, beam-2 answers differ from" \
    "ursa_cc --beam 2" >&2
  exit 1
}
stop_server "$SOCK"
echo "PASS"
