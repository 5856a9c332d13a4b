#!/bin/sh
# Smoke test: ursa_batch rides out sustained load shedding.
#
# A one-worker server with a one-deep queue sheds most of every 16-request
# window. Each shed file backs off on its own budget while the rest of the
# batch keeps flowing, so all 200 copies of one trace must compile: the
# batch exits 0 and prints the same program 200 times.
#
# Usage: ursa_batch_shed_smoke.sh <ursa_served> <ursa_batch> <trace.ur>
set -eu

SERVED="$1"
BATCH="$2"
SRC="$3"
DIR=$(mktemp -d "${TMPDIR:-/tmp}/ursa_shed_smoke.XXXXXX")
SOCK="$DIR/served.sock"

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
  [ -n "${SRV_PID:-}" ] && wait "$SRV_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

"$SERVED" --socket "$SOCK" --workers 1 --queue-depth 1 2>/dev/null &
SRV_PID=$!

I=0
while [ ! -S "$SOCK" ]; do
  I=$((I + 1))
  if [ "$I" -gt 100 ]; then
    echo "FAIL: server socket never appeared" >&2
    exit 1
  fi
  sleep 0.05
done

I=0
while [ "$I" -lt 200 ]; do
  cp "$SRC" "$DIR/f$I.ur"
  I=$((I + 1))
done

"$BATCH" --socket "$SOCK" --machine 2x3 "$SRC" >"$DIR/one.out"
"$BATCH" --socket "$SOCK" --machine 2x3 --window 16 "$DIR"/f*.ur \
  >"$DIR/batch.out" 2>"$DIR/batch.err" || {
  echo "FAIL: ursa_batch exited non-zero under shedding" >&2
  head -20 "$DIR/batch.err" >&2
  exit 1
}

I=0
while [ "$I" -lt 200 ]; do
  cat "$DIR/one.out"
  I=$((I + 1))
done >"$DIR/want.out"
cmp -s "$DIR/want.out" "$DIR/batch.out" || {
  echo "FAIL: batch output differs from 200 single compiles" >&2
  exit 1
}

"$BATCH" --socket "$SOCK" --shutdown
wait "$SRV_PID"
SRV_PID=
echo "PASS"
