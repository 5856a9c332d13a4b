#!/bin/sh
# Smoke test: a machine the model cannot build, and a float op on a
# machine without a float unit, are clean errors. ursa_cc exits 1 (not an
# assertion abort), and ursa_served answers `error` and keeps serving.
#
# Usage: bad_machine_smoke.sh <ursa_cc> <ursa_served> <ursa_batch>
set -eu

CC="$1"
SERVED="$2"
BATCH="$3"
DIR=$(mktemp -d "${TMPDIR:-/tmp}/ursa_bad_machine.XXXXXX")
SOCK="$DIR/served.sock"

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
  [ -n "${SRV_PID:-}" ] && wait "$SRV_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

printf 'a = ldi 10\nb = ldi 20\nc = add a, b\nstore out, c\n' >"$DIR/int.ur"
printf 'x = load a\nf = cvtif x\ng = fadd f, f\ny = cvtfi g\nstore out, y\n' \
  >"$DIR/float.ur"

# expect_exit1 WHAT CMD...: CMD must fail with exit status 1.
expect_exit1() {
  WHAT="$1"
  shift
  RC=0
  "$@" >/dev/null 2>"$DIR/err" || RC=$?
  if [ "$RC" -ne 1 ]; then
    echo "FAIL: $WHAT exited $RC, want 1" >&2
    head -5 "$DIR/err" >&2
    exit 1
  fi
}

for M in "--classed 0,1,1,8,4" "--classed 1,1,0,8,4" "--classed 1,1,1,0,4" \
  "--machine 0x4" "--machine 4x0" "--machine 300x8" "--machine 4x5000"; do
  # shellcheck disable=SC2086 # $M is two words on purpose
  expect_exit1 "ursa_cc $M" "$CC" "$DIR/int.ur" $M
done
for P in ursa prepass postpass integrated; do
  expect_exit1 "ursa_cc --pipeline $P, float op, no float unit" \
    "$CC" "$DIR/float.ur" --classed 1,0,1,8,4 --pipeline "$P"
done

"$SERVED" --socket "$SOCK" --workers 1 2>/dev/null &
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

for M in "--classed 0,1,1,8,4" "--machine 0x4" "--machine 4x5000"; do
  # shellcheck disable=SC2086
  expect_exit1 "ursa_batch $M" "$BATCH" --socket "$SOCK" "$DIR/int.ur" $M
  grep -q "machine" "$DIR/err" || {
    echo "FAIL: ursa_batch $M did not report the machine error" >&2
    exit 1
  }
done
expect_exit1 "ursa_batch float op, no float unit" \
  "$BATCH" --socket "$SOCK" "$DIR/float.ur" --classed 1,0,1,8,4

# The server is still up and still answers exactly what ursa_cc prints.
"$BATCH" --socket "$SOCK" "$DIR/float.ur" --classed 1,1,1,8,4 \
  >"$DIR/batch.out"
"$CC" "$DIR/float.ur" --classed 1,1,1,8,4 >"$DIR/cc.out"
cmp -s "$DIR/batch.out" "$DIR/cc.out" || {
  echo "FAIL: server answer differs from ursa_cc after the bad requests" >&2
  exit 1
}

"$BATCH" --socket "$SOCK" --shutdown
wait "$SRV_PID"
SRV_PID=
echo "PASS"
