#!/usr/bin/env bash
# tools/chaos_run.sh -- the chaos harness driver.
#
# Builds the chaos suite and runs the `chaos`-labelled ctest entries:
# ISCAS batches through the scheduler under seeded single-fail-point
# schedules (worker throws, MILP faults, walk-step faults, flat-kernel
# degradation, injected stalls, disk-cache corruption), asserting
# termination, fleet reusability and bit-identical non-faulted results.
#
# Logs land in $BUILD_DIR/chaos_logs/ (ctest's --output-log plus the
# LastTest log), which CI uploads as an artifact when the run fails.
#
# The harness runs with tracing armed (ELRR_TRACE): any trace JSON a
# test process writes lands in chaos_logs/trace/ and rides the same
# failure artifact (%p in the path keeps concurrent processes from
# clobbering each other).
#
# Usage:
#   tools/chaos_run.sh                 # build + run every chaos test
#   ELRR_CHAOS_FILTER=Stuck tools/chaos_run.sh   # -R regex subset
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
FILTER=${ELRR_CHAOS_FILTER:-}
LOG_DIR="$BUILD_DIR/chaos_logs"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target elrr_chaos_tests

mkdir -p "$LOG_DIR" "$LOG_DIR/trace" "$LOG_DIR/postmortem"
# Tracing armed across the harness (see header).
export ELRR_TRACE="$LOG_DIR/trace/trace-%p.json"
# Flight recorder armed: any test process that dies by a fatal signal
# leaves a postmortem-<pid>.txt here, riding the same failure
# artifact; render with `elrr postmortem <file>`.
export ELRR_POSTMORTEM_DIR="$LOG_DIR/postmortem"
CTEST_ARGS=(-L chaos --output-on-failure --output-log "$LOG_DIR/chaos.log")
if [ -n "$FILTER" ]; then
  CTEST_ARGS+=(-R "$FILTER")
fi

status=0
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}" || status=$?
# Keep the detailed per-test log next to our own (ctest rewrites it each
# run; the artifact wants a stable snapshot).
cp -f "$BUILD_DIR/Testing/Temporary/LastTest.log" "$LOG_DIR/" 2>/dev/null || true

if [ "$status" -ne 0 ]; then
  echo "chaos run: FAILED (logs in $LOG_DIR)" >&2
  exit "$status"
fi
echo "chaos run: all green (logs in $LOG_DIR)"
