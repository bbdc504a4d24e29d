#!/usr/bin/env bash
# tools/bench_gate.sh -- the one-command correctness gate.
#
# Runs, in order:
#   1. Release build + the `sim`/`svc`/`chaos`/`lp`/`obs`/`heur`-labelled
#      ctest suites (kernel/driver/fleet differential tests, the batch
#      scheduler suite, the fail-point chaos harness, the LP/MILP solver
#      suite with its warm-vs-cold session differentials, the
#      tracing/metrics suite, and the heuristic/retiming/graph suite with
#      its bit-exact pins). The ctest runs are traced: ELRR_TRACE
#      is exported to every test process, and any written trace lands
#      in $BUILD_DIR/obs_traces/ -- a CI failure artifact;
#   2. the `lp` and `sim` suites once more in a host-tuned Release build
#      (-DELRR_NATIVE=ON, i.e. -march=native). The `lp` suite pins simplex
#      work counters, golden models and walk results bit for bit. They
#      hold on an FMA host only because the build passes
#      -ffp-contract=off (CMakeLists.txt): otherwise GCC fuses
#      `a -= c * b` into fused multiply-adds, even in ISO C++20 mode, and
#      the pivots' low bits move. This step fails if that flag is dropped.
#      The `sim` suite runs here because the 8- and 16-lane step_batch
#      loops vectorize to their intended width only under -march=native:
#      its lane-packing and oracle differentials must hold there too;
#   3. an ASan/UBSan build (-DELRR_SANITIZE=address,undefined) of the
#      `sim` + `svc` + `lp` + `obs` + `heur` suites (the scheduler/fleet
#      sharing, the failure-unwind paths, the MILP session's persistent
#      tableau snapshots, the parent snapshots branch & bound nodes
#      share, the obs ring buffers' lock-free publish, and the
#      heuristic's reused evaluator scratch and Leiserson-Saxe arc/queue
#      indexing are the lifetime-bug honeypots).
#
# Step 3 is skipped with ELRR_SKIP_SANITIZE=1 (e.g. on machines without
# the sanitizer runtimes). No step gates on wall clock: performance is
# perfbench's (python3 perfbench/run.py; see BENCHMARK.json). Build
# directories: build/, build-native/ and build-asan/ (override with
# BUILD_DIR / NATIVE_BUILD_DIR / ASAN_BUILD_DIR).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
NATIVE_BUILD_DIR=${NATIVE_BUILD_DIR:-build-native}
ASAN_BUILD_DIR=${ASAN_BUILD_DIR:-build-asan}

# Creates a directory and prints its absolute path. ctest runs every test
# inside its build directory, so a relative path handed to the test
# processes would point below it.
abs_dir() { mkdir -p "$1" && (cd "$1" && pwd); }

# Armed-tracing scope for the ctest runs (steps 1 and 3): %p keeps the
# concurrent test processes from clobbering each other's trace files.
TRACE_DIR=$(abs_dir "$BUILD_DIR/obs_traces")
GATE_TRACE="$TRACE_DIR/trace-%p.json"
# Flight recorder armed for the same runs: any test process that dies
# by a fatal signal leaves postmortem-<pid>.txt here --
# a CI failure artifact next to the traces. Tests that pin recorder
# behavior manage the env themselves.
PM_DIR=$(abs_dir "$BUILD_DIR/postmortems")

echo "== [1/3] Release build + ctest -L sim|svc|chaos|lp|obs|heur (traced) =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target elrr elrr_sim_tests elrr_svc_tests elrr_chaos_tests elrr_lp_tests elrr_obs_tests elrr_heur_tests
ELRR_TRACE="$GATE_TRACE" ELRR_POSTMORTEM_DIR="$PM_DIR" \
  ctest --test-dir "$BUILD_DIR" -L 'sim|svc|chaos|lp|obs|heur' --output-on-failure -j "$(nproc)"

echo "== [2/3] host-tuned (-march=native) Release build + ctest -L lp|sim =="
cmake -B "$NATIVE_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DELRR_NATIVE=ON
cmake --build "$NATIVE_BUILD_DIR" -j "$(nproc)" --target elrr_lp_tests elrr_sim_tests
ctest --test-dir "$NATIVE_BUILD_DIR" -L 'lp|sim' --output-on-failure -j "$(nproc)"

if [ "${ELRR_SKIP_SANITIZE:-0}" = "1" ]; then
  echo "== [3/3] sanitizer sweep skipped (ELRR_SKIP_SANITIZE=1) =="
else
  echo "== [3/3] ASan/UBSan ctest -L sim|svc|lp|obs|heur (traced) =="
  cmake -B "$ASAN_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DELRR_SANITIZE=address,undefined
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target elrr_sim_tests elrr_svc_tests elrr_lp_tests elrr_obs_tests elrr_heur_tests
  ELRR_TRACE="$(abs_dir "$ASAN_BUILD_DIR/obs_traces")/trace-%p.json" \
    ELRR_POSTMORTEM_DIR=$(abs_dir "$ASAN_BUILD_DIR/postmortems") \
    ctest --test-dir "$ASAN_BUILD_DIR" -L 'sim|svc|lp|obs|heur' --output-on-failure -j "$(nproc)"
fi

echo "gate: all green"
