#!/usr/bin/env bash
# ThreadSanitizer pass over the real-threads execution engine
# (docs/architecture_modes.md, docs/fault_injection.md).
#
# Builds the tree under -DCLOG_TSAN=ON in its own build directory and runs
# the `execution`-labelled ctest suite — the executor's run-token tests,
# the cross-mode equivalence tests, the real-mode crash drill, the
# data-shipping stress test (four client threads against an owner under
# cache pressure), and the determinism pin — the tests that actually put
# multiple threads through the executor, the mailbox network, and the
# shared-state seams (metrics, trace sink, log manager) — followed by the
# `restore`-labelled suite, whose real-mode half runs background restore
# sweeper threads against foreground first-touch rebuilds — and the
# `wal`-labelled suite, which hammers the WAL (appends, forces and reads
# all serialized by the log mutex) with multi-producer append/flush/abandon
# storms.
#
# Usage: scripts/run_tsan_tests.sh [--build-dir=DIR] [--repeat=N]
#   --repeat=N  run the suite N times (default 3): scheduler-dependent
#               interleavings need more than one roll of the dice.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-tsan"
REPEAT=3
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --repeat=*) REPEAT="${arg#--repeat=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== configuring $BUILD_DIR with -DCLOG_TSAN=ON"
cmake -B "$BUILD_DIR" -S "$ROOT" -DCLOG_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: a race is a hard failure, not a log line.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

for i in $(seq 1 "$REPEAT"); do
  echo "== ctest -L execution under TSan (pass $i/$REPEAT)"
  ctest --test-dir "$BUILD_DIR" -L execution --output-on-failure
done

# Restore suite: the real-mode instant-restore tests race background
# sweeper threads against first-touch rebuilds and restart/shutdown, the
# sharpest shared-state seam added since the executor itself. Repeated for
# the same reason as above.
for i in $(seq 1 "$REPEAT"); do
  echo "== ctest -L restore under TSan (pass $i/$REPEAT)"
  ctest --test-dir "$BUILD_DIR" -L restore --output-on-failure
done

# Adaptive suite: the execution passes above already run adaptive redo in
# real mode (the cross-mode adaptive recovery test); one pass over the
# adaptive loser tests and torture shards adds the full schedule-driven
# mix — upgrades, backfills, skip classification, and mid-recovery
# re-entry — on top.
echo "== ctest -L adaptive under TSan"
ctest --test-dir "$BUILD_DIR" -L adaptive --output-on-failure

# Elastic suite: the handoff unit drill's real-threads half crashes
# either endpoint of a page handoff at every phase boundary while worker
# threads, the mailbox network, and the durable ledgers interact — the
# handoff/membership seam's thread-safety check. One pass: the drill
# itself iterates all boundary x endpoint combinations.
echo "== ctest -L elastic under TSan"
ctest --test-dir "$BUILD_DIR" -L elastic -R handoff_test --output-on-failure

# WAL suite: several producers append to one log while a flusher forces
# the tail and a scanner reads it, all under the log mutex, and a crash
# abandons the log under them. TSan must see every append/flush/abandon
# interleaving it can provoke.
for i in $(seq 1 "$REPEAT"); do
  echo "== ctest -L wal under TSan (pass $i/$REPEAT)"
  ctest --test-dir "$BUILD_DIR" -L wal --output-on-failure
done
echo "TSan execution+restore+wal+adaptive+elastic suites OK"
