#!/usr/bin/env bash
# Builds the tree under ASan+UBSan (-DCLOG_SANITIZE=ON) in a separate
# build directory and runs one torture shard plus the crash-during-
# recovery, group-commit, adaptive-logging, media-failure, hammer-restore,
# and elastic-membership shards through it. Memory errors in the recovery/
# retry/commit-coalescing/adaptive-logging/media-rebuild/instant-restore/
# ownership-handoff paths show up here long before they corrupt a
# schedule.
#
# Usage: scripts/run_sanitized_torture.sh [build-dir] [shard]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
SHARD="${2:-0}"

cmake -B "$BUILD_DIR" -S . -DCLOG_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target torture_test media_recovery_test instant_restore_test \
  corruption_test handoff_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R "^(torture_shard_${SHARD}|torture_recovery_crash_shard_0|torture_group_commit_shard_0|torture_adaptive_shard_0|torture_media_shard_0|torture_hammer_restore_shard_0|torture_elastic_shard_0)\$"

# Shard 1 of the adaptive corpus forces a crash into every repair pass,
# so redo of adaptive logs is torn down and re-entered under the
# sanitizers.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L adaptive

# The media and restore labels cover more than the shards above (the
# media-recovery and torn-page unit tests and the instant-restore
# first-touch tests);
# run the whole labelled set so the on-demand rebuild path gets the same
# sanitizer coverage as the torture schedules that drive it.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L "media|restore"

# Elastic label: shard 1 arms a crash into every handoff (the durable
# ledgers re-enter on every transfer), and the handoff unit drill kills
# each endpoint at each phase boundary — the densest free/reuse churn in
# the ownership ledger, exactly what ASan is for.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L elastic
