#!/usr/bin/env bash
# Sibling of run_sanitize.sh: builds the ThreadSanitizer preset and
# race-checks the concurrency-dense code — the streamed reader's
# (file, chunk) work queue, its files submitted one by one while the
# calling thread opens the next (test_parallel_reader,
# test_ingest_mixed), pipeline::run's per-file convert and sink folds
# on the parsing pool thread and its merge cursor, handed between pool
# threads by a try-lock as files settle (test_pipeline_stream,
# test_pipeline_sinks), the activity statistics finalized as tasks on
# the pool (test_stats), plus the sink partials and shard coordinator
# (test_stats_sinks, test_shard;
# elog_tool is built so the posix_spawn subprocess tests run instead of
# skipping) plus the supervisor's kill/retry path under injected faults
# (test_faults), the serve-mode catalog (test_catalog: single-flight
# stampedes and concurrent mixed access against the LRU memo table) and
# pipeline::fold_cases' chunk folds on the pool (test_log_fold), the
# pooled container decode (test_elog_v2) and map_case's memo under
# pipeline::run (test_mapping). ASan
# proves the pipeline's lifetime story; this proves its
# synchronization story. CI's tsan job runs the same --target and -R
# lists.
#
#   bench/run_tsan.sh [build-dir]
#
# Requires a compiler with -fsanitize=thread (gcc/clang).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$build_dir" -j "$(nproc)" \
  --target test_parallel_reader test_ingest_mixed \
  test_pipeline_stream test_pipeline_sinks test_stats_sinks test_stats test_shard \
  test_faults test_catalog test_log_fold test_elog_v2 test_mapping elog_tool

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$build_dir" \
  -R 'test_parallel_reader|test_ingest_mixed|test_pipeline_stream|test_pipeline_sinks|test_stats_sinks|test_stats|test_shard|test_faults|test_catalog|test_log_fold|test_elog_v2|test_mapping' \
  --output-on-failure

echo "tsan suite passed"
