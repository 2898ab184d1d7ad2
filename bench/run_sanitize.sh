#!/usr/bin/env bash
# Sibling of run_bench.sh: builds the ASan/UBSan preset and runs the
# whole ctest suite under it. The zero-copy ingestion architecture
# (TraceBuffer/arena-backed string_views in RawRecord and Event) makes
# lifetime mistakes silent in a normal build — this job turns every
# dangling view into a hard failure. The elog v2 mmap reader
# (test_elog_v2) rides along: its byte-assembly load_u32/u64/i64
# decoding, wrap-around delta accumulation and pool-backed views must
# stay free of misaligned loads and signed-overflow UB even on the
# corruption-sweep inputs.
#
#   bench/run_sanitize.sh [build-dir]
#
# test_scan_kernels calls the scalar references and the SWAR fallback
# directly, so they run sanitized next to the kernels compiled in.
#
# Requires a compiler with -fsanitize=address,undefined (gcc/clang).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

build_dir=""
for arg in "$@"; do
  case "$arg" in
    --*) echo "unknown option: $arg" >&2; exit 2 ;;
    *) build_dir="$arg" ;;
  esac
done
build_dir="${build_dir:-$repo_root/build-sanitize}"

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error keeps the first report readable; detect_leaks stays on
# deliberately — the arenas are owned, not leaked, and the suite must
# prove it.
ASAN_OPTIONS="halt_on_error=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "sanitizer suite passed"
