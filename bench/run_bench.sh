#!/usr/bin/env bash
# Runs the warm layer benchmarks — strace parse and convert, elog v2
# storage, query select — and writes BENCH_parse.json, BENCH_elog.json
# and BENCH_query.json at the repo root. The end-to-end numbers (fresh
# CLI processes over the paper's IOR campaign, and a resident server)
# are perfbench's: bench/record_e2e.py writes them to BENCH_e2e.json.
#
#   bench/run_bench.sh [build-dir] [out-dir]
#
# With no build-dir argument the release-native preset is configured
# and built (build-native/, -march=native) so the scan kernels run with
# the widest vector ISA of the machine; an explicit build-dir is used
# as-is and must already contain bench_parse.
#
# Every benchmark runs 10 repetitions. A record keeps the spread of its
# headline points over them ({"median", "q1", "q3"}) and computes its
# ratios from the medians. Every record carries "build_type": the build
# directory's CMAKE_BUILD_TYPE. google-benchmark's
# context.library_build_type names how the benchmark library itself
# was built, not this build.
#
# BENCH_parse.json layout:
#   {
#     "baseline_seed": <bench/baseline_seed.json — pre-zero-copy numbers>,
#     "speedup_vs_seed": <BM_ReadTraceMixed/131072 bytes/s over baseline>,
#     "event_log_speedup_vs_copying": <arena-interned event construction
#         over the per-event string copies, 131072-line corpus>,
#     "mixed_vs_best_either_or": <mixed (file, chunk) work-queue ingest
#         over the better of the per-file-only / intra-file-only paths
#         on a 1-big+8-small file set>,
#     "scan_kernel_speedup_vs_scalar": <SWAR/SIMD structural scan over
#         the scalar reference loops, 131072-line corpus>,
#     "convert_scaling" / "query_scaling": <items/s spread at 1/2/4
#         workers>,
#     "convert_parallel_speedup" / "query_parallel_speedup": <best
#         multi-worker point over the 1-worker point>,
#     "repetitions": .., "current": <google-benchmark JSON of bench_parse>
#   }
#
# BENCH_elog.json layout:
#   {
#     "open_speedup_v2_vs_reparse": <open + first case query on the
#         mmap'd columnar v2 container over re-ingesting the raw strace
#         text of the same corpus (acceptance metric: >= 10x)>,
#     "open_micros": {"v2": .., "reparse": ..}  (real time spreads),
#     "repetitions": .., "current": <google-benchmark JSON of bench_elog>
#   }
#
# BENCH_query.json layout:
#   {
#     "select_speedup_by_selectivity": {"sel0": .., "sel1": ..,
#         "sel50": .., "sel100": ..} — median Query::apply time over
#         the resident EventLog divided by the median select_v2 time
#         over the mmap'd container, per selectivity tier (sel1 is one
#         case in 128); byte-identity of the two paths is enforced by
#         test_v2_select and the CI serve-mode cmp,
#     "combined_restriction_speedup": <calls + fp + window at the sel1
#         tier — the interactive narrow-it-down query shape>,
#     "scan_micros" / "select_micros": <real time spread per tier>,
#     "repetitions": .., "current": <google-benchmark JSON of bench_query>
#   }
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-}"
out_dir="${2:-$repo_root}"

if [[ -z "$build_dir" ]]; then
  build_dir="$repo_root/build-native"
  # --preset resolves relative to the working directory, so build from
  # the repo root regardless of where the script was invoked. Always
  # build: an incremental no-op is cheap, while a stale build-native/
  # would silently benchmark last PR's binaries.
  # Key on the cache, not the directory: an interrupted first configure
  # leaves build-native/ without a usable CMakeCache.txt.
  if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    (cd "$repo_root" && cmake --preset release-native)
  fi
  (cd "$repo_root" && cmake --build --preset release-native -j "$(nproc)")
fi

if [[ ! -x "$build_dir/bench/bench_parse" ]]; then
  echo "bench_parse not built; run: cmake --preset release-native && cmake --build --preset release-native -j" >&2
  exit 1
fi

mkdir -p "$out_dir"

parse_raw="$(mktemp)"
elog_raw="$(mktemp)"
query_raw="$(mktemp)"
trap 'rm -f "$parse_raw" "$elog_raw" "$query_raw"' EXIT

run() {  # run <bench> <min-time> <out>
  "$build_dir/bench/$1" \
    --benchmark_format=json \
    --benchmark_min_time="$2" \
    --benchmark_repetitions=10 \
    >"$3"
}
run bench_parse 0.5 "$parse_raw"
run bench_elog 0.2 "$elog_raw"
run bench_query 0.2 "$query_raw"

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")"
python3 - "$build_type" "$repo_root/bench/baseline_seed.json" "$out_dir" \
  "$parse_raw" "$elog_raw" "$query_raw" <<'EOF'
import json
import os
import statistics
import sys

build_type, baseline_path, out_dir = sys.argv[1:4]
baseline = json.load(open(baseline_path))


def spread(current, name, key="real_time"):
    """median, q1 and q3 of `key` over every repetition of one benchmark
    (aggregate rows left out), or None when it did not run."""
    xs = [b[key] for b in current.get("benchmarks", [])
          if b.get("run_name") == name and b.get("run_type", "iteration") == "iteration"
          and key in b]
    if not xs:
        return None
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def ratio(num, den):
    if num is None or den is None or den["median"] == 0:
        return None
    return round(num["median"] / den["median"], 2)


def scaling(current, prefix):
    points = {str(w): spread(current, f"{prefix}/{w}/real_time", "items_per_second")
              for w in (1, 2, 4)}
    return {w: p for w, p in points.items() if p is not None}


def parallel_speedup(points):
    multi = [p["median"] for w, p in points.items() if w != "1"]
    if "1" not in points or not multi:
        return None
    return round(max(multi) / points["1"]["median"], 2)


def parse_record(current):
    bps = lambda name: spread(current, name, "bytes_per_second")
    ips = lambda name: spread(current, name, "items_per_second")
    base_bps = baseline["corpus"]["bytes"] / baseline["sequential_read"]["best_seconds"]
    mixed = bps("BM_ReadTraceMixed/131072")
    per_file = bps("BM_MixedFiles_PerFileOnly/real_time")
    intra = bps("BM_MixedFiles_IntraFileOnly/real_time")
    best_either = max((per_file, intra), key=lambda p: p["median"] if p else 0)
    convert = scaling(current, "BM_ConvertCasesParallel")
    query = scaling(current, "BM_QueryApplyParallel")
    return {
        "baseline_seed": baseline,
        "speedup_vs_seed": ratio(mixed, {"median": base_bps}),
        "event_log_speedup_vs_copying": ratio(ips("BM_EventLogFromRecords/131072"),
                                              ips("BM_EventLogFromRecordsCopying/131072")),
        "mixed_vs_best_either_or": ratio(bps("BM_MixedFiles_Mixed/real_time"), best_either),
        "scan_kernel_speedup_vs_scalar": ratio(bps("BM_ScanKernel/131072"),
                                               bps("BM_ScanScalar/131072")),
        "convert_scaling": convert,
        "convert_parallel_speedup": parallel_speedup(convert),
        "query_scaling": query,
        "query_parallel_speedup": parallel_speedup(query),
    }


def elog_record(current):
    v2 = spread(current, "BM_OpenFirstQueryV2")
    reparse = spread(current, "BM_OpenFirstQueryReparse")
    return {"open_speedup_v2_vs_reparse": ratio(reparse, v2),
            "open_micros": {"v2": v2, "reparse": reparse}}


def query_record(current):
    tiers = ("sel0", "sel1", "sel50", "sel100", "sel1_combined")
    scan = {t: spread(current, f"BM_QueryScan/{t}") for t in tiers}
    select = {t: spread(current, f"BM_QuerySelect/{t}") for t in tiers}
    return {
        "select_speedup_by_selectivity": {t: ratio(scan[t], select[t])
                                          for t in tiers if t != "sel1_combined"},
        "combined_restriction_speedup": ratio(scan["sel1_combined"], select["sel1_combined"]),
        "scan_micros": scan,
        "select_micros": select,
    }


for name, build, raw in zip(("parse", "elog", "query"), (parse_record, elog_record, query_record),
                            sys.argv[4:7]):
    current = json.load(open(raw))
    headline = build(current)
    record = {"build_type": build_type, **headline,
              "repetitions": current["benchmarks"][0]["repetitions"], "current": current}
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    json.dump(record, open(path, "w"), indent=1)
    print(f"wrote {path}: " + ", ".join(f"{k} = {v}" for k, v in headline.items()
                                        if not isinstance(v, dict)))
EOF
