#!/usr/bin/env bash
# Runs the ingestion + pipeline + storage + sharding + query + serve
# benchmarks and writes BENCH_parse.json, BENCH_pipeline.json,
# BENCH_elog.json, BENCH_shard.json, BENCH_query.json and
# BENCH_serve.json at the repo root — the perf trajectory record future
# PRs compare against.
#
#   bench/run_bench.sh [build-dir] [out-dir]
#
# With no build-dir argument the release-native preset is configured
# and built (build-native/, -march=native) so the scan kernels run with
# the widest vector ISA of the machine; an explicit build-dir is used
# as-is and must already contain bench_parse.
#
# BENCH_parse.json layout:
#   {
#     "baseline_seed": <bench/baseline_seed.json — pre-zero-copy numbers>,
#     "speedup_vs_seed": <BM_ReadTraceMixed/131072 bytes/s over baseline>,
#     "event_log_speedup_vs_copying": <arena-interned event construction
#         over the PR 1 per-event string copies, 131072-line corpus>,
#     "mixed_vs_best_either_or": <mixed (file, chunk) work-queue ingest
#         over the better of PR 1's per-file-only / intra-file-only
#         paths on a 1-big+8-small file set>,
#     "scan_kernel_speedup_vs_scalar": <SWAR/SIMD structural scan over
#         the scalar reference loops, 131072-line corpus>,
#     "convert_scaling" / "query_scaling": <items/s at 1/2/4 workers>,
#     "convert_parallel_speedup": <best multi-worker conversion point
#         over the 1-worker point>,
#     "query_parallel_speedup": <best multi-worker Query::apply point
#         over the 1-worker point>,
#     "current": <google-benchmark JSON of bench_parse>
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
pipeline_raw="$(mktemp)"
elog_raw="$(mktemp)"
shard_raw="$(mktemp)"
nofault_raw="$(mktemp)"
query_raw="$(mktemp)"
serve_raw="$(mktemp)"
trap 'rm -f "$parse_raw" "$pipeline_raw" "$elog_raw" "$shard_raw" "$nofault_raw" "$query_raw" "$serve_raw"' EXIT

"$build_dir/bench/bench_parse" \
  --benchmark_format=json \
  --benchmark_min_time=0.5 \
  >"$parse_raw"

"$build_dir/bench/bench_pipeline" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$pipeline_raw"

"$build_dir/bench/bench_elog" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$elog_raw"

# ST_ELOG_TOOL lets bench_shard also register the spawned-subprocess
# variant (posix_spawn of the real fold-shard verb).
ST_ELOG_TOOL="$build_dir/examples/elog_tool" \
  "$build_dir/bench/bench_shard" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  >"$shard_raw"

"$build_dir/bench/bench_query" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=10 \
  >"$query_raw"

# bench_serve is a plain main (latency distribution, not throughput —
# see its header): it prints one JSON record; the wrapper below lifts
# the headline numbers to the top level of BENCH_serve.json.
"$build_dir/bench/bench_serve" \
  --clients=4 --requests=128 --cache-entries=16 \
  >"$serve_raw"

# faultpoint_disabled_overhead: the same BM_RunSharded points from a
# twin build with -DST_DISABLE_FAULT_POINTS=ON (the FAULT_POINT macros
# compile out entirely), so BENCH_shard.json records what the always-on
# registry costs when nothing is armed. Only meaningful when this run
# built build-native itself — an explicit build-dir's flags are unknown
# and the twin would not be apples-to-apples.
echo '{}' >"$nofault_raw"
if [[ "$build_dir" == "$repo_root/build-native" ]]; then
  nofault_dir="$repo_root/build-nofaults"
  cmake -B "$nofault_dir" -S "$repo_root" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS="-march=native" \
        -DST_DISABLE_FAULT_POINTS=ON >/dev/null
  cmake --build "$nofault_dir" --target bench_shard -j "$(nproc)"
  "$nofault_dir/bench/bench_shard" \
    --benchmark_filter='^BM_RunSharded/' \
    --benchmark_format=json \
    --benchmark_min_time=0.2 \
    >"$nofault_raw"
fi

# BENCH_pipeline.json layout:
#   {
#     "pipeline_scaling": {"streamed": {"1": .., "2": .., "4": ..}}
#         (items/s of pipeline::run with a DfgSink),
#     "multi_sink_scaling": {"single_pass": {...}}  (items/s of ONE
#         pipeline::run pass folding DFG + case stats + variants sinks),
#     "current": <google-benchmark JSON of bench_pipeline>
#   }
python3 - "$pipeline_raw" "$out_dir/BENCH_pipeline.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def scaling(prefix):
    points = {}
    for w in (1, 2, 4):
        ips = metric(f"{prefix}/{w}/real_time", "items_per_second")
        if ips is not None:
            points[str(w)] = round(ips)
    return points

streamed = scaling("BM_PipelineStreamed")
single_pass = scaling("BM_MultiSinkSinglePass")

out = {
    "pipeline_scaling": {"streamed": streamed},
    "multi_sink_scaling": {"single_pass": single_pass},
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (pipeline_scaling = {streamed}, "
      f"multi_sink_scaling = {single_pass})")
EOF

python3 - "$parse_raw" "$repo_root/bench/baseline_seed.json" "$out_dir/BENCH_parse.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return round(num / den, 2)

speedup = None
base_bps = baseline["corpus"]["bytes"] / baseline["sequential_read"]["best_seconds"]
mixed_bps = metric("BM_ReadTraceMixed/131072", "bytes_per_second")
if mixed_bps is not None:
    speedup = round(mixed_bps / base_bps, 2)

# Arena-interned event construction vs the PR 1 per-event string copies.
elog_speedup = ratio(metric("BM_EventLogFromRecords/131072", "items_per_second"),
                     metric("BM_EventLogFromRecordsCopying/131072", "items_per_second"))

# Mixed (file, chunk) work queue vs the better PR 1 either/or path.
mixed = metric("BM_MixedFiles_Mixed/real_time", "bytes_per_second")
per_file = metric("BM_MixedFiles_PerFileOnly/real_time", "bytes_per_second")
intra = metric("BM_MixedFiles_IntraFileOnly/real_time", "bytes_per_second")
mixed_vs_best = None
if mixed and per_file and intra:
    mixed_vs_best = round(mixed / max(per_file, intra), 2)

# SWAR/SIMD scan kernels vs the scalar reference loops (this PR's
# acceptance metric: >= 1.3x).
scan_speedup = ratio(metric("BM_ScanKernel/131072", "bytes_per_second"),
                     metric("BM_ScanScalar/131072", "bytes_per_second"))

# Multi-thread scaling points (1/2/4 workers). On a 1-CPU host the
# multi-worker points record contention, not speedup — the scaling
# dict keeps the raw numbers either way.
def scaling(prefix):
    points = {}
    for w in (1, 2, 4):
        ips = metric(f"{prefix}/{w}/real_time", "items_per_second")
        if ips is not None:
            points[str(w)] = round(ips)
    return points

convert_scaling = scaling("BM_ConvertCasesParallel")
query_scaling = scaling("BM_QueryApplyParallel")

def parallel_speedup(points):
    if "1" not in points:
        return None
    multi = [v for k, v in points.items() if k != "1"]
    if not multi:
        return None
    return round(max(multi) / points["1"], 2)

out = {
    "baseline_seed": baseline,
    "speedup_vs_seed": speedup,
    "event_log_speedup_vs_copying": elog_speedup,
    "mixed_vs_best_either_or": mixed_vs_best,
    "scan_kernel_speedup_vs_scalar": scan_speedup,
    "convert_scaling": convert_scaling,
    "convert_parallel_speedup": parallel_speedup(convert_scaling),
    "query_scaling": query_scaling,
    "query_parallel_speedup": parallel_speedup(query_scaling),
    "current": current,
}
json.dump(out, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} (speedup_vs_seed = {out['speedup_vs_seed']}x, "
      f"event_log_speedup_vs_copying = {out['event_log_speedup_vs_copying']}x, "
      f"mixed_vs_best_either_or = {out['mixed_vs_best_either_or']}x, "
      f"scan_kernel_speedup_vs_scalar = {out['scan_kernel_speedup_vs_scalar']}x, "
      f"convert_parallel_speedup = {out['convert_parallel_speedup']}x, "
      f"query_parallel_speedup = {out['query_parallel_speedup']}x)")
EOF

# BENCH_elog.json layout:
#   {
#     "open_speedup_v2_vs_reparse": <open + first case query on the
#         mmap'd columnar v2 container over re-ingesting the raw strace
#         text of the same corpus (acceptance metric: >= 10x)>,
#     "open_micros": {"v2": .., "reparse": ..}  (real time),
#     "current": <google-benchmark JSON of bench_elog>
#   }
python3 - "$elog_raw" "$out_dir/BENCH_elog.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))

def metric(name, key):
    for bench in current.get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return round(num / den, 2)

v2 = metric("BM_OpenFirstQueryV2", "real_time")
reparse = metric("BM_OpenFirstQueryReparse", "real_time")

out = {
    "open_speedup_v2_vs_reparse": ratio(reparse, v2),
    "open_micros": {"v2": round(v2, 1) if v2 else None,
                    "reparse": round(reparse, 1) if reparse else None},
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (open_speedup_v2_vs_reparse = {out['open_speedup_v2_vs_reparse']}x, "
      f"open_micros = {out['open_micros']})")
EOF

# BENCH_shard.json layout:
#   {
#     "sharded_scaling": {"in_process": {"1": .., "2": .., "4": ..},
#                         "spawned": {...}}  (events/s over run_sharded
#         at 1/2/4 shards; in_process still round-trips the codec,
#         spawned adds posix_spawn + blob I/O),
#     "sharded_parallel_speedup": <best multi-shard in-process point
#         over the 1-shard point; parity is the ceiling on a 1-CPU box>,
#     "spawned_overhead_at_1_shard": <in-process over spawned events/s
#         at 1 shard — what the subprocess boundary costs>,
#     "faultpoint_disabled_overhead": <BM_RunSharded events/s with the
#         fault registry compiled in (default build) over the same
#         point from a -DST_DISABLE_FAULT_POINTS=ON twin build; ~1.0
#         means the disabled registry costs nothing measurable>,
#     "faultpoint_overhead_by_shards": {"1": .., "2": .., "4": ..},
#     "current": <google-benchmark JSON of bench_shard>
#   }
python3 - "$shard_raw" "$nofault_raw" "$out_dir/BENCH_shard.json" <<'EOF'
import json
import sys

current = json.load(open(sys.argv[1]))
nofault = json.load(open(sys.argv[2]))

def metric(name, key, data=None):
    for bench in (current if data is None else data).get("benchmarks", []):
        if bench.get("name") == name and key in bench:
            return bench[key]
    return None

def scaling(prefix, data=None):
    points = {}
    for k in (1, 2, 4):
        ips = metric(f"{prefix}/{k}/real_time", "items_per_second", data)
        if ips is not None:
            points[str(k)] = round(ips)
    return points

in_process = scaling("BM_RunSharded")
spawned = scaling("BM_RunShardedSpawned")
nofault_points = scaling("BM_RunSharded", nofault)

def parallel_speedup(points):
    if "1" not in points:
        return None
    multi = [v for k, v in points.items() if k != "1"]
    if not multi:
        return None
    return round(max(multi) / points["1"], 2)

overhead = None
if "1" in in_process and "1" in spawned and spawned["1"]:
    overhead = round(in_process["1"] / spawned["1"], 2)

fault_by_shards = {k: round(in_process[k] / nofault_points[k], 3)
                   for k in in_process if nofault_points.get(k)}
fault_overhead = fault_by_shards.get("1")

out = {
    "sharded_scaling": {"in_process": in_process, "spawned": spawned},
    "sharded_parallel_speedup": parallel_speedup(in_process),
    "spawned_overhead_at_1_shard": overhead,
    "faultpoint_disabled_overhead": fault_overhead,
    "faultpoint_overhead_by_shards": fault_by_shards,
    "current": current,
}
json.dump(out, open(sys.argv[3], "w"), indent=1)
print(f"wrote {sys.argv[3]} (sharded_parallel_speedup = "
      f"{out['sharded_parallel_speedup']}x, scaling = {in_process}, "
      f"spawned = {spawned}, "
      f"spawned_overhead_at_1_shard = {out['spawned_overhead_at_1_shard']}x, "
      f"faultpoint_disabled_overhead = {out['faultpoint_disabled_overhead']})")
EOF

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
#     "scan_micros" / "select_micros": <real time per tier over the
#         repetitions: median, q1 and q3>,
#     "repetitions": <google-benchmark repetitions per benchmark>,
#     "current": <google-benchmark JSON of bench_query>
#   }
python3 - "$query_raw" "$out_dir/BENCH_query.json" <<'EOF'
import json
import statistics
import sys

current = json.load(open(sys.argv[1]))

def times(name):
    """real_time of every repetition of one benchmark (no aggregates)."""
    return [b["real_time"] for b in current.get("benchmarks", [])
            if b.get("run_name") == name and b.get("run_type", "iteration") == "iteration"]

def spread(xs):
    if not xs:
        return None
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": round(med, 1), "q1": round(q1, 1), "q3": round(q3, 1)}

def ratio(num, den):
    if num is None or den is None or den["median"] == 0:
        return None
    return round(num["median"] / den["median"], 2)

tiers = ("sel0", "sel1", "sel50", "sel100", "sel1_combined")
scan = {t: spread(times(f"BM_QueryScan/{t}")) for t in tiers}
select = {t: spread(times(f"BM_QuerySelect/{t}")) for t in tiers}
speedup = {t: ratio(scan[t], select[t]) for t in tiers if t != "sel1_combined"}
combined = ratio(scan["sel1_combined"], select["sel1_combined"])

out = {
    "select_speedup_by_selectivity": speedup,
    "combined_restriction_speedup": combined,
    "scan_micros": scan,
    "select_micros": select,
    "repetitions": len(times("BM_QueryScan/sel0")),
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (select_speedup_by_selectivity = {speedup}, "
      f"combined_restriction_speedup = {combined}x)")
EOF

# BENCH_serve.json layout:
#   {
#     "p50_us" / "p99_us": <overall request latency of the mixed
#         query/report/diff/stat workload, 4 clients x 128 requests
#         against one resident Catalog over a 512 x 64 synthetic corpus
#         (cache capacity 16 — small enough that eviction happens)>,
#     "report_p50_us" / "report_p99_us": <the heavyweight verb on its
#         own — a cold full HTML report dominates the overall p99>,
#     "report_cold_p50_us" / "report_warm_p50_us": <the same verb split
#         by first-seen vs later-hit: the cold render cost vs the cache
#         hit that replaces it (first-seen approximation — see
#         bench_serve's header)>,
#     "cache_hit_rate": <catalog hits / (hits + misses) at the end of
#         the run; cold misses and eviction refills included>,
#     "requests_per_second": <aggregate across clients>,
#     "nproc": <CPUs of the recording machine>,
#     "current": <bench_serve's full JSON record (per-verb p50/p99,
#         cache counters, corpus size)>
#   }
python3 - "$serve_raw" "$out_dir/BENCH_serve.json" <<'EOF'
import json
import os
import sys

current = json.load(open(sys.argv[1]))
latency = current.get("latency_us", {})
report_split = latency.get("cold_warm", {}).get("report", {})
out = {
    "p50_us": latency.get("overall", {}).get("p50"),
    "p99_us": latency.get("overall", {}).get("p99"),
    "report_p50_us": latency.get("per_verb", {}).get("report", {}).get("p50"),
    "report_p99_us": latency.get("per_verb", {}).get("report", {}).get("p99"),
    "report_cold_p50_us": report_split.get("cold", {}).get("p50"),
    "report_warm_p50_us": report_split.get("warm", {}).get("p50"),
    "cache_hit_rate": current.get("cache", {}).get("hit_rate"),
    "requests_per_second": current.get("requests_per_second"),
    "nproc": os.cpu_count(),
    "current": current,
}
json.dump(out, open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]} (p50_us = {out['p50_us']}, p99_us = {out['p99_us']}, "
      f"report_p50_us = {out['report_p50_us']}, report_p99_us = {out['report_p99_us']}, "
      f"report_cold_p50_us = {out['report_cold_p50_us']}, "
      f"report_warm_p50_us = {out['report_warm_p50_us']}, "
      f"cache_hit_rate = {out['cache_hit_rate']}, "
      f"requests_per_second = {out['requests_per_second']})")
EOF
