#!/usr/bin/env python3
"""Records perfbench's end-to-end metrics as BENCH_e2e.json.

    bench/record_e2e.py [out-dir] [run.py args...]

Runs `python3 perfbench/run.py --workload W --seed 31 --trace 0` RUNS
times for every workload BENCHMARK.json names, round-robin over the
workloads so a slow stretch of the machine spreads over all of them.
Arguments after out-dir (default: the repo root) go to run.py unchanged,
e.g. `--smoke` for a tiny self-test of this script.

For every workload and end-to-end metric the record keeps the median,
q1 and q3 over the runs and the number of runs, next to run.py's
machine block (nproc, compiler, flags, build type, commit). If any run
exits nonzero, reports an incorrect result or counts a failed
operation, nothing is written and the script exits 1.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 5
SEED = 31


def run_once(workload, extra):
    """One run.py invocation: (record line, result line), or None with
    the reason printed when the run failed in any way."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", "0"] + extra
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    problem = None
    if r.returncode != 0:
        problem = "exit %d" % r.returncode
    elif len(lines) < 2:
        problem = "no record and result lines"
    else:
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        if not result.get("correct"):
            problem = "correct: false"
        elif result.get("failed", 0) > 0:
            problem = "%d failed operations" % result["failed"]
        else:
            return record, result
    print("record_e2e: %s: %s\n%s" % (workload, problem, (r.stderr + r.stdout)[-2000:]),
          file=sys.stderr)
    return None


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": float("%.6g" % median), "q1": float("%.6g" % q1),
            "q3": float("%.6g" % q3), "runs": len(values)}


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else ROOT
    extra = sys.argv[2:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in units} for w in workloads}
    machine = None
    for i in range(RUNS):
        for w in workloads:
            print("record_e2e: run %d/%d %s" % (i + 1, RUNS, w), file=sys.stderr, flush=True)
            got = run_once(w, extra)
            if got is None:
                return 1
            record, result = got
            machine = machine or record["machine"]
            for m in units:
                values[w][m].append(result["metrics"][m]["value"])

    out = {
        "machine": machine,
        "command": "perfbench/run.py --workload W --seed %d --trace 0%s" % (
            SEED, "".join(" " + a for a in extra)),
        "workloads": {w: {m: {"unit": units[m], **spread(v)} for m, v in values[w].items()}
                      for w in workloads},
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_e2e.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w in workloads:
        print("%-16s %s" % (w, ", ".join("%s %.4g" % (m, s["median"])
                                         for m, s in out["workloads"][w].items())))
    print("wrote " + path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
