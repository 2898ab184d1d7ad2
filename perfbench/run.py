#!/usr/bin/env python3
"""End-to-end benchmark of st-inspector over the paper's IOR campaign.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # tiny self-test of every workload
    python3 perfbench/run.py --smoke --workload W --trace 0|1   # one, tiny

Run from the repository root. The first run builds elog_tool,
trace_explorer and the helpers of this directory (pb_gen, pb_trace,
pb_client) from source into $CARGO_TARGET_DIR (default .bench_build)/perfbench;
every run writes only below that directory.

Inputs come from --seed: pb_gen makes the paper's IOR campaign (SSF, FPP,
POSIX, MPI-IO runs) through the iosim calls campaign_runner makes, the
v2 containers are made by the real `elog_tool import`, and serve_mix
draws its request stream from the same seed. The programs under test
only ever receive trace files, containers and request lines.

Workloads (why each exists is in BENCHMARK.json):
  campaign_ingest  elog_tool import out.elog <1920 files> --stream-report
                   out.html --threads 4, 480-rank campaign
  sharded_report   elog_tool report-sharded out.html <1920 files>
                   --shards 2 --threads 2, same campaign
  wide_report      trace_explorer c96.elog --map last1 --render report,
                   96-rank campaign imported once
  serve_mix        trace_explorer serve c96.elog --port 0 --threads 4
                   --cache-entries 64 (the default); closed loop, 4
                   connections from one pb_client process sharing one
                   stream (each sends the next unsent request); every block
                   of 800 requests is the same multiset, shuffled by the
                   seed: query/report/diff/stat in bench_serve's shares
                   (8:4:2:2), Zipf-skewed over each verb's keys

--trace 0 times fresh processes and prints the end-to-end metrics.
After one untimed warm-up run, each timed run of a CLI workload follows
three runs of its set-up command: the same command over one trace file
per worker (the fixed cost of an invocation), or on wide_report the
import of its container. There a "request" is one invocation. serve_mix starts
five servers (setup_s: spawn to the first `ping` reply) and keeps the
last one resident: after a warm-up block, pb_client sends each block
(wall_s, cpu_s and peak_rss_mb are the server's per block: its peak
count restarts with each block through /proc/PID/clear_refs). Times
and sizes are medians over the run; req_p99_ms is the nearest-rank 99th
percentile, or the 90th on the CLI workloads, whose ~30 invocations a
run cannot support a 99th. Timed runs, their set-up runs and blocks
during which CPU steal (/proc/stat) took over 3% of the VM's CPU time
are left out while at least three calm ones remain; otherwise the
least-stolen half is kept. The record line counts what was left out.

--trace 1 runs the CLI untraced a few times (process counters) and one
served session over the workload's container (end-to-end request
latency), then pb_trace: it makes the workload's public calls without
spans and again with them (trace.overhead compares the two), then
probes every layer on the workload's own corpus, so each per-layer
metric is measured on every workload. The spans reduce to the
per-layer metrics; they are also written as an elog v2 event log,
which `trace_explorer spans.elog --render report` must render. A
metric whose spans are missing is an error, not a zero.

Every run checks outputs (byte-identical reports across paths, verified
containers, served bytes equal to the offline CLI); any mismatch counts
as failed, marks the result incorrect and exits 1. The last stdout line
is the result JSON; the line before it records seed, corpus, machine,
sample counts and, where a server ran, the verb shares and cache hit
ratio of the stream it answered.
"""
import argparse
import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import types
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_ingest", "sharded_report", "wide_report", "serve_mix")

# Ranks per workload; serve_mix requests per block.
SIZES = {
    "full": {"campaign_ingest": 480, "sharded_report": 480, "wide_report": 96,
             "serve_mix": 96, "block": 800, "cache_entries": 64},
    "smoke": {"campaign_ingest": 8, "sharded_report": 8, "wide_report": 8,
              "serve_mix": 8, "block": 80, "cache_entries": 4},
}
SERVE_SETUP_REPS = 5
# serve_mix verb shares: those of the interactive mix in
# bench/bench_serve.cpp, whose 16 request lines are 8 query, 4 report,
# 2 diff and 2 stat. The repo holds no recorded user traffic; this is
# an assumption, and every serve_mix record line carries the shares and
# cache hit ratio the stream produced.
VERB_SHARES = {"query": 8, "report": 4, "diff": 2, "stat": 2}
# serve_mix client connections. With 2 the server idles between
# requests and its wake-ups made median latency and throughput swing by
# a quarter between runs on a 4-vCPU VM; 4 sharing one stream kept the
# spread over 10 seeds within 5%.
CONNECTIONS = 4
SETUPS_PER_RUN = 3
# Timed samples in which CPU steal exceeds this share of the VM's CPU
# time are left out (see quiet()): on a shared host, bursts of steal
# added up to a third to a run's wall-clock while its CPU time held.
STEAL_LIMIT = 0.03
MIN_SAMPLES = 3
TRACE_CLI_RUNS = 3


class BenchError(Exception):
    """Infrastructure failure (build, missing sources): no result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs, what="samples"):
    """The median; no samples is an error, never a zero."""
    if not xs:
        raise BenchError("no %s to take a median of" % what)
    return statistics.median(xs)


def tail(xs):
    """Nearest-rank 99th percentile; below 100 samples, which cannot
    support it, the nearest-rank 90th."""
    s = sorted(xs)
    p = 0.99 if len(s) >= 100 else 0.90
    return s[max(0, math.ceil(p * len(s)) - 1)]


def sha(data):
    return hashlib.sha256(data).hexdigest()


def steal_s():
    """Seconds of this VM's CPU time the hypervisor gave to others so
    far (the steal column of /proc/stat, summed over CPUs)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def calm(samples):
    """The samples during which the hypervisor took at most STEAL_LIMIT
    of the VM's CPU time."""
    return [s for s in samples if s.stolen <= STEAL_LIMIT]


def quiet(samples):
    """The calm samples; when fewer than MIN_SAMPLES were calm, as
    happens while the host stays busy, the least-stolen half of them
    (at least MIN_SAMPLES)."""
    kept = calm(samples)
    if len(kept) >= MIN_SAMPLES:
        return kept
    return sorted(samples, key=lambda s: s.stolen)[:max(MIN_SAMPLES, len(samples) // 2)]


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# ---- build -----------------------------------------------------------------

def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no st-inspector sources next to perfbench/ (run from the repo root)")
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    blog = os.path.join(bdir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", bdir, "-j4", "--target",
            "elog_tool", "trace_explorer", "pb_gen", "pb_trace", "pb_client"]
    with open(blog, "ab") as out:
        def step(cmd):
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0

        fresh = not os.path.isfile(os.path.join(bdir, "CMakeCache.txt"))
        ok = (step(configure) if fresh else True) and step(make)
        if not ok and not fresh:
            # The build files may have gained a target since the cache.
            ok = step(configure) and step(make)
        if not ok:
            with open(blog, "rb") as f:
                log(f.read()[-4000:].decode(errors="replace"))
            raise BenchError("build failed; log in " + blog)
    return {
        "elog_tool": os.path.join(bdir, "st", "examples", "elog_tool"),
        "trace_explorer": os.path.join(bdir, "st", "examples", "trace_explorer"),
        "pb_gen": os.path.join(bdir, "pb_gen"),
        "pb_trace": os.path.join(bdir, "pb_trace"),
        "pb_client": os.path.join(bdir, "pb_client"),
        "dir": bdir,
    }


def compiler_version(cxx):
    r = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    return r.stdout.splitlines()[0] if r.returncode == 0 and r.stdout else cxx


def machine_block(bins):
    cache = {}
    try:
        with open(os.path.join(bins["dir"], "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    k, v = line.rstrip("\n").split("=", 1)
                    cache[k.split(":")[0]] = v
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                p = os.path.join(dirpath, name)
                digest.update(os.path.relpath(p, ROOT).encode())
                digest.update(read_bytes(p))
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler_version(cache.get("CMAKE_CXX_COMPILER", "c++")),
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "build_type": build_type,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---- processes -------------------------------------------------------------

class Proc:
    """One fresh process, timed spawn to exit, with its wait4 rusage
    (which covers the children it reaped: fold-shard workers)."""

    def __init__(self, args, stdout_path=None, stdin_bytes=None, work=None):
        err_path = os.path.join(work, "stderr.txt")
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        with open(err_path, "wb") as err:
            steal0, t0 = steal_s(), time.perf_counter()
            p = subprocess.Popen(args, stdout=out, stderr=err,
                                 stdin=subprocess.PIPE if stdin_bytes is not None else subprocess.DEVNULL)
            if stdin_bytes is not None:
                p.stdin.write(stdin_bytes)
                p.stdin.close()
            _, status, ru = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - t0
            self.stolen = (steal_s() - steal0) / (self.wall * os.cpu_count())
        p.returncode = os.waitstatus_to_exitcode(status)
        if stdout_path:
            out.close()
        self.code = p.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.maxrss_mb = ru.ru_maxrss / 1024.0
        self.minflt = ru.ru_minflt
        self.majflt = ru.ru_majflt
        self.nivcsw = ru.ru_nivcsw
        self.stderr = read_bytes(err_path).decode(errors="replace")

    def ok(self):
        return self.code == 0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


# ---- inputs ----------------------------------------------------------------

def generate(bins, work, ranks, seed):
    out = os.path.join(work, "corpus")
    r = subprocess.run([bins["pb_gen"], "--out", out, "--ranks", str(ranks), "--seed", str(seed)],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("pb_gen failed: " + r.stderr)
    corpus = json.loads(r.stdout.strip().splitlines()[-1])
    os.sync()  # no writeback of the fresh corpus during timed runs
    with open(os.path.join(out, "files.txt")) as f:
        files = [line.strip() for line in f if line.strip()]
    return corpus, files


def verify_container(bins, work, path, events, tally):
    """elog_tool stat --verify passes and the event count is the generator's."""
    out = os.path.join(work, "stat.txt")
    p = Proc([bins["elog_tool"], "stat", path, "--verify"], stdout_path=out, work=work)
    text = read_bytes(out).decode(errors="replace")
    tally.op(p.ok() and "verify: ok" in text and (" %d events" % events) in text,
             "stat --verify of %s" % path)


# ---- batch workloads -------------------------------------------------------

def batch_commands(bins, workload, files, work, tag):
    if workload == "campaign_ingest":
        html = os.path.join(work, tag + ".html")
        return [bins["elog_tool"], "import", os.path.join(work, tag + ".elog"), *files,
                "--stream-report", html, "--threads", "4"], html
    html = os.path.join(work, tag + ".html")
    return [bins["elog_tool"], "report-sharded", html, *files, "--shards", "2", "--threads", "2"], html


def workload_commands(bins, workload, files, c96, work):
    """(command, its output file, set-up command) of a CLI workload."""
    if workload == "wide_report":
        setup = [bins["elog_tool"], "import", os.path.join(work, "setup.elog"), *files,
                 "--threads", "4"]
        return wide_command(bins, c96), os.path.join(work, "wide.html"), setup
    cmd, html = batch_commands(bins, workload, files, work, "out")
    one = files[:1] if workload == "campaign_ingest" else files[:2]
    setup, _ = batch_commands(bins, workload, one, work, "setup")
    return cmd, html, setup


def timed_cli(bins, workload, files, c96, corpus, work, seconds, tally):
    """Fresh processes of the workload's command until `seconds` pass,
    each after runs of its set-up command, so that both sample the same
    stretch of machine time."""
    cmd, out, setup_cmd = workload_commands(bins, workload, files, c96, work)
    stdout_path = out if workload == "wide_report" else os.path.join(work, "stdout.txt")
    # One untimed run first: later runs find the binary and the inputs
    # in the page cache, as every run after a user's first does.
    tally.op(Proc(cmd, stdout_path=stdout_path, work=work).ok(), "%s warm-up run" % workload)
    runs, setups, digest = [], [], None
    deadline = time.perf_counter() + seconds
    # Past the deadline only while too few runs were quiet, and briefly.
    while (time.perf_counter() < deadline or len(calm(runs)) < MIN_SAMPLES) and \
            time.perf_counter() < deadline + seconds / 3:
        for _ in range(SETUPS_PER_RUN):
            s = Proc(setup_cmd, work=work)
            if tally.op(s.ok(), "%s set-up: %s" % (workload, s.stderr[-300:])):
                setups.append(s)
        p = Proc(cmd, stdout_path=stdout_path, work=work)
        ok = p.ok()
        if ok and workload == "campaign_ingest":
            ok = ("(%d events)" % corpus["events"]) in read_bytes(stdout_path).decode(errors="replace")
        if ok:
            d = sha(read_bytes(out))
            digest = digest or d
            ok = d == digest
        if tally.op(ok, "%s run %d (exit %d): %s" % (workload, len(runs), p.code, p.stderr[-300:])):
            runs.append(p)
    return runs, setups, out


def cross_check_batch(bins, workload, files, corpus, work, html_path, tally):
    """campaign_ingest and sharded_report must write the same HTML bytes;
    the imported container verifies and holds the generator's events."""
    other = "sharded_report" if workload == "campaign_ingest" else "campaign_ingest"
    cmd, other_html = batch_commands(bins, other, files, work, "ref")
    p = Proc(cmd, work=work)
    tally.op(p.ok() and read_bytes(other_html) == read_bytes(html_path),
             "%s HTML differs from %s" % (workload, other))
    elog_path = os.path.join(work, ("out" if workload == "campaign_ingest" else "ref") + ".elog")
    verify_container(bins, work, elog_path, corpus["events"], tally)


# ---- wide_report -----------------------------------------------------------

def wide_command(bins, c96):
    return [bins["trace_explorer"], c96, "--map", "last1", "--render", "report"]


def served_payloads(bins, c96, work, requests, mapping):
    """Payloads of `serve --stdio` for the given request lines."""
    out = os.path.join(work, "stdio.txt")
    stdin = ("\n".join(requests) + "\nshutdown\n").encode()
    p = Proc([bins["trace_explorer"], "serve", c96, "--stdio", "--map", mapping],
             stdout_path=out, stdin_bytes=stdin, work=work)
    data = read_bytes(out)
    replies, pos = [], 0
    while pos < len(data):
        nl = data.index(b"\n", pos)
        header = json.loads(data[pos:nl])
        n = header.get("bytes", 0)
        replies.append((header, data[nl + 1:nl + 1 + n]))
        pos = nl + 1 + n
    return p, replies


# ---- serve_mix -------------------------------------------------------------

def request_keys(corpus):
    """Per verb, its arguments in a fixed popularity order (rank 1
    first): the seed shuffles the stream, the ranking does not move, so
    every seed loads the same mix of cheap and expensive keys. query,
    report and stat share one order: a popular filter is popular under
    every verb."""
    t0, t1 = corpus["t_min"], corpus["t_max"]
    w = max(1, (t1 - t0) // 8)
    windows = ["t[%d,%d)" % (t0 + i * w, t0 + (i + 1) * w) for i in range(8)]
    files = ["fp~/p/scratch/fpp/test.%08d" % r for r in range(0, corpus["ranks"], 3)]
    base = ["cids{ssf}", "calls{write}", "fp~/p/scratch", "cids{fpp}", "hosts{node1}",
            "calls{read}", "cids{mpiio}", "fp~/p/software", "cids{po}", "all",
            "calls{read,write}", "fp~/dev/shm", "cids{fpp,ssf}", "calls{lseek}",
            "hosts{node2}", "cids{mpiio,po}", "calls{openat}", "fp~/p/scratch/fpp",
            "cids{ssf} calls{write}", "cids{fpp} calls{read}", "cids{po} calls{read}",
            "cids{mpiio} calls{write}", "fp~/p/scratch/ssf", "calls{unlinkat}"]
    queries = list(itertools.chain.from_iterable(itertools.zip_longest(base, files, windows)))
    queries = [q for q in queries if q is not None]
    diffs = ["cids{ssf} :: cids{fpp}", "cids{po} :: cids{mpiio}", "calls{read} :: calls{write}",
             "hosts{node1} :: hosts{node2}"] + \
            ["%s :: %s" % (windows[i], windows[i + 1]) for i in range(7)]
    return {"query": queries, "report": queries, "diff": diffs, "stat": queries}


def zipf_counts(n, total):
    """`total` split over ranks 1..n in proportion to 1/rank, rounded by
    largest remainder."""
    weights = [1.0 / (i + 1) for i in range(n)]
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


class Stream:
    """Seeded request blocks, one per session. Each block holds the same
    multiset of request lines: every verb its VERB_SHARES part of the
    block, spread over the verb's keys Zipf-wise (rank i in proportion
    to 1/i). The seed shuffles it, so every seed asks for the same work
    in a different order."""

    def __init__(self, seed, keys, total):
        self.rng = random.Random(seed * 1000003 + 7)
        parts = sum(VERB_SHARES.values())
        self.block = []
        for verb, share in VERB_SHARES.items():
            for arg, n in zip(keys[verb], zipf_counts(len(keys[verb]), total * share // parts)):
                self.block += ["%s %s" % (verb, arg)] * n

    def session(self):
        lines = self.block[:]
        self.rng.shuffle(lines)
        return lines


def read_reply(f):
    header = f.readline()
    if not header.endswith(b"\n"):
        raise ConnectionError("connection dropped")
    h = json.loads(header)
    payload = f.read(h["bytes"]) if h.get("ok") else b""
    if h.get("ok") and len(payload) != h["bytes"]:
        raise ConnectionError("short payload")
    return h, payload


class Server:
    """One `trace_explorer serve` process on an ephemeral port."""

    def __init__(self, bins, c96, cache_entries):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["trace_explorer"], "serve", c96, "--port", "0", "--threads", "4",
             "--cache-entries", str(cache_entries)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.port = None
        self.lines = []
        ready = threading.Event()

        def drain():
            for line in self.proc.stderr:
                self.lines.append(line)
                if self.port is None and line.startswith(b"serving "):
                    self.port = int(line.rsplit(b":", 1)[1])
                    ready.set()
            ready.set()

        self.reader = threading.Thread(target=drain, daemon=True)
        self.reader.start()
        if not ready.wait(120) or self.port is None:
            self.kill()
            raise ConnectionError("server did not come up: %r" % b"".join(self.lines)[-300:])
        try:
            with self.connect() as s, s.makefile("rb") as f:
                s.sendall(b"ping\n")
                h, payload = read_reply(f)
                if not h.get("ok") or payload != b"pong\n":
                    raise ConnectionError("bad ping reply")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - self.t0

    def connect(self):
        s = socket.create_connection(("127.0.0.1", self.port), timeout=120)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return s

    def shutdown(self):
        """Reads the cache counters, stops the server, reaps it."""
        try:
            with self.connect() as s, s.makefile("rb") as f:
                s.sendall(b"stat\n")
                _, payload = read_reply(f)
                stat = json.loads(payload)
                s.sendall(b"shutdown\n")
                read_reply(f)
        except BaseException:
            self.kill()
            raise
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - self.t0
        self.reader.join(10)
        self.cpu = ru.ru_utime + ru.ru_stime
        self.minflt, self.majflt, self.nivcsw = ru.ru_minflt, ru.ru_majflt, ru.ru_nivcsw
        return stat

    def cpu_now(self):
        """utime + stime of the server so far, from /proc."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def reset_peak_rss(self):
        """Restarts the server's peak-RSS count (VmHWM) from its RSS now."""
        with open("/proc/%d/clear_refs" % self.proc.pid, "w") as f:
            f.write("5")

    def peak_rss_mb(self):
        """The server's peak RSS since the last reset_peak_rss()."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc/%d/status" % self.proc.pid)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def write_requests(path, lines):
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def run_block(bins, server, lines, work):
    """One block of requests through pb_client's CONNECTIONS connections,
    which share the stream. Returns .results, (latency_s or None, line, ok, reply key) per
    request; .busy, the block's wall-clock; .cpu and .rss_mb, the
    server's CPU time and peak RSS over it; .stolen, the share of the
    VM's CPU time lost to steal. The
    reply key is (bytes, crc32) of the payload, or for `stat` the case
    and event counts (its cache counters change between replies)."""
    reqs, out = os.path.join(work, "block.txt"), os.path.join(work, "block.out")
    write_requests(reqs, lines)
    server.reset_peak_rss()
    cpu0, steal0, t0 = server.cpu_now(), steal_s(), time.perf_counter()
    p = subprocess.run([bins["pb_client"], "--port", str(server.port), "--connections",
                        str(CONNECTIONS), "--requests", reqs, "--out", out],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    cpu, rss_mb = server.cpu_now() - cpu0, server.peak_rss_mb()
    stolen = (steal_s() - steal0) / ((time.perf_counter() - t0) * os.cpu_count())
    replies, busy = {}, 0.0
    if p.returncode == 0:
        with open(out) as f:
            for row in f:
                fields = row.split(" ", 5)
                if fields[0] == "busy_ns":
                    busy = int(fields[1]) / 1e9
                    continue
                i, lat, ok = int(fields[0]), int(fields[1]), fields[2] == "1"
                key = (int(fields[3]), int(fields[4]))
                if len(fields) == 6:
                    s = json.loads(fields[5])
                    key = (s["cases"], s["events"])
                replies[i] = (lat / 1e9 if lat >= 0 else None, ok and lat >= 0, key)
    results = []
    for i, line in enumerate(lines):
        lat, ok, key = replies.get(i, (None, False, None))
        results.append((lat, line, ok, key))
    return types.SimpleNamespace(results=results, busy=busy, cpu=cpu, rss_mb=rss_mb, stolen=stolen)


def run_session(bins, c96, cache_entries, lines, work):
    """A fresh server answering one block, then shut down and reaped."""
    server = Server(bins, c96, cache_entries)
    try:
        results = run_block(bins, server, lines, work).results
        server.stat = server.shutdown()
    except BaseException:
        server.kill()
        raise
    return server, results


def traffic(results, stat):
    """What a served stream asked for and how the cache took it: the
    verb shares of the answered requests, the hit ratio and evictions."""
    verbs = [line.split(" ", 1)[0] for _lat, line, ok, _key in results if ok]
    cache = stat["cache"]
    return {"verb_shares": {v: verbs.count(v) / max(1, len(verbs)) for v in VERB_SHARES},
            "cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "evictions": cache["evictions"]}


def check_served(bins, c96, work, results, tally):
    """Same reply for every repeat of a request line, and, once per
    distinct query/report line, the offline trace_explorer bytes."""
    first = {}
    for lat, line, ok, key in results:
        if not tally.op(ok and lat is not None, "reply to %r" % line):
            continue
        if line in first:
            tally.op(first[line] == key, "%r changed between replies" % line)
        else:
            first[line] = key
    offline = [line for line in first if line.split(" ", 1)[0] in ("query", "report")]

    def one(line):
        verb, q = line.split(" ", 1)
        render = "summary" if verb == "query" else "report"
        r = subprocess.run([bins["trace_explorer"], c96, "--query", q, "--render", render],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return line, r.returncode == 0 and (len(r.stdout), zlib.crc32(r.stdout)) == first[line]

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for line, same in pool.map(one, offline):
            tally.op(same, "served %r differs from the offline CLI" % line)
    return len(first), len(offline)


# ---- traced run ------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = {}
    for i, s in enumerate(spans):
        covered, end = 0, s[1]
        for a, b in sorted(children.get(i, [])):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out.setdefault(s[0], []).append((s[2] - s[1] - covered) / 1e9)
    return out


def per_iteration(spans):
    """name -> {iteration: summed seconds}."""
    out = {}
    for name, a, b, _parent, _thread, it in spans:
        d = out.setdefault(name, {})
        d[it] = d.get(it, 0.0) + (b - a) / 1e9
    return out


def coverage(spans, wall_ns):
    top = sorted((s[1], s[2]) for s in spans if s[3] < 0 and s[4] == 0)
    covered, end = 0, 0
    for a, b in top:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return covered / wall_ns if wall_ns > 0 else 0.0


def layer_metrics(workload, trace, cli_runs, latencies, corpus):
    # A span or count the driver no longer emits (a renamed or deleted
    # layer call) raises here instead of reading as zero.
    it = per_iteration(trace["spans"])
    counts = trace["counts"]

    def med(name):
        return median(list(it.get(name, {}).values()), "%r spans" % name)

    def med_diff(name, minus):
        a, b = it.get(name, {}), it.get(minus, {})
        return median([a[i] - b[i] for i in a if i in b], "%r and %r spans" % (name, minus))

    def med_of(fn):
        return median([fn(i) for i in sorted(it.get("probe.shard.decode", {}))],
                      "'probe.shard.decode' spans")

    def durations(name):
        return [(b - a) / 1e9 for n, a, b, *_ in trace["spans"] if n == name]

    def med_dur(name):
        return median(durations(name), "%r spans" % name)

    def slowest_fold(i):
        return max(d[i] for n, d in it.items() if n.startswith("probe.shard.fold#") and i in d)

    parse = med("probe.strace.parse")
    m = {
        "strace.parse_s": parse,
        "strace.parse_mb_per_s": corpus["bytes"] / parse / 1e6,
        "strace.records": counts["strace.records"],
        "strace.warnings": counts["strace.warnings"],
        "pipeline.ingest_s": med("probe.pipeline.ingest"),
        "model.convert_s": med_diff("probe.pipeline.ingest", "probe.strace.parse"),
        "dfg.io_stats.finalize_s": med("probe.dfg.io_stats.finalize"),
        "dfg.edge_stats.finalize_s": med("probe.dfg.edge_stats.finalize"),
        "dfg.activities": counts["dfg.activities"],
        "dfg.edges": counts["dfg.edges"],
        "dfg.layout_s": med("probe.dfg.layout"),
        "dfg.render_svg_s": med_diff("probe.dfg.render_svg", "probe.dfg.layout"),
        "report.html_bytes": counts["report.html_bytes"],
        "elog.v2.write_s": med("probe.elog.v2.finalize"),
        "elog.v2.bytes": counts["elog.v2.bytes"],
        "elog.v2.open_s": med("probe.elog.v2.open"),
        "elog.v2.read_s": med("probe.elog.v2.read"),
        "elog.v2.select_s": med("probe.elog.v2.select"),
        "shard.fold_s": med_of(slowest_fold),
        "shard.blob_bytes": counts["shard.blob_bytes"],
        "shard.encode_s": med("probe.shard.encode"),
        "shard.decode_s": med("probe.shard.decode"),
        "shard.finalize_s": med("probe.shard.finalize"),
        "shard.render_s": med("probe.shard.render"),
        "shard.coord_overhead_s": med_of(
            lambda i: it["probe.shard.run_sharded"][i] - slowest_fold(i) -
            it["probe.shard.decode"][i] - it["probe.shard.finalize"][i]),
        "corpus.load_s": med("corpus.load" if "corpus.load" in it else "probe.corpus.load"),
        "corpus.hit_us": med_dur("probe.corpus.hit") * 1e6,
        "corpus.hit_ratio": counts["corpus.hits"] / max(1, counts["corpus.hits"] + counts["corpus.misses"]),
        "corpus.evictions": counts["corpus.evictions"],
    }
    for sink in ("dfg", "case_stats", "variants", "io_stats", "edge_stats", "elog_v2"):
        m["pipeline.sink.%s.fold_s" % sink] = med_diff("probe.pipeline.sink." + sink,
                                                      "probe.pipeline.ingest")
    for kind in ("filtered", "graph", "io_stats", "summaries", "report_html"):
        m["corpus.miss_ms." + kind] = med_dur("probe.corpus.miss." + kind) * 1e3
    handle = []
    for verb in VERB_SHARES:
        handle += durations("serve.handle." + verb)
        m["serve.handle_ms." + verb] = med_dur("serve.handle." + verb) * 1e3
    m["serve.transport_ms"] = (median(latencies, "served latencies") - median(handle)) * 1e3

    # Where the workload's own path builds the graph and the report.
    if workload == "campaign_ingest":
        m["dfg.build_s"] = m["pipeline.sink.dfg.fold_s"]
        m["report.build_s"] = med("dfg.io_stats.finalize") + med("dfg.edge_stats.finalize")
        m["report.render_s"] = med("report.render")
    elif workload == "sharded_report":
        m["dfg.build_s"] = m["pipeline.sink.dfg.fold_s"]
        m["report.build_s"] = m["shard.finalize_s"]
        m["report.render_s"] = med("shard.render")
    else:
        m["dfg.build_s"] = med("dfg.build" if workload == "wide_report" else "probe.dfg.build")
        m["report.build_s"] = med("probe.report.build")
        m["report.render_s"] = med("probe.report.render")

    threads = {"campaign_ingest": 4, "sharded_report": 4, "wide_report": 1, "serve_mix": 4}[workload]
    wall = median([r.wall for r in cli_runs])
    cpu = median([r.cpu for r in cli_runs])
    m["proc.minor_faults"] = median([r.minflt for r in cli_runs])
    m["proc.major_faults"] = median([r.majflt for r in cli_runs])
    m["proc.invol_ctx_switches"] = median([r.nivcsw for r in cli_runs])
    m["proc.cpu_util"] = cpu / (wall * threads)
    mirror = [n for n in it if n.startswith("cli.")]
    if len(mirror) != 1:
        raise BenchError("traced run has %d 'cli.' mirror spans, not 1" % len(mirror))
    m["trace.coverage"] = coverage(trace["spans"], trace["wall_ns"])
    # The mirror with spans against the same calls without them, in the
    # same process: the cost of tracing alone.
    m["trace.overhead"] = med(mirror[0]) / med("untraced." + mirror[0])
    return m


def render_spans(bins, work, spans_elog, tally):
    out = os.path.join(work, "spans.html")
    p = Proc([bins["trace_explorer"], spans_elog, "--render", "report"], stdout_path=out, work=work)
    tally.op(p.ok() and b"<svg" in read_bytes(out), "spans.elog did not render: " + p.stderr[-300:])


def traced(bins, workload, args, work, corpus, files, c96, tally, size):
    """Untraced CLI runs (process counters and CPU use), a served
    session over the workload's container (end-to-end request latency),
    then pb_trace and its reduction."""
    sz = SIZES[size]
    lines = Stream(args.seed, request_keys(corpus), sz["block"]).session()
    reqs = os.path.join(work, "requests.txt")
    write_requests(reqs, lines)
    cli_runs, expect, container = [], None, c96
    if workload != "serve_mix":
        cmd, expect, _ = workload_commands(bins, workload, files, c96, work)
        stdout_path = expect if workload == "wide_report" else None
        for i in range(TRACE_CLI_RUNS + 1):  # the first one warms up
            p = Proc(cmd, stdout_path=stdout_path, work=work)
            if tally.op(p.ok(), "%s untraced run: %s" % (workload, p.stderr[-300:])) and i:
                cli_runs.append(p)
        if workload == "campaign_ingest":
            container = os.path.join(work, "out.elog")
        elif workload == "sharded_report":
            container = os.path.join(work, "c.elog")
            p = Proc([bins["elog_tool"], "import", container, *files, "--threads", "4"], work=work)
            tally.op(p.ok(), "import: " + p.stderr[-300:])
    latencies = []
    for _ in range(TRACE_CLI_RUNS if workload == "serve_mix" else 1):
        server, results = run_session(bins, container, sz["cache_entries"], lines, work)
        for lat, line, ok, _key in results:
            if tally.op(ok and lat is not None, "reply to %r" % line):
                latencies.append(lat)
        tally.op(server.proc.returncode == 0, "server exit")
        if workload == "serve_mix":
            cli_runs.append(server)
    if not cli_runs or not latencies:
        raise BenchError("no successful untraced run: %s" % tally.problems)
    spans_json = os.path.join(work, "spans.json")
    spans_elog = os.path.join(work, "spans.elog")
    cmd = [bins["pb_trace"], workload, "--work", work, "--seconds", str(args.seconds),
           "--spans", spans_json, "--spans-elog", spans_elog, "--elog", container,
           "--requests", reqs, "--elog-tool", bins["elog_tool"],
           "--cache-entries", str(sz["cache_entries"]), "--connections", str(CONNECTIONS)]
    if expect:
        cmd += ["--expect-html", expect]
    p = Proc(cmd + files, work=work)
    if not p.ok():
        raise BenchError("pb_trace: " + p.stderr[-500:])
    with open(spans_json) as f:
        trace = json.load(f)
    render_spans(bins, work, spans_elog, tally)
    m = layer_metrics(workload, trace, cli_runs, latencies, corpus)
    top = sorted(((median(v), k) for k, v in self_times(trace["spans"]).items()), reverse=True)[:12]
    info = {"iterations": trace["iterations"], "spans": len(trace["spans"]),
            "self_time_s": {k: v for v, k in top}, "served": traffic(results, server.stat)}
    return m, info


# ---- one run ---------------------------------------------------------------

def run(args, size, bins, work):
    tally = Tally()
    sz = SIZES[size]
    corpus, files = generate(bins, work, sz[args.workload], args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size,
              "corpus": {k: corpus[k] for k in ("files", "bytes", "cases", "events", "ranks")}}
    c96 = None
    if args.workload in ("wide_report", "serve_mix"):
        c96 = os.path.join(work, "c96.elog")
        out = os.path.join(work, "import.txt")
        p = Proc([bins["elog_tool"], "import", c96, *files, "--threads", "4"], stdout_path=out, work=work)
        tally.op(p.ok() and ("(%d events)" % corpus["events"]) in read_bytes(out).decode(errors="replace"),
                 "import: " + p.stderr[-300:])
        verify_container(bins, work, c96, corpus["events"], tally)
        record["corpus"]["elog_bytes"] = os.path.getsize(c96)

    metrics = {}
    if args.trace:
        layers, info = traced(bins, args.workload, args, work, corpus, files, c96, tally, size)
        record["traced"] = info
        metrics = layers
    elif args.workload == "serve_mix":
        metrics, record["samples"] = timed_serve(bins, c96, corpus, work, args, sz, tally)
    else:
        runs, setups, out = timed_cli(bins, args.workload, files, c96, corpus, work, args.seconds, tally)
        if args.workload == "wide_report":
            p, replies = served_payloads(bins, c96, work, ["report all"], mapping="last1")
            tally.op(p.ok() and len(replies) == 2 and replies[0][1] == read_bytes(out),
                     "wide_report HTML differs from serve --stdio 'report all'")
        else:
            cross_check_batch(bins, args.workload, files, corpus, work, out, tally)
        metrics = batch_metrics(quiet(runs), setups)
        record["samples"] = {"runs": len(quiet(runs)), "stolen": len(runs) - len(quiet(runs)),
                             "setup": len(setups)}
        record["rusage"] = {k: median([getattr(r, k) for r in quiet(runs)])
                            for k in ("minflt", "majflt", "nivcsw")}
    record["fail_ratio"] = tally.failed / max(1, tally.attempted)
    record["problems"] = tally.problems
    return tally, metrics, record


def batch_metrics(runs, setup):
    walls = [r.wall for r in runs]
    return {
        "wall_s": median(walls),
        "cpu_s": median([r.cpu for r in runs]),
        "peak_rss_mb": median([r.maxrss_mb for r in runs]),
        "setup_s": median([s.wall for s in quiet(setup)]),
        "req_p50_ms": median(walls) * 1e3,
        "req_p99_ms": tail(walls) * 1e3,
        "req_per_s": len(walls) / sum(walls) if walls else 0.0,
    }


def timed_serve(bins, c96, corpus, work, args, sz, tally):
    """Set-up is timed over several fresh servers; the last one stays
    resident and serves a warm-up block, then measured blocks."""
    stream = Stream(args.seed, request_keys(corpus), sz["block"])
    setups = []
    for i in range(SERVE_SETUP_REPS):
        server = Server(bins, c96, sz["cache_entries"])
        setups.append(server.setup_s)
        if i + 1 < SERVE_SETUP_REPS:
            server.shutdown()
            tally.op(server.proc.returncode == 0, "server exit %d" % server.proc.returncode)
    blocks = []
    try:
        warm = run_block(bins, server, stream.session(), work)
        deadline = time.perf_counter() + args.seconds
        while (time.perf_counter() < deadline or len(calm(blocks)) < MIN_SAMPLES) and \
                time.perf_counter() < deadline + args.seconds / 3:
            blocks.append(run_block(bins, server, stream.session(), work))
        stat = server.shutdown()
    except BaseException:
        server.kill()
        raise
    tally.op(server.proc.returncode == 0, "server exit %d" % server.proc.returncode)
    distinct, offline = check_served(
        bins, c96, work, [r for b in [warm] + blocks for r in b.results], tally)
    kept = quiet(blocks)
    lats = [r[0] for b in kept for r in b.results if r[0] is not None and r[2]]
    return {
        "wall_s": median([b.busy for b in kept]),
        "cpu_s": median([b.cpu for b in kept]),
        "peak_rss_mb": median([b.rss_mb for b in kept]),
        "setup_s": median(setups),
        "req_p50_ms": median(lats) * 1e3,
        "req_p99_ms": tail(lats) * 1e3,
        "req_per_s": len(lats) / sum(b.busy for b in kept),
    }, {"blocks": len(kept), "stolen": len(blocks) - len(kept), "requests": len(lats),
        "setup": len(setups),
        "distinct_lines": distinct, "offline_checked": offline,
        **traffic([r for b in blocks for r in b.results], stat),
        "rusage": {"minflt": server.minflt, "majflt": server.majflt, "nivcsw": server.nivcsw}}


# ---- result ----------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(spec, trace, tally, metrics):
    """The metrics as computed, each with its unit from BENCHMARK.json;
    a metric the spec names but the run did not compute, or the other
    way round, is an error, never a filled-in zero."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError("metrics missing: %s; not in BENCHMARK.json: %s" % (
            sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))))
    out = {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()}
    return {"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
            "failed": tally.failed, "metrics": out}


def run_all(smoke, seed, seconds, traces):
    """Every workload in `traces` modes, each in its own process: each
    must exit 0 and emit exactly the metrics BENCHMARK.json names, with
    their units, every time finite and nonzero. Prints each workload's
    metrics by name and unit."""
    spec = load_spec()
    bad = 0
    for w in spec["workloads"]:
        for trace in traces:
            r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)] +
                               (["--smoke"] if smoke else []), capture_output=True, text=True)
            section = spec["per_layer"] if trace else spec["end_to_end"]
            want = {m["name"]: m["unit"] for m in section}
            problem, res = None, None
            if r.returncode != 0:
                problem = "exit %d: %s" % (r.returncode, (r.stderr + r.stdout)[-600:])
            else:
                res = json.loads(r.stdout.strip().splitlines()[-1])
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                times = [v["value"] for v in res["metrics"].values() if v["unit"] in ("s", "ms", "us")]
                if got != want:
                    problem = "metric names/units differ: %s" % sorted(set(got.items()) ^ set(want.items()))
                elif any(not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])
                         for v in res["metrics"].values()):
                    problem = "non-numeric value"
                elif 0 in times:
                    problem = "a time reads 0"
            print("%-16s trace=%d %s" % (w["name"], trace, "ok" if problem is None else "FAIL " + problem))
            if res is not None and not smoke:
                for name, v in res["metrics"].items():
                    print("  %-32s %.6g %s" % (name, v["value"], v["unit"]))
            bad += problem is not None
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; without --workload, a self-test of every workload")
    args = ap.parse_args()
    size = "smoke" if args.smoke else "full"
    try:
        if args.seconds is None:
            args.seconds = 1 if args.smoke else load_spec()["run_seconds"]
        if args.smoke and args.workload is None:
            return run_all(True, args.seed, args.seconds, (0, 1))
        if args.workload == "all":
            return run_all(args.smoke, args.seed, args.seconds, (args.trace,))
        if args.workload is None:
            ap.error("--workload is required")
        spec = load_spec()
        bins = build()
        work = os.path.join(build_root(), "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            tally, metrics, record = run(args, size, bins, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        record["machine"] = machine_block(bins)
        print(json.dumps({"record": record}))
        res = result_line(spec, args.trace, tally, metrics)
        print(json.dumps(res))
        return 0 if res["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
