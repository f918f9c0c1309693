#!/usr/bin/env python3
"""Repository benchmark: real tool runs file to file and through the daemon.

    python3 perfbench/run.py --workload sap_spill --seed 7 --seconds 36 --trace 0

Builds the repository's tools and the ngs_perfbench helper (Release, in
.bench_build/), simulates the workload's input from --seed, runs the
workload for --seconds, checks every output, and prints one JSON object
as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the untraced tool again for a baseline, then the traced in-process
composition, and reports the per-layer metrics. The full record, with
its hardware block, goes to stderr and to .bench_records/. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"
RECORD_DIR = ROOT / ".bench_records"

# Input shared by every workload: the simulator's defaults for an
# Illumina-like run, scaled so one Reptile run takes a few seconds on a
# 4-core box while its tile cache still misses about half the time.
INPUT = {"genome_length": 100_000, "coverage": 30, "read_length": 36,
         "error_rate": 0.01}
SMOKE_INPUT = {"genome_length": 20_000, "coverage": 30, "read_length": 36,
               "error_rate": 0.01}

WORKLOADS = {
    # Buffered path: Reptile phase 1 (tile table) and the tile-cache-backed
    # pass 2; FASTQ I/O is a small share.
    "reptile_file": {"method": "reptile"},
    # Streaming path under a 1 MiB pass-1 budget: two FASTQ parses, the
    # radix k-spectrum count spilled to bins, the v2 sharded index writer,
    # and overlapped pass-2 lookups through the sharded view. Never touches
    # the tile table or the tile cache.
    "sap_spill": {"method": "sap", "memory_budget_mb": 1},
    # ngs-correctd (default 2 workers) serving the SAP index of the same
    # reads to one closed-loop generator: 2 connections, window 4,
    # 512-read batches.
    "sap_daemon": {"method": "sap", "connections": 2, "window": 4,
                   "batch": 512, "min_samples": 1000},
}

END_TO_END = {
    "wall_s": "s",
    "reads_per_s": "reads/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "gain": "ratio",
}

PER_LAYER = {
    "io.parse_s": "s",
    "io.parse_mb_per_s": "MB/s",
    "io.write_s": "s",
    "kspec.ingest_s": "s",
    "kspec.finish_s": "s",
    "kspec.distinct_kmers": "count",
    "kspec.spill_bytes": "bytes",
    "kspec.peak_tracked_mib": "MiB",
    "reptile.build_s": "s",
    "reptile.correct_cpu_s": "s",
    "reptile.tile_cache_hit_ratio": "ratio",
    "reptile.tile_cache_evictions": "count",
    "baselines.build_s": "s",
    "baselines.correct_cpu_s": "s",
    "baselines.sharded_correct_cpu_s": "s",
    "baselines.correct_batch_ms_p50": "ms",
    "index.write_s": "s",
    "index.load_s": "s",
    "index.shards": "count",
    "core.pass2_s": "s",
    "core.pre_pass2_s": "s",
    "core.pass1_reader_stall_s": "s",
    "core.pass2_reader_stall_s": "s",
    "core.pass2_writer_stall_s": "s",
    "core.pass2_worker_util": "ratio",
    "core.pass2_reorder_peak": "count",
    "service.batch_p50_ms": "ms",
    "service.batch_p99_ms": "ms",
    "service.batch_samples": "count",
    "service.encode_ms_p50": "ms",
    "service.decode_ms_p50": "ms",
    "service.server_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.busy_frac": "ratio",
    "service.batches_failed": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Span name (as ngs_perfbench records it) -> per-layer self-time metric.
SPAN_METRICS = {
    "io.parse": "io.parse_s",
    "io.write": "io.write_s",
    "kspec.ingest": "kspec.ingest_s",
    "kspec.finish": "kspec.finish_s",
    "reptile.build": "reptile.build_s",
    "reptile.correct": "reptile.correct_cpu_s",
    "baselines.build": "baselines.build_s",
    "baselines.correct": "baselines.correct_cpu_s",
    "baselines.sharded_correct": "baselines.sharded_correct_cpu_s",
    "index.write": "index.write_s",
    "index.load": "index.load_s",
}

TOOL_TARGETS = {"simulate": "ngs/tools/ngs_simulate",
                "correct": "ngs/tools/ngs_correct",
                "index": "ngs/tools/ngs_index",
                "correctd": "ngs/tools/ngs_correctd",
                "perfbench": "ngs_perfbench"}

TOOL_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that prevents the benchmark from reporting at all."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# --- statistics ----------------------------------------------------------

def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of `values`. A tail (q above the median)
    is reported only when at least `min_beyond` samples lie beyond it;
    otherwise None."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    if q > 0.5 and len(ordered) - 1 - rank < min_beyond:
        return None
    return ordered[rank]


def median(values):
    return statistics.median(values) if values else 0.0


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover (children on other threads included)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        clipped = sorted((max(spans[c]["start"], span["start"]),
                          min(spans[c]["end"], span["end"]))
                         for c in children[i])
        for lo, hi in clipped:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, span["end"] - span["start"] - covered))
    return result


def layer_self_times(spans):
    """Summed self time per span name."""
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] += own
    return totals


# --- output checks -------------------------------------------------------

def fastq_ids(path):
    """Read IDs of a FASTQ, in order (None if the file is malformed)."""
    ids = []
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if len(lines) % 4:
        return None
    for i in range(0, len(lines), 4):
        if not lines[i].startswith(b"@") or not lines[i + 2].startswith(b"+"):
            return None
        if len(lines[i + 1]) != len(lines[i + 3]):
            return None
        ids.append(lines[i][1:].split()[0] if len(lines[i]) > 1 else b"")
    return ids


def check_read_order(input_fastq, output_fastq):
    """The output keeps the input's read count and read-ID order."""
    out_ids = fastq_ids(output_fastq)
    return out_ids is not None and out_ids == fastq_ids(input_fastq)


def same_bytes(a, b):
    return Path(a).exists() and Path(b).exists() and \
        filecmp.cmp(a, b, shallow=False)


class Ledger:
    """Operations attempted and failed, and the checks behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log("FAILED:", what)
        return ok


# --- build and environment ----------------------------------------------

def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark package; returns the
    binary paths."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no repository sources here ({needed} missing)")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        raise BenchError("build failed")
    return {name: str(BUILD_DIR / rel) for name, rel in TOOL_TARGETS.items()}


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def hardware(bins):
    info = json.loads(subprocess.run([bins["perfbench"], "info"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    if info["build_type"] != "Release" or not info["ndebug"]:
        raise BenchError(f"refusing to report from a non-Release build "
                         f"(build type '{info['build_type']}')")
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": nproc(), "cpu_model": cpu, "compiler": info["compiler"],
            "cmake_build_type": info["build_type"], "git_commit": commit,
            "source_sha256": source_digest()}


# --- process helpers -----------------------------------------------------

def run_tool(cmd, work, name):
    """Runs one tool to completion. Returns (exit code, wall seconds from
    spawn to exit, peak RSS MiB from wait4, stdout, stderr)."""
    out_path, err_path = work / f"{name}.out", work / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work)
        watchdog = threading.Timer(TOOL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"{name} exited {proc.returncode}:",
            err_path.read_text(errors="replace")[-2000:])
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def report_extras(stderr_text):
    """key=value extras of ngs-correct's report line."""
    for line in stderr_text.splitlines():
        if line.startswith("method=") and ";" in line:
            return {k: int(v) for k, v in
                    re.findall(r"(\w+)=(\d+)", line.split(";", 1)[1])}
    return {}


def simulate(bins, inp, seed, work, ledger):
    cmd = [bins["simulate"], "--genome-length", str(inp["genome_length"]),
           "--coverage", str(inp["coverage"]),
           "--read-length", str(inp["read_length"]),
           "--error-rate", str(inp["error_rate"]), "--seed", str(seed),
           "--reads", "reads.fq", "--genome", "genome.fa",
           "--truth", "truth.tsv"]
    code, *_ = run_tool(cmd, work, "simulate")
    ledger.op(code == 0, f"ngs_simulate exited {code}")


def correct_cmd(bins, inp, method, out, budget_mb=0):
    cmd = [bins["correct"], "--in", "reads.fq", "--out", out,
           "--method", method, "--genome-length", str(inp["genome_length"])]
    if budget_mb:
        cmd += ["--memory-budget-mb", str(budget_mb), "--spill-dir", "."]
    return cmd


def gain(bins, work, output, ledger):
    result = subprocess.run(
        [bins["perfbench"], "gain", "--reads", "reads.fq", "--truth",
         "truth.tsv", "--corrected", output],
        capture_output=True, text=True, cwd=work)
    if not ledger.op(result.returncode == 0, f"gain of {output}: {result.stderr.strip()}"):
        return None
    return json.loads(result.stdout)["gain"]


def corrupt(path):
    """Drops the last FASTQ record (a deliberately broken output)."""
    lines = Path(path).read_bytes().split(b"\n")
    Path(path).write_bytes(b"\n".join(lines[:-5]) + b"\n")


# --- workloads -----------------------------------------------------------

def offline(bins, name, spec, inp, seed, seconds, trace, work, ledger, opts):
    simulate(bins, inp, seed, work, ledger)
    reads = len(fastq_ids(work / "reads.fq"))
    method, budget = spec["method"], spec.get("memory_budget_mb", 0)
    reference = None
    if budget:
        # The spilled run must reproduce the unbudgeted SAP run's bytes
        # from this build.
        code, *_ = run_tool(correct_cmd(bins, inp, "sap", "reference.fq"),
                            work, "reference")
        ledger.op(code == 0, "reference sap run failed")
        reference = work / "reference.fq"
    # Every repetition is one tool run; its set-up is everything but pass 2
    # (process start, pass 1, spectrum or tile-table build, teardown).
    walls, setups, rss, extras = [], [], [], []
    first = work / "out0.fq"
    start = time.perf_counter()
    rep = 0
    while rep < 3 or time.perf_counter() - start < seconds:
        out = first if rep == 0 else work / "out.fq"
        code, wall, peak, _, err = run_tool(
            correct_cmd(bins, inp, method, out.name, budget), work, "correct")
        rep += 1
        if not ledger.op(code == 0, f"ngs-correct exited {code}"):
            continue
        report = report_extras(err)
        if not ledger.op(report.get("pass2_reads_per_sec", 0) > 0,
                         "ngs-correct reported no pass-2 rate"):
            continue
        # A run that exits 0 is timed; its output checks decide `correct`.
        walls.append(wall)
        setups.append(wall - pass2_seconds(report, reads))
        rss.append(peak)
        extras.append(report)
        if out == first:
            if opts.corrupt:
                corrupt(first)
            ledger.op(check_read_order(work / "reads.fq", first),
                      "output lost a read or changed read order")
        else:
            ledger.op(same_bytes(first, out),
                      f"run {rep} output differs from the first run's")
        if reference is not None:
            ledger.op(same_bytes(out, reference),
                      "spilled output differs from the unbudgeted run's")
            ledger.op(report.get("spectrum_shards", 0) > 1,
                      "budget run did not spill into several bins")
    if not walls:
        raise BenchError(f"{name}: no successful run")
    details = {"walls_s": walls, "peak_rss_mib": rss, "setups_s": setups}
    if not trace:
        g = gain(bins, work, "out0.fq", ledger)
        wall = median(walls)
        return {"wall_s": wall, "reads_per_s": reads / wall,
                "peak_rss_mib": median(rss), "setup_s": median(setups),
                "gain": g if g is not None else 0.0}, details

    # Traced run: the same layer calls composed in-process, with spans.
    cmd = [bins["perfbench"], "trace", "--workload", name, "--in", "reads.fq",
           "--out", "traced.fq", "--genome-length", str(inp["genome_length"]),
           "--spans", "spans.json"]
    if budget:
        cmd += ["--memory-budget-mb", str(budget), "--spill-dir", "."]
    code, _, _, out, _ = run_tool(cmd, work, "trace")
    if not ledger.op(code == 0, "traced composition failed"):
        raise BenchError(f"{name}: traced composition failed")
    ledger.op(same_bytes(work / "traced.fq", first),
              "traced composition output differs from the tool's")
    counters = json.loads(out)
    spans = json.loads((work / "spans.json").read_text())["spans"]
    details["spans"] = spans
    metrics = layer_metrics(spans, counters)
    if method == "sap":
        metrics["baselines.correct_batch_ms_p50"] = counters["correct_batch_ms_p50"]
    metrics.update(core_metrics(extras, setups, reads))
    root_self = [own for span, own in zip(spans, self_times(spans))
                 if span["name"].startswith("trace.")]
    metrics["trace.unattributed_s"] = sum(root_self)
    metrics["trace.overhead_s"] = counters["wall_s"] - median(walls)
    return metrics, details


def layer_metrics(spans, counters):
    metrics = {name: 0.0 for name in PER_LAYER}
    by_name = layer_self_times(spans)
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = by_name.get(span, 0.0)
    if metrics["io.parse_s"] > 0:
        metrics["io.parse_mb_per_s"] = \
            counters["parse_bytes"] / 1e6 / metrics["io.parse_s"]
    metrics["kspec.distinct_kmers"] = counters["distinct_kmers"]
    metrics["kspec.spill_bytes"] = counters["spill_bytes"]
    metrics["kspec.peak_tracked_mib"] = counters["peak_tracked_bytes"] / 2**20
    lookups = counters["tile_cache_hits"] + counters["tile_cache_misses"]
    if lookups:
        metrics["reptile.tile_cache_hit_ratio"] = \
            counters["tile_cache_hits"] / lookups
    metrics["reptile.tile_cache_evictions"] = counters["tile_cache_evictions"]
    metrics["index.shards"] = counters["shards"]
    return metrics


def pass2_seconds(report, reads):
    """Pass-2 time of one tool run, from its report's pass-2 rate."""
    return reads / report["pass2_reads_per_sec"]


def core_metrics(extras, setups, reads):
    """core.* from the tool's own report extras (medians over runs)."""
    def med(key, scale=1.0):
        return median([e.get(key, 0) * scale for e in extras])
    return {
        "core.pass2_s": median([pass2_seconds(e, reads) for e in extras]),
        "core.pre_pass2_s": median(setups),
        "core.pass1_reader_stall_s": med("pass1_reader_stall_ms", 1e-3),
        "core.pass2_reader_stall_s": med("pass2_reader_stall_ms", 1e-3),
        "core.pass2_writer_stall_s": med("pass2_writer_stall_ms", 1e-3),
        "core.pass2_worker_util": med("pass2_worker_util_pct", 1e-2),
        "core.pass2_reorder_peak": med("pass2_reorder_peak"),
    }


class Daemon:
    """One ngs-correctd process serving `index`, owned by the benchmark."""

    def __init__(self, bins, work, socket, index):
        self.socket = socket
        self.err = open(work / f"{socket}.err", "wb")
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [bins["correctd"], "--socket", socket, "--index", index],
            stdout=self.err, stderr=self.err, cwd=work)
        self.usage = None
        self.status = None

    def stop(self):
        """SIGTERM, then reap with wait4 (keeping its rusage); returns the
        exit code."""
        if self.status is None:
            try:
                os.kill(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            watchdog = threading.Timer(30, self.proc.kill)
            watchdog.start()
            try:
                _, status, self.usage = os.wait4(self.proc.pid, 0)
            finally:
                watchdog.cancel()
            self.status = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.status
            self.err.close()
        return self.status


def daemon(bins, name, spec, inp, seed, seconds, trace, work, ledger, opts):
    simulate(bins, inp, seed, work, ledger)
    code, *_ = run_tool([bins["index"], "build", "--in", "reads.fq",
                         "--out", "spectrum.ngsx"], work, "index")
    ledger.op(code == 0, "ngs-index build failed")
    code, *_ = run_tool(correct_cmd(bins, inp, "sap", "reference.fq"), work,
                        "reference")
    ledger.op(code == 0 and check_read_order(work / "reads.fq",
                                             work / "reference.fq"),
              "reference sap run failed")
    conns = min(spec["connections"], nproc())
    daemons, setups = [], []
    try:
        # Set-up: spawn to first HELLO_OK (index mmap + verification),
        # timed over several spawns; the last daemon serves the load. The
        # probe is polling before the daemon is spawned, so its own
        # start-up is not part of the time.
        spawns = 1 if trace else 11
        for i in range(spawns):
            probe = subprocess.Popen(
                [bins["perfbench"], "ready", "--socket", f"d{i}.sock",
                 "--genome-length", str(inp["genome_length"])],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=work)
            try:
                probe.stdout.readline()
                d = Daemon(bins, work, f"d{i}.sock", "spectrum.ngsx")
                daemons.append(d)
                out, err = probe.communicate(timeout=90)
            finally:
                if probe.poll() is None:
                    probe.kill()
                probe.wait()
            if not ledger.op(probe.returncode == 0,
                             f"daemon {i} never became ready: {err}"):
                raise BenchError(f"{name}: daemon did not start")
            setups.append(json.loads(out)["hello_ok_monotonic_s"] - d.start)
            if i < spawns - 1:
                ledger.op(d.stop() == 0, f"daemon {i} exited uncleanly")
        server = daemons[-1]
        cmd = [bins["perfbench"], "loadgen", "--socket", server.socket,
               "--reads", "reads.fq", "--reference", "reference.fq",
               "--out", "served.fq", "--genome-length", str(inp["genome_length"]),
               "--connections", str(conns), "--window", str(spec["window"]),
               "--batch", str(spec["batch"]),
               "--min-samples", str(spec["min_samples"])]
        if trace:
            cmd += ["--seconds", str(seconds / 2), "--traced-seconds",
                    str(seconds / 2), "--spans", "spans.json"]
        else:
            cmd += ["--seconds", str(seconds)]
        code, _, _, out, _ = run_tool(cmd, work, "loadgen")
        if not ledger.op(code == 0, "load generator failed"):
            raise BenchError(f"{name}: load generator failed")
        load = json.loads(out)
        ledger.op(server.stop() == 0, "serving daemon exited uncleanly")
    finally:
        for d in daemons:
            d.stop()
    if opts.corrupt:
        corrupt(work / "served.fq")
    ledger.attempted += load["attempted"]
    ledger.failed += load["failed"]
    ledger.op(same_bytes(work / "served.fq", work / "reference.fq"),
              "served output differs from the unbudgeted SAP run's")
    rtt = load["rtt_ms"]
    details = {"pass_wall_s": load["pass_wall_s"], "setups_s": setups,
               "batch_samples": len(rtt), "stats": load["stats"],
               "busy_resends": load["busy_resends"], "connections": conns}
    if not trace:
        g = gain(bins, work, "served.fq", ledger)
        # Both time metrics come from the median pass (every pass serves
        # the whole input), as on the offline workloads.
        wall = median(load["pass_wall_s"])
        return {"wall_s": wall,
                "reads_per_s": len(fastq_ids(work / "reads.fq")) / wall,
                "peak_rss_mib": server.usage.ru_maxrss / 1024.0,
                "setup_s": median(setups),
                "gain": g if g is not None else 0.0}, details

    # In-process composition of the served path: pass 1, the index write
    # and mmap load, SAP correct_batch at the service batch size.
    code, _, _, out, _ = run_tool(
        [bins["perfbench"], "trace", "--workload", name, "--in", "reads.fq",
         "--out", "traced.fq", "--genome-length", str(inp["genome_length"]),
         "--index-out", "traced.ngsx", "--batch", str(spec["batch"]),
         "--spans", "composed_spans.json"], work, "trace")
    if not ledger.op(code == 0, "traced composition failed"):
        raise BenchError(f"{name}: traced composition failed")
    ledger.op(same_bytes(work / "traced.fq", work / "served.fq"),
              "traced composition output differs from the served output")
    ledger.op(same_bytes(work / "traced.ngsx", work / "spectrum.ngsx"),
              "traced index differs from ngs-index's")
    counters = json.loads(out)
    composed = json.loads((work / "composed_spans.json").read_text())["spans"]
    client = json.loads((work / "spans.json").read_text())["spans"]
    details["spans"] = {"composed": composed, "client": client}
    metrics = layer_metrics(composed, counters)
    metrics["baselines.correct_batch_ms_p50"] = counters["correct_batch_ms_p50"]
    p50, p99 = percentile(rtt, 0.5), percentile(rtt, 0.99)
    if p99 is None:
        raise BenchError(f"{name}: too few batch samples for a p99")
    server_ms = [r - e - d for r, e, d in zip(
        load["traced_rtt_ms"], load["traced_encode_ms"], load["traced_decode_ms"])]
    stats = load["stats"]
    requests = stats["batches_corrected"] + stats["batches_failed"] + \
        stats["busy_rejections"]
    passes = len(load["traced_pass_wall_s"])
    conn_self = [own for span, own in zip(client, self_times(client))
                 if span["name"].startswith("trace.")]
    metrics.update({
        "service.batch_p50_ms": p50,
        "service.batch_p99_ms": p99,
        "service.batch_samples": len(rtt),
        "service.encode_ms_p50": median(load["traced_encode_ms"]),
        "service.decode_ms_p50": median(load["traced_decode_ms"]),
        "service.server_ms_p50": median(server_ms),
        "service.overhead_ms_p50":
            median(server_ms) - counters["correct_batch_ms_p50"],
        "service.busy_frac": stats["busy_rejections"] / max(1, requests),
        "service.batches_failed": stats["batches_failed"],
        "trace.unattributed_s": sum(conn_self) / conns / max(1, passes),
        "trace.overhead_s":
            median(load["traced_pass_wall_s"]) - median(load["pass_wall_s"]),
    })
    return metrics, details


# --- main ----------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input size (the benchmark's own tests)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage the first output before it is checked "
                             "(the benchmark's own tests)")
    opts = parser.parse_args(argv)
    try:
        bins = build()
        hw = hardware(bins)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error:", e)
        return 3

    inp = SMOKE_INPUT if opts.smoke else INPUT
    spec = WORKLOADS[opts.workload]
    work = WORK_ROOT / f"{opts.workload}-s{opts.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    runner = daemon if opts.workload == "sap_daemon" else offline
    try:
        values, details = runner(bins, opts.workload, spec, inp, opts.seed,
                                 opts.seconds, bool(opts.trace), work, ledger,
                                 opts)
    except BenchError as e:
        log("error:", e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = PER_LAYER if opts.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {"workload": opts.workload, "seed": opts.seed,
              "seconds": opts.seconds, "trace": opts.trace,
              "smoke": opts.smoke, "input": inp, "spec": spec,
              "hardware": hw, "failures": ledger.failures, "result": result,
              "details": details}
    RECORD_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RECORD_DIR / f"{opts.workload}-s{opts.seed}-t{opts.trace}-{stamp}-"
                  f"{os.getpid()}.json").write_text(json.dumps(record))
    summary = {k: v for k, v in record.items() if k != "details"}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
