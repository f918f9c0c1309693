#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # unit tests + smoke runs
    PERFBENCH_SKIP_SMOKE=1 python3 perfbench/test_perfbench.py   # unit only

The smoke tests build the benchmark (as run.py does) and run every
workload, traced and untraced, on a minimal input.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fastq(records):
    return "".join(f"@{rid}\n{bases}\n+\n{'I' * len(bases)}\n"
                   for rid, bases in records)


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(999)), 0.99))
        self.assertEqual(run.percentile(list(range(1000)), 0.99), 989)
        self.assertIsNone(run.percentile(list(range(100)), 0.95))
        self.assertEqual(run.percentile(list(range(200)), 0.95), 189)

    def test_median_is_always_reported(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertIsNone(run.percentile([], 0.5))


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
        self.assertIn("setup_s", run.END_TO_END)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"name": "trace.run", "start": 0.0, "end": 10.0, "parent": -1},
            {"name": "io.parse", "start": 1.0, "end": 3.0, "parent": 0},
            {"name": "trace.pass2", "start": 4.0, "end": 9.0, "parent": 0},
            # two overlapping workers under pass2
            {"name": "reptile.correct", "start": 4.0, "end": 8.0, "parent": 2},
            {"name": "reptile.correct", "start": 5.0, "end": 8.5, "parent": 2},
        ]
        self.assertEqual(run.self_times(spans), [3.0, 2.0, 0.5, 4.0, 3.5])
        by_name = run.layer_self_times(spans)
        self.assertEqual(by_name["reptile.correct"], 7.5)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name)
        (self.path / "in.fq").write_text(fastq([("r0", "ACGT"), ("r1", "GGTA"),
                                                ("r2", "TTAC")]))

    def tearDown(self):
        self.dir.cleanup()

    def write(self, records):
        out = self.path / "out.fq"
        out.write_text(fastq(records))
        return out

    def test_corrected_bases_pass(self):
        out = self.write([("r0", "ACGA"), ("r1", "GGTA"), ("r2", "TTAC")])
        self.assertTrue(run.check_read_order(self.path / "in.fq", out))

    def test_dropped_read_fails(self):
        out = self.write([("r0", "ACGT"), ("r1", "GGTA")])
        self.assertFalse(run.check_read_order(self.path / "in.fq", out))

    def test_reordered_reads_fail(self):
        out = self.write([("r1", "GGTA"), ("r0", "ACGT"), ("r2", "TTAC")])
        self.assertFalse(run.check_read_order(self.path / "in.fq", out))

    def test_corrupt_helper_breaks_the_check(self):
        out = self.write([("r0", "ACGT"), ("r1", "GGTA"), ("r2", "TTAC")])
        run.corrupt(out)
        self.assertFalse(run.check_read_order(self.path / "in.fq", out))

    def test_byte_comparison(self):
        a = self.write([("r0", "ACGT")])
        b = self.path / "b.fq"
        b.write_text(fastq([("r0", "ACGA")]))
        self.assertFalse(run.same_bytes(a, b))
        self.assertTrue(run.same_bytes(a, a))


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "5", "--seconds", "1",
         "--smoke", *args], capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Per-layer metrics each workload must report as nonzero in a traced run
# (a renamed span or a counter that is no longer emitted would read 0).
# Stall times, reorder peaks, evictions, BUSY and failure counts may
# legitimately be 0 and are left out.
IO = ["io.parse_s", "io.parse_mb_per_s", "io.write_s"]
KSPEC = ["kspec.ingest_s", "kspec.finish_s", "kspec.distinct_kmers"]
CORE = ["core.pass2_s", "core.pre_pass2_s", "core.pass2_worker_util"]
SAP = ["baselines.build_s", "baselines.correct_batch_ms_p50"]
LAYERS_NONZERO = {
    "reptile_file": IO + CORE + [
        "reptile.build_s", "reptile.correct_cpu_s",
        "reptile.tile_cache_hit_ratio", "trace.unattributed_s"],
    "sap_spill": IO + KSPEC + CORE + SAP + [
        "kspec.spill_bytes", "kspec.peak_tracked_mib",
        "baselines.sharded_correct_cpu_s", "index.write_s", "index.load_s",
        "index.shards", "trace.unattributed_s"],
    "sap_daemon": IO + KSPEC + SAP + [
        "baselines.correct_cpu_s", "index.write_s", "index.load_s",
        "service.batch_p50_ms", "service.batch_p99_ms",
        "service.batch_samples", "service.encode_ms_p50",
        "service.decode_ms_p50", "service.server_ms_p50",
        "trace.unattributed_s"],
}


class LayerTableTest(unittest.TestCase):
    def test_every_workload_has_known_layer_metrics(self):
        self.assertEqual(set(LAYERS_NONZERO), set(run.WORKLOADS))
        for names in LAYERS_NONZERO.values():
            self.assertLessEqual(set(names), set(run.PER_LAYER))


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "smoke runs skipped")
class SmokeTest(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        for workload in sorted(run.WORKLOADS):
            for trace, table in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench("--workload", workload, "--trace", trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(table))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], table[name])
                    nonzero = (table if trace == "0"
                               else LAYERS_NONZERO[workload])
                    for name in nonzero:
                        self.assertGreater(result["metrics"][name]["value"],
                                           0, name)

    def test_corrupted_output_fails_its_check(self):
        for workload in ("sap_spill", "sap_daemon"):
            with self.subTest(workload=workload):
                result = bench("--workload", workload, "--trace", "0",
                               "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
