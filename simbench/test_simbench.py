#!/usr/bin/env python3
"""Tests of the benchmark itself (not of OmniSim):

    python3 simbench/test_simbench.py

Builds the driver like run.py does and runs each workload briefly, so
a full run takes a few minutes.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

SECONDS = "1"
SEED = 7

# Count-type per-layer metrics: each must repeat exactly across two
# traced runs with one seed. The engine's query and pause counts depend
# on how the OS schedules its Func threads; they have their own test.
COUNT_PREFIXES = ("core.events", "core.forced_blind", "core.sim_cycles",
                  "opt.", "graph.resim_delta", "graph.resim_full",
                  "graph.resim_diverged", "graph.reuse_rate",
                  "relax.runs.", "dse.", "io.run_bytes",
                  "io.store_", "cosim.cycles_stepped")
SCHEDULING_COUNTS = ("core.queries", "core.pauses")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seed=SEED):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def describe(workload, seed):
    if not hasattr(describe, "driver"):
        describe.driver = run.build()
    out = subprocess.run([describe.driver, "--describe", "--workload",
                          workload, "--seed", str(seed)],
                         capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


class Results:
    """Each workload's runs, made once and shared by the tests."""
    cache = {}

    @classmethod
    def get(cls, workload, trace, copy=0):
        key = (workload, trace, copy)
        if key not in cls.cache:
            cls.cache[key] = run_bench(workload, trace)
        return cls.cache[key]


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = bench_json()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w in run.WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                with self.subTest(workload=w, trace=trace):
                    got = Results.get(w, trace)
                    self.assertTrue(got["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in got["metrics"].items()},
                        want)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in bench_json()["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                for k, v in Results.get(w, 0)["metrics"].items():
                    self.assertGreater(v["value"], 0, k)


class Determinism(unittest.TestCase):
    def assert_repeat(self, names):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = Results.get(w, 1, 0)["metrics"]
                b = Results.get(w, 1, 1)["metrics"]
                for k in names(a):
                    self.assertEqual(a[k]["value"], b[k]["value"], k)

    def test_counts_repeat_with_one_seed(self):
        def names(metrics):
            picked = [k for k in metrics if k.startswith(COUNT_PREFIXES)
                      and metrics[k]["unit"] != "ms"]
            self.assertIn("core.sim_cycles", picked)
            self.assertIn("dse.hit_rate", picked)
            return picked
        self.assert_repeat(names)

    def test_scheduling_counts_repeat_with_one_seed(self):
        # Fails while the engine's Func threads run on OS threads: how
        # many queries are created and how often threads pause depend on
        # the schedule, although every answer is deterministic.
        self.assert_repeat(lambda metrics: SCHEDULING_COUNTS)


class Generators(unittest.TestCase):
    def test_generated_designs_change_with_seed(self):
        for w in ("typebc-cold", "typea-cold"):
            with self.subTest(workload=w):
                a = describe(w, 1)
                b = describe(w, 2)
                reg_a = [d for d in a if not d["generated"]]
                reg_b = [d for d in b if not d["generated"]]
                self.assertEqual(reg_a, reg_b)
                gen_a = {d["spec"] for d in a if d["generated"]}
                gen_b = {d["spec"] for d in b if d["generated"]}
                self.assertTrue(gen_a)
                self.assertNotEqual(gen_a, gen_b)
        a = describe("fifo-sizing-warm", 1)
        b = describe("fifo-sizing-warm", 2)
        self.assertEqual([d["name"] for d in a], [d["name"] for d in b])
        self.assertTrue(all(d["probes"] for d in a))
        self.assertNotEqual([d["probes"] for d in a],
                            [d["probes"] for d in b])

    def test_generated_design_classes(self):
        for seed in range(0, 40, 3):
            with self.subTest(seed=seed):
                bc = [d for d in describe("typebc-cold", seed)
                      if d["generated"]]
                self.assertEqual(len(bc), 16)
                self.assertTrue(all(d["type"] in "BC" for d in bc))
                a = [d for d in describe("typea-cold", seed)
                     if d["generated"]]
                self.assertEqual(len(a), 8)
                self.assertTrue(all(d["type"] == "A" for d in a),
                                [d["name"] for d in a if d["type"] != "A"])

    def test_registry_suites(self):
        bc = describe("typebc-cold", 1)
        a = describe("typea-cold", 1)
        self.assertEqual(len([d for d in bc if not d["generated"]]), 11)
        self.assertEqual(len([d for d in a if not d["generated"]]), 30)
        self.assertTrue(all(d["type"] == "A" for d in a))


class LayerReport(unittest.TestCase):
    def test_parents_and_self_time(self):
        # One root op (0..1000 us) with a benchmark child core.run
        # (100..900 us); the program's omnisim.run (110..890) holds
        # omnisim.execute (120..520) and omnisim.freeze (530..880),
        # which holds compile.dedup (600..700).
        lines = [
            {"kind": "bench", "id": 1, "parent": 0, "name": "op.omnisim",
             "design": "d", "pass": 0, "start_ns": 0, "end_ns": 1_000_000},
            {"kind": "bench", "id": 2, "parent": 1, "name": "core.run",
             "design": "d", "pass": 0, "start_ns": 100_000,
             "end_ns": 900_000},
            {"kind": "program", "root": 1, "epoch_ns": 0, "trace": {
                "traceEvents": [
                    {"name": "omnisim.run", "ph": "X", "ts": 110.0,
                     "dur": 780.0, "tid": 3},
                    {"name": "omnisim.execute", "ph": "X", "ts": 120.0,
                     "dur": 400.0, "tid": 3},
                    {"name": "omnisim.freeze", "ph": "X", "ts": 530.0,
                     "dur": 350.0, "tid": 3},
                    {"name": "compile.dedup", "ph": "X", "ts": 600.0,
                     "dur": 100.0, "tid": 3},
                ]}},
        ]
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         dir=run.build_dir(),
                                         delete=False) as f:
            for line in lines:
                f.write(json.dumps(line) + "\n")
            path = f.name
        try:
            spans = {s.name: s for s in layers.load(path)}
        finally:
            os.unlink(path)
        self.assertIs(spans["omnisim.run"].parent, spans["core.run"])
        self.assertIs(spans["compile.dedup"].parent, spans["omnisim.freeze"])
        self.assertEqual(spans["omnisim.run"].self_ns(), 30_000)
        self.assertEqual(spans["omnisim.freeze"].self_ns(), 250_000)
        self.assertEqual(spans["core.run"].self_ns(), 20_000)
        table = {row[0]: row for row in layers.layer_table(spans.values())}
        self.assertAlmostEqual(table["opt"][1], 0.1)
        self.assertAlmostEqual(table["core"][1], 0.45)
        self.assertAlmostEqual(table["graph"][1], 0.25)
        self.assertAlmostEqual(table["bench"][1], 0.2)
        self.assertAlmostEqual(sum(r[3] for r in table.values()), 1.0)


if __name__ == "__main__":
    unittest.main()
