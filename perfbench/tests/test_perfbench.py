"""Self-tests of the benchmark: every workload on a tiny graph for one
operation, traced and untraced, plus an injected wrong κ.

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics each workload must measure (non-zero) in a traced run.
LAYERS = {
    "pipeline": ["graph.relabel_ms", "graph.local_graph_ms", "cliques.triangles_ms",
                 "cliques.k4_ms", "core.hypergraph_ms.n34", "spark.k4.tasks",
                 "spark.triangles.busy_frac", "cliques.k4", "core.truss.mat_and_ms",
                 "core.snd_spark.ms_per_iter", "spark.snd_spark.jobs",
                 "spark.snd_spark.shuffle_mb_per_iter", "spark.snd_spark.busy_frac"],
    "engine": ["core.core.tau0_ms", "core.truss.and_ms", "core.n34.and_1t_ms",
               "core.n34.and_scaling", "core.n34.and_notify_ms", "core.n34.num_s",
               "core.truss.and_active_frac", "core.core.snd_ms", "graph.relabel_ms"],
}


def run(workload, trace, *extra, graph="complete:8", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--graph", graph, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result(workload, trace, *extra, **kw):
    p = run(workload, trace, *extra, **kw)
    if p.returncode != 0:
        raise AssertionError(f"run.py exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def assert_metrics(self, r, kind):
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(r["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(r["metrics"]), set(declared))
        for name, m in r["metrics"].items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, 0)
                self.assert_metrics(r, "end_to_end")
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, 1)
                self.assert_metrics(r, "per_layer")
                self.assertEqual(r["failed"], 0)
                for name in LAYERS[w] + ["trace.unattributed_ms"]:
                    self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_injected_wrong_kappa_counts_as_a_failed_operation(self):
        r = result("engine", 0, "--inject-wrong-kappa")
        self.assertEqual(r["failed"], 1)
        self.assertGreater(r["attempted"], 1)

    def test_graph_without_four_cliques(self):
        r = result("pipeline", 0, graph="figure3")
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".bench_build" / "perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = run("engine", 0, cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
