"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def snapshot_inputs(queries) -> list:
    """What the program receives in a pass: instance file contents for the
    CLI workload, instances or suite arguments for the library ones."""
    return [
        (q.label, Path(q.input).read_bytes() if isinstance(q.input, str) else q.input)
        for q in queries
    ]


class BenchTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.workdir = Path(self.tmp.name)
        self.mods = run.import_egalpof()

    def tearDown(self):
        self.tmp.cleanup()

    def prepare(self, name: str, seed: int):
        run.clear(self.workdir)
        workload = workloads.WORKLOADS[name](self.mods, seed, self.workdir)
        queries = workload.prepare(0)
        return workload, queries, snapshot_inputs(queries)

    def test_same_seed_same_inputs_and_digest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                digests, inputs = [], []
                for _ in range(2):
                    workload, queries, snap = self.prepare(name, 7)
                    phase = run.Phase()
                    run.run_pass(queries, phase)
                    self.assertEqual(phase.failed, 0, phase.messages)
                    digests.append(phase.digest.hexdigest())
                    inputs.append(snap)
                self.assertEqual(inputs[0], inputs[1])
                self.assertEqual(digests[0], digests[1])

    def test_different_seeds_different_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.prepare(name, 1)[2]
                second = self.prepare(name, 2)[2]
                self.assertNotEqual(first, second)

    def test_trace_restores_bindings(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("egalpof")]
        before = [dict(vars(m)) for m in modules]
        original = self.mods.model.scaled_rows
        tracer = Tracer()
        self.assertGreater(tracer.install(vars(self.mods)), 0)
        # the `from .model import scaled_rows` binding is rebound too
        self.assertIs(self.mods.properties.scaled_rows, self.mods.model.scaled_rows)
        self.assertIs(self.mods.properties.scaled_rows.__wrapped__, original)
        tracer.uninstall()
        after = [dict(vars(m)) for m in modules]
        for b, a in zip(before, after):
            self.assertEqual(b.keys(), a.keys())
            for key in b:
                self.assertIs(b[key], a[key], key)

    def test_wrong_expected_value_fails_the_query(self):
        original = workloads.thm1_expected
        workloads.thm1_expected = lambda prop, m: original(prop, m) + 1
        try:
            _, queries, _ = self.prepare("thm1_pof", 3)
        finally:
            workloads.thm1_expected = original
        cheap = [q for q in queries if q.label in ("thm1 m=6 ef1", "thm1 m=6 ba")]
        missing = workloads.Query(
            "missing file",
            lambda: workloads.run_cli(self.mods, ["pof", "--instance", "nope.json", "--property", "ef1"]),
            workloads._equals(1),
        )
        phase = run.Phase()
        run.run_pass(cheap + [missing], phase)
        self.assertEqual(phase.attempted, 3)
        self.assertEqual(phase.failed, 3)
        self.assertEqual(dict(phase.failures), {"CheckFailed": 2, "NonzeroExit": 1})

    def test_correction_scales_by_the_speed_kernel(self):
        ref = run.hostspeed.REFERENCE_S
        self.assertAlmostEqual(run.corrected(0.5, ref, ref), 0.5)
        # a host on which the kernel takes twice as long halves the time
        self.assertAlmostEqual(run.corrected(0.5, 1.5 * ref, 2.5 * ref), 0.25)
        phase = run.Phase()
        run.run_pass(self.prepare("solve_mix", 4)[1][:3], phase)
        self.assertEqual(len(phase.corrected), 3)
        self.assertEqual(len(phase.kernel_s), 3)

    def test_metric_names_match_benchmark_json(self):
        result = run.run_workload("verify_corpus", 5, 0.1, trace=False)
        self.assertEqual(
            {k: u for k, (_, u) in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        )
        self.assertEqual(
            {k: u for k, (_, u) in Tracer().layer_metrics(1, 0.0).items()},
            {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
        )
        self.assertEqual(
            [w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS)
        )

    def test_traced_digest_matches_untraced(self):
        result = run.run_workload("verify_corpus", 5, 0.1, trace=True)
        self.assertTrue(result["digests_agree"])
        plain, traced = result["phases"]
        self.assertEqual(plain.passes, traced.passes)
        self.assertEqual(result["metrics"]["verify.run_suite.calls"][0], 1.0)
        self.assertGreater(result["metrics"]["properties.envy_graph.calls"][0], 0)


if __name__ == "__main__":
    unittest.main()
