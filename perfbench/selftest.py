"""Self-tests of the benchmark: inputs, tracer wrappers and output checks.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs each workload's msfbm command once in-process at its benchmark size
(about ten seconds in all), then feeds the checks the real outputs and
deliberately corrupted copies of them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import msfbm  # noqa: E402
import msfbm.cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Span, Tracer, layer_functions, summarize  # noqa: E402
from workloads import (  # noqa: E402
    COEFFS, SIM_HURST, nonuniform_times, sfbm_variance, workloads,
)

SCHEMAS = HERE.parent / "src" / "msfbm" / "schemas"
WORKDIR = HERE.parent / ".bench_tmp" / f"selftest-{os.getpid()}"


@contextmanager
def cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def bindings() -> dict[tuple[str, str], object]:
    """Every function bound in an msfbm module, by (module, name)."""
    return {(m, attr): obj
            for m, mod in sys.modules.items() if m == "msfbm" or m.startswith("msfbm.")
            for attr, obj in vars(mod).items() if callable(obj)}


class GridTest(unittest.TestCase):
    def test_pure_function_of_seed(self):
        self.assertEqual(nonuniform_times(7, 2049), nonuniform_times(7, 2049))
        self.assertNotEqual(nonuniform_times(7, 2049), nonuniform_times(8, 2049))

    def test_strictly_increasing_from_zero(self):
        for seed in range(5):
            times = nonuniform_times(seed, 2049)
            self.assertEqual(len(times), 2049)
            self.assertEqual(times[0], 0.0)
            self.assertEqual(times[-1], 1.0)
            self.assertTrue(all(b > a for a, b in zip(times, times[1:])))
            gaps = [b - a for a, b in zip(times, times[1:])]
            self.assertGreater(max(gaps) / min(gaps), 10.0)  # far from uniform

    def test_variance_formula_matches_msfbm_var(self):
        spec = msfbm.ProcessSpec(COEFFS, SIM_HURST)
        for t in (0.01, 0.3, 1.0):
            self.assertAlmostEqual(sfbm_variance(COEFFS, SIM_HURST, t),
                                   msfbm.msfbm_var(spec, t), delta=1e-12)


class ConfigTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in config["workloads"]], list(workloads(SCHEMAS)))
        self.assertEqual({m["name"]: m["unit"] for m in config["end_to_end"]}, run.END_TO_END)
        printed = list(summarize([])) + list(run.RUN_LAYER_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in config["per_layer"]},
                         {name: run.unit_of(name) for name in printed})


class TracerTest(unittest.TestCase):
    def test_wrappers_cover_every_binding_and_restore(self):
        before = bindings()
        tracer = Tracer()
        patched = tracer.install()
        try:
            self.assertGreater(patched, len(layer_functions()))
            wrapper = msfbm.cli.sample_ensemble
            self.assertIsNot(wrapper, before[("msfbm.sampler", "sample_ensemble")])
            for module in ("msfbm", "msfbm.sampler", "msfbm.analysis", "msfbm.verify"):
                self.assertIs(getattr(sys.modules[module], "sample_ensemble"), wrapper)
            spec = msfbm.ProcessSpec(COEFFS, SIM_HURST)
            msfbm.cli.verify.run_sampler_suite(spec=spec, n_reps=50)
        finally:
            tracer.restore()
        self.assertEqual(bindings(), before)
        layers = summarize(tracer.spans)
        self.assertEqual(layers["sampler.route.exact"], 2)
        self.assertEqual(layers["sampler.route.fbm"], 1)
        self.assertEqual(layers["seeds.normal_stream.calls"], 200)
        root = [s for s in tracer.spans if s.parent == ""]
        self.assertEqual([s.label for s in root], ["verify.run_sampler_suite"])
        self.assertAlmostEqual(layers["trace.accounted_s"], root[0].end - root[0].start,
                               delta=1e-9)

    def test_self_time_excludes_children(self):
        spans = [Span("sampler.gram_matrix", "cli.main", 1.0, 3.0, 2.0, None),
                 Span("cli.main", "", 0.0, 10.0, 8.0, None)]
        layers = summarize(spans)
        self.assertEqual(layers["cli.main.self_s"], 8.0)
        self.assertEqual(layers["sampler.gram_matrix.s"], 2.0)
        self.assertEqual(layers["trace.accounted_s"], 10.0)
        self.assertEqual(set(LAYERS) - {"kernels"},
                         {k[:-len(".self_s")] for k in layers if k.count(".") == 1
                          and k.endswith(".self_s")})


class CheckTest(unittest.TestCase):
    """Each check accepts the real output and rejects corrupted copies."""

    outputs: dict[str, tuple] = {}

    @classmethod
    def setUpClass(cls):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        table = workloads(SCHEMAS)
        with cwd(WORKDIR):
            for name, workload in table.items():
                req = workload.make(3)
                for fname, text in req.files.items():
                    Path(fname).write_text(text)
                if msfbm.cli.main(req.argv) != 0:
                    raise RuntimeError(f"{name} failed")
                cls.outputs[name] = (workload, req, Path(req.output).read_text())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            WORKDIR.parent.rmdir()
        except OSError:  # another run is using it
            pass

    def assert_rejected(self, name: str, text: str, reason: str):
        workload, req, _ = self.outputs[name]
        problems = workload.check(text, req)
        self.assertTrue(any(reason in p for p in problems), f"{name}: {problems}")

    def test_real_outputs_pass(self):
        for name, (workload, req, text) in self.outputs.items():
            self.assertEqual(workload.check(text, req), [], name)

    def test_simulate_rejects_corruption(self):
        for name in ("simulate-uniform", "simulate-nonuniform"):
            text = self.outputs[name][2]
            lines = text.splitlines(keepends=True)
            head = [i for i, line in enumerate(lines) if line.startswith("replica,")][0]
            row = head + 5
            r, t, _ = lines[row].strip().split(",")

            def scaled(factor):
                return lines[:head + 1] + [
                    ",".join(line.split(",")[:2] + [repr(factor * float(line.split(",")[2]))]) + "\n"
                    for line in lines[head + 1:]]

            cases = [
                ("non-finite", lines[:row] + [f"{r},{t},nan\n"] + lines[row + 1:]),
                ("rows, expected", lines[:-1]),
                ("metadata master_seed", [line.replace("# master_seed: 3", "# master_seed: 4")
                                          for line in lines]),
                ("not 0", lines[:head + 1] + ["0,0.0,0.5\n"] + lines[head + 2:]),
                ("variance at", scaled(3.0)),
                ("variance at", scaled(0.3)),
                ("variance at", scaled(0.0)),
            ]
            for case, (reason, corrupted) in enumerate(cases):
                with self.subTest(workload=name, case=case, reason=reason):
                    self.assert_rejected(name, "".join(corrupted), reason)

    def test_dims_rejects_corruption(self):
        report = json.loads(self.outputs["dims"][2])
        far = dict(report, graph=dict(report["graph"], value=report["graph"]["target"] - 0.3))
        missing = {k: v for k, v in report.items() if k != "level_set"}
        self.assert_rejected("dims", json.dumps(far), "graph dimension")
        self.assert_rejected("dims", json.dumps(missing), "schema")
        self.assert_rejected("dims", "{", "not JSON")

    def test_verify_rejects_corruption(self):
        report = json.loads(self.outputs["verify"][2])
        report["suites"][0]["checks"][0]["passed"] = False
        report["all_passed"] = False
        self.assert_rejected("verify", json.dumps(report), "all_passed is not true")
        self.assert_rejected("verify", self.outputs["verify"][2].replace(
            '"master_seed": 3', '"master_seed": 4'), "master_seed differs")


if __name__ == "__main__":
    unittest.main()
