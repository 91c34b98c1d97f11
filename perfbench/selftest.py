"""Self-tests of the benchmark itself.

Run from the root of a checkout (takes well under a minute):

    python3 perfbench/selftest.py

They check BENCHMARK.json against the limits the benchmark format sets,
that the tracer and the calibrator restore every attribute they patch,
that calibration probes run where they should and are kept out of the
timed seconds, and that each workload, shrunk to a few steps, runs
clean on a second seed with traced artifacts byte-identical to
untraced ones.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import re
import shutil
import unittest
from time import perf_counter
from unittest import mock

import numpy as np

import calibrate
import run
from calibrate import REF_S, Calibrator
from tracing import TARGETS, Tracer

pkg = run.load_package()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())

#: each workload shrunk to a few steps and rows
SMALL = {
    "train_single": lambda: run.TrainSingle(pkg, steps=40),
    "ablate_scoring": lambda: run.AblateScoring(pkg, steps=10),
    "eval_large": lambda: run.EvalLarge(pkg, per_class=50, steps=40),
}


class BenchmarkSpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_every_name_and_unit_is_well_formed(self):
        names = [e["name"] for kind in ("workloads", "end_to_end", "per_layer")
                 for e in SPEC[kind]]
        for name in names:
            self.assertRegex(name, f"^{NAME.pattern}$")
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], f"^{UNIT.pattern}$")
            self.assertIn(m["better"], ("higher", "lower"))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_predictions_name_declared_metrics(self):
        declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        workloads = set(run.WORKLOADS)
        covered = set()
        for p in PREDICTIONS["predictions"]:
            self.assertLessEqual(set(p["per_layer"]) | set(p["moves"]), declared)
            self.assertLessEqual(set(p["on"]) | set(p["unchanged_on"]), workloads)
            covered |= set(p["per_layer"])
        self.assertEqual(covered, {m["name"] for m in SPEC["per_layer"]})


class TracerTest(unittest.TestCase):
    def originals(self):
        attrs = [getattr(importlib.import_module(mod), attr) for mod, attr, _ in TARGETS]
        return attrs + [importlib.import_module("udaselect.autodiff").Node.__dict__["__init__"]]

    def test_wrappers_restore_originals(self):
        before = self.originals()
        with Tracer().installed():
            during = self.originals()
        self.assertTrue(all(a is not b for a, b in zip(before, during)))
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))

    def test_wrappers_restore_originals_after_an_error(self):
        before = self.originals()
        with self.assertRaises(KeyError), Tracer().installed():
            raise KeyError("boom")
        self.assertTrue(all(a is b for a, b in zip(before, self.originals())))

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.root("outer"):
            with tracer.root("inner"):
                pass
        outer, inner = tracer.spans
        self.assertEqual(inner[3], 0)
        self.assertAlmostEqual(tracer.self_times()[0],
                               (outer[2] - outer[1]) - (inner[2] - inner[1]))


class CalibratorTest(unittest.TestCase):
    def hooked(self):
        return [getattr(importlib.import_module(mod), attr) for mod, attr in Calibrator.HOOKS]

    def test_wrappers_restore_originals(self):
        before = self.hooked()
        with Calibrator().installed():
            self.assertTrue(all(a is not b for a, b in zip(before, self.hooked())))
        self.assertTrue(all(a is b for a, b in zip(before, self.hooked())))

    def sample_batches(self, cal: Calibrator, installed: bool, calls: int = 3):
        trainer = importlib.import_module("udaselect.trainer")
        src, tgt, _ = pkg.cli.make_benchmark(pkg.cli.benchmark_config(seed=1))
        rng = np.random.default_rng(0)
        t0 = perf_counter()
        with cal.installed() if installed else contextlib.nullcontext(), cal.segment() as seg:
            for _ in range(calls):
                trainer.sample_batch(src, tgt, 64, rng)
        return seg, perf_counter() - t0

    def test_probes_are_excluded_and_hooks_probe_inside(self):
        cal = Calibrator()
        with mock.patch.object(calibrate, "PROBE_EVERY_S", 0.0):
            seg, wall = self.sample_batches(cal, installed=True)
        self.assertEqual(seg.probes, 5)
        self.assertLessEqual(seg.seconds, wall - sum(cal.probe_times))
        self.assertAlmostEqual(seg.factor, REF_S / (sum(cal.probe_times) / 5))

    def test_hooks_wait_for_the_probe_interval(self):
        seg, _ = self.sample_batches(Calibrator(), installed=True)
        self.assertEqual(seg.probes, 2)

    def test_only_end_probes_without_hooks(self):
        with mock.patch.object(calibrate, "PROBE_EVERY_S", 0.0):
            seg, _ = self.sample_batches(Calibrator(), installed=False)
        self.assertEqual(seg.probes, 2)


class SecondSeedTest(unittest.TestCase):
    """Every workload, shrunk, runs clean on seed 1, traced and untraced."""

    def check_workload(self, name):
        wl = SMALL[name]()
        out = run.OUT_ROOT / "selftest" / name
        shutil.rmtree(out, ignore_errors=True)
        setup_s = run.set_up(wl, 1, out / "inputs")
        wl.warm_up(out / "warmup")
        samples, traced, attempted, failed = run.measure(wl, out, 0.0, count=2)
        self.assertEqual((len(samples), traced, attempted, failed), (2, [], 2, 0))

        e2e = run.end_to_end(wl, setup_s, samples)
        self.assertEqual(set(e2e), set(run.declared_metrics("end_to_end")))
        self.assertTrue(all(v > 0 for v in e2e.values()), e2e)

        tracer = Tracer()
        untraced, traced, attempted, failed = run.measure(wl, out, 0.0, count=1,
                                                          tracer=tracer)
        self.assertEqual((attempted, failed), (2, 0))
        self.assertEqual(untraced[0].digests, samples[0].digests)
        self.assertEqual(traced[0].digests, samples[0].digests)
        layers = tracer.layer_metrics(0.0)
        self.assertEqual(set(layers), set(run.declared_metrics("per_layer")))
        return layers

    def test_train_single(self):
        layers = self.check_workload("train_single")
        self.assertGreater(layers["autodiff.nodes_per_step"], 0)
        self.assertGreater(layers["trainer.train_step.us_p50"], 0)

    def test_ablate_scoring(self):
        layers = self.check_workload("ablate_scoring")
        self.assertGreater(layers["scoring.write_score_dump.ms"], 0)

    def test_eval_large(self):
        layers = self.check_workload("eval_large")
        self.assertGreater(layers["data.load_features.rows_per_s"], 0)
        self.assertEqual(layers["autodiff.nodes_per_step"], 0)


if __name__ == "__main__":
    unittest.main()
