"""The package names the benchmark harness wraps still exist, and the
harness's own self-test passes.

``perfbench`` replaces module attributes of ``udaselect`` with timing
wrappers and calls package functions by name and keyword, so renaming
or deleting one of them, or one of its parameters, breaks the benchmark
only when it runs.  These checks fail at test time instead.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from udaselect import cli
from udaselect import scoring as sc
from udaselect import trainer as tr
from udaselect.autodiff import Node

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
calibrate = pytest.importorskip("calibrate")
tracing = pytest.importorskip("tracing")

HOOKED = sorted({(mod, attr) for mod, attr in calibrate.Calibrator.HOOKS}
                | {(mod, attr) for mod, attr, _ in tracing.TARGETS})


@pytest.mark.parametrize("module, attr", HOOKED)
def test_hooked_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_node_defines_its_own_init():
    # the tracer counts tape nodes by replacing Node.__init__ in place
    assert "__init__" in Node.__dict__


@pytest.mark.parametrize("scheme", sc.SCHEMES)
def test_score_batch_length_counts_rows(scheme):
    # the tracer counts scored rows as len(score_batch(...))
    from test_model import small_bundle
    x = np.random.default_rng(0).normal(size=(7, 4))
    assert len(sc.score_batch(small_bundle(), x, scheme)) == len(x)


def train_pairs(runs):
    """Every run's ``(model, log)``, as the grid trains them."""
    return [pair for stack in tr.train_stacks(runs) for _, pair in stack]


@pytest.mark.parametrize("train, schemes", [
    (lambda runs: [tr.train(*runs[0])], ("ours",)),
    (train_pairs, ("ours", "uan")),
], ids=["one lane through train", "two lanes through train_stacks"])
def test_the_tracer_sees_every_step_of_every_stack(train, schemes):
    """The tracer wraps ``trainer.train_step``, the step of a stack of one
    lane or more: one span and one node per step, and every lane's
    target rows and selections."""
    cfgs = [cli.scheme_defaults(cli.benchmark_config(total_steps=5, seed=seed), scheme)
            for seed, scheme in enumerate(schemes)]
    runs = [(*cli.make_benchmark(cfg)[:2], cfg) for cfg in cfgs]
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("train"):
        logs = [log for _, log in train(runs)]
    steps = [s for s in tracer.spans if s[tracing.NAME] == "trainer.train_step"]
    assert [s[tracing.NODES1] - s[tracing.NODES0] for s in steps] == [1] * 5
    counters = tracer.counters
    assert counters["target_rows"] == 5 * 32 * len(runs)
    assert counters["pseudo_selected"] == sum(int(log["n_pseudo_selected"].sum())
                                              for log in logs) > 0
    assert counters["diversity_selected"] == sum(int(log["n_diversity_selected"].sum())
                                                 for log in logs) > 0
    layers = tracer.layer_metrics(0.0)
    assert layers["trainer.train_step.us_p50"] > 0
    assert layers["autodiff.nodes_per_step"] == 1.0
    assert layers["scoring.scores_from_outputs.us"] > 0


def test_benchmark_selftest_passes():
    # the harness calls make_benchmark, gen_synthetic and the eval verb's
    # load_features with fixed signatures; its own self-test runs them all
    # (output goes to .bench_out/selftest)
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
