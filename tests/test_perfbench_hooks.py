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

from udaselect import scoring as sc
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


def test_benchmark_selftest_passes():
    # the harness calls make_benchmark, gen_synthetic and the eval verb's
    # load_features with fixed signatures; its own self-test runs them all
    # (output goes to .bench_out/selftest)
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
