"""The package names the benchmark harness wraps still exist.

``perfbench`` replaces module attributes of ``udaselect`` with timing
wrappers, so renaming or deleting one of them breaks the benchmark only
when it runs.  These checks fail at test time instead.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from udaselect import scoring as sc
from udaselect.autodiff import Node

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
