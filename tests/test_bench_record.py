"""``tools/bench_record.py`` checks both checkouts before it runs anything."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
bench_record = pytest.importorskip("bench_record")


def test_record_fails_on_a_non_git_parent_before_any_run(tmp_path, monkeypatch):
    def run_once(*args):
        raise AssertionError("a benchmark run started before the commits were read")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    # git must not find a repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    parent = tmp_path / "parent"
    parent.mkdir()
    with pytest.raises(subprocess.CalledProcessError):
        bench_record.record({"parent": parent, "change": ROOT},
                            {"train_single": [1, 2]}, 1.0)


@pytest.mark.parametrize("side", ["parent", "change"])
def test_record_fails_on_a_dirty_checkout_before_any_run(monkeypatch, side):
    def run_once(*args):
        raise AssertionError("a benchmark run started on a dirty checkout")

    checkouts = {"parent": ROOT.parent, "change": ROOT}
    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "commit", lambda path: (
        "0123456789ab-dirty" if path == checkouts[side] else "0123456789ab"))
    with pytest.raises(SystemExit, match=f"uncommitted changes in the {side} "):
        bench_record.record(checkouts, {"train_single": [1, 2]}, 1.0)
