"""``tools/bench_record.py`` checks both checkouts before it runs anything,
and gives each end-to-end metric a verdict."""

import json
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
                            {"train_single": [1, 2]})


@pytest.mark.parametrize("side", ["parent", "change"])
def test_record_fails_on_a_dirty_checkout_before_any_run(monkeypatch, side):
    def run_once(*args):
        raise AssertionError("a benchmark run started on a dirty checkout")

    checkouts = {"parent": ROOT.parent, "change": ROOT}
    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "commit", lambda path: (
        "0123456789ab-dirty" if path == checkouts[side] else "0123456789ab"))
    with pytest.raises(SystemExit, match=f"uncommitted changes in the {side} "):
        bench_record.record(checkouts, {"train_single": [1, 2]})


@pytest.mark.parametrize("workload, message", [
    ("train_singel=1", "unknown workload 'train_singel'; BENCHMARK.json lists train_single"),
    ("train_single=x", "bad seed list: invalid literal for int() with base 10: 'x'"),
    ("eval_large=1,", "bad seed list: invalid literal for int() with base 10: ''"),
    ("eval_large=3-1", "bad seed list: empty range '3-1'"),
    ("train_single=2-3", "'train_single' given twice; list all its seeds in one NAME=SEEDS"),
])
def test_main_rejects_a_bad_plan_before_any_run(tmp_path, monkeypatch, capsys,
                                                workload, message):
    def run_once(*args):
        raise AssertionError("a benchmark run started on a bad plan")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", str(ROOT), "--workload", "train_single=1",
                           "--workload", workload, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


PARENT = [10.0, 10.2, 10.1, 10.3, 9.9, 10.0, 10.2, 10.1, 10.0, 10.1]  # IQR 0.175


@pytest.mark.parametrize("change, better, want", [
    ([v - 1.0 for v in PARENT], "lower", "better"),
    ([v + 1.0 for v in PARENT], "higher", "better"),
    # 9 wins and a tie, then 8 wins and 2 ties: ties count for neither side
    ([v - 1.0 for v in PARENT[:9]] + PARENT[9:], "lower", "better"),
    ([v - 1.0 for v in PARENT[:8]] + PARENT[8:], "lower", "unresolved"),
    # 8 wins and 2 losses, though the median gain is large
    ([v - 1.0 for v in PARENT[:8]] + [v + 0.5 for v in PARENT[8:]], "lower",
     "unresolved"),
    # every pair won, but by less than the parent's IQR
    ([v - 0.1 for v in PARENT], "lower", "unresolved"),
    # a median 30% worse, past a 25% bound; 20% is inside it
    ([v * 1.3 for v in PARENT], "lower", "worse"),
    ([v * 0.7 for v in PARENT], "higher", "worse"),
    ([v * 1.2 for v in PARENT], "lower", "unresolved"),
    (PARENT, "lower", "unresolved"),
])
def test_verdict(change, better, want):
    assert bench_record.verdict(PARENT, change, better, 0.25) == want


@pytest.mark.parametrize("pairs, want", [(5, "unresolved"), (9, "unresolved"),
                                         (10, "better")])
def test_verdict_better_needs_ten_pairs(pairs, want):
    parent = PARENT[:pairs]
    assert bench_record.verdict(parent, [v - 1.0 for v in parent], "lower", 0.05) == want


def run_result(values: dict) -> dict:
    """``run_once``'s return value for one run that read ``values``."""
    return {"result": {"attempted": 1, "failed": 0, "correct": True,
                       "metrics": {name: {"value": v, "unit": "x"}
                                   for name, v in values.items()}},
            "env": {}}


def test_record_gives_each_end_to_end_metric_its_verdict(monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        # the change halves peak_rss_mb and doubles wall_s; the rest tie
        values = {name: 40.0 + seed % 3 for name in names}
        if checkout.name == "change":
            values["peak_rss_mb"] /= 2
            values["wall_s"] *= 2
        return run_result(values)

    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "commit", lambda path: "0123456789ab")
    before = (ROOT / "BENCHMARK.json").read_bytes()
    result = bench_record.record({"parent": Path("parent"), "change": Path("change")},
                                 {"eval_large": list(range(1, 11))})
    pairs = result["workloads"]["eval_large"]["pairs"]
    assert {name: pairs[name]["verdict"] for name in names} == {
        **{name: "unresolved" for name in names},
        "peak_rss_mb": "better", "wall_s": "worse"}
    assert (ROOT / "BENCHMARK.json").read_bytes() == before


def test_record_runs_for_the_benchmarks_run_seconds(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 7}))
    seen = []

    def run_once(checkout, workload, seed, seconds):
        seen.append(seconds)
        return run_result({"wall_s": 1.0})

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_once", run_once)
    monkeypatch.setattr(bench_record, "commit", lambda path: "0123456789ab")
    result = bench_record.record({"parent": Path("parent"), "change": Path("change")},
                                 {"train_single": [1, 2]})
    assert seen == [7] * 4
    assert result["seconds"] == 7


def test_seconds_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--parent", "p", "--workload", "train_single=1",
                           "--seconds", "5", "--out", "x.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seconds 5" in capsys.readouterr().err
