"""``tools/step_ab.py`` runs an A/B of two source trees and prints its summary
and whether the two sides end with the same parameters and step logs."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NUMBER = r"\d+\.\d+"


def step_ab(base: Path, change: Path, run_dir: Path, *flags: str) -> list[str]:
    """The script's output lines for two blocks of two steps per side."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_ab.py"), "--base", str(base),
         "--change", str(change), "--blocks", "2", "--steps", "2", *flags],
        cwd=run_dir, env={**os.environ, "TMPDIR": str(run_dir)},
        check=True, capture_output=True, text=True).stdout
    return out.splitlines()


#: a phase's median and quartiles
SPREAD = rf"{NUMBER} \({NUMBER}-{NUMBER}\)"

PHASE_PARTS = (r"batch draw S, forward S, score S, loss head S, backward S, "
               r"update and log S, total S").replace("S", SPREAD)


def test_self_ab_prints_the_summary(tmp_path):
    src = ROOT / "src"
    lines = step_ab(src, src, tmp_path)
    assert len(lines) == 8, lines
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} us/step "
                            rf"\(quartiles {NUMBER}-{NUMBER}\)", line), line
    assert re.fullmatch(rf"ratio change/base: median {NUMBER} "
                        rf"\(quartiles {NUMBER}-{NUMBER}\)", lines[2]), lines[2]
    won = re.fullmatch(r"change faster in (\d+) of 2 blocks of 2 steps", lines[3])
    assert won and int(won.group(1)) <= 2, lines[3]
    for side, line in zip(("base", "change"), lines[4:6]):
        assert re.fullmatch(rf"{side} +phases us/step, median \(quartiles\) of 9 calls: "
                            + PHASE_PARTS, line), line
    assert re.fullmatch(r"phase ratio change/base, median \(quartiles\) of 9 pairs: "
                        + PHASE_PARTS, lines[6]), lines[6]
    assert re.fullmatch(r"parameters and step logs bit-identical: \d+ values, 2 rows",
                        lines[7]), lines[7]
    assert not list(tmp_path.iterdir())  # the package copies are gone


def test_lanes_self_ab_prints_the_summary_per_lane_step(tmp_path):
    src = ROOT / "src"
    lines = step_ab(src, src, tmp_path, "--lanes", "3")
    assert len(lines) == 8, lines
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} us/lane-step "
                            rf"\(quartiles {NUMBER}-{NUMBER}\)", line), line
    assert re.fullmatch(r"change faster in [012] of 2 blocks of 3 lanes of 2 steps",
                        lines[3]), lines[3]
    for side, line in zip(("base", "change"), lines[4:6]):
        assert re.fullmatch(rf"{side} +phases us/lane-step, median \(quartiles\) of 9 calls: "
                            + PHASE_PARTS, line), line
    # every lane's parameters and its 2 rows
    values = int(re.fullmatch(r"parameters and step logs bit-identical: (\d+) values, 6 rows",
                              lines[7]).group(1))
    assert values % 3 == 0 and values > 3000, lines[7]
    assert not list(tmp_path.iterdir())


def test_grid_self_ab_prints_the_summary_with_faults(tmp_path):
    src = ROOT / "src"
    lines = step_ab(src, src, tmp_path, "--grid")
    assert len(lines) == 5, lines
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} ms/call "
                            rf"\(quartiles {NUMBER}-{NUMBER}\), minor faults median \d+ "
                            rf"\(quartiles \d+-\d+\)", line), line
    assert re.fullmatch(rf"ratio change/base: median {NUMBER} "
                        rf"\(quartiles {NUMBER}-{NUMBER}\)", lines[2]), lines[2]
    assert re.fullmatch(r"change faster in [012] of 2 grid calls of 2 steps", lines[3]), lines[3]
    # 10 runs of 8 files each, and the table
    assert lines[4] == "runs byte-identical: 81 files, 10 run directories", lines[4]
    assert not list(tmp_path.iterdir())  # the package copies and runs are gone


def test_eval_self_ab_prints_the_summary_with_faults(tmp_path):
    src = ROOT / "src"
    lines = step_ab(src, src, tmp_path, "--eval")
    assert len(lines) == 5, lines
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} ms/call "
                            rf"\(quartiles {NUMBER}-{NUMBER}\), minor faults median \d+ "
                            rf"\(quartiles \d+-\d+\)", line), line
    assert re.fullmatch(rf"ratio change/base: median {NUMBER} "
                        rf"\(quartiles {NUMBER}-{NUMBER}\)", lines[2]), lines[2]
    assert re.fullmatch(r"change faster in [012] of 2 eval calls of 20000 rows",
                        lines[3]), lines[3]
    assert re.fullmatch(r"eval\.json byte-identical: \d+ bytes", lines[4]), lines[4]
    assert not list(tmp_path.iterdir())  # the package copies, inputs and outputs are gone


def patched_step_ab(tmp_path: Path, old: str, new: str, *flags: str,
                    module: str = "trainer.py") -> str:
    """The last line of an A/B of this tree against a copy whose
    ``module`` has its one ``old`` replaced by ``new``."""
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "udaselect", changed / "udaselect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "udaselect" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    return step_ab(ROOT / "src", changed, run_dir, *flags)[-1]


def test_a_change_that_trains_differently_is_flagged(tmp_path):
    last = patched_step_ab(tmp_path, "state.v *= cfg.momentum\n",
                           "state.v *= cfg.momentum * 0.5\n")
    assert re.fullmatch(r"parameters differ: [1-9]\d* of \d+ bit patterns; "
                        r"step logs bit-identical: 2 rows", last), last


def test_a_grid_change_that_trains_differently_is_flagged(tmp_path):
    last = patched_step_ab(tmp_path, "state.v *= cfg.momentum\n",
                           "state.v *= cfg.momentum * 0.5\n", "--grid")
    match = re.fullmatch(r"runs differ: (\d+) of 81 files, 10 run directories \((.*)\)", last)
    assert match, last
    # every run's checkpoint moves, and so the table of accuracies may
    assert int(match.group(1)) >= 10 and "checkpoint.txt" in match.group(2), last


def test_an_eval_change_that_counts_differently_is_flagged(tmp_path):
    last = patched_step_ab(tmp_path, "micro_accuracy=sum(hits) / n,",
                           "micro_accuracy=sum(hits) / (n + 1),", "--eval",
                           module="evaluation.py")
    assert re.fullmatch(r"eval\.json differs: \d+ and \d+ bytes, first at byte \d+",
                        last), last


def test_a_change_that_moves_only_a_logged_loss_is_flagged(tmp_path):
    last = patched_step_ab(tmp_path, "= breakdowns\n",
                           "= [(b.l_c * 2.0, *b[1:]) for b in breakdowns]\n")
    assert re.fullmatch(r"parameters bit-identical: \d+ values; "
                        r"step logs differ: 2 of 2 rows \(l_c\)", last), last


def test_a_change_to_a_later_lanes_log_is_flagged(tmp_path):
    """The parity line compares every lane, not only the first."""
    last = patched_step_ab(tmp_path, "= breakdowns\n",
                           "= breakdowns[:1] + [(b.l_c * 2.0, *b[1:]) for b in breakdowns[1:]]\n",
                           "--lanes", "2")
    assert re.fullmatch(r"parameters bit-identical: \d+ values; "
                        r"step logs differ: 2 of 4 rows \(l_c\)", last), last


def test_the_phase_split_restores_what_it_wraps(tmp_path):
    """One side's ``phases`` call times each phase of a 2-step ``train``
    and leaves every function it wrapped as it found it."""
    script = f"""
import sys
from pathlib import Path
sys.path.insert(0, {str(ROOT / "tools")!r})
import step_ab
side = step_ab.load_sides({{"base": Path({str(ROOT / "src")!r})}}, Path.cwd(), 2)["base"]
mods = [sys.modules["udaselect_base." + name]
        for name in ("trainer", "scoring", "losses", "autodiff")]
before = [dict(vars(mod)) for mod in mods], dict(vars(mods[0].md.Mlp))
phases = side.phases()
assert ([dict(vars(mod)) for mod in mods], dict(vars(mods[0].md.Mlp))) == before
assert list(phases) == list(step_ab.PHASES), phases
assert all(us > 0.0 for us in phases.values()), phases
"""
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=True)
