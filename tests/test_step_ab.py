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


PHASE_LINE = (r"{side} +phases us/step: batch draw (N), forward (N), score (N), "
              r"loss head (N), backward (N), update and log (N) \(total (N)\)"
              ).replace("N", NUMBER)


def test_self_ab_prints_the_summary(tmp_path):
    src = ROOT / "src"
    lines = step_ab(src, src, tmp_path)
    assert len(lines) == 7, lines
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} us/step "
                            rf"\(quartiles {NUMBER}-{NUMBER}\)", line), line
    assert re.fullmatch(rf"ratio change/base: median {NUMBER} "
                        rf"\(quartiles {NUMBER}-{NUMBER}\)", lines[2]), lines[2]
    won = re.fullmatch(r"change faster in (\d+) of 2 blocks of 2 steps", lines[3])
    assert won and int(won.group(1)) <= 2, lines[3]
    for side, line in zip(("base", "change"), lines[4:6]):
        phases = re.fullmatch(PHASE_LINE.format(side=side), line)
        assert phases, line
        *parts, total = map(float, phases.groups())
        assert abs(sum(parts) - total) < 0.5, line
    assert re.fullmatch(r"parameters and step logs bit-identical: \d+ values, 2 rows",
                        lines[6]), lines[6]
    assert not list(tmp_path.iterdir())  # the package copies are gone


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


def patched_step_ab(tmp_path: Path, old: str, new: str, *flags: str) -> str:
    """The last line of an A/B of this tree against a copy whose
    ``trainer.py`` has its one ``old`` replaced by ``new``."""
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src" / "udaselect", changed / "udaselect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    trainer = changed / "udaselect" / "trainer.py"
    text = trainer.read_text()
    assert text.count(old) == 1
    trainer.write_text(text.replace(old, new))
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


def test_a_change_that_moves_only_a_logged_loss_is_flagged(tmp_path):
    last = patched_step_ab(tmp_path, "(*b, w_a)", "(b.l_c * 2.0, *b[1:], w_a)")
    assert re.fullmatch(r"parameters bit-identical: \d+ values; "
                        r"step logs differ: 2 of 2 rows \(l_c\)", last), last


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
