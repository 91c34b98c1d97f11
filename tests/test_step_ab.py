"""``tools/step_ab.py`` runs an A/B of ``src`` against itself and prints its summary."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NUMBER = r"\d+\.\d+"


def test_self_ab_prints_the_summary(tmp_path):
    src = ROOT / "src"
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_ab.py"), "--base", str(src),
         "--change", str(src), "--blocks", "2", "--steps", "2"],
        cwd=tmp_path, env={**os.environ, "TMPDIR": str(tmp_path)},
        check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert len(lines) == 4, out
    for side, line in zip(("base", "change"), lines):
        assert re.fullmatch(rf"{side} +{re.escape(str(src))}: median {NUMBER} us/step "
                            rf"\(quartiles {NUMBER}-{NUMBER}\)", line), line
    assert re.fullmatch(rf"ratio change/base: median {NUMBER} "
                        rf"\(quartiles {NUMBER}-{NUMBER}\)", lines[2]), lines[2]
    won = re.fullmatch(r"change faster in (\d+) of 2 blocks of 2 steps", lines[3])
    assert won and int(won.group(1)) <= 2, lines[3]
    assert not list(tmp_path.iterdir())  # the package copies are gone
