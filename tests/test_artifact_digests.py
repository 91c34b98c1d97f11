"""``tools/artifact_digests.py``, the byte-identity gate, runs on this tree.

The gate compares the tool's last line between two commits; this test
only checks that the tool still runs against the package's API and
digests every artifact.  It pins the count, not the hash: the score bits
follow the BLAS kernel the CPU picks.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_tool_runs_and_lists_every_artifact():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    assert re.fullmatch(r"114 artifacts, list sha256 [0-9a-f]{64}", last), last
    assert len(lines) == 114
