"""``tools/artifact_digests.py``, the byte-identity gate, runs on this tree.

The tool's last line follows the BLAS kernel the CPU picks, so the test
asserts the whole line only on a host whose fingerprint is in
``KNOWN_LINES``: the numpy version, the BLAS name and version, numpy's
SIMD extensions found on the CPU, and the OpenBLAS core.  On any other
host it checks that the tool digests every artifact, and that the runs
trained as lanes of one stack, of two schemes, have the digests of
their runs alone, and prints the fingerprint and the line so that the
host can be added.  A change that moves the line on purpose updates
this table and says why.
"""

import ctypes
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

KNOWN_LINES = {
    ("numpy 2.4.6", "scipy-openblas 0.3.31.188.0",
     "X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "SkylakeX"):
    "159 artifacts, list sha256 "
    "c2dfe04c6d5fd928b067eaff8c2fbe7be512fa2de975a411b61d2af9b292e318",
}


def openblas_core() -> str:
    """The core numpy's bundled OpenBLAS runs on, or ``unknown``."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    get.restype = ctypes.c_char_p
    return get().decode()


def fingerprint() -> tuple[str, str, str, str]:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}", f"{blas.get('name')} {blas.get('version')}",
            " ".join(config["SIMD Extensions"]["found"]), openblas_core())


def test_digest_tool_runs_and_lists_every_artifact():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    *lines, last = done.stdout.splitlines()
    host = fingerprint()
    print(f"fingerprint {host}\n{last}")
    if host in KNOWN_LINES:
        assert last == KNOWN_LINES[host]
    assert re.fullmatch(r"159 artifacts, list sha256 [0-9a-f]{64}", last), last
    assert len(lines) == 159
    # the runs trained as lanes of one stack, of two schemes, have the bytes
    # of their runs alone
    table = dict(line.split("\t") for line in lines)
    lanes = {name: digest for name, digest in table.items() if name.startswith("lanes/")}
    assert len(lanes) == 32
    assert all(table[name.removeprefix("lanes/")] == digest for name, digest in lanes.items())
