"""Interleaved in-process A/B of ``trainer.train`` between two source trees.

Run from the root of a checkout:

    python3 tools/step_ab.py --base ../parent/src --change src [--blocks 20] [--steps 3000]

Each ``--base``/``--change`` is a ``src`` directory holding a
``udaselect`` package.  The script copies each package under its own
name (``udaselect_base``, ``udaselect_change``) into a temporary
directory and imports both into one process; the package uses only
relative imports, so the copies do not see each other.  BLAS runs on one
thread: the thread variables are set before numpy is imported.

A block is one ``trainer.train`` call of ``cli.benchmark_config(seed=0)``
on its benchmark data, ``--steps`` steps long: at the default 3000 it is
the ``train`` call of the benchmark's ``train_single`` workload.  Blocks
alternate between the sides, the first side alternating from one pair
of blocks to the next, and each block is timed in process CPU time.  It
prints each side's median µs per step with its quartiles, the median
and quartiles of the per-pair ratio change/base, and in how many pairs
the change's block was faster.  The full benchmark's ``train_single``
pair ratios spread from 0.89 to 1.12 for changes that did not touch
training (``BENCH_11``, ``BENCH_12``), too wide to see a 5% change in
the step, which is why this tool pairs blocks within one process.

Every block trains from the same seed, so two trees that train alike
return the same model.  The last line says whether the two sides'
last returned ``model.values`` are bit-identical: a faster step that
moves any bit of the training shows there.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_record import summary  # noqa: E402  (this script's directory)

SIDES = ("base", "change")


class Side:
    """One side's package, benchmark config and data, and last trained model."""

    def __init__(self, package: str, steps: int):
        cli = importlib.import_module(f"{package}.cli")
        self.train = importlib.import_module(f"{package}.trainer").train
        self.cfg = cli.benchmark_config(seed=0, total_steps=steps)
        self.src, self.tgt, _ = cli.make_benchmark(self.cfg)
        self.model = None

    def block(self) -> float:
        """CPU seconds per step of one ``train`` call."""
        start = time.process_time()
        self.model, _ = self.train(self.src, self.tgt, self.cfg)
        return (time.process_time() - start) / self.cfg.total_steps


def load_sides(srcs: dict[str, Path], tmp: Path, steps: int) -> dict[str, Side]:
    """Copy each ``<src>/udaselect`` to ``tmp/udaselect_<side>`` and load it."""
    for side, src in srcs.items():
        package = src / "udaselect"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"no udaselect package under {src}")
        shutil.copytree(package, tmp / f"udaselect_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    return {side: Side(f"udaselect_{side}", steps) for side in srcs}


def run(sides: dict[str, Side], blocks: int) -> dict[str, list[float]]:
    """Per-step CPU seconds of each side's blocks, after one untimed
    warm-up block each."""
    for side in sides.values():
        side.block()
    times = {name: [] for name in sides}
    for i in range(blocks):
        for name in (SIDES if i % 2 == 0 else SIDES[::-1]):
            times[name].append(sides[name].block())
    return times


def report(times: dict[str, list[float]], srcs: dict[str, Path], steps: int) -> str:
    lines = []
    for name in SIDES:
        s = summary(times[name])
        q1, med, q3 = (s[k] * 1e6 for k in ("q1", "median", "q3"))
        lines.append(f"{name:<6} {srcs[name]}: median {med:.1f} us/step "
                     f"(quartiles {q1:.1f}-{q3:.1f})")
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    s = summary(ratios)
    won = sum(r < 1.0 for r in ratios)
    lines.append(f"ratio change/base: median {s['median']:.4f} "
                 f"(quartiles {s['q1']:.4f}-{s['q3']:.4f})")
    lines.append(f"change faster in {won} of {len(ratios)} blocks of {steps} steps")
    return "\n".join(lines)


def parity(sides: dict[str, Side]) -> str:
    """Whether the two sides' last returned models have bit-identical parameters."""
    base, change = (sides[name].model.values for name in SIDES)
    if base.shape != change.shape:
        return f"parameters differ: shapes {base.shape} and {change.shape}"
    differ = int(np.count_nonzero(base.view(np.uint64) != change.view(np.uint64)))
    if differ:
        return f"parameters differ: {differ} of {base.size} bit patterns"
    return f"parameters bit-identical: {base.size} values"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the base side's src/")
    ap.add_argument("--change", type=Path, required=True, help="the changed side's src/")
    ap.add_argument("--blocks", type=int, default=20, help="timed blocks per side")
    ap.add_argument("--steps", type=int, default=3000, help="training steps per block")
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.steps < 1:
        ap.error("--blocks and --steps must be >= 1")
    srcs = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(srcs, Path(tmp), args.steps)
        times = run(sides, args.blocks)
    print(report(times, srcs, args.steps))
    print(parity(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
