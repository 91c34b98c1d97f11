"""Interleaved in-process A/B of ``trainer.train_step`` between two source trees.

Run from the root of a checkout:

    python3 tools/step_ab.py --base ../parent/src --change src [--blocks 400] [--steps 50]

Each ``--base``/``--change`` is a ``src`` directory holding a
``udaselect`` package.  The script copies each package under its own
name (``udaselect_base``, ``udaselect_change``) into a temporary
directory and imports both into one process; the package uses only
relative imports, so the copies do not see each other.  BLAS runs on one
thread: the thread variables are set before numpy is imported.

Both sides train ``cli.benchmark_config(seed=0)`` on its benchmark data,
each with its own state and batch generator, restarting from step 0
when a block would run past ``total_steps``.  Blocks of ``--steps``
calls to ``train_step`` alternate between the sides, the first side
alternating from one pair of blocks to the next, and each block is timed
in process CPU time; batches are drawn outside the timed region.  It
prints each side's median µs per step with its quartiles, the median
and quartiles of the per-pair ratio change/base, and in how many pairs
the change's block was faster.

Both sides draw the same batches, each from its own generator seeded
alike, and take the same steps in the same order, so two trees that
train alike end with the same parameters.  The last line says whether
the two sides' ``model.values`` are bit-identical after the timed
blocks: a faster step that moves any bit of the training shows there.
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
    """One side's package, benchmark data, training state and batch stream."""

    def __init__(self, package: str):
        self.cli = importlib.import_module(f"{package}.cli")
        self.dt = importlib.import_module(f"{package}.data")
        self.tr = importlib.import_module(f"{package}.trainer")
        self.cfg = self.cli.benchmark_config(seed=0)
        self.src, self.tgt, _ = self.cli.make_benchmark(self.cfg)
        self.restart()

    def restart(self) -> None:
        self.state = self.tr.init_state(self.src, self.cfg)
        self.rng = np.random.default_rng([self.cfg.seed, 1])

    def block(self, steps: int) -> float:
        """CPU seconds per step over ``steps`` consecutive steps."""
        if self.state.t + steps > self.cfg.total_steps:
            self.restart()
        batches = [self.dt.sample_batch(self.src, self.tgt, self.cfg.batch_size, self.rng)
                   for _ in range(steps)]
        step, state, cfg = self.tr.train_step, self.state, self.cfg
        start = time.process_time()
        for batch in batches:
            step(state, batch, cfg)
        return (time.process_time() - start) / steps


def load_sides(srcs: dict[str, Path], tmp: Path) -> dict[str, Side]:
    """Copy each ``<src>/udaselect`` to ``tmp/udaselect_<side>`` and load it."""
    for side, src in srcs.items():
        package = src / "udaselect"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"no udaselect package under {src}")
        shutil.copytree(package, tmp / f"udaselect_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    return {side: Side(f"udaselect_{side}") for side in srcs}


def run(sides: dict[str, Side], blocks: int, steps: int) -> dict[str, list[float]]:
    """Per-step CPU seconds of each side's blocks, after one untimed
    warm-up block each."""
    for side in sides.values():
        side.block(steps)
    times = {name: [] for name in sides}
    for i in range(blocks):
        for name in (SIDES if i % 2 == 0 else SIDES[::-1]):
            times[name].append(sides[name].block(steps))
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
    """Whether the two sides' parameters are bit-identical."""
    base, change = (sides[name].state.model.values for name in SIDES)
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
    ap.add_argument("--blocks", type=int, default=400, help="timed blocks per side")
    ap.add_argument("--steps", type=int, default=50, help="train_step calls per block")
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.steps < 1:
        ap.error("--blocks and --steps must be >= 1")
    srcs = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(srcs, Path(tmp))
        times = run(sides, args.blocks, args.steps)
    print(report(times, srcs, args.steps))
    print(parity(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
