"""Interleaved in-process A/B of ``trainer.train``, or of a grid, between two source trees.

Run from the root of a checkout:

    python3 tools/step_ab.py --base ../parent/src --change src [--blocks 20] [--steps 3000]
    python3 tools/step_ab.py --grid --base ../parent/src --change src [--blocks 20] [--steps 100]

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

After the timed blocks, ``PHASE_CALLS`` more ``train`` calls per side,
interleaved like the blocks, run with a wall-clock timer around each
phase of the step, so a step claim can name its phase (``PHASES``):
the batch draw (each ``next`` on ``batches``' iterator), the three
network forwards (``Mlp.forward_array``), the score
(``scoring.scores_from_outputs``), the loss head
(``losses.compound_array``), the backward (``autodiff.backward``) and
the rest of ``train_step``: the input check, the step's ``Node``, the
gradient check, the momentum update, the log rows and the returned
breakdown.  Each side's line gives the median and quartiles over its
calls of its µs per step in each phase and in their total, and one more
line the median and quartiles of each phase's per-pair ratio
change/base.  One call's split is not enough: the parent's phase total
of a single call differed from its block median by -18% to +56% over
eight runs.  Each timer costs about half a microsecond per call, eight
calls per step; the unwrapped blocks give the totals.

Every block trains from the same seed, so two trees that train alike
return the same model and step log.  The last line says whether the two
sides' last returned ``model.values`` and step logs are bit-identical,
and names what differs: a faster step that moves any bit of the
training, or only a logged value, shows there.

With ``--grid`` a block is instead one in-process ``udaselect ablate
--ablation scoring --seeds 2 --steps <steps>`` (``cli.main``, its
console output discarded), the operation of the benchmark's
``ablate_scoring`` workload at its default 100 steps: 10 runs trained
and written.  Each side writes its runs into a directory of its own,
and each block reruns the grid over them.  Blocks alternate as above
and are timed in process CPU time; each side's line also gives the
median and quartiles of its blocks' minor page faults (``ru_minflt``),
since fresh pages for a step's large temporaries cost time that a step
A/B of one lane does not see.  Both sides share one heap, so a side's
faults can depend on the other's allocations: with stacks of 4 lanes
against stacks of 2 one run read about 800 faults per call and another
about 10,000.  There is no phase split.  The last line compares the
bytes of every file of every run directory between the two sides.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_record import summary  # noqa: E402  (this script's directory)

SIDES = ("base", "change")

#: the step's phases in the order a step runs them
PHASES = ("batch draw", "forward", "score", "loss head", "backward", "update and log")

#: timed ``train`` calls per side of the phase split
PHASE_CALLS = 9


class Side:
    """One side's package, benchmark config and data, and last trained
    model and step log."""

    def __init__(self, package: str, steps: int):
        self.package = package
        cli = importlib.import_module(f"{package}.cli")
        self.train = importlib.import_module(f"{package}.trainer").train
        self.cfg = cli.benchmark_config(seed=0, total_steps=steps)
        self.src, self.tgt, _ = cli.make_benchmark(self.cfg)
        self.model = self.log = None

    def block(self) -> float:
        """CPU seconds per step of one ``train`` call."""
        start = time.process_time()
        self.model, self.log = self.train(self.src, self.tgt, self.cfg)
        return (time.process_time() - start) / self.cfg.total_steps

    def phases(self) -> dict[str, float]:
        """Wall µs per step of each of ``PHASES`` in one ``train`` call,
        each phase's function wrapped in a timer for the call only."""
        mod = {name: importlib.import_module(f"{self.package}.{name}")
               for name in ("trainer", "model", "scoring", "losses", "autodiff")}
        spent = dict.fromkeys((*PHASES[:-1], "step"), 0.0)

        def timed(phase):
            def wrap(fn):
                def wrapper(*args, **kwargs):
                    start = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        spent[phase] += time.perf_counter() - start
                return wrapper
            return wrap

        def draw(fn):
            def batches(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = time.perf_counter()
                    batch = next(it, None)
                    spent["batch draw"] += time.perf_counter() - start
                    if batch is None:
                        return
                    yield batch
            return batches

        wraps = [(mod["trainer"], "batches", draw),
                 (mod["model"].Mlp, "forward_array", timed("forward")),
                 (mod["scoring"], "scores_from_outputs", timed("score")),
                 (mod["losses"], "compound_array", timed("loss head")),
                 (mod["autodiff"], "backward", timed("backward")),
                 (mod["trainer"], "train_step", timed("step"))]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in wraps]
        try:
            for owner, attr, wrap in wraps:
                setattr(owner, attr, wrap(getattr(owner, attr)))
            self.train(self.src, self.tgt, self.cfg)
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
        us = {phase: t / self.cfg.total_steps * 1e6 for phase, t in spent.items()}
        us["update and log"] = us.pop("step") - sum(us[p] for p in PHASES[1:-1])
        return us


class GridSide:
    """One side's package and run directory for the grid A/B, and the
    minor page faults of each of its blocks."""

    def __init__(self, package: str, steps: int, out: Path):
        self.main = importlib.import_module(f"{package}.cli").main
        self.out = out
        self.argv = ["ablate", "--ablation", "scoring", "--seeds", "2",
                     "--steps", str(steps), "--out", str(out)]
        self.faults = []

    def block(self) -> float:
        """CPU seconds of one grid call."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(self.argv)
        spent = time.process_time() - start
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        if code != 0:
            raise SystemExit(f"udaselect {' '.join(self.argv)} exited with {code}")
        return spent


def load_sides(srcs: dict[str, Path], tmp: Path, steps: int,
               grid: bool = False) -> dict[str, Side | GridSide]:
    """Copy each ``<src>/udaselect`` to ``tmp/udaselect_<side>`` and load
    it as a ``Side``, or with ``grid`` as a ``GridSide`` writing its runs
    under ``tmp/runs_<side>``."""
    for side, src in srcs.items():
        package = src / "udaselect"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"no udaselect package under {src}")
        shutil.copytree(package, tmp / f"udaselect_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    if grid:
        return {side: GridSide(f"udaselect_{side}", steps, tmp / f"runs_{side}")
                for side in srcs}
    return {side: Side(f"udaselect_{side}", steps) for side in srcs}


def interleaved(call, count: int) -> dict[str, list]:
    """``count`` results of ``call(name)`` per side, the first side
    alternating from one pair of calls to the next."""
    results = {name: [] for name in SIDES}
    for i in range(count):
        for name in (SIDES if i % 2 == 0 else SIDES[::-1]):
            results[name].append(call(name))
    return results


def run(sides: dict[str, Side | GridSide], blocks: int) -> dict[str, list[float]]:
    """CPU seconds of each side's blocks, per step or per grid call,
    after one untimed warm-up block each."""
    for side in sides.values():
        side.block()
    return interleaved(lambda name: sides[name].block(), blocks)


def report(times: dict[str, list[float]], srcs: dict[str, Path], steps: int,
           faults: dict[str, list[int]] | None = None) -> str:
    """The summary of a step A/B, in µs per step, or with ``faults`` (one
    list per side) of a grid A/B, in ms per call."""
    scale, unit, block = ((1e3, "ms/call", "grid calls") if faults
                          else (1e6, "us/step", "blocks"))
    lines = []
    for name in SIDES:
        s = summary(times[name])
        q1, med, q3 = (s[k] * scale for k in ("q1", "median", "q3"))
        line = f"{name:<6} {srcs[name]}: median {med:.1f} {unit} (quartiles {q1:.1f}-{q3:.1f})"
        if faults:
            f = summary(faults[name])
            line += (f", minor faults median {f['median']:.0f} "
                     f"(quartiles {f['q1']:.0f}-{f['q3']:.0f})")
        lines.append(line)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    s = summary(ratios)
    won = sum(r < 1.0 for r in ratios)
    lines.append(f"ratio change/base: median {s['median']:.4f} "
                 f"(quartiles {s['q1']:.4f}-{s['q3']:.4f})")
    lines.append(f"change faster in {won} of {len(ratios)} {block} of {steps} steps")
    return "\n".join(lines)


def phase_report(phases: dict[str, list[dict[str, float]]]) -> str:
    """One line per side, the median and quartiles over its calls of its
    µs per step in each phase and in their total, and one line of each
    phase's per-pair ratio change/base."""
    def spread(values, digits):
        s = summary(values)
        return f"{s['median']:.{digits}f} ({s['q1']:.{digits}f}-{s['q3']:.{digits}f})"

    columns = {name: {**{p: [call[p] for call in calls] for p in PHASES},
                      "total": [sum(call.values()) for call in calls]}
               for name, calls in phases.items()}
    lines = [f"{name:<6} phases us/step, median (quartiles) of {len(phases[name])} calls: "
             + ", ".join(f"{p} {spread(v, 1)}" for p, v in columns[name].items())
             for name in SIDES]
    ratios = {p: [c / b for b, c in zip(base, columns["change"][p])]
              for p, base in columns["base"].items()}
    lines.append(f"phase ratio change/base, median (quartiles) of {len(phases['base'])} "
                 "pairs: " + ", ".join(f"{p} {spread(v, 3)}" for p, v in ratios.items()))
    return "\n".join(lines)


def parameter_parity(base: np.ndarray, change: np.ndarray) -> str | None:
    """What differs between two parameter vectors' bits, or None."""
    if base.shape != change.shape:
        return f"parameters differ: shapes {base.shape} and {change.shape}"
    differ = int(np.count_nonzero(base.view(np.uint64) != change.view(np.uint64)))
    if differ:
        return f"parameters differ: {differ} of {base.size} bit patterns"
    return None


def log_parity(base: np.ndarray, change: np.ndarray) -> str | None:
    """What differs between two step logs' bytes, rows and fields, or None."""
    if base.dtype != change.dtype or base.shape != change.shape:
        return (f"step logs differ: {len(base)} rows of {base.dtype} and "
                f"{len(change)} rows of {change.dtype}")
    moved = (base.view(np.uint8).reshape(len(base), -1)
             != change.view(np.uint8).reshape(len(change), -1))
    rows = int(np.count_nonzero(moved.any(axis=1)))
    if rows:
        names = [name for name, (dtype, offset) in base.dtype.fields.items()
                 if moved[:, offset:offset + dtype.itemsize].any()]
        return f"step logs differ: {rows} of {len(base)} rows ({', '.join(names)})"
    return None


def parity(sides: dict[str, Side]) -> str:
    """Whether the two sides' last returned models have bit-identical
    parameters and their step logs bit-identical rows."""
    (base, base_log), (change, change_log) = (
        (sides[name].model.values, sides[name].log) for name in SIDES)
    params, logs = parameter_parity(base, change), log_parity(base_log, change_log)
    if params is None and logs is None:
        return (f"parameters and step logs bit-identical: {base.size} values, "
                f"{len(base_log)} rows")
    return "; ".join((params or f"parameters bit-identical: {base.size} values",
                      logs or f"step logs bit-identical: {len(base_log)} rows"))


def run_parity(base: Path, change: Path) -> str:
    """Whether every file under the two sides' run directories has the
    same bytes, and which differ."""
    files = {out: {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
             for out in (base, change)}
    names = sorted(set(files[base]) | set(files[change]))
    differ = [str(n) for n in names if files[base].get(n) != files[change].get(n)]
    runs = len({n.parts[0] for n in names if len(n.parts) > 1})
    if differ:
        return (f"runs differ: {len(differ)} of {len(names)} files, {runs} run directories "
                f"({', '.join(differ[:3])}{', ...' if len(differ) > 3 else ''})")
    return f"runs byte-identical: {len(names)} files, {runs} run directories"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the base side's src/")
    ap.add_argument("--change", type=Path, required=True, help="the changed side's src/")
    ap.add_argument("--blocks", type=int, default=20, help="timed blocks per side")
    ap.add_argument("--steps", type=int,
                    help="training steps per run (default 3000, with --grid 100)")
    ap.add_argument("--grid", action="store_true",
                    help="time the benchmark's scoring ablation instead of one train call")
    args = ap.parse_args(argv)
    steps = args.steps if args.steps is not None else 100 if args.grid else 3000
    if args.blocks < 1 or steps < 1:
        ap.error("--blocks and --steps must be >= 1")
    srcs = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(srcs, Path(tmp), steps, args.grid)
        times = run(sides, args.blocks)
        if args.grid:
            # the warm-up block's faults are left out, like its time
            print(report(times, srcs, steps,
                         {name: side.faults[1:] for name, side in sides.items()}))
            print(run_parity(sides["base"].out, sides["change"].out))
            return 0
        phases = interleaved(lambda name: sides[name].phases(), PHASE_CALLS)
    print(report(times, srcs, steps))
    print(phase_report(phases))
    print(parity(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
