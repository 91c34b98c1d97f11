"""Interleaved in-process A/B of ``trainer.train``, a grid or an eval between two source trees.

Run from the root of a checkout:

    python3 tools/step_ab.py --base ../parent/src --change src [--blocks 20] [--steps 3000]
    python3 tools/step_ab.py --lanes 4 --base ../parent/src --change src [--blocks 20]
    python3 tools/step_ab.py --grid --base ../parent/src --change src [--blocks 20] [--steps 100]
    python3 tools/step_ab.py --eval --base ../parent/src --change src [--blocks 20] [--steps 3000]

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

With ``--lanes R`` a block is instead one ``trainer._train_stack`` of
the benchmark runs of seeds 0 to R-1, trained as the R lanes of one
stack, and every time is given in µs per lane-step: the block's time
over ``R * steps``.  Comparing the lines of several R on one tree shows
what a lane costs in a stack (``trainer.MAX_LANES``).  With one lane,
the default, a block is one ``trainer.train`` call, which trees without
``_train_stack`` have too.

After the timed blocks, ``PHASE_CALLS`` more ``train`` calls per side,
interleaved like the blocks, run with a wall-clock timer around each
phase of the step, so a step claim can name its phase (``PHASES``):
the batch draw (each ``next`` on ``batches``' iterator), the three
network forwards (``Mlp.forward_array``), the score
(``scoring.scores_from_outputs``), the loss head
(``losses.compound_array``), the backward (``autodiff.backward``) and
the rest of ``train_step``: the indexing of each scheme's lanes around
its score, the step's ``Node``, the gradient check, the momentum
update, the log rows and the returned breakdown.  Each side's line
gives the median and quartiles over its calls of its µs per step (per
lane-step with ``--lanes``) in each phase and in their total, and one
more line the median and quartiles of each phase's per-pair ratio
change/base.  One call's split is not enough: the parent's phase total
of a single call differed from its block median by -18% to +56% over
eight runs.  Each timer costs about half a microsecond per call, eight
calls per step; the unwrapped blocks give the totals.

Every block trains from the same seeds, so two trees that train alike
return the same models and step logs.  The last line says whether the
two sides' last returned ``model.values`` and step logs, of every lane,
are bit-identical, and names what differs: a faster step that moves any
bit of the training, or only a logged value, shows there.

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

With ``--eval`` a block is instead one in-process ``udaselect eval``
(``cli.main``) of the checkpoint of the benchmark run of seed 0, trained
``--steps`` steps, on a 20k-row benchmark target (2000 rows per class,
seed 0) at the run's scheme and ``w0``: the operation of the benchmark's
``eval_large`` workload.  The base side's package writes those inputs
once, and both sides read them.  Blocks are timed and their minor page
faults counted as with ``--grid``, and the last line compares the bytes
of the two sides' last ``eval.json``.
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
import json  # noqa: E402
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

#: rows per class of the ``--eval`` target: 10 classes, 20k rows, as
#: the benchmark's ``eval_large`` workload
EVAL_PER_CLASS = 2000


class Side:
    """One side's package, the benchmark runs of its lanes, and each
    lane's last trained model and step log."""

    def __init__(self, package: str, steps: int, lanes: int = 1):
        self.package = package
        cli = importlib.import_module(f"{package}.cli")
        self.trainer = importlib.import_module(f"{package}.trainer")
        cfgs = [cli.benchmark_config(seed=seed, total_steps=steps) for seed in range(lanes)]
        self.runs = [(*cli.make_benchmark(cfg)[:2], cfg) for cfg in cfgs]
        self.lane_steps = steps * lanes
        self.trained = None

    def train(self) -> list:
        """Each lane's ``(model, log)``: one ``train`` call for one lane,
        else one ``_train_stack`` of the lanes."""
        if len(self.runs) == 1:
            return [self.trainer.train(*self.runs[0])]
        return self.trainer._train_stack(self.runs)

    def block(self) -> float:
        """CPU seconds per lane-step of one ``train``."""
        start = time.process_time()
        self.trained = self.train()
        return (time.process_time() - start) / self.lane_steps

    def phases(self) -> dict[str, float]:
        """Wall µs per lane-step of each of ``PHASES`` in one ``train``,
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
            self.train()
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
        us = {phase: t / self.lane_steps * 1e6 for phase, t in spent.items()}
        us["update and log"] = us.pop("step") - sum(us[p] for p in PHASES[1:-1])
        return us


class CliSide:
    """One side's package, the ``udaselect`` arguments of its block and
    the directory they write under, and the minor page faults of each of
    its blocks."""

    def __init__(self, package: str, argv: list[str], out: Path):
        self.main = importlib.import_module(f"{package}.cli").main
        self.argv = argv
        self.out = out
        self.faults = []

    def block(self) -> float:
        """CPU seconds of one call."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(self.argv)
        spent = time.process_time() - start
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        if code != 0:
            raise SystemExit(f"udaselect {' '.join(self.argv)} exited with {code}")
        return spent


def eval_inputs(package: str, steps: int, out: Path) -> list[str]:
    """Write ``--eval``'s inputs under ``out`` with ``package``: the
    benchmark target of seed 0 at ``EVAL_PER_CLASS`` rows per class, its
    label sets, and the run of seed 0 trained ``steps`` steps.  Returns
    the ``eval`` arguments that read them, without ``--out``."""
    cli = importlib.import_module(f"{package}.cli")
    dt = importlib.import_module(f"{package}.data")
    spec = dt.benchmark_label_spec()
    _, tgt = dt.gen_synthetic(spec, dim=8, per_class=EVAL_PER_CLASS,
                              shift=dt.benchmark_shift(), seed=0)
    out.mkdir()
    dt.save_features(out / "target.features.txt", tgt)
    (out / "labelset.json").write_text(json.dumps({
        "shared": list(spec.shared), "source_private": list(spec.source_private),
        "target_private": list(spec.target_private)}))
    cfg = cli.benchmark_config(seed=0, total_steps=steps)
    cli.run_experiment("checkpoint", cfg, *cli.make_benchmark(cfg), out / "train")
    return ["eval", "--checkpoint", str(out / "train" / "checkpoint.txt"),
            "--target", str(out / "target.features.txt"),
            "--labelset", str(out / "labelset.json"),
            "--w0", repr(cfg.w0), "--scheme", cfg.scheme]


def load_sides(srcs: dict[str, Path], tmp: Path, steps: int,
               op: str = "train", lanes: int = 1) -> dict[str, Side | CliSide]:
    """Copy each ``<src>/udaselect`` to ``tmp/udaselect_<side>`` and load
    it as a ``Side`` of ``lanes`` lanes (``op`` "train"), or as a
    ``CliSide`` writing under ``tmp/runs_<side>`` whose block is the
    scoring grid (``op`` "grid") or an eval of ``eval_inputs`` (``op``
    "eval")."""
    for side, src in srcs.items():
        package = src / "udaselect"
        if not (package / "__init__.py").is_file():
            raise SystemExit(f"no udaselect package under {src}")
        shutil.copytree(package, tmp / f"udaselect_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    if op == "grid":
        return {side: CliSide(f"udaselect_{side}",
                              ["ablate", "--ablation", "scoring", "--seeds", "2",
                               "--steps", str(steps), "--out", str(tmp / f"runs_{side}")],
                              tmp / f"runs_{side}")
                for side in srcs}
    if op == "eval":
        argv = eval_inputs("udaselect_base", steps, tmp / "eval_inputs")
        return {side: CliSide(f"udaselect_{side}",
                              [*argv, "--out", str(tmp / f"runs_{side}" / "eval.json")],
                              tmp / f"runs_{side}")
                for side in srcs}
    return {side: Side(f"udaselect_{side}", steps, lanes) for side in srcs}


def interleaved(call, count: int) -> dict[str, list]:
    """``count`` results of ``call(name)`` per side, the first side
    alternating from one pair of calls to the next."""
    results = {name: [] for name in SIDES}
    for i in range(count):
        for name in (SIDES if i % 2 == 0 else SIDES[::-1]):
            results[name].append(call(name))
    return results


def run(sides: dict[str, Side | CliSide], blocks: int) -> dict[str, list[float]]:
    """CPU seconds of each side's blocks, per lane-step or per call,
    after one untimed warm-up block each."""
    for side in sides.values():
        side.block()
    return interleaved(lambda name: sides[name].block(), blocks)


def report(times: dict[str, list[float]], srcs: dict[str, Path], blocks: str,
           faults: dict[str, list[int]] | None = None, lanes: int = 1) -> str:
    """The summary of a step A/B, in µs per step, or per lane-step of
    blocks of more than one lane, or with ``faults`` (one list per side)
    of a grid or eval A/B, in ms per call.  ``blocks`` names the blocks
    in the line of the pairs the change won."""
    scale, unit = ((1e3, "ms/call") if faults else (1e6, "us/step") if lanes == 1
                   else (1e6, "us/lane-step"))
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
    lines.append(f"change faster in {won} of {len(ratios)} {blocks}")
    return "\n".join(lines)


def phase_report(phases: dict[str, list[dict[str, float]]], unit: str = "us/step") -> str:
    """One line per side, the median and quartiles over its calls of its
    µs per step (``unit``) in each phase and in their total, and one line
    of each phase's per-pair ratio change/base."""
    def spread(values, digits):
        s = summary(values)
        return f"{s['median']:.{digits}f} ({s['q1']:.{digits}f}-{s['q3']:.{digits}f})"

    columns = {name: {**{p: [call[p] for call in calls] for p in PHASES},
                      "total": [sum(call.values()) for call in calls]}
               for name, calls in phases.items()}
    lines = [f"{name:<6} phases {unit}, median (quartiles) of {len(phases[name])} calls: "
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
    parameters and their step logs bit-identical rows, every lane's in
    lane order."""
    (base, base_log), (change, change_log) = (
        (np.concatenate([m.values.ravel() for m, _ in sides[name].trained]),
         np.concatenate([log for _, log in sides[name].trained])) for name in SIDES)
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


def eval_parity(base: Path, change: Path) -> str:
    """Whether the two sides' ``eval.json`` files have the same bytes."""
    a, b = base.read_bytes(), change.read_bytes()
    if a == b:
        return f"eval.json byte-identical: {len(a)} bytes"
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"eval.json differs: {len(a)} and {len(b)} bytes, first at byte {at}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the base side's src/")
    ap.add_argument("--change", type=Path, required=True, help="the changed side's src/")
    ap.add_argument("--blocks", type=int, default=20, help="timed blocks per side")
    ap.add_argument("--steps", type=int,
                    help="training steps per run (default 3000, with --grid 100)")
    ops = ap.add_mutually_exclusive_group()
    ops.add_argument("--grid", action="store_const", dest="op", const="grid", default="train",
                     help="time the benchmark's scoring ablation instead of one train call")
    ops.add_argument("--eval", action="store_const", dest="op", const="eval",
                     help="time the benchmark's eval of a 20k-row target instead")
    ap.add_argument("--lanes", type=int, default=1,
                    help="train the runs of seeds 0..R-1 as the lanes of one stack")
    args = ap.parse_args(argv)
    steps = args.steps if args.steps is not None else 100 if args.op == "grid" else 3000
    if args.blocks < 1 or steps < 1 or args.lanes < 1:
        ap.error("--blocks, --steps and --lanes must be >= 1")
    if args.op != "train" and args.lanes != 1:
        ap.error(f"--lanes does not apply to --{args.op}")
    srcs = {"base": args.base.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        sides = load_sides(srcs, Path(tmp), steps, args.op, args.lanes)
        times = run(sides, args.blocks)
        if args.op != "train":
            # the warm-up block's faults are left out, like its time
            faults = {name: side.faults[1:] for name, side in sides.items()}
            if args.op == "grid":
                print(report(times, srcs, f"grid calls of {steps} steps", faults))
                print(run_parity(sides["base"].out, sides["change"].out))
            else:
                rows = 10 * EVAL_PER_CLASS
                print(report(times, srcs, f"eval calls of {rows} rows", faults))
                print(eval_parity(*(sides[name].out / "eval.json" for name in SIDES)))
            return 0
        phases = interleaved(lambda name: sides[name].phases(), PHASE_CALLS)
    blocks = "blocks" if args.lanes == 1 else f"blocks of {args.lanes} lanes"
    print(report(times, srcs, f"{blocks} of {steps} steps", lanes=args.lanes))
    print(phase_report(phases, "us/step" if args.lanes == 1 else "us/lane-step"))
    print(parity(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
