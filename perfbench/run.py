"""Benchmark runner for udaselect.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_single --seed 0 --seconds 20 --trace 0

The runner imports ``udaselect`` from the checkout's ``src/`` and times
calls into its public functions from outside; the package is not
modified.  It is a closed loop with one caller in one process: each
operation starts after the previous one returned.  BLAS runs on one
thread.

Each invocation sets up several times (import in a fresh interpreter,
data generation, checkpoint preparation) and reports the median, runs
one untimed warm-up, then repeats the workload's operation for
``--seconds`` (at least three times) and reports medians.  Every time
is calibrated against a fixed reference loop run between slices of the
work (``calibrate.py``): it is reported in seconds at the reference
speed of the tuning host, because that host's own speed drifts too
much for raw wall times to compare across runs.  The raw times are
printed next to them.  Every
operation is checked: metrics lines equal steps, all logged values and
weights are finite, accuracies lie in [0, 1], re-evaluating each saved
checkpoint reproduces the run's ``eval.json`` exactly, and the artifact
digests of every repetition equal the first one's.

With ``--trace 1`` every repetition is followed by one under the span
tracer (``tracing.py``); the traced artifacts must match the untraced
digests, the per-layer metrics come from the spans, and the tracing cost
compares the two halves.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.  Artifacts, spans, the
environment record and the result go to ``.bench_out/`` in the checkout.

``--workload all`` runs every workload, each in its own process, and
prints one table of all their metrics by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from calibrate import Calibrator, import_seconds
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

#: times every set-up and operation against the reference loop
CAL = Calibrator()

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: set-ups per run; a cheap set-up (import and data generation, about
#: 0.15 s) is repeated more often than one that trains a checkpoint
SETUP_REPEATS = 9
MIN_ITERATIONS = 3
WARMUP_STEPS = 50
#: steps per run of the scoring ablation; 10 short runs keep one
#: iteration at 3-4 s, so a 20 s run repeats it five to seven times
ABLATE_STEPS = 100
ABLATE_SEEDS = 2
#: the ablation trains every scoring scheme (ours, uan, entropy,
#: ours_no_d, ours_no_maxy) on every seed
ABLATE_RUNS = 5 * ABLATE_SEEDS
#: 10 target classes x 2000 rows = 20k rows in the eval file
EVAL_PER_CLASS = 2000

ARTIFACTS = ("metrics.jsonl", "checkpoint.txt", "eval.json")


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def load_package() -> SimpleNamespace:
    """Import udaselect from this checkout's ``src/`` with BLAS on one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "udaselect" / "__init__.py").is_file():
        raise SystemExit(f"udaselect sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import udaselect
    if Path(udaselect.__file__).resolve().parent != SRC / "udaselect":
        raise SystemExit(f"imported udaselect from {udaselect.__file__}, not from {SRC}")
    from udaselect import cli, data, evaluation, model
    return SimpleNamespace(cli=cli, dt=data, ev=evaluation, md=model)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.parent.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def call_cli(cli, argv: list[str]) -> None:
    """Run one CLI verb in-process; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"udaselect {argv[0]} exited with {code}")


def check_accuracy(report: dict) -> float:
    acc = report["average_class_accuracy"]
    values = [acc, report["micro_accuracy"],
              *(r for r in report["per_class_recall"].values() if r is not None)]
    if not all(0.0 <= v <= 1.0 for v in values):
        raise CheckFailed(f"accuracy outside [0, 1]: {values}")
    return acc


@dataclass
class Sample:
    """One checked repetition of a workload's operation.

    ``wall`` is in calibrated seconds (see ``calibrate.py``); ``raw`` is
    the same time on the clock, without the probes.
    """

    wall: float
    digests: dict
    acc: float
    steps: int = 0
    raw: float = 0.0


def reevaluate(pkg, checkpoint: Path, eval_json: Path, tgt, w0: float, scheme: str) -> None:
    """Evaluating the saved checkpoint again must reproduce ``eval_json`` exactly."""
    model = pkg.md.load_checkpoint(checkpoint)
    report = pkg.ev.evaluate(model, tgt, pkg.dt.benchmark_label_spec(), w0, scheme)
    if report.to_json() + "\n" != eval_json.read_text():
        raise CheckFailed(f"re-evaluating {checkpoint} differs from {eval_json}")


class TrainWorkload:
    """Shared checks for workloads whose operation writes training runs."""

    setup_repeats = SETUP_REPEATS

    def __init__(self, pkg, steps: int):
        self.pkg, self.steps = pkg, steps

    def prepare_seeds(self, seeds: list[int]) -> None:
        cli = self.pkg.cli
        self.data = {s: cli.make_benchmark(cli.benchmark_config(seed=s)) for s in seeds}

    def check(self, runs: list[Path], wall: float) -> Sample:
        accs, steps = [], 0
        for run in runs:
            cfg = json.loads((run / "config.json").read_text())
            lines = (run / "metrics.jsonl").read_text().splitlines()
            if len(lines) != cfg["total_steps"]:
                raise CheckFailed(f"{run.name}: {len(lines)} metrics lines "
                                  f"for {cfg['total_steps']} steps")
            steps += len(lines)
            for line in lines:
                for key, v in json.loads(line).items():
                    if isinstance(v, float) and not math.isfinite(v):
                        raise CheckFailed(f"{run.name}: non-finite {key} in metrics")
            weights = (run / "checkpoint.txt").read_text().splitlines()[2::2]
            if not all(math.isfinite(float.fromhex(t)) for ln in weights for t in ln.split()):
                raise CheckFailed(f"{run.name}: non-finite checkpoint weight")
            accs.append(check_accuracy(json.loads((run / "eval.json").read_text())))
            tgt = self.data[cfg["seed"]][1]
            reevaluate(self.pkg, run / "checkpoint.txt", run / "eval.json", tgt,
                       cfg["w0"], cfg["scheme"])
        digests = {a: digest([run / a for run in runs]) for a in ARTIFACTS}
        return Sample(wall, digests, statistics.fmean(accs), steps)

    def steps_per_s(self, samples: list[Sample], wall: float) -> float:
        return samples[0].steps / wall


class TrainSingle(TrainWorkload):
    """One ``cli.run_experiment`` on ``benchmark_config(seed)``."""

    name = "train_single"

    def __init__(self, pkg, steps: int = 3000):
        super().__init__(pkg, steps)

    def prepare(self, seed: int, work: Path) -> None:
        self.cfg = self.pkg.cli.benchmark_config(seed=seed, total_steps=self.steps)
        self.prepare_seeds([seed])

    def warm_up(self, out: Path) -> None:
        cfg = replace(self.cfg, total_steps=WARMUP_STEPS)
        self.pkg.cli.run_experiment(self.name, cfg, *self.data[cfg.seed], out)

    def run(self, out: Path) -> list[Path]:
        self.pkg.cli.run_experiment(self.name, self.cfg, *self.data[self.cfg.seed], out)
        return [out]


class AblateScoring(TrainWorkload):
    """``udaselect ablate --ablation scoring``: 5 schemes x 2 seeds."""

    name = "ablate_scoring"

    def __init__(self, pkg, steps: int = ABLATE_STEPS):
        super().__init__(pkg, steps)

    def prepare(self, seed: int, work: Path) -> None:
        """Target sets for the checks; the ablation generates its own data."""
        self.seed = seed
        self.prepare_seeds([seed + i for i in range(ABLATE_SEEDS)])

    def _ablate(self, out: Path, steps: int) -> list[Path]:
        call_cli(self.pkg.cli, ["ablate", "--ablation", "scoring",
                                "--seeds", str(ABLATE_SEEDS), "--seed", str(self.seed),
                                "--steps", str(steps), "--out", str(out)])
        runs = sorted(p for p in out.iterdir() if p.is_dir())
        table = (out / "ablation.tsv").read_text().splitlines()
        if len(runs) != ABLATE_RUNS or len(table) != 1 + ABLATE_RUNS // ABLATE_SEEDS:
            raise CheckFailed(f"ablation wrote {len(runs)} runs, {len(table)} table lines")
        return runs

    def warm_up(self, out: Path) -> None:
        self._ablate(out, WARMUP_STEPS // 5)

    def run(self, out: Path) -> list[Path]:
        return self._ablate(out, self.steps)


class EvalLarge:
    """``udaselect eval`` of one trained checkpoint on a large target file."""

    name = "eval_large"
    #: each set-up trains a 3000-step checkpoint
    setup_repeats = 3

    def __init__(self, pkg, per_class: int = EVAL_PER_CLASS, steps: int = 3000):
        self.pkg, self.per_class, self.train_steps = pkg, per_class, steps
        self.train_s: list[float] = []
        self.checkpoints: set[bytes] = set()

    def prepare(self, seed: int, work: Path) -> None:
        cli, dt = self.pkg.cli, self.pkg.dt
        spec = dt.benchmark_label_spec()
        _, self.tgt = dt.gen_synthetic(spec, dim=8, per_class=self.per_class,
                                       shift=dt.benchmark_shift(), seed=seed)
        dt.save_features(work / "target.features.txt", self.tgt)
        (work / "labelset.json").write_text(json.dumps({
            "shared": list(spec.shared), "source_private": list(spec.source_private),
            "target_private": list(spec.target_private)}))
        self.cfg = cli.benchmark_config(seed=seed, total_steps=self.train_steps)
        src_b, tgt_b, spec_b = cli.make_benchmark(self.cfg)
        with CAL.segment() as seg:
            cli.run_experiment("checkpoint", self.cfg, src_b, tgt_b, spec_b, work / "train")
        self.train_s.append(seg.calibrated)
        self.checkpoints.add((work / "train" / "checkpoint.txt").read_bytes())
        if len(self.checkpoints) != 1:
            raise CheckFailed("repeated set-up trained different checkpoints")
        self.work = work

    def warm_up(self, out: Path) -> None:
        self.run(out)

    def run(self, out: Path) -> list[Path]:
        out.mkdir(parents=True)
        call_cli(self.pkg.cli, ["eval", "--checkpoint", str(self.work / "train" / "checkpoint.txt"),
                                "--target", str(self.work / "target.features.txt"),
                                "--labelset", str(self.work / "labelset.json"),
                                "--w0", repr(self.cfg.w0), "--scheme", self.cfg.scheme,
                                "--out", str(out / "eval.json")])
        return [out]

    def check(self, runs: list[Path], wall: float) -> Sample:
        report = json.loads((runs[0] / "eval.json").read_text())
        acc = check_accuracy(report)
        if sum(report["counts"].values()) != self.tgt.n:
            raise CheckFailed(f"eval counted {sum(report['counts'].values())} "
                              f"of {self.tgt.n} rows")
        reevaluate(self.pkg, self.work / "train" / "checkpoint.txt", runs[0] / "eval.json",
                   self.tgt, self.cfg.w0, self.cfg.scheme)
        return Sample(wall, {"eval.json": digest([runs[0] / "eval.json"])}, acc)

    def steps_per_s(self, samples: list[Sample], wall: float) -> float:
        """The set-up's checkpoint training rate; the timed loop never trains."""
        return self.train_steps / statistics.median(self.train_s)


WORKLOADS = {w.name: w for w in (TrainSingle, AblateScoring, EvalLarge)}


def set_up(wl, seed: int, work: Path) -> float:
    """Prepare ``wl.setup_repeats`` times; the median import-plus-prepare time.

    The import is timed in a fresh interpreter against a reference
    import, the preparation by the probes run around and inside it.
    """
    times = []
    with CAL.installed():
        for _ in range(wl.setup_repeats):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            imported = import_seconds("udaselect.cli", str(SRC))
            with CAL.segment() as seg:
                wl.prepare(seed, work)
            times.append(imported + seg.calibrated)
    return statistics.median(times)


def run_once(wl, out: Path, tracer=None) -> Sample:
    """One checked repetition of the operation, under ``tracer`` if given.

    Under the tracer the calibration hooks are not installed, so probes
    run only at both ends of the operation and no span contains one.
    """
    def span(name):
        return tracer.root(name) if tracer is not None else contextlib.nullcontext()

    it_dir = out / "iteration"
    shutil.rmtree(it_dir, ignore_errors=True)
    with tracer.installed() if tracer is not None else CAL.installed():
        with CAL.segment() as seg:
            with span("bench.operation"):
                runs = wl.run(it_dir)
        with span("bench.check"):
            return replace(wl.check(runs, seg.calibrated), raw=seg.seconds)


def measure(wl, out: Path, seconds: float, count: int | None = None, tracer=None
            ) -> tuple[list[Sample], list[Sample], int, int]:
    """Repeat the operation; returns (untraced, traced samples, attempted, failed).

    It runs ``count`` rounds, or rounds for ``seconds`` and at least
    ``MIN_ITERATIONS`` of them.  A round is one untraced repetition and,
    with a ``tracer``, one traced repetition right after it, so that both
    see the same machine state.  Every sample's artifact digests must
    equal the first one's.
    """
    samples: dict[bool, list[Sample]] = {False: [], True: []}
    attempted = failed = rounds = 0
    reference = None
    start = perf_counter()
    while not (rounds >= count if count is not None else
               rounds >= MIN_ITERATIONS and perf_counter() - start >= seconds):
        rounds += 1
        for traced in ((False, True) if tracer is not None else (False,)):
            attempted += 1
            try:
                sample = run_once(wl, out, tracer if traced else None)
                reference = reference or sample.digests
                if sample.digests != reference:
                    raise CheckFailed(f"artifact digests {sample.digests} "
                                      f"differ from {reference}")
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            samples[traced].append(sample)
    return samples[False], samples[True], attempted, failed


def end_to_end(wl, setup_s: float, samples: list[Sample]) -> dict[str, float]:
    wall = statistics.median(s.wall for s in samples)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "steps_per_s": wl.steps_per_s(samples, wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "avg_class_acc": samples[0].acc,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(args) -> int:
    """Run every workload in its own process and print one table of metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            print(f"{name:15s} {metric:42s} {v['value']:16.6f} {v['unit']}")
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload](load_package())
    out = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    (out / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env", json.dumps(env))

    setup_s = set_up(wl, args.seed, out / "inputs")
    wl.warm_up(out / "warmup")
    tracer = Tracer() if args.trace else None
    samples, traced, attempted, failed = measure(wl, out, args.seconds, tracer=tracer)

    if tracer is not None and samples and traced:
        tracer.write(out / "spans.tsv")
        print(f"{'span':42s} {'calls':>6s} {'total_ms':>11s} {'p50_us':>10s} {'self_p50_us':>12s}")
        for name, calls, total, p50, self_p50 in tracer.summary():
            print(f"{name:42s} {calls:6d} {total * 1e3:11.1f} {p50 * 1e6:10.1f} "
                  f"{self_p50 * 1e6:12.1f}")
        overhead = (statistics.median(s.wall for s in traced)
                    / statistics.median(s.wall for s in samples) - 1.0)
        values = tracer.layer_metrics(overhead)
    elif tracer is None and samples:
        values = end_to_end(wl, setup_s, samples)
    else:
        values = {}

    if samples:
        print("iteration walls, calibrated/raw (s):",
              " ".join(f"{s.wall:.4f}/{s.raw:.4f}" for s in samples))
        if traced:
            print("traced iteration walls, calibrated/raw (s):",
                  " ".join(f"{s.wall:.4f}/{s.raw:.4f}" for s in traced))
        print(f"reference probes: {len(CAL.probe_times)}, mean "
              f"{statistics.fmean(CAL.probe_times) * 1e3:.3f} ms")
        print(f"artifact digests, identical over {len(samples)} iterations:",
              json.dumps(samples[0].digests, sort_keys=True))
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if values and set(values) != set(units):
        raise SystemExit(f"computed metrics {sorted(values)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
