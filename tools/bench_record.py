"""Run the benchmark on a parent and a changed checkout and record the result.

Run from the root of a checkout:

    python3 tools/bench_record.py --parent ../parent \
        --workload train_single=1-10 --workload eval_large=1-3 --out BENCH_6.json

For every workload and seed it runs each checkout's own, unmodified
``perfbench/run.py --workload <wl> --seed <s> --seconds <n> --trace 0``
as a subprocess in that checkout, ``<n>`` being the ``run_seconds`` that
``BENCHMARK.json`` fixes for both sides, alternating which side runs first
from one seed to the next, and reads the run's
``.bench_out/<wl>-trace0/result.json`` and ``env.json`` there.  The JSON
it writes holds, per workload and side, every run's end-to-end metrics
(``avg_class_acc`` among them) with their median and quartiles, the
failed and attempted counts, and each side's commit and environment,
plus, per metric, the change/parent ratio of each pair and in how many
pairs the change read lower and higher.  Each end-to-end metric that
``BENCHMARK.json`` names also gets a ``verdict`` (see ``verdict``), from
the direction and bound the benchmark gives it.  ``--change`` defaults to the
checkout this script is in.  Both checkouts must be git checkouts with
no uncommitted changes to tracked files, and each workload must be one
``BENCHMARK.json`` lists, given once with a seed list like ``1-10`` or
``1,3``; it refuses anything else before any run.  It measures nothing
itself and changes no bound or setting of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def seeds(spec: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``; ``ValueError`` on a part that is
    not an int or an ascending range."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        out += range(lo, hi + 1)
    return out


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's verdict over paired runs (``parent[i]`` with ``change[i]``).

    ``better``: of at least 10 pairs (chance wins 3 of 3 one time in 8),
    the change wins at least nine tenths, ties counting for neither side,
    and its median beats the parent's by more than the parent's
    interquartile range.  ``worse``: its median is worse than the
    parent's by more than ``bound`` times the parent's.  ``unresolved``
    otherwise.  ``better`` is the direction the benchmark
    gives the metric, ``"lower"`` or ``"higher"``.
    """
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = summary(parent), summary(change)
    gain = sign * (after["median"] - before["median"])
    if (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and gain > before["q3"] - before["q1"]):
        return "better"
    if -gain > bound * abs(before["median"]):
        return "worse"
    return "unresolved"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its result and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"[{checkout.name}] {' '.join(cmd[1:])}", flush=True)
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    out = checkout / ".bench_out" / f"{workload}-trace0"
    return {"result": json.loads((out / "result.json").read_text()),
            "env": json.loads((out / "env.json").read_text())}


def commit(checkout: Path) -> str:
    """The checkout's commit, with ``-dirty`` for uncommitted changes."""
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=checkout, check=True, capture_output=True,
                          text=True).stdout.strip()


def record(checkouts: dict[str, Path], plan: dict[str, list[int]]) -> dict:
    """Run ``plan`` on both checkouts for ``BENCHMARK.json``'s
    ``run_seconds`` each.  Their commits are read first, so a checkout
    that is not a git checkout, or has uncommitted changes, fails before
    any run: a record names the code it measured."""
    commits = {side: commit(path) for side, path in checkouts.items()}
    dirty = [f"{side} ({checkouts[side]})" for side, c in commits.items()
             if c.endswith("-dirty")]
    if dirty:
        raise SystemExit(f"uncommitted changes in the {' and '.join(dirty)} checkout; "
                         "commit them before recording")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = {}
    envs: dict[str, dict] = {}
    for workload, seed_list in plan.items():
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i, seed in enumerate(seed_list):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = run_once(checkouts[side], workload, seed, seconds)
                envs.setdefault(side, run["env"])
                runs[side].append(run["result"])
        sides = {}
        for side in SIDES:
            results = runs[side]
            metrics = {name: dict(summary([r["metrics"][name]["value"] for r in results]),
                                  unit=spec["unit"])
                       for name, spec in results[0]["metrics"].items()}
            sides[side] = {"attempted": sum(r["attempted"] for r in results),
                           "failed": sum(r["failed"] for r in results),
                           "correct": all(r["correct"] for r in results),
                           "metrics": metrics}
        pairs = {}
        for name, spec in sides["parent"]["metrics"].items():
            before, after = spec["values"], sides["change"]["metrics"][name]["values"]
            ratios = [a / b if b else None for a, b in zip(after, before)]
            pairs[name] = {"ratio": ratios,
                           "lower": sum(a < b for a, b in zip(after, before)),
                           "higher": sum(a > b for a, b in zip(after, before))}
            if name in end_to_end:
                pairs[name]["verdict"] = verdict(before, after, end_to_end[name]["better"],
                                                 end_to_end[name]["bound"])
        workloads[workload] = {"seeds": seed_list, "sides": sides, "pairs": pairs}
    return {"seconds": seconds, "commits": commits, "env": envs, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME=SEEDS", help="e.g. train_single=1-10; repeatable")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    known = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    plan = {}
    for item in args.workload:
        name, sep, spec = item.partition("=")
        if not sep:
            parser.error(f"--workload wants NAME=SEEDS, got {item!r}")
        if name not in known:
            parser.error(f"--workload: unknown workload {name!r}; "
                         f"BENCHMARK.json lists {', '.join(known)}")
        try:
            seed_list = seeds(spec)
        except ValueError as exc:
            parser.error(f"--workload {item!r}: bad seed list: {exc}")
        if name in plan:
            parser.error(f"--workload: {name!r} given twice; "
                         "list all its seeds in one NAME=SEEDS")
        plan[name] = seed_list
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = record(checkouts, plan)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
