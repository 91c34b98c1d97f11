"""Experiment runner: generate data, train, evaluate, sweep and ablate.

Every run writes its artifacts into one directory (effective config,
metrics log, checkpoint, evaluation report, score dump and histograms)
plus a manifest listing them; reruns of the same plan overwrite with
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as dt
from . import evaluation as ev
from . import losses as ls
from . import model as md
from . import scoring as sc
from . import trainer as tr
from .errors import ConfigError, NumericError, UdaError

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def scheme_defaults(cfg: tr.TrainConfig, scheme: str) -> tr.TrainConfig:
    """``cfg`` under ``scheme`` with its three thresholds unset, so
    ``TrainConfig`` gives them ``scheme``'s defaults."""
    return replace(cfg, scheme=scheme, **dict.fromkeys(tr.THRESHOLD_FRACTIONS))


def default_output_root() -> Path:
    return Path(os.environ.get("UDASELECT_OUTPUT_ROOT", "runs"))


# ---------------------------------------------------------------------------
# run machinery


def benchmark_config(**overrides) -> tr.TrainConfig:
    """Tuned hyperparameters for the synthetic benchmark.

    A linear feature extractor suffices here because the synthetic domain
    gap is affine, and it keeps the extractor from folding private-class
    blobs onto source clusters, which would blind the domain classifier.
    """
    base = dict(total_steps=3000, lr=0.01, grl_lambda=0.3,
                f_hidden=(), feature_dim=8)
    base.update(overrides)
    return tr.TrainConfig(**base)


def make_benchmark(cfg: tr.TrainConfig
                   ) -> tuple[dt.DomainDataset, dt.DomainDataset, dt.LabelSetSpec]:
    """The seed-pinned synthetic benchmark (8-d, 60 per class) of the run seed."""
    spec = dt.benchmark_label_spec()
    src, tgt = dt.gen_synthetic(spec, dim=8, per_class=60,
                                shift=dt.benchmark_shift(), seed=cfg.seed)
    return src, tgt, spec


def run_experiment(name: str, cfg: tr.TrainConfig, src: dt.DomainDataset,
                   tgt: dt.DomainDataset, spec: dt.LabelSetSpec,
                   out_dir: Path) -> ev.EvalReport:
    """Train, evaluate and write every artifact of one run.  A run that
    fails before its artifacts are written leaves no directory."""
    model, log = tr.train(src, tgt, cfg)
    report = ev.evaluate(model, tgt, spec, cfg.w0, cfg.scheme)
    domains = {"source": (sc.score_batch(model, src.features, cfg.scheme), src.labels),
               "target": (report.scores, tgt.labels)}

    out_dir.mkdir(parents=True, exist_ok=True)
    tr.write_metrics(out_dir / "metrics.jsonl", log)
    md.save_checkpoint(model, out_dir / "checkpoint.txt")
    (out_dir / "config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n")
    (out_dir / "eval.json").write_text(report.to_json() + "\n")
    (out_dir / "eval.txt").write_text(report.summary() + "\n")
    sc.write_score_dump(out_dir / "scores.tsv", domains)
    ev.export_score_distributions(out_dir / "score_hist.tsv", domains, spec.shared,
                                  cfg.scheme)

    artifacts = ["config.json", "metrics.jsonl", "checkpoint.txt", "eval.json",
                 "eval.txt", "scores.tsv", "score_hist.tsv"]
    manifest = {"name": name, "seed": cfg.seed, "config": cfg.to_dict(),
                "artifacts": artifacts}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return report


def _run_grid(variants: list[tuple[str, tr.TrainConfig]], seed: int, reps: int,
              table: Path) -> None:
    """Run every variant on ``reps`` consecutive seeds from ``seed`` and
    write their accuracies, mean and std as a table beside the runs."""
    if reps < 1:
        raise ConfigError(f"--seeds must be >= 1, got {reps}")
    table.parent.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(["variant"] + [f"seed{seed + i}" for i in range(reps)]
                       + ["mean", "std"])]
    for name, base in variants:
        accs = []
        for i in range(reps):
            cfg = replace(base, seed=base.seed + i)
            src, tgt, spec = make_benchmark(cfg)
            report = run_experiment(name, cfg, src, tgt, spec,
                                    table.parent / f"{name}_seed{cfg.seed}")
            accs.append(report.average_class_accuracy)
        lines.append("\t".join([name] + [f"{a:.4f}" for a in accs]
                               + [f"{np.mean(accs):.4f}", f"{np.std(accs):.4f}"]))
    table.write_text("\n".join(lines) + "\n")
    print(table)
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# verbs


def _read_json(path):
    """The JSON value in the text file at ``path``; undecodable text or
    malformed JSON is a ``ConfigError`` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_labelset(path) -> dt.LabelSetSpec:
    """A label-set JSON object of class-id lists; the two private lists
    default to empty."""
    spec = _read_json(path)
    if not isinstance(spec, dict) or "shared" not in spec:
        raise ConfigError(f"{path}: label set must be a JSON object with a 'shared' list")
    sets = {k: spec.get(k, []) for k in ("shared", "source_private", "target_private")}
    if not all(isinstance(ids, list) and all(type(c) is int for c in ids)
               for ids in sets.values()):
        raise ConfigError(f"{path}: label sets must be lists of integer class ids")
    return dt.LabelSetSpec(**{k: tuple(ids) for k, ids in sets.items()})


def _build_config(args, preset: tr.TrainConfig | None = None) -> tr.TrainConfig:
    """``preset``'s fields, then the ``--config`` file's, then the flags'.
    The preset's thresholds are left out, so one that neither the file
    nor a flag sets is the scheme's default, not the preset's ``ours`` value."""
    base = preset.to_dict() if preset is not None else {}
    base = {k: v for k, v in base.items() if k not in tr.THRESHOLD_FRACTIONS}
    chosen = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        chosen = _read_json(path)
        if not isinstance(chosen, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    chosen = {**chosen, **{f.name: getattr(args, f.name) for f in fields(tr.TrainConfig)
                           if getattr(args, f.name, None) is not None}}
    return tr.TrainConfig.from_dict({**base, **chosen})


def cmd_gen(args) -> int:
    s, p, t = args.shared, args.source_private, args.target_private
    spec = dt.LabelSetSpec(shared=tuple(range(s)),
                           source_private=tuple(range(s, s + p)),
                           target_private=tuple(range(s + p, s + p + t)))
    shift = dt.ShiftConfig(rotation=args.rotation, translation=args.translation,
                           scale=args.scale, noise=args.noise)
    src, tgt = dt.gen_synthetic(spec, dim=args.dim, per_class=args.per_class,
                                shift=shift, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dt.save_features(out / "source.features.txt", src)
    dt.save_features(out / "target.features.txt", tgt)
    (out / "labelset.json").write_text(json.dumps({
        "shared": list(spec.shared), "source_private": list(spec.source_private),
        "target_private": list(spec.target_private), "jaccard": spec.jaccard,
    }, sort_keys=True, indent=2) + "\n")
    print(f"wrote {src.n} source / {tgt.n} target samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _build_config(args, benchmark_config() if args.synthetic else None)
    if args.synthetic:
        src, tgt, spec = make_benchmark(cfg)
    else:
        if not (args.source and args.target and args.labelset):
            raise ConfigError("need --synthetic or --source/--target/--labelset")
        src = dt.load_features(args.source)
        tgt = dt.load_features(args.target)
        if src.dim != tgt.dim:
            raise ConfigError(f"{args.source}: feature dim {src.dim}, but "
                              f"{args.target} has {tgt.dim}")
        spec = _load_labelset(args.labelset)
    out_dir = Path(args.out) if args.out else default_output_root() / args.name
    report = run_experiment(args.name, cfg, src, tgt, spec, out_dir)
    print(report.summary())
    return 0


def cmd_eval(args) -> int:
    w0 = tr.TrainConfig(scheme=args.scheme).w0 if args.w0 is None else args.w0
    sc.check_in_range(args.scheme, "--w0", w0)
    model = md.load_checkpoint(args.checkpoint)
    tgt = dt.load_features(args.target)
    if tgt.dim != model.f.spec.input_dim:
        raise ConfigError(f"{args.target}: feature dim {tgt.dim}, but checkpoint "
                          f"{args.checkpoint} expects {model.f.spec.input_dim}")
    report = ev.evaluate(model, tgt, _load_labelset(args.labelset), w0, args.scheme)
    print(report.summary())
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(report.to_json() + "\n")
    return 0


#: the ``TrainConfig`` field each ``sweep --param`` value sets
_SWEEP_FIELDS = {"w_alpha_static": "static_w_alpha", "w_beta": "w_beta", "w0": "w0"}


def cmd_sweep(args) -> int:
    cfg = _build_config(args, benchmark_config())
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:  # "could not convert string to float: 'a'"
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    names = [f"{args.param}_{v:g}" for v in values]
    for i, name in enumerate(names):
        if name in names[:i]:  # the two runs would share one directory
            raise ConfigError(f"--values: more than one value is named {name}")
    # ``replace`` re-runs ``TrainConfig``'s checks, so an out-of-range value exits 2 here
    variants = [(name, replace(cfg, **{_SWEEP_FIELDS[args.param]: v}))
                for name, v in zip(names, values)]
    out_dir = Path(args.out) if args.out else default_output_root() / f"sweep_{args.param}"
    _run_grid(variants, cfg.seed, args.seeds, out_dir / "sweep.tsv")
    return 0


def cmd_ablate(args) -> int:
    cfg = _build_config(args, benchmark_config())
    if args.ablation == "scoring":
        if cfg != scheme_defaults(cfg, "ours"):
            raise ConfigError("ablate --ablation scoring runs each scheme at its default "
                              "thresholds: drop scheme, w0, w_beta and w_alpha_start")
        variants = [(f"scheme_{s}", scheme_defaults(cfg, s)) for s in sc.SCHEMES]
    elif args.ablation == "pseudo":
        # the static thresholds are fractions of the scheme's range, named
        # by their value under ``ours``' [0, 2]
        variants = [
            ("full", cfg),
            ("no_pseudo_labels", replace(cfg, pseudo_labels=False)),
            ("w_alpha_0", replace(cfg, static_w_alpha=sc.range_point(cfg.scheme, 0.0))),
            ("static_w_alpha_1.2",
             replace(cfg, static_w_alpha=sc.range_point(cfg.scheme, 0.6))),
        ]
    else:
        variants = [
            ("diversity_off", replace(cfg, diversity_mode="off")),
            ("diversity_target_only", replace(cfg, diversity_mode="target_only")),
            ("diversity_both", replace(cfg, diversity_mode="both")),
        ]
    out_dir = Path(args.out) if args.out else default_output_root() / f"ablate_{args.ablation}"
    _run_grid(variants, cfg.seed, args.seeds, out_dir / "ablation.tsv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of training config fields")
    p.add_argument("--gamma", type=float)
    p.add_argument("--w0", type=float)
    p.add_argument("--w-beta", dest="w_beta", type=float)
    p.add_argument("--steps", dest="total_steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--scheme", choices=sc.SCHEMES)
    p.add_argument("--static-w-alpha", dest="static_w_alpha", type=float)
    p.add_argument("--diversity-mode", choices=ls.DIVERSITY_MODES)
    p.add_argument("--no-pseudo-labels", dest="pseudo_labels", action="store_false",
                   default=None)
    p.add_argument("--grl-mode", choices=tr.GRL_MODES)
    p.add_argument("--grl-lambda", dest="grl_lambda", type=float)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udaselect",
        description="Universal domain adaptation with selective pseudo-labels")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic domain pair")
    g.add_argument("--out", required=True)
    g.add_argument("--shared", type=int, default=4)
    g.add_argument("--source-private", dest="source_private", type=int, default=2)
    g.add_argument("--target-private", dest="target_private", type=int, default=6)
    g.add_argument("--dim", type=int, default=16)
    g.add_argument("--per-class", dest="per_class", type=int, default=60)
    g.add_argument("--rotation", type=float, default=dt.benchmark_shift().rotation)
    g.add_argument("--translation", type=float, default=dt.benchmark_shift().translation)
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--noise", type=float, default=dt.benchmark_shift().noise)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train, evaluate and write run artifacts")
    t.add_argument("--name", default="run")
    t.add_argument("--out")
    t.add_argument("--synthetic", action="store_true",
                   help="use the built-in synthetic benchmark")
    t.add_argument("--source", help="labeled source feature file")
    t.add_argument("--target", help="labeled target feature file")
    t.add_argument("--labelset", help="label-set partition JSON")
    _add_config_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--target", required=True)
    e.add_argument("--labelset", required=True)
    e.add_argument("--w0", type=float, help="default: the scheme's default w0")
    e.add_argument("--scheme", choices=sc.SCHEMES, default="ours")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="sweep one threshold parameter")
    s.add_argument("--param", required=True,
                   choices=list(_SWEEP_FIELDS))
    s.add_argument("--values", required=True, help="comma separated values")
    s.add_argument("--seeds", type=int, default=3)
    s.add_argument("--out")
    _add_config_flags(s)
    s.set_defaults(func=cmd_sweep)

    a = sub.add_parser("ablate", help="run a predefined ablation grid")
    a.add_argument("--ablation", required=True,
                   choices=["scoring", "pseudo", "diversity"])
    a.add_argument("--seeds", type=int, default=3)
    a.add_argument("--out")
    _add_config_flags(a)
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
