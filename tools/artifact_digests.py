"""Digest every benchmark run artifact, to check that a change keeps them byte-identical.

Run from the root of a checkout:

    python3 tools/artifact_digests.py [--src path/to/other/checkout/src]

It trains and evaluates, in a temporary directory, with the ``udaselect``
found in ``--src`` (default: this checkout's ``src/``), and prints one
``name<TAB>sha256`` line per artifact, sorted by name, then the sha256
of those lines.  Running it on two commits and comparing the last line
is the byte-identity check.  The 127 artifacts are:

- ``<scheme>_s<seed>/<file>``: the 8 files of
  ``run_experiment`` for ``scheme_defaults(benchmark_config(seed=seed,
  total_steps=300), scheme)``, for every scheme and seeds 0 and 1;
- ``<variant>/<file>``: the 8 files of ``run_experiment`` for
  ``benchmark_config(seed=0, total_steps=300, **VARIANTS[variant])``:
  25-row halves through a hidden extractor, a step whose target
  half never reaches the classifier's loss, and a static pseudo-label
  threshold with target-only diversity and DANN's ramped reversal;
- ``full/<file>``: the 8 files of the 3000-step
  ``benchmark_config(seed=0)`` run;
- ``eval_large/<scheme>``: ``evaluate(...).to_json()`` of the ``full``
  checkpoint on a 20k-row target (``per_class=2000``, seed 0) with each
  scheme's default ``w0``;
- ``eval_large/<scheme>.scores``: the raw bytes of every column of
  ``score_batch`` of that checkpoint on that target, in ``ScoreTable``
  field order.  A report moves only when a decision flips; these move
  with any bit of a score of any of the 20k rows;
- ``eval_large_file/<scheme>.scores``: the same columns for that target
  after ``save_features`` and ``load_features``, the path ``udaselect
  eval`` takes: the parsed features are views of the reader's table,
  so this scores strided rows.

Every run is named ``r``, because ``manifest.json`` records the name.
``tests/test_artifact_digests.py`` holds the last line per known host.
Before the static, target-only, ramped variant was added it read ``119
artifacts, list sha256 eba30e0e…db22``, before the file-read scores
``114 artifacts, list sha256 2f56b38d…9aee``, before the score columns
``109 artifacts, list sha256 02d7794f…cda2``, and before the first two
variants ``93 artifacts, list sha256 be11c31f…e8c``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEEDS = (0, 1)
SHORT_STEPS = 300
VARIANTS = {
    "b50_f64x64_fd32": dict(batch_size=50, f_hidden=(64, 64), feature_dim=32),
    "nopl_divoff": dict(pseudo_labels=False, diversity_mode="off"),
    "static_divtgt_ramp": dict(static_w_alpha=1.2, diversity_mode="target_only",
                               grl_mode="ramp"),
}
EVAL_PER_CLASS = 2000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work: Path) -> dict[str, str]:
    from udaselect import cli, data as dt, evaluation as ev, model as md, scoring as sc

    out: dict[str, str] = {}

    def run(key: str, cfg) -> Path:
        src, tgt, spec = cli.make_benchmark(cfg)
        run_dir = work / key
        cli.run_experiment("r", cfg, src, tgt, spec, run_dir)
        for path in sorted(run_dir.iterdir()):
            out[f"{key}/{path.name}"] = sha256(path.read_bytes())
        return run_dir

    for scheme in sc.SCHEMES:
        for seed in SEEDS:
            cfg = cli.benchmark_config(seed=seed, total_steps=SHORT_STEPS)
            run(f"{scheme}_s{seed}", cli.scheme_defaults(cfg, scheme))
    for key, overrides in VARIANTS.items():
        run(key, cli.benchmark_config(seed=0, total_steps=SHORT_STEPS, **overrides))
    full = cli.benchmark_config(seed=0)
    model = md.load_checkpoint(run("full", full) / "checkpoint.txt")
    spec = dt.benchmark_label_spec()
    _, tgt = dt.gen_synthetic(spec, dim=8, per_class=EVAL_PER_CLASS,
                              shift=dt.benchmark_shift(), seed=0)
    dt.save_features(work / "target.features.txt", tgt)
    parsed = dt.load_features(work / "target.features.txt")

    def columns(x, scheme: str) -> str:
        scores = sc.score_batch(model, x, scheme)
        return sha256(b"".join(getattr(scores, f.name).tobytes()
                               for f in fields(sc.ScoreTable)))

    for scheme in sc.SCHEMES:
        w0 = cli.scheme_defaults(full, scheme).w0
        report = ev.evaluate(model, tgt, spec, w0, scheme)
        out[f"eval_large/{scheme}"] = sha256(report.to_json().encode())
        out[f"eval_large/{scheme}.scores"] = columns(tgt.features, scheme)
        out[f"eval_large_file/{scheme}.scores"] = columns(parsed.features, scheme)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the udaselect package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    lines = "".join(f"{name}\t{table[name]}\n" for name in sorted(table))
    print(lines, end="")
    print(f"{len(table)} artifacts, list sha256 {sha256(lines.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
