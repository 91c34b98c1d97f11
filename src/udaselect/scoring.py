"""Sample transfer scores used for pseudo-label selection and rejection.

The main score adds the domain classifier's source probability to the
label classifier's top probability.  Two competitor schemes (the
domain-minus-entropy score and a pure entropy score) plus two single
component ablations are exposed under the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import model as md
from .errors import ConfigError, ContractError
from .model import ModelBundle

# theoretical score range per scheme, used for threshold validation and
# histogram bin edges
SCHEME_RANGES = {
    "ours": (0.0, 2.0),
    "uan": (-1.0, 1.0),
    "entropy": (0.0, 1.0),
    "ours_no_d": (0.0, 1.0),
    "ours_no_maxy": (0.0, 1.0),
}
SCHEMES = tuple(SCHEME_RANGES)


def check_in_range(scheme: str, name: str, value: float) -> None:
    """Raise ``ConfigError`` unless ``value`` lies in the scheme's score range."""
    lo, hi = SCHEME_RANGES[scheme]
    if not lo <= value <= hi:
        raise ConfigError(f"{name}={value} outside [{lo}, {hi}] for scheme {scheme!r}")


@dataclass(frozen=True)
class ScoreTable:
    """Score columns of a batch, one entry (``y_bar``: one row) per sample."""

    d: np.ndarray
    y_bar: np.ndarray
    max_prob: np.ndarray
    entropy: np.ndarray
    w: np.ndarray

    def __len__(self) -> int:
        return len(self.d)


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis, with 0*log(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ContractError("entropy requires nonnegative entries")
    off = np.abs(p.sum(axis=-1) - 1.0)
    if np.any(off > 1e-9):
        raise ContractError(f"entropy requires probability vectors, |sum-1|={off.max()}")
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def score_for_scheme(scheme: str, d, y_bar: np.ndarray) -> np.ndarray:
    """The scheme's score for each domain probability in ``d`` and the
    matching probability row (last axis) of ``y_bar``.

    ``ours`` is d + max prob in [0, 2], ``uan`` is d - H/ln(K) in
    [-1, 1], ``entropy`` is 1 - H/ln(K) in [0, 1] (1 for one-hot, 0 for
    uniform), and the two ablations keep one summand of ``ours``.
    """
    if scheme not in SCHEMES:
        raise ContractError(f"unknown scheme {scheme!r}")
    d = np.asarray(d, dtype=np.float64)
    y_bar = np.asarray(y_bar, dtype=np.float64)
    outside = ~((d >= 0.0) & (d <= 1.0))
    if scheme in ("ours", "uan", "ours_no_maxy") and np.any(outside):
        raise ContractError(f"d must be in [0,1], got {d[outside].flat[0]}")
    if scheme in ("uan", "entropy") and y_bar.shape[-1] < 2:
        raise ContractError(f"{scheme} score needs at least 2 classes")
    if scheme == "ours":
        return d + y_bar.max(axis=-1)
    if scheme == "uan":
        return d - entropy(y_bar) / np.log(y_bar.shape[-1])
    if scheme == "entropy":
        return 1.0 - entropy(y_bar) / np.log(y_bar.shape[-1])
    if scheme == "ours_no_d":
        return y_bar.max(axis=-1)
    return d.copy()


def scores_from_outputs(d: np.ndarray, probs: np.ndarray, scheme: str) -> np.ndarray:
    """``score_for_scheme`` with the training step's argument order."""
    return score_for_scheme(scheme, d, probs)


def score_batch(m: ModelBundle, x: np.ndarray, scheme: str) -> ScoreTable:
    """Score every row of ``x`` under the array forward (no gradients).

    ``md.predict`` runs the rows in blocks of 1024, which bounds the
    forward's memory on large files and leaves every bit of every column
    as one forward over all of ``x`` would give it.  The scores and the
    other columns are computed once, over all rows, after the forward;
    a non-finite value in any block replays the engine over all of ``x``.
    """
    try:
        probs, d = md.predict(m, x)
    except md.NonFinite:  # the engine forward raises the NumericError naming the op
        with np.errstate(over="ignore", invalid="ignore"):
            feats = md.features(m, x)
            probs, d = md.label_probs(m, feats).value, md.domain_prob(m, feats, 0.0).value
    d = d[:, 0]
    return ScoreTable(d=d, y_bar=probs, max_prob=probs.max(axis=-1),
                      entropy=entropy(probs), w=score_for_scheme(scheme, d, probs))


def concat(tables: list[ScoreTable]) -> ScoreTable:
    """The tables' rows, in order, as one table."""
    return ScoreTable(**{f.name: np.concatenate([getattr(t, f.name) for t in tables])
                         for f in fields(ScoreTable)})


def write_score_dump(path, scores: ScoreTable, domains: np.ndarray,
                     labels: np.ndarray) -> None:
    """One tab-delimited row per sample, for external density plots: its
    domain name, its integer class label and its score columns."""
    rows = zip(domains.tolist(), labels.tolist(), scores.d.tolist(),
               scores.max_prob.tolist(), scores.entropy.tolist(), scores.w.tolist())
    with open(path, "w") as fh:
        fh.write("id\tdomain\tlabel\td\tmax_prob\tentropy\tw\n")
        for i, (dom, y, d, mp, h, w) in enumerate(rows):
            fh.write(f"{i}\t{dom}\t{y}\t{d!r}\t{mp!r}\t{h!r}\t{w!r}\n")
