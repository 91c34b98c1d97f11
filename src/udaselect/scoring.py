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
from .errors import ConfigError, ContractError, NumericError
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


def range_point(scheme: str, frac: float) -> float:
    """The point a fraction ``frac`` of the way through the scheme's score range."""
    lo, hi = SCHEME_RANGES[scheme]
    return lo + frac * (hi - lo)


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
    """Shannon entropy in nats along the last axis, with 0*log(0) = 0.

    The value is ``-(p * log(where(p > 0, p, 1))).sum(axis=-1)`` bit for
    bit.  Where ``md.row_sum`` folds (``md.sum_folds``: 256 rows or more
    of 2 to 7 classes), the per-class terms are added column by column
    into one value per row, in numpy's order, so no float temporary of
    the table's shape is made; a 20k x 6 table holds 0.96 MB.  There the
    checked ``|row_sum - 1|`` buffer holds each column's term in turn,
    written in place by the same ufuncs, so the pass holds one row-sized
    float array beside its output.  The input checks are
    ``fmin``/``fmax`` reductions, which skip a NaN as the comparisons
    ``p < 0`` and ``|sum - 1| > 1e-9`` do.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size and np.fmin.reduce(p, axis=None) < 0:
        raise ContractError("entropy requires nonnegative entries")
    off = np.abs(md.row_sum(p) - 1.0)
    if off.size and np.fmax.reduce(off, axis=None) > 1e-9:
        raise ContractError(f"entropy requires probability vectors, |sum-1|={off.max()}")
    if not md.sum_folds(p):
        return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)
    h = np.zeros(p.shape[:-1])
    term = off
    for j in range(p.shape[-1]):
        c = p[..., j]
        term.fill(1.0)
        np.copyto(term, c, where=c > 0)
        np.log(term, out=term)
        np.multiply(c, term, out=term)
        h += term
    return np.negative(h, out=h)


def _checked(scheme: str, d, y_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``score_for_scheme``'s argument checks; ``d`` and ``y_bar`` as float arrays."""
    if scheme not in SCHEMES:
        raise ContractError(f"unknown scheme {scheme!r}")
    d = np.asarray(d, dtype=np.float64)
    y_bar = np.asarray(y_bar, dtype=np.float64)
    if (scheme in ("ours", "uan", "ours_no_maxy") and d.size
            and not (np.minimum.reduce(d, axis=None) >= 0.0
                     and np.maximum.reduce(d, axis=None) <= 1.0)):
        outside = ~((d >= 0.0) & (d <= 1.0))
        raise ContractError(f"d must be in [0,1], got {d[outside].flat[0]}")
    if scheme in ("uan", "entropy") and y_bar.shape[-1] < 2:
        raise ContractError(f"{scheme} score needs at least 2 classes")
    return d, y_bar


def _scheme_score(scheme: str, d: np.ndarray, k: int, max_prob, h) -> np.ndarray:
    """The scheme's score from its columns: ``max_prob`` under ``ours``
    and ``ours_no_d``, the entropy ``h`` of ``k`` classes under ``uan``
    and ``entropy``, each None where the scheme does not read it."""
    if scheme == "ours":
        return d + max_prob
    if scheme == "uan":
        return d - h / np.log(k)
    if scheme == "entropy":
        return 1.0 - h / np.log(k)
    if scheme == "ours_no_d":
        return max_prob.copy()
    return d.copy()


def score_for_scheme(scheme: str, d, y_bar: np.ndarray) -> np.ndarray:
    """The scheme's score for each domain probability in ``d`` and the
    matching probability row (last axis) of ``y_bar``.

    ``ours`` is d + max prob in [0, 2], ``uan`` is d - H/ln(K) in
    [-1, 1], ``entropy`` is 1 - H/ln(K) in [0, 1] (1 for one-hot, 0 for
    uniform), and the two ablations keep one summand of ``ours``.  The
    ``d`` range check is a min and a max reduction, which a NaN fails.
    """
    d, y_bar = _checked(scheme, d, y_bar)
    max_prob = md.row_max(y_bar) if scheme in ("ours", "ours_no_d") else None
    h = entropy(y_bar) if scheme in ("uan", "entropy") else None
    return _scheme_score(scheme, d, y_bar.shape[-1], max_prob, h)


def scores_from_outputs(d: np.ndarray, probs: np.ndarray, scheme: str) -> np.ndarray:
    """``score_for_scheme`` with the training step's argument order."""
    return score_for_scheme(scheme, d, probs)


def score_batch(m: ModelBundle, x: np.ndarray, scheme: str) -> ScoreTable:
    """Score every row of ``x`` under the array forward (no gradients).

    ``md.predict`` runs the rows in blocks of 512, which bounds the
    forward's memory on large files and leaves every bit of every column
    as one forward over all of ``x`` would give it.  The scores and the
    other columns are computed once, over all rows, after the forward;
    a non-finite value in any block replays the engine over all of ``x``,
    and its ``NumericError`` names the op after ``scoring:``.
    ``max_prob``, ``entropy`` and the scores reduce the class axis with
    ``md.row_max`` and ``md.row_sum``'s fold, so on a table of 256 rows or
    more they make one ufunc call per class, not one per row, and make
    no float temporary of the table's shape; the bits are numpy's.  The
    score ``w`` is ``score_for_scheme``'s formula of the ``max_prob`` and
    ``entropy`` columns, so each is computed once.
    """
    try:
        probs, d = md.predict(m, x)
    except NumericError:  # the engine forward's NumericError names the op
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                feats = md.features(m, x)
                probs, d = md.label_probs(m, feats).value, md.domain_prob(m, feats, 0.0).value
            except NumericError as exc:
                raise NumericError(f"scoring: {exc}") from exc
    d, probs = _checked(scheme, d[:, 0], probs)
    max_prob, h = md.row_max(probs), entropy(probs)
    return ScoreTable(d=d, y_bar=probs, max_prob=max_prob, entropy=h,
                      w=_scheme_score(scheme, d, probs.shape[-1], max_prob, h))


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
