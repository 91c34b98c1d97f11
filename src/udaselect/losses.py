"""The three training losses and their composition.

Selection masks (which target samples get pseudo-labels, which enter the
diversity term) are computed from scores outside the graph and treated
as constants; pseudo-labels themselves are argmax values with no
gradient through the label choice.  The domain term is added, not
subtracted: the reversal layer upstream of the domain net realizes the
adversarial sign for the feature extractor while the domain net itself
descends on its own loss.

Each loss exists twice: on autodiff nodes (the engine graph, which is
the gradient oracle and the replay path) and on arrays.  The array
mirror is one function, ``compound_array``: each lane's breakdown of
``loss_compound`` and the gradients of the training step's two stacks
of lanes, ``(R, 2, half, ·)`` with a lane's slice 0 its source and
slice 1 its target, for a loss gradient of 1.  It is written with the engine's
expressions, so that the step's hand-derived backward has the engine's
bits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ContractError

PROB_FLOOR = 1e-12

DIVERSITY_MODES = ("off", "target_only", "both")


class LossBreakdown(NamedTuple):
    """Per-step loss values and selection counts."""

    l_c: float
    l_bd: float
    l_d: float
    total: float
    n_pseudo_selected: int
    n_diversity_selected: int


def _mean_nll(p: Node) -> Node:
    """Mean of -log(p) over every entry, each probability floored at 1e-12."""
    return ad.mean_all(ad.affine(ad.log(ad.clamp_min(p, PROB_FLOOR)), -1.0))


def loss_classification(source_probs: Node, source_labels: np.ndarray,
                        target_probs: Node, target_scores: np.ndarray,
                        w_alpha: float, gamma: float) -> tuple[Node, int]:
    """Source CE plus gamma-weighted pseudo-label CE on selected targets.

    A target sample is selected when its score strictly exceeds
    ``w_alpha``; its pseudo-label is its own argmax prediction, treated
    as a constant.  With nothing selected the second term is zero.
    Returns the loss node and the selection count.
    """
    labels = _checked_labels(source_probs.shape, source_labels, target_probs.shape[0],
                             target_scores, gamma)
    loss = _mean_nll(ad.gather(source_probs, np.arange(len(labels)), labels))
    selected = np.nonzero(np.asarray(target_scores) > w_alpha)[0]
    if len(selected) > 0:
        pseudo = target_probs.value[selected].argmax(axis=1)  # ties -> lowest index
        pseudo_ce = _mean_nll(ad.gather(target_probs, selected, pseudo))
        loss = ad.add(loss, ad.affine(pseudo_ce, gamma))
    return loss, int(len(selected))


def _checked_labels(source_shape: tuple[int, ...], source_labels: np.ndarray,
                    n_target: int, target_scores: np.ndarray, gamma: float) -> np.ndarray:
    """``loss_classification``'s argument checks for sources of
    ``source_shape``, ``lead + (rows, K)``, and ``n_target`` targets per
    lead index; the labels as indices."""
    lead, (rows, k) = source_shape[:-2], source_shape[-2:]
    if rows == 0 or 0 in lead:
        raise ContractError("source batch must be non-empty")
    if gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    if np.shape(target_scores) != lead + (n_target,):
        raise ContractError("target_scores must align with target_probs rows")
    labels = np.asarray(source_labels, dtype=np.intp)
    if labels.shape != lead + (rows,):
        raise ContractError("source_labels must align with source_probs rows")
    # as an unsigned integer a negative label is above any class count
    if np.maximum.reduce(labels.view(np.uintp), axis=None) >= k:
        raise ContractError(f"source labels must lie in [0, {k})")
    return labels


def diversity_term(y_bars: Node) -> Node:
    """Sum of squared column means; in [1/K, 1] for probability rows."""
    if y_bars.shape[0] == 0:
        raise ContractError("diversity_term requires a non-empty batch")
    return ad.sum_all(ad.square(ad.mean_rows(y_bars)))


def loss_batch_diversity(source_probs: Node, target_probs: Node,
                         target_scores: np.ndarray, w_beta: float,
                         mode: str = "both") -> tuple[Node, int]:
    """Diversity term over source rows plus targets scoring above w_beta.

    ``mode`` drops the source rows (``target_only``) or disables the loss
    (``off``); an empty selected set yields a zero contribution.
    """
    if mode not in DIVERSITY_MODES:
        raise ContractError(f"unknown diversity mode {mode!r}")
    if mode == "off":
        return ad.constant(0.0), 0
    selected = np.nonzero(np.asarray(target_scores) > w_beta)[0]
    parts = []
    if mode == "both":
        parts.append(source_probs)
    if len(selected) > 0:
        parts.append(ad.take_rows(target_probs, selected))
    if not parts:
        return ad.constant(0.0), 0
    return diversity_term(ad.concat_rows(parts)), int(len(selected))


def loss_domain(d_source: Node, d_target: Node) -> Node:
    """Binary cross-entropy with label 1 for source and 0 for target."""
    if d_source.value.size == 0 or d_target.value.size == 0:
        raise ContractError("domain loss requires non-empty batches")
    return ad.add(_mean_nll(d_source), _mean_nll(ad.affine(d_target, -1.0, 1.0)))


def loss_compound(l_c: Node, l_bd: Node, l_d: Node,
                  n_pseudo_selected: int, n_diversity_selected: int
                  ) -> tuple[Node, LossBreakdown]:
    """Sum the three terms; the reversal layer supplies the adversarial sign."""
    total = ad.add(ad.add(l_c, l_bd), l_d)
    breakdown = LossBreakdown(
        l_c=float(l_c.value), l_bd=float(l_bd.value), l_d=float(l_d.value),
        total=float(total.value), n_pseudo_selected=n_pseudo_selected,
        n_diversity_selected=n_diversity_selected)
    return total, breakdown


# ---------------------------------------------------------------------------
# the same loss on arrays, for a stack of lanes: each lane's breakdown and
# the gradients of the two stacks it takes, for a loss gradient of 1


@lru_cache
def _layout(lanes: int, half: int, k: int, mode: str) -> tuple[np.ndarray, ...]:
    """Shared read-only constants of ``compound_array`` on ``(lanes, 2,
    half, k)`` stacks: the flat index of the first entry of each source
    row and of each target row, ``(lanes, half)`` each, the gradient
    scale of each entry of the half-sized NLL segments, and the
    diversity weight of the source rows under ``mode`` with no target
    row chosen, ``(lanes, 2 * half, 1)``."""
    starts = np.arange(0, lanes * 2 * half * k, k).reshape(lanes, 2, half)
    src, tgt = starts[:, 0].copy(), starts[:, 1].copy()
    s_d = -1.0 * (1.0 / half)
    scale = np.array([s_d, -s_d] * lanes + [-1.0 * (1.0 / half)] * lanes).repeat(half)
    weight = np.zeros((lanes, 2 * half, 1))
    weight[:, :half] = float(mode == "both")
    for a in (src, tgt, scale, weight):
        a.flags.writeable = False
    return src, tgt, scale, weight


def compound_array(probs: np.ndarray, d: np.ndarray, source_labels: np.ndarray,
                   target_scores: np.ndarray, w_alpha: np.ndarray, w_beta: np.ndarray,
                   gamma: float, mode: str
                   ) -> tuple[list[LossBreakdown], np.ndarray, np.ndarray]:
    """``loss_compound`` of the three losses, once per lane, on the stacks
    ``probs`` ``(R, 2, half, K)`` and ``d`` ``(R, 2, half, 1)`` (lane r's
    slice 0 its source, slice 1 its target): each lane's breakdown, and
    the gradients of ``probs`` and ``d``, each shaped like its stack.
    ``source_labels`` and ``target_scores`` are ``(R, half)``; each lane
    selects its own targets against its own thresholds, the ``(R, 1)``
    columns ``w_alpha`` and ``w_beta`` (a scalar is every lane's), so the
    selection counts are per lane.  Every lane gets the bits of the loss
    of its own.

    Every NLL entry of the step goes into one vector, in segments: each
    lane's source ``d`` and target ``-1.0 * d + 1.0``, then each lane's
    labelled source probabilities, ``half`` entries each, then each
    lane's selected targets' pseudo-label probabilities.  The
    probabilities are one ``take`` at their flat indices ``at`` in
    ``probs``.  One clamp, log and gradient pass runs over the vector in
    place.  Each term's mean is its own segment's sum over the segment's
    size (the mean of no entries is 0).  The ``half``-entry sums are one
    reduction over their rows, which gives each row the bits of its own;
    a lane's pseudo-label sum is one reduction of its own segment
    (``add.reduceat`` sums a segment in another order).  Each segment's
    gradient scale is ``_mean_nll``'s ``-1.0 * (upstream / n)``, and the
    target domain's ``affine`` sign is folded into its scale: ``(-s) / c
    * m`` is ``-1.0 * (s / c * m)`` bit for bit, zeros included.

    The diversity rows are a 0/1 weight over each lane's ``(2 * half,
    K)`` rows of ``probs``: numpy reduces that axis row after row, and a
    left-out row adds ``+0.0``, so the column sums are those of the
    chosen rows alone.  The head gradient is ``weight * row`` with the
    CE gradient added at ``at``.  The probabilities are ``>= +0.0``, so
    ``weight * row`` holds no ``-0.0``: where no row is chosen it is
    ``+0.0``, and adding a ``-0.0`` CE gradient to it gives ``+0.0`` as
    the engine's scatter ``0.0 + g`` does.  Each entry is thus the
    engine's one- or two-term sum.  The domain gradient is a view of the
    gradient vector's head.
    """
    if probs.ndim != 4 or probs.shape[1] != 2:
        raise ContractError(f"probs must be an (R, 2, half, K) stack of lanes, "
                            f"got {probs.shape}")
    lanes, _, half, k = probs.shape
    labels = _checked_labels((lanes, half, k), source_labels, half, target_scores, gamma)
    scores = np.asarray(target_scores)
    if mode not in DIVERSITY_MODES:
        raise ContractError(f"unknown diversity mode {mode!r}")
    if d.shape != (lanes, 2, half, 1):
        raise ContractError(f"d must be the {(lanes, 2, half, 1)} domain stack, "
                            f"got {d.shape}")
    src_at, tgt_at, scale, weight = _layout(lanes, half, k, mode)
    fixed = 3 * lanes * half  # the entries of the half-sized segments
    # each lane's pseudo-labelled targets, then its diversity targets
    chosen = np.zeros((2, lanes, half), bool)
    picked = np.greater(scores, w_alpha, out=chosen[0])
    if mode != "off":
        np.greater(scores, w_beta, out=chosen[1])
    # the counts as Python ints: numpy's own ints are slow in the per-lane
    # arithmetic below
    n_pl, n_div = np.add.reduce(chosen, axis=2).tolist()
    at = np.empty(lanes * half + sum(n_pl), np.intp)
    np.add(src_at, labels, out=at[:lanes * half].reshape(lanes, half))
    # ties -> lowest index
    at[lanes * half:] = np.add(tgt_at, probs[:, 1].argmax(axis=-1))[picked]
    p = np.empty(len(at) + 2 * lanes * half)
    p_d = p[:2 * lanes * half].reshape(d.shape)
    p_d[:, 0] = d[:, 0]
    # the engine's -1.0 * d + 1.0: adding -d is subtracting d
    np.subtract(1.0, d[:, 1], out=p_d[:, 1])
    probs.take(at, out=p[2 * lanes * half:], mode="clip")
    grad = np.empty(len(p))
    grad[:fixed] = scale
    start = fixed
    for n in n_pl:
        grad[start:start + n] = -1.0 * (gamma / max(n, 1))
        start += n
    above = p > PROB_FLOOR
    np.maximum(p, PROB_FLOOR, out=p)
    grad /= p
    grad *= above
    nll = np.log(p, out=p)
    # the engine's -1.0 * x + 0.0: both are 0.0 - x, signed zeros included
    np.subtract(0.0, nll, out=nll)
    sums = np.add.reduce(nll[:fixed].reshape(3 * lanes, half), axis=1).tolist()

    if mode != "off":
        weight = weight.copy()
        weight[:, half:, 0] = chosen[1]
    # each lane's chosen rows, exact as a sum of 0/1; with no rows the term is 0
    n = np.maximum(np.add.reduce(weight, axis=1), 1.0)
    g_probs = probs.reshape(lanes, 2 * half, k) * weight
    means = np.add.reduce(g_probs, axis=1) / n
    row = 2.0 * means / n
    np.multiply(weight, row[:, None], out=g_probs)
    g_probs.reshape(-1)[at] += grad[2 * lanes * half:]
    l_bds = np.add.reduce(means * means, axis=1).tolist()

    breakdowns, start = [], fixed
    for sum_ds, sum_dt, sum_src, c_pl, c_div, l_bd in zip(
            sums[:2 * lanes:2], sums[1:2 * lanes:2], sums[2 * lanes:], n_pl, n_div, l_bds):
        sum_pl = float(np.add.reduce(nll[start:start + c_pl]))
        start += c_pl
        l_c = sum_src / half + (gamma * (sum_pl / max(c_pl, 1)) + 0.0)
        l_d = sum_ds / half + sum_dt / half
        breakdowns.append(LossBreakdown(l_c, l_bd, l_d, l_c + l_bd + l_d, c_pl, c_div))
    return breakdowns, g_probs.reshape(probs.shape), grad[:2 * lanes * half].reshape(d.shape)
