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
mirror is one function, ``compound_array``: the breakdown of
``loss_compound`` and the gradients of the training step's two domain
stacks, ``(2, half, ·)`` with slice 0 the source and slice 1 the
target, for a loss gradient of 1.  It is written with the engine's
expressions, so that the step's hand-derived backward has the engine's
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ContractError

PROB_FLOOR = 1e-12

DIVERSITY_MODES = ("off", "target_only", "both")


@dataclass(frozen=True)
class LossBreakdown:
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


def _checked_labels(source_shape: tuple[int, int], source_labels: np.ndarray,
                    n_target: int, target_scores: np.ndarray, gamma: float) -> np.ndarray:
    """``loss_classification``'s argument checks; the labels as indices."""
    if source_shape[0] == 0:
        raise ContractError("source batch must be non-empty")
    if gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    if len(target_scores) != n_target:
        raise ContractError("target_scores must align with target_probs rows")
    labels = np.asarray(source_labels, dtype=np.intp)
    if len(labels) != source_shape[0]:
        raise ContractError("source_labels must align with source_probs rows")
    # as an unsigned integer a negative label is above any class count
    if labels.size and np.maximum.reduce(labels.view(np.uintp), axis=None) >= source_shape[1]:
        raise ContractError(f"source labels must lie in [0, {source_shape[1]})")
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
# the same loss on arrays: its breakdown and the gradients of the two
# domain stacks it takes, for a loss gradient of 1


def compound_array(probs: np.ndarray, d: np.ndarray, source_labels: np.ndarray,
                   target_scores: np.ndarray, w_alpha: float, w_beta: float,
                   gamma: float, mode: str
                   ) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """``loss_compound`` of the three losses on the domain stacks ``probs``
    and ``d`` (slice 0 the source, slice 1 the target, ``half`` rows
    each): the breakdown and the gradients of ``probs`` and ``d``, each
    shaped like its stack.

    Every NLL entry of the step goes into one vector, in segments: the
    source ``d``, the target's ``-1.0 * d + 1.0`` and the labelled source
    probabilities, ``half`` entries each, then the selected targets'
    pseudo-label probabilities.  The probabilities are one ``take`` at
    their flat indices ``at`` in ``probs``.  One clamp, log and gradient
    pass runs over the vector in place.  Each term's mean is its own
    segment's sum over the segment's size (the mean of no entries is 0);
    the three ``half``-entry sums are one reduction over their rows,
    which gives each row the bits of its own.  Each segment's gradient
    scale is ``_mean_nll``'s ``-1.0 * (upstream / n)``, and the target
    domain's ``affine`` sign is folded into its scale: ``(-s) / c * m``
    is ``-1.0 * (s / c * m)`` bit for bit, zeros included.

    The diversity rows are a 0/1 weight over the ``(2 * half, K)`` rows
    of ``probs``: numpy reduces axis 0 row after row, and a left-out row
    adds ``+0.0``, so the column sums are those of the chosen rows alone.
    The head gradient is ``weight * row`` with the CE gradient added at
    ``at``.  The probabilities are ``>= +0.0``, so ``weight * row`` holds
    no ``-0.0``: where no row is chosen it is ``+0.0``, and adding a
    ``-0.0`` CE gradient to it gives ``+0.0`` as the engine's scatter
    ``0.0 + g`` does.  Each entry is thus the engine's one- or two-term
    sum.  The domain gradient is a view of the gradient vector's head.
    """
    labels = _checked_labels(probs.shape[1:], source_labels, probs.shape[1],
                             target_scores, gamma)
    if mode not in DIVERSITY_MODES:
        raise ContractError(f"unknown diversity mode {mode!r}")
    if d[0].size == 0:
        raise ContractError("domain loss requires non-empty batches")
    half, k = probs.shape[1:]
    if d.shape != (2, half, 1):
        raise ContractError(f"d must be the (2, {half}, 1) domain stack, got {d.shape}")
    scores = np.asarray(target_scores)
    picked = (scores > w_alpha).nonzero()[0]
    n_pl = len(picked)
    row_at = np.arange(0, 2 * half * k, k)  # each row's first entry in probs
    at = np.empty(half + n_pl, np.intp)
    np.add(row_at[:half], labels, out=at[:half])
    np.add(row_at[half:][picked], probs[1, picked].argmax(axis=1),  # ties -> lowest
           out=at[half:])
    p = np.empty(3 * half + n_pl)
    p[:2 * half].reshape(d.shape)[...] = d
    target_d = p[half:2 * half]
    target_d *= -1.0
    target_d += 1.0
    probs.take(at, out=p[2 * half:], mode="clip")
    s_d = -1.0 * (1.0 / half)
    grad = np.array((s_d, -s_d, -1.0 * (1.0 / half), -1.0 * (gamma / max(n_pl, 1)))
                    ).repeat((half, half, half, n_pl))
    above = p > PROB_FLOOR
    np.maximum(p, PROB_FLOOR, out=p)
    grad /= p
    grad *= above
    nll = np.log(p, out=p)
    nll *= -1.0
    nll += 0.0
    sum_ds, sum_dt, sum_src = np.add.reduce(nll[:3 * half].reshape(3, half), axis=1).tolist()
    l_c = sum_src / half + (gamma * (float(np.add.reduce(nll[3 * half:])) / max(n_pl, 1))
                            + 0.0)
    l_d = sum_ds / half + sum_dt / half

    weight = np.zeros(2 * half)
    if mode == "both":
        weight[:half] = 1.0
    if mode != "off":
        weight[half:] = scores > w_beta
    n_div = int(np.count_nonzero(weight[half:]))
    n = max(half * (mode == "both") + n_div, 1)  # with no rows the term is 0
    g_probs = probs.reshape(2 * half, k) * weight[:, None]
    means = np.add.reduce(g_probs, axis=0) / n
    row = 2.0 * means / n
    np.multiply(weight[:, None], row, out=g_probs)
    g_probs.reshape(-1)[at] += grad[2 * half:]
    l_bd = float(np.add.reduce(means * means))

    breakdown = LossBreakdown(
        l_c=l_c, l_bd=l_bd, l_d=l_d, total=l_c + l_bd + l_d,
        n_pseudo_selected=n_pl, n_diversity_selected=n_div)
    return breakdown, g_probs.reshape(probs.shape), grad[:2 * half].reshape(d.shape)
