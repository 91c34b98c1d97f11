"""The three training losses and their composition.

Selection masks (which target samples get pseudo-labels, which enter the
diversity term) are computed from scores outside the graph and treated
as constants; pseudo-labels themselves are argmax values with no
gradient through the label choice.  The domain term is added, not
subtracted: the reversal layer upstream of the domain net realizes the
adversarial sign for the feature extractor while the domain net itself
descends on its own loss.

Each loss exists twice: on autodiff nodes (the engine graph, which is
the gradient oracle and the replay path) and on arrays, as the value
plus a VJP written with the engine's expressions, so that the training
step's hand-derived backward has the engine's bits.  The array losses
take the training step's domain stack, ``(2, half, ·)`` with slice 0
the source and slice 1 the target, and each VJP returns one gradient
shaped like that stack, zero where its term does not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    if ((labels < 0) | (labels >= source_shape[1])).any():
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
# the same losses on arrays: value, selection count and VJP, where a VJP
# maps the loss gradient to the gradient of the domain stack it takes


def _mean_nll_array(p: np.ndarray) -> tuple[float, Callable]:
    """``_mean_nll`` of an array: its value and its VJP.  The mean of no
    entries is 0, which adds nothing to a sum of finite losses."""
    mask = p > PROB_FLOOR
    clamped = np.maximum(p, PROB_FLOOR)
    n = max(p.size, 1)
    return ((-1.0 * np.log(clamped) + 0.0).sum() / n,
            lambda g: -1.0 * (g / n) / clamped * mask)


def classification_array(probs: np.ndarray, source_labels: np.ndarray,
                         target_scores: np.ndarray, w_alpha: float,
                         gamma: float) -> tuple[float, int, Callable]:
    """``loss_classification`` on the domain stack ``probs`` (slice 0 the
    source, slice 1 the target).  The VJP returns the gradient of
    ``probs``, zero outside the labelled and the selected entries."""
    labels = _checked_labels(probs.shape[1:], source_labels, probs.shape[1],
                             target_scores, gamma)
    rows = np.arange(len(labels))
    ce, ce_vjp = _mean_nll_array(probs[0, rows, labels])
    selected = np.nonzero(np.asarray(target_scores) > w_alpha)[0]
    pseudo = probs[1, selected].argmax(axis=1)  # ties -> lowest index
    pseudo_ce, pseudo_vjp = _mean_nll_array(probs[1, selected, pseudo])

    def vjp(g):
        # ``0.0 + g`` into zeros: the engine's ``np.add.at`` scatter
        out = np.zeros(probs.shape)
        out[0, rows, labels] = 0.0 + ce_vjp(g)
        out[1, selected, pseudo] = 0.0 + pseudo_vjp(gamma * g)
        return out

    return ce + (gamma * pseudo_ce + 0.0), int(len(selected)), vjp


def batch_diversity_array(probs: np.ndarray, target_scores: np.ndarray, w_beta: float,
                          mode: str = "both") -> tuple[float, int, Callable]:
    """``loss_batch_diversity`` on the domain stack ``probs``.  The VJP
    returns the gradient of ``probs``, zero in the rows the term leaves
    out: all of them under ``off``, the source under ``target_only``."""
    if mode not in DIVERSITY_MODES:
        raise ContractError(f"unknown diversity mode {mode!r}")
    selected = np.nonzero(np.asarray(target_scores) > w_beta)[0]
    if mode == "off":
        selected = selected[:0]
    source = probs[0] if mode == "both" else probs[0, :0]
    y_bars = np.concatenate((source, probs[1, selected]))
    n = max(len(y_bars), 1)  # with no rows the term is 0
    means = y_bars.sum(axis=0) / n

    def vjp(g):
        row = 2.0 * means * g / n
        out = np.zeros(probs.shape)
        out[0, :len(source)] = row
        out[1, selected] = 0.0 + row
        return out

    return (means * means).sum(), int(len(selected)), vjp


def domain_array(d: np.ndarray) -> tuple[float, Callable]:
    """``loss_domain`` on the domain stack ``d``; the VJP returns its gradient."""
    if d.size == 0:
        raise ContractError("domain loss requires non-empty batches")
    l_s, vjp_s = _mean_nll_array(d[0])
    l_t, vjp_t = _mean_nll_array(-1.0 * d[1] + 1.0)
    return l_s + l_t, lambda g: np.array((vjp_s(g), -1.0 * vjp_t(g)))
