"""The three training losses and their composition.

Selection masks (which target samples get pseudo-labels, which enter the
diversity term) are computed from scores outside the graph and treated
as constants; pseudo-labels themselves are argmax values with no
gradient through the label choice.  The domain term is added, not
subtracted: the reversal layer upstream of the domain net realizes the
adversarial sign for the feature extractor while the domain net itself
descends on its own loss.
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
    if source_probs.shape[0] == 0:
        raise ContractError("source batch must be non-empty")
    if gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    if len(target_scores) != target_probs.shape[0]:
        raise ContractError("target_scores must align with target_probs rows")
    labels = np.asarray(source_labels, dtype=np.intp)
    if np.any((labels < 0) | (labels >= source_probs.shape[1])):
        raise ContractError(f"source labels must lie in [0, {source_probs.shape[1]})")
    loss = _mean_nll(ad.gather(source_probs, np.arange(len(labels)), labels))
    selected = np.nonzero(np.asarray(target_scores) > w_alpha)[0]
    if len(selected) > 0:
        pseudo = target_probs.value[selected].argmax(axis=1)  # ties -> lowest index
        pseudo_ce = _mean_nll(ad.gather(target_probs, selected, pseudo))
        loss = ad.add(loss, ad.affine(pseudo_ce, gamma))
    return loss, int(len(selected))


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
