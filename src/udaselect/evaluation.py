"""Deployment decisions with unknown-class rejection and scoring reports.

A sample is assigned its argmax class only when its transfer score
strictly exceeds the decision threshold; otherwise it is marked with the
reserved unknown symbol.  Accuracy is the macro average of per-class
recall over the shared classes plus the unknown class (micro accuracy is
reported alongside).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import scoring as sc
from .data import TAU, DomainDataset, LabelSetSpec
from .errors import ContractError
from .model import ModelBundle
from .scoring import ScoreTable

HIST_BINS = 50

SCORE_GROUPS = ("source-shared", "source-private", "target-shared", "target-private")


@dataclass
class EvalReport:
    """Per-class recalls over shared classes plus unknown, and their mean,
    with the score table the decisions were made from (not in the JSON)."""

    per_class_recall: dict
    average_class_accuracy: float
    micro_accuracy: float
    counts: dict
    n_evaluated_classes: int
    scores: ScoreTable = field(repr=False, compare=False)

    def to_json(self) -> str:
        payload = {
            "per_class_recall": {str(k): v for k, v in self.per_class_recall.items()},
            "average_class_accuracy": self.average_class_accuracy,
            "micro_accuracy": self.micro_accuracy,
            "counts": {str(k): v for k, v in self.counts.items()},
            "n_evaluated_classes": self.n_evaluated_classes,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def summary(self) -> str:
        lines = ["class  count  recall"]
        for cls in sorted(self.per_class_recall, key=lambda c: (c == TAU, c)):
            name = "tau" if cls == TAU else str(cls)
            recall = self.per_class_recall[cls]
            rec = "   n/a" if recall is None else f"{recall:6.4f}"
            lines.append(f"{name:>5}  {self.counts.get(cls, 0):5d}  {rec}")
        lines.append(f"average class accuracy: {self.average_class_accuracy:.4f}")
        lines.append(f"micro accuracy:         {self.micro_accuracy:.4f}")
        return "\n".join(lines)


def decide(w: np.ndarray, y_bar: np.ndarray, w0: float,
           class_ids: tuple[int, ...]) -> np.ndarray:
    """Apply the rejection rule per sample: the argmax class of its row of
    ``y_bar`` (ties -> lowest index) iff its score in ``w`` exceeds w0,
    else the unknown symbol.

    The argmax array is the output: ``take`` maps it to class ids in
    place (``mode="clip"``, which an argmax never needs, keeps numpy from
    buffering ``out``), and the rejected entries are set to ``TAU``."""
    out = np.asarray(np.argmax(y_bar, axis=-1))  # 0-d for a lone row
    np.take(np.asarray(class_ids), out, out=out, mode="clip")
    out[~(w > w0)] = TAU
    return out


def evaluate(m: ModelBundle, tgt: DomainDataset, spec: LabelSetSpec,
             w0: float, scheme: str = "ours") -> EvalReport:
    """Score, decide and compute macro recall over shared classes plus
    unknown; the report keeps the score table.

    Each class's samples are a boolean mask over the labels (the unknown
    class's: no shared label), so no int table of true classes is made.
    A recall is its hit count over its sample count, and the micro
    accuracy all hits over all samples: the float means of the masks
    divide the same integers."""
    if tgt.n == 0:
        raise ContractError("cannot evaluate on an empty target set")
    scores = sc.score_batch(m, tgt.features, scheme)
    decisions = decide(scores.w, scores.y_bar, w0, m.class_ids)

    unknown = np.ones(tgt.n, dtype=bool)
    for cls in spec.shared:
        unknown &= tgt.labels != cls
    per_class: dict = {}
    counts: dict = {}
    recalls = []
    hits = 0
    for cls in [*spec.shared, TAU]:
        mask = unknown if cls == TAU else tgt.labels == cls
        counts[cls] = int(np.count_nonzero(mask))
        if counts[cls] == 0:
            warnings.warn(f"class {cls} has no test samples; excluded from the mean")
            per_class[cls] = None
            continue
        cls_hits = int(np.count_nonzero(mask & (decisions == cls)))
        hits += cls_hits
        per_class[cls] = cls_hits / counts[cls]
        recalls.append(per_class[cls])
    return EvalReport(
        per_class_recall=per_class,
        average_class_accuracy=float(np.mean(recalls)),
        micro_accuracy=hits / tgt.n,
        counts=counts,
        n_evaluated_classes=len(recalls),
        scores=scores)


def export_score_distributions(path, scores: ScoreTable,
                               groups: np.ndarray, scheme: str = "ours") -> None:
    """Fixed-bin histograms of d, max prob and w for each sample group.

    ``groups`` holds each row's ``SCORE_GROUPS`` name.  One tab-delimited
    file with columns (group, quantity, bin_lo, bin_hi, count); bins span
    each quantity's theoretical range so exports are comparable across
    runs.
    """
    groups = np.asarray(groups)
    unknown = ~np.isin(groups, SCORE_GROUPS)
    if unknown.any():
        raise ContractError(f"unknown score group {groups[unknown][0].item()!r}")
    lo, hi = sc.SCHEME_RANGES[scheme]
    ranges = {"d": (0.0, 1.0), "max_prob": (0.0, 1.0), "w": (lo, hi)}
    values = {"d": scores.d, "max_prob": scores.max_prob, "w": scores.w}
    edges = {qty: np.linspace(qlo, qhi, HIST_BINS + 1) for qty, (qlo, qhi) in ranges.items()}
    # each bin's "quantity<TAB>bin_lo<TAB>bin_hi<TAB>" text, formatted once
    bins = {qty: [f"{qty}\t{b_lo!r}\t{b_hi!r}\t"
                  for b_lo, b_hi in zip(e[:-1].tolist(), e[1:].tolist())]
            for qty, e in edges.items()}
    with open(path, "w") as fh:
        fh.write("group\tquantity\tbin_lo\tbin_hi\tcount\n")
        for group in SCORE_GROUPS:
            mask = groups == group
            if not mask.any():
                continue
            for qty, (qlo, qhi) in ranges.items():
                hist, _ = np.histogram(np.clip(values[qty][mask], qlo, qhi),
                                       bins=edges[qty])
                fh.writelines(f"{group}\t{text}{count}\n"
                              for text, count in zip(bins[qty], hist.tolist()))
