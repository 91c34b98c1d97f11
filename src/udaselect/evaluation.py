"""Deployment decisions with unknown-class rejection and scoring reports.

A sample is assigned its argmax class only when its transfer score
strictly exceeds the decision threshold; otherwise it is marked with the
reserved unknown symbol.  Accuracy is the macro average of per-class
recall over the shared classes plus the unknown class (micro accuracy is
reported alongside).

A report is made of counts only: ``tally`` decides each block of score
rows and adds up its per-class hits and sample counts, so nothing of a
block's size outlives it.  ``evaluate`` scores the target in blocks of
``EVAL_BLOCK_ROWS`` rows; a run (``cli.write_run``) passes the one
score table of its whole target, which its score dump needs, as a single
block.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import model as md
from . import scoring as sc
from .data import TAU, DomainDataset, LabelSetSpec
from .errors import ContractError, NumericError
from .model import ModelBundle
from .scoring import ScoreTable

HIST_BINS = 50

#: target rows per ``score_batch`` call of ``evaluate``.  A multiple of
#: ``predict``'s block, so every forward row stays in the block of
#: ``md._BLOCK_ROWS`` it has in one call over the whole target
#: (``md.row_blocks``), and every score keeps its bits.  On the 20k-row
#: benchmark target (one BLAS thread, a 2-vCPU Xeon), ``evaluate`` took
#: 13.3 ms in blocks of 1024 rows, 12.6 ms at 2048, 12.2 ms at 4096 and
#: 11.6 ms in one block (medians of 40 interleaved calls), while the
#: ``udaselect eval`` verb took 63-65 ms at every size.  30 of those
#: verb calls peaked at 39.9, 40.0, 40.4 and 41.0 MB of RSS (VmHWM), and
#: load plus ``evaluate`` at 2.24, 2.39, 2.68 and 3.37 MB (tracemalloc):
#: 2048 keeps all but 0.1 MB of the saving in half the calls of 1024.
EVAL_BLOCK_ROWS = 4 * md._BLOCK_ROWS


@dataclass
class EvalReport:
    """Per-class recalls over shared classes plus unknown, their mean,
    the micro accuracy and each class's sample count: counts only, no
    row of the target."""

    per_class_recall: dict
    average_class_accuracy: float
    micro_accuracy: float
    counts: dict
    n_evaluated_classes: int

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


def tally(blocks: Iterable[tuple[ScoreTable, np.ndarray]], spec: LabelSetSpec,
          w0: float, class_ids: tuple[int, ...]) -> EvalReport:
    """Decide each ``(scores, labels)`` block, add up each class's hits
    and samples over the blocks, and report macro recall over the shared
    classes plus unknown.

    Each class's samples in a block are a boolean mask over its labels
    (the unknown class's: no shared label), so no int table of true
    classes is made.  The counts are ints, so the report does not depend
    on how the rows were cut into blocks: a recall is its hit count over
    its sample count, and the micro accuracy all hits over all samples.
    A class with no samples is warned about once and left out of the
    mean; no rows at all is a ``ContractError``."""
    classes = [*spec.shared, TAU]
    hits, counts = [0] * len(classes), [0] * len(classes)
    for scores, labels in blocks:
        decisions = decide(scores.w, scores.y_bar, w0, class_ids)
        unknown = np.ones(len(labels), dtype=bool)
        for cls in spec.shared:
            unknown &= labels != cls
        for j, cls in enumerate(classes):
            mask = unknown if cls == TAU else labels == cls
            counts[j] += int(np.count_nonzero(mask))
            hits[j] += int(np.count_nonzero(mask & (decisions == cls)))
    n = sum(counts)
    if n == 0:
        raise ContractError("cannot evaluate on an empty target set")
    per_class: dict = {}
    recalls = []
    for cls, cls_hits, count in zip(classes, hits, counts):
        if count == 0:
            warnings.warn(f"class {cls} has no test samples; excluded from the mean")
            per_class[cls] = None
            continue
        per_class[cls] = cls_hits / count
        recalls.append(per_class[cls])
    return EvalReport(
        per_class_recall=per_class,
        average_class_accuracy=float(np.mean(recalls)),
        micro_accuracy=sum(hits) / n,
        counts=dict(zip(classes, counts)),
        n_evaluated_classes=len(recalls))


def evaluate(m: ModelBundle, tgt: DomainDataset, spec: LabelSetSpec,
             w0: float, scheme: str = "ours") -> EvalReport:
    """Score, decide and count the target in blocks of ``EVAL_BLOCK_ROWS``
    rows (``md.row_blocks``), one ``sc.score_batch`` call each, and
    report the counts (``tally``).

    Every score has the bits of one ``score_batch`` over the whole
    target, so the report is that table's, and no score outlives its
    block.  A ``NumericError`` in any block replays the whole target, so
    the error names the op that one call over all rows names."""
    blocks = ((sc.score_batch(m, tgt.features[rows], scheme), tgt.labels[rows])
              for rows in md.row_blocks(tgt.n, EVAL_BLOCK_ROWS))
    try:
        return tally(blocks, spec, w0, m.class_ids)
    except NumericError:
        sc.score_batch(m, tgt.features, scheme)
        raise


def export_score_distributions(path, domains: dict[str, tuple[ScoreTable, np.ndarray]],
                               shared, scheme: str = "ours") -> None:
    """Fixed-bin histograms of d, max prob and w for each sample group.

    ``domains`` maps each domain's name to its score table and labels.
    For each domain in order, the rows whose label is in ``shared`` form
    group ``<domain>-shared`` and the others ``<domain>-private``; an
    empty group is left out.  One tab-delimited file with columns
    (group, quantity, bin_lo, bin_hi, count); bins span each quantity's
    theoretical range so exports are comparable across runs.
    """
    lo, hi = sc.SCHEME_RANGES[scheme]
    ranges = {"d": (0.0, 1.0), "max_prob": (0.0, 1.0), "w": (lo, hi)}
    edges = {qty: np.linspace(qlo, qhi, HIST_BINS + 1) for qty, (qlo, qhi) in ranges.items()}
    # each bin's "quantity<TAB>bin_lo<TAB>bin_hi<TAB>" text, formatted once
    bins = {qty: [f"{qty}\t{b_lo!r}\t{b_hi!r}\t"
                  for b_lo, b_hi in zip(e[:-1].tolist(), e[1:].tolist())]
            for qty, e in edges.items()}
    with open(path, "w") as fh:
        fh.write("group\tquantity\tbin_lo\tbin_hi\tcount\n")
        for dom, (scores, labels) in domains.items():
            is_shared = np.isin(labels, shared)
            for kind, mask in (("shared", is_shared), ("private", ~is_shared)):
                if not mask.any():
                    continue
                for qty, (qlo, qhi) in ranges.items():
                    hist, _ = np.histogram(np.clip(getattr(scores, qty)[mask], qlo, qhi),
                                           bins=edges[qty])
                    fh.writelines(f"{dom}-{kind}\t{text}{count}\n"
                                  for text, count in zip(bins[qty], hist.tolist()))
