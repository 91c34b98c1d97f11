"""In-memory span tracer for the udaselect benchmark.

The tracer replaces module attributes of ``udaselect`` with timing
wrappers.  Every caller inside the package looks these names up on the
module at call time (``md.features``, ``ad.backward``, the ``trainer``
module's own ``sample_batch`` and ``train_step`` globals), so a patched
attribute sees every call without any change to the package.  Spans are
kept in a list while the workload runs and written out afterwards; the
per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, span name).  Per-row helpers (``scoring.entropy``,
#: ``evaluation.decide``) are deliberately not wrapped: a span per row
#: would cost more than the row, and their time shows as the self time
#: of ``scoring.score_batch`` and ``evaluation.evaluate``.
TARGETS = (
    ("udaselect.cli", "run_experiment", "cli.run_experiment"),
    ("udaselect.trainer", "train", "trainer.train"),
    ("udaselect.trainer", "train_step", "trainer.train_step"),
    ("udaselect.trainer", "sample_batch", "data.sample_batch"),
    ("udaselect.trainer", "write_metrics", "trainer.write_metrics"),
    ("udaselect.model", "features", "model.features"),
    ("udaselect.model", "label_probs", "model.label_probs"),
    ("udaselect.model", "domain_prob", "model.domain_prob"),
    ("udaselect.model", "save_checkpoint", "model.save_checkpoint"),
    ("udaselect.model", "load_checkpoint", "model.load_checkpoint"),
    ("udaselect.losses", "loss_classification", "losses.loss_classification"),
    ("udaselect.losses", "loss_batch_diversity", "losses.loss_batch_diversity"),
    ("udaselect.losses", "loss_domain", "losses.loss_domain"),
    ("udaselect.losses", "loss_compound", "losses.loss_compound"),
    ("udaselect.autodiff", "backward", "autodiff.backward"),
    ("udaselect.scoring", "scores_from_outputs", "scoring.scores_from_outputs"),
    ("udaselect.scoring", "score_batch", "scoring.score_batch"),
    ("udaselect.scoring", "write_score_dump", "scoring.write_score_dump"),
    ("udaselect.evaluation", "evaluate", "evaluation.evaluate"),
    ("udaselect.evaluation", "export_score_distributions",
     "evaluation.export_score_distributions"),
    ("udaselect.data", "load_features", "data.load_features"),
)

LOSS_SPANS = ("losses.loss_classification", "losses.loss_batch_diversity",
              "losses.loss_domain", "losses.loss_compound")

# span fields
NAME, START, END, PARENT, RUN, NODES0, NODES1 = range(7)


class Tracer:
    """Records spans (name, start, end, parent, run id, node counts).

    ``nodes`` counts every ``autodiff.Node`` constructed while the tracer
    is installed; each span stores the count at its start and end, so
    tape nodes per step are measured where the step happens.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = -1
        self.nodes = 0
        self.counters = {"score_rows": 0, "load_rows": 0, "pseudo_selected": 0,
                         "diversity_selected": 0, "target_rows": 0}
        self._hooks = {
            "scoring.score_batch": self._count_score_rows,
            "data.load_features": self._count_load_rows,
            "trainer.train_step": self._count_selection,
        }

    # -- hooks that read exact counts off the wrapped calls

    def _count_score_rows(self, args, result):
        self.counters["score_rows"] += len(result)

    def _count_load_rows(self, args, result):
        self.counters["load_rows"] += result.n

    def _count_selection(self, args, breakdown):
        self.counters["pseudo_selected"] += breakdown.n_pseudo_selected
        self.counters["diversity_selected"] += breakdown.n_diversity_selected
        self.counters["target_rows"] += len(args[1].target_x)

    # -- recording

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.run_id, self.nodes, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()
        span[NODES1] = self.nodes

    @contextmanager
    def root(self, name: str):
        """A top-level span for one benchmark operation; starts a new run id."""
        self.run_id += 1
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target and ``Node.__init__``; restore them on exit."""
        patched = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                patched.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, name))
            node_cls = importlib.import_module("udaselect.autodiff").Node
            node_init = node_cls.__dict__["__init__"]
            patched.append((node_cls, "__init__", node_init))

            def counting_init(node, *args, **kwargs):
                self.nodes += 1
                node_init(node, *args, **kwargs)

            node_cls.__init__ = counting_init
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- output

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trun\tnodes\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t"
                         f"{s[RUN]}\t{s[NODES1] - s[NODES0]}\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self) -> list[tuple[str, int, float, float, float]]:
        """(name, calls, total s, p50 s, self p50 s) per span name."""
        selfs = self.self_times()
        by_name: dict[str, list[tuple[float, float]]] = {}
        for s, st in zip(self.spans, selfs):
            by_name.setdefault(s[NAME], []).append((s[END] - s[START], st))
        return [(name, len(v), sum(d for d, _ in v),
                 statistics.median(d for d, _ in v),
                 statistics.median(st for _, st in v))
                for name, v in sorted(by_name.items())]

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; a layer the traced phase never called reads 0.

        Step-path metrics count only spans whose parent is a training
        step, so the forward passes inside ``score_batch`` stay out of
        them.
        """
        spans, selfs = self.spans, self.self_times()
        step_ids = {i for i, s in enumerate(spans) if s[NAME] == "trainer.train_step"}
        dur: dict[str, list[float]] = {}
        in_step: dict[str, list[float]] = {}
        self_of: dict[str, list[float]] = {}
        for i, s in enumerate(spans):
            d = s[END] - s[START]
            dur.setdefault(s[NAME], []).append(d)
            self_of.setdefault(s[NAME], []).append(selfs[i])
            if s[PARENT] in step_ids:
                in_step.setdefault(s[NAME], []).append(d)
        steps = len(step_ids)
        step_nodes = sum(spans[i][NODES1] - spans[i][NODES0] for i in step_ids)

        def p(values):
            return statistics.median(values) if values else 0.0

        def p99(values):
            if len(values) < 2:
                return p(values)
            return statistics.quantiles(values, n=100, method="inclusive")[98]

        def rate(count, name):
            total = sum(dur.get(name, ()))
            return count / total if total > 0 else 0.0

        us, ms = 1e6, 1e3
        c = self.counters
        metrics = {
            "autodiff.backward.us": p(in_step.get("autodiff.backward", [])) * us,
            "autodiff.nodes_per_step": step_nodes / steps if steps else 0.0,
            "model.features.us": p(in_step.get("model.features", [])) * us,
            "model.label_probs.us": p(in_step.get("model.label_probs", [])) * us,
            "model.domain_prob.us": p(in_step.get("model.domain_prob", [])) * us,
            "losses.us_per_step": (sum(sum(in_step.get(n, ())) for n in LOSS_SPANS)
                                   / steps * us if steps else 0.0),
        }
        for name in LOSS_SPANS:
            metrics[f"{name}.us"] = p(in_step.get(name, [])) * us
        metrics.update({
            "trainer.train_step.us_p50": p(dur.get("trainer.train_step", [])) * us,
            "trainer.train_step.us_p99": p99(dur.get("trainer.train_step", [])) * us,
            "trainer.train_step.self_us": p(self_of.get("trainer.train_step", [])) * us,
            "data.sample_batch.us": p(dur.get("data.sample_batch", [])) * us,
            "scoring.scores_from_outputs.us":
                p(in_step.get("scoring.scores_from_outputs", [])) * us,
            "scoring.score_batch.rows_per_s": rate(c["score_rows"], "scoring.score_batch"),
            "evaluation.evaluate.self_ms": p(self_of.get("evaluation.evaluate", [])) * ms,
            "data.load_features.rows_per_s": rate(c["load_rows"], "data.load_features"),
            "model.load_checkpoint.ms": p(dur.get("model.load_checkpoint", [])) * ms,
            "cli.run_experiment.self_ms": p(self_of.get("cli.run_experiment", [])) * ms,
            "trainer.write_metrics.ms": p(dur.get("trainer.write_metrics", [])) * ms,
            "scoring.write_score_dump.ms": p(dur.get("scoring.write_score_dump", [])) * ms,
            "evaluation.export_score_distributions.ms":
                p(dur.get("evaluation.export_score_distributions", [])) * ms,
            "model.save_checkpoint.ms": p(dur.get("model.save_checkpoint", [])) * ms,
            "trainer.pseudo_select_ratio": (c["pseudo_selected"] / c["target_rows"]
                                            if c["target_rows"] else 0.0),
            "trainer.diversity_select_ratio": (c["diversity_selected"] / c["target_rows"]
                                               if c["target_rows"] else 0.0),
            "trace.overhead_frac": overhead_frac,
        })
        return metrics
