"""Training loop: paired batches, three losses, one adversarial SGD step.

The compound loss is minimized with SGD-plus-momentum over all
parameters at once; the reversal layer inside the domain branch makes
that single step adversarial for the feature extractor.

A step's loss is one autodiff op (``step_op``) whose one parent is the
model's flat parameter leaf: its value and loss gradients come from the
array forwards and losses, and its VJP chains the networks' hand-derived
backwards.  The source and target halves share every network, so they
run stacked on a leading domain axis: one forward and one backward per
network per step.  ``autodiff.backward`` adds its gradient into the
flat ``grads`` with one add.  ``engine_loss`` builds the same loss from
one node per op; it is the oracle the step op is tested against bit for
bit, and the replay that names the op when a step meets a non-finite
value.  A step calls the node forwards and node losses only when it
replays, so on a run with no replay the benchmark's per-layer spans of
them read 0 and it counts one node per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import model as md
from . import scoring as sc
from .autodiff import Node
from .data import DomainBatch, DomainDataset, batches
# imported for the benchmark's tracer and calibrator, which wrap it here
from .data import sample_batch  # noqa: F401
from .errors import ConfigError, ContractError, NumericError
from .model import MlpSpec, ModelBundle

GRL_MODES = ("constant", "ramp")

#: fraction of each scheme's score range used for the default thresholds,
#: taken from the main scheme's defaults on [0, 2]
THRESHOLD_FRACTIONS = {"w0": 0.5, "w_beta": 0.4, "w_alpha_start": 0.75}

#: the value types ``TrainConfig.from_dict`` accepts per field annotation
_FIELD_TYPES = {"float": (int, float), "float | None": (int, float, type(None)),
                "int": int, "str": str, "bool": bool, "tuple[int, ...]": (list, tuple)}


def _finite(v) -> bool:
    """``math.isfinite``, False for an int too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TrainConfig:
    """All hyperparameters of one training run.  A threshold left None
    (``w0``, ``w_beta``, ``w_alpha_start``) is its ``THRESHOLD_FRACTIONS``
    of the scheme's score range: ``ours``' 1.0, 0.8 and 1.5 of [0, 2]."""

    gamma: float = 0.6
    w0: float = None
    w_beta: float = None
    total_steps: int = 3000
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    grl_mode: str = "constant"
    grl_lambda: float = 1.0
    scheme: str = "ours"
    static_w_alpha: float | None = None
    w_alpha_start: float = None
    diversity_mode: str = "both"
    pseudo_labels: bool = True
    seed: int = 0
    f_hidden: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    d_hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type.startswith("float") and v is not None and not _finite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        if self.scheme not in sc.SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        for name, frac in THRESHOLD_FRACTIONS.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, sc.range_point(self.scheme, frac))
        sc.check_in_range(self.scheme, "w0", self.w0)
        sc.check_in_range(self.scheme, "w_beta", self.w_beta)
        if self.static_w_alpha is not None:
            sc.check_in_range(self.scheme, "static_w_alpha", self.static_w_alpha)
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.grl_mode not in GRL_MODES:
            raise ConfigError(f"unknown grl_mode {self.grl_mode!r}")
        if self.diversity_mode not in ls.DIVERSITY_MODES:
            raise ConfigError(f"unknown diversity_mode {self.diversity_mode!r}")
        if self.grl_lambda < 0:
            raise ConfigError(f"grl_lambda must be >= 0, got {self.grl_lambda}")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["f_hidden"] = list(self.f_hidden)
        d["d_hidden"] = list(self.d_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Check each given field's type and reject unknown keys.  A JSON
        boolean is only a ``bool`` field's value and a null a ``| None`` one's."""
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, v in d.items():
            items = v if isinstance(v, (list, tuple)) else ()
            if (not isinstance(v, _FIELD_TYPES[types[name]])
                    or isinstance(v, bool) != (types[name] == "bool")
                    or any(type(n) is not int for n in items)):
                raise ConfigError(f"config field {name} must be {types[name]}, got {v!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


#: one ``TrainState.log`` row per step: the step's ``LossBreakdown`` and
#: its applied pseudo-label threshold, +inf where none applies
LOG_DTYPE = np.dtype([("l_c", np.float64), ("l_bd", np.float64), ("l_d", np.float64),
                      ("total", np.float64), ("n_pseudo_selected", np.int64),
                      ("n_diversity_selected", np.int64), ("w_alpha", np.float64)])


@dataclass
class TrainState:
    """The model, the flat momentum buffer ``v`` (laid out like
    ``model.values``), the step log with one row per step of the budget,
    and the index ``t`` of the next step: rows before ``t`` are written."""

    model: ModelBundle
    log: np.ndarray
    t: int = 0
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.v = np.zeros_like(self.model.values)


def w_alpha(t: int, total_steps: int, w0: float, start: float = 1.5) -> float:
    """Linearly decaying selection threshold from ``start`` down to ``w0``."""
    if total_steps < 1 or not 0 <= t <= total_steps:
        raise ContractError(f"need 0 <= t <= T with T >= 1, got t={t}, T={total_steps}")
    return start - (t / total_steps) * (start - w0)


def grl_coefficient(cfg: TrainConfig, t: int) -> float:
    if cfg.grl_mode == "constant":
        return cfg.grl_lambda
    progress = t / max(cfg.total_steps, 1)
    return cfg.grl_lambda * (2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0)


def init_state(src: DomainDataset, cfg: TrainConfig) -> TrainState:
    # a sorted set, not ``np.unique``: that imports ``numpy.ma``, about
    # 1 MB of peak RSS, which no run otherwise imports
    class_ids = tuple(sorted({int(y) for y in src.labels.tolist()}))
    spec_f = MlpSpec(src.dim, cfg.f_hidden, cfg.feature_dim)
    spec_c = MlpSpec(cfg.feature_dim, (), len(class_ids), "softmax")
    spec_d = MlpSpec(cfg.feature_dim, cfg.d_hidden, 1, "sigmoid")
    return TrainState(model=md.init(spec_f, spec_c, spec_d, cfg.seed, class_ids=class_ids),
                      log=np.zeros(cfg.total_steps, LOG_DTYPE))


def _applied_w_alpha(cfg: TrainConfig, t: int) -> float:
    """The pseudo-label threshold in effect at step t; +inf disables."""
    if not cfg.pseudo_labels:
        return math.inf
    if cfg.static_w_alpha is not None:
        return cfg.static_w_alpha
    return w_alpha(t, cfg.total_steps, cfg.w0, cfg.w_alpha_start)


def engine_loss(m: ModelBundle, x: np.ndarray, labels: np.ndarray, lam: float,
                threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """The compound loss as the engine graph, one node per op, on the
    ``(2, half, dim)`` stack ``x`` of a ``DomainBatch``."""
    feats_s = md.features(m, x[0])
    feats_t = md.features(m, x[1])
    probs_s = md.label_probs(m, feats_s)
    probs_t = md.label_probs(m, feats_t)
    d_s = md.domain_prob(m, feats_s, lam)
    d_t = md.domain_prob(m, feats_t, lam)

    scores = sc.scores_from_outputs(d_t.value[:, 0], probs_t.value, cfg.scheme)
    l_c, n_pl = ls.loss_classification(probs_s, labels, probs_t, scores,
                                       threshold, cfg.gamma)
    l_bd, n_div = ls.loss_batch_diversity(probs_s, probs_t, scores,
                                          cfg.w_beta, cfg.diversity_mode)
    l_d = ls.loss_domain(d_s, d_t)
    return ls.loss_compound(l_c, l_bd, l_d, n_pl, n_div)


def step_op(m: ModelBundle, x: np.ndarray, labels: np.ndarray, lam: float,
            threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """``engine_loss`` as one op over ``m.flat``, with its value and
    parameter gradients bit for bit.

    Source and target run as the batch's one ``(2, half, dim)`` stack
    ``x``, so each network has one forward and one VJP; slice 0 is the
    source half and slice 1 the target half.  ``losses.compound_array``
    takes the stacks of probabilities and domain outputs and returns the
    breakdown and one gradient per stack for a loss gradient of 1.  The
    VJP scales them by ``g`` and keeps the engine's op order: a tensor
    used twice gets the sum of its two gradients where the engine sums
    them.  Each network's VJP writes its parameter gradients per half
    into ``m.halves``, and the gradient of ``m.flat`` is the source half
    plus the target half.
    Raises ``NumericError`` where ``engine_loss`` does: a non-finite
    input, layer pre-activation or total (the returned ``Node`` checks
    the total).  Its only caller, ``train_step``, runs it under the
    step's ``np.errstate``.
    ``lam`` must be >= 0, which ``TrainConfig`` ensures.
    """
    x = np.asarray(x, dtype=np.float64)
    md.check_finite(x)
    tape_f, tape_c, tape_d = [], [], []
    feats = m.f.forward_array(x, tape_f)
    probs = m.c.forward_array(feats, tape_c)
    d = m.d.forward_array(feats, tape_d)

    scores = sc.scores_from_outputs(d[1, :, 0], probs[1], cfg.scheme)
    breakdown, g_probs, g_d = ls.compound_array(
        probs, d, labels, scores, threshold, cfg.w_beta, cfg.gamma, cfg.diversity_mode)

    def vjp(g):
        g_r = m.d.vjp_array(tape_d, g * g_d, m.half_views["d"])
        g_fc = m.c.vjp_array(tape_c, g * g_probs, m.half_views["c"])
        m.f.vjp_array(tape_f, g_fc + -lam * g_r, m.half_views["f"], input_grad=False)
        return (m.halves[0] + m.halves[1],)

    return Node(breakdown.total, (m.flat,), "train_step", vjp), breakdown


def train_step(state: TrainState, batch: DomainBatch, cfg: TrainConfig,
               labels: np.ndarray) -> ls.LossBreakdown:
    """One forward/backward/SGD step; writes log row ``t``, advances ``t``
    and returns the loss breakdown.  ``labels`` are the classifier
    indices of ``batch.source_y`` (``ModelBundle.class_index``).

    A non-finite value replays the step on ``engine_loss``, so the
    ``NumericError`` names the op and the step index; a failed step
    leaves the parameters, the momentum, the log and ``t`` as they were.
    One ``np.errstate`` covers the whole step: no numpy warning escapes.
    """
    if state.t >= len(state.log):
        raise ContractError(f"step {state.t} out of budget T={len(state.log)}")
    m = state.model
    w_a = _applied_w_alpha(cfg, state.t)
    args = (m, batch.x, labels, grl_coefficient(cfg, state.t), w_a, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            try:
                total, breakdown = step_op(*args)
            except NumericError:
                total, breakdown = engine_loss(*args)
            m.zero_grads()
            ad.backward(total)
            if not np.isfinite(m.grads).all():
                raise NumericError("non-finite gradient")
        except NumericError as exc:
            raise NumericError(f"step {state.t}: {exc}") from exc
        state.v *= cfg.momentum
        state.v += m.grads
        m.values -= cfg.lr * state.v

    b = breakdown
    state.log[state.t] = (b.l_c, b.l_bd, b.l_d, b.total, b.n_pseudo_selected,
                          b.n_diversity_selected, w_a)
    state.t += 1
    return breakdown


def train(src: DomainDataset, tgt: DomainDataset,
          cfg: TrainConfig) -> tuple[ModelBundle, np.ndarray]:
    """Run the full loop; (seed, cfg, data) determine the result exactly.
    Returns the model and the rows of the log written, one per step.
    The source labels are mapped to classifier indices once, and each
    step takes its batch's rows of that map."""
    state = init_state(src, cfg)
    index = state.model.class_index(src.labels)
    labels = np.empty(cfg.batch_size // 2, index.dtype)
    rng = np.random.default_rng([cfg.seed, 1])
    for rows, batch in batches(src, tgt, cfg.batch_size // 2, cfg.total_steps, rng):
        train_step(state, batch, cfg, index.take(rows[0], out=labels, mode="clip"))
    return state.model, state.log[:state.t]


#: json's text for the non-finite floats, as ``repr`` spells them
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_metrics(path, log: np.ndarray) -> None:
    """Line-delimited JSON, one record per row of a ``LOG_DTYPE`` log: its
    fields, the row index as ``step`` and a non-finite ``w_alpha`` as null,
    with the bytes ``json.dumps(record, sort_keys=True)`` writes.  Each row
    goes through one format string, whose fields ``str.format`` spells as
    ``repr`` does, which is how json spells finite floats and ints."""
    names = (*LOG_DTYPE.names, "step")
    line = "{{" + ", ".join(f'"{n}": {{{names.index(n)}}}' for n in sorted(names)) + "}}\n"
    finite = np.all([np.isfinite(log[n]) for n in ("l_c", "l_bd", "l_d", "total")], axis=0)
    with open(path, "w") as fh:
        for step, (row, ok) in enumerate(zip(log.tolist(), finite.tolist())):
            *values, w = row
            if not ok:
                values = [_JSON_CONSTANTS.get(repr(v), v) for v in values]
            fh.write(line.format(*values, w if math.isfinite(w) else "null", step))
