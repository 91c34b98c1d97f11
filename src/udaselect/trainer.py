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
value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import model as md
from . import scoring as sc
from .autodiff import Node
from .data import DomainBatch, DomainDataset, sample_batch
from .errors import ConfigError, ContractError, NumericError
from .model import MlpSpec, ModelBundle

GRL_MODES = ("constant", "ramp")

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
    """All hyperparameters of one training run."""

    gamma: float = 0.6
    w0: float = 1.0
    w_beta: float = 0.8
    total_steps: int = 3000
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    grl_mode: str = "constant"
    grl_lambda: float = 1.0
    scheme: str = "ours"
    static_w_alpha: float | None = None
    w_alpha_start: float = 1.5
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
        sc.check_in_range(self.scheme, "w0", self.w0)
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
        """Check each field's type and reject unknown keys.  A JSON boolean
        is only a ``bool`` field's value, though ``bool`` subclasses ``int``."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for f in fields(cls):
            v = d.get(f.name, f.default)
            items = v if isinstance(v, (list, tuple)) else ()
            if (not isinstance(v, _FIELD_TYPES[f.type])
                    or isinstance(v, bool) != (f.type == "bool")
                    or any(type(n) is not int for n in items)):
                raise ConfigError(f"config field {f.name} must be {f.type}, got {v!r}")
            if isinstance(v, list):
                d[f.name] = tuple(v)
        return cls(**d)


@dataclass(frozen=True)
class StepRecord(ls.LossBreakdown):
    """One metrics-log line: a step's ``LossBreakdown``, index and applied threshold."""

    step: int
    w_alpha: float | None


@dataclass
class TrainState:
    """The model, the flat momentum buffer ``v`` (laid out like
    ``model.values``) and one record per step taken."""

    model: ModelBundle
    records: list = field(default_factory=list)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.v = np.zeros_like(self.model.values)

    @property
    def t(self) -> int:
        """The index of the next step."""
        return len(self.records)


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


def build_model(input_dim: int, class_ids: tuple[int, ...],
                cfg: TrainConfig) -> ModelBundle:
    spec_f = MlpSpec(input_dim, cfg.f_hidden, cfg.feature_dim)
    spec_c = MlpSpec(cfg.feature_dim, (), len(class_ids), "softmax")
    spec_d = MlpSpec(cfg.feature_dim, cfg.d_hidden, 1, "sigmoid")
    return md.init(spec_f, spec_c, spec_d, cfg.seed, class_ids=class_ids)


def init_state(src: DomainDataset, cfg: TrainConfig) -> TrainState:
    class_ids = tuple(int(y) for y in np.unique(src.labels))
    return TrainState(model=build_model(src.dim, class_ids, cfg))


def _applied_w_alpha(cfg: TrainConfig, t: int) -> float | None:
    """The pseudo-label threshold in effect at step t; None disables."""
    if not cfg.pseudo_labels:
        return None
    if cfg.static_w_alpha is not None:
        return cfg.static_w_alpha
    return w_alpha(t, cfg.total_steps, cfg.w0, cfg.w_alpha_start)


def engine_loss(m: ModelBundle, batch: DomainBatch, labels: np.ndarray, lam: float,
                threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """The compound loss as the engine graph, one node per op."""
    feats_s = md.features(m, batch.source_x)
    feats_t = md.features(m, batch.target_x)
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


def step_op(m: ModelBundle, batch: DomainBatch, labels: np.ndarray, lam: float,
            threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """``engine_loss`` as one op over ``m.flat``, with its value and
    parameter gradients bit for bit.

    Source and target run as one ``(2, half, dim)`` stack, so each
    network has one forward and one VJP; slice 0 is the source half and
    slice 1 the target half.  The array losses take the stacks of
    probabilities and domain outputs and return, with each value, one
    gradient shaped like its stack for a loss gradient of 1, zero where
    its term does not reach.  The VJP scales them by ``g`` (exact at the
    ``g = 1`` that ``backward`` seeds) and keeps the engine's op order: a
    tensor used twice gets the sum of its two gradients where the engine
    sums them.  Each network's VJP writes its parameter gradients per
    half into ``m.halves``, and the gradient of ``m.flat`` is the source
    half plus the target half.
    Raises ``model.NonFinite`` where ``engine_loss`` raises
    ``NumericError``: a non-finite input, layer pre-activation or total.
    ``lam`` must be >= 0, which ``TrainConfig`` ensures.
    """
    x = np.array((batch.source_x, batch.target_x), dtype=np.float64)
    md.check_finite(x)
    tape_f, tape_c, tape_d = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        feats = m.f.forward_array(x, tape_f)
        probs = m.c.forward_array(feats, tape_c)
        d = m.d.forward_array(feats, tape_d)

        scores = sc.scores_from_outputs(d[1, :, 0], probs[1], cfg.scheme)
        l_c, n_pl, g_c = ls.classification_array(probs, labels, scores, threshold,
                                                 cfg.gamma)
        l_bd, n_div, g_bd = ls.batch_diversity_array(probs, scores, cfg.w_beta,
                                                     cfg.diversity_mode)
        l_d, g_d = ls.domain_array(d)
        total = l_c + l_bd + l_d
    md.check_finite(total)

    def vjp(g):
        g_r = m.d.vjp_array(tape_d, g * g_d, m.half_views["d"])
        g_fc = m.c.vjp_array(tape_c, g * (g_c + g_bd), m.half_views["c"])
        m.f.vjp_array(tape_f, g_fc + -lam * g_r, m.half_views["f"], input_grad=False)
        return (m.halves[0] + m.halves[1],)

    total_node = Node(total, (m.flat,), "train_step", vjp)
    return total_node, ls.LossBreakdown(
        l_c=float(l_c), l_bd=float(l_bd), l_d=float(l_d), total=float(total),
        n_pseudo_selected=n_pl, n_diversity_selected=n_div)


def train_step(state: TrainState, batch: DomainBatch,
               cfg: TrainConfig) -> ls.LossBreakdown:
    """One forward/backward/SGD step; returns the loss breakdown.

    A non-finite value replays the step on ``engine_loss``, so the
    ``NumericError`` names the op and the step index; a failed step
    leaves the parameters, the momentum and the records as they were.
    """
    if state.t >= cfg.total_steps:
        raise ContractError(f"step {state.t} out of budget T={cfg.total_steps}")
    m = state.model
    w_a = _applied_w_alpha(cfg, state.t)
    args = (m, batch, m.class_index(batch.source_y), grl_coefficient(cfg, state.t),
            math.inf if w_a is None else w_a, cfg)
    try:
        try:
            total, breakdown = step_op(*args)
        except md.NonFinite:
            with np.errstate(over="ignore", invalid="ignore"):
                total, breakdown = engine_loss(*args)
        m.zero_grads()
        ad.backward(total)
    except NumericError as exc:
        raise NumericError(f"step {state.t}: {exc}") from exc
    if not np.isfinite(m.grads).all():
        raise NumericError(f"step {state.t}: non-finite gradient")
    state.v *= cfg.momentum
    state.v += m.grads
    m.values -= cfg.lr * state.v

    state.records.append(StepRecord(**breakdown.__dict__, step=state.t, w_alpha=w_a))
    return breakdown


def train(src: DomainDataset, tgt: DomainDataset,
          cfg: TrainConfig) -> tuple[ModelBundle, list[StepRecord]]:
    """Run the full loop; (seed, cfg, data) determine the result exactly."""
    state = init_state(src, cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    for _ in range(cfg.total_steps):
        batch = sample_batch(src, tgt, cfg.batch_size, rng)
        train_step(state, batch, cfg)
    return state.model, state.records


def write_metrics(path, records: list[StepRecord]) -> None:
    """Line-delimited JSON, one record per training step."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.__dict__, sort_keys=True) + "\n")
