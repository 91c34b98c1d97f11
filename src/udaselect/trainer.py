"""Training loop: paired batches, three losses, one adversarial SGD step.

The compound loss is minimized with SGD-plus-momentum over all
parameters at once; the reversal layer inside the domain branch makes
that single step adversarial for the feature extractor.

A step's loss is one autodiff op (``step_op``) whose parents are the
parameters: its value comes from the networks' array forwards and its
VJP chains their hand-derived backwards with those of the losses.
``autodiff.backward`` accumulates its gradients into the parameters.
``engine_loss`` builds the same loss from one node per op; it is the
oracle the step op is tested against bit for bit, and the replay that
names the op when a step meets a non-finite value.
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
        if self.scheme not in sc.SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        sc.check_in_range(self.scheme, "w0", self.w0)
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
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
        """Check each field's type and reject unknown keys."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for f in fields(cls):
            v = d.get(f.name, f.default)
            ints = not isinstance(v, (list, tuple)) or all(isinstance(n, int) for n in v)
            if not (isinstance(v, _FIELD_TYPES[f.type]) and ints):
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


def _sum(a: list, b: list) -> list:
    """Gradients of a parameter list used by two branches, entry by entry."""
    return [x + y for x, y in zip(a, b)]


def step_op(m: ModelBundle, batch: DomainBatch, labels: np.ndarray, lam: float,
            threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """``engine_loss`` as one op over the parameters, with its value and
    parameter gradients bit for bit.

    The VJP keeps the engine's op order: a tensor used twice gets the sum
    of its two gradients where the engine sums them.  Raises
    ``model.NonFinite`` where ``engine_loss`` raises ``NumericError``: a
    non-finite input, layer pre-activation or total.  ``lam`` must be
    >= 0, which ``TrainConfig`` ensures.
    """
    x_s = np.asarray(batch.source_x, dtype=np.float64)
    x_t = np.asarray(batch.target_x, dtype=np.float64)
    md.check_finite(x_s, x_t)
    tape_fs, tape_ft, tape_cs, tape_ct, tape_ds, tape_dt = [], [], [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        feats_s = m.f.forward_array(x_s, tape_fs)
        feats_t = m.f.forward_array(x_t, tape_ft)
        probs_s = m.c.forward_array(feats_s, tape_cs)
        probs_t = m.c.forward_array(feats_t, tape_ct)
        d_s = m.d.forward_array(feats_s, tape_ds)
        d_t = m.d.forward_array(feats_t, tape_dt)

        scores = sc.scores_from_outputs(d_t[:, 0], probs_t, cfg.scheme)
        l_c, n_pl, vjp_c = ls.classification_array(probs_s, labels, probs_t, scores,
                                                   threshold, cfg.gamma)
        l_bd, n_div, vjp_bd = ls.batch_diversity_array(probs_s, probs_t, scores,
                                                       cfg.w_beta, cfg.diversity_mode)
        l_d, vjp_d = ls.domain_array(d_s, d_t)
        total = l_c + l_bd + l_d
    md.check_finite(total)

    def vjp(g):
        g_ps, g_pt = vjp_c(g)
        if vjp_bd is not None:
            g_bs, g_bt = vjp_bd(g)
            if g_bs is not None:
                g_ps = g_ps + g_bs
            if g_bt is not None:
                g_pt = g_bt if g_pt is None else g_pt + g_bt
        g_ds, g_dt = vjp_d(g)
        g_fs, c_grads = m.c.vjp_array(tape_cs, g_ps)
        g_rs, d_grads = m.d.vjp_array(tape_ds, g_ds)
        g_fs = g_fs + -lam * g_rs
        g_rt, d_grads_t = m.d.vjp_array(tape_dt, g_dt)
        g_ft = -lam * g_rt
        if g_pt is not None:  # the target classifier branch is in the graph
            g_ct, c_grads_t = m.c.vjp_array(tape_ct, g_pt)
            g_ft = g_ct + g_ft
            c_grads = _sum(c_grads, c_grads_t)
        _, f_grads = m.f.vjp_array(tape_fs, g_fs, input_grad=False)
        _, f_grads_t = m.f.vjp_array(tape_ft, g_ft, input_grad=False)
        return _sum(f_grads, f_grads_t) + c_grads + _sum(d_grads, d_grads_t)

    total_node = Node(total, [p for _, p in m.parameters()], "train_step", vjp)
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
