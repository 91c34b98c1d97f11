"""Training loop: paired batches, three losses, one adversarial SGD step.

The compound loss is minimized with SGD-plus-momentum over all
parameters at once; the reversal layer inside the domain branch makes
that single step adversarial for the feature extractor.
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

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["f_hidden"] = list(self.f_hidden)
        d["d_hidden"] = list(self.d_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        for f in fields(cls):
            v = d.get(f.name, f.default)
            ints = not isinstance(v, (list, tuple)) or all(isinstance(n, int) for n in v)
            if not (isinstance(v, _FIELD_TYPES[f.type]) and ints):
                raise ConfigError(f"config field {f.name} must be {f.type}, got {v!r}")
            if isinstance(v, list):
                d[f.name] = tuple(v)
        return cls(**d)


@dataclass
class StepRecord:
    """One metrics-log line: losses, selection counts, applied threshold."""

    step: int
    l_c: float
    l_bd: float
    l_d: float
    total: float
    n_pseudo_selected: int
    n_diversity_selected: int
    w_alpha: float | None


@dataclass
class TrainState:
    model: ModelBundle
    t: int = 0
    velocity: dict = field(default_factory=dict)
    records: list = field(default_factory=list)


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


def train_step(state: TrainState, batch: DomainBatch,
               cfg: TrainConfig) -> ls.LossBreakdown:
    """One forward/backward/SGD step; returns the loss breakdown."""
    if state.t >= cfg.total_steps:
        raise ContractError(f"step {state.t} out of budget T={cfg.total_steps}")
    m = state.model
    index_of = {cid: j for j, cid in enumerate(m.class_ids)}
    labels = np.array([index_of[int(y)] for y in batch.source_y])
    lam = grl_coefficient(cfg, state.t)
    w_a = _applied_w_alpha(cfg, state.t)
    threshold = math.inf if w_a is None else w_a

    try:
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
        total, breakdown = ls.loss_compound(l_c, l_bd, l_d, n_pl, n_div)

        m.zero_grads()
        ad.backward(total)
    except NumericError as exc:
        raise NumericError(f"step {state.t}: {exc}") from exc
    if any(not np.all(np.isfinite(p.grad)) for _, p in m.parameters()):
        raise NumericError(f"step {state.t}: non-finite gradient")
    for name, p in m.parameters():
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.value)
            state.velocity[name] = v
        v *= cfg.momentum
        v += p.grad
        p.value -= cfg.lr * v

    state.records.append(StepRecord(
        step=state.t, l_c=breakdown.l_c, l_bd=breakdown.l_bd,
        l_d=breakdown.l_d, total=breakdown.total,
        n_pseudo_selected=breakdown.n_pseudo_selected,
        n_diversity_selected=breakdown.n_diversity_selected, w_alpha=w_a))
    state.t += 1
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
