"""Training loop: paired batches, three losses, one adversarial SGD step.

The compound loss is minimized with SGD-plus-momentum over all
parameters at once; the reversal layer inside the domain branch makes
that single step adversarial for the feature extractor.

A step's loss is one autodiff op (``step_op``) whose one parent is the
flat parameter leaf of its lanes: its value and loss gradients come
from the array forwards and losses, and its VJP chains the networks'
hand-derived backwards.  The source and target halves share every
network, so they run stacked on a domain axis: one forward and one
backward per network per step.  ``autodiff.backward`` adds its gradient
into the flat ``grads`` with one add.  ``engine_loss`` builds the same
loss from one node per op; it is the oracle the step op is tested
against bit for bit, and the replay that names the op when a step meets
a non-finite value.  A step calls the node forwards and node losses
only when it replays, so on a run with no replay the benchmark's
per-layer spans of them read 0 and it counts one node per step.

Runs train together as the lanes of one step (``train_step``,
``train_stacks``) when their configs differ only in ``LANE_FIELDS``: the
seed, and the scheme and thresholds, which act after the forward.  A
leading lane axis stacks their batches, and each lane has its own
parameters, batch stream, momentum, score, thresholds and log rows and
the bits of its run trained alone.  A stack makes each numpy call of
the step once for all its lanes, but each lane's parameter work and
per-lane calls grow with the lanes, so a lane costs more than its rows:
a 4-lane stack of 64-row lanes read 615.5 µs per step against 523.0 µs
for one lane of 256 rows (one BLAS thread, a 2-vCPU Xeon).
``MAX_LANES`` caps a stack where the gain of a further lane levels off.
A run trained alone is a stack of one lane.  Every stack, of one lane or
more, steps through ``train_step``, the step the benchmark's tracer
wraps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
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
        for name in (*THRESHOLD_FRACTIONS, "static_w_alpha"):
            if getattr(self, name) is not None:
                sc.check_in_range(self.scheme, name, getattr(self, name))
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
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
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

#: most runs one stack trains as its lanes, whatever their variants.
#: A stack makes each numpy call of the step once for all its lanes,
#: while each lane's parameter work and per-lane calls grow with the
#: lanes.  ``tools/step_ab.py --lanes R`` times a stack of R benchmark
#: runs per lane-step; the best of 15 stacks of 100 steps read 223.5,
#: 157.2, 137.8, 134.1, 133.6 and 129.5 µs at 1 to 6 lanes (one BLAS
#: thread, a 2-vCPU Xeon): past 4 lanes each further lane saves under 4%
#: of a lane's step, while the stack's arrays keep growing.  On
#: the benchmark's ``ablate_scoring`` (10 runs of 100 steps; seeds 4-6,
#: 10 s each, same host) the stacks of 2 of each variant read ``wall_s``
#: 0.481-0.508 s; this cap, filling stacks of 4, 4 and 2 in grid order,
#: 0.428-0.468 s at +1.0 MB of peak RSS (+2.4%); balanced stacks of 4,
#: 3 and 3, 0.448-0.490 s; and a cap of 8, stacks of 8 and 2, 0.494-0.520
#: s at +2.3 MB (+5.4%, past the benchmark's 5% bound).  So the cap stays
#: 4 and stacks fill in order.
MAX_LANES = 4

#: the fields in which the lanes of one stack may differ: the seed, and
#: the six that act on a step only through its score and thresholds,
#: after the forward.  The lanes share every other field.
LANE_FIELDS = ("seed", "scheme", "w0", "w_beta", "w_alpha_start", "static_w_alpha",
               "pseudo_labels")


def _shared_fields(cfg: TrainConfig) -> tuple[tuple[str, object], ...]:
    """``cfg``'s ``(name, value)`` pairs outside ``LANE_FIELDS``: runs can
    be lanes of one stack when theirs are equal."""
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                 if f.name not in LANE_FIELDS)


@dataclass
class TrainState:
    """The models of the runs trained together as the lanes of
    ``lanes``, their configs ``cfgs``, the momentum buffer ``v`` (laid
    out like ``lanes.flat``), the step log with one row per lane and
    step of the budget, ``(R, T)``, and the index ``t`` of the next
    step: each lane's rows before ``t`` are written.

    The lanes' thresholds are computed once per stack: ``w_alpha`` holds
    each lane's pseudo-label threshold at each step, ``(R, T)``, the bits
    of ``_applied_w_alpha`` (+inf where none applies), and ``w_beta``
    each lane's diversity threshold, ``(R, 1)``.  The log's ``w_alpha``
    column is filled from it at once, and a step writes the other six
    fields of its rows through ``breakdowns``, a view of ``log``.
    ``schemes`` maps each scheme to its lanes, in lane order: a slice
    where they are contiguous, so that the score reads and writes views
    of the step's stacks, and an index array where they are not."""

    lanes: md.Lanes
    cfgs: tuple[TrainConfig, ...]
    log: np.ndarray
    t: int = 0
    v: np.ndarray = field(init=False, repr=False)
    w_alpha: np.ndarray = field(init=False, repr=False)
    w_beta: np.ndarray = field(init=False, repr=False)
    schemes: dict[str, slice | np.ndarray] = field(init=False, repr=False)
    breakdowns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.v = np.zeros_like(self.lanes.flat.value)
        self.w_alpha = np.array([[_applied_w_alpha(c, t) for t in range(c.total_steps)]
                                 for c in self.cfgs], np.float64)
        self.w_beta = np.array([[c.w_beta] for c in self.cfgs])
        self.log["w_alpha"] = self.w_alpha
        self.breakdowns = self.log[list(ls.LossBreakdown._fields)]
        lanes = {}
        for lane, c in enumerate(self.cfgs):
            lanes.setdefault(c.scheme, []).append(lane)
        self.schemes = {scheme: slice(rows[0], rows[-1] + 1)
                        if rows[-1] - rows[0] == len(rows) - 1 else np.array(rows)
                        for scheme, rows in lanes.items()}


def w_alpha(t: int, total_steps: int, w0: float, start: float) -> float:
    """Linearly decaying selection threshold from ``start`` down to ``w0``."""
    if total_steps < 1 or not 0 <= t <= total_steps:
        raise ContractError(f"need 0 <= t <= T with T >= 1, got t={t}, T={total_steps}")
    return start - (t / total_steps) * (start - w0)


def grl_coefficient(cfg: TrainConfig, t: int) -> float:
    if cfg.grl_mode == "constant":
        return cfg.grl_lambda
    progress = t / max(cfg.total_steps, 1)
    return cfg.grl_lambda * (2.0 / (1.0 + math.exp(-10.0 * progress)) - 1.0)


def init_state(sources: Sequence[DomainDataset], cfgs: Sequence[TrainConfig]) -> TrainState:
    """One lane per run: lane r's model is built from ``sources[r]``'s
    classes and ``cfgs[r]``'s seed, and it steps under ``cfgs[r]``'s
    scheme and thresholds.  The configs must differ in nothing outside
    ``LANE_FIELDS``; a ``ContractError`` names a field they differ in."""
    for name, value in _shared_fields(cfgs[0]):
        if any(getattr(c, name) != value for c in cfgs):
            raise ContractError(f"the lanes of a stack must share {name}, got "
                                f"{[getattr(c, name) for c in cfgs]}")
    models = []
    for src, cfg in zip(sources, cfgs, strict=True):
        # a sorted set, not ``np.unique``: that imports ``numpy.ma``, about
        # 1 MB of peak RSS, which no run otherwise imports
        class_ids = tuple(sorted({int(y) for y in src.labels.tolist()}))
        spec_f = MlpSpec(src.dim, cfg.f_hidden, cfg.feature_dim)
        spec_c = MlpSpec(cfg.feature_dim, (), len(class_ids), "softmax")
        spec_d = MlpSpec(cfg.feature_dim, cfg.d_hidden, 1, "sigmoid")
        models.append(md.init(spec_f, spec_c, spec_d, cfg.seed, class_ids=class_ids))
    return TrainState(lanes=md.Lanes(models), cfgs=tuple(cfgs),
                      log=np.zeros((len(models), cfgs[0].total_steps), LOG_DTYPE))


def _applied_w_alpha(cfg: TrainConfig, t: int) -> float:
    """The pseudo-label threshold in effect at step t; +inf disables."""
    if not cfg.pseudo_labels:
        return math.inf
    if cfg.static_w_alpha is not None:
        return cfg.static_w_alpha
    return w_alpha(t, cfg.total_steps, cfg.w0, cfg.w_alpha_start)


def engine_loss(m: ModelBundle, x: np.ndarray, labels: np.ndarray, lam: float,
                threshold: float, cfg: TrainConfig) -> tuple[Node, ls.LossBreakdown]:
    """The compound loss of one lane as the engine graph, one node per
    op, on the ``(2, half, dim)`` stack ``x`` of a ``DomainBatch``."""
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


def _scores(schemes: dict[str, slice | np.ndarray], d: np.ndarray,
            probs: np.ndarray) -> np.ndarray:
    """Each lane's target scores, ``(R, half)``, under its own scheme from
    the ``(R, half)`` domain outputs ``d`` and ``(R, half, K)`` ``probs``:
    one call per scheme, over that scheme's lanes (``TrainState.schemes``).
    A slice of lanes scores views of ``d`` and ``probs``, and an index
    array copies of their lanes; each lane's score has the bits of its
    own call either way."""
    scores = np.empty(d.shape)
    for scheme, rows in schemes.items():
        scores[rows] = sc.scores_from_outputs(d[rows], probs[rows], scheme)
    return scores


def step_op(state: TrainState, x: np.ndarray, labels: np.ndarray,
            lam: float) -> tuple[Node, list[ls.LossBreakdown]]:
    """``engine_loss`` of every lane of ``state`` at its step ``t`` as one
    op over ``lanes.flat``, with each lane's value and parameter
    gradients bit for bit.

    ``x`` is the ``(R, 2, half, dim)`` stack of the R lanes' batches and
    ``labels`` the ``(R, half)`` stack of their labels; slice 0 of a lane
    is its source half and slice 1 its target half.  Each network has one
    forward and one VJP over the whole stack, with each lane's own
    parameters (``lanes.layers``).  Each lane's targets are scored under
    its own scheme, one score call per scheme (``state.schemes``).
    ``losses.compound_array`` takes the stacks of probabilities and
    domain outputs, the lanes' thresholds at step ``t`` as ``(R, 1)``
    columns (``state.w_alpha``, ``state.w_beta``) and the lanes' shared
    ``gamma`` and diversity mode, and returns each lane's breakdown and
    one gradient per stack for a loss gradient of 1.  The VJP scales them
    by ``g`` and keeps the engine's op order: a tensor used twice gets
    the sum of its two gradients where the engine sums them.  Each
    network's VJP writes its parameter gradients per lane and half into
    ``lanes.halves``, and the gradient of ``lanes.flat`` is the source
    half plus the target half.
    The op's value is the sum of the lanes' totals; the lanes share no
    parameter, so each lane's gradient is that of its own total.
    Raises ``NumericError`` where ``engine_loss`` raises in some lane: a
    non-finite input, layer pre-activation or total (the returned
    ``Node`` checks the sum).  The input needs no check of its own: a
    non-finite entry makes every entry of its row's first pre-activation
    non-finite, whatever the finite weights.  Its caller, ``train_step``,
    runs it under the step's ``np.errstate``.
    ``lam`` must be >= 0, which ``TrainConfig`` ensures.
    """
    x = np.asarray(x, dtype=np.float64)
    cfg, lanes = state.cfgs[0], state.lanes
    nets, layers, out = lanes.nets, lanes.layers, lanes.half_views
    tape_f, tape_c, tape_d = [], [], []
    feats = nets["f"].forward_array(x, tape_f, layers["f"])
    probs = nets["c"].forward_array(feats, tape_c, layers["c"])
    d = nets["d"].forward_array(feats, tape_d, layers["d"])

    scores = _scores(state.schemes, d[:, 1, :, 0], probs[:, 1])
    breakdowns, g_probs, g_d = ls.compound_array(
        probs, d, labels, scores, state.w_alpha[:, state.t, None], state.w_beta,
        cfg.gamma, cfg.diversity_mode)

    def vjp(g):
        g_r = nets["d"].vjp_array(tape_d, g * g_d, out["d"], layers["d"])
        g_fc = nets["c"].vjp_array(tape_c, g * g_probs, out["c"], layers["c"])
        g_r *= -lam
        g_r += g_fc
        nets["f"].vjp_array(tape_f, g_r, out["f"], layers["f"], input_grad=False)
        return (lanes.halves[:, 0] + lanes.halves[:, 1],)

    total = sum([b.total for b in breakdowns])
    return Node(total, (lanes.flat,), "train_step", vjp), breakdowns


def train_step(state: TrainState, batch: DomainBatch) -> ls.LossBreakdown:
    """One forward/backward/SGD step of every lane of ``state`` on the
    stack ``batch``; writes each lane's log row ``t``, advances ``t`` and
    returns the step's loss breakdown: a one-lane stack's own, and for
    more lanes each field summed over the lanes in lane order.  This is
    the step of every stack, and the one the benchmark's tracer wraps: it
    reads the breakdown's selection counts and ``batch.target_x``.

    ``batch.x`` stacks the lanes' batches and ``batch.source_y`` their
    classifier indices (``ModelBundle.class_index``) as ``step_op`` takes
    them.  Each lane steps under the config ``init_state`` built it from:
    the lanes share the reversal, ``gamma``, the diversity mode, the
    learning rate and momentum, and each has its own scheme and
    thresholds.

    A non-finite value replays each lane on ``engine_loss``, under its
    own config and threshold, in turn:
    the first lane whose replay raises is the one named, as the
    ``lane`` of the ``NumericError``, and its message names the op and
    the step index.  If no replay raises, the step goes on with the
    replays' losses.  A failed step leaves every lane's parameters,
    momentum and log, and ``t``, as they were.  One ``np.errstate``
    covers the whole step: no numpy warning escapes.
    """
    if state.t >= state.log.shape[1]:
        raise ContractError(f"step {state.t} out of budget T={state.log.shape[1]}")
    cfg, lanes, flat = state.cfgs[0], state.lanes, state.lanes.flat
    x, labels = batch.x, batch.source_y
    lam = grl_coefficient(cfg, state.t)
    lane = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            try:
                total, breakdowns = step_op(state, x, labels, lam)
                totals = (total,)
            except NumericError:
                totals, breakdowns = [], []
                thresholds = state.w_alpha[:, state.t].tolist()
                for lane, (m, c, w_a) in enumerate(zip(lanes.models, state.cfgs, thresholds)):
                    total, breakdown = engine_loss(m, x[lane], labels[lane], lam, w_a, c)
                    totals.append(total)
                    breakdowns.append(breakdown)
                lane = None
            flat.grad.fill(0.0)
            for total in totals:
                ad.backward(total)
            if not md.all_finite(flat.grad):
                lane = int(np.isfinite(lanes.grads).all(axis=1).argmin())
                raise NumericError("non-finite gradient")
        except NumericError as exc:
            error = NumericError(f"step {state.t}: {exc}")
            error.lane = lane
            raise error from exc
        state.v *= cfg.momentum
        state.v += flat.grad
        flat.value -= cfg.lr * state.v

    state.breakdowns[:, state.t] = breakdowns
    state.t += 1
    if len(breakdowns) == 1:
        return breakdowns[0]
    # each field summed from lane 0's, not from 0, which would turn a -0.0
    # into +0.0
    return ls.LossBreakdown._make(map(sum, zip(*breakdowns[1:]), breakdowns[0]))


def _train_stack(runs: Sequence[tuple[DomainDataset, DomainDataset, TrainConfig]]
                 ) -> list[tuple[ModelBundle, np.ndarray]]:
    """``train`` of every run, as the lanes of one stack.  Each lane draws
    its batches from its own source, relabelled once with its classifier
    indices, and its own stream, straight into its slice of the stack's
    batch."""
    state = init_state([src for src, _, _ in runs], [c for _, _, c in runs])
    half = runs[0][2].batch_size // 2
    batch = DomainBatch(np.empty((len(runs), 2, half, runs[0][0].dim)),
                        np.empty((len(runs), half), np.intp))
    streams = [
        batches(DomainDataset(src.features, m.class_index(src.labels)), tgt, half,
                c.total_steps, np.random.default_rng([c.seed, 1]), DomainBatch(xr, yr))
        for (src, tgt, c), m, xr, yr in zip(runs, state.lanes.models, batch.x,
                                            batch.source_y)]
    for _ in zip(*streams):
        train_step(state, batch)
    return [(m, log[:state.t]) for m, log in zip(state.lanes.models, state.log)]


def train(src: DomainDataset, tgt: DomainDataset,
          cfg: TrainConfig) -> tuple[ModelBundle, np.ndarray]:
    """Run the full loop; (seed, cfg, data) determine the result exactly.
    Returns the model and the rows of the log written, one per step."""
    return _train_stack([(src, tgt, cfg)])[0]


def train_stacks(runs: Sequence[tuple[DomainDataset, DomainDataset, TrainConfig]]
                 ) -> Iterator[list[tuple[int, tuple[ModelBundle, np.ndarray]]]]:
    """``train`` of each ``(src, tgt, cfg)`` run, bit for bit, with the
    runs trained as the lanes of stacks: runs whose configs share every
    field outside ``LANE_FIELDS`` fill stacks of up to ``MAX_LANES`` in
    their order.  Yields each stack, once it has trained, as the
    ``(i, (model, log))`` pair of each of its runs, i its index in
    ``runs``.  A ``NumericError`` names the failing run by its seed and
    sets its ``run`` to i; no further stack trains."""
    groups = {}
    for i, (_, _, cfg) in enumerate(runs):
        groups.setdefault(_shared_fields(cfg), []).append(i)
    for group in groups.values():
        for start in range(0, len(group), MAX_LANES):
            stack = group[start:start + MAX_LANES]
            try:
                trained = _train_stack([runs[i] for i in stack])
            except NumericError as exc:
                if exc.lane is None:
                    raise
                error = NumericError(f"seed {runs[stack[exc.lane]][2].seed}: {exc}")
                error.run = stack[exc.lane]
                raise error from exc
            yield list(zip(stack, trained))


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
