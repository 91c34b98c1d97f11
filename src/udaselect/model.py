"""Feature extractor, label classifier and domain classifier networks.

All three are plain fully connected nets.  The label classifier ends in
a row-wise softmax, the domain classifier in a sigmoid, and the domain
head is reached through a gradient reversal layer so that one backward
pass trains the extractor adversarially.

Each network runs two ways.  ``Mlp.forward`` builds autodiff nodes, one
per op: the engine is the gradient oracle and the replay that names the
op behind a non-finite value.  ``Mlp.forward_array`` and
``Mlp.vjp_array`` are the same ops on plain numpy arrays, with the
engine's expressions and so its bits; the training step and scoring run
on them.  They take rows on the last two axes and stack independent
batches on any axes before them, and they take the parameters as
arrays that broadcast over those axes.  The training step stacks its
source and target halves on a domain axis of 2, and up to
``trainer.MAX_LANES`` runs on a leading lane axis with one set of
parameters per lane (``Lanes``); its VJPs write their parameter
gradients into the stack's per-lane, per-domain buffer ``halves``.
Each lane's products have the bits of that lane's own call: numpy's
``matmul`` runs one BLAS product per stacked matrix, and a reduction
over the rows or the columns of a stack reduces each lane's rows as it
would reduce them alone.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .data import TAU
from .errors import ConfigError, ContractError, NumericError

FINAL_ACTIVATIONS = ("none", "softmax", "sigmoid")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture descriptor for one fully connected network."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    final_activation: str = "none"

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"all layer dims must be >= 1, got {dims}")
        if self.final_activation not in FINAL_ACTIVATIONS:
            raise ConfigError(f"unknown final_activation {self.final_activation!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))


# The layer feeding a softmax starts near zero so that an untrained
# classifier emits near-uniform probabilities (and hence low transfer
# scores: nothing gets pseudo-labeled before training has begun).
SOFTMAX_HEAD_GAIN = 0.01


#: rows per block of ``predict``: a 64-wide float64 activation of 512
#: rows is 256 KiB, and a layer holds its input and output at once, so
#: the forward holds about 0.5 MiB beyond its outputs.  Smaller blocks
#: cost time: scoring the 20k-row benchmark target (one BLAS thread, a
#: 2-vCPU Xeon) took 19.5 ms at 1024 rows, 19.3 ms at 512 and 23.4 ms at
#: 256.  A multiple of 4, because OpenBLAS's matrix-vector kernel takes
#: rows in fours and the last ``n % 4`` by another path: only the last
#: block has such a tail, the rows of the whole input's.
_BLOCK_ROWS = 512

#: rows from which ``row_max`` and ``row_sum`` fold the columns.  numpy
#: reduces each row of a ``(n, K)`` table by its own inner-loop call, so
#: K - 1 whole-column ufunc calls win from a few hundred rows; below
#: that (the training step's 64-row stacks) numpy's call is faster.
#: There, as in ``check_finite``, they call the ufunc's ``reduce``
#: itself: ``max``, ``sum`` and ``all`` without numpy's Python wrappers.
_FOLD_ROWS = 256


def _folds(a: np.ndarray) -> bool:
    """Whether ``a`` holds at least ``_FOLD_ROWS`` rows of one or more
    entries on its last axis."""
    return a.ndim > 0 and 0 < a.shape[-1] and a.size >= _FOLD_ROWS * a.shape[-1]


def sum_folds(a: np.ndarray) -> bool:
    """Whether ``row_sum`` folds ``a``: ``_folds`` rows of 2 to 7 entries."""
    return _folds(a) and 2 <= a.shape[-1] < 8


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, bit for bit.

    From ``_FOLD_ROWS`` rows, ``np.maximum`` folds the columns left to
    right.  The maximum of a row is one value whatever the order, except
    for the sign of a zero maximum and the payload of a NaN: numpy's SIMD
    reduction of a row longer than one vector combines its lanes in
    another order.  Those rows are reduced again by numpy's own call.
    """
    if not _folds(a):
        return np.maximum.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(out, a[..., j], out=out)
    redo = (out == 0.0) | np.isnan(out)
    if redo.any():
        out[redo] = a[redo].max(axis=-1)
    return out


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bit for bit.

    From ``_FOLD_ROWS`` rows of 2 to 7 entries, ``+=`` folds the columns
    left to right.  numpy adds a row of fewer than 8 entries in that
    order, starting from +0.0, so a row of -0.0 sums to +0.0; from 8
    entries it sums pairwise, and ``a.sum`` runs.
    """
    if not sum_folds(a):
        return np.add.reduce(a, axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def check_finite(a: np.ndarray) -> None:
    """Raise ``NumericError`` unless every entry of ``a`` is finite."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NumericError("non-finite value in an array forward")


class Mlp:
    """Linear layers with ReLU after each hidden layer.

    Weights use He-style fan-in scaled uniform init, biases start at
    zero; the final layer of a softmax net is scaled down so its initial
    output is near-uniform.
    """

    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.spec = spec
        self.weights: list[Node] = []
        self.biases: list[Node] = []
        last = len(spec.layer_dims) - 1
        for i, (fan_in, fan_out) in enumerate(spec.layer_dims):
            bound = np.sqrt(6.0 / fan_in)
            if i == last and spec.final_activation == "softmax":
                bound *= SOFTMAX_HEAD_GAIN
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(Node(w, op="leaf"))
            self.biases.append(Node(np.zeros(fan_out), op="leaf"))

    def forward(self, x: Node) -> Node:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add_bias(ad.matmul(h, w), b)
            if i < last:
                h = ad.relu(h)
        if self.spec.final_activation == "softmax":
            h = ad.softmax_rows(h)
        elif self.spec.final_activation == "sigmoid":
            h = ad.sigmoid(h)
        return h

    def check_input(self, x: np.ndarray) -> None:
        """Raise the engine's ``matmul`` ``ContractError`` unless ``x``
        holds rows of this net's input width on its last two axes."""
        w0 = self.weights[0].value
        if x.ndim < 2 or x.shape[-1] != w0.shape[0]:
            raise ContractError(f"matmul shape mismatch: {x.shape[-2:]} x {w0.shape}")

    def layers(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each layer's weight and bias values and the weight's transpose."""
        return [(w.value, b.value, w.value.T) for w, b in zip(self.weights, self.biases)]

    def forward_array(self, x: np.ndarray, tape: list | None = None,
                      layers: list[tuple[np.ndarray, ...]] | None = None
                      ) -> np.ndarray:
        """``forward`` on arrays: the same ops and expressions, so the same bits.

        ``x`` holds rows on its last two axes; any axes before them stack
        independent batches (the training step stacks its lanes and, in
        each, source over target), and every slice gets the bits of its
        own 2-D call.  ``layers`` are the layers' weight, bias and
        transposed weight arrays (default ``layers()``); a stack of lanes
        passes one of each per lane, shaped to broadcast over ``x``
        (``Lanes.layers``).
        Each layer's pre-activation ``h @ W + b`` is checked with
        ``check_finite``: ReLU, softmax and sigmoid map finite values to
        finite values, so it is the only place a finite input can turn
        non-finite.  The bias add, the ReLU and the softmax write into
        the fresh product ``h @ W`` in place: the same ufuncs as
        ``h @ W + b``, ``maximum(h, 0)`` and ``exp(h - max) / sum``, so
        the same bits with no extra temporaries.  The softmax's row
        maximum and row sum are ``row_max`` and ``row_sum``, which give
        numpy's reductions bit for bit.
        With ``tape``, appends each layer's input and then the output,
        which ``vjp_array`` reads; no array on the tape is written after
        it is appended.
        """
        self.check_input(x)
        h = x
        last = len(self.weights) - 1
        for i, (w, b, _) in enumerate(self.layers() if layers is None else layers):
            if tape is not None:
                tape.append(h)
            h = h @ w
            h += b
            check_finite(h)
            if i < last:
                np.maximum(h, 0.0, out=h)
        if self.spec.final_activation == "softmax":
            h -= row_max(h)[..., None]
            np.exp(h, out=h)
            h /= row_sum(h)[..., None]
        elif self.spec.final_activation == "sigmoid":
            # the engine's ``where(h >= 0, 1 / (1 + e), e / (1 + e))``
            # with one sum and one division
            e = np.exp(-np.abs(h))
            s = 1.0 + e
            h = np.where(h >= 0, 1.0, e)
            h /= s
        if tape is not None:
            tape.append(h)
        return h

    def vjp_array(self, tape: list, g: np.ndarray, out: list[np.ndarray],
                  layers: list[tuple[np.ndarray, ...]] | None = None,
                  input_grad: bool = True) -> np.ndarray | None:
        """The engine's backward through ``forward_array``'s ``tape``, with
        the ``layers`` that forward ran on.

        ``g`` is the gradient of the output, stacked like it.  Writes the
        gradients of ``parameters()`` into ``out``, one array each in
        their order, one per stacked slice (shape ``lead + param.shape``),
        and returns the gradient of the input (None without
        ``input_grad``).  A hidden ReLU's mask is ``h > 0.0`` of the next
        layer's input ``h = max(a, 0)``, which equals the engine's
        ``a > 0.0``: ``a`` passed ``check_finite``.  It multiplies the
        fresh product ``g @ W.T`` in place, the engine's ``g * mask``;
        a lane's ``W.T`` is its own weight's transpose.
        The sums are ``np.add.reduce`` calls, the ufunc behind
        ``ndarray.sum`` without its Python wrapper, so the same bits.
        """
        layers = self.layers() if layers is None else layers
        y = tape[-1]
        if self.spec.final_activation == "softmax":
            g = y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))
        elif self.spec.final_activation == "sigmoid":
            g = g * y * (1.0 - y)
        for i in reversed(range(len(self.weights))):
            h = tape[i]
            np.add.reduce(g, axis=-2, out=out[2 * i + 1])
            np.matmul(h.swapaxes(-1, -2), g, out=out[2 * i])
            if i == 0 and not input_grad:
                return None
            g = g @ layers[i][2]
            if i > 0:
                g *= h > 0.0
        return g

    def parameters(self, prefix: str) -> list[tuple[str, Node]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}.w{i}", w))
            out.append((f"{prefix}.b{i}", b))
        return out


@dataclass
class ModelBundle:
    """The three networks plus the label-id mapping for the classifier head.

    ``class_ids[j]`` is the dataset class id that classifier output j
    stands for, ids ascending; the classifier works in index space 0..K-1.
    Every parameter's ``value`` and ``grad`` are views into the flat
    buffers ``values`` and ``grads``, in ``parameters()`` order; a
    bundle trained as a lane has them as its row of the ``Lanes``
    buffers (``bind``).
    """

    f: Mlp
    c: Mlp
    d: Mlp
    class_ids: tuple[int, ...]
    values: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    _parameters: tuple = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.class_ids) != self.c.spec.output_dim:
            raise ConfigError("class_ids length must equal the classifier's output_dim")
        if (any(type(c) is not int for c in self.class_ids) or TAU in self.class_ids
                or list(self.class_ids) != sorted(set(self.class_ids))):
            raise ConfigError(f"class_ids must be distinct ints other than {TAU} "
                              f"in ascending order, got {list(self.class_ids)}")
        self._ids = np.asarray(self.class_ids)
        self._parameters = tuple(self.f.parameters("f") + self.c.parameters("c")
                                 + self.d.parameters("d"))
        self.values = np.concatenate([p.value.ravel() for _, p in self.parameters()])
        self.bind(self.values, np.zeros_like(self.values))

    def bind(self, values: np.ndarray, grads: np.ndarray) -> None:
        """Make the flat buffers ``values`` (the parameters copied into
        it) and ``grads``, every parameter's value and grad views of them."""
        values[...] = self.values
        self.values, self.grads = values, grads
        values, grads = self.views(values), self.views(grads)
        for name, p in self.parameters():
            p.value, p.grad = values[name], grads[name]

    def parameters(self) -> tuple[tuple[str, Node], ...]:
        """Each parameter with its name, built once at construction."""
        return self._parameters

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's name mapped to its part of the last axis of
        ``flat``, shaped like it after ``flat``'s leading axes."""
        out, start = {}, 0
        for name, p in self.parameters():
            part = flat[..., start:start + p.value.size]
            out[name] = part.reshape(flat.shape[:-1] + p.shape)
            start += p.value.size
        return out

    def class_index(self, labels: np.ndarray) -> np.ndarray:
        """The classifier output index of each dataset class id in ``labels``."""
        labels = np.asarray(labels)
        pos = np.searchsorted(self._ids, labels)
        unknown = self._ids.take(pos, mode="clip") != labels
        if unknown.any():
            raise ContractError(f"label {labels[unknown][0]} is not one of the "
                                f"model's class ids {list(self.class_ids)}")
        return pos


class Lanes:
    """Bundles of one architecture as the lanes of one stack: the training
    step's view of the parameters of the runs it trains together.  A run
    trained alone is a stack of one lane.  Against the same step with no
    lane axis, ``tools/step_ab.py`` read that step's ratio as 0.996
    (quartiles 0.973-1.030; 30 blocks of 500 steps on a 2-vCPU Xeon),
    while the benchmark's whole 3000-step run (``BENCH_30``
    ``train_single``) read 1.159 -> 1.201 s, higher in 10 of 10 pairs.
    Where that cost goes is ROADMAP item 9.

    Each lane stays a whole ``ModelBundle``, but its ``values`` and
    ``grads`` become row r of the stack's ``(R, P)`` ``values`` and
    ``grads``, so one SGD update covers every lane.  ``flat`` is one leaf
    over all of them (value ``values``, grad ``grads``): the training
    step's op has it as its only parent.

    The step's operands carry the lanes on a leading axis of R.
    ``layers[net]`` lists the weight, bias and transposed weight of each
    of that network's layers as views of ``values`` that broadcast over
    the step's ``(R, 2, half, ·)`` stacks: a weight as
    ``(R, 1, in, out)``, a bias as ``(R, 1, 1, out)``, a transpose as
    ``(R, 1, out, in)``.  ``halves`` holds the step's parameter
    gradients per lane and domain, ``(R, 2, P)`` with slice 0 the source
    half and slice 1 the target half, and ``half_views[net]`` lists its
    ``(R, 2, *shape)`` view of each of that network's parameters, the
    ``out`` of its ``vjp_array``.  Each parameter's slice of a view is
    C-contiguous, so ``np.matmul`` into it keeps its BLAS path and its
    bits.  The networks' specs are lane 0's (``nets``); every lane has
    the same.
    """

    def __init__(self, models: Sequence[ModelBundle]):
        self.models = list(models)
        m = self.models[0]
        self.nets = {"f": m.f, "c": m.c, "d": m.d}
        if any((b.f.spec, b.c.spec, b.d.spec) != (m.f.spec, m.c.spec, m.d.spec)
               for b in self.models):
            raise ContractError("the lanes of a stack must share one architecture")
        self.values = np.stack([b.values for b in self.models])
        self.grads = np.zeros_like(self.values)
        for b, values, grads in zip(self.models, self.values, self.grads):
            b.bind(values, grads)
        self.flat = Node(self.values)
        self.flat.grad = self.grads
        self.halves = np.zeros((len(self.models), 2, self.values.shape[1]))
        # a lane axis of R, then unit axes up to the step's (R, 2, half, ·)
        views = {name: v.reshape(v.shape[:1] + (1,) * (4 - v.ndim) + v.shape[1:])
                 for name, v in m.views(self.values).items()}
        self.layers = {net: [(views[f"{net}.w{i}"], views[f"{net}.b{i}"],
                              views[f"{net}.w{i}"].swapaxes(-1, -2))
                             for i in range(len(mlp.weights))]
                       for net, mlp in self.nets.items()}
        halves = m.views(self.halves)
        self.half_views = {net: [halves[name] for name, _ in mlp.parameters(net)]
                           for net, mlp in self.nets.items()}


def init(spec_f: MlpSpec, spec_c: MlpSpec, spec_d: MlpSpec, seed: int,
         class_ids: tuple[int, ...]) -> ModelBundle:
    """Build all three networks from one seeded generator.

    The same seed always yields bit-identical parameters.
    """
    if spec_c.input_dim != spec_f.output_dim or spec_d.input_dim != spec_f.output_dim:
        raise ConfigError(
            f"classifier input dims ({spec_c.input_dim}, {spec_d.input_dim}) "
            f"must equal feature dim {spec_f.output_dim}")
    if spec_d.output_dim != 1:
        raise ConfigError("domain classifier must have output_dim 1")
    if spec_c.final_activation != "softmax":
        raise ConfigError("label classifier must end in softmax")
    if spec_d.final_activation != "sigmoid":
        raise ConfigError("domain classifier must end in sigmoid")
    rng = np.random.default_rng(seed)
    f = Mlp(spec_f, rng)
    c = Mlp(spec_c, rng)
    d = Mlp(spec_d, rng)
    return ModelBundle(f=f, c=c, d=d, class_ids=class_ids)


def features(m: ModelBundle, x: np.ndarray | Node) -> Node:
    if not isinstance(x, Node):
        x = Node(x, op="input")
    return m.f.forward(x)


def label_probs(m: ModelBundle, feats: Node) -> Node:
    """Class pseudo-probabilities from a feature node; rows sum to 1."""
    return m.c.forward(feats)


def domain_prob(m: ModelBundle, feats: Node, lam: float) -> Node:
    """Source-domain probability in (0,1), reached through the reversal layer.

    The reversal sits between the features and the domain net, so the
    domain net's own parameter gradients are unaffected while gradients
    flowing back into the extractor are negated and scaled by ``lam``.
    """
    return m.d.forward(ad.grad_reverse(feats, lam))


def predict(m: ModelBundle, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``label_probs`` and ``domain_prob`` values for the rows of ``x`` by
    the array forward (the reversal layer is the identity forward).
    Raises ``NumericError`` where the engine would; its message names no op.

    The rows run through ``f``, ``c`` and ``d`` in blocks of
    ``_BLOCK_ROWS`` into preallocated outputs, so no activation of the
    whole input is held: on a 20k-row file that was the process's peak
    memory.  Every op is row-wise, and a block's product rows are those
    of the whole input's product, so the bits are those of one forward
    over all of ``x`` on one BLAS thread.  (On more threads OpenBLAS
    splits the domain head's matrix-vector product of several thousand
    rows unevenly for some row counts, and the whole forward's bits then
    move with the thread count; a block is below that size.)  The shape
    check runs before the loop, so an input with no rows still fails it.
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x)
    m.f.check_input(x)
    lead = x.shape[:-1]
    probs = np.empty(lead + (m.c.spec.output_dim,))
    d = np.empty(lead + (m.d.spec.output_dim,))
    # no block of one row among more: numpy multiplies a lone row by its
    # vector path, whose bits differ from those of the matrix product
    starts = range(0, max(lead[-1] - 1, 1), _BLOCK_ROWS)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(starts, [*starts[1:], lead[-1]]):
            rows = slice(start, stop)
            feats = m.f.forward_array(x[..., rows, :])
            probs[..., rows, :] = m.c.forward_array(feats)
            d[..., rows, :] = m.d.forward_array(feats)
    return probs, d


# ---------------------------------------------------------------------------
# checkpoint io: textual, hex-encoded floats, bit-exact round trip


def save_checkpoint(m: ModelBundle, path) -> None:
    """Write a deterministic text checkpoint (hex floats, named arrays)."""
    meta = {
        "feature_dim": m.f.spec.output_dim,
        "num_source_classes": m.c.spec.output_dim,
        "class_ids": list(m.class_ids),
        "specs": {
            name: {"input_dim": s.input_dim, "hidden_dims": list(s.hidden_dims),
                   "output_dim": s.output_dim, "final_activation": s.final_activation}
            for name, s in (("f", m.f.spec), ("c", m.c.spec), ("d", m.d.spec))
        },
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for name, p in m.parameters():
        shape = " ".join(str(s) for s in p.value.shape)
        lines.append(f"{name} {shape}")
        lines.append(" ".join(map(float.hex, p.value.ravel().tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ModelBundle:
    """Read a ``save_checkpoint`` file; each parameter must appear exactly
    once with its declared shape and value count, and every value must be
    finite (``float.fromhex`` also reads ``nan`` and ``inf``), or
    ``ConfigError`` names the offending line."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"{path}:1: empty checkpoint")
    try:
        meta = json.loads(lines[0])
        specs = {
            name: MlpSpec(input_dim=s["input_dim"], hidden_dims=tuple(s["hidden_dims"]),
                          output_dim=s["output_dim"], final_activation=s["final_activation"])
            for name, s in meta["specs"].items()
        }
        m = init(specs["f"], specs["c"], specs["d"], seed=0,
                 class_ids=tuple(meta["class_ids"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}:1: bad checkpoint header: {exc!r}") from exc
    params = dict(m.parameters())
    loaded = set()
    for i in range(1, len(lines), 2):
        name, *shape = lines[i].split() or [""]
        if name not in params:
            raise ConfigError(f"{path}:{i + 1}: unknown parameter {name!r}")
        if name in loaded:
            raise ConfigError(f"{path}:{i + 1}: duplicate parameter {name!r}")
        value = params[name].value
        if shape != [str(n) for n in value.shape]:
            raise ConfigError(f"{path}:{i + 1}: {name} shape {shape}, "
                              f"expected {value.shape}")
        tokens = lines[i + 1].split() if i + 1 < len(lines) else []
        if len(tokens) != value.size:
            raise ConfigError(f"{path}:{i + 2}: {name} has {len(tokens)} values, "
                              f"expected {value.size}")
        try:
            value[...] = np.fromiter(map(float.fromhex, tokens), float,
                                     len(tokens)).reshape(value.shape)
        except ValueError as exc:
            raise ConfigError(f"{path}:{i + 2}: bad hex float: {exc}") from exc
        if not np.isfinite(value).all():
            bad = tokens[int(np.argmin(np.isfinite(value.ravel())))]
            raise ConfigError(f"{path}:{i + 2}: {name} has non-finite value {bad!r}")
        loaded.add(name)
    missing = [name for name in params if name not in loaded]
    if missing:
        raise ConfigError(f"{path}:{len(lines)}: truncated, missing parameters {missing}")
    return m
