"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity is a :class:`Node` wrapping a numpy array.
An op is its output value, its parents and a vector-Jacobian product
(VJP): a pure function from the upstream gradient to one gradient per
parent, each of that parent's shape.  Ops never touch ``grad``.
:func:`backward` visits the nodes reachable from the loss once each, in
reverse creation order (a node is always created after its parents),
keeps interior gradients in a local table and accumulates into the
``grad`` buffers of leaves only.  Gradients accumulate across calls, so
callers zero parameter grads between optimization steps.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError

Vjp = Callable[[np.ndarray], Sequence[np.ndarray]]

#: creation sequence numbers; a node's parents always have smaller ones
_creation = itertools.count()


class Node:
    """A value in the computation graph.

    Leaves (parameters, inputs, constants) have no VJP and own a
    ``grad`` buffer of the value's shape.  An op's output holds its
    parents and ``vjp``; its ``grad`` stays None.  ``seq`` orders nodes
    by creation.
    """

    __slots__ = ("value", "grad", "op", "parents", "vjp", "seq")

    def __init__(self, value, parents: Sequence["Node"] = (), op: str = "leaf",
                 backward: Vjp | None = None):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NumericError(f"non-finite values produced by op '{op}'")
        self.value = value
        self.grad = np.zeros_like(value) if backward is None else None
        self.op = op
        self.parents = tuple(parents)
        self.vjp = backward
        self.seq = next(_creation)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def constant(value) -> Node:
    """A graph leaf that never receives gradient updates of interest."""
    return Node(value, op="const")


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf reachable from ``loss``.

    ``loss`` must be a scalar (size-1) node; a leaf ``loss`` gets grad 1.
    """
    if loss.value.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.vjp is None:
        loss.grad[...] = 1.0
        return
    # A node pops only after every consumer it has, since consumers are
    # created later; the heap holds interior nodes that have a gradient.
    grads = {loss: np.ones(loss.shape)}
    heap = [(-loss.seq, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        for p, g in zip(node.parents, node.vjp(grads.pop(node))):
            if p.vjp is None:
                p.grad += g
            elif p in grads:
                grads[p] = grads[p] + g
            else:
                grads[p] = g
                heapq.heappush(heap, (-p.seq, p))


# ---------------------------------------------------------------------------
# ops


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        prod = a.value @ b.value
    return Node(prod, (a, b), "matmul",
                lambda g: (g @ b.value.T, a.value.T @ g))


def add(a: Node, b: Node) -> Node:
    if a.shape != b.shape:
        raise ContractError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return Node(a.value + b.value, (a, b), "add", lambda g: (g, g))


def add_bias(m: Node, bias: Node) -> Node:
    """Row-wise bias addition: (n, k) + (k,)."""
    if m.value.ndim != 2 or bias.value.ndim != 1 or m.shape[1] != bias.shape[0]:
        raise ContractError(f"add_bias shape mismatch: {m.shape} + {bias.shape}")
    return Node(m.value + bias.value, (m, bias), "add_bias",
                lambda g: (g, g.sum(axis=0)))


def affine(a: Node, scale: float = 1.0, shift: float = 0.0) -> Node:
    """Elementwise scale * a + shift with constant coefficients."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = scale * a.value + shift
    return Node(val, (a,), "affine", lambda g: (scale * g,))


def relu(a: Node) -> Node:
    mask = a.value > 0.0  # subgradient at 0 is 0
    return Node(np.maximum(a.value, 0.0), (a,), "relu", lambda g: (g * mask,))


def sigmoid(a: Node) -> Node:
    """Logistic function from exp(-|x|), which cannot overflow; output in (0, 1)."""
    x = a.value
    e = np.exp(-np.abs(x))
    val = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Node(val, (a,), "sigmoid", lambda g: (g * val * (1.0 - val),))


def softmax_rows(a: Node) -> Node:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    if a.value.ndim != 2:
        raise ContractError("softmax_rows expects a 2-d node")
    z = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    # J^T g = s * (g - <g, s> per row)
    return Node(s, (a,), "softmax",
                lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))


def grad_reverse(a: Node, lam: float) -> Node:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ContractError(f"grad_reverse lambda must be >= 0, got {lam}")
    return Node(a.value, (a,), "grad_reverse", lambda g: (-lam * g,))


def log(a: Node) -> Node:
    """Natural log; pair with clamp_min to keep inputs positive."""
    with np.errstate(invalid="ignore", divide="ignore"):
        val = np.log(a.value)
    return Node(val, (a,), "log", lambda g: (g / a.value,))


def clamp_min(a: Node, lo: float) -> Node:
    mask = a.value > lo
    return Node(np.maximum(a.value, lo), (a,), "clamp_min", lambda g: (g * mask,))


def _scatter(shape: tuple[int, ...], index, g: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``g`` added at ``index`` (repeats add up)."""
    out = np.zeros(shape)
    np.add.at(out, index, g)
    return out


def take_rows(a: Node, idx: np.ndarray) -> Node:
    """Select rows by index; backward scatters gradients back."""
    idx = np.asarray(idx, dtype=np.intp)
    return Node(a.value[idx], (a,), "take_rows",
                lambda g: (_scatter(a.shape, idx, g),))


def concat_rows(nodes: Sequence[Node]) -> Node:
    if not nodes:
        raise ContractError("concat_rows requires at least one node")
    cuts = np.cumsum([n.shape[0] for n in nodes])[:-1]
    return Node(np.concatenate([n.value for n in nodes], axis=0), tuple(nodes),
                "concat", lambda g: np.split(g, cuts))


def gather(a: Node, rows: np.ndarray, cols: np.ndarray) -> Node:
    """Pick one entry per (row, col) pair into a 1-d node."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    return Node(a.value[rows, cols], (a,), "gather",
                lambda g: (_scatter(a.shape, (rows, cols), g),))


def mean_rows(a: Node) -> Node:
    """Column means of a 2-d node: (n, k) -> (k,)."""
    if a.value.ndim != 2 or a.shape[0] == 0:
        raise ContractError("mean_rows expects a non-empty 2-d node")
    n = a.shape[0]
    return Node(a.value.sum(axis=0) / n, (a,), "mean_rows",
                lambda g: (np.broadcast_to(g / n, a.shape),))


def square(a: Node) -> Node:
    return Node(a.value * a.value, (a,), "square", lambda g: (2.0 * a.value * g,))


def sum_all(a: Node) -> Node:
    return Node(np.asarray(a.value.sum()), (a,), "sum",
                lambda g: (np.broadcast_to(g, a.shape),))


def mean_all(a: Node) -> Node:
    if a.value.size == 0:
        raise ContractError("mean_all of an empty node")
    n = a.value.size
    return Node(np.asarray(a.value.sum() / n), (a,), "mean",
                lambda g: (np.broadcast_to(g / n, a.shape),))
