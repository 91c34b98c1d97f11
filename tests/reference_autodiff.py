"""Reference graph traversal and sigmoid for the autodiff engine.

``backward`` here sorts the graph with an explicit post-order DFS and
walks it in reverse, the form ``autodiff.backward`` had before it
traversed nodes in reverse creation order.  ``sigmoid_value`` is the
boolean-mask form of the logistic function.  Tests compare the engine
against these bit for bit.
"""

import numpy as np

from udaselect.autodiff import Node
from udaselect.errors import ContractError


def topo_order(root: Node) -> list[Node]:
    """Iterative post-order DFS; each node appears exactly once."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf reachable from ``loss``."""
    if loss.value.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.vjp is None:
        loss.grad = np.ones_like(loss.value)
        return
    grads = {id(loss): np.ones_like(loss.value)}
    for node in reversed(topo_order(loss)):
        if node.vjp is None:
            continue
        for p, g in zip(node.parents, node.vjp(grads.pop(id(node)))):
            if p.vjp is None:
                p.grad += g
            elif id(p) in grads:
                grads[id(p)] = grads[id(p)] + g
            else:
                grads[id(p)] = g


def sigmoid_value(x: np.ndarray) -> np.ndarray:
    """Logistic function computed separately on each sign's mask."""
    val = np.empty_like(x)
    pos = x >= 0
    val[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    val[~pos] = ex / (1.0 + ex)
    return val
