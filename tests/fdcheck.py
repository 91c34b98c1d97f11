"""Central finite-difference oracle for gradient checks."""

import numpy as np

from udaselect.autodiff import backward


def numeric_grad(loss_fn, param, h=1e-5):
    """d loss_fn() / d param entry-by-entry via central differences.

    ``loss_fn`` must rebuild the graph from the leaf nodes on each call;
    ``param.value`` is perturbed in place and restored.
    """
    grad = np.zeros_like(param.value)
    flat = param.value.ravel()
    gf = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float(loss_fn().value)
        flat[i] = orig - h
        lm = float(loss_fn().value)
        flat[i] = orig
        gf[i] = (lp - lm) / (2.0 * h)
    return grad


def zero_grad(leaf):
    """Clear a leaf's accumulated gradient in place."""
    leaf.grad[...] = 0.0


def analytic_grads(loss_fn, params):
    for p in params:
        zero_grad(p)
    backward(loss_fn())
    return [p.grad.copy() for p in params]


def assert_grads_close(loss_fn, params, atol=1e-6, rtol=1e-4):
    """Analytic vs numeric within max(atol, rtol * |numeric|) per entry."""
    analytic = analytic_grads(loss_fn, params)
    for p, a in zip(params, analytic):
        n = numeric_grad(loss_fn, p)
        err = np.abs(a - n)
        tol = np.maximum(atol, rtol * np.abs(n))
        assert np.all(err <= tol), (
            f"gradient mismatch: max abs err {err.max():.3e} "
            f"(analytic vs central differences)")
