"""Per-row reference scorers and decision rule.

These are the one-sample-at-a-time forms of ``scoring.entropy``,
``scoring.score_for_scheme`` and ``evaluation.decide``.  The package
works on whole column arrays; tests compare it against these loops.
"""

import numpy as np

from udaselect.data import TAU
from udaselect.errors import ContractError


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ContractError("entropy requires nonnegative entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ContractError(f"entropy requires a probability vector, sum={p.sum()}")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _check_d(d: float) -> None:
    if not 0.0 <= d <= 1.0:
        raise ContractError(f"d must be in [0,1], got {d}")


def score_ours(d: float, y_bar: np.ndarray) -> float:
    """d + max prob, in [0, 2]."""
    _check_d(d)
    return float(d + np.max(y_bar))


def score_uan(d: float, y_bar: np.ndarray) -> float:
    """d - H(y_bar)/ln(K), in [-1, 1]; requires at least two classes."""
    _check_d(d)
    k = len(y_bar)
    if k < 2:
        raise ContractError("uan score needs at least 2 classes")
    return float(d - entropy(y_bar) / np.log(k))


def score_entropy(y_bar: np.ndarray) -> float:
    """1 - H(y_bar)/ln(K): 1 for one-hot, 0 for uniform."""
    k = len(y_bar)
    if k < 2:
        raise ContractError("entropy score needs at least 2 classes")
    return float(1.0 - entropy(y_bar) / np.log(k))


def score_for_scheme(scheme: str, d: float, y_bar: np.ndarray) -> float:
    if scheme == "ours":
        return score_ours(d, y_bar)
    if scheme == "uan":
        return score_uan(d, y_bar)
    if scheme == "entropy":
        return score_entropy(y_bar)
    if scheme == "ours_no_d":
        return float(np.max(y_bar))
    if scheme == "ours_no_maxy":
        _check_d(d)
        return float(d)
    raise ContractError(f"unknown scheme {scheme!r}")


def decide(w: float, y_bar: np.ndarray, w0: float, class_ids: tuple[int, ...]) -> int:
    """Argmax class (ties to the lowest index) iff the score exceeds w0."""
    cls = int(class_ids[int(np.argmax(y_bar))])
    return cls if w > w0 else TAU


#: class counts the vectorized paths are compared at
KS = (2, 6, 8, 17)


def softmax_inputs(k, zeros, n=300):
    """Domain probabilities and softmax rows; with ``zeros``, about a third
    of each row's non-argmax entries set to exactly 0 and renormalized."""
    rng = np.random.default_rng(k)
    z = rng.normal(0.0, 3.0, size=(n, k))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    assert np.all(p > 0)
    if zeros:
        drop = rng.random((n, k)) < 0.35
        drop[np.arange(n), p.argmax(axis=1)] = False
        p = np.where(drop, 0.0, p)
        p /= p.sum(axis=1, keepdims=True)
    return rng.uniform(0.0, 1.0, size=n), p


def assert_matches(got, want, k, zeros):
    """Bit for bit, except that rows with exact zeros and K >= 8 may be
    summed in another association and are allowed K ulps of 1."""
    want = np.asarray(want)
    if zeros and k >= 8:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=k * np.finfo(float).eps)
    else:
        assert np.array_equal(got, want)

