"""Unit tests for the reverse-mode engine."""

import numpy as np
import pytest

from udaselect import autodiff as ad
from udaselect.autodiff import Node, backward
from udaselect.errors import ContractError, NumericError

import reference_autodiff as ref
from fdcheck import assert_grads_close, zero_grad


def bits(a) -> np.ndarray:
    """The float64 array ``a`` as raw 64-bit patterns, for bitwise comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestMatmul:
    def test_identity(self):
        a = Node(np.eye(2))
        b = Node([[2.0, 3.0], [4.0, 5.0]])
        assert np.array_equal(ad.matmul(a, b).value, b.value)

    def test_inner_product(self):
        out = ad.matmul(Node([[1.0, 2.0]]), Node([[3.0], [4.0]]))
        assert out.value[0, 0] == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ad.matmul(Node(np.ones((2, 3))), Node(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Node(rng.normal(size=(3, 3)))
        b = Node(rng.normal(size=(3, 3)))
        assert_grads_close(lambda: ad.sum_all(ad.matmul(a, b)), [a, b], atol=1e-6)


class TestRelu:
    def test_values(self):
        out = ad.relu(Node([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.value, [0.0, 0.0, 2.0])

    def test_all_negative_zero_grad(self):
        a = Node([-1.0, -2.0, -3.0])
        backward(ad.sum_all(ad.relu(a)))
        assert np.array_equal(a.grad, np.zeros(3))

    def test_gradient_away_from_kink(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=6)
        vals[np.abs(vals) < 1e-2] = 0.5
        a = Node(vals)
        assert_grads_close(lambda: ad.sum_all(ad.relu(a)), [a])


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_rows(Node([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.value, 1.0 / 3.0)

    def test_stability(self):
        out = ad.softmax_rows(Node([[1000.0, 0.0]]))
        assert out.value[0, 0] == pytest.approx(1.0)
        assert out.value[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ad.softmax_rows(Node(rng.normal(size=(5, 4)) * 10))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_cross_entropy_gradient_is_p_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = Node(rng.normal(size=(1, 4)))

        def loss_fn():
            probs = ad.softmax_rows(logits)
            picked = ad.gather(probs, [0], [2])
            return ad.mean_all(ad.affine(ad.log(ad.clamp_min(picked, 1e-12)), -1.0))

        backward(loss_fn())
        p = ad.softmax_rows(Node(logits.value)).value[0]
        onehot = np.eye(4)[2]
        np.testing.assert_allclose(logits.grad[0], p - onehot, atol=1e-8)
        zero_grad(logits)
        assert_grads_close(loss_fn, [logits], atol=1e-8)


class TestSigmoid:
    def test_zero(self):
        assert ad.sigmoid(Node([0.0])).value[0] == 0.5

    def test_large_negative_no_overflow(self):
        out = ad.sigmoid(Node([-1000.0]))
        assert 0.0 <= out.value[0] < 1e-300

    def test_gradient(self):
        a = Node(np.linspace(-3, 3, 7))
        assert_grads_close(lambda: ad.sum_all(ad.sigmoid(a)), [a], atol=1e-8)


class TestGradReverse:
    def test_forward_identity(self):
        a = Node([1.0, 2.0, 3.0])
        out = ad.grad_reverse(a, 1.0)
        assert np.array_equal(out.value, a.value)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_backward_negates_and_scales(self, lam):
        a = Node([[1.0, -2.0, 0.5]])
        upstream = np.array([[3.0], [1.0], [-4.0]])
        out = ad.matmul(ad.grad_reverse(a, lam), Node(upstream))
        backward(ad.sum_all(out))
        np.testing.assert_allclose(a.grad, -lam * upstream.T)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ContractError):
            ad.grad_reverse(Node([1.0]), -0.1)


class TestBackward:
    def test_sum_of_parameters(self):
        a = Node(np.ones((2, 3)))
        backward(ad.sum_all(a))
        assert np.array_equal(a.grad, np.ones((2, 3)))

    def test_fan_out_accumulates(self):
        a = Node([2.0])
        backward(ad.sum_all(ad.add(a, a)))
        assert np.array_equal(a.grad, [2.0])

    def test_shared_subexpression_equals_expanded_tree(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2))
        a = Node(x)
        shared = ad.relu(a)
        backward(ad.sum_all(ad.add(ad.square(shared), shared)))
        g_shared = a.grad.copy()

        a2 = Node(x)
        backward(ad.sum_all(ad.add(ad.square(ad.relu(a2)), ad.relu(a2))))
        np.testing.assert_array_equal(g_shared, a2.grad)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(Node([1.0, 2.0]))

    def test_accumulation_without_zeroing(self):
        a = Node([1.0, 2.0])
        backward(ad.sum_all(a))
        backward(ad.sum_all(a))
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    def test_small_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        w1, b1 = Node(rng.normal(size=(4, 2)) * 0.5), Node(rng.normal(size=2))
        w2, b2 = Node(rng.normal(size=(2, 3)) * 0.5), Node(rng.normal(size=3))
        x = rng.normal(size=(5, 4))

        def loss_fn():
            h = ad.relu(ad.add_bias(ad.matmul(Node(x), w1), b1))
            out = ad.softmax_rows(ad.add_bias(ad.matmul(h, w2), b2))
            return ad.mean_all(ad.affine(ad.log(ad.clamp_min(out, 1e-12)), -1.0))

        assert_grads_close(loss_fn, [w1, b1, w2, b2], atol=1e-6, rtol=1e-4)


class TestFiniteness:
    def test_nan_raises(self):
        with pytest.raises(NumericError):
            ad.log(Node([-1.0]))

    def test_inf_raises(self):
        with pytest.raises(NumericError):
            Node([np.inf])


def _leaf(rng, *shape):
    return Node(rng.uniform(0.5, 1.5, size=shape))


#: one small instance of every op, built from fresh leaves
OP_CASES = {
    "matmul": lambda r: ad.matmul(_leaf(r, 3, 2), _leaf(r, 2, 4)),
    "add": lambda r: ad.add(_leaf(r, 3, 2), _leaf(r, 3, 2)),
    "add_bias": lambda r: ad.add_bias(_leaf(r, 3, 2), _leaf(r, 2)),
    "affine": lambda r: ad.affine(_leaf(r, 3, 2), -2.0, 1.0),
    "relu": lambda r: ad.relu(_leaf(r, 3, 2)),
    "sigmoid": lambda r: ad.sigmoid(_leaf(r, 3, 2)),
    "softmax_rows": lambda r: ad.softmax_rows(_leaf(r, 3, 2)),
    "grad_reverse": lambda r: ad.grad_reverse(_leaf(r, 3, 2), 0.5),
    "log": lambda r: ad.log(_leaf(r, 3, 2)),
    "clamp_min": lambda r: ad.clamp_min(_leaf(r, 3, 2), 1.0),
    "take_rows": lambda r: ad.take_rows(_leaf(r, 4, 2), [2, 0, 2]),
    "concat_rows": lambda r: ad.concat_rows([_leaf(r, 1, 2), _leaf(r, 3, 2)]),
    "gather": lambda r: ad.gather(_leaf(r, 3, 2), [0, 2, 2], [1, 0, 0]),
    "mean_rows": lambda r: ad.mean_rows(_leaf(r, 3, 2)),
    "square": lambda r: ad.square(_leaf(r, 3, 2)),
    "sum_all": lambda r: ad.sum_all(_leaf(r, 3, 2)),
    "mean_all": lambda r: ad.mean_all(_leaf(r, 3, 2)),
}


class TestVjpContract:
    def test_every_op_has_a_case(self):
        public = {name for name, obj in vars(ad).items()
                  if callable(obj) and getattr(obj, "__module__", None) == ad.__name__
                  and not name.startswith("_")}
        assert public - {"Node", "constant", "backward"} == set(OP_CASES)

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_one_gradient_per_parent_with_its_shape(self, op):
        rng = np.random.default_rng(0)
        out = OP_CASES[op](rng)
        assert out.grad is None
        grads = out.vjp(rng.normal(size=out.shape))
        assert len(grads) == len(out.parents)
        assert [g.shape for g in grads] == [p.shape for p in out.parents]

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_vjp_leaves_parent_grads_untouched(self, op):
        rng = np.random.default_rng(0)
        out = OP_CASES[op](rng)
        out.vjp(rng.normal(size=out.shape))
        for p in out.parents:
            assert np.array_equal(p.grad, np.zeros(p.shape))

    def test_mean_rows_below_concat_rows(self):
        # concat_rows splits its upstream gradient by rows, so it needs
        # mean_rows to hand back a full (n, k) gradient
        a, b = Node(np.arange(6.0).reshape(2, 3)), Node(np.ones((4, 3)))
        backward(ad.sum_all(ad.square(ad.mean_rows(ad.concat_rows([a, b])))))
        col_means = np.concatenate([a.value, b.value]).mean(axis=0)
        np.testing.assert_allclose(a.grad, np.tile(2.0 * col_means / 6, (2, 1)))
        np.testing.assert_allclose(b.grad, np.tile(2.0 * col_means / 6, (4, 1)))


class TestGradStorage:
    def test_interior_nodes_hold_no_grad_after_backward(self):
        w, b = Node([[1.0, -2.0], [0.5, 3.0]]), Node([0.1, -0.2])
        x = ad.constant([[1.0, 2.0]])
        pre = ad.matmul(x, w)
        biased = ad.add_bias(pre, b)
        hidden = ad.relu(biased)
        squared = ad.square(hidden)
        loss = ad.sum_all(squared)
        backward(loss)
        for node in (pre, biased, hidden, squared, loss):
            assert node.grad is None
        upstream = 2.0 * hidden.value * (biased.value > 0)
        np.testing.assert_array_equal(w.grad, x.value.T @ upstream)
        np.testing.assert_array_equal(b.grad, upstream.sum(axis=0))
        np.testing.assert_array_equal(x.grad, upstream @ w.value.T)

    def test_leaf_root_grad_is_ones(self):
        a = Node([[3.0]])
        a.grad += 5.0
        backward(a)
        np.testing.assert_array_equal(a.grad, [[1.0]])


class TestReferenceForms:
    """The closed forms that replaced masked and wrapped numpy calls."""

    def test_sigmoid_equals_masked_reference_bitwise(self):
        edges = [0.0, -0.0, 700.0, -700.0, 1e300, -1e300, 1e-300, -1e-300, 36.0, -36.0]
        x = np.concatenate([edges, np.random.default_rng(0).normal(scale=20.0, size=997)])
        for shaped in (x, x.reshape(-1, 1)):
            np.testing.assert_array_equal(bits(ad.sigmoid(Node(shaped)).value),
                                          bits(ref.sigmoid_value(shaped)))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (64, 1), (64, 12), (33, 130),
                                       (1000, 3)])
    def test_means_equal_np_mean_bitwise(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        np.testing.assert_array_equal(bits(ad.mean_all(Node(x)).value), bits(np.mean(x)))
        np.testing.assert_array_equal(bits(ad.mean_rows(Node(x)).value),
                                      bits(np.mean(x, axis=0)))
