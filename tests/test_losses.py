"""Unit tests for the three loss terms and their composition."""

import math

import numpy as np
import pytest

from udaselect import autodiff as ad
from udaselect import losses as ls
from udaselect.autodiff import Node, backward
from udaselect.errors import ContractError


def prob_node(rows):
    return Node(np.asarray(rows, dtype=float))


def source_ce(p, label):
    """The source cross-entropy of ``loss_classification`` for one row."""
    probs = p if isinstance(p, Node) else prob_node([p])
    loss, _ = ls.loss_classification(probs, np.array([label]), prob_node([[0.5, 0.5]]),
                                     np.array([0.0]), math.inf, 0.6)
    return loss


class TestCrossEntropy:
    def test_correct_one_hot_is_zero(self):
        assert float(source_ce([0.0, 1.0], 1).value) == 0.0

    def test_uniform_is_log_n(self):
        assert float(source_ce(np.full(4, 0.25), 2).value) == pytest.approx(math.log(4))

    def test_known_value(self):
        assert float(source_ce([0.1, 0.9], 0).value) == pytest.approx(2.302585, abs=1e-6)

    def test_zero_probability_is_clamped(self):
        assert float(source_ce([0.0, 1.0], 0).value) == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range(self):
        for label in (2, -1):
            with pytest.raises(ContractError):
                source_ce([0.5, 0.5], label)

    def test_gradient(self):
        p = Node([[0.3, 0.7]])
        backward(source_ce(p, 0))
        np.testing.assert_allclose(p.grad, [[-1.0 / 0.3, 0.0]])


class TestLossClassification:
    def _inputs(self):
        src = prob_node([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]])
        tgt = prob_node([[0.9, 0.05, 0.05], [0.3, 0.4, 0.3]])
        return src, np.array([0, 1]), tgt

    def test_threshold_above_range_equals_source_only(self):
        src, y, tgt = self._inputs()
        scores = np.array([1.4, 0.9])
        loss, n = ls.loss_classification(src, y, tgt, scores, 2.0, 0.6)
        src_only = -(math.log(0.8) + math.log(0.7)) / 2
        assert n == 0
        assert float(loss.value) == pytest.approx(src_only)

    def test_threshold_zero_selects_everything(self):
        src, y, tgt = self._inputs()
        _, n = ls.loss_classification(src, y, tgt, np.array([0.5, 0.5]), 0.0, 0.6)
        assert n == 2

    def test_confident_prediction_adds_almost_nothing(self):
        src, y, _ = self._inputs()
        tgt = prob_node([[1.0 - 1e-9, 1e-9, 0.0]])
        base, _ = ls.loss_classification(src, y, tgt, np.array([0.0]), 2.0, 0.6)
        full, n = ls.loss_classification(src, y, tgt, np.array([1.9]), 0.0, 0.6)
        assert n == 1
        assert float(full.value) == pytest.approx(float(base.value), abs=1e-8)

    def test_empty_source_rejected(self):
        tgt = prob_node([[0.5, 0.5]])
        with pytest.raises(ContractError):
            ls.loss_classification(prob_node(np.zeros((0, 2))), np.array([]),
                                   tgt, np.array([1.0]), 1.0, 0.6)

    def test_non_selected_targets_get_zero_gradient(self):
        src, y, _ = self._inputs()
        tgt = prob_node([[0.9, 0.05, 0.05], [0.3, 0.4, 0.3]])
        scores = np.array([1.6, 0.4])  # only sample 0 selected
        loss, n = ls.loss_classification(src, y, tgt, scores, 1.5, 0.6)
        backward(loss)
        assert n == 1
        assert np.any(tgt.grad[0] != 0.0)
        assert np.all(tgt.grad[1] == 0.0)


class TestDiversityTerm:
    def test_single_class_batch_hits_upper_bound(self):
        probs = prob_node([[1.0, 0.0, 0.0]] * 5)
        assert float(ls.diversity_term(probs).value) == pytest.approx(1.0)

    def test_uniform_column_means_hit_lower_bound(self):
        probs = prob_node(np.full((4, 4), 0.25))
        assert float(ls.diversity_term(probs).value) == pytest.approx(0.25)

    def test_two_one_hots_in_different_classes(self):
        probs = prob_node([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert float(ls.diversity_term(probs).value) == pytest.approx(0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            ls.diversity_term(prob_node(np.zeros((0, 3))))

    def test_bounds_on_random_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n, k = rng.integers(1, 9), rng.integers(2, 7)
            probs = prob_node(rng.dirichlet(np.ones(k), size=n))
            v = float(ls.diversity_term(probs).value)
            assert 1.0 / k - 1e-12 <= v <= 1.0 + 1e-12


class TestLossBatchDiversity:
    def test_off_mode_is_zero(self):
        loss, n = ls.loss_batch_diversity(prob_node([[1.0, 0.0]]),
                                          prob_node([[0.5, 0.5]]),
                                          np.array([1.5]), 0.8, "off")
        assert float(loss.value) == 0.0 and n == 0

    def test_high_threshold_reduces_to_source_only(self):
        src = prob_node([[1.0, 0.0], [0.0, 1.0]])
        tgt = prob_node([[0.5, 0.5]])
        loss, n = ls.loss_batch_diversity(src, tgt, np.array([1.0]), 5.0, "both")
        assert n == 0
        assert float(loss.value) == pytest.approx(
            float(ls.diversity_term(src).value))

    def test_both_mode_union_example(self):
        src = prob_node([[1, 0], [1, 0]])
        tgt = prob_node([[0, 1], [0, 1]])
        loss, n = ls.loss_batch_diversity(src, tgt, np.array([1.5, 1.5]), 0.8, "both")
        assert n == 2
        assert float(loss.value) == pytest.approx(0.5)

    def test_target_only_empty_selection_is_zero(self):
        loss, n = ls.loss_batch_diversity(prob_node([[1.0, 0.0]]),
                                          prob_node([[0.5, 0.5]]),
                                          np.array([0.1]), 0.8, "target_only")
        assert float(loss.value) == 0.0 and n == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            ls.loss_batch_diversity(prob_node([[1.0]]), prob_node([[1.0]]),
                                    np.array([1.0]), 0.5, "sometimes")


class TestLossDomain:
    def test_perfect_discriminator_near_zero(self):
        loss = ls.loss_domain(Node([[1.0 - 1e-9]]), Node([[1e-9]]))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-8)

    def test_maximal_confusion(self):
        loss = ls.loss_domain(Node([[0.5], [0.5]]), Node([[0.5]]))
        assert float(loss.value) == pytest.approx(2 * math.log(2))

    def test_known_value(self):
        loss = ls.loss_domain(Node([[0.8]]), Node([[0.3]]))
        assert float(loss.value) == pytest.approx(-math.log(0.8) - math.log(0.7))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            ls.loss_domain(Node(np.zeros((0, 1))), Node([[0.5]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        ds, dt = rng.uniform(0.01, 0.99, (5, 1)), rng.uniform(0.01, 0.99, (4, 1))
        a = float(ls.loss_domain(Node(ds), Node(dt)).value)
        b = float(ls.loss_domain(Node(ds[::-1].copy()), Node(dt[::-1].copy())).value)
        assert a == pytest.approx(b)

    def test_domain_swap_symmetry(self):
        rng = np.random.default_rng(1)
        ds, dt = rng.uniform(0.01, 0.99, (3, 1)), rng.uniform(0.01, 0.99, (3, 1))
        a = float(ls.loss_domain(Node(ds), Node(dt)).value)
        b = float(ls.loss_domain(Node(1.0 - dt), Node(1.0 - ds)).value)
        assert a == pytest.approx(b)


class TestLossCompound:
    def _graphs(self, use_grl, lam=1.0):
        from test_model import small_bundle
        from udaselect import model as md
        m = small_bundle()
        rng = np.random.default_rng(0)
        xs, xt = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        feats_s, feats_t = md.features(m, xs), md.features(m, xt)
        probs_s = md.label_probs(m, feats_s)
        probs_t = md.label_probs(m, feats_t)
        head_s = ad.grad_reverse(feats_s, lam) if use_grl else feats_s
        head_t = ad.grad_reverse(feats_t, lam) if use_grl else feats_t
        d_s, d_t = m.d.forward(head_s), m.d.forward(head_t)
        scores = np.array([1.6, 0.2, 1.7, 0.1])
        l_c, n_pl = ls.loss_classification(probs_s, np.array([0, 1, 2, 0]),
                                           probs_t, scores, 1.5, 0.6)
        l_bd, n_div = ls.loss_batch_diversity(probs_s, probs_t, scores, 0.8, "both")
        l_d = ls.loss_domain(d_s, d_t)
        total, breakdown = ls.loss_compound(l_c, l_bd, l_d, n_pl, n_div)
        return m, total, l_d, breakdown

    def test_breakdown_sums(self):
        _, _, _, b = self._graphs(True)
        assert b.total - b.l_c - b.l_bd - b.l_d == pytest.approx(0.0, abs=1e-12)

    def test_domain_net_gradient_equals_domain_loss_alone(self):
        m, total, l_d, _ = self._graphs(True)
        m.zero_grads()
        backward(total)
        full = [w.grad.copy() for w in m.d.weights]
        m2, _, l_d2, _ = self._graphs(True)
        m2.zero_grads()
        backward(l_d2)
        alone = [w.grad.copy() for w in m2.d.weights]
        for a, b in zip(full, alone):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extractor_domain_gradient_is_negated_by_grl(self):
        m1, _, l_d1, _ = self._graphs(True, lam=1.0)
        m1.zero_grads()
        backward(l_d1)
        g_with = m1.f.weights[0].grad.copy()
        m2, _, l_d2, _ = self._graphs(False)
        m2.zero_grads()
        backward(l_d2)
        np.testing.assert_allclose(g_with, -m2.f.weights[0].grad, atol=1e-12)


class TestArrayLossesOnTheDomainStack:
    """Each array loss takes the ``(2, half, ·)`` stack (slice 0 the source,
    slice 1 the target) and returns one gradient of the stack's shape,
    equal to the node loss's gradients and zero where its term does not
    reach."""

    def _stack(self, half=6):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=(2, half))
        d = rng.uniform(0.05, 0.95, size=(2, half, 1))
        return probs, d, rng.integers(0, 3, size=half), rng.uniform(0.0, 2.0, size=half)

    def _node_grads(self, build, stack):
        """The node loss built on the stack's two slices, and their gradients."""
        halves = Node(stack[0]), Node(stack[1])
        loss, *count = build(*halves)
        backward(loss)
        return float(loss.value), count, np.array([h.grad for h in halves])

    @pytest.mark.parametrize("w_alpha", [0.0, 1.0, math.inf])
    def test_classification(self, w_alpha):
        probs, _, labels, scores = self._stack()
        value, n, grad = ls.classification_array(probs, labels, scores, w_alpha, 0.6)
        node_value, node_count, node_grad = self._node_grads(
            lambda s, t: ls.loss_classification(s, labels, t, scores, w_alpha, 0.6),
            probs)
        assert grad.shape == probs.shape
        assert (value, [n]) == (node_value, node_count)
        np.testing.assert_array_equal(grad, node_grad)
        assert n == (scores > w_alpha).sum()
        assert (grad[1] == 0.0).all() == (n == 0)

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    @pytest.mark.parametrize("w_beta", [0.5, math.inf])
    def test_batch_diversity(self, mode, w_beta):
        probs, _, _, scores = self._stack()
        value, n, grad = ls.batch_diversity_array(probs, scores, w_beta, mode)
        node_value, node_count, node_grad = self._node_grads(
            lambda s, t: ls.loss_batch_diversity(s, t, scores, w_beta, mode), probs)
        assert grad.shape == probs.shape
        assert (value, [n]) == (node_value, node_count)
        np.testing.assert_array_equal(grad, node_grad)
        assert (grad[0] == 0.0).all() == (mode != "both")
        assert (grad[1] == 0.0).all() == (n == 0)
        if mode == "off":
            assert value == 0.0 and n == 0

    def test_domain(self):
        _, d, _, _ = self._stack()
        value, grad = ls.domain_array(d)
        node_value, _, node_grad = self._node_grads(
            lambda s, t: (ls.loss_domain(s, t),), d)
        assert grad.shape == d.shape
        assert value == node_value
        np.testing.assert_array_equal(grad, node_grad)
