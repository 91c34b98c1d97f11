"""Unit tests for the three loss terms and their composition."""

import math

import numpy as np
import pytest

from udaselect import autodiff as ad
from udaselect import losses as ls
from udaselect.autodiff import Node, backward
from udaselect.errors import ContractError


def bits(a) -> np.ndarray:
    """The float64 array ``a`` as raw 64-bit patterns, for bitwise comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


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

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_out_of_range(self, label):
        with pytest.raises(ContractError, match=r"^source labels must lie in \[0, 2\)$"):
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

    @pytest.mark.parametrize("label", [-1, 3])
    def test_array_and_node_reject_the_same_labels(self, label):
        src, y, tgt = self._inputs()
        y = np.array([0, label])
        scores = np.array([1.0, 1.0])
        msg = r"^source labels must lie in \[0, 3\)$"
        with pytest.raises(ContractError, match=msg):
            ls.loss_classification(src, y, tgt, scores, 0.5, 0.6)
        with pytest.raises(ContractError, match=msg):
            ls.compound_array(np.array([[src.value, tgt.value]]), np.full((1, 2, 2, 1), 0.5),
                              y[None], scores[None], 0.5, 0.5, 0.6, "both")
        with pytest.raises(ContractError, match=msg):  # the same lane in a stack
            ls.compound_array(np.array([[src.value, tgt.value]] * 2),
                              np.full((2, 2, 2, 1), 0.5), np.stack([[0, 1], y]),
                              np.stack([scores] * 2), 0.5, 0.5, 0.6, "both")

    @pytest.mark.parametrize("y", [[0], [0, 1, 2]])
    def test_array_and_node_reject_labels_not_one_per_source_row(self, y):
        src, _, tgt = self._inputs()
        scores = np.array([1.0, 1.0])
        msg = r"^source_labels must align with source_probs rows$"
        with pytest.raises(ContractError, match=msg):
            ls.loss_classification(src, np.array(y), tgt, scores, 0.5, 0.6)
        with pytest.raises(ContractError, match=msg):
            ls.compound_array(np.array([[src.value, tgt.value]]), np.full((1, 2, 2, 1), 0.5),
                              np.array([y]), scores[None], 0.5, 0.5, 0.6, "both")

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
        m.grads.fill(0.0)
        backward(total)
        full = [w.grad.copy() for w in m.d.weights]
        m2, _, l_d2, _ = self._graphs(True)
        m2.grads.fill(0.0)
        backward(l_d2)
        alone = [w.grad.copy() for w in m2.d.weights]
        for a, b in zip(full, alone):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extractor_domain_gradient_is_negated_by_grl(self):
        m1, _, l_d1, _ = self._graphs(True, lam=1.0)
        m1.grads.fill(0.0)
        backward(l_d1)
        g_with = m1.f.weights[0].grad.copy()
        m2, _, l_d2, _ = self._graphs(False)
        m2.grads.fill(0.0)
        backward(l_d2)
        np.testing.assert_allclose(g_with, -m2.f.weights[0].grad, atol=1e-12)


class TestArrayLossesOnTheDomainStack:
    """``compound_array`` takes lanes of the ``(2, half, ·)`` stacks of
    probabilities and domain outputs (slice 0 the source, slice 1 the
    target) and returns each lane's ``loss_compound`` breakdown and one
    gradient per stack, bit for bit the engine's: the head stack is the
    gradient of the engine's ``l_c + l_bd`` and the domain stack that of
    its ``l_d``.  Each lane of a stack of several gets the bits of its
    own one-lane call."""

    def _stack(self, half=10, seed=0):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(3), size=(2, half))
        d = rng.uniform(0.05, 0.95, size=(2, half, 1))
        return probs, d, rng.integers(0, 3, size=half), rng.uniform(0.0, 2.0, size=half)

    @staticmethod
    def _halves(stack):
        """The stack's two slices as interior nodes, as the networks'
        outputs are in the step's graph, and the gradient the engine
        passes into each (zeros if none): a leaf's ``grad +=`` would add
        a ``0.0`` that turns a ``-0.0`` into ``+0.0``."""
        grads = np.zeros(stack.shape)

        def half(i):
            def vjp(g):
                grads[i] = g
                return (g,)
            return Node(stack[i], (Node(stack[i]),), "half", vjp)

        return (half(0), half(1)), grads

    def _engine(self, probs, d, labels, scores, w_alpha, w_beta, gamma, mode):
        """``loss_compound`` of the node losses on the stacks' slices: its
        breakdown and the gradients of the two stacks."""
        (p_s, p_t), g_probs = self._halves(probs)
        (d_s, d_t), g_d = self._halves(d)
        l_c, n_pl = ls.loss_classification(p_s, labels, p_t, scores, w_alpha, gamma)
        l_bd, n_div = ls.loss_batch_diversity(p_s, p_t, scores, w_beta, mode)
        total, breakdown = ls.loss_compound(l_c, l_bd, ls.loss_domain(d_s, d_t),
                                            n_pl, n_div)
        backward(total)
        return breakdown, g_probs, g_d

    @staticmethod
    def _assert_equal(got, want):
        """One lane's breakdown and gradients against the engine's."""
        for (b, g_probs, g_d), stacks in ((got, want[1:]), (want, want[1:])):
            assert g_probs.shape == stacks[0].shape and g_d.shape == stacks[1].shape
        values = [[b.l_c, b.l_bd, b.l_d, b.total] for b, *_ in (got, want)]
        np.testing.assert_array_equal(bits(values[0]), bits(values[1]))
        assert ((got[0].n_pseudo_selected, got[0].n_diversity_selected)
                == (want[0].n_pseudo_selected, want[0].n_diversity_selected))
        assert all(type(n) is int for n in got[0][4:])
        np.testing.assert_array_equal(bits(got[1]), bits(want[1]))
        np.testing.assert_array_equal(bits(got[2]), bits(want[2]))
        assert not np.signbit(got[1][got[1] == 0.0]).any()  # no head entry is -0.0

    def check(self, probs, d, labels, scores, w_alpha=0.5, w_beta=0.5, gamma=0.6,
              mode="both"):
        """``compound_array`` against the engine, as a stack of one lane and
        as lane 1 of three whose other lanes hold other data; returns the
        one-lane result without its lane axis."""
        args = (w_alpha, w_beta, gamma, mode)
        (b,), g_probs, g_d = ls.compound_array(probs[None], d[None], labels[None],
                                               scores[None], *args)
        g_probs, g_d = g_probs[0], g_d[0]
        self._assert_equal((b, g_probs, g_d), self._engine(probs, d, labels, scores, *args))
        lanes = [self._stack(len(labels), seed=1), (probs, d, labels, scores),
                 self._stack(len(labels), seed=2)]
        stacked = ls.compound_array(*(np.stack(a) for a in zip(*lanes)), *args)
        assert len(stacked[0]) == 3
        for lane, inputs in enumerate(lanes):
            self._assert_equal([part[lane] for part in stacked], self._engine(*inputs, *args))
        return b, g_probs, g_d

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    @pytest.mark.parametrize("w_alpha", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("w_beta", [0.5, math.inf])
    @pytest.mark.parametrize("gamma", [0.0, 0.9])  # 0.9 / 10 != 0.9 * (1 / 10)
    def test_equals_the_engine(self, mode, w_alpha, w_beta, gamma):
        probs, d, labels, scores = self._stack()
        b, g_probs, _ = self.check(probs, d, labels, scores, w_alpha, w_beta, gamma, mode)
        n_pl, n_div = b.n_pseudo_selected, b.n_diversity_selected
        assert n_pl == (scores > w_alpha).sum()
        assert n_div == (0 if mode == "off" else (scores > w_beta).sum())
        assert (g_probs[1] == 0.0).all() == ((n_pl == 0 or gamma == 0) and n_div == 0)
        if mode == "off":
            assert b.l_bd == 0.0

    def _floor_stack(self):
        """A stack whose labelled and selected probabilities reach
        ``PROB_FLOOR`` or fall below it, where the CE gradient is ``-0.0``
        before the scatter's ``0.0 +``: rows 0-2 of each half."""
        probs, d, _, _ = self._stack(half=5)
        labels = np.array([0, 1, 2, 0, 1])
        probs[0, 0, 0] = 0.0
        probs[0, 1, 1] = ls.PROB_FLOOR
        probs[0, 2, 2] = ls.PROB_FLOOR / 2
        probs[1, 0] = 0.0  # pseudo-label 0, probability 0
        probs[1, 1] = [ls.PROB_FLOOR, ls.PROB_FLOOR / 4, 0.0]
        probs[1, 2] = [0.0, ls.PROB_FLOOR / 2, 0.0]
        return probs, d, labels, np.array([1.0, 1.0, 1.0, 0.2, 1.4])

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    def test_probabilities_at_the_floor(self, mode):
        self.check(*self._floor_stack(), mode=mode)

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    def test_strided_stack_and_int32_labels(self, mode):
        """A ``probs`` stack that is a strided view, every other column of
        a wider table, and ``int32`` labels give the same bits."""
        probs, d, labels, scores = self._floor_stack()
        wide = np.zeros(probs.shape[:-1] + (2 * probs.shape[-1],))
        wide[..., ::2] = probs
        assert not wide[..., ::2].flags.c_contiguous
        self.check(wide[..., ::2], d, labels.astype(np.int32), scores, mode=mode)

    def test_domain_outputs_at_the_edges(self):
        """``d`` at 0, ``PROB_FLOOR``, ``1 - PROB_FLOOR`` and 1 in both halves;
        the first two entries of each half's NLL input are clamped, and
        their gradients are signed zeros."""
        probs, _, labels, scores = self._stack(half=4)
        e = [0.0, ls.PROB_FLOOR, 1.0 - ls.PROB_FLOOR, 1.0]
        _, _, g_d = self.check(probs, np.array([e, e[::-1]])[..., None], labels, scores)
        assert (g_d[:, :2] == 0.0).all() and (g_d[:, 2:] != 0.0).all()

    @pytest.mark.parametrize("bad, msg", [
        (dict(mode="sometimes"), r"^unknown diversity mode 'sometimes'$"),
        (dict(gamma=-1.0), r"^gamma must be >= 0, got -1.0$"),
        (dict(scores=np.ones((1, 9))), r"^target_scores must align with target_probs rows$"),
        (dict(half=0), r"^source batch must be non-empty$"),
        (dict(d=np.full((1, 2, 9, 1), 0.5)),
         r"^d must be the \(1, 2, 10, 1\) domain stack, got \(1, 2, 9, 1\)$"),
        (dict(d=np.full((1, 20, 1), 0.5)),
         r"^d must be the \(1, 2, 10, 1\) domain stack, got \(1, 20, 1\)$"),
        (dict(probs=np.full((1, 3, 10, 3), 1 / 3)),
         r"^probs must be an \(R, 2, half, K\) stack of lanes, got \(1, 3, 10, 3\)$"),
        (dict(probs=np.full((2, 10, 3), 1 / 3)),
         r"^probs must be an \(R, 2, half, K\) stack of lanes, got \(2, 10, 3\)$"),
    ])
    def test_rejects_what_the_node_losses_reject(self, bad, msg):
        """Each case's stacks are one lane's; ``bad`` replaces one of them."""
        probs, d, labels, scores = (a[None] for a in self._stack(half=bad.pop("half", 10)))
        args = dict(probs=probs, d=d, source_labels=labels, target_scores=scores,
                    w_alpha=0.5, w_beta=0.5, gamma=0.6, mode="both")
        args.update({"target_scores" if k == "scores" else k: v for k, v in bad.items()})
        with pytest.raises(ContractError, match=msg):
            ls.compound_array(**args)
