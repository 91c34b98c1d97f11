"""Unit and property tests for the transfer-score schemes."""

import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scoring as ref
from udaselect import cli
from udaselect import data as dt
from udaselect import model as md
from udaselect import scoring as sc
from udaselect import trainer as tr
from udaselect.errors import ContractError, NumericError


def score_ours(d, y_bar):
    return sc.score_for_scheme("ours", d, y_bar)


def score_uan(d, y_bar):
    return sc.score_for_scheme("uan", d, y_bar)


def score_entropy(y_bar):
    return sc.score_for_scheme("entropy", 0.0, y_bar)


def prob_vectors(min_size=2, max_size=8):
    return (st.lists(st.floats(1e-6, 1.0), min_size=min_size, max_size=max_size)
            .map(lambda xs: np.array(xs) / np.sum(xs)))


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert sc.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_n(self):
        for n in (2, 3, 10):
            assert sc.entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log(n))

    def test_known_value_against_brute_force(self):
        p = np.array([0.5, 0.25, 0.25])
        brute = -sum(pi * math.log(pi) for pi in p if pi > 0)
        assert sc.entropy(p) == pytest.approx(brute)
        assert sc.entropy(p) == pytest.approx(1.5 * math.log(2))

    def test_negative_entries_rejected(self):
        with pytest.raises(ContractError):
            sc.entropy(np.array([-0.1, 1.1]))

    def test_non_normalized_rejected(self):
        with pytest.raises(ContractError):
            sc.entropy(np.array([0.5, 0.4]))

    @given(prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_range(self, p):
        h = sc.entropy(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-12

    def test_maximal_iff_uniform_zero_iff_one_hot(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.integers(2, 8)
            p = rng.dirichlet(np.ones(n))
            h = sc.entropy(p)
            if abs(h - math.log(n)) < 1e-12:
                np.testing.assert_allclose(p, 1.0 / n, atol=1e-6)
            if h < 1e-12:
                assert p.max() > 1.0 - 1e-6


class TestScoreOurs:
    def test_maximum(self):
        assert score_ours(1.0, np.array([0.0, 1.0])) == 2.0

    def test_minimum_for_uniform(self):
        assert score_ours(0.0, np.full(4, 0.25)) == pytest.approx(0.25)

    def test_direct_sum(self):
        assert score_ours(0.7, np.array([0.6, 0.3, 0.1])) == pytest.approx(1.3)

    def test_d_out_of_range(self):
        with pytest.raises(ContractError):
            score_ours(1.2, np.array([1.0, 0.0]))

    @given(st.floats(0.0, 1.0), prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, d, p):
        assert 0.0 <= score_ours(d, p) <= 2.0

    def test_monotonic_in_d_and_max_prob(self):
        p = np.array([0.6, 0.4])
        assert score_ours(0.8, p) > score_ours(0.5, p)
        assert score_ours(0.5, np.array([0.9, 0.1])) > score_ours(0.5, p)


class TestScoreUan:
    def test_uniform(self):
        assert score_uan(0.5, np.full(3, 1 / 3)) == pytest.approx(-0.5)

    def test_one_hot(self):
        assert score_uan(1.0, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            score_uan(0.5, np.array([1.0]))

    @given(st.floats(0.0, 1.0), prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, d, p):
        assert -1.0 - 1e-12 <= score_uan(d, p) <= 1.0 + 1e-12


class TestScoreEntropy:
    def test_one_hot(self):
        assert score_entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_uniform(self):
        assert score_entropy(np.full(5, 0.2)) == pytest.approx(0.0)

    def test_half_split_of_four(self):
        assert score_entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(0.5)

    @given(prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, p):
        assert -1e-12 <= score_entropy(p) <= 1.0 + 1e-12


class TestScoreBatch:
    def test_scheme_composition(self):
        from test_model import small_bundle
        m = small_bundle()
        x = np.random.default_rng(0).normal(size=(6, 4))
        scores = sc.score_batch(m, x, "ours")
        assert len(scores) == len(x)
        for i in range(len(x)):
            assert scores.w[i] == pytest.approx(score_ours(scores.d[i], scores.y_bar[i]))
            assert scores.max_prob[i] == pytest.approx(scores.y_bar[i].max())
            assert scores.entropy[i] == pytest.approx(sc.entropy(scores.y_bar[i]))

    def test_component_schemes(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        d = np.array([0.3, 0.9])
        np.testing.assert_allclose(sc.scores_from_outputs(d, probs, "ours_no_d"),
                                   [0.7, 0.8])
        np.testing.assert_allclose(sc.scores_from_outputs(d, probs, "ours_no_maxy"),
                                   d)

    def test_one_hot_predictions_score_one_without_d(self):
        probs = np.eye(3)
        d = np.array([0.2, 0.5, 0.9])
        np.testing.assert_allclose(sc.scores_from_outputs(d, probs, "ours_no_d"), 1.0)

    def test_unknown_scheme(self):
        with pytest.raises(ContractError):
            sc.scores_from_outputs(np.array([0.5]), np.array([[1.0, 0.0]]), "bogus")

    def test_equals_engine_forward_bitwise(self):
        from test_model import small_bundle
        m = small_bundle()
        x = np.random.default_rng(2).normal(size=(9, 4)) * 3
        scores = sc.score_batch(m, x, "uan")
        feats = md.features(m, x)
        probs = md.label_probs(m, feats).value
        d = md.domain_prob(m, feats, 0.0).value[:, 0]
        np.testing.assert_array_equal(scores.y_bar.view(np.uint64), probs.view(np.uint64))
        np.testing.assert_array_equal(scores.d.view(np.uint64), d.view(np.uint64))

    @pytest.mark.parametrize("shape", [(2, 5), (0, 5), (4,)])
    def test_wrong_input_shape_is_a_contract_error(self, shape):
        from test_model import small_bundle
        want = re.escape(f"matmul shape mismatch: {shape} x (4, 8)")
        with pytest.raises(ContractError, match=want):
            sc.score_batch(small_bundle(), np.ones(shape), "ours")

    def test_overflow_in_the_last_block_names_the_matmul(self):
        from test_model import small_bundle
        x = np.ones((2 * md._BLOCK_ROWS + 3, 4))
        x[-1] = np.finfo(float).max  # finite input, non-finite first product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="op 'matmul'"):
                sc.score_batch(small_bundle(), x, "ours")

    @pytest.mark.parametrize("where", ["input", "matmul", "add_bias"])
    def test_non_finite_names_the_engine_op(self, where):
        from test_model import small_bundle
        m = small_bundle()
        x = np.ones((3, 4))
        if where == "input":
            x[1, 2] = np.nan
        elif where == "matmul":
            m.f.weights[0].value[...] = np.finfo(float).max
        else:  # finite matmul, overflowing bias add
            m.f.weights[0].value[...] = np.finfo(float).max / 8
            m.f.biases[0].value[...] = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the replay warns of nothing
            with pytest.raises(NumericError, match=f"op '{where}'"):
                sc.score_batch(m, x, "ours")

    def test_no_gradient_side_effects(self):
        from test_model import small_bundle
        m = small_bundle()
        x = np.random.default_rng(1).normal(size=(4, 4))
        sc.score_batch(m, x, "ours")
        for _, p in m.parameters():
            assert np.all(p.grad == 0.0)


B = md._BLOCK_ROWS


@pytest.fixture(scope="module")
def benchmark_scoring():
    """A 300-step benchmark model and the 20k-row benchmark target."""
    cfg = cli.benchmark_config(seed=0, total_steps=300)
    src, tgt, _ = cli.make_benchmark(cfg)
    model, _ = tr.train(src, tgt, cfg)
    _, large = dt.gen_synthetic(dt.benchmark_label_spec(), dim=8, per_class=2000,
                                shift=dt.benchmark_shift(), seed=0)
    return model, large.features


class TestScoreBatchBlocks:
    """``score_batch`` runs the rows in blocks; every column keeps the
    bits of one engine forward over all rows, whichever block a row
    falls in."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3, None],
                             ids=["1", "B-1", "B", "B+1", "2B+3", "20k"])
    def test_columns_equal_the_engine_forward_bitwise(self, benchmark_scoring, n):
        m, x = benchmark_scoring
        x = x[:n]
        assert n is not None or len(x) == 20000
        feats = md.features(m, x)
        probs = md.label_probs(m, feats).value
        d = md.domain_prob(m, feats, 0.0).value[:, 0]
        for scheme in sc.SCHEMES:
            want = sc.ScoreTable(d=d, y_bar=probs, max_prob=probs.max(axis=-1),
                                 entropy=sc.entropy(probs),
                                 w=sc.score_for_scheme(scheme, d, probs))
            got = sc.score_batch(m, x, scheme)
            for f in fields(sc.ScoreTable):
                np.testing.assert_array_equal(
                    getattr(got, f.name).view(np.uint64),
                    getattr(want, f.name).view(np.uint64), err_msg=f"{scheme} {f.name}")


class TestScoreDump:
    def test_round_trip_columns(self, tmp_path):
        scores = sc.ScoreTable(d=np.array([0.5]), y_bar=np.array([[0.5, 0.5]]),
                               max_prob=np.array([0.5]), entropy=np.array([math.log(2)]),
                               w=np.array([1.0]))
        path = tmp_path / "scores.tsv"
        sc.write_score_dump(path, scores, np.array(["target"]), np.array([7]))
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["id", "domain", "label", "d",
                                        "max_prob", "entropy", "w"]
        fields = lines[1].split("\t")
        assert fields[1] == "target" and fields[2] == "7"
        assert float(fields[6]) == 1.0


class TestAgainstPerRowReference:
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("k", ref.KS)
    def test_entropy(self, k, zeros):
        _, p = ref.softmax_inputs(k, zeros)
        ref.assert_matches(sc.entropy(p), [ref.entropy(row) for row in p], k, zeros)

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("k", ref.KS)
    @pytest.mark.parametrize("scheme", sc.SCHEMES)
    def test_scheme(self, scheme, k, zeros):
        d, p = ref.softmax_inputs(k, zeros)
        want = [ref.score_for_scheme(scheme, float(di), row) for di, row in zip(d, p)]
        ref.assert_matches(sc.score_for_scheme(scheme, d, p), want, k, zeros)
        ref.assert_matches(sc.scores_from_outputs(d, p, scheme), want, k, zeros)

    @pytest.mark.parametrize("scheme", sc.SCHEMES)
    def test_same_errors_as_reference(self, scheme):
        bad = [(np.array([1.5]), np.array([[0.5, 0.5]])),
               (np.array([0.5]), np.array([[1.0]])),
               (np.array([0.5]), np.array([[-0.1, 1.1]])),
               (np.array([0.5]), np.array([[0.5, 0.4]]))]
        for d, p in bad:
            try:
                ref.score_for_scheme(scheme, float(d[0]), p[0])
            except ContractError:
                with pytest.raises(ContractError):
                    sc.score_for_scheme(scheme, d, p)
            else:
                sc.score_for_scheme(scheme, d, p)
