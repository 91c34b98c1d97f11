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
from test_data import traced_peak
from udaselect import cli
from udaselect import data as dt
from udaselect import evaluation as ev
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

    @pytest.mark.parametrize("p", [
        [-0.1, 1.1],
        [[0.5, 0.5], [-0.1, 1.1]],
        [[math.nan, 0.5], [-0.1, 1.1]],  # a NaN does not hide a negative entry
        [[0.5, 0.5]] * 300 + [[1.0 + 1e-300, -1e-300]],  # the folded table
    ])
    def test_negative_entries_rejected(self, p):
        with pytest.raises(ContractError, match="^entropy requires nonnegative entries$"):
            sc.entropy(np.array(p))

    @pytest.mark.parametrize("p", [
        [0.5, 0.4],
        [0.5, 0.5 + 2e-9],
        [[math.nan, 0.5], [0.5, 0.4]],  # a NaN does not hide an off sum
        [[0.5, 0.5]] * 300 + [[0.5, 0.5 - 2e-9]],  # the folded table
    ])
    def test_non_normalized_rejected(self, p):
        with pytest.raises(ContractError,
                           match=r"^entropy requires probability vectors, \|sum-1\|="):
            sc.entropy(np.array(p))

    @pytest.mark.parametrize("p", [np.zeros((0, 3)), np.array([0.5, 0.5 + 5e-10]),
                                   np.array([[math.nan, 0.5], [0.5, 0.5]])])
    def test_accepted_edges(self, p):
        """An empty table, a sum within 1e-9, and a NaN, which the checks skip."""
        assert sc.entropy(p).shape == p.shape[:-1]

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

    @pytest.mark.parametrize("scheme", ["ours", "uan", "ours_no_maxy"])
    @pytest.mark.parametrize("d", [1.2, math.nan, -1e-300, 1.0 + 2**-52,
                                   [0.5, math.nan], [0.5, -1e-300, math.nan]])
    def test_d_out_of_range(self, scheme, d):
        bad = np.ravel(d)[np.ravel(d) != 0.5][0]
        with pytest.raises(ContractError, match=re.escape(f"d must be in [0,1], got {bad}")):
            sc.score_for_scheme(scheme, d, np.tile([0.5, 0.5], (np.size(d), 1)))

    @pytest.mark.parametrize("scheme", ["ours", "uan", "ours_no_maxy"])
    def test_d_edges_accepted(self, scheme):
        w = sc.score_for_scheme(scheme, [-0.0, 0.0, 1.0], np.full((3, 2), 0.5))
        assert w.shape == (3,)
        assert sc.score_for_scheme(scheme, np.zeros(0), np.zeros((0, 2))).shape == (0,)

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

    @pytest.mark.parametrize("scheme", sc.SCHEMES)
    def test_each_column_computed_once(self, scheme, monkeypatch):
        """``w`` reuses the ``max_prob`` and ``entropy`` columns: one
        ``entropy`` and one ``row_max`` call per ``score_batch``, with the
        forward (whose softmax calls ``row_max`` too) stubbed out."""
        from test_model import small_bundle
        rng = np.random.default_rng(0)
        probs, d = rng.dirichlet(np.ones(3), size=300), rng.uniform(size=(300, 1))
        calls = {"entropy": 0, "row_max": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(sc, "entropy")
        counted(md, "row_max")
        monkeypatch.setattr(md, "predict", lambda m, x: (probs, d))
        scores = sc.score_batch(small_bundle(), np.zeros((300, 4)), scheme)
        assert calls == {"entropy": 1, "row_max": 1}
        np.testing.assert_array_equal(scores.w, sc.score_for_scheme(scheme, d[:, 0], probs))

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
    return model, large


class TestScoreBatchBlocks:
    """``score_batch`` runs the rows in blocks; every column keeps the
    bits of one engine forward over all rows, whichever block a row
    falls in."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3, None],
                             ids=["1", "B-1", "B", "B+1", "2B+3", "20k"])
    def test_columns_equal_the_engine_forward_bitwise(self, benchmark_scoring, n):
        m, large = benchmark_scoring
        x = large.features[:n]
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


def numpy_scores(scheme, d, p):
    """``score_for_scheme`` and ``entropy`` as numpy's reductions over
    whole tables write them; the class-axis kernels give these bits."""
    h = -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)
    return {"ours": d + p.max(axis=-1), "uan": d - h / np.log(p.shape[-1]),
            "entropy": 1.0 - h / np.log(p.shape[-1]), "ours_no_d": p.max(axis=-1),
            "ours_no_maxy": d}[scheme], h


class TestAgainstNumpyExpressions:
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("k", [3, 6, 7, 8, 12])
    def test_every_scheme_and_entropy_bitwise_on_20k_rows(self, k, zeros):
        d, p = ref.softmax_inputs(k, zeros, n=20000)
        for scheme in sc.SCHEMES:
            w, h = numpy_scores(scheme, d, p)
            np.testing.assert_array_equal(sc.score_for_scheme(scheme, d, p).view(np.uint64),
                                          w.view(np.uint64), err_msg=scheme)
        np.testing.assert_array_equal(sc.entropy(p).view(np.uint64), h.view(np.uint64))

    def test_entropy_of_the_20k_target_holds_no_table_sized_temporary(
            self, benchmark_scoring):
        m, large = benchmark_scoring
        probs, _ = md.predict(m, large.features)
        assert probs.shape == (20000, 6)
        _, peak = traced_peak(lambda: sc.entropy(probs))
        assert peak < probs.nbytes


MIB = 2 ** 20


class TestReadPathPeaks:
    """The eval read path on the 20k-row target holds no whole-input
    temporary: ``predict``'s two live block activations are 256 KiB each,
    and ``evaluate`` stays near its 1.53 MiB score table."""

    def test_predict_holds_little_beyond_its_outputs(self, benchmark_scoring):
        m, large = benchmark_scoring
        (probs, d), peak = traced_peak(lambda: md.predict(m, large.features))
        assert peak - probs.nbytes - d.nbytes <= 0.6 * MIB

    @pytest.mark.parametrize("scheme", ["ours", "uan"])
    def test_evaluate_peak(self, benchmark_scoring, scheme):
        m, large = benchmark_scoring
        w0 = sc.range_point(scheme, 0.5)
        report, peak = traced_peak(
            lambda: ev.evaluate(m, large, dt.benchmark_label_spec(), w0, scheme))
        assert sum(report.counts.values()) == large.n
        assert peak < 1.9 * MIB


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
