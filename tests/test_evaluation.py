"""Unit tests for decisions, the macro-recall report and histogram exports."""

import json
import warnings

import numpy as np
import pytest

from udaselect import data as dt
from udaselect import evaluation as ev
from udaselect import model as md
from udaselect import scoring as sc
from udaselect.data import TAU, DomainDataset, LabelSetSpec
from udaselect.errors import ContractError
from udaselect.model import MlpSpec
from udaselect.scoring import ScoreTable

import reference_scoring as ref


def table(w, y_bars, d=0.5):
    """A score table with the given scores and probability rows."""
    y_bars = np.asarray(y_bars, dtype=float)
    n = len(y_bars)
    return ScoreTable(d=np.full(n, d), y_bar=y_bars, max_prob=y_bars.max(axis=1),
                      entropy=sc.entropy(y_bars), w=np.asarray(w, dtype=float))


def decide_one(w, y_bar, w0, class_ids):
    return int(ev.decide(np.array([w]), np.array([y_bar]), w0, class_ids)[0])


def oracle_bundle():
    """A hand-built model that solves a 2-d toy task perfectly.

    Shared classes 0/1 sit at (+10, 0) and (-10, 0); the target-private
    class sits at (0, 10).  F is the identity, C separates on the first
    coordinate, and D fires on the second one, so shared samples get
    w ~ 1.5 and private samples w ~ 0.5.
    """
    m = md.init(MlpSpec(2, (), 2), MlpSpec(2, (), 2, "softmax"),
                MlpSpec(2, (), 1, "sigmoid"), seed=0, class_ids=(0, 1))
    m.f.weights[0].value[...] = np.eye(2)
    m.c.weights[0].value[...] = np.array([[5.0, -5.0], [0.0, 0.0]])
    m.d.weights[0].value[...] = np.array([[0.0], [-5.0]])
    return m


def oracle_target():
    feats = np.array([[10.0, 0.0], [10.0, 0.0], [-10.0, 0.0],
                      [0.0, 10.0], [0.0, 10.0]])
    labels = np.array([0, 0, 1, 7, 7])
    return DomainDataset(feats, labels)


ORACLE_SPEC = LabelSetSpec(shared=(0, 1), target_private=(7,))


class TestDecide:
    def test_score_above_threshold_keeps_argmax(self):
        assert decide_one(1.2, [0.1, 0.7, 0.2], 1.0, (0, 1, 2)) == 1

    def test_score_below_threshold_rejects(self):
        assert decide_one(0.5, [0.1, 0.7, 0.2], 1.0, (0, 1, 2)) == TAU

    def test_threshold_equality_rejects(self):
        assert decide_one(1.0, [1.0, 0.0], 1.0, (0, 1)) == TAU

    def test_argmax_tie_takes_lowest_index(self):
        assert decide_one(1.5, [0.4, 0.4, 0.2], 1.0, (3, 5, 9)) == 3

    def test_class_id_mapping(self):
        assert decide_one(1.5, [0.1, 0.9], 1.0, (4, 8)) == 8

    @pytest.mark.parametrize("w, want", [(1.2, 5), (0.5, TAU), (np.nan, TAU)])
    def test_a_lone_row(self, w, want):
        assert ev.decide(np.float64(w), np.array([0.1, 0.7, 0.2]), 1.0, (4, 5, 6)) == want

    def test_monotone_in_w0(self):
        rng = np.random.default_rng(0)
        y = rng.dirichlet(np.ones(3), size=100)
        w = rng.uniform(0.0, 2.0, size=100)
        lo = ev.decide(w, y, rng.uniform(0.0, 1.0), (0, 1, 2))
        hi = ev.decide(w, y, 2.0, (0, 1, 2))
        # raising w0 can only move decisions toward rejection
        assert np.all(hi[lo == TAU] == TAU)

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("k", ref.KS)
    def test_matches_per_row_reference(self, k, zeros, descending):
        d, p = ref.softmax_inputs(k, zeros)
        w = sc.score_for_scheme("ours", d, p)
        p[0, :2] = p[0, :2].mean()  # an argmax tie
        w[2] = np.nan  # rejected: it exceeds no threshold
        class_ids = tuple(range(10, 10 + 3 * k, 3))[::-1 if descending else 1]
        for w0 in (0.0, float(w[1]), float(np.nanmedian(w)), 2.0):
            want = [ref.decide(wi, row, w0, class_ids) for wi, row in zip(w, p)]
            assert np.array_equal(ev.decide(w, p, w0, class_ids), want)


class TestEvaluate:
    def test_perfect_oracle_scores_one(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        assert report.average_class_accuracy == 1.0
        assert report.micro_accuracy == 1.0
        assert report.per_class_recall == {0: 1.0, 1: 1.0, TAU: 1.0}

    def test_w0_at_range_top_rejects_everything(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 2.0)
        # all-tau predictions: tau recall 1, every shared recall 0
        assert report.per_class_recall[TAU] == 1.0
        assert report.average_class_accuracy == pytest.approx(
            1.0 / (len(ORACLE_SPEC.shared) + 1))

    def test_w0_zero_never_rejects(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 0.0)
        assert report.per_class_recall[TAU] == 0.0

    def test_macro_average_is_mean_of_reported_recalls(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.3)
        recalls = [r for r in report.per_class_recall.values() if r is not None]
        assert len(recalls) == report.n_evaluated_classes
        assert report.average_class_accuracy == pytest.approx(np.mean(recalls))

    def test_counts_match_truth_groups(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        assert report.counts == {0: 2, 1: 1, TAU: 2}

    def test_zero_sample_class_warns_and_is_excluded(self):
        tgt = DomainDataset(np.array([[10.0, 0.0]]), np.array([0]))
        with pytest.warns(UserWarning, match="no test samples"):
            report = ev.evaluate(oracle_bundle(), tgt, ORACLE_SPEC, 1.0)
        assert report.per_class_recall[1] is None
        assert report.per_class_recall[TAU] is None
        assert report.n_evaluated_classes == 1
        assert report.average_class_accuracy == 1.0

    def test_empty_target_rejected(self):
        tgt = DomainDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ContractError):
            ev.evaluate(oracle_bundle(), tgt, ORACLE_SPEC, 1.0)

    @pytest.mark.parametrize("w0", [0.0, 1.0, 1.3])
    def test_kept_scores_reproduce_the_report_through_decide(self, w0):
        m, base = oracle_bundle(), oracle_target()
        rng = np.random.default_rng(0)
        tgt = DomainDataset(base.features.repeat(20, axis=0) + rng.normal(0, 6, (100, 2)),
                            base.labels.repeat(20))
        report = ev.evaluate(m, tgt, ORACLE_SPEC, w0)
        scores = report.scores
        assert len(scores) == tgt.n
        assert scores.w.tobytes() == sc.score_batch(m, tgt.features, "ours").w.tobytes()
        decisions = ev.decide(scores.w, scores.y_bar, w0, m.class_ids)
        truth = np.where(np.isin(tgt.labels, ORACLE_SPEC.shared), tgt.labels, TAU)
        assert report.counts == {cls: int((truth == cls).sum()) for cls in report.counts}
        assert report.per_class_recall == {
            cls: float((decisions[truth == cls] == cls).mean()) for cls in report.counts}
        assert report.micro_accuracy == float((decisions == truth).mean())

    def test_kept_scores_stay_out_of_json_repr_and_equality(self):
        a = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        b = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        b.scores.w[...] = 0.0
        assert "scores" not in json.loads(a.to_json())
        assert "scores" not in repr(a)
        assert a == b

    def test_json_round_trip(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        payload = json.loads(report.to_json())
        assert payload["average_class_accuracy"] == 1.0
        assert payload["per_class_recall"][str(TAU)] == 1.0

    def test_summary_mentions_tau(self):
        report = ev.evaluate(oracle_bundle(), oracle_target(), ORACLE_SPEC, 1.0)
        assert "tau" in report.summary()
        assert "average class accuracy" in report.summary()


def read_hist(path):
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["group", "quantity", "bin_lo", "bin_hi", "count"]
    rows = [ln.split("\t") for ln in lines[1:]]
    return [(g, q, float(lo), float(hi), int(c)) for g, q, lo, hi, c in rows]


SHARED = (0, 1)


class TestExportScoreDistributions:
    def test_counts_sum_to_group_sizes(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = table(rng.uniform(0, 2, size=40), rng.dirichlet(np.ones(3), size=40))
        labels = np.repeat([1, 0, 5], [15, 10, 15])
        path = tmp_path / "hist.tsv"
        ev.export_score_distributions(path, {"target": (scores, labels)}, SHARED)
        rows = read_hist(path)
        for group, size in (("target-shared", 25), ("target-private", 15)):
            for qty in ("d", "max_prob", "w"):
                total = sum(c for g, q, *_, c in rows if g == group and q == qty)
                assert total == size

    def test_identical_scores_occupy_single_bin(self, tmp_path):
        scores = table([1.0] * 6, [[0.5, 0.5]] * 6)
        path = tmp_path / "hist.tsv"
        ev.export_score_distributions(path, {"source": (scores, np.zeros(6, int))}, SHARED)
        occupied = [(q, c) for g, q, lo, hi, c in read_hist(path) if c > 0]
        for qty in ("d", "max_prob", "w"):
            assert [c for q, c in occupied if q == qty] == [6]

    def test_bin_edges_span_theoretical_ranges(self, tmp_path):
        path = tmp_path / "hist.tsv"
        ev.export_score_distributions(
            path, {"target": (table([0.3], [[0.9, 0.1]]), np.array([1]))}, SHARED)
        rows = read_hist(path)
        w_rows = [r for r in rows if r[1] == "w"]
        assert w_rows[0][2] == 0.0 and w_rows[-1][3] == 2.0
        assert len(w_rows) == ev.HIST_BINS

    def test_uan_scheme_uses_signed_range(self, tmp_path):
        path = tmp_path / "hist.tsv"
        ev.export_score_distributions(
            path, {"target": (table([-0.2], [[0.5, 0.5]]), np.array([9]))}, SHARED, "uan")
        w_rows = [r for r in read_hist(path) if r[1] == "w"]
        assert {r[0] for r in w_rows} == {"target-private"}
        assert w_rows[0][2] == -1.0 and w_rows[-1][3] == 1.0
        assert sum(c for *_, c in w_rows) == 1

    def test_groups_in_domain_order_and_an_empty_group_left_out(self, tmp_path):
        # every source label is shared, so there is no source-private group
        path = tmp_path / "hist.tsv"
        ev.export_score_distributions(path, {
            "source": (table([1.0] * 3, [[0.5, 0.5]] * 3), np.array([0, 1, 1])),
            "target": (table([1.0] * 3, [[0.5, 0.5]] * 3), np.array([5, 0, 5])),
        }, SHARED)
        groups = [g for g, *_ in read_hist(path)]
        assert list(dict.fromkeys(groups)) == ["source-shared", "target-shared",
                                               "target-private"]
        assert len(groups) == 3 * 3 * ev.HIST_BINS


class TestScoreOrderingOnOracle:
    def test_shared_targets_outscore_private_targets(self):
        m = oracle_bundle()
        tgt = oracle_target()
        scores = sc.score_batch(m, tgt.features, "ours")
        shared = np.isin(tgt.labels, ORACLE_SPEC.shared)
        assert scores.w[shared].mean() > scores.w[~shared].mean()
        assert scores.max_prob[shared].mean() > scores.max_prob[~shared].mean()
