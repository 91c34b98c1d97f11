"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1-5 and 8 are oracle-checked properties (finite differences,
brute-force recomputation, exact identities).  Criteria 6-7 run the
seed-pinned synthetic benchmark grid once (session fixture) and check
the ablation directions and score separations.  Criterion 9 reruns the
CLI and byte-compares artifacts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fdcheck import assert_grads_close, numeric_grad
from udaselect import autodiff as ad
from udaselect import data as dt
from udaselect import losses as ls
from udaselect import model as md
from udaselect import scoring as sc
from udaselect import trainer as tr
from udaselect.autodiff import Node, backward
from udaselect.cli import benchmark_config, main, make_benchmark
from udaselect.data import TAU
from udaselect.evaluation import evaluate
from udaselect.model import MlpSpec


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness (finite-difference oracle)


GAMMA, LAM, W_ALPHA, W_BETA = 0.6, 0.7, 1.0, 0.8
MARGIN = 1e-3  # keep every kink (relu, selection, argmax) away from FD steps


def tiny_net(seed):
    """4-dim input, 8-unit feature, 3 classes, tiny domain net."""
    return md.init(MlpSpec(4, (6,), 8), MlpSpec(8, (), 3, "softmax"),
                   MlpSpec(8, (4,), 1, "sigmoid"), seed=seed, class_ids=(0, 1, 2))


def relu_margin(mlp, x):
    """Smallest |preactivation| feeding a relu in a forward pass of x."""
    h, margins = x, [np.inf]
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w.value + b.value
        if i < last:
            margins.append(np.min(np.abs(z)))
            h = np.maximum(z, 0.0)
        else:
            h = z
    return min(margins), h


def well_conditioned_batch(m, rng):
    """Draw inputs until no kink sits within MARGIN of the FD perturbation."""
    for _ in range(100):
        xs = rng.normal(size=(4, 4))
        xt = rng.normal(size=(4, 4))
        ys = rng.integers(0, 3, size=4)
        mf, feats_s = relu_margin(m.f, xs)
        mf2, feats_t = relu_margin(m.f, xt)
        mds, _ = relu_margin(m.d, feats_s)
        mdt, _ = relu_margin(m.d, feats_t)
        if min(mf, mf2, mds, mdt) < MARGIN:
            continue
        probs_t = md.label_probs(m, md.features(m, xt)).value
        d_t = md.domain_prob(m, md.features(m, xt), 0.0).value[:, 0]
        scores = sc.scores_from_outputs(d_t, probs_t, "ours")
        if (np.abs(scores - W_ALPHA).min() < MARGIN
                or np.abs(scores - W_BETA).min() < MARGIN):
            continue
        top2 = np.sort(probs_t, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) < MARGIN:
            continue
        if md.label_probs(m, md.features(m, xs)).value.min() < 1e-4:
            continue
        return xs, ys, xt
    raise RuntimeError("could not draw a well-conditioned batch")


def compound_loss(m, xs, ys, xt, domain_scale=1.0):
    """The full training loss, rebuilt from the parameter leaves.

    With ``domain_scale=1.0`` this is the trained objective including the
    reversal layer.  A negative scale builds the reversal-free surrogate
    whose true derivative w.r.t. the extractor equals what the reversal
    layer back-propagates: l_c + l_bd - lam * l_d.
    """
    feats_s = md.features(m, xs)
    feats_t = md.features(m, xt)
    probs_s = md.label_probs(m, feats_s)
    probs_t = md.label_probs(m, feats_t)
    if domain_scale == 1.0:
        d_s = md.domain_prob(m, feats_s, LAM)
        d_t = md.domain_prob(m, feats_t, LAM)
    else:
        d_s = m.d.forward(feats_s)
        d_t = m.d.forward(feats_t)
    scores = sc.scores_from_outputs(d_t.value[:, 0], probs_t.value, "ours")
    l_c, n_pl = ls.loss_classification(probs_s, ys, probs_t, scores,
                                       W_ALPHA, GAMMA)
    l_bd, n_div = ls.loss_batch_diversity(probs_s, probs_t, scores,
                                          W_BETA, "both")
    l_d = ls.loss_domain(d_s, d_t)
    total, _ = ls.loss_compound(l_c, l_bd, ad.affine(l_d, domain_scale),
                                n_pl, n_div)
    return total


def op_cases(rng):
    """One finite-difference case per autodiff op: (loss_fn, leaf params)."""
    def sq(node):
        return ad.sum_all(ad.square(node))

    a = Node(rng.normal(size=(3, 4)))
    b = Node(rng.normal(size=(4, 2)))
    c = Node(rng.normal(size=(3, 4)))
    bias = Node(rng.normal(size=4))
    pos = Node(rng.uniform(0.5, 2.0, size=(3, 4)))
    away = Node(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))))
    rows = np.array([0, 2, 1])
    cols = np.array([1, 3, 0])
    return [
        (lambda: sq(ad.matmul(a, b)), [a, b]),
        (lambda: sq(ad.add(a, c)), [a, c]),
        (lambda: sq(ad.add_bias(a, bias)), [a, bias]),
        (lambda: sq(ad.affine(a, -1.3, 0.4)), [a]),
        (lambda: sq(ad.relu(away)), [away]),
        (lambda: sq(ad.sigmoid(a)), [a]),
        (lambda: sq(ad.softmax_rows(a)), [a]),
        # grad_reverse is excluded: its backward intentionally differs
        # from the forward map's derivative (criterion 2 checks it)
        (lambda: sq(ad.log(pos)), [pos]),
        (lambda: sq(ad.clamp_min(away, -10.0)), [away]),
        (lambda: sq(ad.take_rows(a, rows)), [a]),
        (lambda: sq(ad.concat_rows([a, c])), [a, c]),
        (lambda: sq(ad.gather(a, rows, cols)), [a]),
        (lambda: sq(ad.mean_rows(a)), [a]),
        (lambda: sq(ad.square(a)), [a]),
        (lambda: ad.sum_all(a), [a]),
        (lambda: ad.mean_all(a), [a]),
    ]


class TestCriterion1:
    @staticmethod
    def _check_compound(m, xs, ys, xt):
        """Analytic grads of the reversal graph vs two FD oracles.

        Finite differences on the trained objective itself are only valid
        for C and D; the extractor descends the reversal-free surrogate
        with the domain term scaled by -lam, so its oracle uses that.
        """
        m.grads.fill(0.0)
        backward(compound_loss(m, xs, ys, xt))
        analytic = {name: p.grad.copy() for name, p in m.parameters()}
        for name, p in m.parameters():
            scale = -LAM if name.startswith("f.") else 1.0
            numeric = numeric_grad(
                lambda: compound_loss(m, xs, ys, xt, domain_scale=scale), p)
            err = np.abs(analytic[name] - numeric)
            tol = np.maximum(1e-6, 1e-4 * np.abs(numeric))
            assert np.all(err <= tol), (
                f"{name}: max abs err {err.max():.3e}")

    def test_gradients_match_finite_differences(self):
        trials = 100
        try:
            for trial in range(trials):
                rng = np.random.default_rng([10, trial])
                for loss_fn, params in op_cases(rng):
                    assert_grads_close(loss_fn, params)
                m = tiny_net(trial)
                xs, ys, xt = well_conditioned_batch(m, rng)
                self._check_compound(m, xs, ys, xt)
        except AssertionError as exc:
            report(1, False, f"trial {trial}: {exc}")
        report(1, True, f"all ops and compound loss vs central differences "
                        f"(h=1e-5) within max(1e-6, 1e-4 rel), {trials} trials")


class TestCriterion2:
    def test_grl_contract(self):
        rng = np.random.default_rng(2)
        ok = True
        for lam in (0.0, 0.5, 1.0):
            a = Node(rng.normal(size=(5, 3)))
            out = ad.grad_reverse(a, lam)
            ok &= np.array_equal(out.value, a.value)
            upstream = rng.normal(size=(3, 1))
            backward(ad.sum_all(ad.matmul(out, Node(upstream))))
            expect = -lam * np.tile(upstream.T, (5, 1))
            ok &= np.array_equal(a.grad, expect)
        report(2, ok, "forward identity bit-exact; backward equals "
                      "-lambda * upstream for lambda in {0, 0.5, 1}")


class TestCriterion3:
    def test_loss_bounds_and_score_ranges(self):
        rng = np.random.default_rng(3)
        ok = True
        for _ in range(10_000):
            n, k = rng.integers(1, 7), rng.integers(2, 6)
            v = float(ls.diversity_term(
                Node(rng.dirichlet(np.ones(k), size=n))).value)
            ok &= 1.0 / k - 1e-12 <= v <= 1.0 + 1e-12
        # exact extremes: identical one-hots hit 1, uniform rows hit 1/K
        ok &= float(ls.diversity_term(Node(np.tile([1.0, 0, 0, 0], (5, 1))))
                    .value) == 1.0
        ok &= float(ls.diversity_term(Node(np.full((3, 4), 0.25))).value
                    ) == pytest.approx(0.25, abs=1e-15)
        d = rng.uniform(0, 1, 10_000)
        for i in range(10_000):
            p = rng.dirichlet(np.ones(rng.integers(2, 6)))
            ok &= 0.0 <= sc.score_for_scheme("ours", d[i], p) <= 2.0
            ok &= -1.0 - 1e-12 <= sc.score_for_scheme("uan", d[i], p) <= 1.0 + 1e-12
            ok &= -1e-12 <= sc.score_for_scheme("entropy", d[i], p) <= 1.0 + 1e-12
        report(3, ok, "diversity in [1/K, 1] with exact extremes (10k batches); "
                      "w in [0,2], w_t in [-1,1], w_h in [0,1] (10k inputs)")


class TestCriterion4:
    def test_threshold_schedule(self):
        vals = [tr.w_alpha(t, 400, 1.0, 1.5) for t in range(401)]
        diffs = np.diff(vals)
        ok = (vals[0] == 1.5 and vals[-1] == 1.0
              and np.all(diffs <= 0)
              and np.allclose(diffs, diffs[0], atol=1e-12))
        report(4, ok, "w_alpha(0)=1.5, w_alpha(T)=w0 exactly; affine and "
                      "nonincreasing for w0=1.0")


class TestCriterion5:
    def test_non_selected_targets_do_not_touch_gradients(self):
        # draw until the batch mixes selected and non-selected targets,
        # otherwise the masking property would be checked vacuously
        for seed in range(100):
            m = tiny_net(seed)
            rng = np.random.default_rng(seed)
            xs, ys, xt = well_conditioned_batch(m, rng)
            probs_t = md.label_probs(m, md.features(m, xt)).value
            d_t = md.domain_prob(m, md.features(m, xt), 0.0).value[:, 0]
            pre = sc.scores_from_outputs(d_t, probs_t, "ours") > W_ALPHA
            if 0 < pre.sum() < len(pre):
                break
        else:
            raise RuntimeError("no mixed-selection batch found")

        def lc_grads(xt_now):
            probs_s = md.label_probs(m, md.features(m, xs))
            probs_t = md.label_probs(m, md.features(m, xt_now))
            d_t = md.domain_prob(m, md.features(m, xt_now), 0.0).value[:, 0]
            scores = sc.scores_from_outputs(d_t, probs_t.value, "ours")
            loss, _ = ls.loss_classification(probs_s, ys, probs_t, scores,
                                             W_ALPHA, GAMMA)
            m.grads.fill(0.0)
            backward(loss)
            return scores, [p.grad.copy() for _, p in m.parameters()]

        scores, grads = lc_grads(xt)
        sel = scores > W_ALPHA
        assert 0 < sel.sum() < len(sel)
        xt2 = xt.copy()
        xt2[~sel] += rng.normal(size=xt2[~sel].shape) * 0.05
        scores2, grads2 = lc_grads(xt2)
        ok = np.array_equal(scores2 > W_ALPHA, sel)  # mask itself unchanged
        for g1, g2 in zip(grads, grads2):
            ok &= np.array_equal(g1, g2)
        report(5, ok, f"perturbing the {int((~sel).sum())} non-selected of "
                      f"{len(sel)} target samples left every parameter "
                      f"gradient of L_C unchanged")


# ---------------------------------------------------------------------------
# criteria 6-7: synthetic benchmark grid (trained once per session)


SEEDS = (0, 1, 2)

VARIANTS = {
    "full": {},
    "no_pseudo_labels": {"pseudo_labels": False},
    "w_alpha_0": {"static_w_alpha": 0.0},
    "ours_no_maxy": {"scheme": "ours_no_maxy"},
    "static_1.0": {"static_w_alpha": 1.0},
    "static_1.2": {"static_w_alpha": 1.2},
    "static_1.4": {"static_w_alpha": 1.4},
}


@pytest.fixture(scope="session")
def benchmark_grid():
    """Mean accuracy per variant over 3 seeds, plus the full-method models.
    All 21 runs train in one ``train_stacks`` call: the variants differ
    only in scheme and thresholds, so they fill 6 stacks of lanes of
    mixed variants, with the bits of each run trained alone."""
    runs = [(name, benchmark_config(seed=seed, **kw))
            for name, kw in VARIANTS.items() for seed in SEEDS]
    data = [make_benchmark(cfg) for _, cfg in runs]
    trained = dict(pair for stack in tr.train_stacks(
        [(src, tgt, cfg) for (_, cfg), (src, tgt, _) in zip(runs, data)]) for pair in stack)
    per_seed, full_runs = {name: [] for name in VARIANTS}, []
    for i, ((name, cfg), (_, tgt, spec)) in enumerate(zip(runs, data)):
        model, _ = trained[i]
        rep = evaluate(model, tgt, spec, cfg.w0, cfg.scheme)
        per_seed[name].append(rep.average_class_accuracy * 100)
        if name == "full":
            full_runs.append((model, tgt, spec))
    return {name: float(np.mean(accs)) for name, accs in per_seed.items()}, full_runs


class TestCriterion6:
    def test_benchmark_ablation_directions(self, benchmark_grid):
        accs, _ = benchmark_grid
        full = accs["full"]
        gaps = {k: full - accs[k]
                for k in ("no_pseudo_labels", "w_alpha_0", "ours_no_maxy")}
        best_static = max(accs["static_1.0"], accs["static_1.2"],
                          accs["static_1.4"])
        ok = all(g >= 1.0 for g in gaps.values()) and full >= best_static - 2.0
        detail = (f"full {full:.2f} vs no-pseudo {accs['no_pseudo_labels']:.2f}, "
                  f"w_alpha=0 {accs['w_alpha_0']:.2f}, "
                  f"no-max-prob {accs['ours_no_maxy']:.2f} "
                  f"(gaps {', '.join(f'{g:.2f}' for g in gaps.values())}, "
                  f"need >= 1.00); dynamic vs best static {best_static:.2f} "
                  f"(need >= {best_static - 2.0:.2f})")
        report(6, ok, detail)


class TestCriterion7:
    def test_score_separation_per_seed(self, benchmark_grid):
        _, full_runs = benchmark_grid
        seps = []
        for model, tgt, spec in full_runs:
            scores = sc.score_batch(model, tgt.features, "ours")
            shared = np.isin(tgt.labels, spec.shared)
            mp, w = scores.max_prob, scores.w
            seps.append((mp[shared].mean() - mp[~shared].mean(),
                         w[shared].mean() - w[~shared].mean()))
        hits = sum(1 for dm, dw in seps if dm > 0 and dw > 0)
        detail = ("shared-minus-private means per seed: "
                  + ", ".join(f"(max-prob {dm:+.3f}, w {dw:+.3f})"
                              for dm, dw in seps)
                  + f"; positive on {hits}/3 seeds (need >= 2)")
        report(7, hits >= 2, detail)


class TestCriterion8:
    def test_degenerate_decision_thresholds(self):
        cfg = benchmark_config(seed=0)
        src, tgt, spec = make_benchmark(cfg)
        model = tr.init_state([src], [cfg]).lanes.models[0]
        with np.errstate(all="raise"):
            all_tau = evaluate(model, tgt, spec, 2.0)
            never_tau = evaluate(model, tgt, spec, 0.0)
        expect = 1.0 / (len(spec.shared) + 1)
        ok = (all_tau.per_class_recall[TAU] == 1.0
              and all(all_tau.per_class_recall[c] == 0.0 for c in spec.shared)
              and all_tau.average_class_accuracy == expect
              and never_tau.per_class_recall[TAU] == 0.0)
        report(8, ok, f"w0=2: all-tau, accuracy exactly {expect}; "
                      f"w0=0: zero tau predictions")


class TestCriterion9:
    def test_cli_reruns_are_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            assert main(["train", "--synthetic", "--steps", "300",
                         "--out", str(out)]) == 0
        same = {name: ((dirs[0] / name).read_bytes()
                       == (dirs[1] / name).read_bytes())
                for name in ("metrics.jsonl", "checkpoint.txt", "eval.json")}
        report(9, all(same.values()),
               "two identical CLI invocations produced byte-identical "
               "metrics log, checkpoint and evaluation report")
