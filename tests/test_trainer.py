"""Unit tests for the training loop, schedule and optimizer contract."""

import functools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from udaselect import autodiff as ad
from udaselect import cli
from udaselect import data as dt
from udaselect import losses as ls
from udaselect import scoring as sc
from udaselect import trainer as tr
from udaselect.autodiff import Node
from udaselect.errors import ConfigError, ContractError, NumericError
from udaselect.trainer import TrainConfig

import reference_autodiff as ref


def tiny_data(seed=0):
    spec = dt.LabelSetSpec(shared=(0, 1), source_private=(2,), target_private=(3,))
    return dt.gen_synthetic(spec, 4, 8, dt.ShiftConfig(0.3, 0.5), seed=seed)


def stack(state, draws):
    """The stack batch of one drawn batch per lane of ``state``, each
    lane's labels mapped to its classifier indices."""
    return dt.DomainBatch(np.stack([b.x for b in draws]),
                          np.stack([m.class_index(b.source_y)
                                    for m, b in zip(state.lanes.models, draws, strict=True)]))


def step(state, batch):
    """``train_step`` of a one-lane state on a batch of the test's own."""
    return tr.train_step(state, stack(state, [batch]))


def engine_op(state, x, labels, lam):
    """``step_op`` as the engine graph: each lane's ``engine_loss`` under
    its own config and threshold, their totals summed by engine ``add``
    nodes."""
    pairs = [tr.engine_loss(m, x_r, y_r, lam, w_a, c)
             for m, x_r, y_r, w_a, c in zip(state.lanes.models, x, labels,
                                            state.w_alpha[:, state.t].tolist(), state.cfgs,
                                            strict=True)]
    return functools.reduce(ad.add, [t for t, _ in pairs]), [b for _, b in pairs]


def train_runs(runs):
    """Each run's ``(model, log)`` from ``train_stacks``, in run order."""
    trained = dict(pair for stack in tr.train_stacks(runs) for pair in stack)
    return [trained[i] for i in range(len(runs))]


def tiny_cfg(**kw):
    base = dict(total_steps=20, batch_size=8, lr=0.01, f_hidden=(6,),
                feature_dim=4, d_hidden=(5,), seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestWAlphaSchedule:
    def test_starts_at_one_point_five(self):
        assert tr.w_alpha(0, 100, 1.0, 1.5) == 1.5

    def test_ends_at_w0(self):
        assert tr.w_alpha(100, 100, 1.0, 1.5) == 1.0
        assert tr.w_alpha(50, 50, 0.7, 1.5) == pytest.approx(0.7)

    def test_midpoint(self):
        assert tr.w_alpha(50, 100, 1.0, 1.5) == pytest.approx(1.25)

    def test_affine_and_nonincreasing(self):
        vals = [tr.w_alpha(t, 200, 1.0, 1.5) for t in range(201)]
        diffs = np.diff(vals)
        assert np.all(diffs <= 0)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_out_of_range_step(self):
        with pytest.raises(ContractError):
            tr.w_alpha(5, 4, 1.0, 1.5)


class TestConfig:
    @pytest.mark.parametrize("key", ["w0", "w_alpha_start"])
    def test_threshold_range_checked_per_scheme(self, key):
        with pytest.raises(ConfigError, match=f"{key}=1.5 outside"):
            TrainConfig(scheme="ours_no_d", **{key: 1.5})
        TrainConfig(scheme="ours", **{key: 1.5})

    @pytest.mark.parametrize("scheme, want", [
        ("ours", (1.0, 0.8, 1.5)), ("uan", (0.0, -0.19999999999999996, 0.5)),
        ("entropy", (0.5, 0.4, 0.75)), ("ours_no_d", (0.5, 0.4, 0.75)),
        ("ours_no_maxy", (0.5, 0.4, 0.75))])
    def test_unset_thresholds_are_the_readmes_literals(self, scheme, want):
        cfg = TrainConfig(scheme=scheme)
        got = (cfg.w0, cfg.w_beta, cfg.w_alpha_start)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert cli.scheme_defaults(tiny_cfg(), scheme) == tiny_cfg(scheme=scheme)

    def test_set_thresholds_win_until_scheme_defaults_resets_them(self):
        cfg = TrainConfig(scheme="uan", w_beta=0.1, w_alpha_start=0.9)
        assert (cfg.w0, cfg.w_beta, cfg.w_alpha_start) == (0.0, 0.1, 0.9)
        for scheme in sc.SCHEMES:
            assert cli.scheme_defaults(cfg, scheme) == TrainConfig(scheme=scheme)

    def test_round_trips_through_dict(self):
        cfg = tiny_cfg(gamma=0.3, static_w_alpha=1.2)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("key", ["static_w_alpha", "w_alpha_start"])
    def test_threshold_must_lie_in_the_schemes_range(self, key):
        with pytest.raises(ConfigError,
                           match=rf"{key}=1.2 outside \[-1.0, 1.0\] for scheme 'uan'"):
            TrainConfig(scheme="uan", **{key: 1.2})
        assert getattr(TrainConfig(scheme="uan", **{key: -1.0}), key) == -1.0

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            TrainConfig(scheme="magic")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match=r"keys: \['learning_rate'\]"):
            TrainConfig.from_dict({"gamma": 0.3, "learning_rate": 0.1})

    @pytest.mark.parametrize("key, value", [
        ("total_steps", True), ("lr", False), ("static_w_alpha", True),
        ("f_hidden", [64, True]), ("d_hidden", [False]), ("pseudo_labels", 1)])
    def test_from_dict_takes_booleans_for_bool_fields_only(self, key, value):
        with pytest.raises(ConfigError, match=f"config field {key} must be"):
            TrainConfig.from_dict({key: value})

    @pytest.mark.parametrize("batch_size", [-2, 0, 1, 3, 63])
    def test_batch_size_must_be_even_and_at_least_two(self, batch_size):
        with pytest.raises(ConfigError,
                           match=f"batch_size must be even and >= 2, got {batch_size}"):
            TrainConfig(batch_size=batch_size)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError, match=r"gamma must be >= 0, got -0.1"):
            TrainConfig(gamma=-0.1)
        TrainConfig(gamma=0.0)

    @pytest.mark.parametrize("key", ["gamma", "w0", "w_beta", "lr", "momentum",
                                     "grl_lambda", "static_w_alpha", "w_alpha_start"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite, got {value}"):
            TrainConfig(**{key: value})

    def test_int_too_large_for_a_float_rejected(self):
        # from_dict takes an int for a float field; JSON can hold any size
        with pytest.raises(ConfigError, match="lr must be finite, got 1000"):
            TrainConfig.from_dict({"lr": 10 ** 400})


class TestTrain:
    def test_zero_steps_returns_initialized_model(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=0)
        model, log = tr.train(src, tgt, cfg)
        fresh = tr.init_state([src], [cfg]).lanes.models[0]
        assert log.shape == (0,) and log.dtype == tr.LOG_DTYPE
        for (_, a), (_, b) in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_metrics_log_has_one_record_per_step(self):
        src, tgt = tiny_data()
        _, log = tr.train(src, tgt, tiny_cfg(total_steps=13))
        assert log.shape == (13,)
        assert (log["total"] > 0).all()

    def test_determinism(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=15)
        m1, r1 = tr.train(src, tgt, cfg)
        m2, r2 = tr.train(src, tgt, cfg)
        assert r1.tobytes() == r2.tobytes()
        for (_, a), (_, b) in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_step_budget_enforced(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=1)
        state = tr.init_state([src], [cfg])
        rng = np.random.default_rng(0)
        step(state, dt.sample_batch(src, tgt, 8, rng))
        with pytest.raises(ContractError):
            step(state, dt.sample_batch(src, tgt, 8, rng))

    def test_numeric_blowup_reports_step_index(self):
        src, tgt = tiny_data()
        # lr large enough that the post-update weights overflow float64
        # in the second forward pass
        with pytest.raises(NumericError, match="step "):
            tr.train(src, tgt, tiny_cfg(total_steps=20, lr=1e200))


class TestStepLog:
    """``TrainState.log`` holds one ``LOG_DTYPE`` row per step of the budget."""

    def test_row_t_holds_the_steps_breakdown_and_threshold(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=3)
        state = tr.init_state([src], [cfg])
        assert state.log.shape == (1, 3) and state.log.dtype == tr.LOG_DTYPE
        rng = np.random.default_rng(0)
        for t in range(3):
            b = step(state, dt.sample_batch(src, tgt, 8, rng))
            assert state.t == t + 1
            assert state.log[0, t].tolist() == (
                b.l_c, b.l_bd, b.l_d, b.total, b.n_pseudo_selected,
                b.n_diversity_selected, tr.w_alpha(t, 3, cfg.w0, cfg.w_alpha_start))

    def test_failed_step_leaves_log_and_t_untouched(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=3)
        state = tr.init_state([src], [cfg])
        rng = np.random.default_rng(0)
        step(state, dt.sample_batch(src, tgt, 8, rng))
        log = state.log.copy()
        state.lanes.models[0].f.weights[0].value[...] = np.finfo(float).max
        with pytest.raises(NumericError, match="step 1: "):
            step(state, dt.sample_batch(src, tgt, 8, rng))
        assert state.t == 1
        assert state.log.tobytes() == log.tobytes()

    def test_full_log_raises_out_of_budget(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=2)
        state = tr.init_state([src], [cfg])
        rng = np.random.default_rng(0)
        for _ in range(2):
            step(state, dt.sample_batch(src, tgt, 8, rng))
        log = state.log.copy()
        with pytest.raises(ContractError, match="step 2 out of budget T=2"):
            step(state, dt.sample_batch(src, tgt, 8, rng))
        assert state.t == 2 and state.log.tobytes() == log.tobytes()

    def test_write_metrics_lines(self, tmp_path):
        log = np.array([(0.5, 0.0, 1.25, 1.75, 3, 0, 1.5),
                        (-0.0, 1e-300, 2.0, 0.1, 0, 7, math.nan),
                        (0.0, 0.0, 0.5, 0.5, 0, 0, math.inf)], dtype=tr.LOG_DTYPE)
        tr.write_metrics(tmp_path / "metrics.jsonl", log)
        assert (tmp_path / "metrics.jsonl").read_text() == (
            '{"l_bd": 0.0, "l_c": 0.5, "l_d": 1.25, "n_diversity_selected": 0, '
            '"n_pseudo_selected": 3, "step": 0, "total": 1.75, "w_alpha": 1.5}\n'
            '{"l_bd": 1e-300, "l_c": -0.0, "l_d": 2.0, "n_diversity_selected": 7, '
            '"n_pseudo_selected": 0, "step": 1, "total": 0.1, "w_alpha": null}\n'
            '{"l_bd": 0.0, "l_c": 0.0, "l_d": 0.5, "n_diversity_selected": 0, '
            '"n_pseudo_selected": 0, "step": 2, "total": 0.5, "w_alpha": null}\n')

    def test_benchmark_train_retains_under_half_a_megabyte(self):
        """A 3000-step run keeps its model and one 56-byte row per step,
        not a Python object per step."""
        cfg = cli.benchmark_config()
        src, tgt, _ = cli.make_benchmark(cfg)
        tr.train(src, tgt, replace(cfg, total_steps=2))
        tracemalloc.start()
        try:
            result = tr.train(src, tgt, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result[1]) == 3000
        assert retained < 0.5e6


class TestOptimizerContract:
    def test_single_step_without_momentum_is_lr_times_grad(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=1, momentum=0.0, lr=1e-3)
        batch = dt.sample_batch(src, tgt, 8, np.random.default_rng([cfg.seed, 1]))
        state = tr.init_state([src], [cfg])
        before = {n: p.value.copy() for n, p in state.lanes.models[0].parameters()}
        step(state, batch)
        for name, p in state.lanes.models[0].parameters():
            # with mu = 0 the velocity buffer is exactly the raw gradient,
            # and the update is exactly value - lr * grad
            np.testing.assert_array_equal(state.lanes.models[0].views(state.v[0])[name], p.grad)
            np.testing.assert_array_equal(
                p.value, before[name] - cfg.lr * p.grad)

    def test_gamma_zero_matches_disabled_pseudo_labels_bitwise(self):
        src, tgt = tiny_data()
        m1, _ = tr.train(src, tgt, tiny_cfg(gamma=0.0))
        m2, _ = tr.train(src, tgt, tiny_cfg(pseudo_labels=False))
        for (_, a), (_, b) in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_diversity_off_removes_its_contribution(self):
        src, tgt = tiny_data()
        _, log = tr.train(src, tgt, tiny_cfg(diversity_mode="off"))
        assert (log["l_bd"] == 0.0).all() and (log["n_diversity_selected"] == 0).all()

    def test_dann_style_reduction(self):
        src, tgt = tiny_data()
        _, log = tr.train(src, tgt, tiny_cfg(pseudo_labels=False,
                                             diversity_mode="off"))
        assert (log["l_bd"] == 0.0).all() and (log["n_pseudo_selected"] == 0).all()
        assert np.isinf(log["w_alpha"]).all()


class TestFlatMomentum:
    def test_velocity_entries_are_views_of_one_buffer(self):
        src, _ = tiny_data()
        state = tr.init_state([src], [tiny_cfg()])
        assert state.v.size == state.lanes.models[0].values.size
        assert list(state.lanes.models[0].views(state.v[0])) == [
            n for n, _ in state.lanes.models[0].parameters()]
        for name, p in state.lanes.models[0].parameters():
            assert state.lanes.models[0].views(state.v[0])[name].shape == p.shape
            assert np.shares_memory(state.lanes.models[0].views(state.v[0])[name], state.v)

    def test_train_equals_per_parameter_momentum_loop_bitwise(self):
        src, tgt = tiny_data()
        cfg = tiny_cfg(total_steps=20)
        trained, _ = tr.train(src, tgt, cfg)

        # the same steps, each update undone and redone one parameter at a time
        state = tr.init_state([src], [cfg])
        m = state.lanes.models[0]
        rng = np.random.default_rng([cfg.seed, 1])
        velocity = {name: np.zeros_like(p.value) for name, p in m.parameters()}
        for _ in range(cfg.total_steps):
            before = m.values.copy()
            step(state, dt.sample_batch(src, tgt, cfg.batch_size, rng))
            m.values[...] = before
            for name, p in m.parameters():
                v = velocity[name]
                v *= cfg.momentum
                v += p.grad
                p.value -= cfg.lr * v
        for (name, a), (_, b) in zip(trained.parameters(), m.parameters()):
            np.testing.assert_array_equal(a.value.view(np.uint64),
                                          b.value.view(np.uint64), err_msg=name)


class TestBackwardOracleOnEngineGraph:
    """The engine's ``backward`` against the DFS reference on real step
    graphs: each step's loss built as the engine graph, one node per op,
    instead of the one-node step op."""

    @pytest.fixture(autouse=True)
    def engine_graph(self, monkeypatch):
        def loss(*args):
            total, breakdowns = engine_op(*args)
            assert total.op == "add" and len(ref.topo_order(total)) > 40
            return total, breakdowns

        monkeypatch.setattr(tr, "step_op", loss)

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    @pytest.mark.parametrize("scheme", sc.SCHEMES)
    def test_leaf_grads_equal_reference_bitwise(self, monkeypatch, scheme, mode):
        engine, checked = ad.backward, []

        def both(loss):
            leaves = [n for n in ref.topo_order(loss) if n.vjp is None]
            ref.backward(loss)
            expected = [n.grad.copy() for n in leaves]
            for n in leaves:
                n.grad[...] = 0.0
            engine(loss)
            for n, e in zip(leaves, expected):
                np.testing.assert_array_equal(n.grad.view(np.uint64), e.view(np.uint64))
            checked.append(sum(n.op == "leaf" for n in leaves))

        monkeypatch.setattr(ad, "backward", both)
        cfg = cli.scheme_defaults(
            cli.benchmark_config(total_steps=5, diversity_mode=mode), scheme)
        src, tgt, _ = cli.make_benchmark(cfg)
        _, log = tr.train(src, tgt, cfg)
        # every step's graph reaches all 10 parameters
        assert checked == [10] * cfg.total_steps
        if mode == "both":
            assert log["n_pseudo_selected"].any()
            assert log["n_diversity_selected"].any()


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


STEP_OP_CASES = [
    *[dict(scheme=s, diversity_mode=d, pseudo_labels=p)
      for s in sc.SCHEMES for d in ls.DIVERSITY_MODES for p in (True, False)],
    dict(f_hidden=(64, 64)),
    dict(grl_mode="ramp"),
    dict(static_w_alpha=0.0),
    dict(batch_size=50),
    dict(batch_size=2),
    dict(batch_size=50, f_hidden=(64, 64), pseudo_labels=False, diversity_mode="off"),
    # width-1 layers, whose VJP products have k = 1
    dict(d_hidden=(1,)),
    dict(d_hidden=(64, 1)),
    dict(f_hidden=(64,), feature_dim=1, pseudo_labels=False),
]


class TestStepOpOracle:
    """The step op against the engine graph of the same step, bit for bit,
    on one lane, on stacks of 2 and 3 lanes with seeds of their own, and
    on a stack whose lanes differ in scheme and thresholds too: each
    lane's loss breakdown and parameter gradients are those of its own
    engine step, and each lane's run (parameters and step log) is the
    run trained alone."""

    def check(self, monkeypatch, runs, train):
        """Train ``runs`` with ``train`` under a step op checked against
        the engine at every step, and each run against its run alone;
        returns every lane's breakdowns."""
        step_op, seen = tr.step_op, []

        def both(state, *rest):
            stack = state.lanes
            engine_total, engine_breakdowns = engine_op(state, *rest)
            stack.grads.fill(0.0)
            ad.backward(engine_total)
            expected = stack.grads.copy()
            total, breakdowns = step_op(state, *rest)
            assert total.op == "train_step" and total.parents == (stack.flat,)
            # the step op's VJP must write every entry of the per-domain buffer
            stack.halves.fill(np.nan)
            stack.grads.fill(0.0)
            ad.backward(total)
            np.testing.assert_array_equal(bits(stack.grads), bits(expected))
            np.testing.assert_array_equal(bits([b.total for b in breakdowns]),
                                          bits([b.total for b in engine_breakdowns]))
            assert breakdowns == engine_breakdowns and len(breakdowns) == len(runs)
            seen.extend(breakdowns)
            return total, breakdowns

        alone = [tr.train(*run) for run in runs]
        with monkeypatch.context() as mp:
            mp.setattr(tr, "step_op", both)
            together = train(runs)
        assert len(seen) == runs[0][2].total_steps * len(runs)
        for (m, log), (m_alone, log_alone) in zip(together, alone, strict=True):
            np.testing.assert_array_equal(bits(m.values), bits(m_alone.values))
            assert log.tobytes() == log_alone.tobytes()
        return seen

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize("case", STEP_OP_CASES, ids=lambda c: ",".join(
        f"{k}={v}" for k, v in c.items()))
    def test_value_and_parameter_grads_equal_engine_bitwise(self, monkeypatch, case, lanes):
        scheme = case.get("scheme", "ours")
        cfg = cli.scheme_defaults(cli.benchmark_config(total_steps=6), scheme)
        cfg = replace(cfg, **{k: v for k, v in case.items() if k != "scheme"})
        runs = [(*cli.make_benchmark(c)[:2], c)
                for c in (replace(cfg, seed=seed) for seed in range(lanes))]
        seen = self.check(monkeypatch, runs, train_runs)
        if cfg.pseudo_labels and cfg.diversity_mode == "both":
            assert any(b.n_pseudo_selected for b in seen)
            assert any(b.n_diversity_selected for b in seen)

    @pytest.mark.parametrize("mode", ls.DIVERSITY_MODES)
    def test_lanes_of_other_schemes_and_thresholds_equal_engine_bitwise(
            self, monkeypatch, mode):
        """One stack of six lanes: ``ours``, ``uan``, ``entropy`` and
        ``ours_no_maxy`` at their default thresholds, an ``ours`` lane
        with no pseudo-labels and one with a static threshold."""
        base = cli.benchmark_config(total_steps=6, diversity_mode=mode)
        cfgs = [*(cli.scheme_defaults(replace(base, seed=seed), scheme) for seed, scheme
                  in enumerate(("ours", "uan", "entropy", "ours_no_maxy"))),
                replace(base, seed=4, pseudo_labels=False),
                replace(base, seed=5, static_w_alpha=0.0)]
        runs = [(*cli.make_benchmark(c)[:2], c) for c in cfgs]
        seen = self.check(monkeypatch, runs, tr._train_stack)
        # the static lane picks every target, the lane with no pseudo-labels none
        assert all(b.n_pseudo_selected == 32 for b in seen[5::6])
        assert not any(b.n_pseudo_selected for b in seen[4::6])
        if mode != "off":
            assert any(b.n_diversity_selected for b in seen)

    @pytest.mark.parametrize("schemes, paths", [
        (("ours", "uan", "ours"), {"ours": np.ndarray, "uan": slice}),
        (("uan", "ours", "ours", "uan"), {"uan": np.ndarray, "ours": slice}),
        (("ours", "ours", "uan"), {"ours": slice, "uan": slice}),
    ])
    def test_schemes_whose_lanes_are_not_contiguous(self, monkeypatch, schemes, paths):
        """A scheme whose lanes are not contiguous scores copies of its
        lanes, one whose lanes are contiguous views of them: every lane
        trains as its run alone either way."""
        base = cli.benchmark_config(total_steps=6)
        cfgs = [cli.scheme_defaults(replace(base, seed=seed), scheme)
                for seed, scheme in enumerate(schemes)]
        runs = [(*cli.make_benchmark(c)[:2], c) for c in cfgs]
        state = tr.init_state([src for src, _, _ in runs], cfgs)
        assert {k: type(v) for k, v in state.schemes.items()} == paths
        seen = self.check(monkeypatch, runs, tr._train_stack)
        assert any(b.n_pseudo_selected for b in seen)

    def test_vjp_scales_by_its_upstream_gradient(self):
        """The step op's VJP multiplies its loss gradients by ``g``: with
        ``g`` a power of two every parameter gradient scales exactly."""
        cfg = cli.benchmark_config(total_steps=1)
        src, tgt, _ = cli.make_benchmark(cfg)
        state = tr.init_state([src], [cfg])
        batch = dt.sample_batch(src, tgt, cfg.batch_size, np.random.default_rng(0))
        labels = state.lanes.models[0].class_index(batch.source_y)
        total, _ = tr.step_op(state, batch.x[None], labels[None], cfg.grl_lambda)
        (once,) = total.vjp(np.ones(()))
        (twice,) = total.vjp(np.full((), 2.0))
        assert once.any()
        np.testing.assert_array_equal(bits(twice), bits(2.0 * once))


def hexes(values):
    """Each float's ``float.hex``, which tells -0.0 from 0.0, and each int."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestStepBreakdown:
    """``train_step`` returns one ``LossBreakdown``: a one-lane stack's own,
    the first six fields of its log row, and for more lanes each field
    summed over the lanes in lane order."""

    def returned(self, monkeypatch, train, runs):
        """Each step's returned breakdown and each run's log, from ``train``."""
        train_step, returned = tr.train_step, []
        monkeypatch.setattr(tr, "train_step", lambda state, batch: returned.append(
            train_step(state, batch)) or returned[-1])
        return returned, [log for _, log in train(runs)]

    def test_one_lane_returns_its_log_row_bit_for_bit(self, monkeypatch):
        """Even a -0.0, which a sum from 0 would turn into 0.0."""
        step_op = tr.step_op

        def negative_zero(*args):
            total, breakdowns = step_op(*args)
            return total, [b._replace(l_bd=-0.0) for b in breakdowns]

        monkeypatch.setattr(tr, "step_op", negative_zero)
        cfg = cli.benchmark_config(total_steps=4, diversity_mode="off")
        returned, (log,) = self.returned(
            monkeypatch, lambda runs: [tr.train(*runs[0])], [(*cli.make_benchmark(cfg)[:2], cfg)])
        assert len(returned) == 4
        for b, row in zip(returned, log.tolist(), strict=True):
            assert isinstance(b, ls.LossBreakdown)
            assert hexes(b) == hexes(row[:6]) and b.l_bd.hex() == "-0x0.0p+0"

    def test_lanes_return_their_field_sums_in_lane_order(self, monkeypatch):
        base = cli.benchmark_config(total_steps=4)
        cfgs = [cli.scheme_defaults(replace(base, seed=seed), scheme)
                for seed, scheme in enumerate(("ours", "uan", "entropy"))]
        returned, logs = self.returned(
            monkeypatch, tr._train_stack, [(*cli.make_benchmark(c)[:2], c) for c in cfgs])
        assert len(returned) == 4
        for t, b in enumerate(returned):
            rows = [log[t].tolist()[:6] for log in logs]
            assert isinstance(b, ls.LossBreakdown)
            assert hexes(b) == hexes(sum(col[1:], col[0]) for col in zip(*rows))
        assert sum(b.n_pseudo_selected for b in returned) > 0
        assert sum(b.n_diversity_selected for b in returned) > 0


class TestLaneRule:
    """The lanes of one stack may differ in seed, scheme and thresholds
    (``LANE_FIELDS``) and share every other field."""

    @pytest.mark.parametrize("name, value", [("lr", 0.02), ("gamma", 0.3),
                                             ("diversity_mode", "off"), ("total_steps", 7)])
    def test_init_state_refuses_lanes_that_differ_in_a_shared_field(self, name, value):
        src, _ = tiny_data()
        cfg = tiny_cfg()
        with pytest.raises(ContractError, match=f"^the lanes of a stack must share {name}, "):
            tr.init_state([src, src], [cfg, replace(cfg, seed=1, **{name: value})])

    def test_each_lane_gets_its_own_thresholds_and_scheme(self):
        src, _ = tiny_data()
        cfgs = [tiny_cfg(total_steps=4), tiny_cfg(seed=1, scheme="uan"),
                tiny_cfg(seed=2, static_w_alpha=0.25, w_beta=1.5),
                tiny_cfg(seed=3, pseudo_labels=False)]
        state = tr.init_state([src] * 4, [replace(c, total_steps=4) for c in cfgs])
        want = [[tr.w_alpha(t, 4, c.w0, c.w_alpha_start) for t in range(4)] for c in cfgs[:2]]
        assert state.w_alpha.tolist() == [*want, [0.25] * 4, [math.inf] * 4]
        assert state.w_beta.tolist() == [[0.8], [-0.19999999999999996], [1.5], [0.8]]
        # the log's threshold column is written before any step
        assert state.log["w_alpha"].tolist() == state.w_alpha.tolist()
        # lanes that are not contiguous are an index array, and contiguous a slice
        assert list(state.schemes) == ["ours", "uan"]
        assert state.schemes["ours"].tolist() == [0, 2, 3]
        assert state.schemes["uan"] == slice(1, 2)

    @pytest.mark.parametrize("schemes, want", [
        (("ours",), {"ours": slice(0, 1)}),
        (("ours", "ours", "uan", "uan"), {"ours": slice(0, 2), "uan": slice(2, 4)}),
        (("uan", "ours", "ours"), {"uan": slice(0, 1), "ours": slice(1, 3)}),
    ])
    def test_contiguous_lanes_of_a_scheme_are_a_slice(self, schemes, want):
        src, _ = tiny_data()
        state = tr.init_state([src] * len(schemes), [tiny_cfg(seed=seed, scheme=scheme)
                                                    for seed, scheme in enumerate(schemes)])
        assert state.schemes == want

    def test_train_stacks_stacks_runs_that_share_their_fields_in_order(self, monkeypatch):
        """Runs of two shared configs, interleaved: each config's runs fill
        stacks in their order, and every run returns its result alone."""
        src, tgt = tiny_data()
        cfgs = [tiny_cfg(seed=0), tiny_cfg(seed=1, lr=0.02), tiny_cfg(seed=2, scheme="entropy"),
                tiny_cfg(seed=3, lr=0.02, scheme="uan"), tiny_cfg(seed=4, pseudo_labels=False)]
        stacks, train_stack = [], tr._train_stack
        monkeypatch.setattr(tr, "_train_stack", lambda runs: stacks.append(
            [c.seed for _, _, c in runs]) or train_stack(runs))
        monkeypatch.setattr(tr, "MAX_LANES", 2)
        together = train_runs([(src, tgt, c) for c in cfgs])
        assert stacks == [[0, 2], [4], [1, 3]]
        for (m, log), cfg in zip(together, cfgs, strict=True):
            m_alone, log_alone = train_stack([(src, tgt, cfg)])[0]
            np.testing.assert_array_equal(bits(m.values), bits(m_alone.values))
            assert log.tobytes() == log_alone.tobytes()


class TestNumericErrorReplay:
    """A non-finite value in the step op replays the step on the engine
    graph: the same ``NumericError`` as the engine step, and no state change."""

    def setup(self, **kw):
        cfg = cli.benchmark_config(total_steps=4, **kw)
        src, tgt, _ = cli.make_benchmark(cfg)
        state = tr.init_state([src], [cfg])
        rng = np.random.default_rng([cfg.seed, 1])
        return state, [dt.sample_batch(src, tgt, cfg.batch_size, rng) for _ in range(2)]

    def check(self, monkeypatch, state, batch):
        m = state.lanes.models[0]
        before = (state.t, m.values.copy(), state.v.copy(), state.log.copy())
        with pytest.raises(NumericError) as fused:
            step(state, batch)
        assert state.t == before[0] and state.log.tobytes() == before[3].tobytes()
        np.testing.assert_array_equal(bits(m.values), bits(before[1]))
        np.testing.assert_array_equal(bits(state.v), bits(before[2]))
        with monkeypatch.context() as mp:
            mp.setattr(tr, "step_op", engine_op)
            with pytest.raises(NumericError) as engine:
                step(state, batch)
        assert str(fused.value) == str(engine.value)
        return str(fused.value)

    @pytest.mark.parametrize("net", ["f", "c", "d"])
    def test_matmul_overflow(self, monkeypatch, net):
        state, batches = self.setup()
        getattr(state.lanes.models[0], net).weights[0].value[...] = np.finfo(float).max
        assert self.check(monkeypatch, state, batches[0]) == (
            "step 0: non-finite values produced by op 'matmul'")

    def test_nan_input(self, monkeypatch):
        state, batches = self.setup()
        batches[0].target_x[3, 1] = np.nan
        assert self.check(monkeypatch, state, batches[0]) == (
            "step 0: non-finite values produced by op 'input'")

    @pytest.mark.filterwarnings("error")
    def test_gamma_overflow(self, monkeypatch):
        state, batches = self.setup(gamma=1.7e308, static_w_alpha=0.0)
        assert self.check(monkeypatch, state, batches[0]) == (
            "step 0: non-finite values produced by op 'affine'")

    def test_huge_learning_rate(self, monkeypatch):
        state, batches = self.setup(lr=1e200)
        step(state, batches[0])
        assert self.check(monkeypatch, state, batches[1]) == (
            "step 1: non-finite values produced by op 'matmul'")


class TestNumericErrorInALane:
    """A non-finite value in one lane of a stack replays the lanes on the
    engine graph: the error names that lane, and no lane's state moves."""

    def setup(self, lanes, **kw):
        cfgs = [cli.benchmark_config(total_steps=4, seed=seed, **kw) for seed in range(lanes)]
        data = [cli.make_benchmark(cfg)[:2] for cfg in cfgs]
        state = tr.init_state([src for src, _ in data], cfgs)
        draws = [[dt.sample_batch(src, tgt, cfg.batch_size, np.random.default_rng([s, 1]))
                  for s in range(2)] for (src, tgt), cfg in zip(data, cfgs)]
        return state, [stack(state, [lane[i] for lane in draws]) for i in range(2)]

    @pytest.mark.parametrize("lanes, bad", [(2, 0), (2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("fault", ["input", "matmul"])
    def test_names_the_lane_and_leaves_every_lane_as_it_was(self, lanes, bad, fault):
        state, stacks = self.setup(lanes)
        tr.train_step(state, stacks[0])
        if fault == "input":
            stacks[1].x[bad, 1, 3, 2] = np.nan
        else:
            state.lanes.models[bad].d.weights[0].value[...] = np.finfo(float).max
        before = (state.t, state.lanes.values.copy(), state.v.copy(), state.log.copy())
        with pytest.raises(NumericError) as raised:
            tr.train_step(state, stacks[1])
        assert raised.value.lane == bad
        assert str(raised.value) == f"step 1: non-finite values produced by op '{fault}'"
        assert state.t == before[0] and state.log.tobytes() == before[3].tobytes()
        np.testing.assert_array_equal(bits(state.lanes.values), bits(before[1]))
        np.testing.assert_array_equal(bits(state.v), bits(before[2]))

    @pytest.mark.parametrize("bad", [0, 2])
    def test_non_finite_gradient_names_its_lane(self, bad):
        """A reversal coefficient of 1.7e308 overflows the extractor's
        gradient in every lane but those whose domain head passes it no
        gradient: here every lane but ``bad``."""
        state, stacks = self.setup(3, grl_lambda=1.7e308)
        for lane, m in enumerate(state.lanes.models):
            if lane != bad:
                m.d.weights[0].value[...] = 0.0
        before, log = state.lanes.values.copy(), state.log.copy()
        with pytest.raises(NumericError, match="^step 0: non-finite gradient$") as raised:
            tr.train_step(state, stacks[0])
        assert raised.value.lane == bad
        assert state.t == 0 and state.log.tobytes() == log.tobytes()
        np.testing.assert_array_equal(bits(state.lanes.values), bits(before))

    def test_train_stacks_names_the_seed_of_the_run_alone(self):
        """A non-finite feature in one seed's source fails that run at the
        step that first draws it, alone or as a lane of a stack."""
        cfgs = [cli.benchmark_config(total_steps=200, seed=seed) for seed in range(3)]
        runs = [(*cli.make_benchmark(cfg)[:2], cfg) for cfg in cfgs]
        src = runs[1][0]
        features = src.features.copy()
        features[17, 5] = np.inf
        runs[1] = (dt.DomainDataset(features, src.labels), *runs[1][1:])
        with pytest.raises(NumericError) as alone:
            tr.train(*runs[1])
        assert re.fullmatch(r"step \d+: non-finite values produced by op 'input'",
                            str(alone.value))
        with pytest.raises(NumericError) as together:
            train_runs(runs)
        assert str(together.value) == f"seed 1: {alone.value}"
        assert together.value.lane is None and together.value.run == 1


class TestStepTape:
    """A finite step builds one ``Node``, the step op over the flat
    parameter leaf; only a replay builds the engine graph.  Nodes are
    counted as the benchmark's tracer counts them, by wrapping
    ``Node.__init__``."""

    def nodes_per_step(self, monkeypatch, steps):
        cfg = cli.benchmark_config(total_steps=steps)
        src, tgt, _ = cli.make_benchmark(cfg)
        state = tr.init_state([src], [cfg])
        rng = np.random.default_rng([cfg.seed, 1])
        node_init, built = Node.__dict__["__init__"], []

        def counting_init(node, *args, **kwargs):
            built.append(node)
            node_init(node, *args, **kwargs)

        monkeypatch.setattr(Node, "__init__", counting_init)
        per_step = []
        for _ in range(steps):
            batch = dt.sample_batch(src, tgt, cfg.batch_size, rng)
            before = len(built)
            step(state, batch)
            per_step.append(built[before:])
        return state, per_step

    def test_finite_step_builds_one_op_over_the_flat_leaf(self, monkeypatch):
        state, per_step = self.nodes_per_step(monkeypatch, 20)
        assert [[(n.op, n.parents) for n in nodes] for nodes in per_step] == (
            [[("train_step", (state.lanes.flat,))]] * 20)

    def test_forced_replay_builds_the_engine_graph_and_the_same_step(self, monkeypatch):
        plain, _ = self.nodes_per_step(monkeypatch, 3)

        def non_finite(*args):
            raise NumericError("forced replay")

        monkeypatch.setattr(tr, "step_op", non_finite)
        replayed, per_step = self.nodes_per_step(monkeypatch, 3)
        assert all(len(nodes) > 40 for nodes in per_step)
        assert replayed.t == plain.t and replayed.log.tobytes() == plain.log.tobytes()
        np.testing.assert_array_equal(bits(replayed.lanes.values), bits(plain.lanes.values))
        np.testing.assert_array_equal(bits(replayed.v), bits(plain.v))


class TestLabels:
    @pytest.mark.parametrize("steps", [1, 64, 70])
    def test_each_steps_labels_are_its_batchs_source_y(self, monkeypatch, steps):
        """``train`` steps on a one-lane stack batch whose ``source_y``
        holds the class indices of the class ids ``sample_batch`` draws
        for that step.  Ids that are not their own indices; 70 steps
        cross a block of draws."""
        spec = dt.LabelSetSpec(shared=(3, 8), source_private=(5,), target_private=(1,))
        src, tgt = dt.gen_synthetic(spec, 4, 8, dt.ShiftConfig(0.3, 0.5), seed=0)
        cfg = tiny_cfg(total_steps=steps)
        train_step, seen = tr.train_step, []

        def checked(state, batch):
            assert batch.x.shape == (1, 2, 4, 4) and batch.source_y.shape == (1, 4)
            seen.append((state.lanes.models[0], batch.x[0].copy(), batch.source_y[0].copy()))
            return train_step(state, batch)

        monkeypatch.setattr(tr, "train_step", checked)
        tr.train(src, tgt, cfg)
        rng = np.random.default_rng([cfg.seed, 1])
        assert len(seen) == steps
        for model, x, labels in seen:
            drawn = dt.sample_batch(src, tgt, cfg.batch_size, rng)
            np.testing.assert_array_equal(x, drawn.x)
            np.testing.assert_array_equal(labels, model.class_index(drawn.source_y))
            assert labels.dtype == np.intp

    def test_negative_grl_lambda_rejected_by_config(self):
        with pytest.raises(ConfigError, match="grl_lambda"):
            tiny_cfg(grl_lambda=-0.5)


class TestSelectionAtStartup:
    def test_nothing_selected_at_step_zero_on_benchmark(self):
        from udaselect.cli import benchmark_config, make_benchmark
        cfg = benchmark_config()
        src, tgt, _ = make_benchmark(cfg)
        state = tr.init_state([src], [cfg])
        batch = dt.sample_batch(src, tgt, cfg.batch_size,
                                np.random.default_rng([cfg.seed, 1]))
        breakdown = step(state, batch)
        assert breakdown.n_pseudo_selected == 0


class TestGrlSchedule:
    def test_constant_mode(self):
        cfg = tiny_cfg(grl_mode="constant", grl_lambda=0.4)
        assert tr.grl_coefficient(cfg, 0) == 0.4
        assert tr.grl_coefficient(cfg, 19) == 0.4

    def test_ramp_mode_monotone_from_zero(self):
        cfg = tiny_cfg(grl_mode="ramp", grl_lambda=1.0, total_steps=100)
        vals = [tr.grl_coefficient(cfg, t) for t in range(101)]
        assert vals[0] == pytest.approx(0.0)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] == pytest.approx(2.0 / (1.0 + math.exp(-10.0)) - 1.0)


class TestMetricsIo:
    def test_write_metrics_jsonl(self, tmp_path):
        src, tgt = tiny_data()
        _, log = tr.train(src, tgt, tiny_cfg(total_steps=3))
        path = tmp_path / "metrics.jsonl"
        tr.write_metrics(path, log)
        import json
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[0])
        assert set(rec) == {"step", "l_c", "l_bd", "l_d", "total",
                            "n_pseudo_selected", "n_diversity_selected", "w_alpha"}

    def test_rows_are_the_bytes_of_json_dumps(self, tmp_path):
        """Every column meets every edge value: json's NaN and ±Infinity in
        the loss columns, null for a non-finite ``w_alpha``, and the
        shortest round-trip text of the rest."""
        import json
        edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
                0.1, 1 / 3, -2.5e-10, 7.0]
        ints = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 32]
        floats = ("l_c", "l_bd", "l_d", "total", "w_alpha")
        log = np.zeros(len(edge), tr.LOG_DTYPE)
        for k, name in enumerate(floats):
            log[name] = np.roll(edge, k)
        log["n_pseudo_selected"] = ints * 2
        log["n_diversity_selected"] = np.roll(ints * 2, 3)
        path = tmp_path / "metrics.jsonl"
        tr.write_metrics(path, log)
        expected = []
        for step, row in enumerate(log.tolist()):
            rec = dict(zip(tr.LOG_DTYPE.names, row), step=step)
            rec["w_alpha"] = rec["w_alpha"] if math.isfinite(rec["w_alpha"]) else None
            expected.append(json.dumps(rec, sort_keys=True) + "\n")
        assert path.read_text() == "".join(expected)
        # rows with and without a non-finite value were both written
        assert "NaN" in expected[0]
        assert not any(t in expected[7] for t in ("NaN", "Infinity", "null"))
