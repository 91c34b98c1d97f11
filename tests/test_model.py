"""Unit tests for the three-network bundle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from udaselect import autodiff as ad
from udaselect import cli
from udaselect import model as md
from udaselect import trainer as tr
from udaselect.autodiff import Node, backward
from udaselect.errors import ConfigError, ContractError, NumericError
from udaselect.model import MlpSpec


def small_bundle(seed=0):
    spec_f = MlpSpec(4, (8,), 6)
    spec_c = MlpSpec(6, (), 3, "softmax")
    spec_d = MlpSpec(6, (5, 5), 1, "sigmoid")
    return md.init(spec_f, spec_c, spec_d, seed=seed, class_ids=(0, 1, 2))


class TestInit:
    def test_same_seed_identical_parameters(self):
        m1, m2 = small_bundle(3), small_bundle(3)
        for (n1, p1), (n2, p2) in zip(m1.parameters(), m2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_different_seed_differs(self):
        m1, m2 = small_bundle(0), small_bundle(1)
        assert not np.array_equal(m1.f.weights[0].value, m2.f.weights[0].value)

    def test_zero_hidden_classifier_is_single_linear_map(self):
        m = small_bundle()
        assert len(m.c.weights) == 1
        assert m.c.weights[0].shape == (6, 3)

    def test_domain_net_has_three_layers(self):
        m = small_bundle()
        assert len(m.d.weights) == 3
        assert m.d.spec.layer_dims == [(6, 5), (5, 5), (5, 1)]

    def test_biases_start_at_zero(self):
        m = small_bundle()
        for b in m.f.biases + m.c.biases + m.d.biases:
            assert np.all(b.value == 0.0)

    def test_incompatible_dims_rejected(self):
        with pytest.raises(ConfigError):
            md.init(MlpSpec(4, (), 6), MlpSpec(5, (), 3, "softmax"),
                    MlpSpec(6, (), 1, "sigmoid"), seed=0, class_ids=(0, 1, 2))

    def test_domain_output_must_be_scalar(self):
        with pytest.raises(ConfigError):
            md.init(MlpSpec(4, (), 6), MlpSpec(6, (), 3, "softmax"),
                    MlpSpec(6, (), 2, "sigmoid"), seed=0, class_ids=(0, 1, 2))

    def test_bad_mlp_spec(self):
        with pytest.raises(ConfigError):
            MlpSpec(0, (), 3)
        with pytest.raises(ConfigError):
            MlpSpec(3, (), 3, "tanh")


class TestForwardLabel:
    def test_rows_sum_to_one(self):
        m = small_bundle()
        x = np.random.default_rng(0).normal(size=(7, 4))
        probs = md.label_probs(m, md.features(m, x)).value
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_weight_classifier_is_uniform(self):
        m = small_bundle()
        m.c.weights[0].value[...] = 0.0
        x = np.random.default_rng(1).normal(size=(4, 4))
        np.testing.assert_allclose(md.label_probs(m, md.features(m, x)).value, 1.0 / 3.0)

    def test_batch_independence(self):
        m = small_bundle()
        x = np.random.default_rng(2).normal(size=(6, 4))
        full = md.label_probs(m, md.features(m, x)).value
        single = md.label_probs(m, md.features(m, x[3:4])).value
        np.testing.assert_array_equal(full[3], single[0])

    def test_row_permutation_permutes_outputs(self):
        m = small_bundle()
        x = np.random.default_rng(3).normal(size=(5, 4))
        perm = np.array([4, 2, 0, 1, 3])
        np.testing.assert_array_equal(md.label_probs(m, md.features(m, x)).value[perm],
                                      md.label_probs(m, md.features(m, x[perm])).value)


class TestForwardDomain:
    def test_outputs_in_open_unit_interval(self):
        m = small_bundle()
        x = np.random.default_rng(4).normal(size=(10, 4)) * 5
        d = md.domain_prob(m, md.features(m, x), 1.0).value
        assert np.all(d > 0.0) and np.all(d < 1.0)

    def _domain_loss_grads(self, m, x, lam, use_grl=True):
        m.grads.fill(0.0)
        feats = md.features(m, x)
        head_in = ad.grad_reverse(feats, lam) if use_grl else feats
        d = m.d.forward(head_in)
        backward(ad.mean_all(ad.affine(ad.log(ad.clamp_min(d, 1e-12)), -1.0)))
        f_grad = m.f.weights[0].grad.copy()
        d_grad = m.d.weights[0].grad.copy()
        return f_grad, d_grad

    def test_lambda_zero_blocks_gradient_into_extractor(self):
        m = small_bundle()
        x = np.random.default_rng(5).normal(size=(6, 4))
        f_grad, d_grad = self._domain_loss_grads(m, x, lam=0.0)
        assert np.all(f_grad == 0.0)
        assert np.any(d_grad != 0.0)

    def test_grl_flips_extractor_gradient_sign(self):
        m = small_bundle()
        x = np.random.default_rng(6).normal(size=(6, 4))
        with_grl, _ = self._domain_loss_grads(m, x, lam=1.0, use_grl=True)
        without, _ = self._domain_loss_grads(m, x, lam=1.0, use_grl=False)
        np.testing.assert_allclose(with_grl, -without, atol=1e-12)

    def test_domain_net_gradients_unaffected_by_grl(self):
        m = small_bundle()
        x = np.random.default_rng(7).normal(size=(6, 4))
        _, with_grl = self._domain_loss_grads(m, x, lam=1.0, use_grl=True)
        _, without = self._domain_loss_grads(m, x, lam=1.0, use_grl=False)
        np.testing.assert_array_equal(with_grl, without)


def with_class_ids(class_ids):
    """A checkpoint corruption that replaces the header's class ids."""
    def corrupt(lines):
        meta = json.loads(lines[0])
        meta["class_ids"] = class_ids
        return [json.dumps(meta), *lines[1:]]
    return corrupt


def with_last_value(line, token):
    """A checkpoint corruption that replaces the last value on line
    ``line + 1`` by ``token``."""
    def corrupt(lines):
        return [*lines[:line], lines[line].rsplit(" ", 1)[0] + " " + token,
                *lines[line + 1:]]
    return corrupt


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = small_bundle(9)
        # make values non-trivial
        for _, p in m.parameters():
            p.value += np.random.default_rng(0).normal(size=p.value.shape) * 0.1
        path = tmp_path / "ckpt.txt"
        md.save_checkpoint(m, path)
        loaded = md.load_checkpoint(path)
        for (n1, p1), (n2, p2) in zip(m.parameters(), loaded.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.value, p2.value)
        assert loaded.class_ids == m.class_ids

    @pytest.mark.parametrize("corrupt, where", [
        (lambda ls: ls[:3], "missing parameters"),
        (lambda ls: ls[:4], ":5: f.b0 has 0 values"),
        (lambda ls: ls[:2] + [ls[2].rsplit(" ", 1)[0] + " 0xzz"] + ls[3:],
         ":3: bad hex float"),
        (lambda ls: ls[:2] + [ls[2] + " 0x0p+0"] + ls[3:], ":3: f.w0 has"),
        (lambda ls: ls[:3] + ["f.b9 " + ls[3].split()[1]] + ls[4:],
         ":4: unknown parameter"),
        (lambda ls: ls[:3] + ls[1:3] + ls[5:], ":4: duplicate parameter"),
        (lambda ls: ls[:1] + ["f.w0 1 1"] + ls[2:], ":2: f.w0 shape"),
        *((with_class_ids(ids), ":1: bad checkpoint header")
          for ids in ([0, 0, 1], [True, 1, 2], [-1, 0, 1], ["a", 0, 1], [2, 0, 1], [])),
        (with_last_value(2, "nan"), ":3: f.w0 has non-finite value 'nan'"),
        (with_last_value(2, "-inf"), ":3: f.w0 has non-finite value '-inf'"),
        (with_last_value(4, "Infinity"), ":5: f.b0 has non-finite value 'Infinity'"),
    ])
    def test_malformed_checkpoint_names_the_line(self, tmp_path, corrupt, where):
        path = tmp_path / "ckpt.txt"
        md.save_checkpoint(small_bundle(), path)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConfigError, match=where):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("name, index, value", [
        ("f.w0", (0, 0), np.nan), ("c.b0", (2,), np.inf), ("d.w0", (7, 0), -np.inf)])
    def test_a_non_finite_parameter_is_refused_before_the_file_opens(
            self, tmp_path, name, index, value):
        # load_checkpoint refuses such a file, so save writes none
        cfg = cli.benchmark_config(total_steps=5)
        m, _ = tr.train(*cli.make_benchmark(cfg)[:2], cfg)
        dict(m.parameters())[name].value[index] = value
        path = tmp_path / "ckpt.txt"
        with pytest.raises(NumericError,
                           match=rf"^checkpoint: parameter {name} has a non-finite value$"):
            md.save_checkpoint(m, path)
        assert not path.exists()

    def test_save_is_deterministic(self, tmp_path):
        m = small_bundle(2)
        md.save_checkpoint(m, tmp_path / "a.txt")
        md.save_checkpoint(m, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def assert_packed(m: md.ModelBundle) -> None:
    """Every parameter's value and grad are views into the flat buffers."""
    params = [p for _, p in m.parameters()]
    assert m.values.size == m.grads.size == sum(p.value.size for p in params)
    for p in params:
        assert np.shares_memory(p.value, m.values)
        assert np.shares_memory(p.grad, m.grads)


def assert_lanes_packed(lanes: md.Lanes) -> None:
    """Each lane's flat buffers are its row of the stack's, which are the
    value and grad of the leaf ``flat``; each layer's arrays are views of
    the stack's values that broadcast over an ``(R, 2, n, ·)`` stack, and
    the per-domain gradients views into ``halves`` whose slices are
    C-contiguous."""
    r, size = lanes.values.shape
    for m, values, grads in zip(lanes.models, lanes.values, lanes.grads, strict=True):
        assert_packed(m)
        assert m.values.base is lanes.values and np.array_equal(m.values, values)
        assert m.grads.base is lanes.grads and m.grads.shape == grads.shape
    assert lanes.flat.value is lanes.values and lanes.flat.grad is lanes.grads
    assert lanes.halves.shape == (r, 2, size)
    params = [p for _, p in lanes.models[0].parameters()]
    layers = [a for net in ("f", "c", "d") for layer in lanes.layers[net] for a in layer]
    assert [a.shape for a in layers] == [
        shape for w, b in zip(params[::2], params[1::2])
        for shape in ((r, 1) + w.shape, (r, 1, 1) + b.shape, (r, 1) + w.shape[::-1])]
    for a in layers:
        assert np.shares_memory(a, lanes.values)
    for w, _, w_t in (layer for net in ("f", "c", "d") for layer in lanes.layers[net]):
        np.testing.assert_array_equal(w_t, w.swapaxes(-1, -2))
    halves = [v for net in ("f", "c", "d") for v in lanes.half_views[net]]
    assert [v.shape for v in halves] == [(r, 2, *p.shape) for p in params]
    for v in halves:
        assert np.shares_memory(v, lanes.halves)
        for k in np.ndindex(v.shape[:2]):  # each lane's each domain
            assert v[k].flags.c_contiguous


def grad_out(mlp: md.Mlp) -> list[np.ndarray]:
    """An ``out`` for ``mlp.vjp_array`` on 2-D rows: NaNs shaped like each parameter."""
    return [np.full(p.shape, np.nan) for _, p in mlp.parameters("")]


class TestFlatBuffers:
    def test_init_packs_parameters(self):
        assert_packed(small_bundle(3))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_lanes_pack_their_bundles_and_keep_their_values(self, r):
        bundles = [small_bundle(seed) for seed in range(r)]
        before = [m.values.copy() for m in bundles]
        lanes = md.Lanes(bundles)
        assert_lanes_packed(lanes)
        for m, values in zip(bundles, before):
            np.testing.assert_array_equal(m.values, values)
        # an update of the stack is an update of each lane's parameters
        lanes.values += 1.0
        for m, values in zip(bundles, before):
            np.testing.assert_array_equal(m.f.weights[0].value.ravel(), values[:32] + 1.0)

    def test_lanes_must_share_one_architecture(self):
        other = md.init(MlpSpec(4, (8,), 6), MlpSpec(6, (), 3, "softmax"),
                        MlpSpec(6, (5,), 1, "sigmoid"), seed=0, class_ids=(0, 1, 2))
        with pytest.raises(ContractError, match="one architecture"):
            md.Lanes([small_bundle(), other])

    def test_load_checkpoint_packs_parameters(self, tmp_path):
        m = small_bundle(3)
        md.save_checkpoint(m, tmp_path / "ckpt.txt")
        loaded = md.load_checkpoint(tmp_path / "ckpt.txt")
        assert_packed(loaded)
        np.testing.assert_array_equal(loaded.values, m.values)

    def test_backward_from_a_parameter_keeps_its_grad_packed(self):
        m = small_bundle()
        bias = m.d.biases[-1]  # the only size-1 parameter
        backward(bias)
        assert_packed(m)
        np.testing.assert_array_equal(bias.grad, [1.0])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestArrayForward:
    """``Mlp.forward_array`` and ``Mlp.vjp_array`` against the engine's ops."""

    @pytest.mark.parametrize("net", ["f", "c", "d"])
    def test_forward_and_vjp_equal_engine_bitwise(self, net):
        rng = np.random.default_rng(4)
        mlp = getattr(small_bundle(), net)
        x = rng.normal(size=(7, mlp.spec.input_dim)) * 2
        g = rng.normal(size=(7, mlp.spec.output_dim))
        tape, grads = [], grad_out(mlp)
        out = mlp.forward_array(x, tape)
        g_x = mlp.vjp_array(tape, g, grads)

        leaf = Node(x)
        node = mlp.forward(leaf)
        np.testing.assert_array_equal(bits(out), bits(node.value))
        # a scalar op whose VJP hands g to the network's output
        backward(Node(0.0, (node,), "probe", lambda _: (g,)))
        np.testing.assert_array_equal(bits(g_x), bits(leaf.grad))
        for (name, p), got in zip(mlp.parameters(net), grads):
            np.testing.assert_array_equal(bits(got), bits(p.grad), err_msg=name)

    def test_input_grad_can_be_skipped(self):
        m = small_bundle()
        tape, grads = [], grad_out(m.f)
        m.f.forward_array(np.ones((2, 4)), tape)
        g_x = m.f.vjp_array(tape, np.ones((2, 6)), grads, input_grad=False)
        assert g_x is None and [g.shape for g in grads] == [(4, 8), (8,), (8, 6), (6,)]
        assert not np.isnan(np.concatenate([g.ravel() for g in grads])).any()

    def test_wrong_input_dim_is_the_engine_contract_error(self):
        with pytest.raises(ContractError, match=r"matmul shape mismatch: \(2, 3\) x \(4, 8\)"):
            small_bundle().f.forward_array(np.ones((2, 3)))

    def test_non_finite_pre_activation_raises(self):
        m = small_bundle()
        m.d.weights[1].value[...] = -np.finfo(float).max
        # the hidden ReLU would map the -inf pre-activation to 0
        with pytest.raises(NumericError):
            md.predict(m, np.ones((2, 4)))


BIG = np.finfo(float).max


class TestAllFinite:
    """``all_finite`` is ``np.isfinite(a).all()``: one sum of squares where
    it is finite, and the entries one by one where it is not."""

    @pytest.mark.parametrize("a", [
        np.zeros((0, 3)), np.float64(2.5), np.arange(12.0).reshape(1, 2, 3, 2),
        np.array([-0.0, 5e-324, -BIG]),
        # finite entries whose squares overflow
        np.array([BIG, 1e155, 1.0]), np.full((2, 3), -1e200),
        np.ones((4, 6))[:, ::2],
    ], ids=["empty", "0-d", "4-d", "edges", "overflow", "overflow-neg", "strided"])
    def test_finite(self, a):
        assert md.all_finite(a) is True
        md.check_finite(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_one_non_finite_entry(self, bad, where):
        a = np.ones((3, 4))
        a.flat[where] = bad
        assert md.all_finite(a) is False
        assert md.all_finite(a[:, ::-1]) is False
        with pytest.raises(NumericError, match="^non-finite value in an array forward$"):
            md.check_finite(a)
        assert md.all_finite(np.array([BIG, 1e200, bad])) is False

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 64, 4927])
    def test_every_position_of_a_non_finite_entry(self, n):
        """BLAS kernels take the entries in SIMD blocks and a tail."""
        a = np.random.default_rng(n).normal(size=n)
        for i in range(n):
            for bad in (np.nan, np.inf, -np.inf):
                b = a.copy()
                b[i] = bad
                assert md.all_finite(b) is False, (i, bad)


class TestStackedArrays:
    """A leading axis stacks independent batches, as the training step
    stacks source over target: each slice of the stacked forward and VJP
    has the bits of its own 2-D call."""

    @pytest.mark.parametrize("n", [1, 25, 32])
    @pytest.mark.parametrize("arch", ["default", "benchmark"])
    def test_stack_of_two_equals_two_calls_bitwise(self, arch, n):
        cfg = cli.benchmark_config(seed=n)
        if arch == "default":
            cfg = tr.TrainConfig(seed=n)
        lanes = tr.init_state([cli.make_benchmark(cfg)[0]], [cfg]).lanes
        rng = np.random.default_rng(n)
        for name in ("f", "c", "d"):
            # the stacked VJP writes into the one lane's per-domain views
            net, grads = lanes.nets[name], [v[0] for v in lanes.half_views[name]]
            x = rng.normal(size=(2, n, net.spec.input_dim)) * 2
            g = rng.normal(size=(2, n, net.spec.output_dim))
            tape = []
            out = net.forward_array(x, tape)
            g_x = net.vjp_array(tape, g, grads)
            for k in range(2):
                tape_k, grads_k = [], grad_out(net)
                np.testing.assert_array_equal(bits(out[k]),
                                              bits(net.forward_array(x[k], tape_k)))
                g_xk = net.vjp_array(tape_k, g[k], grads_k)
                np.testing.assert_array_equal(bits(g_x[k]), bits(g_xk))
                assert len(grads) == len(grads_k)
                for got, want in zip(grads, grads_k):
                    np.testing.assert_array_equal(bits(got[k]), bits(want))

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("n", [1, 25, 32])
    def test_lanes_with_their_own_parameters_equal_their_own_calls_bitwise(self, r, n):
        """``r`` lanes of the benchmark's networks, each with its own
        seed's parameters: each lane of the stacked forward and VJP has
        the bits of that lane's bundle's own calls on its own rows."""
        cfgs = [cli.benchmark_config(seed=seed) for seed in range(r)]
        lanes = tr.init_state([cli.make_benchmark(cfg)[0] for cfg in cfgs], cfgs).lanes
        rng = np.random.default_rng(n)
        for name in ("f", "c", "d"):
            net, layers, grads = lanes.nets[name], lanes.layers[name], lanes.half_views[name]
            x = rng.normal(size=(r, 2, n, net.spec.input_dim)) * 2
            g = rng.normal(size=(r, 2, n, net.spec.output_dim))
            tape = []
            out = net.forward_array(x, tape, layers)
            g_x = net.vjp_array(tape, g, grads, layers)
            for lane, m in enumerate(lanes.models):
                own = getattr(m, name)
                tape_k, grads_k = [], [np.empty((2, *p.shape)) for _, p in own.parameters("")]
                np.testing.assert_array_equal(bits(out[lane]),
                                              bits(own.forward_array(x[lane], tape_k)))
                np.testing.assert_array_equal(bits(g_x[lane]),
                                              bits(own.vjp_array(tape_k, g[lane], grads_k)))
                for got, want in zip(grads, grads_k, strict=True):
                    np.testing.assert_array_equal(bits(got[lane]), bits(want))

    def test_wrong_input_dim_of_a_stack_quotes_one_slice(self):
        with pytest.raises(ContractError, match=r"matmul shape mismatch: \(2, 3\) x \(4, 8\)"):
            small_bundle().f.forward_array(np.ones((2, 2, 3)))


def kernel_tables(k, n, seed):
    """Two ``(n, k)`` tables and one ``(2, n, k)`` stack: entries from a
    small set (ties, +0.0 and -0.0 in one row), random entries over ten
    decades, and entries in [0, 1) of which about 30% are exactly 0."""
    rng = np.random.default_rng(seed)
    ties = rng.choice([-0.0, 0.0, 0.25, 1.0, -1.0, -2.0], size=(n, k))
    wide = rng.normal(size=(2, n, k)) * 10.0 ** rng.uniform(-5, 5, size=(2, n, k))
    p = rng.random((n, k)) * (rng.random((n, k)) < 0.7)
    return ties, wide, p


class TestRowKernels:
    """``row_max`` and ``row_sum`` are numpy's reductions bit for bit,
    on either side of ``_FOLD_ROWS`` and of the 8-column sum rule."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1024, 20000])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_equal_numpy_reductions_bitwise(self, k, n):
        assert md._FOLD_ROWS == 256
        for a in kernel_tables(k, n, seed=100 * k + n % 97):
            np.testing.assert_array_equal(bits(md.row_max(a)), bits(a.max(axis=-1)))
            np.testing.assert_array_equal(bits(md.row_sum(a)), bits(a.sum(axis=-1)))

    def test_sum_folds_only_for_2_to_7_columns_from_256_rows(self):
        folds = [k for k in range(1, 13) if md.sum_folds(np.zeros((256, k)))]
        assert folds == list(range(2, 8))
        assert md.sum_folds(np.zeros((2, 128, 6)))
        assert not md.sum_folds(np.zeros((2, 32, 6)))  # the training step's stack
        assert not md.sum_folds(np.zeros((255, 6)))


PREDICT_DIGEST = """
import hashlib, sys
import numpy as np
from udaselect import cli, model as md, trainer as tr
cfg = cli.benchmark_config(seed=0)
m = tr.init_state([cli.make_benchmark(cfg)[0]], [cfg]).lanes.models[0]
x = np.random.default_rng(0).normal(size=(int(sys.argv[1]), 8))
probs, d = md.predict(m, x)
print(hashlib.sha256(probs.tobytes() + d.tobytes()).hexdigest())
"""


class TestPredictBlocks:
    @pytest.mark.parametrize("size", [1, 4, 5])
    def test_row_blocks_cover_the_rows_with_no_lone_last_row(self, size):
        for n in range(4 * size + 3):
            blocks = md.row_blocks(n, size)
            assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
            assert all(rows.stop - rows.start == size for rows in blocks[:-1])
            assert n < 2 or blocks[-1].stop - blocks[-1].start > 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_blocks_of_k_sizes_cut_into_sizes_are_the_blocks_of_size(self, k):
        # so a caller that scores in blocks of k * _BLOCK_ROWS rows runs
        # every forward row in the block predict gives it over all rows
        for n in range(3 * k * 4 + 3):
            inner = [slice(outer.start + rows.start, outer.start + rows.stop)
                     for outer in md.row_blocks(n, k * 4)
                     for rows in md.row_blocks(outer.stop - outer.start, 4)]
            assert inner == md.row_blocks(n, 4), n

    def test_stacked_slices_equal_their_own_calls_bitwise(self):
        m = small_bundle()
        x = np.random.default_rng(0).normal(size=(2, md._BLOCK_ROWS + 2, 4))
        probs, d = md.predict(m, x)
        for k in range(2):
            probs_k, d_k = md.predict(m, x[k])
            np.testing.assert_array_equal(bits(probs[k]), bits(probs_k))
            np.testing.assert_array_equal(bits(d[k]), bits(d_k))

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a whole 8195-row matrix-vector product across
        # two threads unevenly; no block is large enough to be split
        src = str(Path(md.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", PREDICT_DIGEST, "8195"], env=env,
                                  check=True, capture_output=True, text=True)
            digests.add(done.stdout)
        assert len(digests) == 1


def bundle_with_ids(class_ids):
    return md.init(MlpSpec(4, (), 6), MlpSpec(6, (), 3, "softmax"),
                   MlpSpec(6, (), 1, "sigmoid"), seed=0, class_ids=class_ids)


class TestClassIndex:
    def test_maps_ascending_non_contiguous_ids(self):
        m = bundle_with_ids((2, 5, 9))
        np.testing.assert_array_equal(m.class_index(np.array([9, 5, 2, 2, 9])),
                                      [2, 1, 0, 0, 2])

    @pytest.mark.parametrize("class_ids", [(5, 2, 9), (2, 2, 9)])
    def test_ids_not_ascending_are_rejected(self, class_ids):
        with pytest.raises(ConfigError, match=r"distinct ints other than -1 in ascending order"):
            bundle_with_ids(class_ids)

    @pytest.mark.parametrize("label", [7, -1, 11])
    def test_unknown_label_is_named(self, label):
        m = bundle_with_ids((2, 5, 9))
        with pytest.raises(ContractError, match=f"label {label} is not one of"):
            m.class_index(np.array([2, label, 5]))
