"""Unit tests for synthetic data generation, batching and feature io."""

import tracemalloc

import numpy as np
import pytest

from udaselect import data as dt
from udaselect.data import LabelSetSpec, ShiftConfig
from udaselect.errors import ConfigError, ContractError, FeatureFileError


def traced_peak(fn):
    """``fn()`` and the peak of the bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(*datasets):
    return sum(d.features.nbytes + d.labels.nbytes for d in datasets)


def gen_by_class_lists(spec, dim, per_class, shift, seed):
    """``gen_synthetic``'s draws and arithmetic, one array per class,
    concatenated at the end."""
    rng = np.random.default_rng(seed)
    centers = {y: rng.normal(0.0, 3.0, size=dim) for y in spec.all_labels}
    rot = dt._rotation_matrix(dim, shift.rotation, rng)
    direction = rng.normal(size=dim)
    offset = shift.translation * (direction / np.linalg.norm(direction))

    def blob(y, std):
        return centers[y][None, :] + rng.normal(0.0, std, size=(per_class, dim))

    src_x = [blob(y, 1.0) for y in spec.source_labels]
    tgt_x = [shift.scale * blob(y, shift.noise) @ rot.T + offset for y in spec.shared]
    tgt_x += [blob(y, shift.noise) for y in spec.target_private]
    tgt_y = (*spec.shared, *spec.target_private)
    return ((np.concatenate(src_x), np.repeat(spec.source_labels, per_class)),
            (np.concatenate(tgt_x), np.repeat(tgt_y, per_class)))


class TestLabelSetSpec:
    def test_overlapping_sets_rejected(self):
        with pytest.raises(ConfigError):
            LabelSetSpec(shared=(0, 1), source_private=(1,))

    def test_empty_source_rejected(self):
        with pytest.raises(ConfigError):
            LabelSetSpec(shared=(), target_private=(1, 2))

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ConfigError):
            LabelSetSpec(shared=(dt.TAU, 0))

    def test_benchmark_jaccard(self):
        spec = dt.benchmark_label_spec()
        assert spec.jaccard == pytest.approx(4 / 12)

    def test_jaccard_matches_brute_force_set_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids = rng.permutation(20)
            a, b = rng.integers(1, 6), rng.integers(0, 5)
            c = rng.integers(0, 5)
            spec = LabelSetSpec(shared=tuple(ids[:a]),
                                source_private=tuple(ids[a:a + b]),
                                target_private=tuple(ids[a + b:a + b + c]))
            ys = set(spec.shared) | set(spec.source_private)
            yt = set(spec.shared) | set(spec.target_private)
            assert spec.jaccard == pytest.approx(
                len(ys & yt) / len(ys | yt))


class TestGenSynthetic:
    def test_determinism(self):
        spec = dt.benchmark_label_spec()
        a = dt.gen_synthetic(spec, 8, 10, dt.benchmark_shift(), seed=5)
        b = dt.gen_synthetic(spec, 8, 10, dt.benchmark_shift(), seed=5)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_identity_shift_closed_set_means_agree(self):
        spec = LabelSetSpec(shared=(0, 1, 2))
        src, tgt = dt.gen_synthetic(spec, 6, 400, ShiftConfig(), seed=0)
        for y in spec.shared:
            mu_s = src.features[src.labels == y].mean(axis=0)
            mu_t = tgt.features[tgt.labels == y].mean(axis=0)
            np.testing.assert_allclose(mu_s, mu_t, atol=0.25)

    def test_partial_set_geometry(self):
        spec = LabelSetSpec(shared=(0, 1), source_private=(2, 3))
        src, tgt = dt.gen_synthetic(spec, 4, 5, ShiftConfig(), seed=1)
        assert set(src.labels) == {0, 1, 2, 3}
        assert set(tgt.labels) == {0, 1}

    def test_label_membership(self):
        spec = dt.benchmark_label_spec()
        src, tgt = dt.gen_synthetic(spec, 8, 3, dt.benchmark_shift(), seed=2)
        assert set(src.labels) <= set(spec.source_labels)
        assert set(tgt.labels) <= set((*spec.shared, *spec.target_private))

    def test_degenerate_dim_rejected(self):
        with pytest.raises(ConfigError):
            dt.gen_synthetic(dt.benchmark_label_spec(), 1, 5,
                             ShiftConfig(), seed=0)

    @pytest.mark.parametrize("spec, per_class, shift", [
        (dt.benchmark_label_spec(), 60, dt.benchmark_shift()),
        (dt.benchmark_label_spec(), 1, dt.benchmark_shift()),
        (LabelSetSpec(shared=(3, 0), source_private=(9,)), 7,
         ShiftConfig(rotation=1.1, translation=0.3, scale=2.5, noise=0.7)),
        (LabelSetSpec(shared=(), source_private=(1, 2), target_private=(0,)), 5,
         ShiftConfig())])
    def test_in_place_blocks_equal_per_class_lists_bitwise(self, spec, per_class, shift):
        got = dt.gen_synthetic(spec, 8, per_class, shift, seed=3)
        for ds, (x, y) in zip(got, gen_by_class_lists(spec, 8, per_class, shift, 3)):
            assert ds.features.tobytes() == x.tobytes()
            assert ds.labels.dtype == np.int64
            np.testing.assert_array_equal(ds.labels, y)

    def test_peak_stays_near_its_outputs(self):
        """Every class is drawn into its block: no class is held twice."""
        args = (dt.benchmark_label_spec(), 8, 2000, dt.benchmark_shift())
        dt.gen_synthetic(*args, seed=1)
        (src, tgt), peak = traced_peak(lambda: dt.gen_synthetic(*args, seed=0))
        assert peak < 1.25 * nbytes(src, tgt)


class TestSampleBatch:
    def _pair(self):
        spec = LabelSetSpec(shared=(0, 1))
        return dt.gen_synthetic(spec, 4, 5, ShiftConfig(), seed=0)

    def test_halves(self):
        src, tgt = self._pair()
        batch = dt.sample_batch(src, tgt, 8, np.random.default_rng(0))
        assert batch.x[0].shape[0] == 4
        assert batch.source_y.shape[0] == 4
        assert batch.target_x.shape[0] == 4

    def test_a_stacks_target_x_is_every_lanes_target_rows_in_lane_order(self):
        src, tgt = self._pair()
        lanes = [dt.sample_batch(src, tgt, 8, np.random.default_rng(seed)) for seed in range(3)]
        stack = dt.DomainBatch(np.stack([b.x for b in lanes]),
                               np.stack([b.source_y for b in lanes]))
        np.testing.assert_array_equal(stack.target_x,
                                      np.concatenate([b.target_x for b in lanes]))
        assert np.shares_memory(lanes[0].target_x, lanes[0].x)

    def test_seeded_rng_is_deterministic(self):
        src, tgt = self._pair()
        b1 = [dt.sample_batch(src, tgt, 6, np.random.default_rng(3))
              for _ in range(1)][0]
        b2 = dt.sample_batch(src, tgt, 6, np.random.default_rng(3))
        np.testing.assert_array_equal(b1.x[0], b2.x[0])
        np.testing.assert_array_equal(b1.target_x, b2.target_x)

    @pytest.mark.parametrize("steps", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("half", [1, 3, 4, 8, 25, 32])
    @pytest.mark.parametrize("n", [1, 360, 600, 2**31, 2**32 - 1, 2**33])
    def test_stream_is_a_source_then_a_target_draw(self, n, half, steps):
        """``batches`` over ``steps`` steps, then two ``sample_batch`` calls,
        draw what a source then a target ``integers`` call with a scalar
        bound per step draws, and leave the generator in the same state."""
        class Rows:
            """A stand-in for a one-column table of ``n`` rows whose row i is i."""

            shape, dtype = (n, 1), np.dtype(np.int64)

            def __len__(self):
                return n

            def take(self, idx, axis=None, out=None, mode="raise"):
                out[...] = idx.reshape(out.shape)
                return out

        other = 600 if n != 600 else 360
        src, tgt = (dt.DomainDataset(Rows(), Rows()),
                    dt.DomainDataset(np.arange(other)[:, None], np.arange(other)))
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        drawn = [(batch.x.copy(), batch.source_y.copy())
                 for batch in dt.batches(src, tgt, half, steps, rng)]
        drawn += [(b.x, b.source_y)
                  for b in (dt.sample_batch(src, tgt, 2 * half, rng) for _ in range(2))]
        assert len(drawn) == steps + 2
        for x, y in drawn:
            si, ti = ref.integers(0, n, size=half), ref.integers(0, other, size=half)
            np.testing.assert_array_equal(x, np.stack((si, ti))[..., None])
            np.testing.assert_array_equal(y, si)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_empty_dataset_raises_at_the_first_draw(self):
        src, tgt = self._pair()
        empty = dt.DomainDataset(src.features[:0], src.labels[:0])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert list(dt.batches(empty, tgt, 4, 0, rng)) == []
        for pair in ((empty, tgt), (src, empty)):
            draws = dt.batches(*pair, 4, 3, rng)
            with pytest.raises(ContractError, match="cannot sample from an empty dataset"):
                next(draws)
            with pytest.raises(ContractError, match="cannot sample from an empty dataset"):
                dt.sample_batch(*pair, 8, rng)
        assert rng.bit_generator.state == state

    def test_odd_batch_rejected(self):
        src, tgt = self._pair()
        with pytest.raises(ContractError):
            dt.sample_batch(src, tgt, 7, np.random.default_rng(0))

    def test_selection_frequency_is_uniform(self):
        src, tgt = self._pair()  # 10 source samples
        rng = np.random.default_rng(0)
        n_batches, half = 10_000, 4
        counts = np.zeros(src.n)
        for _ in range(n_batches):
            batch = dt.sample_batch(src, tgt, 2 * half, rng)
            # recover indices by matching rows back to the dataset
            for row in batch.x[0]:
                counts[np.argmin(np.abs(src.features - row).sum(axis=1))] += 1
        draws = n_batches * half
        p = 1.0 / src.n
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) < 3 * sigma + 1e-9)


class TestFeatureFiles:
    def _dataset(self):
        spec = LabelSetSpec(shared=(0, 1), target_private=(2,))
        return dt.gen_synthetic(spec, 3, 4, ShiftConfig(), seed=7)[1]

    def test_round_trip_bit_exact(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "feat.txt"
        dt.save_features(path, ds)
        loaded = dt.load_features(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_labels_requested_from_unlabeled_file(self, tmp_path):
        path = tmp_path / "feat.txt"
        path.write_text("# dim=2 count=1 labeled=0\n1.0\t2.0\n")
        with pytest.raises(FeatureFileError, match="labels requested but file is unlabeled"):
            dt.load_features(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FeatureFileError, match="empty"):
            dt.load_features(path)

    @pytest.mark.parametrize("header", [
        "1.0\t2.0\t0", "# count=1 labeled=1", "# dim=two count=1 labeled=1",
        "# dim=2 count=1 labeled", "# dim=2 count=1 labeled=7",
        "# dim=2 count=1 labeled=-1", "# dim=2 count=1 labeled=1 extra=zz",
        "# dim=0 count=1 labeled=1", "# dim=2 dim=3 count=1 labeled=1",
        "# dim=2\fcount=1 labeled=1"])
    def test_bad_header_reports_line_one(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n1.0\t2.0\t0\n")
        with pytest.raises(FeatureFileError, match=":1:"):
            dt.load_features(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 count=2 labeled=1\n"
                        "1.0\t2.0\t0\n"
                        "1.0\t0\n")
        with pytest.raises(FeatureFileError, match=":3:"):
            dt.load_features(path)

    def test_non_numeric_field_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 count=1 labeled=1\n"
                        "1.0\tx\t0\n")
        with pytest.raises(FeatureFileError, match=":2:"):
            dt.load_features(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 count=3 labeled=1\n1.0\t2.0\t0\n")
        with pytest.raises(FeatureFileError, match="promises 3"):
            dt.load_features(path)

    def test_label_too_large_for_int64_reports_line_two(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dim=2 count=1 labeled=1\n"
                        "1.0\t2.0\t99999999999999999999\n")
        with pytest.raises(FeatureFileError, match=":2: label does not fit int64"):
            dt.load_features(path)

    def test_parse_peak_stays_below_the_file_size(self, tmp_path):
        """The benchmark's 20k-row eval target loads without holding its
        whole text or a list of its lines."""
        _, tgt = dt.gen_synthetic(dt.benchmark_label_spec(), 8, 2000,
                                  dt.benchmark_shift(), seed=0)
        path = tmp_path / "target.features.txt"
        dt.save_features(path, tgt)
        _, peak = traced_peak(lambda: dt.load_features(path))
        assert peak < path.stat().st_size

    def test_parse_peak_stays_near_the_returned_arrays(self, tmp_path):
        """The C reader's table is allocated once at its final size, and
        the features and labels are its columns, not copies of them."""
        _, tgt = dt.gen_synthetic(dt.benchmark_label_spec(), 8, 2000,
                                  dt.benchmark_shift(), seed=0)
        path = tmp_path / "target.features.txt"
        dt.save_features(path, tgt)
        dt.load_features(path)
        loaded, peak = traced_peak(lambda: dt.load_features(path))
        assert peak < 1.25 * nbytes(loaded)


def parse_by_row_walk(path):
    """``_parse_rows`` alone on a file whose header and row count are valid."""
    lines = path.read_text().splitlines()
    header = dict(kv.split("=") for kv in lines[0].lstrip("#").split())
    return dt._parse_rows(path, lines[1:], int(header["dim"]))


def outcome(parse, path):
    """Every bit of a parse result, or the text of its ``FeatureFileError``."""
    try:
        ds = parse(path)
    except FeatureFileError as exc:
        return str(exc)
    return (ds.features.shape, ds.features.dtype, ds.features.tobytes(),
            ds.labels.shape, ds.labels.dtype, ds.labels.tobytes())


class TestReaderEquivalence:
    """``load_features`` (C reader first) against the row walk alone.

    Each body's header row count matches its ``splitlines`` body, so both
    sides reach the body; ``fast`` says whether the C reader decides it.
    """

    @pytest.mark.parametrize("header, rows, fast", [
        ("dim=2 count=2 labeled=1", "1.5\t-2.25\t3\n0.1\t1e-300\t-7\n", True),
        ("dim=2 count=1 labeled=1", "1_0\t2.0\t3\n", False),
        ("dim=2 count=1 labeled=1", "١\t2.0\t3\n", False),
        ("dim=2 count=1 labeled=1", "1.0\t2.0\t3_0\n", False),
        ("dim=2 count=1 labeled=1", "nan\t1e999\t3\n", True),
        ("dim=2 count=1 labeled=1", "-nan\t-1e999\t3\n", True),
        ("dim=2 count=3 labeled=1", "1.0\t2.0\t3\n\n4.0\t5.0\t6\n", False),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\n\n", False),
        ("dim=2 count=3 labeled=1", "1.0\t2.0\t3\x0c\n4.0\t5.0\t6\n", False),
        ("dim=2 count=2 labeled=1", "1.0\t2\x0c.0\t3\n", False),
        ("dim=2 count=1 labeled=1", "1.0\t2.0\t3.0\n", False),
        ("dim=2 count=1 labeled=1", "1.0\t2.0\t3\t\n", False),
        ("dim=2 count=1 labeled=1", "1.0\t2.0\t99999999999999999999\n", False),
        ("dim=2 count=1 labeled=1", "1.0\t2.0\t3#\t4\n", False),
        ("dim=2 count=0 labeled=1", "", False),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\n4.0\t5.0\t6\n", True),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\n4.0\t5.0\tx\n", False),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\r\n4.0\t5.0\t6\r\n", True),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\r4.0\t5.0\t6\n", True),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\u20283\n", False),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\x854.0\t5.0\t6\n", False),
        ("dim=2 count=2 labeled=1", "1.0\t2.0\t3\n4.0\t5.0\t6", True),
    ])
    def test_same_bits_or_same_error_as_row_walk(self, tmp_path, monkeypatch,
                                                 header, rows, fast):
        path = tmp_path / "feat.txt"
        path.write_text(f"# {header}\n{rows}")
        walked = []
        row_walk = dt._parse_rows
        monkeypatch.setattr(dt, "_parse_rows",
                            lambda *a: walked.append(a) or row_walk(*a))
        got = outcome(dt.load_features, path)
        assert len(walked) == (0 if fast else 1)
        assert got == outcome(parse_by_row_walk, path)

    @pytest.mark.parametrize("rows", ["1.0\t2.0\n-3.5\t4e10\n", "1.0\t2.0\t3\n"])
    def test_unlabeled_header_rejected_before_either_reader(self, tmp_path, monkeypatch,
                                                            rows):
        path = tmp_path / "feat.txt"
        path.write_text(f"# dim=2 count={rows.count(chr(10))} labeled=0\n{rows}")

        def no_reader(*args, **kwargs):
            raise AssertionError("an unlabeled body reached a reader")

        monkeypatch.setattr(dt, "_parse_rows", no_reader)
        monkeypatch.setattr(dt.np, "loadtxt", no_reader)
        assert outcome(dt.load_features, path) == (
            f"{path}: labels requested but file is unlabeled")

    def test_benchmark_eval_target_takes_the_fast_path_bit_exact(self, tmp_path,
                                                                 monkeypatch):
        _, tgt = dt.gen_synthetic(dt.benchmark_label_spec(), 8, 2000,
                                  dt.benchmark_shift(), seed=0)
        path = tmp_path / "target.features.txt"
        dt.save_features(path, tgt)

        def no_row_walk(*args):
            raise AssertionError("the C reader fell back to the row walk")

        monkeypatch.setattr(dt, "_parse_rows", no_row_walk)
        loaded = dt.load_features(path)
        assert loaded.features.tobytes() == tgt.features.tobytes()
        assert loaded.features.shape == tgt.features.shape == (20_000, 8)
        # views of the reader's table: each row's 8 features, then its label
        assert loaded.features.strides == (72, 8) and loaded.labels.strides == (72,)
        assert loaded.features.base is loaded.labels.base is not None
        assert loaded.labels.dtype == np.int64
        np.testing.assert_array_equal(loaded.labels, tgt.labels)


class TestCountLines:
    """``_count_lines`` is the ``splitlines`` count of the text-mode read,
    whatever the chunk size, so the C reader's row count is checked
    against the row walk's lines."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
    @pytest.mark.parametrize("text", [
        "", "a", "a\n", "a\nb", "\n\n", "a\r\nb\r\n", "a\rb\r", "a\x0cb", "a\x0c",
        "a\n\x0c", "a\u2028\u2029b\x85", "\x0b\x1c\x1d\x1e"])
    def test_equals_splitlines(self, tmp_path, monkeypatch, text, chunk):
        path = tmp_path / "text.txt"
        path.write_text(text)
        monkeypatch.setattr(dt, "_SCAN_CHUNK", chunk)
        with open(path) as fh:
            assert dt._count_lines(fh) == len(path.read_text().splitlines())

    @pytest.mark.parametrize("end", ["\x0b", "\x0c", "\x85", "\u2028"])
    def test_a_break_ending_the_file_adds_no_row(self, tmp_path, end):
        path = tmp_path / "feat.txt"
        path.write_text(f"# dim=2 count=2 labeled=1\n1.0\t2.0\t3\n4.0\t5.0\t6{end}")
        assert outcome(dt.load_features, path) == outcome(parse_by_row_walk, path)
        assert dt.load_features(path).labels.tolist() == [3, 6]
