"""Unit tests for synthetic data generation, batching and feature io."""

import numpy as np
import pytest

from udaselect import data as dt
from udaselect.data import LabelSetSpec, ShiftConfig
from udaselect.errors import ConfigError, ContractError, FeatureFileError


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


class TestSampleBatch:
    def _pair(self):
        spec = LabelSetSpec(shared=(0, 1))
        return dt.gen_synthetic(spec, 4, 5, ShiftConfig(), seed=0)

    def test_halves(self):
        src, tgt = self._pair()
        batch = dt.sample_batch(src, tgt, 8, np.random.default_rng(0))
        assert batch.source_x.shape[0] == 4
        assert batch.source_y.shape[0] == 4
        assert batch.target_x.shape[0] == 4

    def test_seeded_rng_is_deterministic(self):
        src, tgt = self._pair()
        b1 = [dt.sample_batch(src, tgt, 6, np.random.default_rng(3))
              for _ in range(1)][0]
        b2 = dt.sample_batch(src, tgt, 6, np.random.default_rng(3))
        np.testing.assert_array_equal(b1.source_x, b2.source_x)
        np.testing.assert_array_equal(b1.target_x, b2.target_x)

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
            for row in batch.source_x:
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
        "# dim=0 count=1 labeled=1"])
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
        assert loaded.features.flags.c_contiguous
        assert loaded.labels.dtype == np.int64
        np.testing.assert_array_equal(loaded.labels, tgt.labels)
