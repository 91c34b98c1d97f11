"""End-to-end tests of the command line verbs."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from udaselect import cli
from udaselect import data as dt
from udaselect import evaluation as ev
from udaselect import scoring as sc
from udaselect import trainer as tr
from udaselect.cli import EXIT_CONFIG, main
from udaselect.errors import NumericError

SRC = Path(__file__).resolve().parents[1] / "src"
RUN_ARTIFACTS = ["config.json", "metrics.jsonl", "checkpoint.txt", "eval.json",
                 "eval.txt", "scores.tsv", "score_hist.tsv", "manifest.json"]


def gen_args(out, **kw):
    opts = {"shared": 2, "source_private": 1, "target_private": 1,
            "dim": 3, "per_class": 6, "seed": 0}
    opts.update(kw)
    args = ["gen", "--out", str(out)]
    for key, val in opts.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


class TestGen:
    def test_writes_loadable_domain_pair(self, tmp_path):
        assert main(gen_args(tmp_path)) == 0
        src = dt.load_features(tmp_path / "source.features.txt")
        tgt = dt.load_features(tmp_path / "target.features.txt")
        assert src.n == 3 * 6 and src.dim == 3  # shared + source-private
        assert tgt.n == 3 * 6
        spec = json.loads((tmp_path / "labelset.json").read_text())
        assert spec["shared"] == [0, 1]
        assert spec["source_private"] == [2]
        assert spec["target_private"] == [3]
        assert spec["jaccard"] == pytest.approx(2 / 4)

    def test_same_seed_is_byte_identical(self, tmp_path):
        main(gen_args(tmp_path / "a"))
        main(gen_args(tmp_path / "b"))
        for name in ("source.features.txt", "target.features.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


    @pytest.mark.parametrize("flag, value, message", [
        ("noise", "-1", "noise must be >= 0, got -1.0"),
        ("noise", "nan", "noise must be finite, got nan"),
        ("scale", "inf", "scale must be finite, got inf"),
        ("translation", "inf", "translation must be finite, got inf"),
        ("rotation", "inf", "rotation must be finite, got inf")])
    def test_bad_shift_exits_2_before_writing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        assert main(gen_args(out, **{flag: value})) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(gen_args(out, seed=-1)) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestTrain:
    def test_synthetic_run_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--synthetic", "--steps", "5",
                     "--out", str(out)])
        assert code == 0
        for name in RUN_ARTIFACTS:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted(RUN_ARTIFACTS[:-1])
        cfg = tr.TrainConfig.from_dict(
            json.loads((out / "config.json").read_text()))
        assert cfg.total_steps == 5
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--synthetic", "--steps", "5",
                         "--out", str(out)]) == 0
        for name in ("metrics.jsonl", "checkpoint.txt", "eval.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_config_file_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--synthetic", "--config",
                     str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(tmp_path / "run")]) == EXIT_CONFIG

    @pytest.mark.parametrize("payload", ["5", '["gamma"]'])
    def test_non_object_config_file_exits_2(self, tmp_path, capsys, payload):
        bad = tmp_path / "cfg.json"
        bad.write_text(payload)
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {bad}: config must be a JSON object\n"
        assert not out.exists()

    def test_malformed_config_file_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{\n")
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {bad}: Expecting property name enclosed in double quotes: "
            "line 2 column 1 (char 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--steps", "2", "--gamma", "1.7e308", "--static-w-alpha", "0"],
         "step 0: non-finite values produced by op 'affine'"),
        # these first overflow outside the forward: in the backward pass
        # (a VJP's matmul, the halves' add) or in the update
        (["--steps", "4", "--grl-lambda", "1.7e308"], "step 0: non-finite gradient"),
        (["--steps", "4", "--lr", "1.7e308"],
         "step 1: non-finite values produced by op 'matmul'"),
        # trains to finite but huge weights that overflow when scored
        (["--steps", "3", "--grl-lambda", "1e308"],
         "scoring: non-finite values produced by op 'matmul'"),
    ], ids=["gamma", "grl_lambda", "lr", "scoring"])
    def test_numeric_abort_prints_one_line_and_no_warnings(self, tmp_path, capsys,
                                                           flags, message):
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--synthetic", *flags, "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == f"numeric abort: {message}\n"
        assert not out.exists()

    def test_mistyped_config_field_rejected(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"f_hidden": 5}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{"total_steps": True}, {"lr": True}])
    def test_boolean_for_number_field_exits_2(self, tmp_path, capsys, payload):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "got True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["w0", "w_beta", "w_alpha_start"])
    def test_null_threshold_exits_2(self, tmp_path, capsys, key):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({key: None}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config field {key} must be float, got None\n")
        assert not out.exists()

    def test_out_of_range_w_alpha_start_in_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"scheme": "ours_no_maxy", "w_alpha_start": 1.5}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(bad),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: w_alpha_start=1.5 outside [0.0, 1.0] for scheme 'ours_no_maxy'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "3", "batch_size must be even and >= 2, got 3"),
        ("--gamma", "-1", "gamma must be >= 0, got -1.0"),
        ("--gamma", "nan", "gamma must be finite, got nan"),
        ("--w-beta", "nan", "w_beta must be finite, got nan"),
        ("--momentum", "inf", "momentum must be finite, got inf"),
        ("--momentum", "1.7e308", "momentum must lie in [0, 1), got 1.7e+308"),
        ("--momentum", "1.0", "momentum must lie in [0, 1), got 1.0"),
        ("--momentum", "-0.5", "momentum must lie in [0, 1), got -0.5"),
        ("--lr", "inf", "lr must be finite, got inf"),
        ("--grl-lambda", "nan", "grl_lambda must be finite, got nan"),
        ("--static-w-alpha", "inf", "static_w_alpha must be finite, got inf"),
        ("--static-w-alpha", "5", "static_w_alpha=5.0 outside [0.0, 2.0] for scheme 'ours'"),
        ("--w-beta", "5", "w_beta=5.0 outside [0.0, 2.0] for scheme 'ours'"),
        ("--seed", "-1", "seed must be >= 0, got -1")])
    def test_odd_batch_size_exits_2_without_run_dir(self, tmp_path, capsys,
                                                    flag, value, message):
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--steps", "2", flag, value,
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_source_target_dim_mismatch_exits_2_without_run_dir(self, tmp_path, capsys):
        assert main(gen_args(tmp_path / "d3")) == 0
        assert main(gen_args(tmp_path / "d4", dim=4)) == 0
        src = tmp_path / "d3" / "source.features.txt"
        tgt = tmp_path / "d4" / "target.features.txt"
        out = tmp_path / "run"
        assert main(["train", "--source", str(src), "--target", str(tgt),
                     "--labelset", str(tmp_path / "d3" / "labelset.json"),
                     "--steps", "2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {src}: feature dim 3, but {tgt} has 4\n")
        assert not out.exists()

    def test_malformed_labelset_exits_2_naming_it(self, tmp_path, capsys):
        data, labelset = tmp_path / "data", tmp_path / "labelset.json"
        assert main(gen_args(data)) == 0
        labelset.write_text("{\n")
        out = tmp_path / "run"
        assert main(["train", "--source", str(data / "source.features.txt"),
                     "--target", str(data / "target.features.txt"),
                     "--labelset", str(labelset), "--steps", "2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {labelset}: Expecting property name enclosed in double quotes: "
            "line 2 column 1 (char 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fault, code", [
        ("config", EXIT_CONFIG), ("empty_source", EXIT_CONFIG),
        ("empty_target", EXIT_CONFIG), ("gamma_overflow", cli.EXIT_NUMERIC)])
    def test_failed_run_leaves_no_run_dir(self, tmp_path, capsys, fault, code):
        main(gen_args(tmp_path / "data"))
        data = tmp_path / "data"
        args = ["train", "--source", str(data / "source.features.txt"),
                "--target", str(data / "target.features.txt"),
                "--labelset", str(data / "labelset.json"), "--steps", "2",
                "--batch-size", "4"]
        if fault == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({"f_hidden": [0]}))
            args += ["--config", str(tmp_path / "cfg.json")]
        elif fault == "gamma_overflow":
            args += ["--gamma", "1.7e308", "--static-w-alpha", "0"]
        else:
            name = fault.split("_")[1] + ".features.txt"
            (data / name).write_text("# dim=3 count=0 labeled=1\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(args + ["--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_config_file_feeds_training(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"total_steps": 3, "gamma": 0.25}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["total_steps"] == 3 and cfg["gamma"] == 0.25

    def test_flag_overrides_beat_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"total_steps": 3}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(cfg_file),
                     "--steps", "4", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["total_steps"] == 4

    @pytest.mark.parametrize("scheme", sc.SCHEMES)
    def test_unset_thresholds_are_the_schemes_defaults(self, tmp_path, scheme):
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--scheme", scheme, "--steps", "2",
                     "--out", str(out)]) == 0
        cfg = json.loads((out / "config.json").read_text())
        want = cli.scheme_defaults(cli.benchmark_config(total_steps=2), scheme)
        assert cfg == json.loads(json.dumps(want.to_dict()))
        if scheme == "ours":  # the preset's thresholds are ours' defaults
            assert cfg == json.loads(json.dumps(cli.benchmark_config(total_steps=2).to_dict()))

    def test_set_thresholds_beat_the_schemes_defaults(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scheme": "uan", "w_beta": 0.1}))
        out = tmp_path / "run"
        assert main(["train", "--synthetic", "--config", str(cfg_file), "--w0", "0.3",
                     "--steps", "2", "--out", str(out)]) == 0
        cfg = json.loads((out / "config.json").read_text())
        assert (cfg["w0"], cfg["w_beta"], cfg["w_alpha_start"]) == (0.3, 0.1, 0.5)

    def test_file_inputs_require_all_three_paths(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "run")]) == EXIT_CONFIG

    def test_trains_from_generated_feature_files(self, tmp_path):
        main(gen_args(tmp_path / "data"))
        out = tmp_path / "run"
        code = main(["train",
                     "--source", str(tmp_path / "data/source.features.txt"),
                     "--target", str(tmp_path / "data/target.features.txt"),
                     "--labelset", str(tmp_path / "data/labelset.json"),
                     "--steps", "5", "--batch-size", "4", "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.txt").exists()

    def test_default_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UDASELECT_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["train", "--synthetic", "--steps", "2",
                     "--name", "probe"]) == 0
        assert (tmp_path / "root" / "probe" / "manifest.json").exists()


class TestEvalVerb:
    def test_eval_of_saved_checkpoint(self, tmp_path, capsys):
        main(gen_args(tmp_path / "data"))
        run = tmp_path / "run"
        main(["train",
              "--source", str(tmp_path / "data/source.features.txt"),
              "--target", str(tmp_path / "data/target.features.txt"),
              "--labelset", str(tmp_path / "data/labelset.json"),
              "--steps", "5", "--batch-size", "4", "--out", str(run)])
        out_json = tmp_path / "eval.json"
        code = main(["eval", "--checkpoint", str(run / "checkpoint.txt"),
                     "--target", str(tmp_path / "data/target.features.txt"),
                     "--labelset", str(tmp_path / "data/labelset.json"),
                     "--out", str(out_json)])
        assert code == 0
        assert "average class accuracy" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert 0.0 <= payload["average_class_accuracy"] <= 1.0

    def test_eval_matches_train_report(self, tmp_path):
        main(gen_args(tmp_path / "data"))
        run = tmp_path / "run"
        main(["train",
              "--source", str(tmp_path / "data/source.features.txt"),
              "--target", str(tmp_path / "data/target.features.txt"),
              "--labelset", str(tmp_path / "data/labelset.json"),
              "--steps", "5", "--batch-size", "4", "--out", str(run)])
        out_json = tmp_path / "eval.json"
        main(["eval", "--checkpoint", str(run / "checkpoint.txt"),
              "--target", str(tmp_path / "data/target.features.txt"),
              "--labelset", str(tmp_path / "data/labelset.json"),
              "--out", str(out_json)])
        assert (json.loads(out_json.read_text())
                == json.loads((run / "eval.json").read_text()))

    def test_missing_checkpoint_exits_2(self, tmp_path):
        main(gen_args(tmp_path / "data"))
        assert main(["eval", "--checkpoint", str(tmp_path / "absent.txt"),
                     "--target", str(tmp_path / "data/target.features.txt"),
                     "--labelset", str(tmp_path / "data/labelset.json"),
                     ]) == EXIT_CONFIG


def train_small(tmp_path):
    """A 5-step checkpoint trained on a generated pair under ``tmp_path``."""
    main(gen_args(tmp_path / "data"))
    run = tmp_path / "run"
    main(["train",
          "--source", str(tmp_path / "data/source.features.txt"),
          "--target", str(tmp_path / "data/target.features.txt"),
          "--labelset", str(tmp_path / "data/labelset.json"),
          "--steps", "5", "--batch-size", "4", "--out", str(run)])
    return run / "checkpoint.txt"


def eval_args(tmp_path, checkpoint, labelset, *extra):
    return ["eval", "--checkpoint", str(checkpoint),
            "--target", str(tmp_path / "data/target.features.txt"),
            "--labelset", str(labelset), *extra]


class TestEvalInputs:
    @pytest.mark.parametrize("scheme, w0", [("ours", "7"), ("uan", "-3")])
    def test_w0_outside_scheme_range_exits_2(self, tmp_path, capsys, scheme, w0):
        ckpt = train_small(tmp_path)
        code = main(eval_args(tmp_path, ckpt, tmp_path / "data/labelset.json",
                              "--scheme", scheme, "--w0", w0))
        assert code == EXIT_CONFIG
        assert f"--w0={float(w0)} outside" in capsys.readouterr().err

    def test_labelset_private_sets_default_to_empty(self, tmp_path):
        ckpt = train_small(tmp_path)
        labelset = tmp_path / "shared_only.json"
        labelset.write_text(json.dumps({"shared": [0, 1], "target_private": [3]}))
        assert cli._load_labelset(labelset) == dt.LabelSetSpec(
            shared=(0, 1), target_private=(3,))
        assert main(eval_args(tmp_path, ckpt, labelset)) == 0

    @pytest.mark.parametrize("payload", [{"source_private": [2]}, [1, 2]])
    def test_labelset_without_shared_object_exits_2(self, tmp_path, capsys, payload):
        ckpt = train_small(tmp_path)
        labelset = tmp_path / "bad.json"
        labelset.write_text(json.dumps(payload))
        assert main(eval_args(tmp_path, ckpt, labelset)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(labelset) in err and "'shared'" in err

    @pytest.mark.parametrize("payload", [{"shared": 5}, {"shared": ["a"]},
                                         {"shared": [0], "target_private": [3.0]}])
    def test_labelset_entries_must_be_integer_lists(self, tmp_path, capsys, payload):
        ckpt = train_small(tmp_path)
        labelset = tmp_path / "bad.json"
        labelset.write_text(json.dumps(payload))
        assert main(eval_args(tmp_path, ckpt, labelset)) == EXIT_CONFIG
        assert "integer class ids" in capsys.readouterr().err

    def test_w0_defaults_to_the_schemes_default(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        main(gen_args(data, shared=4, source_private=2, target_private=6, dim=8,
                      per_class=60))  # the benchmark's target
        main(["train", "--synthetic", "--steps", "300", "--out", str(run)])
        reports = {}
        for w0 in (None, "0.0", "1.0"):
            capsys.readouterr()
            assert main(eval_args(tmp_path, run / "checkpoint.txt", data / "labelset.json",
                                  "--scheme", "uan",
                                  *([] if w0 is None else ["--w0", w0]))) == 0
            reports[w0] = capsys.readouterr().out
        assert reports[None] == reports["0.0"] != reports["1.0"]


class TestEvalFileErrors:
    @pytest.mark.parametrize("header", ["not json", json.dumps({"class_ids": [0, 1]})])
    def test_bad_checkpoint_header_names_the_file(self, tmp_path, capsys, header):
        ckpt = train_small(tmp_path)
        ckpt.write_text("\n".join([header, *ckpt.read_text().splitlines()[1:]]) + "\n")
        assert main(eval_args(tmp_path, ckpt, tmp_path / "data/labelset.json")) == EXIT_CONFIG
        assert f"{ckpt}:1: bad checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_checkpoint_value_exits_2(self, tmp_path, capsys, token):
        ckpt = train_small(tmp_path)
        lines = ckpt.read_text().splitlines()
        lines[2] = token + " " + lines[2].split(" ", 1)[1]
        ckpt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(eval_args(tmp_path, ckpt, tmp_path / "data/labelset.json")) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {ckpt}:3: f.w0 has non-finite value {token!r}\n")

    def test_target_dim_differing_from_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = train_small(tmp_path)  # trained on gen --dim 3
        main(gen_args(tmp_path / "wide", dim=4))
        target = tmp_path / "wide/target.features.txt"
        assert main(["eval", "--checkpoint", str(ckpt), "--target", str(target),
                     "--labelset", str(tmp_path / "wide/labelset.json")]) == EXIT_CONFIG
        assert (f"{target}: feature dim 4, but checkpoint {ckpt} expects 3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("header", ["# dim=3 count=-3 labeled=1",
                                        "# dim=-1 count=2 labeled=1",
                                        "# dim=3 count=1 labeled=7 extra=zz"])
    def test_negative_feature_header_exits_2(self, tmp_path, capsys, header):
        ckpt = train_small(tmp_path)
        target = tmp_path / "data/target.features.txt"
        target.write_text(header + "\n")
        assert main(eval_args(tmp_path, ckpt, tmp_path / "data/labelset.json")) == EXIT_CONFIG
        assert f"{target}:1: bad header" in capsys.readouterr().err

    @pytest.mark.parametrize("class_ids", [[0, 0, 1], [True, 1, 2], [-1, 0, 1],
                                           ["a", 0, 1]])
    def test_bad_checkpoint_class_ids_exit_2(self, tmp_path, capsys, class_ids):
        ckpt = train_small(tmp_path)
        header, *rest = ckpt.read_text().splitlines()
        meta = json.loads(header)
        assert len(meta["class_ids"]) == len(class_ids)
        meta["class_ids"] = class_ids
        ckpt.write_text("\n".join([json.dumps(meta), *rest]) + "\n")
        capsys.readouterr()
        assert main(eval_args(tmp_path, ckpt, tmp_path / "data/labelset.json")) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}:1: bad checkpoint header")
        assert err.count("\n") == 1

    def test_source_labelled_unknown_exits_2(self, tmp_path, capsys):
        src, args = self.file_verb(tmp_path, "train")
        lines = src.read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t-1"
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert "class_ids must be distinct ints other than -1" in capsys.readouterr().err
        assert not (tmp_path / "rerun").exists()

    @staticmethod
    def file_verb(tmp_path, verb):
        """The feature file ``verb`` reads from ``train_small``'s data, and
        the verb's arguments with every output under ``tmp_path/rerun``."""
        ckpt = train_small(tmp_path)
        data = tmp_path / "data"
        out = tmp_path / "rerun"
        if verb == "train":
            return data / "source.features.txt", [
                "train", "--source", str(data / "source.features.txt"),
                "--target", str(data / "target.features.txt"),
                "--labelset", str(data / "labelset.json"), "--steps", "2",
                "--batch-size", "4", "--out", str(out)]
        return data / "target.features.txt", eval_args(
            tmp_path, ckpt, data / "labelset.json", "--out", str(out / "eval.json"))

    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_label_too_large_for_int64_exits_2(self, tmp_path, verb):
        bad, args = self.file_verb(tmp_path, verb)
        lines = bad.read_text().splitlines()
        lines[1] = lines[1].rsplit("\t", 1)[0] + "\t99999999999999999999"
        bad.write_text("\n".join(lines) + "\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-m", "udaselect.cli", *args],
                              capture_output=True, text=True, env=env)
        assert done.returncode == EXIT_CONFIG
        assert done.stderr.startswith(f"error: {bad}:2: label does not fit int64")
        assert done.stderr.count("\n") == 1  # one line, no traceback
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("verb", ["train", "eval"])
    def test_unlabeled_feature_file_exits_2(self, tmp_path, capsys, verb):
        bad, args = self.file_verb(tmp_path, verb)
        header, *rows = bad.read_text().splitlines()
        bad.write_text("\n".join([header.replace("labeled=1", "labeled=0")]
                                 + [r.rsplit("\t", 1)[0] for r in rows]) + "\n")
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {bad}: labels requested but file is unlabeled\n")
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("reader", ["train", "eval", "checkpoint", "labelset", "config"])
    def test_undecodable_input_exits_2_naming_it(self, tmp_path, capsys, reader):
        if reader in ("train", "eval"):
            bad, args = self.file_verb(tmp_path, reader)
        elif reader == "config":
            bad = tmp_path / "config.json"
            bad.write_text('{"seed": 1}\n')
            args = ["train", "--synthetic", "--config", str(bad),
                    "--out", str(tmp_path / "rerun")]
        else:
            _, args = self.file_verb(tmp_path, "eval")
            bad = Path(args[args.index(f"--{reader}") + 1])
        text = bad.read_bytes()
        cut = text.index(b"\n") + 1
        bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "rerun").exists()

    @pytest.mark.parametrize("flag", ["--target", "--config"])
    def test_directory_input_exits_2_naming_it(self, tmp_path, capsys, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        if flag == "--target":
            _, args = self.file_verb(tmp_path, "eval")
            args[args.index(flag) + 1] = str(folder)
        else:
            args = ["train", "--synthetic", "--config", str(folder),
                    "--out", str(tmp_path / "rerun")]
        capsys.readouterr()
        assert main(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "rerun").exists()


#: a benchmark run, then ``eval`` of its checkpoint, in one interpreter;
#: prints whether ``numpy.ma`` was ever imported
TRAIN_THEN_EVAL = """
import json, sys
from pathlib import Path
from udaselect import cli, data as dt
out = Path(sys.argv[1])
cfg = cli.benchmark_config(total_steps=5)
src, tgt, spec = cli.make_benchmark(cfg)
cli.run_experiment("r", cfg, src, tgt, spec, out / "r")
dt.save_features(out / "target.txt", tgt)
(out / "labelset.json").write_text(json.dumps({"shared": list(spec.shared),
    "source_private": list(spec.source_private),
    "target_private": list(spec.target_private)}))
assert cli.main(["eval", "--checkpoint", str(out / "r" / "checkpoint.txt"),
                 "--target", str(out / "target.txt"),
                 "--labelset", str(out / "labelset.json")]) == 0
print("numpy.ma" in sys.modules)
"""


def test_train_and_eval_never_import_numpy_ma(tmp_path):
    """``numpy.ma`` costs about 1 MB of peak RSS and no run needs it."""
    done = subprocess.run([sys.executable, "-c", TRAIN_THEN_EVAL, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.splitlines()[-1] == "False"


def group_of(domain, label, spec):
    """The per-row rule for a sample's score group."""
    shared = label in spec.shared
    return f"{domain}-{'shared' if shared else 'private'}"


class TestRunExperimentReadSide:
    """``run_experiment`` scores each domain once and hands both writers
    each domain's table with its labels."""

    def run(self, tmp_path):
        cfg = cli.benchmark_config(total_steps=3)
        src, tgt, spec = cli.make_benchmark(cfg)
        report = cli.run_experiment("r", cfg, src, tgt, spec, tmp_path / "r")
        dump = (tmp_path / "r" / "scores.tsv").read_text().splitlines()[1:]
        return src, tgt, spec, report, [line.split("\t") for line in dump]

    def test_each_domain_is_scored_once(self, tmp_path, monkeypatch):
        rows = []
        score_batch = sc.score_batch
        monkeypatch.setattr(sc, "score_batch",
                            lambda m, x, s: rows.append(len(x)) or score_batch(m, x, s))
        src, tgt, _, report, dump = self.run(tmp_path)
        assert rows == [tgt.n, src.n]  # evaluate's, then the source's
        assert [float(r[6]) for r in dump[src.n:]] == report.scores.w.tolist()

    def test_histograms_follow_the_per_row_rule(self, tmp_path):
        src, tgt, spec, _, dump = self.run(tmp_path)
        assert [r[0] for r in dump] == [str(i) for i in range(src.n + tgt.n)]
        assert [r[1] for r in dump] == ["source"] * src.n + ["target"] * tgt.n
        assert [int(r[2]) for r in dump] == [*src.labels.tolist(), *tgt.labels.tolist()]
        groups = np.array([group_of(r[1], int(r[2]), spec) for r in dump])
        order = ["source-shared", "source-private", "target-shared", "target-private"]
        assert all((groups == group).any() for group in order)
        columns = {"d": 3, "max_prob": 4, "w": 6}
        ranges = {"d": (0.0, 1.0), "max_prob": (0.0, 1.0), "w": sc.SCHEME_RANGES["ours"]}
        want = []
        for group in order:
            for qty, (lo, hi) in ranges.items():
                values = [float(r[columns[qty]]) for r, g in zip(dump, groups) if g == group]
                counts, edges = np.histogram(values, bins=np.linspace(lo, hi, ev.HIST_BINS + 1))
                want += [[group, qty, repr(b_lo), repr(b_hi), str(count)] for b_lo, b_hi, count
                         in zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())]
        hist = (tmp_path / "r" / "score_hist.tsv").read_text().splitlines()
        assert [line.split("\t") for line in hist[1:]] == want


def read_table(path):
    lines = path.read_text().splitlines()
    return lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]


class TestSweep:
    def test_empty_value_list_rejected(self, tmp_path):
        assert main(["sweep", "--param", "w0", "--values", "",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("verb", [["sweep", "--param", "w0", "--values", "1.0"],
                                      ["ablate", "--ablation", "pseudo"]])
    def test_seeds_below_one_rejected(self, tmp_path, verb):
        out = tmp_path / "grid"
        assert main(verb + ["--seeds", "0", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_non_numeric_value_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "w0", "--values", "1.0,a,b",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --values: could not convert string to float: 'a'\n")
        assert not out.exists()

    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "w0", "--values", "1.0", "--seed", "-1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("values", ["1.0000001,1.0000002", "1,1"])
    def test_values_with_one_name_exit_2_before_any_run(self, tmp_path, capsys, values):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "w0", "--values", values, "--seeds", "1",
                     "--steps", "5", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --values: more than one value is named w0_1\n")
        assert not out.exists()

    def test_value_outside_scheme_range_rejected(self, tmp_path):
        assert main(["sweep", "--param", "w0", "--values", "2.5",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("param, field", [("w_beta", "w_beta"),
                                              ("w_alpha_static", "static_w_alpha")])
    def test_out_of_range_value_exits_2_naming_its_field(self, tmp_path, capsys,
                                                         param, field):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", param, "--values", "1.0,5",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {field}=5.0 outside [0.0, 2.0] for scheme 'ours'\n")
        assert not out.exists()

    def test_w0_sweep_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--param", "w0", "--values", "0.5,1.5",
                     "--seeds", "1", "--steps", "4", "--out", str(out)])
        assert code == 0
        header, rows = read_table(out / "sweep.tsv")
        assert header == ["variant", "seed0", "mean", "std"]
        assert [r[0] for r in rows] == ["w0_0.5", "w0_1.5"]
        for r in rows:
            assert 0.0 <= float(r[-2]) <= 1.0

    @pytest.mark.parametrize("param, field", [("w_beta", "w_beta"), ("w0", "w0"),
                                              ("w_alpha_static", "static_w_alpha")])
    def test_sweep_varies_exactly_one_parameter(self, tmp_path, param, field):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", param, "--values", "0.4,1.2",
                     "--seeds", "1", "--steps", "4", "--out", str(out)]) == 0
        cfgs = [json.loads((out / f"{param}_{v}_seed0" / "config.json").read_text())
                for v in ("0.4", "1.2")]
        diff = {k for k in cfgs[0] if cfgs[0][k] != cfgs[1][k]}
        assert diff == {field}
        assert [cfg[field] for cfg in cfgs] == [0.4, 1.2]


class TestAblate:
    def test_scoring_ablation_covers_all_schemes(self, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--ablation", "scoring", "--seeds", "1",
                     "--steps", "4", "--out", str(out)])
        assert code == 0
        header, rows = read_table(out / "ablation.tsv")
        assert [r[0] for r in rows] == [f"scheme_{s}" for s in sc.SCHEMES]

    @pytest.mark.parametrize("flags, payload", [
        (["--w0", "0.3"], None), (["--w-beta", "0.3"], None), (["--scheme", "uan"], None),
        ([], {"scheme": "uan"}), ([], {"w0": 0.3}), ([], {"w_beta": 0.3}),
        ([], {"w_alpha_start": 1.2})], ids=["w0", "w_beta", "scheme", "file_scheme",
                                            "file_w0", "file_w_beta", "file_w_alpha_start"])
    def test_scoring_ablation_refuses_what_it_would_drop(self, tmp_path, capsys,
                                                         flags, payload):
        if payload is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(payload))
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "ablate"
        assert main(["ablate", "--ablation", "scoring", *flags, "--seeds", "1",
                     "--steps", "2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: ablate --ablation scoring runs each scheme at its default "
            "thresholds: drop scheme, w0, w_beta and w_alpha_start\n")
        assert not out.exists()

    def test_scheme_variants_use_native_threshold_ranges(self):
        cfg = cli.benchmark_config()
        for scheme in sc.SCHEMES:
            variant = cli.scheme_defaults(cfg, scheme)
            lo, hi = sc.SCHEME_RANGES[scheme]
            assert lo <= variant.w0 <= hi
            assert lo <= variant.w_beta <= hi
            assert lo <= variant.w_alpha_start <= hi
        assert cli.scheme_defaults(cfg, "ours").w0 == cfg.w0

    def test_pseudo_ablation_rows(self, tmp_path):
        out = tmp_path / "ablate"
        main(["ablate", "--ablation", "pseudo", "--seeds", "1",
              "--steps", "4", "--out", str(out)])
        _, rows = read_table(out / "ablation.tsv")
        assert [r[0] for r in rows] == ["full", "no_pseudo_labels",
                                       "w_alpha_0", "static_w_alpha_1.2"]

    def test_pseudo_ablation_takes_the_schemes_thresholds(self, tmp_path):
        out = tmp_path / "ablate"
        main(["ablate", "--ablation", "pseudo", "--scheme", "uan", "--seeds", "1",
              "--steps", "2", "--out", str(out)])
        cfg = json.loads((out / "full_seed0" / "config.json").read_text())
        want = cli.scheme_defaults(cli.benchmark_config(), "uan")
        assert (cfg["w0"], cfg["w_beta"], cfg["w_alpha_start"]) == (
            want.w0, want.w_beta, want.w_alpha_start) == (0.0, pytest.approx(-0.2), 0.5)

    @pytest.mark.parametrize("scheme, statics", [("ours", (0.0, 1.2)),
                                                 ("uan", (-1.0, 0.19999999999999996))])
    def test_pseudo_static_variants_are_fractions_of_the_range(self, tmp_path,
                                                               scheme, statics):
        out = tmp_path / "ablate"
        assert main(["ablate", "--ablation", "pseudo", "--scheme", scheme, "--seeds", "1",
                     "--steps", "2", "--out", str(out)]) == 0
        lo, hi = sc.SCHEME_RANGES[scheme]
        for name, want in zip(("w_alpha_0", "static_w_alpha_1.2"), statics):
            got = json.loads((out / f"{name}_seed0" / "config.json").read_text())
            assert got["static_w_alpha"] == want and lo <= want <= hi

    def test_diversity_ablation_rows(self, tmp_path):
        out = tmp_path / "ablate"
        main(["ablate", "--ablation", "diversity", "--seeds", "1",
              "--steps", "4", "--out", str(out)])
        _, rows = read_table(out / "ablation.tsv")
        assert [r[0] for r in rows] == ["diversity_off", "diversity_target_only",
                                       "diversity_both"]


def grid_configs(ablation: str, steps: int) -> dict[str, tr.TrainConfig]:
    """The seed-0 config of each variant of an ``ablate`` grid at its defaults."""
    base = cli.benchmark_config(total_steps=steps)
    if ablation == "scoring":
        return {f"scheme_{s}": cli.scheme_defaults(base, s) for s in sc.SCHEMES}
    return {"full": base, "no_pseudo_labels": replace(base, pseudo_labels=False),
            "w_alpha_0": replace(base, static_w_alpha=0.0),
            "static_w_alpha_1.2": replace(base, static_w_alpha=1.2)}


class TestGridLanes:
    """A grid trains all its runs as the lanes of stacks, whatever their
    variants, and writes each run as ``run_experiment`` writes it alone."""

    @pytest.mark.parametrize("ablation", ["scoring", "pseudo"])
    def test_ablation_runs_are_byte_identical_to_runs_alone(self, tmp_path, ablation):
        out = tmp_path / "ablate"
        assert main(["ablate", "--ablation", ablation, "--seeds", "2",
                     "--steps", "20", "--out", str(out)]) == 0
        variants = grid_configs(ablation, 20)
        runs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert runs == sorted(f"{name}_seed{seed}" for name in variants for seed in (0, 1))
        for name, base in variants.items():
            for seed in (0, 1):
                cfg = replace(base, seed=seed)
                alone = tmp_path / "alone" / f"{name}_{seed}"
                cli.run_experiment(name, cfg, *cli.make_benchmark(cfg), alone)
                lane = out / f"{name}_seed{seed}"
                assert sorted(p.name for p in lane.iterdir()) == sorted(RUN_ARTIFACTS)
                for artifact in RUN_ARTIFACTS:
                    assert (lane / artifact).read_bytes() == (alone / artifact).read_bytes(), (
                        lane.name, artifact)

    @pytest.mark.parametrize("ablation, seeds, max_lanes, want", [
        ("scoring", 2, 4, [4, 4, 2]),
        ("pseudo", 3, 4, [4, 4, 4]),
        # its variants differ in the diversity mode, which a stack's lanes share
        ("diversity", 3, 4, [3, 3, 3]),
        ("diversity", 3, 2, [2, 1] * 3),
    ])
    def test_seeds_beyond_one_stack_train_in_further_stacks(
            self, tmp_path, monkeypatch, ablation, seeds, max_lanes, want):
        stacks = []
        train_stack = tr._train_stack
        monkeypatch.setattr(tr, "_train_stack",
                            lambda runs: stacks.append(len(runs)) or train_stack(runs))
        monkeypatch.setattr(tr, "MAX_LANES", max_lanes)
        assert main(["ablate", "--ablation", ablation, "--seeds", str(seeds),
                     "--steps", "2", "--out", str(tmp_path / "ablate")]) == 0
        assert stacks == want

    def test_a_failing_lane_stops_its_variant_before_any_run_is_written(
            self, tmp_path, capsys, monkeypatch):
        """A non-finite feature in seed 1's source: the first variant's
        stack stops where that run alone stops, exit code 3, and no run
        directory is written."""
        make_benchmark = cli.make_benchmark

        def poisoned(cfg):
            src, tgt, spec = make_benchmark(cfg)
            if cfg.seed == 1:
                features = src.features.copy()
                features[17, 5] = np.nan
                src = dt.DomainDataset(features, src.labels)
            return src, tgt, spec

        monkeypatch.setattr(cli, "make_benchmark", poisoned)
        out = tmp_path / "ablate"
        assert main(["ablate", "--ablation", "scoring", "--seeds", "3",
                     "--steps", "200", "--out", str(out)]) == cli.EXIT_NUMERIC
        cfg = cli.benchmark_config(total_steps=200, seed=1)
        with pytest.raises(NumericError) as alone:
            tr.train(*poisoned(cfg)[:2], cfg)
        assert capsys.readouterr().err == f"numeric abort: scheme_ours seed 1: {alone.value}\n"
        assert str(alone.value).startswith("step ") and "op 'input'" in str(alone.value)
        assert [p.name for p in out.iterdir()] == []

    def test_a_failing_lane_names_its_own_variant_and_stops_later_variants(
            self, tmp_path, capsys, monkeypatch):
        """A non-finite feature in ``uan`` seed 1's source only.  The first
        stack, ``ours`` seeds 0-2 and ``uan`` seed 0, trains and writes
        ``ours``; the second, ``uan`` seeds 1 and 2 and ``entropy`` seeds 0
        and 1, stops where that run alone stops.  No run of ``uan``, of
        ``entropy`` or of a later variant is written."""
        make_benchmark = cli.make_benchmark

        def poisoned(cfg):
            src, tgt, spec = make_benchmark(cfg)
            if cfg.scheme == "uan" and cfg.seed == 1:
                features = src.features.copy()
                features[17, 5] = np.nan
                src = dt.DomainDataset(features, src.labels)
            return src, tgt, spec

        monkeypatch.setattr(cli, "make_benchmark", poisoned)
        out = tmp_path / "ablate"
        assert main(["ablate", "--ablation", "scoring", "--seeds", "3",
                     "--steps", "200", "--out", str(out)]) == cli.EXIT_NUMERIC
        cfg = cli.scheme_defaults(cli.benchmark_config(total_steps=200, seed=1), "uan")
        with pytest.raises(NumericError) as alone:
            tr.train(*poisoned(cfg)[:2], cfg)
        assert capsys.readouterr().err == f"numeric abort: scheme_uan seed 1: {alone.value}\n"
        assert str(alone.value).startswith("step ") and "op 'input'" in str(alone.value)
        assert sorted(p.name for p in out.iterdir()) == [f"scheme_ours_seed{s}" for s in range(3)]
