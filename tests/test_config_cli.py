import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import voxseg
import voxseg.atomic as atomic
import voxseg.cli.train as cli_train
from conftest import FUZZ, FailsHalfway, mutated
from voxseg.cli.config import ConfigError, TrainConfig, load_config
from voxseg.cli.main import EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, main
from voxseg.cli.train import run_training
from voxseg.nn import build_backbone, save_checkpoint
from voxseg.tensor import Rng
from voxseg.volume import gen_synthetic, read_vvol, write_manifest, write_vvol


FLOAT_KEYS = [f.name for f in fields(TrainConfig)
              if isinstance(f.default, float)
              or (isinstance(f.default, tuple) and isinstance(f.default[0], float))]


def load_text(tmp_path, text: str) -> TrainConfig:
    """``load_config`` on a file holding ``text``."""
    path = tmp_path / "text.cfg"
    path.write_text(text)
    return load_config(str(path))


class TestConfigParsing:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_text(tmp_path, "learning_rate=0.1\n")

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_text(tmp_path, "seed=abc\n")
        with pytest.raises(ConfigError):
            load_text(tmp_path, "patch=16,16\n")

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = load_text(tmp_path, "# a comment\n\nseed=3\n")
        assert cfg.seed == 3

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_text(tmp_path, "seed 3\n")

    def test_overrides(self):
        cfg = load_config(None, {"k": "8", "widths": "8,16"})
        assert cfg.k == 8 and cfg.widths == (8, 16)

    @pytest.mark.parametrize("stride", [(0, 2, 2), (4, 0, 4), (-1, 2, 2), (-1, -1, -1)])
    def test_stride_all_zero_or_all_positive(self, stride):
        with pytest.raises(ConfigError, match="must be all 0"):
            TrainConfig(stride=stride).validate()

    def test_divisibility_validation(self):
        with pytest.raises(ConfigError):
            load_config(None, {"patch": "30,32,32", "factors": "4,2,2"})

    def test_class_count_limit_is_the_vvol_label_limit(self):
        assert TrainConfig(class_count=256).validate().class_count == 256
        with pytest.raises(ConfigError, match="class_count must be <= 256"):
            TrainConfig(class_count=257).validate()

    def test_unknown_factors_need_explicit_lr(self):
        with pytest.raises(ConfigError):
            load_config(None, {"factors": "3,1,1", "patch": "33,32,32",
                               "extents": "48,48,48"})
        cfg = load_config(None, {"factors": "3,1,1", "patch": "36,32,32",
                                 "extents": "48,48,48", "initial_lr": "0.004"})
        assert cfg.resolved_initial_lr() == 0.004

    def test_lookup_rate_used_when_unset(self):
        cfg = load_config(None, {"factors": "4,4,2"})
        assert cfg.resolved_initial_lr() == 2.0e-3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value, tmp_path):
        raw = value if key != "spacing" else f"1,{value},1"
        with pytest.raises(ConfigError):
            load_config(None, {key: raw})
        with pytest.raises(ConfigError):
            load_text(tmp_path, f"{key}={raw}\n")
        data = tmp_path / "data"
        assert main(["gen-data", f"--{key.replace('_', '-')}={raw}",
                     "--data-dir", str(data)]) == EXIT_USAGE
        assert not data.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected_in_code_built_config(self, key, value):
        default = getattr(TrainConfig(), key)
        bad = (default[0], value, default[2]) if isinstance(default, tuple) else value
        with pytest.raises(ConfigError):
            TrainConfig(**{key: bad}).validate()

    @pytest.mark.parametrize("key, bad", [
        ("iterations", 2.5), ("seed", 1.5), ("k", 4.0), ("batch_size", True),
        ("patch", (32.0, 32, 32)), ("widths", (32, 64.0, 128)),
    ])
    def test_non_int_in_int_field_rejected(self, key, bad, tmp_path):
        cfg = TrainConfig(out_dir=str(tmp_path / "run"), **{key: bad})
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_training(cfg)
        assert not (tmp_path / "run").exists()

    def test_file_then_overrides(self, tmp_path):
        # the file alone fails (patch 34 is not divisible by 4); the override fixes it
        path = tmp_path / "run.cfg"
        path.write_text("seed=4\npatch=34,32,32\nfactors=4,4,2\n")
        cfg = load_config(str(path), {"patch": "32,32,32", "seed": "6"})
        assert (cfg.seed, cfg.patch, cfg.factors) == (6, (32, 32, 32), (4, 4, 2))
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestConfigFuzz:
    """Whatever the bytes, load_config returns a TrainConfig or raises ConfigError."""

    @given(raw=st.binary(max_size=128))
    @FUZZ
    def test_arbitrary_bytes(self, tmp_path, raw):
        self._load(tmp_path, raw)

    @given(raw=mutated([b"# desk net\nseed=7\npatch=16,16,16\nwidths=8,16\nk=8\n"
                        b"extents=32,32,32\ninitial_lr=0.002\nspacing=0.5,0.5,1.5\n"]))
    @FUZZ
    def test_mutated_valid_files(self, tmp_path, raw):
        self._load(tmp_path, raw)

    @staticmethod
    def _load(tmp_path, raw):
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(raw)
        try:
            cfg = load_config(str(path))
        except ConfigError:
            return
        assert all(math.isfinite(v) for v in (cfg.initial_lr, cfg.weight_decay,
                                              cfg.noise_sigma, *cfg.spacing))


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    """Small generated dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    args = ["--volumes", "4", "--train-split", "3", "--extents", "16,16,16",
            "--patch", "8,8,8", "--class-count", "2", "--seed", "5",
            "--data-dir", str(data)]
    assert main(["gen-data"] + args) == 0
    return root, data, args


def common_net_args(data, out):
    return ["--volumes", "4", "--train-split", "3", "--extents", "16,16,16",
            "--class-count", "2", "--seed", "5", "--data-dir", str(data),
            "--out-dir", str(out), "--patch", "8,8,8", "--k", "4",
            "--widths", "4,8", "--iterations", "12", "--val-interval", "6",
            "--augment-count", "1"]


class TestGenData:
    def test_deterministic_files(self, tmp_path):
        args = lambda d: ["gen-data", "--volumes", "3", "--train-split", "2",
                          "--extents", "16,16,16", "--patch", "8,8,8",
                          "--seed", "9", "--data-dir", str(d)]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        for name in ["vol_000_img.vvol", "vol_002_lab.vvol", "train.manifest"]:
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb

    def test_split_counts(self, tiny_workspace):
        _, data, _ = tiny_workspace
        train = (data / "train.manifest").read_text().strip().splitlines()
        test = (data / "test.manifest").read_text().strip().splitlines()
        assert len(train) == 3 and len(test) == 1

    def test_twenty_five_volume_split(self, tmp_path):
        # 25 volumes with a 20/5 train/test split
        rc = main(["gen-data", "--volumes", "25", "--train-split", "20",
                   "--extents", "8,8,8", "--patch", "8,8,8", "--factors", "2,2,2",
                   "--seed", "2", "--data-dir", str(tmp_path / "d")])
        assert rc == 0
        train = (tmp_path / "d" / "train.manifest").read_text().strip().splitlines()
        test = (tmp_path / "d" / "test.manifest").read_text().strip().splitlines()
        assert len(train) == 20 and len(test) == 5

    def test_invalid_extents_is_config_error(self, tmp_path):
        rc = main(["gen-data", "--extents", "30,32,32", "--factors", "4,2,2",
                   "--patch", "30,32,32", "--data-dir", str(tmp_path)])
        assert rc == 1


class TestTrainInferEval:
    def test_full_pipeline(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        out = tmp_path / "run"
        args = common_net_args(data, out)
        assert main(["train", "--quiet"] + args) == 0
        assert (out / "model.vckp").exists()
        log = (out / "runlog.csv").read_text().splitlines()
        assert log[0] == "record,iteration,lr,loss,dice_1"
        train_rows = [r for r in log[1:] if r.startswith("train,")]
        assert len(train_rows) == 12
        iters = [int(r.split(",")[1]) for r in train_rows]
        assert iters == sorted(iters)

        rc = main(["infer"] + args + [
            "--checkpoint", str(out / "model.vckp"),
            "--input", str(data / "vol_003_img.vvol"),
            "--out-prob", str(out / "prob.vvol"),
            "--out-labels", str(out / "pred.vvol")])
        assert rc == 0
        probs = read_vvol(out / "prob.vvol")
        assert probs.kind == "image" and probs.tensor.shape.c == 2
        sums = probs.tensor.zyxc.sum(axis=3)
        assert np.abs(sums - 1.0).max() < 1e-9

        rc = main(["eval", "--prediction", str(out / "pred.vvol"),
                   "--reference", str(data / "vol_003_lab.vvol"),
                   "--out", str(out / "metrics.csv")])
        assert rc == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "volume,class,metric,value"
        assert len(rows) == 4  # dice, asd, hausdorff for the one foreground class

    def test_self_eval_is_perfect(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        out = tmp_path / "selfeval.csv"
        rc = main(["eval", "--prediction", str(data / "vol_000_lab.vvol"),
                   "--reference", str(data / "vol_000_lab.vvol"), "--out", str(out)])
        assert rc == 0
        rows = dict()
        for line in out.read_text().splitlines()[1:]:
            _, cls, metric, value = line.split(",")
            rows[metric] = float(value)
        assert rows["dice"] == 1.0
        assert rows["asd"] == 0.0
        assert rows["hausdorff"] == 0.0

    def test_missing_checkpoint_is_data_error(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        args = common_net_args(data, tmp_path)
        rc = main(["infer"] + args + [
            "--checkpoint", str(tmp_path / "missing.vckp"),
            "--input", str(data / "vol_000_img.vvol"),
            "--out-prob", str(tmp_path / "p.vvol"),
            "--out-labels", str(tmp_path / "l.vvol")])
        assert rc == 2

    def test_extent_mismatch_is_data_error(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        small = tmp_path / "small"
        assert main(["gen-data", "--volumes", "2", "--train-split", "1",
                     "--extents", "8,8,8", "--patch", "8,8,8",
                     "--seed", "1", "--data-dir", str(small)]) == 0
        rc = main(["eval", "--prediction", str(small / "vol_000_lab.vvol"),
                   "--reference", str(data / "vol_000_lab.vvol")])
        assert rc == 2


class TestShuffleCommand:
    def test_round_trip_hash_equal(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        src = data / "vol_000_img.vvol"
        down = tmp_path / "down.vvol"
        back = tmp_path / "back.vvol"
        assert main(["shuffle", "--input", str(src), "--output", str(down),
                     "--factors", "2,2,2", "--direction", "down"]) == 0
        assert main(["shuffle", "--input", str(down), "--output", str(back),
                     "--factors", "2,2,2", "--direction", "up"]) == 0
        assert hashlib.sha256(src.read_bytes()).hexdigest() == \
            hashlib.sha256(back.read_bytes()).hexdigest()

    def test_identity_factors_copies_payload(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        src = data / "vol_001_img.vvol"
        out = tmp_path / "same.vvol"
        assert main(["shuffle", "--input", str(src), "--output", str(out),
                     "--factors", "1,1,1", "--direction", "down"]) == 0
        assert src.read_bytes() == out.read_bytes()

    def test_known_arange_case(self, tmp_path):
        # 2x2x2 arange volume shuffles to the channel vector 0..7
        from voxseg.tensor import Tensor4
        from voxseg.volume import Volume, write_vvol

        vals = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    vals[z, y, x, 0] = x + 2 * y + 4 * z
        src = tmp_path / "arange.vvol"
        write_vvol(Volume(Tensor4(vals), (1, 1, 1), "image"), src)
        out = tmp_path / "down.vvol"
        assert main(["shuffle", "--input", str(src), "--output", str(out),
                     "--factors", "2,2,2", "--direction", "down"]) == 0
        vol = read_vvol(out)
        assert vol.tensor.shape.spatial == (1, 1, 1)
        assert vol.tensor.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_non_divisible_is_data_error(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        rc = main(["shuffle", "--input", str(data / "vol_000_img.vvol"),
                   "--output", str(tmp_path / "x.vvol"),
                   "--factors", "5,2,2", "--direction", "down"])
        assert rc == 2

    def test_non_integer_factors_is_config_error(self, tmp_path, capsys):
        # parsed before the input is read, so a missing input is not reached
        rc = main(["shuffle", "--input", str(tmp_path / "absent.vvol"),
                   "--output", str(tmp_path / "x.vvol"),
                   "--factors", "a,2,2", "--direction", "down"])
        assert rc == EXIT_USAGE
        assert "bad value for 'factors'" in capsys.readouterr().err

    def test_factor_below_one_is_config_error(self, tmp_path, capsys):
        # checked before the input is read, like a non-integer factor
        rc = main(["shuffle", "--input", str(tmp_path / "absent.vvol"),
                   "--output", str(tmp_path / "x.vvol"),
                   "--factors", "0,2,2", "--direction", "down"])
        assert rc == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err


class TestBenchCommand:
    TINY = ["--k", "4", "--widths", "4,8"]

    def test_json_keys_and_exact_activation_ratios(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.TINY, "--repetitions", "2", "--json", str(out),
                   "--rows", "16,16,16:1,1,1;16,16,16:2,2,2;16,16,16:4,4,2;32,32,32:2,2,2"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {"machine", "net", "rows"}
        assert set(report["machine"]) == {"nproc", "python", "numpy", "scipy", "blas_threads"}
        assert report["net"] == {"k": 4, "widths": [4, 8], "pool": [2, 2, 2],
                                 "class_count": 2, "repetitions": 2}
        totals, peaks = {}, {}
        for row in report["rows"]:
            assert set(row) == {"patch", "factors", "forward_s", "backward_s", "step_peak_mib",
                                "predict_peak_mib", "backbone_elements_total",
                                "backbone_elements_peak"}
            assert min(row["forward_s"], row["backward_s"]) > 0.0
            assert row["step_peak_mib"] > row["predict_peak_mib"] > 0.0
            key = (row["patch"][0], tuple(row["factors"]))
            totals[key] = row["backbone_elements_total"]
            peaks[key] = row["backbone_elements_peak"]
        assert totals[(16, (1, 1, 1))] == 8 * totals[(16, (2, 2, 2))]
        assert totals[(16, (1, 1, 1))] == 32 * totals[(16, (4, 4, 2))]
        assert peaks[(16, (1, 1, 1))] == 8 * peaks[(16, (2, 2, 2))]
        assert peaks[(16, (1, 1, 1))] == 32 * peaks[(16, (4, 4, 2))]
        # 8x the context at the same backbone cost
        assert totals[(16, (1, 1, 1))] == totals[(32, (2, 2, 2))]
        assert peaks[(16, (1, 1, 1))] == peaks[(32, (2, 2, 2))]

    def test_zero_repetitions_is_usage_error(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.TINY, "--repetitions", "0", "--json", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["16,16,16:x,2,2", "16,16,16:2,2", "16,16,16",
                                      "16,16,16:1,1,1;16,16,16:2,2.5,2",
                                      "16,16,16:1,1,1;12,12,12:8,8,8"])
    def test_bad_row_is_usage_error(self, tmp_path, rows):
        out = tmp_path / "bench.json"
        rc = main(["bench", *self.TINY, "--rows", rows, "--json", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()


class TestExitCodes:
    def test_diverging_training_is_numeric_failure(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        args = common_net_args(data, tmp_path / "run")
        with np.errstate(invalid="ignore"):
            rc = main(["train", "--quiet"] + args
                      + ["--iterations", "400", "--val-interval", "400",
                         "--augment-count", "0", "--initial-lr", "1000000.0"])
        assert rc == 3

    def test_stride_longer_than_patch_is_config_error(self, tiny_workspace, tmp_path, capsys):
        # it used to train, then fail the first validation's tiling with a traceback
        _, data, _ = tiny_workspace
        args = common_net_args(data, tmp_path / "run") + ["--stride", "12,12,12"]
        assert main(["train", "--quiet"] + args) == EXIT_USAGE
        assert "at most patch" in capsys.readouterr().err
        assert not (tmp_path / "run" / "runlog.csv").exists()

    def test_volume_smaller_than_patch_is_data_error(self, tmp_path, monkeypatch, capsys):
        # it used to train until the first validation, then fail its centre crop
        data = tmp_path / "data"
        data.mkdir()
        for name, extents in (("train", (16, 16, 16)), ("test", (8, 8, 8))):
            image, labels = gen_synthetic(3, 1, extents, 2)[0]
            write_vvol(image, data / f"{name}_img.vvol")
            write_vvol(labels, data / f"{name}_lab.vvol")
            write_manifest(data / f"{name}.manifest", [(f"{name}_img.vvol", f"{name}_lab.vvol")])
        steps = []
        monkeypatch.setattr(cli_train, "sgd_step", lambda *args: steps.append(args))
        out = tmp_path / "run"
        assert main(["train", "--quiet", "--data-dir", str(data), "--out-dir", str(out),
                     "--patch", "16,16,16", "--factors", "1,1,1", "--k", "4",
                     "--widths", "4,8", "--iterations", "6", "--val-interval", "5",
                     "--augment-count", "0"]) == EXIT_DATA
        assert steps == []
        err = capsys.readouterr().err
        assert "test_img.vvol" in err and "patch (16, 16, 16)" in err
        assert not (out / "runlog.csv").exists()

    def test_partly_zero_stride_is_config_error(self, tiny_workspace, tmp_path, capsys):
        # it used to train until the first validation, then fail its tiling with exit 2
        _, data, _ = tiny_workspace
        args = common_net_args(data, tmp_path / "run") + ["--stride", "0,2,2"]
        assert main(["train", "--quiet"] + args) == EXIT_USAGE
        assert "must be all 0" in capsys.readouterr().err
        assert not (tmp_path / "run" / "runlog.csv").exists()
        # infer validates before it reads the checkpoint
        assert main(["infer", "--stride", "0,2,2", "--checkpoint", str(tmp_path / "absent"),
                     "--input", str(data / "vol_000_img.vvol"), "--out-prob",
                     str(tmp_path / "p.vvol"), "--out-labels", str(tmp_path / "l.vvol")]
                    ) == EXIT_USAGE
        assert not (tmp_path / "p.vvol").exists()

    def test_unreachable_foreground_bounds_is_config_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--volumes", "2", "--train-split", "1", "--extents", "16,16,16",
                   "--patch", "8,8,8", "--fg-lo", "0.30", "--fg-hi", "0.3001",
                   "--data-dir", str(tmp_path / "data")])
        assert rc == EXIT_USAGE
        assert "foreground fractions" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_class_count_above_label_limit_is_config_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--volumes", "2", "--train-split", "1", "--extents", "8,8,8",
                   "--patch", "8,8,8", "--factors", "1,1,1", "--class-count", "300",
                   "--fg-lo", "0", "--data-dir", str(tmp_path / "data")])
        assert rc == EXIT_USAGE
        assert "class_count must be <= 256" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_out_directory_is_data_error(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        lab = str(data / "vol_000_lab.vvol")
        assert main(["eval", "--prediction", lab, "--reference", lab,
                     "--out", str(tmp_path)]) == EXIT_DATA
        assert list(tmp_path.iterdir()) == []

    def test_shuffle_output_directory_is_data_error(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        assert main(["shuffle", "--input", str(data / "vol_000_img.vvol"),
                     "--output", str(tmp_path), "--factors", "2,2,2",
                     "--direction", "down"]) == EXIT_DATA
        assert list(tmp_path.iterdir()) == []

    def test_failed_eval_write_keeps_previous_csv(self, tiny_workspace, tmp_path,
                                                  monkeypatch):
        _, data, _ = tiny_workspace
        lab, out = str(data / "vol_000_lab.vvol"), tmp_path / "metrics.csv"
        args = ["eval", "--prediction", lab, "--reference", lab, "--out", str(out)]
        out.write_text("volume,class,metric,value\n")
        real_open = open
        monkeypatch.setattr(atomic, "open", lambda *a, **k: FailsHalfway(real_open(*a, **k)),
                            raising=False)
        assert main(args) == EXIT_DATA
        assert out.read_text() == "volume,class,metric,value\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
        monkeypatch.undo()
        assert main(args) == 0
        assert out.read_text().startswith("volume,class,metric,value\nvol_000_lab,1,dice,1.0\n")

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key=1\n")
        assert main(["train", "--config", str(bad)]) == 1

    def test_non_utf8_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed=3\ndata_dir=d\xe9\n")
        with pytest.raises(ConfigError):
            load_config(str(bad))
        assert main(["train", "--config", str(bad)]) == EXIT_USAGE

    def test_module_entry_point_prints_no_runtime_warning(self):
        src = str(Path(voxseg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "voxseg.cli.main", "--help"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        assert "usage: voxseg" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_bad_vvol_magic(self, tmp_path):
        bad = tmp_path / "bad.vvol"
        bad.write_bytes(b"NOPE" + bytes(64))
        assert main(["eval", "--prediction", str(bad), "--reference", str(bad)]) == 2

    def test_non_finite_checkpoint_is_numeric_failure(self, tiny_workspace, tmp_path):
        _, data, _ = tiny_workspace
        args = common_net_args(data, tmp_path)
        cfg = load_config(None, dict(k="4", widths="4,8", class_count="2"))
        params = build_backbone(cfg.backbone_spec(), Rng(cfg.seed).spawn(7)).parameters()
        params["head.bias"].value.zyxc[0, 0, 0, 0] = math.nan
        save_checkpoint(tmp_path / "nan.vckp", params)
        rc = main(["infer"] + args + [
            "--checkpoint", str(tmp_path / "nan.vckp"),
            "--input", str(data / "vol_000_img.vvol"),
            "--out-prob", str(tmp_path / "p.vvol"),
            "--out-labels", str(tmp_path / "l.vvol")])
        assert rc == EXIT_NUMERIC
        assert not (tmp_path / "p.vvol").exists()


class TestDeterminism:
    def test_train_bytes_independent_of_blas_threads(self, tmp_path):
        # conv3d's GEMMs must not change a bit with the BLAS thread count; the
        # desk widths make them large enough for OpenBLAS to split across threads
        data = tmp_path / "data"
        net = ["--volumes", "3", "--train-split", "2", "--extents", "16,16,16",
               "--patch", "16,16,16", "--factors", "1,1,1", "--k", "16",
               "--widths", "16,32", "--seed", "8", "--data-dir", str(data)]
        assert main(["gen-data"] + net) == 0
        src = str(Path(voxseg.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            proc = subprocess.run(
                [sys.executable, "-m", "voxseg.cli.main", "train", "--quiet"] + net
                + ["--out-dir", str(out), "--iterations", "4", "--val-interval", "2",
                   "--augment-count", "1"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / n).read_bytes() for n in ("model.vckp", "runlog.csv")])
        assert outputs[0] == outputs[1]


class TestRunlog:
    """runlog.csv goes through the atomic writer, like the checkpoint."""

    @staticmethod
    def _config(data, out):
        return TrainConfig(volumes=4, train_split=3, extents=(16, 16, 16), patch=(8, 8, 8),
                           class_count=2, seed=5, k=4, widths=(4, 8), iterations=0,
                           augment_count=0, data_dir=str(data), out_dir=str(out))

    def test_failed_write_keeps_previous_log(self, tiny_workspace, tmp_path, monkeypatch):
        _, data, _ = tiny_workspace
        log = tmp_path / "runlog.csv"
        log.write_bytes(b"record,iteration,lr,loss,dice_1\ntrain,1,0.001,0.5,\n")
        before = log.read_bytes()
        real_open = open

        def failing_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FailsHalfway(fh, limit=0) if "runlog.csv" in str(path) else fh

        monkeypatch.setattr(atomic, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            run_training(self._config(data, tmp_path))
        assert log.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.vckp", "runlog.csv"]

        monkeypatch.undo()
        run_training(self._config(data, tmp_path))
        assert log.read_bytes() == b"record,iteration,lr,loss,dice_1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.vckp", "runlog.csv"]

    def test_lr_column_halves_across_the_boundary(self, tiny_workspace, tmp_path):
        # the rate a step applies is read before it; the step that crosses a
        # halving boundary must not log the next step's rate
        _, data, _ = tiny_workspace
        cfg = replace(self._config(data, tmp_path), iterations=5, val_interval=2,
                      lr_halving_period=2)
        lines = run_training(cfg).log_path.read_text().splitlines()[1:]
        r = cfg.resolved_initial_lr()
        assert [(line.split(",")[0], float(line.split(",")[2])) for line in lines] == [
            ("train", r), ("train", r), ("val", r), ("train", r / 2), ("train", r / 2),
            ("val", r / 2), ("train", r / 4), ("val", r / 4)]

    @pytest.mark.parametrize("stop,rows", [
        ({}, ["train,1", "train,2", "val,2", "train,3", "train,4", "val,4", "train,5",
              "val,5"]),
        ({"wall_clock_budget": 0.0}, ["train,1", "val,1"]),
        ({"dice_target": 0.0}, ["train,1", "train,2", "val,2"]),
    ])
    def test_validation_rows(self, tiny_workspace, tmp_path, stop, rows):
        # validation at each multiple of val_interval, at the last iteration, and
        # at the iteration that spends the budget; a reached target stops there
        _, data, _ = tiny_workspace
        cfg = replace(self._config(data, tmp_path), iterations=5, val_interval=2)
        result = run_training(cfg, **stop)
        lines = result.log_path.read_text().splitlines()[1:]
        assert [",".join(line.split(",")[:2]) for line in lines] == rows
        assert result.iterations_run == int(rows[-1].split(",")[1])
        assert math.isfinite(result.final_val_loss)
