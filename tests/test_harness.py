import os
import struct
import subprocess
import sys
import zlib
from dataclasses import replace

import numpy as np
import pytest

import mimir
from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import AttackSpec, attack_ce, finetune_attack_spec, pretrain_attack_spec
from mimir.cli import _cmd_attack, main, run_config
from mimir.config import ConfigError, ExperimentConfig, load_config, parse_config_text, serialize_config
from mimir.data import class_templates, load_cifar10_binary, synth_dataset
from mimir.evaluate import AttackJob, evaluate, landscape_grid
from mimir import mi
from mimir.model import classify, encode_full, init_params
from mimir.train import TrainConfig, TrainState, load_checkpoint, save_checkpoint

from conftest import tiny_vit_config


def write_cifar_batch(path, labels, rng):
    records = []
    for label in labels:
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
        records.append(bytes([label]) + pixels.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(records))


class TestCifarLoader:
    def test_single_record(self, tmp_path):
        write_cifar_batch(tmp_path / "data_batch_1.bin", [3], np.random.default_rng(0))
        ds = load_cifar10_binary(tmp_path)
        assert len(ds) == 1
        assert ds.images.shape == (1, 3, 32, 32)
        assert ds.labels[0] == 3

    def test_ten_thousand_records(self, tmp_path):
        rng = np.random.default_rng(1)
        write_cifar_batch(tmp_path / "data_batch_1.bin", rng.integers(0, 10, size=10000), rng)
        assert len(load_cifar10_binary(tmp_path)) == 10000

    def test_multiple_batches_concatenate(self, tmp_path):
        rng = np.random.default_rng(2)
        write_cifar_batch(tmp_path / "data_batch_1.bin", [0, 1], rng)
        write_cifar_batch(tmp_path / "data_batch_2.bin", [2], rng)
        ds = load_cifar10_binary(tmp_path)
        assert len(ds) == 3 and list(ds.labels) == [0, 1, 2]

    def test_truncated_rejected(self, tmp_path):
        write_cifar_batch(tmp_path / "data_batch_1.bin", [0], np.random.default_rng(0))
        blob = (tmp_path / "data_batch_1.bin").read_bytes()
        (tmp_path / "data_batch_1.bin").write_bytes(blob[:-1])
        with pytest.raises(ValueError):
            load_cifar10_binary(tmp_path)

    def test_label_above_nine_rejected(self, tmp_path):
        write_cifar_batch(tmp_path / "data_batch_1.bin", [10], np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_cifar10_binary(tmp_path)

    def test_pixels_scaled(self, tmp_path):
        write_cifar_batch(tmp_path / "data_batch_1.bin", [0], np.random.default_rng(0))
        ds = load_cifar10_binary(tmp_path)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_test_split(self, tmp_path):
        write_cifar_batch(tmp_path / "test_batch.bin", [5], np.random.default_rng(0))
        ds = load_cifar10_binary(tmp_path, split="test")
        assert len(ds) == 1 and ds.split == "test"

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(tmp_path)


class TestSynthDataset:
    def test_noise_free_is_nearest_template_separable(self):
        ds = synth_dataset(2, 5, 16, 0.0, np.random.default_rng(0), channels=1)
        templates = class_templates(2, 16, 1)
        flat_t = templates.reshape(2, -1)
        for img, label in zip(ds.images, ds.labels):
            d = ((flat_t - img.reshape(1, -1)) ** 2).sum(axis=1)
            assert np.argmin(d) == label

    def test_same_seed_identical(self):
        a = synth_dataset(3, 4, 8, 0.2, np.random.default_rng(7))
        b = synth_dataset(3, 4, 8, 0.2, np.random.default_rng(7))
        assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 4, 8, 0.0, np.random.default_rng(0))

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(2, 4, 1, 0.0, np.random.default_rng(0))

    def test_range_and_balance(self):
        ds = synth_dataset(4, 6, 16, 0.5, np.random.default_rng(1))
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert np.bincount(ds.labels).tolist() == [6, 6, 6, 6]


class TestEvaluate:
    def test_constant_model_balanced_ten_class(self):
        cfg = tiny_vit_config(num_classes=10)
        params = init_params(cfg, np.random.default_rng(0))  # zero head: constant output
        ds = synth_dataset(10, 2, 16, 0.1, np.random.default_rng(1))
        report = evaluate(params, ds, [], seed=0)
        assert report.natural == pytest.approx(10.0, abs=1e-12)

    def test_epsilon_zero_robust_equals_natural(self, trained_model, tiny_dataset):
        job = AttackJob(name="noop", kind="ce",
                        spec=AttackSpec(epsilon=0.0, step_size=0.01, iters=2, init="random"))
        report = evaluate(trained_model, tiny_dataset, [job], seed=0)
        assert report.robust[0][1] == report.natural

    def test_stronger_attack_never_meaningfully_helps(self, trained_model, tiny_dataset):
        def robust(iters):
            job = AttackJob(name="pgd", kind="ce",
                            spec=AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=iters,
                                            init="random"))
            return evaluate(trained_model, tiny_dataset, [job], seed=3).robust[0][1]

        assert robust(100) <= robust(10) + 0.5

    def test_robust_never_exceeds_natural_on_trained_model(self, trained_model, tiny_dataset):
        jobs = [AttackJob(name="pgd5", kind="ce",
                          spec=AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=5, init="random")),
                AttackJob(name="fea5", kind="fea",
                          spec=AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=5, init="random"))]
        report = evaluate(trained_model, tiny_dataset, jobs, seed=1)
        for _, pct in report.robust:
            assert pct <= report.natural

    def test_deterministic(self, trained_model, tiny_dataset):
        job = AttackJob(name="pgd3", kind="ce",
                        spec=AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=3, init="random"))
        a = evaluate(trained_model, tiny_dataset, [job], seed=9)
        b = evaluate(trained_model, tiny_dataset, [job], seed=9)
        assert a.natural == b.natural and a.robust == b.robust

    def test_empty_dataset_rejected(self, trained_model, tiny_dataset):
        empty = synth_dataset(4, 1, 16, 0.0, np.random.default_rng(0))
        empty.images, empty.labels = empty.images[:0], empty.labels[:0]
        with pytest.raises(ValueError):
            evaluate(trained_model, empty, [])


class TestLandscape:
    def test_center_cell_is_exact_unperturbed_loss(self, trained_model, tiny_dataset):
        rows = landscape_grid(trained_model, tiny_dataset, 0.5, 3, np.random.default_rng(0))
        center = [loss for a, b, loss in rows if a == 0.0 and b == 0.0]
        direct = ad.cross_entropy(classify(trained_model, Tensor(tiny_dataset.images)),
                                  tiny_dataset.labels).item()
        assert center == [direct]

    def test_grid_row_count(self, trained_model, tiny_dataset):
        rows = landscape_grid(trained_model, tiny_dataset, 0.5, 5, np.random.default_rng(0))
        assert len(rows) == 25

    def test_21_by_21_grid(self, trained_model, tiny_dataset):
        small = synth_dataset(4, 1, 16, 0.1, np.random.default_rng(2))
        rows = landscape_grid(trained_model, small, 0.5, 21, np.random.default_rng(0))
        assert len(rows) == 441

    def test_same_seed_identical(self, trained_model, tiny_dataset):
        a = landscape_grid(trained_model, tiny_dataset, 0.5, 3, np.random.default_rng(4))
        b = landscape_grid(trained_model, tiny_dataset, 0.5, 3, np.random.default_rng(4))
        assert a == b

    def test_even_resolution_rejected(self, trained_model, tiny_dataset):
        with pytest.raises(ValueError):
            landscape_grid(trained_model, tiny_dataset, 0.5, 4, np.random.default_rng(0))

    def test_parameters_restored(self, trained_model, tiny_dataset):
        before = {n: trained_model[n].data.copy() for n, _ in trained_model.trainable()}
        landscape_grid(trained_model, tiny_dataset, 0.5, 3, np.random.default_rng(0))
        for name, data in before.items():
            assert np.array_equal(trained_model[name].data, data)


BASE_CONFIG = """
command = pretrain
seed = 0
out_dir = {out}
data.source = synth
data.num_classes = 4
data.samples_per_class = 4
data.image_size = 16
data.noise = 0.1
data.channels = 1
model.image_size = 16
model.channels = 1
model.patch_size = 4
model.enc_layers = 2
model.enc_dim = 32
model.enc_heads = 4
model.dec_layers = 1
model.dec_dim = 16
model.dec_heads = 4
model.num_classes = 4
train.base_lr = 2e-3
train.total_epochs = 3
train.batch_size = 8
train.warmup_epochs = 1
"""


class TestConfig:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus.key"):
            parse_config_text("bogus.key = 1")

    def test_missing_keys_listed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = bounds\nout_dir = x\n")
        with pytest.raises(ConfigError, match="bounds.num_classes"):
            load_config(path)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = banana")

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", -1, "non-negative"), ("attack.iters", 0, "positive"),
        ("eval.pgd_iters", 0, "positive"), ("eval.adaptive_iters", -2, "positive"),
        ("train.total_epochs", 0, "positive"), ("train.batch_size", 0, "positive"),
        ("data.num_classes", 0, "positive"), ("data.samples_per_class", -1, "positive"),
        ("data.image_size", 0, "positive"), ("data.channels", 0, "positive"),
        ("mi.batch_size", 0, "positive")])
    def test_out_of_range_count_named_by_key_and_line(self, key, value, kind):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"# counts\n{key} = {value}\n")
        assert str(err.value) == (f"line 2: bad value for {key!r}: "
                                  f"expected a {kind} integer, got {value}")

    @pytest.mark.parametrize("key, value, expected", [
        *((f"model.{name}", 0, "a positive integer") for name in (
            "image_size", "channels", "patch_size", "enc_layers", "enc_dim", "enc_heads",
            "enc_mlp_ratio", "dec_layers", "dec_dim", "dec_heads", "dec_mlp_ratio", "num_classes")),
        ("train.warmup_epochs", -1, "a non-negative integer"),
        ("bounds.num_classes", 1, "an integer >= 2"),
        ("landscape.resolution", 1, "an odd integer >= 3"),
        ("landscape.resolution", 4, "an odd integer >= 3")])
    def test_out_of_range_extent_named_by_key_and_line(self, key, value, expected):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"# extents\n{key} = {value}\n")
        assert str(err.value) == f"line 2: bad value for {key!r}: expected {expected}, got {value}"

    def test_smallest_extents_accepted(self):
        assert parse_config_text("bounds.num_classes = 2\nlandscape.resolution = 3\n"
                                 "train.warmup_epochs = 0\nmodel.enc_layers = 1") == {
            "bounds.num_classes": 2, "landscape.resolution": 3, "train.warmup_epochs": 0,
            "model.enc_layers": 1}

    def test_seed_zero_accepted(self):
        assert parse_config_text("seed = 0") == {"seed": 0}

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# heading\n\nseed = 3  # trailing\n")
        assert values == {"seed": 3}

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(path)
        text = serialize_config(cfg)
        reparsed = ExperimentConfig(command=cfg.command, values=parse_config_text(text))
        assert reparsed.values == cfg.values
        assert serialize_config(reparsed) == text

    def test_unknown_command_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = trainify\nout_dir = x\n")
        with pytest.raises(ConfigError, match="trainify"):
            load_config(path)

    REQUIRED_TRAIN = "train.base_lr = 0.002\ntrain.total_epochs = 3\ntrain.batch_size = 8\n"

    def _train_config(self, line="", default_betas=(0.9, 0.95)):
        values = {**parse_config_text(self.REQUIRED_TRAIN), **parse_config_text(line)}
        return ExperimentConfig(command="pretrain", values=values).train_config(pretrain_attack_spec(),
                                                                                default_betas)

    def test_train_config_without_optional_keys_is_the_dataclass_default(self):
        attack = pretrain_attack_spec()
        assert self._train_config() == TrainConfig(base_lr=0.002, total_epochs=3, batch_size=8,
                                                   attack=attack)
        assert self._train_config(default_betas=(0.9, 0.999)) == TrainConfig(
            base_lr=0.002, total_epochs=3, batch_size=8, attack=attack, betas=(0.9, 0.999))
        spec = finetune_attack_spec()
        assert ExperimentConfig(command="finetune", values={}).attack_spec(spec) == spec

    @pytest.mark.parametrize("line, field, value", [
        ("train.base_lr = 0.01", "base_lr", 0.01),
        ("train.total_epochs = 5", "total_epochs", 5),
        ("train.batch_size = 4", "batch_size", 4),
        ("train.warmup_epochs = 2", "warmup_epochs", 2),
        ("train.beta1 = 0.8", "betas", (0.8, 0.95)),
        ("train.beta2 = 0.99", "betas", (0.9, 0.99)),
        ("train.weight_decay = 0.1", "weight_decay", 0.1),
        ("train.lambda = 0.001", "lam", 0.001),
        ("train.estimator = renyi2", "estimator", "renyi2"),
        ("train.layer_decay = 0.65", "layer_decay", 0.65),
        ("train.recon_masked_only = true", "recon_masked_only", True),
    ])
    def test_train_key_overrides_exactly_its_field(self, line, field, value):
        assert self._train_config(line) == replace(self._train_config(), **{field: value})

    @pytest.mark.parametrize("line, field, value", [
        ("attack.epsilon = 0.1", "epsilon", 0.1),
        ("attack.step_size = 0.01", "step_size", 0.01),
        ("attack.iters = 3", "iters", 3),
        ("attack.init = zero", "init", "zero"),
    ])
    def test_attack_key_overrides_exactly_its_field(self, line, field, value):
        default = pretrain_attack_spec()
        cfg = ExperimentConfig(command="pretrain", values=parse_config_text(line))
        assert cfg.attack_spec(default) == replace(default, **{field: value})


class TestRunConfig:
    def test_bounds_command_writes_figure_curve(self, tmp_path):
        path = tmp_path / "b.cfg"
        out = tmp_path / "out"
        path.write_text(f"command = bounds\nout_dir = {out}\n"
                        "bounds.num_classes = 10\nbounds.step = 0.01\n")
        assert run_config(path) == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "p_e,lower,upper"
        assert len(lines) == 102
        assert lines[1].startswith("0.000000,3.321928,")

    def test_misspelled_key_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("command = bounds\nout_dir = x\nbounds.num_clases = 10\nbounds.step = 0.01\n")
        assert run_config(path) == 1
        assert "bounds.num_clases" in capsys.readouterr().err

    @pytest.mark.parametrize("key, old, new", [("seed", "0", "-1"),
                                               ("train.total_epochs", "3", "0")])
    def test_out_of_range_key_exits_with_its_name(self, tmp_path, capsys, key, old, new):
        out = tmp_path / "out"
        text = BASE_CONFIG.format(out=out).replace(f"\n{key} = {old}\n", f"\n{key} = {new}\n")
        lineno = text.splitlines().index(f"{key} = {new}") + 1
        (tmp_path / "c.cfg").write_text(text)
        assert run_config(tmp_path / "c.cfg") == 1
        assert f"line {lineno}: bad value for {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("landscape", "landscape.resolution", -3), ("bounds", "bounds.num_classes", 0),
        ("pretrain", "model.enc_layers", 0)])
    def test_bad_extent_exits_with_its_name_and_creates_nothing(self, tmp_path, capsys,
                                                                command, key, value):
        """Each config is valid but for ``key``, so only the range check can stop it."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        lines = [line for line in BASE_CONFIG.format(out=out).replace(
                     "command = pretrain", f"command = {command}").splitlines()
                 if not line.startswith(f"{key} = ")]
        lines += [f"checkpoint = {tmp_path / 'm.ckpt'}", "bounds.step = 0.01",
                  "landscape.half_width = 0.1", f"{key} = {value}"]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert f"line {len(lines)}: bad value for {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        (tmp_path / "c.cfg").write_text(BASE_CONFIG.format(out=out))
        assert main(["pretrain", "--config", str(tmp_path / "c.cfg"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "expected a non-negative integer, got -1" in err
        assert not out.exists()

    def test_pretrain_then_finetune_pipeline(self, tmp_path):
        out = tmp_path / "out"
        pre = tmp_path / "pre.cfg"
        pre.write_text(BASE_CONFIG.format(out=out))
        assert run_config(pre) == 0
        assert (out / "pretrain.ckpt").exists()

        ft = tmp_path / "ft.cfg"
        ft.write_text(BASE_CONFIG.format(out=out).replace("command = pretrain", "command = finetune")
                      + f"checkpoint = {out / 'pretrain.ckpt'}\nattack.iters = 2\n")
        assert run_config(ft) == 0
        assert (out / "finetune.ckpt").exists()
        metrics = (out / "metrics_finetune.csv").read_text().splitlines()
        assert metrics[0] == "epoch,loss_mse,loss_mi,loss_total,lr,seconds"
        assert len(metrics) == 4

        ev = tmp_path / "ev.cfg"
        ev.write_text(BASE_CONFIG.format(out=out).replace("command = pretrain", "command = eval")
                      + f"checkpoint = {out / 'finetune.ckpt'}\n"
                      "eval.pgd_iters = 2\neval.adaptive_iters = 2\n")
        assert run_config(ev) == 0
        eval_lines = (out / "eval.csv").read_text().splitlines()
        assert eval_lines[0] == "attack,natural,robust,n"
        assert len(eval_lines) == 4

    def test_csv_byte_determinism(self, tmp_path):
        outputs = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            cfg = tmp_path / f"p{run}.cfg"
            cfg.write_text(BASE_CONFIG.format(out=out))
            assert run_config(cfg) == 0
            outputs.append(((out / "metrics_pretrain.csv").read_bytes(),
                            (out / "pretrain.ckpt").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_rerun_into_same_dir_rewrites_metrics(self, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        for out, runs in ((once, 1), (twice, 2)):
            cfg = tmp_path / f"{out.name}.cfg"
            cfg.write_text(BASE_CONFIG.format(out=out))
            for _ in range(runs):
                assert run_config(cfg) == 0
        rerun = (twice / "metrics_pretrain.csv").read_bytes()
        assert [line.split(",")[0] for line in rerun.decode().splitlines()[1:]] == ["1", "2", "3"]
        assert rerun == (once / "metrics_pretrain.csv").read_bytes()

    @pytest.mark.parametrize("command", ["finetune", "attack", "eval", "landscape", "mi-estimate"])
    def test_model_key_contradicting_checkpoint_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        pre = tmp_path / "pre.cfg"
        pre.write_text(BASE_CONFIG.format(out=out).replace("train.total_epochs = 3",
                                                           "train.total_epochs = 2"))
        assert run_config(pre) == 0
        capsys.readouterr()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(BASE_CONFIG.format(out=out).replace("command = pretrain", f"command = {command}")
                       .replace("model.enc_dim = 32", "model.enc_dim = 64")
                       + f"checkpoint = {out / 'pretrain.ckpt'}\n"
                       "landscape.half_width = 0.1\nlandscape.resolution = 3\n")
        assert run_config(cfg) == 1
        err = capsys.readouterr().err
        assert "model.enc_dim = 64" in err and "enc_dim = 32" in err

    @pytest.mark.parametrize("command, key, value", [
        ("eval", "eval.batch_size", -1), ("eval", "eval.subset", -1),
        ("landscape", "landscape.batch_size", -4), ("eval", "eval.batch_size", 0),
        ("attack", "eval.subset", 0), ("attack", "eval.batch_size", -1)])
    def test_non_positive_batch_key_rejected(self, tmp_path, capsys, command, key, value):
        """The error names the key and its line, and no report is written."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        text = (BASE_CONFIG.format(out=out).replace("command = pretrain", f"command = {command}")
                + f"checkpoint = {tmp_path / 'm.ckpt'}\neval.pgd_iters = 1\neval.adaptive_iters = 1\n"
                "attack.iters = 1\nlandscape.half_width = 0.1\nlandscape.resolution = 3\n"
                f"{key} = {value}\n")
        (tmp_path / "c.cfg").write_text(text)
        assert run_config(tmp_path / "c.cfg") == 1
        err = capsys.readouterr().err
        assert f"line {len(text.splitlines())}" in err and repr(key) in err
        assert "positive integer" in err
        assert not out.exists()

    def test_attack_row_computed_before_its_csv_is_opened(self, tmp_path):
        """A failure while reducing the rows leaves no header-only ``attack.csv`` behind."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        out.mkdir()
        values = parse_config_text(BASE_CONFIG.format(out=out).replace("command = pretrain",
                                                                       "command = attack")
                                   + f"checkpoint = {tmp_path / 'm.ckpt'}\nattack.iters = 1\n")
        values["eval.batch_size"] = -1  # past the parser: the batch loop yields no rows
        with pytest.raises(ValueError):
            _cmd_attack(ExperimentConfig(command="attack", values=values))
        assert not (out / "attack.csv").exists()

    @staticmethod
    def _mi_estimate_config(tmp_path, checkpoint):
        cfg = tmp_path / "mi.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "mi").replace("command = pretrain",
                                                                       "command = mi-estimate")
                       + f"checkpoint = {checkpoint}\nmi.alpha = 1.5\n")
        return cfg

    def test_mi_estimate_computes_two_distance_matrices(self, tmp_path, monkeypatch):
        """One pairwise-distance matrix per variable feeds both estimators, bit for bit."""
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        save_checkpoint(TrainState.create(params, 0), tmp_path / "m.ckpt")
        calls = []
        pairwise = mi._pairwise_sq_dists
        monkeypatch.setattr(mi, "_pairwise_sq_dists", lambda x: calls.append(x.shape) or pairwise(x))
        assert run_config(self._mi_estimate_config(tmp_path, tmp_path / "m.ckpt")) == 0
        assert calls == [(16, 256), (16, 512)]
        x = synth_dataset(4, 4, 16, 0.1, np.random.default_rng([0, 1]), channels=1).images
        z = encode_full(params.constants(), Tensor(x)).data.reshape(16, -1)
        x = x.reshape(16, -1)
        want = [f"hsic,,{mi.hsic(x, z).value:.10e}",
                f"renyi,1.5,{mi.renyi_mi(x, z, alpha=1.5).value:.10e}"]
        assert (tmp_path / "mi" / "mi.csv").read_text().splitlines()[1:] == want

    def test_attack_batches_seeded_as_job_zero(self, tmp_path):
        """``attack`` seeds batch b with (seed, 0, b), like ``eval``'s first job."""
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(0, 0.2, size=(32, 4))
        save_checkpoint(TrainState.create(params, 0), tmp_path / "m.ckpt")
        cfg = tmp_path / "a.cfg"
        cfg.write_text(BASE_CONFIG.format(out=tmp_path / "a").replace("command = pretrain",
                                                                      "command = attack")
                       + f"checkpoint = {tmp_path / 'm.ckpt'}\neval.batch_size = 6\n"
                       "attack.iters = 2\n")
        assert run_config(cfg) == 0
        ds = synth_dataset(4, 4, 16, 0.1, np.random.default_rng([0, 1]), channels=1)
        spec = AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=2, init="random")
        objective, linf = 0.0, 0.0
        for b, start in enumerate(range(0, 16, 6)):
            x, y = ds.images[start:start + 6], ds.labels[start:start + 6]
            pert = attack_ce(params, x, y, spec, np.random.default_rng([0, 0, b]))
            objective += pert.achieved_loss * len(y)
            linf = max(linf, float(np.max(np.abs(pert.delta))))
        assert (tmp_path / "a" / "attack.csv").read_text().splitlines() == [
            "attack,mean_objective,max_linf,n", f"pgd2,{objective / 16:.10e},{linf:.10e},16"]

    def test_corrupt_rng_block_exits_with_error(self, tmp_path, capsys):
        state = TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0)
        save_checkpoint(state, tmp_path / "m.ckpt")
        body = (tmp_path / "m.ckpt").read_bytes()[:-4]          # without the CRC-32
        tail = body.rindex(b'"uinteger"')
        body = body[:tail] + b'"uintegeR"' + body[tail + 10:]
        (tmp_path / "m.ckpt").write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert run_config(self._mi_estimate_config(tmp_path, tmp_path / "m.ckpt")) == 1
        assert "rng state" in capsys.readouterr().err

    def test_checkpoint_roundtrip_through_cli(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(BASE_CONFIG.format(out=out))
        assert run_config(cfg) == 0
        state = load_checkpoint(out / "pretrain.ckpt")
        assert state.epoch == 3
        assert state.params.config.enc_dim == 32


CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(CORES < 2, reason="one core: forward-only chunks never leave the caller")
class TestBlasThreadDeterminism:
    """CLI artifacts do not depend on whether forward-only chunks run on one thread or many."""

    def _cli(self, tmp_path, blas_threads, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                   PYTHONPATH=os.path.dirname(os.path.dirname(mimir.__file__)))
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout

    def test_mi_estimate_and_eval_bytes_equal_at_one_and_all_blas_threads(self, tmp_path,
                                                                          mid32_config):
        probe = "from mimir import model; print(model._workers())"
        workers = {threads: int(self._cli(tmp_path, threads, "-c", probe))
                   for threads in (1, CORES)}
        if workers[1] == 1:
            pytest.skip("this BLAS does not report its thread count, so the pool never runs")
        assert workers == {1: CORES, CORES: 1}
        params = init_params(mid32_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(size=(96, 10))
        save_checkpoint(TrainState.create(params, 0), tmp_path / "m.ckpt")
        # batches of 13 and 7 images run as chunks of [5, 5, 3] and [5, 2]
        (tmp_path / "c.cfg").write_text(
            f"seed = 3\nout_dir = out\ncheckpoint = {tmp_path / 'm.ckpt'}\ndata.source = synth\n"
            "data.num_classes = 10\ndata.samples_per_class = 2\ndata.image_size = 32\n"
            "data.channels = 3\ndata.noise = 0.1\neval.attacks = ce,fea\neval.pgd_iters = 2\n"
            "eval.adaptive_iters = 2\neval.batch_size = 13\nmi.batch_size = 13\n")
        outputs = {}
        for threads in (1, CORES):
            out = tmp_path / f"blas{threads}"
            for command in ("mi-estimate", "eval"):
                self._cli(tmp_path, threads, "-m", "mimir.cli", command, "--config", "c.cfg",
                          "--out", str(out))
            outputs[threads] = [(out / name).read_bytes() for name in ("mi.csv", "eval.csv")]
        assert outputs[1] == outputs[CORES]
