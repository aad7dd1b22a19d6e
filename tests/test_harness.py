import ast
import itertools
import math
import os
import re
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mimir
from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import (AttackSpec, adaptive_attack_spec, attack_ce, finetune_attack_spec,
                           pretrain_attack_spec)
from mimir import cli
from mimir.cli import _cmd_attack, _eval_jobs, main, run_config
from mimir.config import ConfigError, ExperimentConfig, load_config, parse_config_text, serialize_config
from mimir.data import Dataset, class_templates, load_cifar10_binary, synth_dataset, write_csv
from mimir.evaluate import AttackJob, evaluate, landscape_grid, write_eval_csv
from mimir import config as config_module
from mimir import evaluate as evaluate_module
from mimir import mi
from mimir.model import classify, encode_full, init_params
from mimir.train import TrainConfig, TrainState, load_checkpoint, pretrain_epoch, save_checkpoint

from bits_manifest import python_at
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

    def test_sample_wrong_when_clean_is_never_robust(self, trained_model, tiny_dataset,
                                                    monkeypatch):
        """A sample misclassified at ``x`` but classified right at the attack's point is not robust."""
        pred = np.argmax(classify(trained_model, Tensor(tiny_dataset.images)).data, axis=1)
        a, b = 0, int(np.flatnonzero(pred != pred[0])[0])
        # both samples carry image b's predicted label, so only image b is right when clean
        ds = Dataset(images=tiny_dataset.images[[a, b]], labels=pred[[b, b]],
                     split=tiny_dataset.split, num_classes=tiny_dataset.num_classes)
        # the stub attack moves both samples onto image b, where each is classified right
        monkeypatch.setattr(evaluate_module, "_run_job", lambda params, job, x, y, rng: x[[1, 1]])
        job = AttackJob(name="stub", kind="ce",
                        spec=AttackSpec(epsilon=8 / 255, step_size=2 / 255, iters=1, init="zero"))
        report = evaluate(trained_model, ds, [job])
        assert report.natural == 50.0 and report.robust == [("stub", 50.0)]

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
        direct = ad.cross_entropy(classify(trained_model, Tensor(tiny_dataset.images)),
                                  tiny_dataset.labels).item()
        # np.linspace misses 0.0 at the centre of the last two axes
        for half_width, resolution in ((0.5, 3), (0.45, 7), (0.1, 23)):
            rows = landscape_grid(trained_model, tiny_dataset, half_width, resolution,
                                  np.random.default_rng(0))
            center = [loss for a, b, loss in rows if a == 0.0 and b == 0.0]
            assert center == [direct], (half_width, resolution)

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

    def test_callers_tensors_keep_their_arrays_while_cells_are_scored(self, trained_model,
                                                                     tiny_dataset, monkeypatch):
        arrays = {name: t.data for name, t in trained_model.tensors.items()}
        kept = []
        score = evaluate_module._dataset_ce

        def spy(params, dataset, batch_size):
            kept.append(all(trained_model[name].data is data for name, data in arrays.items()))
            return score(params, dataset, batch_size)

        monkeypatch.setattr(evaluate_module, "_dataset_ce", spy)
        landscape_grid(trained_model, tiny_dataset, 0.5, 3, np.random.default_rng(0))
        assert kept == [True] * 9


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

    def test_eval_pgd_iters_is_an_unknown_key(self, tmp_path):
        """eval's CE job takes its step count from ``attack.iters``, like ``attack`` does."""
        message, lineno = self._load_error(tmp_path, "eval.pgd_iters", 20)
        assert message == f"line {lineno}: unknown key 'eval.pgd_iters'"

    def test_a_byte_that_is_not_utf8_is_named_with_its_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes("command = bounds\nout_dir = x\n\n\n# caf\u00e9 du coin\n".encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"config {path} line 5: byte 0xe9 is not UTF-8"
        assert run_config(path) == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = banana")

    @staticmethod
    def _load_error(tmp_path, key, value):
        """``load_config``'s error for the base config with ``key = value`` as its last line."""
        lines = [line for line in BASE_CONFIG.format(out=tmp_path / "out").splitlines()
                 if not line.startswith(f"{key} = ")] + [f"{key} = {value}"]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "c.cfg")
        return str(err.value), len(lines)

    @staticmethod
    def _bad_value(key, value, lineno, phrase):
        """The message for a value out of ``phrase``; a dataclass's own check names its field."""
        section, name = key.split(".", 1) if "." in key else ("", key)
        if section in ("model", "train", "attack"):
            return f"line {lineno}: bad value for {key!r}: {name} must be {phrase}, got {value}"
        return f"line {lineno}: bad value for {key!r}: expected {phrase}, got {value}"

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", -1, "non-negative"), ("attack.iters", 0, "positive"),
        ("eval.adaptive_iters", -2, "positive"),
        ("train.total_epochs", 0, "positive"), ("train.batch_size", 0, "positive"),
        ("data.samples_per_class", -1, "positive"), ("data.channels", 0, "positive")])
    def test_out_of_range_count_named_by_key_and_line(self, tmp_path, key, value, kind):
        message, lineno = self._load_error(tmp_path, key, value)
        assert message == self._bad_value(key, value, lineno, f"a {kind} integer")

    @pytest.mark.parametrize("key, value, expected", [
        *((f"model.{name}", 0, "a positive integer") for name in (
            "image_size", "channels", "patch_size", "enc_layers", "enc_dim", "enc_heads",
            "enc_mlp_ratio", "dec_layers", "dec_dim", "dec_heads", "dec_mlp_ratio", "num_classes")),
        ("train.warmup_epochs", -1, "a non-negative integer"),
        ("bounds.num_classes", 1, "an integer >= 2"),
        ("mi.batch_size", 0, "an integer >= 2"), ("mi.batch_size", 1, "an integer >= 2"),
        ("landscape.resolution", 1, "an odd integer >= 3"),
        ("landscape.resolution", 4, "an odd integer >= 3")])
    def test_out_of_range_extent_named_by_key_and_line(self, tmp_path, key, value, expected):
        message, lineno = self._load_error(tmp_path, key, value)
        assert message == self._bad_value(key, value, lineno, expected)

    @pytest.mark.parametrize("key, value", [("data.num_classes", 0), ("data.num_classes", 1),
                                            ("data.image_size", 0), ("data.image_size", 1),
                                            ("data.noise", -1.0)])
    def test_data_range_is_what_synth_dataset_accepts(self, tmp_path, key, value):
        phrase = "a non-negative number" if key == "data.noise" else "an integer >= 2"
        message, lineno = self._load_error(tmp_path, key, value)
        assert message == self._bad_value(key, value, lineno, phrase)
        sizes = dict(num_classes=2, samples_per_class=1, image_size=2, noise=0.0)
        with pytest.raises(ValueError):
            synth_dataset(**{**sizes, key.removeprefix("data."): value}, rng=np.random.default_rng(0))

    def test_smallest_extents_accepted(self):
        assert parse_config_text("bounds.num_classes = 2\nlandscape.resolution = 3\n"
                                 "train.warmup_epochs = 0\nmodel.enc_layers = 1\n"
                                 "data.num_classes = 2\ndata.image_size = 2\ndata.noise = 0") == {
            "bounds.num_classes": 2, "landscape.resolution": 3, "train.warmup_epochs": 0,
            "model.enc_layers": 1, "data.num_classes": 2, "data.image_size": 2, "data.noise": 0.0}
        synth_dataset(2, 1, 2, 0.0, np.random.default_rng(0))

    def test_seed_zero_accepted(self):
        assert parse_config_text("seed = 0") == {"seed": 0}

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# heading\n\nseed = 3  # trailing\n")
        assert values == {"seed": 3}

    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.format(out=tmp_path / "out")
                        + "mi.alpha = 1.5\neval.attacks = ce, fea\n")
        cfg = load_config(path)
        text = serialize_config(cfg)
        reparsed = ExperimentConfig(command=cfg.command, values=parse_config_text(text))
        assert reparsed.values == cfg.values
        assert serialize_config(reparsed) == text

    def test_eval_attacks_parse_once_into_kinds_and_serialize_joined(self, tmp_path):
        """The kinds are parsed once; the zero-init rule and the eval jobs read the tuple."""
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.format(out=tmp_path / "out") + "eval.attacks = fea , ce\n")
        cfg = load_config(path)
        assert cfg.get("eval.attacks") == ("fea", "ce")
        assert "eval.attacks = fea,ce\n" in serialize_config(cfg)
        assert [job.kind for job in _eval_jobs(cfg)] == ["fea", "ce"]
        unset = ExperimentConfig(command="eval", attack=cfg.attack)
        assert unset.get("eval.attacks") == ("ce", "mi", "fea")
        assert [job.kind for job in _eval_jobs(unset)] == ["ce", "mi", "fea"]

    @pytest.mark.parametrize("raw, message", [
        ("ce,ce", "'ce' is listed twice"), ("ce, mi ,fea, mi", "'mi' is listed twice"),
        ("ce,pgd", "entries must be ce/mi/fea, got 'pgd'"), ("ce,", "entries must be ce/mi/fea, got ''")])
    def test_eval_attacks_rules_keep_their_messages(self, tmp_path, raw, message):
        path = tmp_path / "c.cfg"
        text = BASE_CONFIG.format(out=tmp_path / "out") + f"eval.attacks = {raw}\n"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == (f"line {len(text.splitlines())}: bad value for 'eval.attacks': "
                                  f"{message}")

    def test_unknown_command_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = trainify\nout_dir = x\n")
        with pytest.raises(ConfigError, match="trainify"):
            load_config(path)
        path.write_text("out_dir = x\n")
        with pytest.raises(ConfigError, match="^command override: bad value for 'command': "
                                              "expected one of pretrain, .*, got 'trainify'$"):
            load_config(path, command="trainify")

    @pytest.mark.parametrize("extra", [
        ("data.source = synth", "data.split = tset"), ("data.source = cifar10", "data.split = tset"),
        ("data.source = synth", "data.split = Train"), ("data.source = cifar",)])
    def test_data_source_and_split_named_by_key_and_line(self, tmp_path, extra):
        """A typo fails at load, also where the source never reads ``data.split``."""
        key, value = extra[-1].split(" = ")
        choices = "train, test" if key == "data.split" else "synth, cifar10"
        lines = [line for line in BASE_CONFIG.format(out=tmp_path / "out").splitlines()
                 if not line.startswith("data.source = ")] + [f"data.dir = {tmp_path}", *extra]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "c.cfg")
        assert str(err.value) == (f"line {len(lines)}: bad value for {key!r}: "
                                  f"expected one of {choices}, got {value!r}")

    @pytest.mark.parametrize("source, line", [
        ("synth", "data.split = test"), ("synth", "data.dir = ."),
        ("cifar10", "data.noise = 0.1"), ("cifar10", "data.channels = 3"),
        ("cifar10", "data.num_classes = 10")])
    def test_data_key_the_source_never_reads_named_by_key_and_line(self, tmp_path, source, line):
        """Left to load, ``data.split = test`` ran synth on its training images and cifar10 ran
        without the noise that ``data.noise`` asked for."""
        own = {"synth": ["data.num_classes = 4", "data.samples_per_class = 4",
                         "data.image_size = 16", "data.noise = 0.1", "data.channels = 1"],
               "cifar10": [f"data.dir = {tmp_path}", "data.split = test"]}[source]
        (tmp_path / "m.ckpt").touch()  # load_config checks only that the checkpoint is a file
        lines = ["command = mi-estimate", "out_dir = out", f"checkpoint = {tmp_path / 'm.ckpt'}",
                 f"data.source = {source}", *own]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        load_config(tmp_path / "c.cfg")  # every key the source reads
        (tmp_path / "c.cfg").write_text("\n".join([*lines, line]) + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "c.cfg")
        assert str(err.value) == (f"line {len(lines) + 1}: data.source = {source} never reads "
                                  f"{line.split(' = ')[0]!r}")

    def test_get_returns_the_set_value_or_the_table_default(self):
        cfg = ExperimentConfig(command="eval", values={"eval.batch_size": 8})
        assert (cfg.get("eval.batch_size"), cfg.get("landscape.batch_size")) == (8, 64)
        assert [cfg.get(key) for key in ("seed", "data.split", "eval.subset")] == [0, "train", None]
        for name in ("no.such.key", "eval.pgd_iters", "model.image_size"):
            with pytest.raises(KeyError):
                cfg.get(name)

    @pytest.mark.parametrize("values, lam", [({}, TrainConfig.lam), ({"train.lambda": 0.5}, 0.5),
                                             ({"train.lambda": 0.5, "eval.lambda": 0.25}, 0.25)])
    def test_eval_lambda_falls_back_to_train_lambda(self, values, lam):
        assert ExperimentConfig(command="eval", values=values).get("eval.lambda") == lam

    MINIMAL = ("out_dir = out\ndata.source = synth\ndata.num_classes = 2\ndata.samples_per_class = 1\n"
               "data.image_size = 4\ndata.noise = 0\nmodel.image_size = 4\nmodel.patch_size = 2\n"
               "train.base_lr = 0.002\ntrain.total_epochs = 3\ntrain.batch_size = 8\n")

    def _load(self, tmp_path, line="", command="pretrain"):
        """``load_config`` of a minimal ``command`` config, ``line`` replacing its key's line."""
        key = line.split(" = ")[0]
        lines = [kept for kept in self.MINIMAL.splitlines() if not kept.startswith(f"{key} = ")]
        (tmp_path / "c.cfg").write_text("\n".join(lines + [line]) + "\n")
        return load_config(tmp_path / "c.cfg", command=command)

    def test_train_config_without_optional_keys_is_the_dataclass_default(self, tmp_path):
        attack = pretrain_attack_spec()
        assert self._load(tmp_path).train == TrainConfig(base_lr=0.002, total_epochs=3, batch_size=8,
                                                         attack=attack)
        spec = finetune_attack_spec()
        finetune = self._load(tmp_path, command="finetune")
        assert finetune.attack == spec
        assert finetune.train == TrainConfig(base_lr=0.002, total_epochs=3, batch_size=8,
                                             attack=spec, betas=(0.9, 0.999))

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
    def test_train_key_overrides_exactly_its_field(self, tmp_path, line, field, value):
        assert self._load(tmp_path, line).train == replace(self._load(tmp_path).train,
                                                           **{field: value})

    @pytest.mark.parametrize("line, field, value", [
        ("attack.epsilon = 0.1", "epsilon", 0.1),
        ("attack.step_size = 0.01", "step_size", 0.01),
        ("attack.iters = 3", "iters", 3),
        ("attack.init = zero", "init", "zero"),
    ])
    def test_attack_key_overrides_exactly_its_field(self, tmp_path, line, field, value):
        cfg = self._load(tmp_path, line)
        assert cfg.attack == cfg.train.attack == replace(pretrain_attack_spec(), **{field: value})


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
        ("pretrain", "model.enc_layers", 0), ("eval", "eval.attacks", "ce,pgd"),
        ("eval", "eval.attacks", "ce,ce,fea,ce"),
        ("mi-estimate", "mi.alpha", 1), ("bounds", "bounds.step", 0.5),
        ("landscape", "landscape.half_width", -1), ("eval", "eval.lambda", -1),
        ("eval", "train.lambda", -1),
        ("pretrain", "train.base_lr", "inf"), ("pretrain", "train.weight_decay", "inf"),
        ("pretrain", "train.lambda", "inf"), ("pretrain", "data.noise", "inf"),
        ("mi-estimate", "mi.alpha", "nan"), ("mi-estimate", "mi.alpha", "inf"),
        ("attack", "attack.step_size", "nan"), ("eval", "eval.lambda", "inf"),
        ("landscape", "landscape.half_width", "inf")])
    def test_bad_extent_exits_with_its_name_and_creates_nothing(self, tmp_path, capsys,
                                                                command, key, value):
        """Each config is valid but for ``key``, so only the key's own check can stop it.

        The non-finite values among them, left to run, write non-finite
        artifacts or fail mid-run, not by key; ``ce,ce,fea,ce`` wrote three
        rows all named ``pgd20``.
        """
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        lines = BASE_CONFIG.format(out=out).replace("command = pretrain",
                                                    f"command = {command}").splitlines()
        lines += [f"checkpoint = {tmp_path / 'm.ckpt'}", "bounds.step = 0.01",
                  "landscape.half_width = 0.1", "landscape.resolution = 3"]
        # only pretrain reads the train.* keys, so no other command builds a TrainConfig
        lines = [line for line in lines if not line.startswith(f"{key} = ")
                 and (command == "pretrain" or not line.startswith("train."))] + [f"{key} = {value}"]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert capsys.readouterr().err.startswith(f"error: line {len(lines)}: bad value for {key!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("attack.epsilon = 2", "epsilon must lie in [0, 1), got 2.0"),
        ("model.mask_ratio = 1.5", "mask_ratio must lie in [0, 1), got 1.5"),
        ("train.lambda = -1", "expected a non-negative number, got -1.0"),
        ("train.base_lr = -1", "base_lr must be positive, got -1.0"),
        ("train.weight_decay = -5", "weight_decay must be non-negative, got -5.0"),
        ("train.estimator = foo", "estimator must be 'hsic' or 'renyi2', got 'foo'"),
        ("attack.init = bogus", "init must be 'zero' or 'random', got 'bogus'"),
        ("train.beta1 = 2", "betas[0] must lie in [0, 1), got 2.0"),
        ("model.enc_dim = 0", "enc_dim must be a positive integer, got 0"),
        ("train.total_epochs = 0", "total_epochs must be a positive integer, got 0")])
    def test_dataclass_check_exits_with_key_and_line_and_creates_nothing(self, tmp_path, capsys,
                                                                         line, message):
        out = tmp_path / "out"
        key = line.split(" = ")[0]
        lines = [kept for kept in BASE_CONFIG.format(out=out).splitlines()
                 if not kept.startswith(f"{key} = ")] + [line]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert capsys.readouterr().err == f"error: line {len(lines)}: bad value for {key!r}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("data", ["data.image_size = 8", "data.channels = 3"])
    def test_pretrain_data_that_does_not_fit_the_model_rejected(self, tmp_path, capsys, data):
        out = tmp_path / "out"
        key = data.split(" = ")[0]
        (tmp_path / "c.cfg").write_text(BASE_CONFIG.format(out=out).replace(f"\n{key} = ", "\n#")
                                        + data + "\n")
        assert run_config(tmp_path / "c.cfg") == 1
        size, channels = ("8", "1") if key == "data.image_size" else ("16", "3")
        assert capsys.readouterr().err == (
            f"error: data.image_size = {size} and data.channels = {channels} do not fit the "
            "model's image_size = 16 and channels = 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "landscape", "mi-estimate"])
    def test_data_that_does_not_fit_the_checkpoint_rejected(self, tmp_path, capsys, command):
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        (tmp_path / "c.cfg").write_text(
            f"command = {command}\nout_dir = {out}\ncheckpoint = {tmp_path / 'm.ckpt'}\n"
            "data.source = synth\ndata.num_classes = 4\ndata.samples_per_class = 2\n"
            "data.image_size = 8\ndata.noise = 0.1\nlandscape.half_width = 0.1\n"
            "landscape.resolution = 3\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert capsys.readouterr().err == ("error: data.image_size = 8 and data.channels = 1 do not "
                                           "fit the model's image_size = 16 and channels = 1\n")
        assert not out.exists()

    @staticmethod
    def _checkpoint_config(tmp_path, command, *extra):
        """BASE_CONFIG for ``command`` on a saved tiny checkpoint, ``extra`` lines replacing
        their keys; only the training commands keep the train.* keys."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        keys = {line.split(" = ")[0] for line in extra}
        lines = [line for line in BASE_CONFIG.format(out=tmp_path / "out").splitlines()
                 if line.split(" = ")[0] not in keys
                 and (command in ("pretrain", "finetune") or not line.startswith("train."))]
        lines = [line.replace("command = pretrain", f"command = {command}") for line in lines]
        lines += [f"checkpoint = {tmp_path / 'm.ckpt'}", "landscape.half_width = 0.1",
                  "landscape.resolution = 3", *extra]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        return tmp_path / "c.cfg"

    @pytest.mark.parametrize("command", ["finetune", "attack", "eval", "landscape"])
    def test_labels_beyond_the_head_rejected_by_key(self, tmp_path, capsys, command):
        """Left to run, these failed mid-run with a message that named no key."""
        assert run_config(self._checkpoint_config(tmp_path, command, "data.num_classes = 5")) == 1
        assert capsys.readouterr().err == ("error: data.num_classes = 5 exceeds the model's "
                                           "num_classes = 4\n")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _line_of(path, key):
        return next(i for i, line in enumerate(path.read_text().splitlines(), start=1)
                    if line.startswith(f"{key} = "))

    @pytest.mark.parametrize("attacks", [None, "fea", "ce, fea"])
    def test_eval_zero_init_with_a_fea_column_rejected_before_any_work(self, tmp_path, capsys,
                                                                       monkeypatch, attacks):
        """Left to run, eval loaded the checkpoint and ran the ``ce`` attack on the first batch
        before ``attack_fea`` failed with a message that named no key."""
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: pytest.fail("checkpoint loaded"))
        extra = ["attack.init = zero"] + ([f"eval.attacks = {attacks}"] if attacks else [])
        path = self._checkpoint_config(tmp_path, "eval", *extra)
        assert run_config(path) == 1
        assert capsys.readouterr().err == (
            f"error: line {self._line_of(path, 'attack.init')}: attack.init = zero gives the fea "
            "attack of eval.attacks an identically zero gradient; use random\n")
        assert not (tmp_path / "out").exists()
        # zero init is fine for the other columns
        path = self._checkpoint_config(tmp_path, "eval", "attack.init = zero", "eval.attacks = ce,mi")
        assert load_config(path).attack.init == "zero"

    @pytest.mark.parametrize("line, ratio, patches", [("model.mask_ratio = 0", 0.0, 16),
                                                       ("model.mask_ratio = 1e-17", 1e-17, 16),
                                                       ("model.patch_size = 16", 0.75, 1)])
    def test_masked_only_loss_with_no_masked_patch_rejected_by_key_and_line(
            self, tmp_path, capsys, monkeypatch, line, ratio, patches):
        """1 - 1e-17 rounds to 1, and one patch always stays visible. Left to run, pretrain built
        its data and model, warned of a mean of an empty slice and failed with ``reduce_mean:
        non-finite values in forward result``, which named no key."""
        monkeypatch.setattr(cli, "synth_dataset", lambda *a, **k: pytest.fail("data built"))
        path = tmp_path / "c.cfg"

        def write(*extra):
            keys = {entry.split(" = ")[0] for entry in extra}
            lines = [entry for entry in BASE_CONFIG.format(out=tmp_path / "out").splitlines()
                     if entry.split(" = ")[0] not in keys]
            path.write_text("\n".join(lines + list(extra)) + "\n")

        write(line, "train.recon_masked_only = true")
        assert run_config(path) == 1
        assert capsys.readouterr().err == (
            f"error: line {self._line_of(path, 'train.recon_masked_only')}: "
            f"train.recon_masked_only = true scores only masked patches, and model.mask_ratio = "
            f"{ratio} masks none of the {patches}\n")
        assert not (tmp_path / "out").exists()
        for extra in (line, "train.recon_masked_only = true"):  # either alone is fine
            write(extra)
            assert load_config(path).train is not None

    @pytest.mark.parametrize("key, kind", [("checkpoint", "file"), ("data.dir", "directory")])
    def test_checkpoint_file_and_data_directory_rejected_by_key_and_line(self, tmp_path, capsys,
                                                                         key, kind):
        """Left to load, ``checkpoint = .`` failed with ``[Errno 21] Is a directory`` and a
        ``data.dir`` that names a file failed inside the CIFAR loader."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        paths = {"checkpoint": tmp_path / "m.ckpt", "data.dir": tmp_path}
        paths[key] = tmp_path if key == "checkpoint" else tmp_path / "m.ckpt"
        lines = ["command = mi-estimate", f"out_dir = {out}", f"checkpoint = {paths['checkpoint']}",
                 "data.source = cifar10", f"data.dir = {paths['data.dir']}"]
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert capsys.readouterr().err == (f"error: line {self._line_of(tmp_path / 'c.cfg', key)}: "
                                           f"{key} path is not a {kind}: {paths[key]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("pretrain", "train.batch_size"),
                                              ("eval", "eval.batch_size")])
    def test_mi_penalty_batch_of_one_rejected_by_key(self, tmp_path, capsys, command, key):
        """9 images in batches of 4 leave one alone; left to run, pretrain trained two steps and
        eval ran its natural pass and ``ce`` attack before the MI penalty failed."""
        extra = ["data.num_classes = 3", "data.samples_per_class = 3", f"{key} = 4"]
        if command == "pretrain":
            extra.append("train.lambda = 1e-3")
        assert run_config(self._checkpoint_config(tmp_path, command, *extra)) == 1
        assert capsys.readouterr().err == (f"error: {key} = 4 leaves a batch of 1 of the 9 images, "
                                           "and the MI penalty needs at least 2 per batch\n")
        assert not (tmp_path / "out").exists()

    def test_mi_estimate_of_one_image_fails_in_rbf_gram_and_creates_nothing(self, tmp_path,
                                                                           capsys, mid32_config):
        """``mi.batch_size`` is at least 2 from load on; a one-image dataset meets the Gram's
        own guard."""
        save_checkpoint(TrainState.create(init_params(mid32_config, np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        write_cifar_batch(tmp_path / "data_batch_1.bin", [3], np.random.default_rng(0))
        out = tmp_path / "out"
        (tmp_path / "c.cfg").write_text(
            f"command = mi-estimate\nout_dir = {out}\ncheckpoint = {tmp_path / 'm.ckpt'}\n"
            f"data.source = cifar10\ndata.dir = {tmp_path}\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert capsys.readouterr().err == "error: rbf_gram: needs at least 2 samples\n"
        assert not out.exists()

    def test_eval_model_key_contradicting_checkpoint_creates_nothing(self, tmp_path, capsys):
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        (tmp_path / "c.cfg").write_text(
            BASE_CONFIG.format(out=out).replace("command = pretrain", "command = eval")
            .replace("model.enc_dim = 32", "model.enc_dim = 64") + f"checkpoint = {tmp_path / 'm.ckpt'}\n")
        assert run_config(tmp_path / "c.cfg") == 1
        assert "model.enc_dim = 64 contradicts the checkpoint" in capsys.readouterr().err
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
                      "attack.iters = 2\neval.adaptive_iters = 2\n")
        assert run_config(ev) == 0
        eval_lines = (out / "eval.csv").read_text().splitlines()
        assert eval_lines[0] == "attack,natural,robust,n"
        assert len(eval_lines) == 4

    def test_finetune_from_a_checkpoint_needs_no_model_keys(self, tmp_path):
        """The checkpoint holds the architecture; only a finetune without one needs model.*."""
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        save_checkpoint(TrainState.create(params, 0), tmp_path / "m.ckpt")
        out = tmp_path / "out"
        text = "".join(line + "\n" for line in BASE_CONFIG.format(out=out).splitlines()
                       if not line.startswith("model."))
        text = text.replace("command = pretrain", "command = finetune").replace(
            "train.total_epochs = 3", "train.total_epochs = 2") + "attack.iters = 1\n"
        (tmp_path / "ft.cfg").write_text(text)
        with pytest.raises(ConfigError, match="missing required keys for finetune: "
                                              "model.image_size, model.patch_size"):
            load_config(tmp_path / "ft.cfg")
        (tmp_path / "ft.cfg").write_text(text + f"checkpoint = {tmp_path / 'none.ckpt'}\n")
        with pytest.raises(ConfigError, match="checkpoint path does not exist"):
            load_config(tmp_path / "ft.cfg")
        (tmp_path / "ft.cfg").write_text(text + f"checkpoint = {tmp_path / 'm.ckpt'}\n")
        assert run_config(tmp_path / "ft.cfg") == 0
        assert load_checkpoint(out / "finetune.ckpt").params.config == params.config

    def test_eval_ce_job_runs_the_attack_keys(self, tmp_path):
        """The CE column is ``attack.iters`` steps of ``cfg.attack``, PGD-20 by default."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        out = tmp_path / "out"
        text = (BASE_CONFIG.format(out=out).replace("command = pretrain", "command = eval")
                + f"checkpoint = {tmp_path / 'm.ckpt'}\neval.attacks = ce\n")
        (tmp_path / "c.cfg").write_text(text)
        assert _eval_jobs(load_config(tmp_path / "c.cfg")) == [
            AttackJob("pgd20", "ce", adaptive_attack_spec(iters=20))]
        (tmp_path / "c.cfg").write_text(text + "attack.iters = 3\n")
        assert run_config(tmp_path / "c.cfg") == 0
        rows = (out / "eval.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["attack", "pgd3"]

    def test_eval_subset_below_the_dataset_size_evaluates_the_first_images(self, tmp_path):
        """``eval.subset = 5`` of 8 images is ``evaluate`` of the first 5, with the same seed,
        jobs and batches."""
        path = self._checkpoint_config(tmp_path, "eval", "data.samples_per_class = 2",
                                       "eval.subset = 5", "eval.batch_size = 2", "attack.iters = 2",
                                       "eval.adaptive_iters = 2", "eval.attacks = ce,fea", "seed = 3")
        assert run_config(path) == 0
        got = (tmp_path / "out" / "eval.csv").read_bytes()
        assert [row.split(",")[3] for row in got.decode().splitlines()[1:]] == ["5", "5"]
        cfg = load_config(path)
        full = synth_dataset(4, 2, 16, 0.1, np.random.default_rng([3, 1]), channels=1)
        first = Dataset(images=full.images[:5], labels=full.labels[:5], split=full.split,
                        num_classes=full.num_classes)
        report = evaluate(load_checkpoint(tmp_path / "m.ckpt").params, first, _eval_jobs(cfg),
                          seed=3, batch_size=2)
        write_eval_csv(report, tmp_path / "want.csv")
        assert got == (tmp_path / "want.csv").read_bytes()

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

    @staticmethod
    def _fail_in_second_epoch(monkeypatch):
        epochs = []

        def epoch(state, dataset, config):
            epochs.append(state.epoch)
            if len(epochs) == 2:
                raise FloatingPointError("diverged in the second epoch")
            return pretrain_epoch(state, dataset, config)

        monkeypatch.setattr(cli, "pretrain_epoch", epoch)

    def test_rerun_failing_in_its_second_epoch_leaves_the_first_runs_files(self, tmp_path,
                                                                          monkeypatch):
        out = tmp_path / "out"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(BASE_CONFIG.format(out=out))
        assert run_config(cfg) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(first) == ["metrics_pretrain.csv", "pretrain.ckpt"]
        self._fail_in_second_epoch(monkeypatch)
        assert run_config(cfg) == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_run_failing_in_its_second_epoch_leaves_no_directory(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        (tmp_path / "p.cfg").write_text(BASE_CONFIG.format(out=out))
        self._fail_in_second_epoch(monkeypatch)
        assert run_config(tmp_path / "p.cfg") == 1
        assert not out.exists()

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
                + f"checkpoint = {tmp_path / 'm.ckpt'}\neval.adaptive_iters = 1\n"
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
        want = [f"hsic,,{mi.hsic(x, z):.10e}",
                f"renyi,1.5,{mi.renyi_mi(x, z, alpha=1.5):.10e}"]
        assert (tmp_path / "mi" / "mi.csv").read_text().splitlines()[1:] == want

    def test_mi_estimate_at_a_large_alpha_writes_a_finite_row(self, tmp_path):
        """At alpha = 1e6 every power of the Grams' eigenvalues underflows to 0."""
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        tmp_path / "m.ckpt")
        cfg = self._mi_estimate_config(tmp_path, tmp_path / "m.ckpt")
        cfg.write_text(cfg.read_text().replace("mi.alpha = 1.5", "mi.alpha = 1e6"))
        assert run_config(cfg) == 0
        name, alpha, value = (tmp_path / "mi" / "mi.csv").read_text().splitlines()[2].split(",")
        assert (name, alpha) == ("renyi", "1e+06") and math.isfinite(float(value))

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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("owner", ["base_lr", "weight_decay", "lam", "step_size", "alpha",
                                   "half_width", "noise"])
def test_owners_of_float_keys_reject_non_finite_values(owner, value):
    """Library callers get the finiteness check that ``load_config`` applies to every key."""
    train = dict(base_lr=1e-3, total_epochs=1, batch_size=1, attack=pretrain_attack_spec())
    build = {"step_size": lambda: replace(pretrain_attack_spec(), step_size=value),
             "alpha": lambda: mi._check_alpha(value),
             "half_width": lambda: evaluate_module._check_half_width(value),
             "noise": lambda: synth_dataset(2, 1, 2, value, np.random.default_rng(0))}.get(
        owner, lambda: TrainConfig(**{**train, owner: value}))
    with pytest.raises(ValueError):
        build()


# the two functions that write artifacts: every CSV, and the binary checkpoint
_FILE_WRITERS = {("data.py", "write_csv"), ("train.py", "save_checkpoint")}


def test_only_the_csv_and_checkpoint_writers_open_files_for_writing():
    offenders = []
    for path in sorted(Path(mimir.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): "<module>" for node in ast.walk(tree)}
        for func in ast.walk(tree):  # outer functions come first, so inner ones win
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None))):
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            reads = all(isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+") for mode in modes)
            if not reads and (path.name, owner[id(node)]) not in _FILE_WRITERS:
                offenders.append(f"{path.name}:{node.lineno} in {owner[id(node)]}")
    assert offenders == []


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_table(header: str) -> list[str]:
    """The lines of README's markdown table whose first row is ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header)
    return list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))


def _key_table() -> list[str]:
    """README's key table as the code has it: a row for each ``KEYS`` entry and each section."""
    def unset(spec):
        if spec.same_as:
            return f"`{spec.same_as}`"
        return "—" if spec.default is None else f"`{config_module._render(spec.default)}`"

    rows = {key: (spec.accepts, unset(spec)) for key, spec in config_module.KEYS.items()}
    for section, (cls, default) in config_module.SECTIONS.items():
        renamed = "".join(f"; `{key}` sets `{name}`" for name, key in config_module._KEY_OF.items()
                          if key.startswith(f"{section}."))
        rows[f"{section}.*"] = (f"a field of `{cls.__name__}`{renamed}", default)
    return ["| key | accepts | default |", "| --- | --- | --- |",
            *(f"| `{key}` | {accepts} | {default} |"
              for key, (accepts, default) in sorted(rows.items()))]


class TestReadme:
    """README's tables and example say what the code does."""

    def test_key_table_is_rendered_from_the_code(self):
        expected = _key_table()
        assert _readme_table(expected[0]) == expected, (
            "README's key table differs from the code; it should read:\n" + "\n".join(expected))

    def test_example_config_loads(self, tmp_path):
        block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        (tmp_path / "exp.cfg").write_text(block)
        cfg = load_config(tmp_path / "exp.cfg")
        assert cfg.command == "pretrain" and cfg.model is not None and cfg.train is not None

    def test_csv_schemas_are_the_headers_the_commands_write(self, tmp_path):
        out = tmp_path / "out"
        extra = {"pretrain": "", "finetune": "checkpoint = {out}/pretrain.ckpt\nattack.iters = 1\n",
                 "bounds": "bounds.num_classes = 4\nbounds.step = 0.1\n"}
        for command in ("pretrain", "finetune", "eval", "attack", "landscape", "mi-estimate",
                        "bounds"):
            text = extra.get(command, "checkpoint = {out}/finetune.ckpt\nattack.iters = 1\n"
                             "eval.adaptive_iters = 1\nlandscape.half_width = 0.1\n"
                             "landscape.resolution = 3\n")
            (tmp_path / "c.cfg").write_text(BASE_CONFIG.format(out=out).replace(
                "command = pretrain", f"command = {command}") + text.format(out=out))
            assert run_config(tmp_path / "c.cfg") == 0, command
        written = {path.name: path.read_text().splitlines()[0] for path in out.glob("*.csv")}
        documented = {}
        for row in _readme_table("| file | schema |")[2:]:
            files, schema = row.strip("| ").split(" | ")
            documented.update((name, re.findall(r"`([^`]+)`", schema)[0])
                              for name in re.findall(r"`([^`]+)`", files))
        assert documented == written


def _write_checkpoint(path):
    save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                    path)


class TestArtifactWriters:
    """Each writer replaces its file in one step, with the permission bits ``open`` gives."""

    @pytest.mark.parametrize("name", ["a.csv", "m.ckpt"])
    def test_writer_failing_partway_leaves_the_earlier_bytes_and_no_stray_file(self, tmp_path,
                                                                             monkeypatch, name):
        path = tmp_path / name
        if name.endswith(".csv"):
            write_csv(path, "a,b", [("1", "2")])
            # the text is built, then its encoding fails once the file is open
            write = lambda: write_csv(path, "a,b", [("1", "\ud800")])
        else:
            _write_checkpoint(path)
            # the payload is written, then the checksum trailer fails
            monkeypatch.setattr(zlib, "crc32", lambda blob: 1 / 0)
            write = lambda: _write_checkpoint(path)
        earlier = path.read_bytes()
        with pytest.raises((UnicodeEncodeError, ZeroDivisionError)):
            write()
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("name", ["a.csv", "m.ckpt"])
    def test_new_file_gets_opens_bits_and_a_rewritten_one_keeps_its_own(self, tmp_path, name):
        path = tmp_path / name
        write = (lambda: write_csv(path, "a", [])) if name.endswith(".csv") else (
            lambda: _write_checkpoint(path))
        with open(tmp_path / "by_open", "w"):
            pass
        write()
        assert path.stat().st_mode == (tmp_path / "by_open").stat().st_mode
        path.chmod(0o640)
        write()
        assert oct(path.stat().st_mode & 0o777) == oct(0o640)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["by_open", name])


CORES =len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.mark.skipif(CORES < 2, reason="one core: forward-only chunks never leave the caller")
class TestBlasThreadDeterminism:
    """CLI artifacts do not depend on whether image shares and weight gradients run on one
    thread or many."""

    def test_mi_estimate_and_eval_bytes_equal_at_one_and_all_blas_threads(self, tmp_path,
                                                                          mid32_config):
        probe = "from mimir import _runtime; print(_runtime.workers())"
        workers = {threads: int(python_at(tmp_path, threads, "-c", probe))
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
            "data.channels = 3\ndata.noise = 0.1\neval.attacks = ce,fea\nattack.iters = 2\n"
            "eval.adaptive_iters = 2\neval.batch_size = 13\nmi.batch_size = 13\n")
        outputs = {}
        for threads in (1, CORES):
            out = tmp_path / f"blas{threads}"
            for command in ("mi-estimate", "eval"):
                python_at(tmp_path, threads, "-m", "mimir.cli", command, "--config", "c.cfg",
                          "--out", str(out))
            outputs[threads] = [(out / name).read_bytes() for name in ("mi.csv", "eval.csv")]
        assert outputs[1] == outputs[CORES]

    def test_pretrain_bytes_equal_at_one_and_all_blas_threads(self, tmp_path):
        """A mid32-shaped pretrain whose 8-image attack pass splits in two shares at one BLAS
        thread, with the MI penalty on."""
        probe = "from mimir import _runtime; print(_runtime.workers())"
        if int(python_at(tmp_path, 1, "-c", probe)) == 1:
            pytest.skip("this BLAS does not report its thread count, so no helper runs")
        (tmp_path / "p.cfg").write_text(
            "command = pretrain\nseed = 4\ndata.source = synth\ndata.num_classes = 4\n"
            "data.samples_per_class = 4\ndata.image_size = 32\ndata.channels = 3\n"
            "data.noise = 0.1\nmodel.image_size = 32\nmodel.channels = 3\n"
            "model.patch_size = 4\nmodel.enc_layers = 1\nmodel.enc_dim = 96\n"
            "model.enc_heads = 4\nmodel.dec_layers = 1\nmodel.dec_dim = 64\n"
            "model.dec_heads = 4\nmodel.num_classes = 4\ntrain.base_lr = 1e-3\n"
            "train.total_epochs = 2\ntrain.batch_size = 8\ntrain.lambda = 0.5\n")
        outputs = {}
        for threads in (1, CORES):
            out = tmp_path / f"blas{threads}"
            python_at(tmp_path, threads, "-m", "mimir.cli", "pretrain", "--config", "p.cfg",
                      "--out", str(out))
            outputs[threads] = [(out / name).read_bytes()
                                for name in ("metrics_pretrain.csv", "pretrain.ckpt")]
        assert outputs[1] == outputs[CORES]
