import json
import math
import os
import struct
import subprocess
import sys
import warnings
import weakref
import zlib

import numpy as np
import pytest

from mimir import attacks, model, train
from mimir import _runtime as rt
from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import AttackSpec, attack_recon, finetune_attack_spec, pretrain_attack_spec
from mimir.data import Dataset, synth_dataset
from mimir.mi import PenaltyConfig, hsic, median_bandwidth, penalty_mi
from mimir.model import (ModelParams, ViTConfig, classify, decode, encode, init_params, patchify,
                         sample_mask)
from mimir.train import (CheckpointError, TrainConfig, TrainState, adamw_step, cosine_lr,
                         finetune_epoch, layer_lr_scales, load_checkpoint, mimir_loss,
                         pretrain_epoch, save_checkpoint, _mimir_loss_parts)

from bits_manifest import CHILD_WARNINGS
from conftest import tiny_vit_config


def _sealed(body: bytes) -> bytes:
    """A version-2 checkpoint file: ``body`` plus its CRC-32 trailer."""
    return body + struct.pack("<I", zlib.crc32(body))


def small_train_config(**overrides):
    base = dict(base_lr=1e-3, total_epochs=4, batch_size=8, attack=pretrain_attack_spec(),
                warmup_epochs=1, lam=1e-5, estimator="hsic")
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_warmup_must_be_less_than_total(self):
        with pytest.raises(ValueError):
            small_train_config(warmup_epochs=4, total_epochs=4)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_epochs"):
            small_train_config(warmup_epochs=-3, total_epochs=2, base_lr=2e-3)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            small_train_config(lam=-1.0)

    def test_layer_decay_range(self):
        with pytest.raises(ValueError):
            small_train_config(layer_decay=0.0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="shannon"):
            small_train_config(estimator="shannon")

    def test_paper_defaults(self):
        cfg = small_train_config()
        assert cfg.lam == 1e-5 and cfg.estimator == "hsic"
        assert cfg.betas == (0.9, 0.95) and cfg.weight_decay == 0.05


class TestAdamW:
    def _state(self):
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        return TrainState.create(params, 0)

    def test_decay_only(self):
        state = self._state()
        cfg = small_train_config(weight_decay=0.05)
        before = state.params["patch_embed.weight"].data.copy()
        adamw_step(state, {"patch_embed.weight": np.zeros_like(before)}, 0.1, cfg)
        assert np.allclose(state.params["patch_embed.weight"].data, before * (1.0 - 0.005),
                           rtol=0, atol=1e-15)

    def test_first_step_unit_gradient(self):
        state = self._state()
        cfg = small_train_config(weight_decay=0.0)
        before = state.params["patch_embed.weight"].data.copy()
        adamw_step(state, {"patch_embed.weight": np.ones_like(before)}, 0.01, cfg)
        update = before - state.params["patch_embed.weight"].data
        assert np.allclose(update, 0.01 / (1.0 + 1e-8), rtol=1e-12)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        state = self._state()
        cfg = small_train_config(weight_decay=0.0)
        g = np.ones_like(state.params["head.bias"].data)
        last = None
        for _ in range(50):
            before = state.params["head.bias"].data.copy()
            adamw_step(state, {"head.bias": g}, 0.01, cfg)
            last = np.abs(before - state.params["head.bias"].data)
        assert np.allclose(last, 0.01, rtol=1e-6)

    def test_shape_mismatch_rejected(self):
        state = self._state()
        with pytest.raises(ValueError):
            adamw_step(state, {"head.bias": np.zeros(99)}, 0.01, small_train_config())

    def test_non_finite_update_refused_by_parameter_name(self):
        state = self._state()
        grad = np.ones_like(state.params["head.bias"].data)
        grad[0] = np.inf
        before = state.params["head.bias"].data
        with pytest.raises(FloatingPointError, match="head.bias"), warnings.catch_warnings():
            warnings.simplefilter("error")  # the error alone, with no numpy warning before it
            adamw_step(state, {"head.bias": grad}, 0.01, small_train_config())
        assert state.params["head.bias"].data is before and not state.m["head.bias"].any()

    def test_step_counter_increments(self):
        state = self._state()
        adamw_step(state, {}, 0.01, small_train_config())
        assert state.step == 1

    def test_writes_into_no_parameter(self):
        """The step rebinds each ``.data``, so attacks may read the parameters through views."""
        state = self._state()
        old = {name: t.data for name, t in state.params.tensors.items()}
        saved = {name: data.tobytes() for name, data in old.items()}
        for data in old.values():
            data.flags.writeable = False
        rng = np.random.default_rng(1)
        grads = {name: rng.normal(size=t.shape) for name, t in state.params.trainable()}
        adamw_step(state, grads, 0.01, small_train_config())
        for name, data in old.items():
            assert data.tobytes() == saved[name], name
            assert (state.params[name].data is data) == (name not in grads), name


class TestCosine:
    def test_warmup_start_zero(self):
        assert cosine_lr(0, 10, 100, 1.5e-4) == 0.0

    def test_warmup_end_base(self):
        assert cosine_lr(10, 10, 100, 1.5e-4) == 1.5e-4

    def test_total_end_zero(self):
        assert abs(cosine_lr(100, 10, 100, 1.5e-4)) <= 1e-12

    def test_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(101, 10, 100, 1.0)

    def test_midpoint(self):
        assert cosine_lr(55, 10, 100, 1.0) == pytest.approx(0.5, abs=1e-12)


class TestLayerDecay:
    def test_four_block_geometric(self):
        params = init_params(tiny_vit_config(enc_layers=4), np.random.default_rng(0))
        scales = layer_lr_scales(params, 0.65)
        assert scales["head.weight"] == 1.0
        assert scales["enc.3.mlp.w1"] == pytest.approx(0.65, abs=1e-15)
        assert scales["enc.0.attn.wq"] == pytest.approx(0.65 ** 4, abs=1e-15)
        assert scales["patch_embed.weight"] == pytest.approx(0.65 ** 5, abs=1e-15)

    def test_decay_one_uniform(self):
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        assert set(layer_lr_scales(params, 1.0).values()) == {1.0}


class TestMimirLoss:
    def _setup(self, lam):
        cfg = tiny_vit_config()
        rng = np.random.default_rng(0)
        params = init_params(cfg, rng)
        imgs = rng.uniform(0.2, 0.8, size=(3, 1, 16, 16))
        plan = sample_mask(cfg.num_patches, cfg.mask_ratio, rng, batch_size=3)
        delta = rng.uniform(-8 / 255, 8 / 255, size=imgs.shape)
        return params, imgs, plan, delta, small_train_config(lam=lam)

    def test_lambda_zero_equals_mse(self):
        params, imgs, plan, delta, cfg = self._setup(0.0)
        loss = mimir_loss(params, imgs, plan, delta, cfg)
        x_adv = Tensor(imgs + delta)
        latent = encode(params, patchify(x_adv, 4), plan)
        from mimir.model import decode
        recon = decode(params, latent, plan)
        expected = ad.mse_loss(recon, patchify(Tensor(imgs), 4))
        assert loss.item() == expected.item()

    def test_perfect_reconstruction_leaves_only_penalty(self):
        params, imgs, plan, delta, cfg = self._setup(1e-5)
        # constant decoder output c on an all-c image: reconstruction is exact
        params["dec_out.weight"].data[:] = 0.0
        params["dec_out.bias"].data[:] = 0.5
        imgs = np.full_like(imgs, 0.5)
        loss, mse_value, pen_value = _mimir_loss_parts(params, imgs, plan, delta, cfg)
        assert mse_value == 0.0
        assert loss.item() == 1e-5 * pen_value

    def test_penalty_needs_batch(self):
        params, imgs, plan, delta, cfg = self._setup(1e-5)
        single_plan = sample_mask(16, 0.75, np.random.default_rng(0), batch_size=1)
        with pytest.raises(ValueError, match="^penalty_mi: batch must contain at least 2 samples$"):
            mimir_loss(params, imgs[:1], single_plan, delta[:1], cfg)

    def test_masked_only_flag(self):
        params, imgs, plan, delta, cfg = self._setup(0.0)
        masked_cfg = small_train_config(lam=0.0, recon_masked_only=True)
        full = mimir_loss(params, imgs, plan, delta, cfg).item()
        masked = mimir_loss(params, imgs, plan, delta, masked_cfg).item()
        assert masked != full  # different averaging support

    def test_parameter_gradients_match_finite_differences(self):
        """Composed loss (HSIC penalty included) on a 2-layer, 8-dim toy model.

        Weight matrices are scaled up from the training init so attention is
        far from uniform and no gradient component sits below the central
        difference truncation noise.
        """
        cfg = ViTConfig(image_size=4, channels=1, patch_size=2, enc_layers=2, enc_dim=8,
                        enc_heads=2, dec_layers=1, dec_dim=8, dec_heads=2, num_classes=2,
                        mask_ratio=0.5)
        rng = np.random.default_rng(1)
        params = init_params(cfg, rng)
        for name, tensor in params.trainable():
            if name.endswith((".weight", "w1", "w2", "wq", "wk", "wv", "wo", "mask_token")):
                tensor.data = tensor.data * 15.0
        imgs = rng.uniform(0.2, 0.8, size=(3, 1, 4, 4))
        plan = sample_mask(cfg.num_patches, cfg.mask_ratio, rng, batch_size=3)
        delta = rng.uniform(-8 / 255, 8 / 255, size=imgs.shape)
        train_cfg = small_train_config(lam=1e-3)

        base_latent = encode(params, patchify(Tensor(imgs + delta), 2), plan)
        base_vis = ad.gather_rows(patchify(Tensor(imgs + delta), 2), plan.visible)
        pen = PenaltyConfig(estimator="hsic",
                            sigma_x=median_bandwidth(base_vis.data.reshape(3, -1)),
                            sigma_y=median_bandwidth(base_latent.data.reshape(3, -1)))

        def f():
            return mimir_loss(params, imgs, plan, delta, train_cfg, penalty=pen)

        trainable = {name: t for name, t in params.trainable()
                     if not name.startswith("head.")}
        report = ad.finite_diff_check_params(f, trainable, 1e-4)
        assert report.max_rel_error <= 1e-4, report.per_param


@pytest.fixture(scope="module")
def pretrain_setup():
    cfg = tiny_vit_config()
    ds = synth_dataset(4, 4, 16, 0.1, np.random.default_rng(3), channels=1)
    return cfg, ds


class TestPretrainEpoch:
    def test_deterministic(self, pretrain_setup):
        cfg, ds = pretrain_setup
        results = []
        for _ in range(2):
            params = init_params(cfg, np.random.default_rng(0))
            state = TrainState.create(params, 0)
            m = pretrain_epoch(state, ds, small_train_config())
            results.append((m.loss_mse, m.loss_mi, m.loss_adv, m.lr))
        assert results[0] == results[1]

    def test_lambda_zero_reduces_to_adversarial_reconstruction(self, pretrain_setup):
        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        m = pretrain_epoch(state, ds, small_train_config(lam=0.0))
        assert m.loss_mi == 0.0 and math.isfinite(m.loss_mse)

    def test_empty_dataset_rejected(self, pretrain_setup):
        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        empty = synth_dataset(4, 1, 16, 0.0, np.random.default_rng(0), channels=1)
        empty.images = empty.images[:0]
        empty.labels = empty.labels[:0]
        with pytest.raises(ValueError):
            pretrain_epoch(state, empty, small_train_config())

    def test_reported_penalty_is_the_hsic_of_the_step(self, pretrain_setup, monkeypatch):
        """``loss_mi`` of a one-step epoch is ``hsic`` of that step's visible patches and tokens."""
        cfg, ds = pretrain_setup
        seen = []
        monkeypatch.setattr(train, "penalty_mi",
                            lambda x, z, pen: seen.append((x.data, z.data)) or penalty_mi(x, z, pen))
        state = TrainState.create(init_params(cfg, np.random.default_rng(0)), 0)
        m = pretrain_epoch(state, ds, small_train_config(batch_size=len(ds)))
        ((x_vis, z),) = seen
        assert m.loss_mi == hsic(x_vis, z)

    def test_metrics_finite(self, pretrain_setup):
        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        m = pretrain_epoch(state, ds, small_train_config())
        for value in (m.loss_mse, m.loss_mi, m.loss_adv, m.lr, m.seconds):
            assert math.isfinite(value)


class TestFinetuneEpoch:
    def test_decoder_frozen(self, pretrain_setup):
        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        dec_before = {n: t.data.copy() for n, t in params.tensors.items()
                      if n.startswith(("dec", "mask_token"))}
        finetune_epoch(state, ds, small_train_config(attack=finetune_attack_spec(iters=2),
                                                     betas=(0.9, 0.999)))
        for name, before in dec_before.items():
            assert np.array_equal(params[name].data, before), name

    def test_adversarial_ce_at_least_natural(self, pretrain_setup):
        """The zero-init inner max honors the adversarial-training contract."""
        from mimir.attacks import attack_ce

        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(1))
        params["head.weight"].data = np.random.default_rng(2).normal(0, 0.2, size=(32, 4))
        spec = finetune_attack_spec(iters=3)
        for start in range(0, len(ds), 8):
            x, y = ds.images[start:start + 8], ds.labels[start:start + 8]
            pert = attack_ce(params, x, y, spec, np.random.default_rng(0))
            natural = ad.cross_entropy(classify(params, Tensor(x)), y).item()
            adversarial = ad.cross_entropy(classify(params, Tensor(x + pert.delta)), y).item()
            assert adversarial >= natural - 1e-15

    def test_epsilon_zero_is_natural_finetuning(self, pretrain_setup):
        cfg, ds = pretrain_setup
        natural_attack = AttackSpec(epsilon=0.0, step_size=2 / 255, iters=1, init="zero")
        params = init_params(cfg, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        m = finetune_epoch(state, ds, small_train_config(attack=natural_attack,
                                                         betas=(0.9, 0.999)))
        assert m.loss_adv == m.loss_mse  # the "attack" evaluates the natural loss

    def test_missing_head_rejected(self, pretrain_setup):
        cfg, ds = pretrain_setup
        params = init_params(cfg, np.random.default_rng(0))
        del params.tensors["head.weight"]
        state = TrainState.create(params, 0)
        with pytest.raises(ValueError):
            finetune_epoch(state, ds, small_train_config(attack=finetune_attack_spec(iters=1),
                                                         betas=(0.9, 0.999)))


class TestCheckpoint:
    def _trained_state(self, ds, epochs=2):
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        state = TrainState.create(params, 0)
        for _ in range(epochs):
            pretrain_epoch(state, ds, small_train_config())
        return state

    def test_save_load_save_byte_identical(self, pretrain_setup, tmp_path):
        _, ds = pretrain_setup
        state = self._trained_state(ds)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, pretrain_setup, tmp_path):
        _, ds = pretrain_setup
        state = self._trained_state(ds, epochs=1)
        path = tmp_path / "c.ckpt"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, pretrain_setup, tmp_path):
        _, ds = pretrain_setup
        state = self._trained_state(ds, epochs=1)
        path = tmp_path / "v.ckpt"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupt_shape_table_rejected(self, tmp_path):
        cfg_json = b'{"image_size":16}'
        blob = b"MIMR" + struct.pack("<I", 1)
        blob += struct.pack("<I", len(cfg_json)) + cfg_json
        blob += struct.pack("<I", 1)                       # one tensor
        blob += struct.pack("<H", 1) + b"w"
        blob += struct.pack("<BBB", 0, 1, 9)               # rank 9: implausible
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_tensor_shape_disagreeing_with_config_rejected(self, tmp_path):
        params = init_params(tiny_vit_config(enc_dim=32), np.random.default_rng(0))
        wrong = ModelParams(config=tiny_vit_config(enc_dim=64), tensors=params.tensors)
        assert wrong["patch_embed.weight"].shape == (16, 32)
        path = tmp_path / "arch.ckpt"
        save_checkpoint(TrainState.create(wrong, 0), path)
        with pytest.raises(CheckpointError, match="patch_embed.weight"):
            load_checkpoint(path)

    def test_unexpected_tensor_rejected(self, tmp_path):
        params = init_params(tiny_vit_config(), np.random.default_rng(0))
        params.tensors["stray"] = Tensor(np.zeros(3))
        path = tmp_path / "stray.ckpt"
        save_checkpoint(TrainState.create(params, 0), path)
        with pytest.raises(CheckpointError, match="stray"):
            load_checkpoint(path)

    @pytest.mark.parametrize("table", ["m", "v"])
    def test_moment_shape_disagreeing_with_param_rejected(self, table, tmp_path):
        state = TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0)
        getattr(state, table)["head.bias"] = np.zeros(7)
        path = tmp_path / "moment.ckpt"
        save_checkpoint(state, path)
        with pytest.raises(CheckpointError, match=rf"{table}\['head.bias'\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index, table", [(0, "parameter"), (1, "m"), (2, "v")])
    def test_repeated_tensor_name_rejected_by_name(self, index, table, tmp_path, monkeypatch):
        """A table that lists a name twice, shape and checksum valid, would load its last copy."""
        write = train._write_tensor_table
        tables = []

        def repeat_head_bias(chunks, entries):
            if len(tables) == index:
                entries = entries + [("head.bias", np.full(4, 7.0), True)]
            tables.append(entries)
            write(chunks, entries)

        monkeypatch.setattr(train, "_write_tensor_table", repeat_head_bias)
        path = tmp_path / "twice.ckpt"
        save_checkpoint(TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0),
                        path)
        with pytest.raises(CheckpointError, match=f"^the {table} table lists 'head.bias' twice$"):
            load_checkpoint(path)

    @staticmethod
    def _fresh_blob(tmp_path, config=None) -> tuple[TrainState, bytes]:
        state = TrainState.create(init_params(config or tiny_vit_config(),
                                              np.random.default_rng(0)), 0)
        save_checkpoint(state, tmp_path / "fresh.ckpt")
        return state, (tmp_path / "fresh.ckpt").read_bytes()

    @staticmethod
    def _rng_block_start(state: TrainState, blob: bytes) -> int:
        """Offset of the rng block's length field, the last block before the CRC-32."""
        stored = json.dumps(state.rng.bit_generator.state, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        return len(blob) - 4 - len(stored) - 4

    def _with_rng_block(self, state: TrainState, blob: bytes, rng_json: bytes) -> bytes:
        return _sealed(blob[:self._rng_block_start(state, blob)]
                       + struct.pack("<I", len(rng_json)) + rng_json)

    @staticmethod
    def _with_config_block(blob: bytes, config_json: bytes) -> bytes:
        (stored,) = struct.unpack("<I", blob[8:12])
        return _sealed(blob[:8] + struct.pack("<I", len(config_json)) + config_json
                       + blob[12 + stored:-4])

    @pytest.mark.parametrize("rng_json", [b"[]", b'{"bit_generator":"MT19937"}'])
    def test_rng_block_of_wrong_kind_rejected(self, rng_json, tmp_path):
        state, blob = self._fresh_blob(tmp_path)
        path = tmp_path / "rng.ckpt"
        path.write_bytes(self._with_rng_block(state, blob, rng_json))
        with pytest.raises(CheckpointError, match="rng state"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["uinteger", "has_uint32", "state"])
    def test_rng_block_missing_key_rejected(self, key, tmp_path):
        state, blob = self._fresh_blob(tmp_path)
        rng_state = dict(state.rng.bit_generator.state)
        del rng_state[key]
        path = tmp_path / "rng.ckpt"
        path.write_bytes(self._with_rng_block(state, blob, json.dumps(rng_state).encode("utf-8")))
        with pytest.raises(CheckpointError, match="rng state"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("image_size", 0), ("patch_size", 0),
                                           ("mask_ratio", 1.5)])
    def test_invalid_architecture_block_rejected(self, key, value, tmp_path):
        _, blob = self._fresh_blob(tmp_path)
        config = json.loads(blob[12:12 + struct.unpack("<I", blob[8:12])[0]])
        config[key] = value
        path = tmp_path / "arch.ckpt"
        path.write_bytes(self._with_config_block(blob, json.dumps(config).encode("utf-8")))
        with pytest.raises(CheckpointError, match="architecture"):
            load_checkpoint(path)

    def test_byte_flips_raise_only_checkpoint_error(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # The smallest valid architecture: the blob is mostly structure, not payload.
        small = ViTConfig(image_size=4, channels=1, patch_size=4, enc_layers=1, enc_dim=4,
                          enc_heads=1, enc_mlp_ratio=1, dec_layers=1, dec_dim=4, dec_heads=1,
                          dec_mlp_ratio=1, num_classes=1)
        state, blob = self._fresh_blob(tmp_path, small)
        path = tmp_path / "flip.ckpt"
        config_end = 12 + struct.unpack("<I", blob[8:12])[0]
        # anywhere, or inside the architecture block, or inside the rng block
        position = st.one_of(st.integers(0, len(blob) - 1), st.integers(8, config_end - 1),
                             st.integers(self._rng_block_start(state, blob), len(blob) - 1))

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=3))
        def flip(edits):
            corrupt = bytearray(blob)
            for pos, mask in edits:
                corrupt[pos] ^= mask
            path.write_bytes(bytes(corrupt))
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass
            else:
                # CRC-32 catches every error confined to 32 consecutive bits
                changed = sum(a != b for a, b in zip(corrupt, blob))
                assert changed != 1, f"a single-byte flip loaded: {edits}"
            # with the checksum recomputed, the same damage reaches the parser
            path.write_bytes(_sealed(bytes(corrupt[:-4])))
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass

        flip()

    def test_every_single_byte_flip_rejected(self, tmp_path):
        _, blob = self._fresh_blob(tmp_path, ViTConfig(
            image_size=4, channels=1, patch_size=4, enc_layers=1, enc_dim=4, enc_heads=1,
            enc_mlp_ratio=1, dec_layers=1, dec_dim=4, dec_heads=1, dec_mlp_ratio=1,
            num_classes=1))
        path = tmp_path / "flip.ckpt"
        for pos in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[pos] ^= 0x01 << (pos % 8)
            path.write_bytes(bytes(corrupt))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_damaged_payload_names_the_checksum(self, tmp_path):
        _, blob = self._fresh_blob(tmp_path)
        corrupt = bytearray(blob)
        corrupt[len(blob) // 2] ^= 0x10              # inside a tensor payload
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(bytes(corrupt))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_version_one_file_rejected_by_its_version(self, pretrain_setup, tmp_path):
        """Version 1 was version 2 without the CRC-32 trailer; only version 2 loads."""
        _, ds = pretrain_setup
        state = self._trained_state(ds, epochs=1)
        v2 = tmp_path / "v2.ckpt"
        save_checkpoint(state, v2)
        blob = v2.read_bytes()
        assert struct.unpack("<I", blob[4:8]) == (2,)
        assert struct.unpack("<I", blob[-4:]) == (zlib.crc32(blob[:-4]),)
        v1 = tmp_path / "v1.ckpt"
        v1.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:-4])
        with pytest.raises(CheckpointError, match="^unsupported checkpoint version 1$"):
            load_checkpoint(v1)

    def test_resume_reproduces_uninterrupted_run(self, pretrain_setup, tmp_path):
        _, ds = pretrain_setup
        cfg = small_train_config()
        params_a = init_params(tiny_vit_config(), np.random.default_rng(0))
        state_a = TrainState.create(params_a, 0)
        for _ in range(4):
            pretrain_epoch(state_a, ds, cfg)
        full = tmp_path / "full.ckpt"
        save_checkpoint(state_a, full)

        params_b = init_params(tiny_vit_config(), np.random.default_rng(0))
        state_b = TrainState.create(params_b, 0)
        for _ in range(2):
            pretrain_epoch(state_b, ds, cfg)
        mid = tmp_path / "mid.ckpt"
        save_checkpoint(state_b, mid)
        resumed = load_checkpoint(mid)
        for _ in range(2):
            pretrain_epoch(resumed, ds, cfg)
        out = tmp_path / "resumed.ckpt"
        save_checkpoint(resumed, out)
        assert full.read_bytes() == out.read_bytes()

    def test_full_run_determinism(self, pretrain_setup, tmp_path):
        _, ds = pretrain_setup
        blobs = []
        for run in range(2):
            state = self._trained_state(ds, epochs=3)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(state, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# one epoch loop for both stages

def _two_loop_pretrain_epoch(state, dataset, config):
    """``pretrain_epoch`` as it was written before the stages shared ``_epoch``."""
    n = len(dataset)
    cfg = state.params.config
    steps_per_epoch = math.ceil(n / config.batch_size)
    warmup = config.warmup_epochs * steps_per_epoch
    total = config.total_epochs * steps_per_epoch
    sums = np.zeros(3)
    lr = 0.0
    batches = 0
    for idx in train._batches(n, config.batch_size, state.rng):
        x = dataset.images[idx]
        plan = sample_mask(cfg.num_patches, cfg.mask_ratio, state.rng, batch_size=len(idx))
        pert = attack_recon(state.params, x, plan, config.attack, state.rng)
        loss, mse_value, mi_value = _mimir_loss_parts(state.params, x, plan, pert.delta, config,
                                                      forward=pert.last_forward)
        state.params.zero_grads()
        ad.backward(loss)
        grads = {name: t.grad for name, t in state.params.trainable() if t.grad is not None}
        lr = cosine_lr(state.step, warmup, total, config.base_lr)
        adamw_step(state, grads, lr, config)
        sums += (mse_value, mi_value, pert.achieved_loss)
        batches += 1
    state.epoch += 1
    mse_mean, mi_mean, adv_mean = sums / batches
    return (mse_mean, mi_mean, adv_mean, lr)


def _two_loop_finetune_epoch(state, dataset, config):
    """``finetune_epoch`` as it was written, with its explicit filter of decoder gradients."""
    frozen = ("dec.", "dec_embed.", "dec_norm.", "dec_out.", "mask_token")
    n = len(dataset)
    steps_per_epoch = math.ceil(n / config.batch_size)
    warmup = config.warmup_epochs * steps_per_epoch
    total = config.total_epochs * steps_per_epoch
    scales = layer_lr_scales(state.params, config.layer_decay)
    sums = np.zeros(2)
    lr = 0.0
    batches = 0
    for idx in train._batches(n, config.batch_size, state.rng):
        x = dataset.images[idx]
        y = dataset.labels[idx]
        pert = attacks.attack_ce(state.params, x, y, config.attack, state.rng)
        loss = ad.cross_entropy(classify(state.params, Tensor(x + pert.delta)), y)
        state.params.zero_grads()
        ad.backward(loss)
        grads = {name: t.grad for name, t in state.params.trainable()
                 if t.grad is not None and not name.startswith(frozen)}
        lr = cosine_lr(state.step, warmup, total, config.base_lr)
        adamw_step(state, grads, lr, config, lr_scales=scales)
        sums += (loss.item(), pert.achieved_loss)
        batches += 1
    state.epoch += 1
    ce_mean, adv_mean = sums / batches
    return (ce_mean, 0.0, adv_mean, lr)


class TestEpochLoop:
    """Both stages on ``_epoch`` match their former loops bit for bit over 3 steps."""

    @staticmethod
    def _states():
        def make():
            params = init_params(tiny_vit_config(), np.random.default_rng(0))
            params["head.weight"].data = np.random.default_rng(2).normal(0, 0.2, size=(32, 4))
            return TrainState.create(params, 0)
        return make(), make()

    @staticmethod
    def _assert_same(metrics, reference, new, old):
        assert (metrics.loss_mse, metrics.loss_mi, metrics.loss_adv, metrics.lr) == reference
        _assert_same_state(new, old)

    def test_pretrain_matches_its_own_loop(self, pretrain_setup):
        _, ds = pretrain_setup
        config = small_train_config(batch_size=6, lam=1e-5)  # 16 images: 3 steps
        new, old = self._states()
        reference = _two_loop_pretrain_epoch(old, ds, config)
        self._assert_same(pretrain_epoch(new, ds, config), reference, new, old)
        assert new.step == 3

    def test_finetune_matches_its_own_loop(self, pretrain_setup):
        _, ds = pretrain_setup
        config = small_train_config(batch_size=6, lam=0.0, layer_decay=0.65, betas=(0.9, 0.999),
                                    attack=finetune_attack_spec(iters=2))
        new, old = self._states()
        reference = _two_loop_finetune_epoch(old, ds, config)
        self._assert_same(finetune_epoch(new, ds, config), reference, new, old)
        assert new.step == 3

    def test_a_batch_graph_dies_before_the_next_attack(self, pretrain_setup, monkeypatch):
        """The first batch's live forward is freed by the time the second batch's attack starts."""
        _, ds = pretrain_setup
        recons, alive = [], []
        attack = train.attack_recon

        def spy(*args):
            alive.append([ref() is not None for ref in recons])
            pert = attack(*args)
            assert pert.last_forward is not None
            recons.append(weakref.ref(pert.last_forward[1].data))
            return pert

        monkeypatch.setattr(train, "attack_recon", spy)
        state = self._states()[0]
        pretrain_epoch(state, ds, small_train_config(batch_size=len(ds) // 2))
        assert state.step == 2 and alive == [[], [False]]


# ---------------------------------------------------------------------------
# training on the attack's last forward

def _old_loss_parts(params, images, plan, delta, config):
    """The loss as the loop built it before it reused the attack's forward."""
    cfg = params.config
    x = np.asarray(images, dtype=np.float64)
    x_adv = Tensor(x + np.asarray(delta, dtype=np.float64))
    latent = encode(params, patchify(x_adv, cfg.patch_size), plan)
    recon_patches = decode(params, latent, plan)
    target_patches = patchify(Tensor(x), cfg.patch_size)
    if config.recon_masked_only:
        mse = ad.mse_loss(ad.gather_rows(recon_patches, plan.masked),
                          ad.gather_rows(target_patches, plan.masked))
    else:
        mse = ad.mse_loss(recon_patches, target_patches)
    if config.lam == 0.0:
        return mse, mse.item(), 0.0
    x_vis = ad.gather_rows(patchify(x_adv, cfg.patch_size), plan.visible)
    pen = penalty_mi(x_vis, latent, PenaltyConfig(estimator=config.estimator))
    return ad.add(mse, ad.scale(pen, config.lam)), mse.item(), pen.item()


def _old_pretrain_epoch(state, dataset, config):
    """The loop as it was: the attack, then a fresh forward at x + delta."""
    n = len(dataset)
    steps = math.ceil(n / config.batch_size)
    warmup, total = config.warmup_epochs * steps, config.total_epochs * steps
    cfg = state.params.config
    sums = np.zeros(3)
    for idx in train._batches(n, config.batch_size, state.rng):
        x = dataset.images[idx]
        plan = sample_mask(cfg.num_patches, cfg.mask_ratio, state.rng, batch_size=len(idx))
        pert = attack_recon(state.params, x, plan, config.attack, state.rng)
        loss, mse_value, mi_value = _old_loss_parts(state.params, x, plan, pert.delta, config)
        state.params.zero_grads()
        ad.backward(loss)
        grads = {name: t.grad for name, t in state.params.trainable() if t.grad is not None}
        adamw_step(state, grads, cosine_lr(state.step, warmup, total, config.base_lr), config)
        sums += (mse_value, mi_value, pert.achieved_loss)
    state.epoch += 1
    return tuple(sums / steps)


@pytest.fixture
def trainer_attacks(monkeypatch):
    """Every ``pgd`` call that scores its last iterate on live parameters, as
    ``(perturbation, score of the last iterate)``."""
    calls = []
    real_pgd = attacks.pgd

    def spy(objective, x, spec, rng, extra_project=None, score_last=None):
        if score_last is None:
            return real_pgd(objective, x, spec, rng, extra_project)
        scores = []

        def recording(x_adv):
            score, built = score_last(x_adv)
            scores.append(score.item())
            return score, built

        pert = real_pgd(objective, x, spec, rng, extra_project, recording)
        calls.append((pert, scores[-1]))
        return pert

    monkeypatch.setattr(attacks, "pgd", spy)
    return calls


def _assert_same_state(a: TrainState, b: TrainState):
    assert (a.step, a.epoch) == (b.step, b.epoch)
    for name, t in a.params.tensors.items():
        assert t.data.tobytes() == b.params[name].data.tobytes(), name
    for name in a.m:
        assert a.m[name].tobytes() == b.m[name].tobytes(), name
        assert a.v[name].tobytes() == b.v[name].tobytes(), name


class TestTrainOnAttackForward:
    @staticmethod
    def _compare(ds, config, trainer_attacks, gain=1.0):
        def make_state():
            params = init_params(tiny_vit_config(), np.random.default_rng(0))
            for _, t in params.trainable():
                t.data = t.data * gain
            return TrainState.create(params, 0)

        new, old = make_state(), make_state()
        old_metrics = _old_pretrain_epoch(old, ds, config)
        trainer_attacks.clear()  # keep the attacks of the loop under test
        m = pretrain_epoch(new, ds, config)
        assert (m.loss_mse, m.loss_mi, m.loss_adv) == old_metrics
        _assert_same_state(new, old)

    @pytest.mark.parametrize("epsilon", [8 / 255, 0.0], ids=["eps-8/255", "eps-0"])
    def test_pretrain_step_runs_two_autoencoder_forwards(self, pretrain_setup, monkeypatch,
                                                         epsilon):
        """At epsilon = 0 the last iterate ties the start, and its forward is kept as well."""
        _, ds = pretrain_setup
        spec = AttackSpec(epsilon=epsilon, step_size=10 / 255, iters=1, init="random")
        counts = {"encode": 0, "decode": 0, "patchify": 0}
        for name in counts:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in (model, attacks, train):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        state = TrainState.create(init_params(tiny_vit_config(), np.random.default_rng(0)), 0)
        pretrain_epoch(state, ds, small_train_config(batch_size=len(ds), attack=spec))  # one step
        # attack iterate + last iterate (kept); patchify also builds the attack's and the loss's
        # MSE targets and the penalty's patches of x + delta
        assert counts == {"encode": 2, "decode": 2, "patchify": 5}

    @pytest.mark.parametrize("overrides", [dict(lam=1e-5), dict(lam=0.0),
                                           dict(lam=1e-5, recon_masked_only=True)],
                             ids=["lambda-1e-5", "lambda-0", "masked-only"])
    def test_pretrain_bit_identical_to_fresh_forward(self, pretrain_setup, trainer_attacks,
                                                     overrides):
        _, ds = pretrain_setup
        config = small_train_config(batch_size=6, **overrides)  # 16 images: 3 steps
        self._compare(ds, config, trainer_attacks)
        assert len(trainer_attacks) == 3
        assert any(pert.last_forward is not None for pert, _ in trainer_attacks)

    def test_last_iterate_that_ties_the_start_is_kept(self, pretrain_setup, trainer_attacks):
        """With epsilon = 0 every iterate is x itself: the last one ties the start."""
        _, ds = pretrain_setup
        spec = AttackSpec(epsilon=0.0, step_size=10 / 255, iters=1, init="random")
        self._compare(ds, small_train_config(batch_size=len(ds), attack=spec), trainer_attacks)
        ((pert, last_score),) = trainer_attacks
        assert pert.last_forward is not None
        assert last_score == pert.achieved_loss and not np.any(pert.delta)

    def test_last_iterate_that_loses_rebuilds(self, pretrain_setup, trainer_attacks):
        """Weights 30 times their init bend the objective within a 0.9 ball, so that the third
        step of 0.9 lands below an earlier iterate."""
        _, ds = pretrain_setup
        spec = AttackSpec(epsilon=0.9, step_size=0.9, iters=3, init="random")
        self._compare(ds, small_train_config(batch_size=len(ds), attack=spec), trainer_attacks,
                      gain=30.0)
        ((pert, last_score),) = trainer_attacks
        assert last_score < pert.achieved_loss
        assert pert.last_forward is None

    def test_point_that_fails_the_round_trip_rebuilds(self, pretrain_setup, trainer_attacks):
        """x + (p - x) != p: the box pins pixels to p = 1e-10 next to x = 0.02."""
        low, x_value = 1e-10, 0.02
        assert x_value + (low - x_value) != low
        _, base = pretrain_setup
        ds = synth_dataset(4, 4, 16, 0.0, np.random.default_rng(3), channels=1)
        ds.images = np.full_like(base.images, x_value)
        spec = AttackSpec(epsilon=8 / 255, step_size=10 / 255, iters=1, init="random",
                          box=(low, 1.0))
        self._compare(ds, small_train_config(batch_size=len(ds), attack=spec), trainer_attacks)
        ((pert, last_score),) = trainer_attacks
        assert last_score == pert.achieved_loss          # the last iterate won ...
        moved = ds.images + pert.delta
        pinned = np.abs(moved - low) < 1e-15
        assert pinned.any() and np.all(moved[pinned] != low)
        assert pert.last_forward is None                 # ... but x + delta is not its bits


class TestHelperThreadsInTraining:
    """Which helper threads a training step starts, and that none moves a bit."""

    def _started(self, monkeypatch, workers=2):
        monkeypatch.setattr(rt, "workers", lambda: workers)
        started = []
        run_shares = rt.run_shares
        monkeypatch.setattr(rt, "run_shares",
                            lambda task, count: started.append(count) or run_shares(task, count))
        return started

    def _pretrain_step_grads(self, mid32_config):
        params = init_params(mid32_config, np.random.default_rng(0))
        dataset = synth_dataset(10, 2, 32, 0.1, np.random.default_rng(1), channels=3)
        state = TrainState.create(params, 2)
        x = dataset.images[:13]
        plan = sample_mask(64, 0.75, state.rng, batch_size=13)
        pert = attack_recon(params, x, plan, pretrain_attack_spec(), state.rng)
        config = small_train_config(batch_size=13, lam=0.5)
        loss, _, _ = _mimir_loss_parts(params, x, plan, pert.delta, config,
                                       forward=pert.last_forward)
        ad.backward(loss)
        return {name: t.grad for name, t in params.trainable()}

    def test_pretrain_grads_equal_in_shares_and_whole(self, mid32_config, monkeypatch):
        started = self._started(monkeypatch)
        shared = self._pretrain_step_grads(mid32_config)
        # the attack's pass and its backward, the live last-iterate score, the training backward
        assert started == [2, 2, 2, 2]
        monkeypatch.setattr(rt, "workers", lambda: 1)
        whole = self._pretrain_step_grads(mid32_config)
        assert started == [2, 2, 2, 2]
        assert [name for name, grad in shared.items() if grad is None] == ["head.weight",
                                                                           "head.bias"]
        for name, grad in shared.items():
            if grad is None:
                assert whole[name] is None
            else:
                assert np.array_equal(grad.view(np.int64), whole[name].view(np.int64)), name

    def test_finetune_tiny16_step_starts_no_helper(self, tiny_config, tiny_dataset, monkeypatch):
        started = self._started(monkeypatch)
        state = TrainState.create(init_params(tiny_config, np.random.default_rng(0)), 0)
        config = TrainConfig(base_lr=1e-3, total_epochs=2, batch_size=16,
                             attack=finetune_attack_spec(), lam=0.0, layer_decay=0.65)
        finetune_epoch(state, tiny_dataset, config)
        assert started == []


@pytest.fixture(scope="module")
def mid32_batch():
    """13 CIFAR-shaped images: three forward chunks, the last one partial."""
    ds = synth_dataset(10, 2, 32, 0.1, np.random.default_rng(1), channels=3)
    return Dataset(images=ds.images[:13], labels=ds.labels[:13], split=ds.split, num_classes=10)


class TestLiveSharesInTraining:
    """A 13-image mid32 training step, whose live passes run in shares, at 1, 2 and 3 workers:
    every ``.grad``, parameter and optimizer moment is the same bits."""

    @staticmethod
    def _step(mid32_config, batch, monkeypatch, workers, finetune=False,
              run_shares=rt.run_shares, **overrides):
        monkeypatch.setattr(rt, "workers", lambda: workers)
        shares = []
        monkeypatch.setattr(rt, "run_shares",
                            lambda task, count: shares.append(count) or run_shares(task, count))
        params = init_params(mid32_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(5).normal(size=(96, 10))
        state = TrainState.create(params, 2)
        if finetune:
            config = small_train_config(batch_size=13, lam=0.0, layer_decay=0.65,
                                        attack=finetune_attack_spec(iters=1))
            finetune_epoch(state, batch, config)
        else:
            pretrain_epoch(state, batch, small_train_config(batch_size=13, lam=0.5, **overrides))
        return state, {name: t.grad for name, t in params.trainable()}, shares

    @staticmethod
    def _assert_same(runs, passes):
        """``passes`` calls of ``run_shares`` per step, each over ``workers`` shares."""
        assert {workers: shares for workers, (_, _, shares) in runs.items()} == {
            1: [], 2: [2] * passes, 3: [3] * passes}
        state, grads, _ = runs[1]
        for other, other_grads, _ in runs.values():
            assert other_grads.keys() == grads.keys()
            for name, grad in grads.items():
                if grad is None:
                    assert other_grads[name] is None, name
                else:
                    assert np.array_equal(other_grads[name].view(np.int64),
                                          grad.view(np.int64)), name
            _assert_same_state(other, state)

    @pytest.mark.parametrize("forward", ["kept", "fresh"])
    @pytest.mark.parametrize("masked_only", [False, True], ids=["all-patches", "masked-only"])
    @pytest.mark.parametrize("estimator", ["hsic", "renyi2"])
    def test_pretrain_step(self, mid32_config, mid32_batch, monkeypatch, estimator, masked_only,
                           forward):
        kept = []
        real = train.attack_recon

        def spy(*args, **kwargs):
            pert = real(*args, **kwargs)
            kept.append(pert.last_forward is not None)
            if forward == "fresh":
                pert.last_forward = None  # the loop then runs its own forward
            return pert

        monkeypatch.setattr(train, "attack_recon", spy)
        runs = {workers: self._step(mid32_config, mid32_batch, monkeypatch, workers,
                                    estimator=estimator, recon_masked_only=masked_only)
                for workers in (1, 2, 3)}
        assert kept == [True] * 3
        # the attack's pass and its backward, the live last-iterate score, the fresh forward if
        # any, and the training backward
        self._assert_same(runs, passes={"kept": 4, "fresh": 5}[forward])

    def test_finetune_step_through_classify(self, mid32_config, mid32_batch, monkeypatch):
        runs = {workers: self._step(mid32_config, mid32_batch, monkeypatch, workers, finetune=True)
                for workers in (1, 2, 3)}
        # the attack's pass, its backward and its last-iterate score; then the training forward
        # and backward
        self._assert_same(runs, passes=5)


# A 32-image pre-training step of the CIFAR-shaped benchmark model at ``argv[1]`` workers;
# prints the peak RSS in MiB.
_PRETRAIN_PEAK = """
import resource
import sys
import numpy as np
from mimir import _runtime
from mimir.attacks import pretrain_attack_spec
from mimir.data import Dataset, synth_dataset
from mimir.model import ViTConfig, init_params
from mimir.train import TrainConfig, TrainState, pretrain_epoch

_runtime.workers = lambda: int(sys.argv[1])
config = ViTConfig(image_size=32, channels=3, patch_size=4, enc_layers=6, enc_dim=96, enc_heads=4,
                   enc_mlp_ratio=4, dec_layers=2, dec_dim=64, dec_heads=4, dec_mlp_ratio=4,
                   num_classes=10, mask_ratio=0.75)
state = TrainState.create(init_params(config, np.random.default_rng(0)), 0)
data = synth_dataset(4, 8, 32, 0.1, np.random.default_rng(1), channels=3)
pretrain_epoch(state, data, TrainConfig(base_lr=1e-3, total_epochs=2, batch_size=32,
                                        attack=pretrain_attack_spec()))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the one-arena heap policy applies to glibc only")
def test_live_shares_keep_the_peak_rss_of_one_thread():
    """A share sums each parameter edge on from the share before it and holds no stack of terms.
    On a 2-core VM the 2-worker step peaked 2-6 MiB above the 1-worker one; a share that kept
    its terms until the end would add some 50 MiB."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ad.__file__))
    env["PYTHONWARNINGS"] = CHILD_WARNINGS

    def peak_mib(workers):
        return int(subprocess.run([sys.executable, "-c", _PRETRAIN_PEAK, str(workers)], env=env,
                                  check=True, capture_output=True, text=True).stdout)

    assert peak_mib(2) - peak_mib(1) <= 16
