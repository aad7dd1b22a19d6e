import math
import struct

import numpy as np
import pytest

from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import AttackSpec, finetune_attack_spec, pretrain_attack_spec
from mimir.data import synth_dataset
from mimir.mi import PenaltyConfig, median_bandwidth
from mimir.model import ModelParams, ViTConfig, classify, encode, init_params, patchify, sample_mask
from mimir.train import (CheckpointError, TrainConfig, TrainState, adamw_step, cosine_lr,
                         finetune_epoch, layer_lr_scales, load_checkpoint, mimir_loss,
                         pretrain_epoch, save_checkpoint, _mimir_loss_parts)

from conftest import tiny_vit_config


def small_train_config(**overrides):
    base = dict(base_lr=1e-3, total_epochs=4, batch_size=8, attack=pretrain_attack_spec(),
                warmup_epochs=1, lam=1e-5, estimator="hsic")
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_warmup_must_be_less_than_total(self):
        with pytest.raises(ValueError):
            small_train_config(warmup_epochs=4, total_epochs=4)

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

    def test_step_counter_increments(self):
        state = self._state()
        adamw_step(state, {}, 0.01, small_train_config())
        assert state.step == 1


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
        with pytest.raises(ValueError):
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
                            sigma_y=median_bandwidth(base_latent.z.data.reshape(3, -1)))

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
