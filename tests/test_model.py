import numpy as np
import pytest

from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.model import (MaskPlan, ViTConfig, classify, decode, encode,
                         forward_autoencoder, full_visibility_plan, init_params, patchify,
                         sample_mask, sincos_position_table, unpatchify, visible_count,
                         _pixel_mask)

from conftest import tiny_vit_config


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ValueError):
            ViTConfig(image_size=10, patch_size=3)

    def test_head_dim_divisibility(self):
        with pytest.raises(ValueError):
            tiny_vit_config(enc_dim=30, enc_heads=4)

    def test_default_mask_ratio(self):
        assert ViTConfig(image_size=32).mask_ratio == 0.75

    def test_cifar_patching(self):
        cfg = ViTConfig(image_size=32, channels=3, patch_size=2)
        assert cfg.num_patches == 256
        assert cfg.patch_dim == 12


class TestPatchify:
    def test_cifar_scale_shapes(self):
        imgs = Tensor(np.zeros((2, 3, 32, 32)))
        assert patchify(imgs, 2).shape == (2, 256, 12)

    def test_small_shapes(self):
        imgs = Tensor(np.zeros((1, 1, 8, 8)))
        assert patchify(imgs, 4).shape == (1, 4, 16)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            patchify(Tensor(np.zeros((1, 1, 10, 10))), 3)

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        for size, patch, ch in ((8, 2, 1), (8, 4, 3), (16, 4, 2), (12, 3, 1)):
            imgs = rng.uniform(size=(2, ch, size, size))
            back = unpatchify(patchify(Tensor(imgs), patch), patch, ch)
            assert np.array_equal(back.data, imgs)

    def test_gradients_flow_through(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(16, 1)))

        def f(t):
            return ad.reduce_sum(ad.matmul(patchify(t, 4), w))

        report = ad.finite_diff_check(f, Tensor(rng.uniform(size=(1, 1, 8, 8))), 1e-4)
        assert report.max_rel_error < 1e-6


class TestSampleMask:
    def test_75_percent_of_16(self):
        plan = sample_mask(16, 0.75, np.random.default_rng(0), batch_size=2)
        assert plan.num_visible == 4
        assert plan.masked.shape == (2, 12)

    def test_ratio_zero_all_visible(self):
        plan = sample_mask(16, 0.0, np.random.default_rng(0))
        assert plan.num_visible == 16

    def test_same_seed_identical(self):
        a = sample_mask(16, 0.75, np.random.default_rng(42), batch_size=3)
        b = sample_mask(16, 0.75, np.random.default_rng(42), batch_size=3)
        assert np.array_equal(a.perm, b.perm)

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError):
            sample_mask(16, 1.0, np.random.default_rng(0))

    def test_visible_floor_with_minimum(self):
        assert visible_count(16, 0.75) == 4
        assert visible_count(10, 0.75) == 2
        assert visible_count(4, 0.9) == 1

    def test_partition(self):
        plan = sample_mask(9, 0.6, np.random.default_rng(3), batch_size=2)
        for b in range(2):
            union = np.sort(np.concatenate([plan.visible[b], plan.masked[b]]))
            assert np.array_equal(union, np.arange(9))


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_vit_config()
    rng = np.random.default_rng(7)
    params = init_params(cfg, rng)
    imgs = rng.uniform(size=(3, 1, 16, 16))
    plan = sample_mask(cfg.num_patches, cfg.mask_ratio, rng, batch_size=3)
    return cfg, params, imgs, plan


class TestEncodeDecode:

    def test_latent_shape(self, setup):
        cfg, params, imgs, plan = setup
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        assert latent.z.shape == (3, 4, 32)

    def test_wrong_patch_count_rejected(self, setup):
        cfg, params, imgs, plan = setup
        bad_plan = sample_mask(4, 0.5, np.random.default_rng(0), batch_size=3)
        with pytest.raises(ValueError):
            encode(params, patchify(Tensor(imgs), cfg.patch_size), bad_plan)

    def test_full_visibility_covers_all(self, setup):
        cfg, params, imgs, _ = setup
        plan = full_visibility_plan(cfg.num_patches, 3)
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        assert latent.z.shape == (3, 16, 32)

    def test_decode_shape(self, setup):
        cfg, params, imgs, plan = setup
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        assert decode(params, latent, plan).shape == (3, 16, 16)

    def test_decode_plan_mismatch_rejected(self, setup):
        cfg, params, imgs, plan = setup
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        other = sample_mask(cfg.num_patches, cfg.mask_ratio, np.random.default_rng(99), batch_size=3)
        with pytest.raises(ValueError):
            decode(params, latent, other)

    def test_masked_order_is_irrelevant(self, setup):
        """Swapping two masked entries in the plan leaves the decode output unchanged:
        every masked slot holds the same shared token and position comes from the
        restored patch id."""
        cfg, params, imgs, plan = setup
        swapped = plan.perm.copy()
        swapped[:, [plan.num_visible, plan.num_visible + 1]] = \
            swapped[:, [plan.num_visible + 1, plan.num_visible]]
        plan_b = MaskPlan(perm=swapped, num_visible=plan.num_visible)
        patches = patchify(Tensor(imgs), cfg.patch_size)
        out_a = decode(params, encode(params, patches, plan), plan)
        out_b = decode(params, encode(params, patches, plan_b), plan_b)
        assert np.array_equal(out_a.data, out_b.data)

    def test_visible_set_permutation_consistency(self, setup):
        """Shuffling the order of the visible entries only permutes the latent rows."""
        cfg, params, imgs, plan = setup
        rng = np.random.default_rng(5)
        shuffle = rng.permutation(plan.num_visible)
        perm_b = plan.perm.copy()
        perm_b[:, :plan.num_visible] = perm_b[:, :plan.num_visible][:, shuffle]
        plan_b = MaskPlan(perm=perm_b, num_visible=plan.num_visible)
        patches = patchify(Tensor(imgs), cfg.patch_size)
        za = encode(params, patches, plan).z.data
        zb = encode(params, patches, plan_b).z.data
        assert np.max(np.abs(za[:, shuffle, :] - zb)) <= 1e-10


class TestAutoencoder:
    def test_shape_preserved(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        imgs = np.random.default_rng(1).uniform(size=(2, 1, 16, 16))
        plan = sample_mask(16, 0.75, np.random.default_rng(2), batch_size=2)
        out = forward_autoencoder(params, Tensor(imgs), plan)
        assert out.shape == (2, 1, 16, 16)

    def test_masked_input_gradients_exactly_zero(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        imgs = rng.uniform(size=(2, 1, 16, 16))
        plan = sample_mask(16, 0.75, rng, batch_size=2)
        x = Tensor(imgs, requires_grad=True)
        loss = ad.mse_loss(forward_autoencoder(params, x, plan), Tensor(imgs))
        ad.backward(loss)
        mask = _pixel_mask(plan, tiny_config)
        assert np.all(x.grad[mask] == 0.0)
        assert np.any(x.grad[~mask] != 0.0)


class TestClassify:
    def test_logit_shape(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        imgs = np.random.default_rng(1).uniform(size=(5, 1, 16, 16))
        assert classify(params, Tensor(imgs)).shape == (5, 4)

    def test_zero_head_gives_equal_logits(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        imgs = np.random.default_rng(1).uniform(size=(2, 1, 16, 16))
        logits = classify(params, Tensor(imgs)).data
        assert np.all(logits == logits[:, :1])

    def test_ten_class_config(self):
        cfg = tiny_vit_config(num_classes=10)
        params = init_params(cfg, np.random.default_rng(0))
        imgs = np.random.default_rng(1).uniform(size=(1, 1, 16, 16))
        assert classify(params, Tensor(imgs)).shape == (1, 10)

    def test_matches_full_visibility_encode(self, tiny_config):
        """With no masking and no perturbation the classifier and the encoder share
        the exact same activations."""
        params = init_params(tiny_config, np.random.default_rng(0))
        imgs = np.random.default_rng(1).uniform(size=(2, 1, 16, 16))
        latent = encode(params, patchify(Tensor(imgs), 4), full_visibility_plan(16, 2))
        pooled = ad.reduce_mean(latent.z, axes=1)
        manual = ad.add(ad.matmul(pooled, params["head.weight"]), params["head.bias"])
        assert np.array_equal(manual.data, classify(params, Tensor(imgs)).data)


class TestInit:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_params(tiny_config, np.random.default_rng(9))
        b = init_params(tiny_config, np.random.default_rng(9))
        assert set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_position_table_row_zero_closed_form(self):
        table = sincos_position_table(32, 4)
        expected = np.concatenate([np.zeros(8), np.ones(8), np.zeros(8), np.ones(8)])
        assert np.allclose(table[0], expected, atol=1e-15)

    def test_position_table_matches_direct_evaluation(self):
        table = sincos_position_table(8, 3)
        freq = 1.0 / (10000.0 ** (np.arange(2) / 2.0))
        row, col = 1, 2  # patch index 5 in a 3x3 grid
        expected = np.concatenate([np.sin(row * freq), np.cos(row * freq),
                                   np.sin(col * freq), np.cos(col * freq)])
        assert np.allclose(table[5], expected, atol=1e-15)

    def test_head_and_biases_zero(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        assert np.all(params["head.weight"].data == 0.0)
        assert np.all(params["head.bias"].data == 0.0)
        assert np.all(params["patch_embed.bias"].data == 0.0)

    def test_truncated_normal_within_two_std(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        assert np.max(np.abs(params["patch_embed.weight"].data)) <= 0.04

    def test_position_tables_not_trainable(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        assert not params["enc_pos"].requires_grad
        assert not params["dec_pos"].requires_grad


class TestConstants:
    def test_equal_independent_and_constant(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        const = params.constants()
        assert const.config == params.config
        assert list(const.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            assert np.array_equal(const[name].data, t.data), name
            assert not np.shares_memory(const[name].data, t.data), name
            assert not const[name].requires_grad, name

    def test_forward_on_constants_builds_no_graph(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(size=(32, 4))
        imgs = np.random.default_rng(2).uniform(size=(2, 1, 16, 16))
        logits = classify(params.constants(), Tensor(imgs))
        assert not logits.requires_grad and logits.is_leaf
        assert np.array_equal(logits.data, classify(params, Tensor(imgs)).data)
