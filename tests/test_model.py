import os
import signal
import threading
import weakref

import numpy as np
import pytest

from mimir import _runtime as rt
from mimir import autodiff as ad
from mimir import model
from mimir.autodiff import Tensor
from mimir.model import (MaskPlan, ViTConfig, classify, decode, encode,
                         forward_autoencoder, init_params, patchify,
                         sample_mask, sincos_position_table, unpatchify, visible_count,
                         _pixel_mask)

from conftest import tiny_vit_config


def _identity_plan(num_patches, batch):
    """Every patch visible, in order."""
    return MaskPlan(perm=np.tile(np.arange(num_patches), (batch, 1)), num_visible=num_patches)


class TestConfig:
    def test_indivisible_image_rejected(self):
        with pytest.raises(ValueError):
            ViTConfig(image_size=10, patch_size=3)

    def test_head_dim_divisibility(self):
        with pytest.raises(ValueError):
            tiny_vit_config(enc_dim=30, enc_heads=4)

    def test_default_mask_ratio(self):
        assert ViTConfig(image_size=32).mask_ratio == 0.75

    @pytest.mark.parametrize("key", ["patch_size", "enc_heads", "dec_heads"])
    def test_zero_divisor_extent_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be a positive integer, got 0$"):
            tiny_vit_config(**{key: 0})

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

    @pytest.mark.parametrize("shape, batch, mask_ratio", [("tiny16", 16, 0.75), ("mid32", 32, 0.75),
                                                          ("tiny16", 16, 0.0)],
                             ids=["tiny16", "mid32", "mask-ratio-0"])
    def test_pixel_mask_is_the_unpatchified_patch_flags(self, shape, batch, mask_ratio, tiny_config,
                                                        mid32_config):
        """``_pixel_mask`` builds in numpy the mask that unpatchifying per-patch flags gives."""
        cfg = {"tiny16": tiny_config, "mid32": mid32_config}[shape]
        for seed in range(3):
            plan = sample_mask(cfg.num_patches, mask_ratio, np.random.default_rng(seed), batch)
            flags = np.zeros((batch, cfg.num_patches, cfg.patch_dim))
            flags[np.arange(batch)[:, None], plan.masked] = 1.0
            expected = unpatchify(Tensor(flags), cfg.patch_size, cfg.channels).data > 0.5
            got = _pixel_mask(plan, cfg)
            assert got.dtype == bool and np.array_equal(got, expected)
            assert got.sum() == batch * (cfg.num_patches - plan.num_visible) * cfg.patch_dim


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
        assert latent.shape == (3, 4, 32)

    def test_wrong_patch_count_rejected(self, setup):
        cfg, params, imgs, plan = setup
        bad_plan = sample_mask(4, 0.5, np.random.default_rng(0), batch_size=3)
        with pytest.raises(ValueError):
            encode(params, patchify(Tensor(imgs), cfg.patch_size), bad_plan)

    def test_full_visibility_covers_all(self, setup):
        cfg, params, imgs, _ = setup
        plan = _identity_plan(cfg.num_patches, 3)
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        assert latent.shape == (3, 16, 32)

    def test_decode_shape(self, setup):
        cfg, params, imgs, plan = setup
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        assert decode(params, latent, plan).shape == (3, 16, 16)

    def test_decode_token_count_mismatch_rejected(self, setup):
        cfg, params, imgs, plan = setup
        latent = encode(params, patchify(Tensor(imgs), cfg.patch_size), plan)
        wider = MaskPlan(perm=plan.perm, num_visible=plan.num_visible + 1)
        with pytest.raises(ValueError, match="decode: latent has 4 tokens, plan expects 5"):
            decode(params, latent, wider)

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
        za = encode(params, patches, plan).data
        zb = encode(params, patches, plan_b).data
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
        latent = encode(params, patchify(Tensor(imgs), 4), _identity_plan(16, 2))
        pooled = ad.reduce_mean(latent, axes=1)
        manual = ad.add(ad.matmul(pooled, params["head.weight"]), params["head.bias"])
        assert np.array_equal(manual.data, classify(params, Tensor(imgs)).data)


class TestEncodeFull:
    def test_matches_encode_under_full_visibility_plan(self, tiny_config):
        """The identity plan skips the gather; outputs and input gradients stay exact."""
        rng = np.random.default_rng(11)
        params = init_params(tiny_config, rng)
        imgs = rng.uniform(size=(3, 1, 16, 16))
        weights = Tensor(rng.normal(size=(3, 16, 32)))
        results = []
        for run in (lambda x: model.encode_full(params, x),
                    lambda x: encode(params, patchify(x, 4), _identity_plan(16, 3))):
            x = Tensor(imgs, requires_grad=True)
            z = run(x)
            ad.backward(ad.reduce_sum(ad.mul(z, weights)))
            results.append((z.data, x.grad))
        (z_full, grad_full), (z_ref, grad_ref) = results
        assert np.array_equal(z_full, z_ref)
        assert np.array_equal(grad_full, grad_ref)

    def test_no_gather_in_graph(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).uniform(size=(2, 1, 16, 16)), requires_grad=True)
        ops, stack, seen = set(), [ad._vertex(model.encode_full(params, x))], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen and not node.is_leaf:
                seen.add(id(node))
                ops.add(node._op)
                stack.extend(parent for parent, _ in node._parents)
        assert "linear" in ops and "gather_rows" not in ops

    def test_wrong_channel_count_rejected(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        with pytest.raises(ValueError, match="encode: expected"):
            model.encode_full(params, Tensor(np.zeros((1, 3, 16, 16))))


def _images(cfg, batch, seed=1):
    return np.random.default_rng(seed).uniform(size=(batch, cfg.channels, cfg.image_size,
                                                     cfg.image_size))


def _encoder_batches(monkeypatch):
    """Spy on ``_encoder``: the batch size of every call, in order, on the calling thread only."""
    batches = []
    encoder = model._encoder

    def spy(params, tokens, pos):
        batches.append(tokens.shape[0])
        return encoder(params, tokens, pos)

    monkeypatch.setattr(model, "_encoder", spy)
    monkeypatch.setattr(rt, "workers", lambda: 1)
    return batches


def _marked_images(cfg, batch):
    """``_images`` whose first pixel is the image's index, which is its chunk's first token value."""
    imgs = _images(cfg, batch)
    imgs[:, 0, 0, 0] = np.arange(batch)
    return imgs


def _encoder_threads(monkeypatch, fail=()):
    """Spy on ``_encoder`` over ``_marked_images``: (first image, size, thread) of each chunk done.

    A chunk whose first image is in ``fail`` raises instead of running.
    """
    done = []
    encoder = model._encoder

    def spy(params, tokens, pos):
        first = int(tokens.data[0, 0, 0])
        if first in fail:
            raise FloatingPointError(f"chunk at image {first}")
        out = encoder(params, tokens, pos)
        done.append((first, tokens.shape[0], threading.get_ident()))
        return out

    monkeypatch.setattr(model, "_encoder", spy)
    return done


def _shares(batch, chunk, workers):
    """(first image, size) of every chunk, grouped in the even shares ``encode_full`` runs:
    each share runs its own images in chunks from its first image on."""
    return [[(start, min(chunk, share[-1] + 1 - start))
             for start in range(share[0], share[-1] + 1, chunk)]
            for share in np.array_split(np.arange(batch), min(workers, batch))]


class TestForwardOnlyChunks:
    """Forward-only ``encode_full`` runs the encoder over chunks of images."""

    def test_chunk_size_from_the_widest_activation(self, tiny_config, mid32_config):
        assert model._forward_chunk(mid32_config) == 5   # 192 KiB of MLP hidden per image
        assert model._forward_chunk(tiny_config) == 64   # 16 KiB per image

    @pytest.mark.parametrize("batch, chunks", [(13, [5, 5, 3]), (10, [5, 5]), (1, [1]),
                                               (64, [5] * 12 + [4])])
    def test_bit_identical_to_the_graph_path(self, mid32_config, monkeypatch, batch, chunks):
        params = init_params(mid32_config, np.random.default_rng(0))
        imgs = _images(mid32_config, batch)
        batches = _encoder_batches(monkeypatch)
        graph = model.encode_full(params, Tensor(imgs))
        assert graph.requires_grad and batches == [batch]
        batches.clear()
        chunked = model.encode_full(params.constants(), Tensor(imgs))
        assert batches == chunks
        assert not chunked.requires_grad and chunked.is_leaf
        assert chunked.shape == (batch, mid32_config.num_patches, mid32_config.enc_dim)
        assert np.array_equal(chunked.data.view(np.int64), graph.data.view(np.int64))

    @pytest.mark.parametrize("budget_images", [1, 2, 3, 4, 7])
    def test_every_chunk_size_gives_the_same_bits(self, tiny_config, monkeypatch, budget_images):
        params = init_params(tiny_config, np.random.default_rng(3))
        imgs = _images(tiny_config, 9)
        whole = model.encode_full(params.constants(), Tensor(imgs)).data
        widest = tiny_config.num_patches * tiny_config.enc_dim * tiny_config.enc_mlp_ratio * 8
        monkeypatch.setattr(model, "FORWARD_CHUNK_BYTES", budget_images * widest)
        chunked = model.encode_full(params.constants(), Tensor(imgs)).data
        assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))

    def test_classify_on_constants_returns_a_leaf(self, mid32_config, monkeypatch):
        params = init_params(mid32_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(size=(96, 10))
        imgs = _images(mid32_config, 13)
        batches = _encoder_batches(monkeypatch)
        logits = classify(params.constants(), Tensor(imgs))
        assert batches == [5, 5, 3]
        assert not logits.requires_grad and logits.is_leaf
        assert np.array_equal(logits.data, classify(params, Tensor(imgs)).data)

    def test_nan_in_the_last_chunk_raises(self, mid32_config, monkeypatch):
        imgs = _images(mid32_config, 13)
        imgs[-1, 0, 0, 0] = np.nan
        batches = _encoder_batches(monkeypatch)
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        with pytest.raises(FloatingPointError):
            model.encode_full(params, Tensor(imgs))
        assert batches == [5, 5, 3]

    def test_input_requiring_grad_gets_its_full_gradient(self, mid32_config, monkeypatch):
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        x = Tensor(_images(mid32_config, 13), requires_grad=True)
        batches = _encoder_batches(monkeypatch)
        z = model.encode_full(params, x)
        weights = Tensor(np.random.default_rng(4).normal(size=z.shape))
        ad.backward(ad.reduce_sum(ad.mul(z, weights)))
        assert batches == [13]
        assert x.grad is not None and x.grad.shape == x.shape
        assert np.all(np.abs(x.grad).reshape(13, -1).max(axis=1) > 0.0)


class TestInit:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_params(tiny_config, np.random.default_rng(9))
        b = init_params(tiny_config, np.random.default_rng(9))
        assert set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_draws_follow_the_layout_order(self, tiny_config):
        """Same names, order, flags and bytes as drawing tensor by tensor in layout order."""
        rng = np.random.default_rng(4)
        expected = {}

        def normal(name, shape):
            out = rng.normal(0.0, 0.02, size=shape)
            while (bad := np.abs(out) > 0.04).any():
                out[bad] = rng.normal(0.0, 0.02, size=int(bad.sum()))
            expected[name] = (out, True)

        def block(prefix, dim):
            expected[f"{prefix}.ln1.gamma"] = (np.ones(dim), True)
            expected[f"{prefix}.ln1.beta"] = (np.zeros(dim), True)
            for w in ("wq", "wk", "wv", "wo"):
                normal(f"{prefix}.attn.{w}", (dim, dim))
                if w != "wk":
                    expected[f"{prefix}.attn.b{w[1]}"] = (np.zeros(dim), True)
            expected[f"{prefix}.ln2.gamma"] = (np.ones(dim), True)
            expected[f"{prefix}.ln2.beta"] = (np.zeros(dim), True)
            normal(f"{prefix}.mlp.w1", (dim, 4 * dim))
            expected[f"{prefix}.mlp.b1"] = (np.zeros(4 * dim), True)
            normal(f"{prefix}.mlp.w2", (4 * dim, dim))
            expected[f"{prefix}.mlp.b2"] = (np.zeros(dim), True)

        normal("patch_embed.weight", (16, 32))
        expected["patch_embed.bias"] = (np.zeros(32), True)
        expected["enc_pos"] = (sincos_position_table(32, 4), False)
        for i in range(2):
            block(f"enc.{i}", 32)
        expected["enc_norm.gamma"] = (np.ones(32), True)
        expected["enc_norm.beta"] = (np.zeros(32), True)
        normal("dec_embed.weight", (32, 16))
        expected["dec_embed.bias"] = (np.zeros(16), True)
        normal("mask_token", (16,))
        expected["dec_pos"] = (sincos_position_table(16, 4), False)
        block("dec.0", 16)
        expected["dec_norm.gamma"] = (np.ones(16), True)
        expected["dec_norm.beta"] = (np.zeros(16), True)
        normal("dec_out.weight", (16, 16))
        expected["dec_out.bias"] = (np.zeros(16), True)
        expected["head.weight"] = (np.zeros((32, 4)), True)
        expected["head.bias"] = (np.zeros(4), True)

        params = init_params(tiny_config, np.random.default_rng(4))
        assert list(params.tensors) == list(expected)
        for name, (data, trainable) in expected.items():
            assert params[name].requires_grad == trainable, name
            assert params[name].data.tobytes() == data.tobytes(), name

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
    def test_equal_shared_read_only_and_constant(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        const = params.constants()
        assert const.config == params.config
        assert list(const.tensors) == list(params.tensors)
        for name, t in params.tensors.items():
            saved = t.data.tobytes()
            assert np.array_equal(const[name].data, t.data), name
            assert np.shares_memory(const[name].data, t.data), name
            assert not const[name].requires_grad and const[name].is_leaf, name
            with pytest.raises(ValueError, match="read-only"):
                const[name].data += 1.0
            with pytest.raises(ValueError, match="read-only"):
                const[name].data.reshape(-1)[0] = 0.0
            assert t.data.tobytes() == saved and t.data.flags.writeable, name

    def test_forward_on_constants_builds_no_graph(self, tiny_config):
        params = init_params(tiny_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(size=(32, 4))
        imgs = np.random.default_rng(2).uniform(size=(2, 1, 16, 16))
        logits = classify(params.constants(), Tensor(imgs))
        assert not logits.requires_grad and logits.is_leaf
        assert np.array_equal(logits.data, classify(params, Tensor(imgs)).data)


def _reference_linear(x, w, b=None):
    y = ad.matmul(x, w)
    return y if b is None else ad.add(y, b)


def _reference_attention(q, k, v, heads):
    """The multi-head core as separate matmul/reshape/transpose/scale/softmax ops."""
    b, n, dim = q.shape
    hd = dim // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (b, n, heads, hd)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    att = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd)), axis=-1)
    return ad.reshape(ad.transpose(ad.matmul(att, v), (0, 2, 1, 3)), (b, n, dim))


def _graph_nodes(out, stop):
    """Distinct non-leaf graph vertices between ``out`` and the tensor ``stop``."""
    stop, seen, stack = ad._vertex(stop), set(), [ad._vertex(out)]
    while stack:
        node = stack.pop()
        if id(node) in seen or node is stop or node.is_leaf:
            continue
        seen.add(id(node))
        stack.extend(parent for parent, _ in node._parents)
    return len(seen)


class TestGraphMemory:
    """An attack graph on constants keeps no q/k/v projection, and no gradient bit moves."""

    @pytest.mark.parametrize("shares", [1, 2])
    def test_attack_graph_keeps_no_projection(self, tiny_config, monkeypatch, shares):
        if shares > 1:  # one image per chunk, so the pass runs in two image shares
            monkeypatch.setattr(model, "_forward_chunk", lambda config: 1)
            monkeypatch.setattr(rt, "workers", lambda: shares)
        params = init_params(tiny_config, np.random.default_rng(0)).constants()
        rng = np.random.default_rng(1)
        imgs = rng.uniform(size=(3, 1, 16, 16))
        plan = sample_mask(tiny_config.num_patches, tiny_config.mask_ratio, rng, batch_size=3)
        attention, result = ad.attention, ad._result

        def run(hold_all):
            """(projections alive after the forward, projections made, the input gradient)."""
            projections, held = [], []

            def spy_attention(q, k, v, heads):
                projections.extend(weakref.ref(t.data) for t in (q, k, v))
                return attention(q, k, v, heads)

            def holding(*args, **kwargs):
                held.append(result(*args, **kwargs))
                return held[-1]

            monkeypatch.setattr(ad, "attention", spy_attention)
            monkeypatch.setattr(ad, "_result", holding if hold_all else result)
            x = Tensor(imgs, requires_grad=True)
            out = forward_autoencoder(params, x, plan)
            alive = sum(ref() is not None for ref in projections)
            ad.backward(ad.mse_loss(out, Tensor(imgs)))
            return alive, len(projections), x.grad

        alive, made, grad = run(hold_all=False)
        held_alive, held_made, held_grad = run(hold_all=True)
        layers = tiny_config.enc_layers + tiny_config.dec_layers
        assert made == held_made == 3 * layers * shares
        assert alive == 0 and held_alive == held_made
        assert np.array_equal(grad.view(np.int64), held_grad.view(np.int64))


class TestFusedOps:
    @pytest.fixture()
    def perturbed(self, tiny_config):
        rng = np.random.default_rng(3)
        params = init_params(tiny_config, rng)
        for _, t in params.trainable():  # non-zero head and biases
            t.data = t.data + rng.normal(0.0, 0.3, size=t.shape)
        imgs = rng.uniform(size=(3, 1, 16, 16))
        plan = sample_mask(tiny_config.num_patches, tiny_config.mask_ratio, rng, batch_size=3)
        return params, imgs, plan

    def _run(self, params, imgs, plan):
        x = Tensor(imgs, requires_grad=True)
        latent = encode(params, patchify(x, 4), plan)
        recon = decode(params, latent, plan)
        logits = classify(params, x)
        params.zero_grads()
        ad.backward(ad.add(ad.mse_loss(recon, Tensor(patchify(Tensor(imgs), 4).data)),
                           ad.cross_entropy(logits, np.arange(3))))
        grads = {name: t.grad for name, t in params.trainable()}
        return latent.data, recon.data, logits.data, x.grad, grads

    def test_outputs_bit_identical_to_separate_ops(self, perturbed, monkeypatch):
        fused = self._run(*perturbed)
        monkeypatch.setattr(ad, "linear", _reference_linear)
        monkeypatch.setattr(ad, "attention", _reference_attention)
        reference = self._run(*perturbed)
        for got, want in zip(fused[:3], reference[:3]):
            assert np.array_equal(got, want)
        # gradients may differ in the last bit where accumulation order changes
        assert np.allclose(fused[3], reference[3], rtol=1e-12, atol=1e-15)
        for name, g in fused[4].items():
            assert np.allclose(g, reference[4][name], rtol=1e-12, atol=1e-15), name

    def test_block_is_twelve_graph_nodes(self, perturbed):
        params = perturbed[0]
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 32)), requires_grad=True)
        assert _graph_nodes(model._block(params, "enc.0", x, heads=4), x) == 12


@pytest.mark.parametrize("workers", [2, 3])
class TestForwardOnlyPool:
    """The calling thread runs the first share of chunks, ``workers - 1`` helpers the rest."""

    @pytest.fixture(autouse=True)
    def force_workers(self, monkeypatch, workers):
        monkeypatch.setattr(rt, "workers", lambda: workers)

    @pytest.mark.parametrize("batch", [13, 64])  # 64: mi-estimate's batch
    def test_mid32_bit_identical_to_the_graph_path(self, mid32_config, monkeypatch, workers,
                                                   batch):
        """The graph path runs at one worker, as one unsplit pass (see ``_encoder_batches``)."""
        params = init_params(mid32_config, np.random.default_rng(0))
        imgs = _marked_images(mid32_config, batch)
        monkeypatch.setattr(rt, "workers", lambda: 1)
        graph = model.encode_full(params, Tensor(imgs))
        monkeypatch.setattr(rt, "workers", lambda: workers)
        done = _encoder_threads(monkeypatch)
        pooled = model.encode_full(params.constants(), Tensor(imgs))
        shares = _shares(batch, 5, workers)
        assert sorted(call[:2] for call in done) == sorted(sum(shares, []))
        caller = threading.get_ident()
        assert all((thread == caller) == ((first, size) in shares[0])
                   for first, size, thread in done)
        assert np.array_equal(pooled.data.view(np.int64), graph.data.view(np.int64))

    @pytest.mark.parametrize("budget_images", [1, 2, 3, 4, 7])
    def test_tiny16_every_chunk_size_gives_the_same_bits(self, tiny_config, monkeypatch,
                                                         workers, budget_images):
        params = init_params(tiny_config, np.random.default_rng(3)).constants()
        imgs = _marked_images(tiny_config, 9)
        whole = model.encode_full(params, Tensor(imgs)).data
        widest = tiny_config.num_patches * tiny_config.enc_dim * tiny_config.enc_mlp_ratio * 8
        monkeypatch.setattr(model, "FORWARD_CHUNK_BYTES", budget_images * widest)
        done = _encoder_threads(monkeypatch)
        pooled = model.encode_full(params, Tensor(imgs)).data
        chunks = sum(_shares(9, budget_images, workers), [])
        assert sorted(call[:2] for call in done) == sorted(chunks)
        assert any(thread != threading.get_ident() for _, _, thread in done)
        assert np.array_equal(pooled.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("bad", [0, 12], ids=["caller", "helper"])
    def test_nan_in_a_share_raises_and_the_next_call_works(self, mid32_config, monkeypatch,
                                                           workers, bad):
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        imgs = _marked_images(mid32_config, 13)
        clean = model.encode_full(params, Tensor(imgs)).data
        poisoned = imgs.copy()
        poisoned[bad, 0, 1, 1] = np.nan
        done = _encoder_threads(monkeypatch)
        with pytest.raises(FloatingPointError):
            model.encode_full(params, Tensor(poisoned))
        # every share ran to its end or to its failing chunk before the error surfaced
        expected = [first for share in _shares(13, 5, workers) for first, size in share
                    if not any(start <= bad < start + size for start, size in share
                               if start <= first)]
        assert sorted(first for first, _, _ in done) == expected
        again = model.encode_full(params, Tensor(imgs)).data
        assert np.array_equal(again.view(np.int64), clean.view(np.int64))

    def test_first_failing_chunk_in_chunk_order_is_raised(self, mid32_config, monkeypatch,
                                                          workers):
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        imgs = _marked_images(mid32_config, 13)
        # the caller's second chunk and every helper's first
        done = _encoder_threads(monkeypatch, fail={2: {5, 7}, 3: {5, 9}}[workers])
        with pytest.raises(FloatingPointError, match="chunk at image 5$"):
            model.encode_full(params, Tensor(imgs))
        assert [first for first, _, _ in done] == [0]

    def test_one_chunk_batch_never_touches_the_pool(self, mid32_config, monkeypatch, workers):
        used = []
        run_shares = rt.run_shares
        monkeypatch.setattr(rt, "workers", lambda: used.append("workers") or workers)
        monkeypatch.setattr(rt, "run_shares",
                            lambda task, count: used.append(count) or run_shares(task, count))
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        model.encode_full(params, Tensor(_images(mid32_config, 5)))
        assert used == []
        model.encode_full(params, Tensor(_images(mid32_config, 6)))
        assert used == ["workers", workers]

    @pytest.mark.parametrize("bad", [None, 0, 12], ids=["returns", "caller", "helper"])
    def test_no_helper_thread_outlives_the_call(self, mid32_config, monkeypatch, workers, bad):
        """No ``mimir-shard`` thread is alive once a pooled ``encode_full`` returned or raised."""
        params = init_params(mid32_config, np.random.default_rng(0)).constants()
        imgs = _images(mid32_config, 13)
        if bad is not None:
            imgs[bad, 0, 1, 1] = np.nan
        seen = set()
        encoder = model._encoder

        def spy(params, tokens, pos):
            seen.add(threading.current_thread().name.split("_")[0])
            return encoder(params, tokens, pos)

        monkeypatch.setattr(model, "_encoder", spy)
        if bad is None:
            model.encode_full(params, Tensor(imgs))
        else:
            with pytest.raises(FloatingPointError):
                model.encode_full(params, Tensor(imgs))
        assert "mimir-shard" in seen
        alive = [t.name for t in threading.enumerate() if t.name.startswith("mimir-")]
        assert alive == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_its_own_helpers(mid32_config, monkeypatch):
    """A split pass in a child forked after the parent ran one finishes with the parent's bits."""
    monkeypatch.setattr(rt, "workers", lambda: 2)
    params = init_params(mid32_config, np.random.default_rng(0)).constants()
    x = Tensor(_images(mid32_config, 13))
    expected = model.encode_full(params, x).data
    pid = os.fork()
    if pid == 0:  # child: exit status 0 only if the pooled forward finishes with the same bits
        status = 1
        try:
            signal.alarm(60)
            status = 0 if np.array_equal(model.encode_full(params, x).data, expected) else 1
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
