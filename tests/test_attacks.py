import numpy as np
import pytest

from mimir import attacks
from mimir import _runtime as rt
from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import (AttackSpec, EPS_8_255, attack_ce, attack_fea, attack_mi,
                           attack_recon, linf_project, pgd, pretrain_attack_spec)
from mimir.mi import PenaltyConfig, penalty_mi
from mimir.model import (autoencoder_pass, classify, encode_full, init_params, patchify,
                         sample_mask, _pixel_mask, _pooled_logits)

from conftest import tiny_vit_config


class TestSpec:
    def test_zero_iters_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=0.1, step_size=0.01, iters=0)

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=0.1, step_size=0.01, iters=1, init="gaussian")

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec(epsilon=0.1, step_size=-0.01, iters=1)

    def test_epsilon_zero_allowed(self):
        AttackSpec(epsilon=0.0, step_size=0.01, iters=1)


class TestProject:
    def test_ball_clamp(self):
        spec = AttackSpec(epsilon=0.1, step_size=0.01, iters=1)
        out = linf_project(np.array([0.9]), np.array([0.5]), spec)
        assert out[0] == pytest.approx(0.6, abs=1e-15)

    def test_box_binds(self):
        spec = AttackSpec(epsilon=0.1, step_size=0.01, iters=1)
        out = linf_project(np.array([1.2]), np.array([0.95]), spec)
        assert out[0] == 1.0

    def test_feasible_point_unchanged(self):
        spec = AttackSpec(epsilon=0.1, step_size=0.01, iters=1)
        x_adv = np.array([0.52, 0.48])
        out = linf_project(x_adv, np.array([0.5, 0.5]), spec)
        assert np.array_equal(out, x_adv)

    def test_shape_mismatch(self):
        spec = AttackSpec(epsilon=0.1, step_size=0.01, iters=1)
        with pytest.raises(ValueError):
            linf_project(np.zeros(2), np.zeros(3), spec)


class TestPgdEngine:
    def test_linear_objective_analytic(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 3))
        spec = AttackSpec(epsilon=0.1, step_size=0.2, iters=1, init="zero", box=(-5.0, 5.0))

        def obj(t):
            return ad.reduce_sum(ad.mul(t, Tensor(w)))

        pert = pgd(obj, np.zeros((2, 3)), spec, np.random.default_rng(1))
        assert np.allclose(pert.delta, 0.1 * np.sign(w), atol=1e-15)
        assert pert.achieved_loss == pytest.approx(0.1 * np.abs(w).sum(), abs=1e-12)

    def test_zero_init_never_worse_than_start(self):
        for seed in range(50):
            rng = np.random.default_rng([30, seed])
            w1 = Tensor(rng.normal(size=(4, 6)))
            w2 = Tensor(rng.normal(size=(6, 1)))
            x = rng.uniform(0.3, 0.7, size=(2, 4))

            def obj(t):
                return ad.reduce_sum(ad.square(ad.matmul(ad.gelu(ad.matmul(t, w1)), w2)))

            spec = AttackSpec(epsilon=0.05, step_size=0.01, iters=3, init="zero")
            pert = pgd(obj, x, spec, np.random.default_rng(seed))
            assert pert.achieved_loss >= obj(Tensor(x)).item() - 1e-15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(3, 2)))
        x = rng.uniform(0.2, 0.8, size=(2, 3))

        def obj(t):
            return ad.reduce_sum(ad.square(ad.matmul(t, w)))

        spec = AttackSpec(epsilon=0.05, step_size=0.02, iters=4, init="random")
        a = pgd(obj, x, spec, np.random.default_rng(77))
        b = pgd(obj, x, spec, np.random.default_rng(77))
        assert np.array_equal(a.delta, b.delta) and a.achieved_loss == b.achieved_loss

    def test_monotone_budget(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 4)))
        x = rng.uniform(0.3, 0.7, size=(2, 3))

        def obj(t):
            return ad.reduce_sum(ad.square(ad.matmul(t, w)))

        losses = []
        for iters in (1, 2, 4, 8):
            spec = AttackSpec(epsilon=0.05, step_size=0.01, iters=iters, init="zero")
            losses.append(pgd(obj, x, spec, np.random.default_rng(0)).achieved_loss)
        assert all(a <= b + 1e-15 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("init", ["zero", "random"])
    def test_stops_once_the_iterate_repeats(self, tiny_config, init):
        """A zero head gives a zero input gradient: PGD-5 scores its start twice, not six times."""
        params = init_params(tiny_config, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(size=(4, 1, 16, 16))
        objective = attacks._classifier_objective(params, np.array([0, 1, 2, 3]), 0.0, None)
        calls = []

        def counted(t):
            calls.append(t.requires_grad)
            return objective(t)

        spec = AttackSpec(epsilon=EPS_8_255, step_size=2.0 / 255.0, iters=5, init=init)
        rng = np.random.default_rng(7)
        pert = pgd(counted, x, spec, rng)
        assert calls == [True, False]
        replay = np.random.default_rng(7)
        start = x if init == "zero" else linf_project(
            x + replay.uniform(-spec.epsilon, spec.epsilon, size=x.shape), x, spec)
        assert np.array_equal(pert.delta, start - x)
        assert pert.achieved_loss == objective(Tensor(start)).item()
        assert pert.last_forward is None
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_non_finite_objective_raises(self):
        def obj(t):
            return ad.log(ad.reduce_sum(ad.square(t)))  # log(0) domain error at zero

        spec = AttackSpec(epsilon=0.1, step_size=0.01, iters=1, init="zero", box=(-1.0, 1.0))
        with pytest.raises((FloatingPointError, ValueError)):
            pgd(obj, np.zeros((2, 2)), spec, np.random.default_rng(0))

    def test_ball_and_box_exact(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 2)))
        x = rng.uniform(0.0, 1.0, size=(3, 4))  # includes points at the box edge

        def obj(t):
            return ad.reduce_sum(ad.square(ad.matmul(t, w)))

        spec = AttackSpec(epsilon=EPS_8_255, step_size=0.05, iters=5, init="random")
        pert = pgd(obj, x, spec, np.random.default_rng(5))
        assert np.max(np.abs(pert.delta)) <= EPS_8_255 + 1e-12
        assert (x + pert.delta).min() >= 0.0 and (x + pert.delta).max() <= 1.0


def _small_model():
    cfg = tiny_vit_config(image_size=8, enc_layers=1, enc_dim=16, enc_heads=2,
                          dec_layers=1, dec_dim=8, dec_heads=2, num_classes=3)
    rng = np.random.default_rng(0)
    params = init_params(cfg, rng)
    params["head.weight"].data = rng.normal(0.0, 0.2, size=(16, 3))
    imgs = rng.uniform(0.2, 0.8, size=(4, 1, 8, 8))
    labels = np.array([0, 1, 2, 0])
    return cfg, params, imgs, labels


@pytest.fixture(scope="module")
def small_model():
    return _small_model()


ATTACKS = ["ce", "mi", "fea", "recon"]
SPEC_3 = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=3, init="random")
LAM = 1e-2


def _run_attack(kind, params, imgs, labels, plan, rng):
    if kind == "ce":
        return attack_ce(params, imgs, labels, SPEC_3, rng)
    if kind == "mi":
        return attack_mi(params, PenaltyConfig(), imgs, labels, LAM, SPEC_3, rng)
    if kind == "fea":
        return attack_fea(params, imgs, SPEC_3, rng)
    return attack_recon(params, imgs, plan, SPEC_3, rng)


def _live_reference(kind, params, imgs, labels, plan, rng):
    """``pgd`` with the attack's objective built on the live, trainable parameters."""
    x = np.asarray(imgs, dtype=np.float64)
    extra = None
    if kind in ("ce", "mi"):
        def objective(x_adv):
            z = encode_full(params, x_adv)
            ce = ad.cross_entropy(_pooled_logits(params, z), labels)
            if kind == "ce":
                return ce
            pen = penalty_mi(ad.reshape(x_adv, (x_adv.shape[0], -1)),
                             ad.reshape(z, (z.shape[0], -1)), PenaltyConfig())
            return ad.add(ce, ad.scale(pen, LAM))
    elif kind == "fea":
        natural = encode_full(params, Tensor(x)).detach()

        def objective(x_adv):
            return ad.mse_loss(encode_full(params, x_adv), natural)
    else:
        masked = _pixel_mask(plan, params.config)

        def extra(x_adv):
            out = x_adv.copy()
            out[masked] = x[masked]
            return out

        target = patchify(Tensor(x), params.config.patch_size)

        def objective(x_adv):
            return ad.mse_loss(autoencoder_pass(params, x_adv, plan)[1], target)
    return pgd(objective, x, SPEC_3, rng, extra_project=extra)


class TestInputOnlyGradients:
    @pytest.mark.parametrize("kind", ATTACKS)
    def test_no_parameter_grad_written(self, kind):
        cfg, params, imgs, labels = _small_model()
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        _run_attack(kind, params, imgs, labels, plan, np.random.default_rng(2))
        assert [name for name, t in params.tensors.items() if t.grad is not None] == []

    @pytest.mark.parametrize("kind", ATTACKS)
    def test_bit_identical_to_live_parameter_graph(self, kind):
        cfg, params, imgs, labels = _small_model()
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        got = _run_attack(kind, params, imgs, labels, plan, np.random.default_rng(2))
        ref = _live_reference(kind, params, imgs, labels, plan, np.random.default_rng(2))
        assert np.array_equal(got.delta, ref.delta)
        assert got.achieved_loss == ref.achieved_loss
        assert np.any(got.delta != 0.0)

    def test_recon_last_forward_is_live_and_writes_no_grad(self):
        """The last iterate's forward is built on the live parameters, but the
        attack runs no backward through it."""
        cfg, params, imgs, _ = _small_model()
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        got = attack_recon(params, imgs, plan, SPEC_3, np.random.default_rng(2))
        assert [name for name, t in params.tensors.items() if t.grad is not None] == []
        assert got.last_forward is not None
        _, recon = got.last_forward
        ad.backward(ad.mse_loss(recon, patchify(Tensor(imgs + got.delta), cfg.patch_size)))
        assert params["dec_out.weight"].grad is not None


class TestAttackCE:
    def test_label_out_of_range(self, small_model):
        _, params, imgs, _ = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=0.01, iters=1)
        with pytest.raises(ValueError):
            attack_ce(params, imgs, np.array([0, 1, 3, 0]), spec, np.random.default_rng(0))

    def test_epsilon_zero_keeps_accuracy(self, small_model):
        _, params, imgs, labels = small_model
        spec = AttackSpec(epsilon=0.0, step_size=0.01, iters=2, init="random")
        pert = attack_ce(params, imgs, labels, spec, np.random.default_rng(0))
        assert np.all(pert.delta == 0.0)

    def test_untrained_ten_class_model_stays_at_chance(self):
        cfg = tiny_vit_config(num_classes=10)
        params = init_params(cfg, np.random.default_rng(0))  # zero head: constant logits
        rng = np.random.default_rng(1)
        imgs = rng.uniform(size=(20, 1, 16, 16))
        labels = np.repeat(np.arange(10), 2)
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=20, init="zero")
        pert = attack_ce(params, imgs, labels, spec, np.random.default_rng(2))
        nat = (np.argmax(classify(params, Tensor(imgs)).data, axis=1) == labels).mean()
        rob = (np.argmax(classify(params, Tensor(imgs + pert.delta)).data, axis=1) == labels).mean()
        assert abs(nat * 100.0 - 10.0) <= 5.0
        assert abs(rob * 100.0 - 10.0) <= 5.0

    def test_best_iterate_at_least_natural_loss(self, small_model):
        _, params, imgs, labels = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=5, init="zero")
        pert = attack_ce(params, imgs, labels, spec, np.random.default_rng(0))
        natural = ad.cross_entropy(classify(params, Tensor(imgs)), labels).item()
        assert pert.achieved_loss >= natural

    def test_degrades_accuracy_on_trained_model(self, trained_model, tiny_dataset):
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=10, init="random")
        pert = attack_ce(trained_model, tiny_dataset.images, tiny_dataset.labels, spec,
                         np.random.default_rng(0))
        nat = (np.argmax(classify(trained_model, Tensor(tiny_dataset.images)).data, axis=1)
               == tiny_dataset.labels).mean()
        adv = (np.argmax(classify(trained_model, Tensor(tiny_dataset.images + pert.delta)).data, axis=1)
               == tiny_dataset.labels).mean()
        assert adv <= nat


class TestAttackRecon:
    def test_masked_pixels_untouched(self, small_model):
        cfg, params, imgs, _ = small_model
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        pert = attack_recon(params, imgs, plan, pretrain_attack_spec(), np.random.default_rng(2))
        mask = _pixel_mask(plan, cfg)
        assert np.all(pert.delta[mask] == 0.0)

    def test_loss_at_least_natural_with_zero_init(self, small_model):
        from mimir.model import forward_autoencoder

        cfg, params, imgs, _ = small_model
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        spec = AttackSpec(epsilon=EPS_8_255, step_size=10 / 255, iters=1, init="zero")
        pert = attack_recon(params, imgs, plan, spec, np.random.default_rng(2))
        natural = ad.mse_loss(forward_autoencoder(params, Tensor(imgs), plan), Tensor(imgs)).item()
        assert pert.achieved_loss >= natural

    def test_one_step_zero_init_saturates(self, small_model):
        """step > epsilon with zero init drives every visible pixel to -eps, 0, or +eps
        (pixels away from the box edges)."""
        cfg, params, imgs, _ = small_model
        plan = sample_mask(cfg.num_patches, 0.5, np.random.default_rng(1), batch_size=4)
        spec = AttackSpec(epsilon=EPS_8_255, step_size=10 / 255, iters=1, init="zero")
        pert = attack_recon(params, imgs, plan, spec, np.random.default_rng(2))
        mask = _pixel_mask(plan, cfg)
        visible_delta = pert.delta[~mask]
        allowed = np.array([-EPS_8_255, 0.0, EPS_8_255])
        assert np.all(np.min(np.abs(visible_delta[:, None] - allowed[None, :]), axis=1) <= 1e-15)


class TestAttackMI:
    def test_lambda_zero_byte_identical_to_ce(self, small_model):
        _, params, imgs, labels = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=4, init="random")
        a = attack_ce(params, imgs, labels, spec, np.random.default_rng(9))
        b = attack_mi(params, PenaltyConfig(), imgs, labels, 0.0, spec, np.random.default_rng(9))
        assert np.array_equal(a.delta, b.delta)
        assert a.achieved_loss == b.achieved_loss

    def test_batch_of_one_rejected(self, small_model):
        _, params, imgs, labels = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=1)
        with pytest.raises(ValueError):
            attack_mi(params, PenaltyConfig(), imgs[:1], labels[:1], 1e-5, spec,
                      np.random.default_rng(0))

    def test_training_lambda_close_to_ce(self, trained_model, tiny_dataset):
        """At the training penalty weight the adaptive attack lands within a point
        of plain PGD, mirroring the near-equal adaptive-attack columns."""
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=10, init="random")
        x, y = tiny_dataset.images, tiny_dataset.labels

        def robust(pert):
            pred = np.argmax(classify(trained_model, Tensor(x + pert.delta)).data, axis=1)
            return 100.0 * (pred == y).mean()

        r_ce = robust(attack_ce(trained_model, x, y, spec, np.random.default_rng(3)))
        r_mi = robust(attack_mi(trained_model, PenaltyConfig(), x, y, 1e-5, spec,
                                np.random.default_rng(3)))
        assert abs(r_ce - r_mi) <= 10.0


class TestAttackFea:
    def test_objective_zero_at_no_perturbation(self, small_model):
        from mimir.model import encode_full

        _, params, imgs, _ = small_model
        natural = encode_full(params, Tensor(imgs))
        assert ad.mse_loss(encode_full(params, Tensor(imgs)), natural.detach()).item() == 0.0

    def test_positive_achieved_loss(self, small_model):
        _, params, imgs, _ = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=5, init="random")
        pert = attack_fea(params, imgs, spec, np.random.default_rng(0))
        assert pert.achieved_loss > 0.0

    def test_zero_init_rejected(self, small_model):
        _, params, imgs, _ = small_model
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=5, init="zero")
        with pytest.raises(ValueError):
            attack_fea(params, imgs, spec, np.random.default_rng(0))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestAttacksInShares:
    """On constant parameters the attack passes run in image shares; no bit depends on the split."""

    @pytest.fixture(scope="class")
    def mid32_model(self, mid32_config):
        params = init_params(mid32_config, np.random.default_rng(0))
        params["head.weight"].data = np.random.default_rng(1).normal(size=(96, 10))
        return params

    def _attack(self, kind, params, monkeypatch, workers):
        monkeypatch.setattr(rt, "workers", lambda: workers)
        shares = []
        run_shares = rt.run_shares
        monkeypatch.setattr(rt, "run_shares",
                            lambda task, count: shares.append(count) or run_shares(task, count))
        images = np.random.default_rng(2).uniform(size=(13, 3, 32, 32))
        labels = np.arange(13) % 10
        rng = np.random.default_rng(3)
        spec = AttackSpec(epsilon=EPS_8_255, step_size=2.0 / 255.0, iters=2)
        if kind == "ce":
            pert = attack_ce(params, images, labels, spec, rng)
        elif kind == "mi":
            pert = attack_mi(params, PenaltyConfig(), images, labels, 0.5, spec, rng)
        elif kind == "fea":
            pert = attack_fea(params, images, spec, rng)
        else:
            plan = sample_mask(64, 0.75, np.random.default_rng(4), batch_size=13)
            pert = attack_recon(params, images, plan, pretrain_attack_spec(), rng)
        return pert, max(shares, default=1)

    @pytest.mark.parametrize("kind", ["ce", "mi", "fea", "recon"])
    def test_same_bits_at_one_two_and_three_workers(self, mid32_model, monkeypatch, kind):
        runs = {workers: self._attack(kind, mid32_model, monkeypatch, workers)
                for workers in (1, 2, 3)}
        assert {workers: shares for workers, (_, shares) in runs.items()} == {1: 1, 2: 2, 3: 3}
        serial = runs[1][0]
        if kind == "recon":
            assert serial.last_forward is not None
        for pert, _ in runs.values():
            assert np.array_equal(_bits(pert.delta), _bits(serial.delta))
            assert _bits(pert.achieved_loss) == _bits(serial.achieved_loss)
            if kind == "recon":
                assert np.array_equal(_bits(pert.last_forward[1].data),
                                      _bits(serial.last_forward[1].data))
