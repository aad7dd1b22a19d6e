"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the end-to-end criterion takes a couple of minutes on CPU.
"""

import math
import time

import numpy as np

from mimir import autodiff as ad
from mimir.autodiff import Tensor
from mimir.attacks import (AttackSpec, EPS_8_255, attack_ce, attack_fea, attack_mi,
                           attack_recon, finetune_attack_spec, pgd, pretrain_attack_spec)
from mimir.bounds import bound_curves
from mimir.data import synth_dataset
from mimir.evaluate import AttackJob, evaluate
from mimir.mi import (PenaltyConfig, discrete_mi, hsic, median_bandwidth, rbf_gram,
                      renyi_entropy)
from mimir.model import (ViTConfig, encode, encode_full, forward_autoencoder, init_params,
                         patchify, sample_mask, visible_count, _pixel_mask)
from mimir.train import (TrainConfig, TrainState, finetune_epoch, load_checkpoint, mimir_loss,
                         pretrain_epoch, save_checkpoint)

from gradcheck_cases import run_gradient_suite


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_figure_curves():
    started = time.perf_counter()
    curve = bound_curves(10, 0.01)
    elapsed = time.perf_counter() - started

    ok = len(curve.rows) == 101
    lower_at_zero = curve.rows[0][1]
    ok &= abs(lower_at_zero - 3.321928) <= 1e-6
    p_min, v_min = curve.argmin_lower()
    ok &= abs(p_min - 0.90) <= 1e-9 and abs(v_min) <= 1e-5
    for p, _, hi in curve.rows:
        ok &= abs(hi - (3.321928094887362 - 2.0 * p)) <= 1e-9
    ok &= elapsed < 1.0
    _report(1, "figure-curve reproduction", ok,
            f"lower(0)={lower_at_zero:.6f}, argmin={p_min:.2f}, min={v_min:.2e}, {elapsed:.3f}s")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    cases, worst_ops, failures = run_gradient_suite(seeds_per_op=4)

    # composed pre-training loss, HSIC penalty included, w.r.t. all parameters
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
    delta = rng.uniform(-EPS_8_255, EPS_8_255, size=imgs.shape)
    train_cfg = TrainConfig(base_lr=1e-3, total_epochs=2, batch_size=4,
                            attack=pretrain_attack_spec(), lam=1e-3)
    base_latent = encode(params, patchify(Tensor(imgs + delta), 2), plan)
    base_vis = ad.gather_rows(patchify(Tensor(imgs + delta), 2), plan.visible)
    pen = PenaltyConfig(estimator="hsic",
                        sigma_x=median_bandwidth(base_vis.data.reshape(3, -1)),
                        sigma_y=median_bandwidth(base_latent.data.reshape(3, -1)))

    def loss():
        return mimir_loss(params, imgs, plan, delta, train_cfg, penalty=pen)

    trainable = {name: t for name, t in params.trainable() if not name.startswith("head.")}
    composed = ad.finite_diff_check_params(loss, trainable, 1e-4)
    cases += 1
    elapsed = time.perf_counter() - started

    ok = not failures and worst_ops <= 1e-4
    ok &= composed.max_rel_error <= 1e-4
    ok &= cases >= 100
    ok &= elapsed < 120.0
    _report(2, "gradient suite", ok,
            f"{cases} cases, worst op {worst_ops:.2e}, composed {composed.max_rel_error:.2e}, "
            f"{elapsed:.1f}s; failures={failures}")


def test_criterion_3_mi_oracles():
    ok = True
    # HSIC vs explicit matrix assembly
    for seed in range(20):
        rng = np.random.default_rng([41, seed])
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 3))
        sx, sy = 0.7, 1.3
        kx, ky = rbf_gram(x, sx), rbf_gram(y, sy)
        h = np.eye(n) - np.ones((n, n)) / n
        explicit = np.trace(kx @ h @ ky @ h) / (n * n)
        ok &= abs(hsic(x, y, sx, sy) - explicit) <= 1e-12

    # Renyi entropy endpoints
    for n in (2, 4, 8):
        for alpha in (0.5, 2.0, 4.0):
            uniform = renyi_entropy(np.eye(n), alpha)
            ok &= abs(uniform - math.log2(n)) <= 1e-9
            rank_one = renyi_entropy(np.ones((n, n)), alpha)
            ok &= abs(rank_one) <= 1e-9

    # DPI on 200 random finite Markov chains
    violations = 0
    for seed in range(200):
        rng = np.random.default_rng([42, seed])
        px = rng.dirichlet(np.ones(3))
        a = np.stack([rng.dirichlet(np.ones(4)) for _ in range(3)])
        b = np.stack([rng.dirichlet(np.ones(3)) for _ in range(4)])
        if discrete_mi(px[:, None] * (a @ b)) > discrete_mi(px[:, None] * a) + 1e-12:
            violations += 1
    ok &= violations == 0
    _report(3, "MI estimator oracles", ok, f"DPI violations={violations}")


def test_criterion_4_attack_contracts(trained_model, tiny_dataset):
    x, y = tiny_dataset.images, tiny_dataset.labels
    ok = True

    # exact ball and box feasibility
    spec = AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=10, init="random")
    pert = attack_ce(trained_model, x, y, spec, np.random.default_rng(0))
    ok &= np.max(np.abs(pert.delta)) <= EPS_8_255 + 1e-12
    ok &= (x + pert.delta).min() >= 0.0 and (x + pert.delta).max() <= 1.0

    # zero-init best-iterate never worse than the initial objective
    rng = np.random.default_rng(1)
    w1, w2 = Tensor(rng.normal(size=(8, 6))), Tensor(rng.normal(size=(6, 1)))
    x0 = rng.uniform(0.3, 0.7, size=(3, 8))

    def objective(t):
        return ad.reduce_sum(ad.square(ad.matmul(ad.gelu(ad.matmul(t, w1)), w2)))

    never_worse = True
    for seed in range(20):
        z_spec = AttackSpec(epsilon=0.05, step_size=0.02, iters=3, init="zero")
        p = pgd(objective, x0, z_spec, np.random.default_rng(seed))
        never_worse &= p.achieved_loss >= objective(Tensor(x0)).item() - 1e-15
    ok &= never_worse

    # PGD-MI with lambda 0 is byte-identical to PGD-CE
    a = attack_ce(trained_model, x, y, spec, np.random.default_rng(7))
    b = attack_mi(trained_model, PenaltyConfig(), x, y, 0.0, spec, np.random.default_rng(7))
    identical = np.array_equal(a.delta, b.delta) and a.achieved_loss == b.achieved_loss
    ok &= identical

    # PGD-fea: objective exactly 0 at delta = 0, zero init rejected
    natural = encode_full(trained_model, Tensor(x))
    ok &= ad.mse_loss(encode_full(trained_model, Tensor(x)), natural.detach()).item() == 0.0
    try:
        attack_fea(trained_model, x,
                   AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=2, init="zero"),
                   np.random.default_rng(0))
        rejected = False
    except ValueError:
        rejected = True
    ok &= rejected
    _report(4, "attack contracts", ok, f"mi(0)==ce byte-identical: {identical}")


def test_criterion_5_masking(tiny_config):
    ok = visible_count(16, 0.75) == 4
    params = init_params(tiny_config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    imgs = rng.uniform(0.2, 0.8, size=(3, 1, 16, 16))
    plan = sample_mask(16, 0.75, rng, batch_size=3)
    mask = _pixel_mask(plan, tiny_config)

    xt = Tensor(imgs, requires_grad=True)
    loss = ad.mse_loss(forward_autoencoder(params, xt, plan), Tensor(imgs))
    ad.backward(loss)
    ok &= bool(np.all(xt.grad[mask] == 0.0))

    pert = attack_recon(params, imgs, plan, pretrain_attack_spec(), np.random.default_rng(2))
    ok &= bool(np.all(pert.delta[mask] == 0.0))
    ok &= bool(np.any(pert.delta[~mask] != 0.0))
    _report(5, "masking correctness", ok)


def test_criterion_6_desk_scale_end_to_end(tiny_config):
    started = time.perf_counter()
    seeds = (0, 1, 2)
    rows = []
    ok = True
    for seed in seeds:
        ds = synth_dataset(4, 8, 16, 0.1, np.random.default_rng([seed, 1]), channels=1)
        pre_cfg = TrainConfig(base_lr=2e-3, total_epochs=200, batch_size=16,
                              attack=pretrain_attack_spec(), warmup_epochs=10,
                              lam=1e-5, estimator="hsic")
        params = init_params(tiny_config, np.random.default_rng([seed, 0]))
        state = TrainState.create(params, seed)
        first = last = None
        for epoch in range(pre_cfg.total_epochs):
            metrics = pretrain_epoch(state, ds, pre_cfg)
            if epoch == 0:
                first = metrics.loss_mse
            last = metrics.loss_mse
        ok &= last <= 0.5 * first

        ft_cfg = TrainConfig(base_lr=1e-3, total_epochs=50, batch_size=16,
                             attack=finetune_attack_spec(), warmup_epochs=5,
                             betas=(0.9, 0.999), layer_decay=0.65, lam=0.0)
        tuned = TrainState.create(state.params, seed)
        for _ in range(ft_cfg.total_epochs):
            finetune_epoch(tuned, ds, ft_cfg)

        scratch_params = init_params(tiny_config, np.random.default_rng([seed + 1000, 0]))
        scratch = TrainState.create(scratch_params, seed)
        for _ in range(ft_cfg.total_epochs):
            finetune_epoch(scratch, ds, ft_cfg)

        jobs = [AttackJob(name="pgd20", kind="ce",
                          spec=AttackSpec(epsilon=EPS_8_255, step_size=2 / 255, iters=20,
                                          init="random"))]
        tuned_report = evaluate(tuned.params, ds, jobs, seed=seed)
        scratch_report = evaluate(scratch.params, ds, jobs, seed=seed)
        ok &= tuned_report.natural >= 90.0
        ok &= tuned_report.robust[0][1] > scratch_report.robust[0][1]
        rows.append(f"seed {seed}: drop {(1 - last / first) * 100:.0f}%, "
                    f"nat {tuned_report.natural:.1f}, rob {tuned_report.robust[0][1]:.1f} "
                    f"vs scratch {scratch_report.robust[0][1]:.1f}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1800.0
    _report(6, "desk-scale end-to-end", ok, f"{'; '.join(rows)}; {elapsed:.0f}s")


def test_criterion_7_determinism_and_persistence(tiny_config, tmp_path):
    ds = synth_dataset(4, 4, 16, 0.1, np.random.default_rng(3), channels=1)
    cfg = TrainConfig(base_lr=1e-3, total_epochs=4, batch_size=8,
                      attack=pretrain_attack_spec(), warmup_epochs=1, lam=1e-5)

    def run(epochs):
        params = init_params(tiny_config, np.random.default_rng(0))
        state = TrainState.create(params, 0)
        metrics = [pretrain_epoch(state, ds, cfg) for _ in range(epochs)]
        return state, [(m.loss_mse, m.loss_mi, m.loss_adv, m.lr) for m in metrics]

    state_a, metrics_a = run(4)
    state_b, metrics_b = run(4)
    ok = metrics_a == metrics_b
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(state_a, pa)
    save_checkpoint(state_b, pb)
    ok &= pa.read_bytes() == pb.read_bytes()

    # save / load / resume reproduces the uninterrupted run bit for bit
    params = init_params(tiny_config, np.random.default_rng(0))
    state = TrainState.create(params, 0)
    for _ in range(2):
        pretrain_epoch(state, ds, cfg)
    mid = tmp_path / "mid.ckpt"
    save_checkpoint(state, mid)
    resumed = load_checkpoint(mid)
    for _ in range(2):
        pretrain_epoch(resumed, ds, cfg)
    out = tmp_path / "resumed.ckpt"
    save_checkpoint(resumed, out)
    ok &= out.read_bytes() == pa.read_bytes()

    # save -> load -> save is byte-stable
    again = tmp_path / "again.ckpt"
    save_checkpoint(load_checkpoint(pa), again)
    ok &= again.read_bytes() == pa.read_bytes()
    _report(7, "determinism and persistence", ok)
