"""Command-line entry point.

Subcommands: pretrain | finetune | attack | eval | bounds | landscape |
mi-estimate, each driven by a strict key-value config (see config.py) with
``--seed`` and ``--out`` overrides. All artifacts are CSV files plus binary
checkpoints under the output directory, and are byte-deterministic given
the config and seed; the metrics ``seconds`` column is therefore pinned to
0.000 in the files, with real wall-clock timing available from the epoch
metrics at runtime.

Derived random streams: parameter init uses (seed, 0), dataset synthesis
(seed, 1), the per-batch attacks of ``eval`` and ``attack`` (seed, job,
batch), ``attack`` being job 0; the training loop itself consumes the
checkpointed generator seeded with the bare seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .attacks import (AttackSpec, EPS_8_255, STEP_2_255, adaptive_attack_spec, attack_ce,
                      finetune_attack_spec, pretrain_attack_spec)
from .bounds import bound_curves, write_bound_curve_csv
from .config import ConfigError, ExperimentConfig, load_config
from .data import Dataset, load_cifar10_binary, synth_dataset
from .evaluate import (AttackJob, attack_batches, evaluate, landscape_grid, write_eval_csv,
                       write_landscape_csv)
from .mi import hsic_from_grams, rbf_gram, renyi_mi_from_grams
from .model import ModelParams, encode_full, init_params
from .autodiff import Tensor
from .train import (TrainConfig, TrainState, finetune_epoch, load_checkpoint, pretrain_epoch,
                    save_checkpoint)

METRICS_HEADER = "epoch,loss_mse,loss_mi,loss_total,lr,seconds\n"


def _run_epochs(epoch_fn, state: TrainState, dataset: Dataset, train_cfg, path: str) -> None:
    """Run every epoch into a fresh metrics CSV, so a rerun leaves exactly one run's rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER)
        for _ in range(train_cfg.total_epochs):
            metrics = epoch_fn(state, dataset, train_cfg)
            total = metrics.loss_mse + train_cfg.lam * metrics.loss_mi
            fh.write(f"{state.epoch},{metrics.loss_mse:.10e},{metrics.loss_mi:.10e},"
                     f"{total:.10e},{metrics.lr:.10e},0.000\n")
            fh.flush()


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    source = cfg.get("data.source")
    if source == "cifar10":
        return load_cifar10_binary(cfg.get("data.dir"), cfg.get("data.split", "train"))
    return synth_dataset(
        num_classes=cfg.get("data.num_classes"),
        samples_per_class=cfg.get("data.samples_per_class"),
        image_size=cfg.get("data.image_size"),
        noise=cfg.get("data.noise"),
        rng=np.random.default_rng([cfg.seed, 1]),
        channels=cfg.get("data.channels", 1),
    )


def _load_params(cfg: ExperimentConfig) -> ModelParams:
    """The checkpoint's parameters, after checking the config's ``model.*`` keys against it."""
    params = load_checkpoint(cfg.get("checkpoint")).params
    cfg.check_model_keys(params.config)
    return params


def _cmd_pretrain(cfg: ExperimentConfig) -> int:
    dataset = _build_dataset(cfg)
    params = init_params(cfg.vit_config(), np.random.default_rng([cfg.seed, 0]))
    attack = cfg.attack_spec(pretrain_attack_spec())
    train_cfg = cfg.train_config(attack, default_betas=(0.9, 0.95))
    state = TrainState.create(params, cfg.seed)
    _run_epochs(pretrain_epoch, state, dataset, train_cfg,
                os.path.join(cfg.out_dir, "metrics_pretrain.csv"))
    save_checkpoint(state, os.path.join(cfg.out_dir, "pretrain.ckpt"))
    return 0


def _cmd_finetune(cfg: ExperimentConfig) -> int:
    dataset = _build_dataset(cfg)
    if cfg.get("checkpoint") is not None:
        params = _load_params(cfg)
    else:
        params = init_params(cfg.vit_config(), np.random.default_rng([cfg.seed, 0]))
    attack = cfg.attack_spec(finetune_attack_spec())
    train_cfg = cfg.train_config(attack, default_betas=(0.9, 0.999))
    state = TrainState.create(params, cfg.seed)
    _run_epochs(finetune_epoch, state, dataset, train_cfg,
                os.path.join(cfg.out_dir, "metrics_finetune.csv"))
    save_checkpoint(state, os.path.join(cfg.out_dir, "finetune.ckpt"))
    return 0


def _eval_jobs(cfg: ExperimentConfig) -> list[AttackJob]:
    eps = cfg.get("attack.epsilon", EPS_8_255)
    step = cfg.get("attack.step_size", STEP_2_255)
    pgd_iters = cfg.get("eval.pgd_iters", 20)
    adaptive_iters = cfg.get("eval.adaptive_iters", 100)
    lam = cfg.get("eval.lambda", cfg.get("train.lambda", TrainConfig.lam))
    jobs = []
    for kind in str(cfg.get("eval.attacks", "ce,mi,fea")).split(","):
        kind = kind.strip()
        if kind == "ce":
            spec = AttackSpec(epsilon=eps, step_size=step, iters=pgd_iters, init="random")
            jobs.append(AttackJob(name=f"pgd{pgd_iters}", kind="ce", spec=spec))
        elif kind == "mi":
            spec = adaptive_attack_spec(epsilon=eps, step_size=step, iters=adaptive_iters)
            jobs.append(AttackJob(name=f"pgd-mi{adaptive_iters}", kind="mi", spec=spec, lam=lam))
        else:  # "fea"; load_config rejects any other entry
            spec = adaptive_attack_spec(epsilon=eps, step_size=step, iters=adaptive_iters)
            jobs.append(AttackJob(name=f"pgd-fea{adaptive_iters}", kind="fea", spec=spec))
    return jobs


def _subset(dataset: Dataset, cfg: ExperimentConfig) -> Dataset:
    n = cfg.get("eval.subset")
    if n is None or n >= len(dataset):
        return dataset
    return Dataset(images=dataset.images[:n], labels=dataset.labels[:n],
                   split=dataset.split, num_classes=dataset.num_classes)


def _cmd_eval(cfg: ExperimentConfig) -> int:
    dataset = _subset(_build_dataset(cfg), cfg)
    params = _load_params(cfg)
    report = evaluate(params, dataset, _eval_jobs(cfg), seed=cfg.seed,
                      batch_size=cfg.get("eval.batch_size", 64))
    write_eval_csv(report, os.path.join(cfg.out_dir, "eval.csv"))
    return 0


def _cmd_attack(cfg: ExperimentConfig) -> int:
    """Craft perturbations for the configured budget and record their statistics."""
    dataset = _subset(_build_dataset(cfg), cfg)
    params = _load_params(cfg)
    spec = cfg.attack_spec(AttackSpec(epsilon=EPS_8_255, step_size=STEP_2_255,
                                      iters=20, init="random"))
    rows = []
    for x, y, (rng,) in attack_batches(dataset, cfg.get("eval.batch_size", 64), cfg.seed, 1):
        pert = attack_ce(params, x, y, spec, rng)
        rows.append((pert.achieved_loss, float(np.max(np.abs(pert.delta))), len(y)))
    mean_obj = sum(r[0] * r[2] for r in rows) / len(dataset)
    max_linf = max(r[1] for r in rows)
    path = os.path.join(cfg.out_dir, "attack.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("attack,mean_objective,max_linf,n\n")
        fh.write(f"pgd{spec.iters},{mean_obj:.10e},{max_linf:.10e},{len(dataset)}\n")
    return 0


def _cmd_bounds(cfg: ExperimentConfig) -> int:
    curve = bound_curves(cfg.get("bounds.num_classes"), cfg.get("bounds.step"))
    write_bound_curve_csv(curve, os.path.join(cfg.out_dir, "bounds.csv"))
    return 0


def _cmd_landscape(cfg: ExperimentConfig) -> int:
    dataset = _build_dataset(cfg)
    params = _load_params(cfg)
    rows = landscape_grid(params, dataset, cfg.get("landscape.half_width"),
                          cfg.get("landscape.resolution"),
                          np.random.default_rng(cfg.seed),
                          batch_size=cfg.get("landscape.batch_size", 64))
    write_landscape_csv(rows, os.path.join(cfg.out_dir, "landscape.csv"))
    return 0


def _cmd_mi_estimate(cfg: ExperimentConfig) -> int:
    """Dependence estimates between inputs and their encoder latents."""
    dataset = _build_dataset(cfg)
    params = _load_params(cfg).constants()
    n = min(len(dataset), cfg.get("mi.batch_size", 64))
    if n < 2:
        raise ConfigError("mi-estimate needs at least 2 samples")
    x = dataset.images[:n]
    z = encode_full(params, Tensor(x)).data
    # one median-bandwidth Gram per variable, shared by both estimators
    gram_x = rbf_gram(x.reshape(n, -1))
    gram_z = rbf_gram(z.reshape(n, -1))
    estimates = [hsic_from_grams(gram_x, gram_z),
                 renyi_mi_from_grams(gram_x, gram_z, alpha=cfg.get("mi.alpha", 2.0))]
    path = os.path.join(cfg.out_dir, "mi.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("estimator,alpha,value\n")
        for est in estimates:
            alpha_txt = "" if est.alpha is None else f"{est.alpha:g}"
            fh.write(f"{est.estimator},{alpha_txt},{est.value:.10e}\n")
    return 0


_DISPATCH = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "attack": _cmd_attack,
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "landscape": _cmd_landscape,
    "mi-estimate": _cmd_mi_estimate,
}


def run_config(path, command: str | None = None, seed: int | None = None,
               out_dir: str | None = None) -> int:
    """Load a config, dispatch its command, return a process exit status."""
    try:
        cfg = load_config(path, command=command, seed=seed, out_dir=out_dir)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _DISPATCH[cfg.command](cfg)
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mimir",
                                     description="adversarial masked-autoencoder laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    return run_config(args.config, command=args.command, seed=args.seed, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
