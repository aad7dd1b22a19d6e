"""Command-line entry point.

Subcommands: pretrain | finetune | attack | eval | bounds | landscape |
mi-estimate, each driven by a strict key-value config (see config.py) with
``--seed`` and ``--out`` overrides. All artifacts are CSV files, written by
``data.write_csv`` once a command's results exist, plus binary checkpoints
under the output directory, which is made at the first write, so a failed
run leaves nothing behind and a failed rerun leaves the earlier files. They are
byte-deterministic given the config and seed; the metrics ``seconds``
column is therefore pinned to 0.000 in the files, with real wall-clock
timing available from the epoch metrics at runtime.

Derived random streams: parameter init uses (seed, 0), dataset synthesis
(seed, 1), the per-batch attacks of ``eval`` and ``attack`` (seed, job,
batch), ``attack`` being job 0; the training loop itself consumes the
checkpointed generator seeded with the bare seed, and ``landscape`` draws
its directions from a generator seeded with the bare seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .attacks import attack_ce
from .bounds import bound_curves, write_bound_curve_csv
from .config import ConfigError, ExperimentConfig, load_config
from .data import Dataset, load_cifar10_binary, synth_dataset, write_csv
from .evaluate import (AttackJob, attack_batches, evaluate, landscape_grid, write_eval_csv,
                       write_landscape_csv)
from .mi import hsic_from_grams, rbf_gram, renyi_mi_from_grams
from .model import ModelParams, encode_full, init_params
from .autodiff import Tensor
from .train import TrainState, finetune_epoch, load_checkpoint, pretrain_epoch, save_checkpoint


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    source = cfg.get("data.source")
    if source == "cifar10":
        return load_cifar10_binary(cfg.get("data.dir"), cfg.get("data.split"))
    return synth_dataset(
        num_classes=cfg.get("data.num_classes"),
        samples_per_class=cfg.get("data.samples_per_class"),
        image_size=cfg.get("data.image_size"),
        noise=cfg.get("data.noise"),
        rng=np.random.default_rng([cfg.get("seed"), 1]),
        channels=cfg.get("data.channels"),
    )


def _dataset_and_params(cfg: ExperimentConfig) -> tuple[Dataset, ModelParams]:
    """The dataset and the model, checked to fit; all but ``pretrain`` load a given checkpoint."""
    if cfg.command != "pretrain" and cfg.get("checkpoint") is not None:
        params = load_checkpoint(cfg.get("checkpoint")).params
        cfg.check_model_keys(params.config)
    else:
        params = init_params(cfg.model, np.random.default_rng([cfg.get("seed"), 0]))
    dataset = _build_dataset(cfg)
    arch = params.config
    _, channels, size, width = dataset.images.shape
    if (channels, size, width) != (arch.channels, arch.image_size, arch.image_size):
        raise ConfigError(f"data.image_size = {size} and data.channels = {channels} do not fit the "
                          f"model's image_size = {arch.image_size} and channels = {arch.channels}")
    if cfg.command not in ("pretrain", "mi-estimate") and dataset.num_classes > arch.num_classes:
        raise ConfigError(f"data.num_classes = {dataset.num_classes} exceeds the model's "
                          f"num_classes = {arch.num_classes}")
    return dataset, params


def _check_mi_batches(n: int, batch_size: int, key: str, lam: float) -> None:
    """Reject batches of ``n`` samples that leave one alone for an MI penalty of weight ``lam``."""
    if lam > 0.0 and (n % batch_size or batch_size) < 2:
        raise ConfigError(f"{key} = {batch_size} leaves a batch of 1 of the {n} images, and the "
                          "MI penalty needs at least 2 per batch")


def _cmd_train(cfg: ExperimentConfig) -> int:
    """Train every epoch, then save the checkpoint, then the metrics CSV; a run
    that fails before its last epoch ends writes nothing."""
    dataset, params = _dataset_and_params(cfg)
    if cfg.command == "pretrain":
        _check_mi_batches(len(dataset), cfg.train.batch_size, "train.batch_size", cfg.train.lam)
    epoch_fn = pretrain_epoch if cfg.command == "pretrain" else finetune_epoch
    state = TrainState.create(params, cfg.get("seed"))
    rows = []
    for _ in range(cfg.train.total_epochs):
        metrics = epoch_fn(state, dataset, cfg.train)
        total = metrics.loss_mse + cfg.train.lam * metrics.loss_mi
        rows.append((str(state.epoch), f"{metrics.loss_mse:.10e}", f"{metrics.loss_mi:.10e}",
                     f"{total:.10e}", f"{metrics.lr:.10e}", "0.000"))
    save_checkpoint(state, cfg.out_path(f"{cfg.command}.ckpt"))
    write_csv(cfg.out_path(f"metrics_{cfg.command}.csv"),
              "epoch,loss_mse,loss_mi,loss_total,lr,seconds", rows)
    return 0


def _eval_jobs(cfg: ExperimentConfig) -> list[AttackJob]:
    adaptive_iters = cfg.get("eval.adaptive_iters")
    lam = cfg.get("eval.lambda")
    jobs = []
    for kind in cfg.get("eval.attacks"):
        if kind == "ce":
            jobs.append(AttackJob(f"pgd{cfg.attack.iters}", "ce", cfg.attack))
        else:  # "mi" or "fea"; load_config rejects any other entry
            jobs.append(AttackJob(f"pgd-{kind}{adaptive_iters}", kind,
                                  replace(cfg.attack, iters=adaptive_iters),
                                  lam=lam if kind == "mi" else 0.0))
    return jobs


def _subset(dataset: Dataset, cfg: ExperimentConfig) -> Dataset:
    n = cfg.get("eval.subset")
    if n is None or n >= len(dataset):
        return dataset
    return Dataset(images=dataset.images[:n], labels=dataset.labels[:n],
                   split=dataset.split, num_classes=dataset.num_classes)


def _cmd_eval(cfg: ExperimentConfig) -> int:
    dataset, params = _dataset_and_params(cfg)
    dataset, jobs = _subset(dataset, cfg), _eval_jobs(cfg)
    batch_size = cfg.get("eval.batch_size")
    _check_mi_batches(len(dataset), batch_size, "eval.batch_size", max(job.lam for job in jobs))
    report = evaluate(params, dataset, jobs, seed=cfg.get("seed"), batch_size=batch_size)
    write_eval_csv(report, cfg.out_path("eval.csv"))
    return 0


def _cmd_attack(cfg: ExperimentConfig) -> int:
    """Craft perturbations for the configured budget and record their statistics."""
    dataset, params = _dataset_and_params(cfg)
    dataset = _subset(dataset, cfg)
    rows = []
    for x, y, (rng,) in attack_batches(dataset, cfg.get("eval.batch_size"), cfg.get("seed"), 1):
        pert = attack_ce(params, x, y, cfg.attack, rng)
        rows.append((pert.achieved_loss, float(np.max(np.abs(pert.delta))), len(y)))
    mean_obj = sum(r[0] * r[2] for r in rows) / len(dataset)
    max_linf = max(r[1] for r in rows)
    write_csv(cfg.out_path("attack.csv"), "attack,mean_objective,max_linf,n",
              [(f"pgd{cfg.attack.iters}", f"{mean_obj:.10e}", f"{max_linf:.10e}", str(len(dataset)))])
    return 0


def _cmd_bounds(cfg: ExperimentConfig) -> int:
    curve = bound_curves(cfg.get("bounds.num_classes"), cfg.get("bounds.step"))
    write_bound_curve_csv(curve, cfg.out_path("bounds.csv"))
    return 0


def _cmd_landscape(cfg: ExperimentConfig) -> int:
    dataset, params = _dataset_and_params(cfg)
    rows = landscape_grid(params, dataset, cfg.get("landscape.half_width"),
                          cfg.get("landscape.resolution"),
                          np.random.default_rng(cfg.get("seed")),
                          batch_size=cfg.get("landscape.batch_size"))
    write_landscape_csv(rows, cfg.out_path("landscape.csv"))
    return 0


def _cmd_mi_estimate(cfg: ExperimentConfig) -> int:
    """Dependence estimates between inputs and their encoder latents."""
    dataset, params = _dataset_and_params(cfg)
    n = min(len(dataset), cfg.get("mi.batch_size"))
    x = dataset.images[:n]
    z = encode_full(params.constants(), Tensor(x)).data
    # one median-bandwidth Gram per variable, shared by both estimators
    k_x = rbf_gram(x.reshape(n, -1))
    k_z = rbf_gram(z.reshape(n, -1))
    alpha = cfg.get("mi.alpha")
    rows = [("hsic", "", f"{hsic_from_grams(k_x, k_z):.10e}"),
            ("renyi", f"{alpha:g}", f"{renyi_mi_from_grams(k_x, k_z, alpha):.10e}")]
    write_csv(cfg.out_path("mi.csv"), "estimator,alpha,value", rows)
    return 0


_DISPATCH = {
    "pretrain": _cmd_train,
    "finetune": _cmd_train,
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
