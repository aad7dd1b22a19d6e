"""The benchmark workloads, driven only through mimir's public functions.

Each workload is built from a seed: the seed fixes the synthetic images, the
parameter init and every random stream the package draws, so one seed gives
one set of inputs. The constructor is the set-up that ``setup_s`` measures;
``prepare`` is untimed work that must precede the first step; ``step`` is one
closed-loop unit of work; ``check`` validates one step's output and returns
an error message or ``None``; ``finish`` checks the run as a whole after the
timed steps; ``fingerprint`` hashes the final parameters or output bytes so
that a later change to the numerics shows.

Every call into the package goes through a module attribute
(``train.pretrain_epoch``, never a ``from`` import) so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from mimir import attacks, cli, data, evaluate, model, train

# ViT shapes. tiny16 is the test-suite config; mid32 is CIFAR-shaped
# (3x32x32, patch 4, 6x96 encoder, 2x64 decoder).
TINY16 = dict(image_size=16, channels=1, patch_size=4, enc_layers=2, enc_dim=32, enc_heads=4,
              enc_mlp_ratio=4, dec_layers=1, dec_dim=16, dec_heads=4, dec_mlp_ratio=4,
              num_classes=4, mask_ratio=0.75)
MID32 = dict(image_size=32, channels=3, patch_size=4, enc_layers=6, enc_dim=96, enc_heads=4,
             enc_mlp_ratio=4, dec_layers=2, dec_dim=64, dec_heads=4, dec_mlp_ratio=4,
             num_classes=10, mask_ratio=0.75)

# The time-based loop never knows its step count, so the cosine schedule gets
# a horizon no run reaches; the learning rate stays near its base value.
HORIZON_EPOCHS = 1_000_000
PREPARE_PRETRAIN_EPOCHS = 10
PREPARE_FINETUNE_EPOCHS = 30


def _dataset(num_classes: int, per_class: int, size: int, channels: int, seed: int,
             keep: int | None = None) -> data.Dataset:
    ds = data.synth_dataset(num_classes, per_class, size, 0.1, np.random.default_rng([seed, 1]),
                            channels=channels)
    if keep is None:
        return ds
    return data.Dataset(images=ds.images[:keep], labels=ds.labels[:keep], split=ds.split,
                        num_classes=ds.num_classes)


def _params_digest(params: model.ModelParams) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params.tensors[name].data, dtype="<f8").tobytes())
    return h.hexdigest()


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class Pretrain:
    """Adversarial masked pre-training of mid32 on a one-batch slice of 32 images."""

    images_per_step = 32

    def __init__(self, seed: int, workdir: str):
        self.dataset = _dataset(10, 4, 32, 3, seed, keep=32)
        params = model.init_params(model.ViTConfig(**MID32), np.random.default_rng([seed, 0]))
        self.state = train.TrainState.create(params, seed)
        self.config = train.TrainConfig(base_lr=1e-3, total_epochs=HORIZON_EPOCHS, batch_size=32,
                                        attack=attacks.pretrain_attack_spec(), lam=1e-5,
                                        estimator="hsic")
        self.first_mse: float | None = None
        self.last_mse: float | None = None

    @property
    def params(self) -> model.ModelParams:
        return self.state.params

    def prepare(self) -> None:
        pass

    def step(self) -> train.EpochMetrics:
        return train.pretrain_epoch(self.state, self.dataset, self.config)

    def check(self, out: train.EpochMetrics) -> str | None:
        if not _finite(out.loss_mse, out.loss_mi, out.loss_adv):
            return f"non-finite losses {out}"
        if self.first_mse is None:
            self.first_mse = out.loss_mse
        self.last_mse = out.loss_mse
        return None

    def finish(self) -> str | None:
        if self.last_mse is None or not self.last_mse < self.first_mse:
            return f"pretrain MSE did not fall: first {self.first_mse}, last {self.last_mse}"
        return None

    def fingerprint(self) -> str:
        return _params_digest(self.params)


class Finetune:
    """PGD-10 adversarial fine-tuning of tiny16 on a one-batch slice of 16 images.

    The attack is the fine-tuning default (epsilon 8/255, step 2/255, zero
    init); lambda is 0 and the layer-wise lr decay 0.65, so neither the
    decoder nor ``mi`` runs.
    """

    images_per_step = 16

    def __init__(self, seed: int, workdir: str):
        self.dataset = _dataset(4, 4, 16, 1, seed)
        params = model.init_params(model.ViTConfig(**TINY16), np.random.default_rng([seed, 0]))
        self.state = train.TrainState.create(params, seed)
        self.config = train.TrainConfig(base_lr=1e-3, total_epochs=HORIZON_EPOCHS, batch_size=16,
                                        attack=attacks.finetune_attack_spec(), lam=0.0,
                                        layer_decay=0.65)

    @property
    def params(self) -> model.ModelParams:
        return self.state.params

    def prepare(self) -> None:
        pass

    def step(self) -> train.EpochMetrics:
        return train.finetune_epoch(self.state, self.dataset, self.config)

    def check(self, out: train.EpochMetrics) -> str | None:
        if not _finite(out.loss_mse, out.loss_mi, out.loss_adv):
            return f"non-finite losses {out}"
        return None

    def finish(self) -> str | None:
        return None

    def fingerprint(self) -> str:
        return _params_digest(self.params)


class Eval:
    """Natural plus adaptive-attack robust accuracy of a tiny16 model on 32 images.

    The jobs are the CLI defaults: PGD-20 cross-entropy, the 100-step MI
    attack (HSIC, lambda 1e-5) and the 100-step feature attack.
    """

    images_per_step = 32

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dataset = _dataset(4, 8, 16, 1, seed)
        self.params = model.init_params(model.ViTConfig(**TINY16), np.random.default_rng([seed, 0]))
        spec = attacks.adaptive_attack_spec()
        self.jobs = [
            evaluate.AttackJob(name="pgd20", kind="ce",
                               spec=attacks.AttackSpec(epsilon=attacks.EPS_8_255,
                                                       step_size=attacks.STEP_2_255,
                                                       iters=20, init="random")),
            evaluate.AttackJob(name="pgd-mi100", kind="mi", spec=spec, lam=1e-5),
            evaluate.AttackJob(name="pgd-fea100", kind="fea", spec=spec),
        ]
        self.first: evaluate.EvalReport | None = None
        self.last: evaluate.EvalReport | None = None

    def prepare(self) -> None:
        """A short seeded pre-train, then a short natural fine-tune.

        The recipe is fixed, so natural accuracy lands wherever the seed takes
        it; the attacks need correct predictions to flip.
        """
        pre = train.TrainConfig(base_lr=2e-3, total_epochs=PREPARE_PRETRAIN_EPOCHS, batch_size=32,
                                warmup_epochs=1, attack=attacks.pretrain_attack_spec(), lam=1e-5)
        state = train.TrainState.create(self.params, self.seed)
        for _ in range(pre.total_epochs):
            train.pretrain_epoch(state, self.dataset, pre)
        natural = attacks.AttackSpec(epsilon=0.0, step_size=attacks.STEP_2_255, iters=1, init="zero")
        ft = train.TrainConfig(base_lr=5e-3, total_epochs=PREPARE_FINETUNE_EPOCHS, batch_size=16,
                               warmup_epochs=2, attack=natural, betas=(0.9, 0.999), lam=0.0)
        state = train.TrainState.create(state.params, self.seed)
        for _ in range(ft.total_epochs):
            train.finetune_epoch(state, self.dataset, ft)
        self.params = state.params

    def step(self) -> evaluate.EvalReport:
        return evaluate.evaluate(self.params, self.dataset, self.jobs, seed=self.seed, batch_size=32)

    def check(self, out: evaluate.EvalReport) -> str | None:
        self.last = out
        if self.first is None:
            self.first = out
        if out.n != len(self.dataset):
            return f"eval n {out.n} != {len(self.dataset)}"
        if [name for name, _ in out.robust] != [job.name for job in self.jobs]:
            return f"eval columns {out.robust}"
        for name, robust in out.robust:
            if not 0.0 <= robust <= out.natural <= 100.0:
                return f"eval {name}: need 0 <= robust {robust} <= natural {out.natural} <= 100"
        if (out.natural, out.robust) != (self.first.natural, self.first.robust):
            return f"eval not deterministic: {out} vs {self.first}"
        return None

    def finish(self) -> str | None:
        return None

    def fingerprint(self) -> str:
        if self.last is None:
            return hashlib.sha256(b"").hexdigest()
        path = os.path.join(self.workdir, "eval.csv")
        evaluate.write_eval_csv(self.last, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


class MIEstimate:
    """``mi-estimate`` through ``cli.run_config`` on a seeded mid32 checkpoint, 64 images."""

    images_per_step = 64
    params = None  # the checkpoint is loaded inside every step

    def __init__(self, seed: int, workdir: str):
        self.out_dir = os.path.join(workdir, "mi")
        ckpt = os.path.join(workdir, "mid32.ckpt")
        params = model.init_params(model.ViTConfig(**MID32), np.random.default_rng([seed, 0]))
        train.save_checkpoint(train.TrainState.create(params, seed), ckpt)
        self.config_path = os.path.join(workdir, "mi.cfg")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(f"command = mi-estimate\nseed = {seed}\nout_dir = {self.out_dir}\n"
                     f"checkpoint = {ckpt}\ndata.source = synth\ndata.num_classes = 10\n"
                     "data.samples_per_class = 7\ndata.image_size = 32\ndata.channels = 3\n"
                     "data.noise = 0.1\nmi.batch_size = 64\nmi.alpha = 2\n")
        self.first: bytes | None = None

    def prepare(self) -> None:
        pass

    def step(self) -> bytes:
        status = cli.run_config(self.config_path)
        if status != 0:
            raise RuntimeError(f"mi-estimate exited with status {status}")
        with open(os.path.join(self.out_dir, "mi.csv"), "rb") as fh:
            return fh.read()

    def check(self, out: bytes) -> str | None:
        lines = out.decode("utf-8").splitlines()
        if lines[:1] != ["estimator,alpha,value"] or len(lines) != 3:
            return f"mi.csv layout: {lines}"
        rows = {}
        for line in lines[1:]:
            estimator, _, value = line.split(",")
            rows[estimator] = float(value)
        if set(rows) != {"hsic", "renyi"} or not _finite(*rows.values()) or rows["hsic"] < 0.0:
            return f"mi.csv values: {rows}"
        if self.first is None:
            self.first = out
        elif out != self.first:
            return "mi.csv bytes differ between identical calls"
        return None

    def finish(self) -> str | None:
        return None

    def fingerprint(self) -> str:
        return hashlib.sha256(self.first or b"").hexdigest()


WORKLOADS = {
    "pretrain-mid32": Pretrain,
    "finetune-tiny16": Finetune,
    "eval-tiny16": Eval,
    "mi-estimate-mid32": MIEstimate,
}
