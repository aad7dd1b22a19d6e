"""Pre-training and fine-tuning loops, AdamW, LR schedule, checkpoints.

Pre-training follows the line order: sample batch, draw a fresh mask plan,
random-init the perturbation, run the 1-step reconstruction attack, forward,
reconstruction loss plus the weighted MI penalty, backward, optimizer step.
Fine-tuning runs the classification inner max per batch and steps with
layer-wise learning-rate decay; the decoder and the mask token stay
unchanged there because nothing in ``classify`` reaches them, so their
``.grad`` stays None and AdamW skips them. Both stages run ``_epoch``.

Pre-training trains on the attack's last forward: the reconstruction
attack scores its last iterate on the live parameters, and when the
returned point has that iterate's bits, its ``(z, recon)`` pair
(``Perturbation.last_forward``) is the forward of the loss. Otherwise the
loop runs a fresh forward at ``x + delta``. Either way the loss is
computed by the same ops on the same bits, so the results do not depend on
which path ran. The attacks' own backward passes stay on constant
parameters and write no ``.grad``. Fine-tuning runs a fresh forward at
``x + delta`` after its attack. The training forward and backward run in
image shares like the attacks' passes (see ``model._split_pass``).

Checkpoint format (version 2, all integers little-endian):
    magic 'MIMR' | uint32 version
    uint32 config-JSON length | config JSON (the architecture description)
    tensor table   -- every named model tensor
    tensor table   -- first AdamW moment, trainable tensors only
    tensor table   -- second AdamW moment, trainable tensors only
    uint64 step | uint64 epoch
    uint32 rng-JSON length | bit-generator state JSON
    uint32 CRC-32 of every preceding byte
Each tensor table is a uint32 count followed by entries of:
    uint16 name length | UTF-8 name | uint8 dtype (0 = float64)
    | uint8 flags (bit 0: requires_grad) | uint8 rank | uint32 extents...
    | little-endian IEEE-754 payload
and names no tensor twice. Round trips are byte-exact, so saving, loading,
and saving again produces identical files and resuming reproduces an
uninterrupted run bit for bit.

Both directions stream through the CRC: a save writes each block and each
tensor's buffer straight to the file, and a load reads front to back, each
tensor into the array it returns, so neither holds a copy of the payload.
A load whose parse stops at an error still reads the rest of the file and
reports a CRC mismatch first, so a damaged file is reported as damaged
whatever its damage broke. Every length is checked against the bytes left
before anything is allocated for it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import _replacing
from .attacks import AttackSpec, attack_ce, attack_recon
from .mi import PenaltyConfig, penalty_mi
from .model import (MaskPlan, ModelParams, ViTConfig, _check_count, autoencoder_pass, classify,
                    param_specs, patchify, sample_mask)

Array = np.ndarray

CHECKPOINT_MAGIC = b"MIMR"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float
    total_epochs: int
    batch_size: int
    attack: AttackSpec
    warmup_epochs: int = 0
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.05
    lam: float = 1e-5
    estimator: str = "hsic"
    layer_decay: float = 1.0
    recon_masked_only: bool = False

    def __post_init__(self):
        for name, low in (("total_epochs", 1), ("batch_size", 1), ("warmup_epochs", 0)):
            _check_count(name, getattr(self, name), low)
        if self.warmup_epochs >= self.total_epochs:
            raise ValueError(f"warmup_epochs {self.warmup_epochs} must be below "
                             f"total_epochs {self.total_epochs}")
        if not self.base_lr > 0.0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        for name in ("weight_decay", "lam"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("base_lr", "weight_decay", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.layer_decay <= 1.0:
            raise ValueError(f"layer_decay must lie in (0, 1], got {self.layer_decay}")
        PenaltyConfig(estimator=self.estimator)  # rejects unknown estimator names
        for i, beta in enumerate(self.betas):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"betas[{i}] must lie in [0, 1), got {beta}")


@dataclass
class TrainState:
    params: ModelParams
    m: dict[str, Array]
    v: dict[str, Array]
    step: int
    epoch: int
    rng: np.random.Generator

    @classmethod
    def create(cls, params: ModelParams, seed: int) -> "TrainState":
        m = {name: np.zeros_like(t.data) for name, t in params.trainable()}
        v = {name: np.zeros_like(t.data) for name, t in params.trainable()}
        return cls(params=params, m=m, v=v, step=0, epoch=0, rng=np.random.default_rng(seed))


@dataclass
class EpochMetrics:
    loss_mse: float
    loss_mi: float
    loss_adv: float
    lr: float
    seconds: float


def cosine_lr(step: int, warmup_steps: int, total_steps: int, base_lr: float) -> float:
    """Linear 0 -> base over warmup, then half-cosine decay to 0 at total_steps."""
    if total_steps <= warmup_steps:
        raise ValueError("total_steps must exceed warmup_steps")
    if step > total_steps:
        raise ValueError(f"step {step} beyond total_steps {total_steps}")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))


def adamw_step(state: TrainState, grads: dict[str, Array], lr: float, config: TrainConfig,
               lr_scales: dict[str, float] | None = None) -> TrainState:
    """One decoupled-weight-decay Adam update over the given named gradients."""
    b1, b2 = config.betas
    t = state.step + 1
    for name, g in grads.items():
        p = state.params[name]
        if g.shape != p.data.shape:
            raise ValueError(f"adamw_step: gradient shape {g.shape} != param {p.data.shape} for {name}")
        eff = lr * (lr_scales.get(name, 1.0) if lr_scales else 1.0)
        with np.errstate(all="ignore"):  # a non-finite result is refused by name below
            m = b1 * state.m[name] + (1.0 - b1) * g
            v = b2 * state.v[name] + (1.0 - b2) * (g * g)
            new = p.data - eff * (m / (1.0 - b1 ** t) / (np.sqrt(v / (1.0 - b2 ** t)) + 1e-8)
                                  + config.weight_decay * p.data)
        if not np.isfinite(new).all():
            raise FloatingPointError(f"adamw_step: non-finite update for {name}")
        state.m[name], state.v[name], p.data = m, v, new
    state.step = t
    return state


def layer_lr_scales(params: ModelParams, layer_decay: float) -> dict[str, float]:
    """Geometric LR factors from the head backward: head and final norm are 1,
    encoder block i gets decay^(L - i), the patch embedding decay^(L + 1)."""
    n = params.config.enc_layers
    scales: dict[str, float] = {}
    for name, _ in params.trainable():
        if name.startswith(("head.", "enc_norm.")):
            scales[name] = 1.0
        elif name.startswith("enc."):
            block = int(name.split(".")[1])
            scales[name] = layer_decay ** (n - block)
        elif name.startswith("patch_embed."):
            scales[name] = layer_decay ** (n + 1)
    return scales


# ---------------------------------------------------------------------------
# losses

def _mimir_loss_parts(params: ModelParams, images: Array, plan: MaskPlan, delta: Array,
                      config: TrainConfig, penalty: PenaltyConfig | None = None,
                      forward: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, float, float]:
    """Loss tensor plus the raw (mse, penalty) values for metrics.

    ``forward`` is the ``(z, recon)`` pair of ``autoencoder_pass`` at ``images + delta``
    (the attack's ``last_forward``); without it a fresh one is run.
    """
    cfg = params.config
    x = np.asarray(images, dtype=np.float64)
    x_adv = Tensor(x + np.asarray(delta, dtype=np.float64))
    z, recon = autoencoder_pass(params, x_adv, plan) if forward is None else forward
    target_patches = patchify(Tensor(x), cfg.patch_size)
    if config.recon_masked_only:
        mse = ad.mse_loss(ad.gather_rows(recon, plan.masked),
                          ad.gather_rows(target_patches, plan.masked))
    else:
        mse = ad.mse_loss(recon, target_patches)
    if config.lam == 0.0:
        return mse, mse.item(), 0.0
    x_vis = ad.gather_rows(patchify(x_adv, cfg.patch_size), plan.visible)
    pen = penalty_mi(x_vis, z, penalty or PenaltyConfig(estimator=config.estimator))
    loss = ad.add(mse, ad.scale(pen, config.lam))
    return loss, mse.item(), pen.item()


def mimir_loss(params: ModelParams, images: Array, plan: MaskPlan, delta: Array,
               config: TrainConfig, penalty: PenaltyConfig | None = None) -> Tensor:
    """Reconstruction MSE against natural images plus the weighted MI penalty.

    ``delta`` comes from :func:`mimir.attacks.attack_recon`; the penalty
    couples the flattened visible patches of x+delta with the encoder
    tokens, both living on the same graph as the MSE term.
    """
    loss, _, _ = _mimir_loss_parts(params, images, plan, delta, config, penalty)
    return loss


# ---------------------------------------------------------------------------
# epochs

def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _batch_grads(state: TrainState, step_loss, idx) -> tuple[dict[str, Array], tuple[float, ...]]:
    """Gradients of batch ``idx``'s loss and its (mse, mi, adv) values.

    The batch's graph (its loss and the attack's ``last_forward``) dies on
    return, before the optimizer step and the next batch's attack.
    """
    loss, mse_value, mi_value, pert = step_loss(idx)
    state.params.zero_grads()
    ad.backward(loss)
    grads = {name: t.grad for name, t in state.params.trainable() if t.grad is not None}
    return grads, (mse_value, mi_value, pert.achieved_loss)


def _epoch(state: TrainState, dataset, config: TrainConfig, step_loss,
           lr_scales: dict[str, float] | None = None) -> EpochMetrics:
    """Shuffled batches, one AdamW step each on the warmup-cosine schedule.

    ``step_loss(idx)`` returns the loss of batch ``idx``, its ``loss_mse`` and ``loss_mi``, and the
    batch's attack, whose ``achieved_loss`` is ``loss_adv``.
    """
    started = time.perf_counter()
    n = len(dataset)
    if n == 0:
        raise ValueError("empty dataset")
    steps_per_epoch = math.ceil(n / config.batch_size)
    warmup = config.warmup_epochs * steps_per_epoch
    total = config.total_epochs * steps_per_epoch
    sums = np.zeros(3)
    lr = 0.0
    batches = 0
    for idx in _batches(n, config.batch_size, state.rng):
        grads, values = _batch_grads(state, step_loss, idx)
        lr = cosine_lr(state.step, warmup, total, config.base_lr)
        adamw_step(state, grads, lr, config, lr_scales=lr_scales)
        sums += values
        batches += 1
    state.epoch += 1
    mse_mean, mi_mean, adv_mean = sums / batches
    return EpochMetrics(loss_mse=mse_mean, loss_mi=mi_mean, loss_adv=adv_mean,
                        lr=lr, seconds=time.perf_counter() - started)


def pretrain_epoch(state: TrainState, dataset, config: TrainConfig) -> EpochMetrics:
    """One epoch of adversarial masked-reconstruction pre-training."""
    cfg = state.params.config

    def step_loss(idx):
        x = dataset.images[idx]
        plan = sample_mask(cfg.num_patches, cfg.mask_ratio, state.rng, batch_size=len(idx))
        pert = attack_recon(state.params, x, plan, config.attack, state.rng)
        loss, mse_value, mi_value = _mimir_loss_parts(state.params, x, plan, pert.delta, config,
                                                      forward=pert.last_forward)
        return loss, mse_value, mi_value, pert

    return _epoch(state, dataset, config, step_loss)


def finetune_epoch(state: TrainState, dataset, config: TrainConfig) -> EpochMetrics:
    """One epoch of adversarial fine-tuning of encoder plus classification head.

    ``classify`` never reaches the decoder or the mask token, so they get no
    gradient and no update. The metrics reuse the pre-training field layout:
    ``loss_mse`` holds the adversarial cross-entropy.
    """
    if "head.weight" not in state.params.tensors:
        raise ValueError("finetune_epoch: classification head missing")

    def step_loss(idx):
        x, y = dataset.images[idx], dataset.labels[idx]
        pert = attack_ce(state.params, x, y, config.attack, state.rng)
        loss = ad.cross_entropy(classify(state.params, Tensor(x + pert.delta)), y)
        return loss, loss.item(), 0.0, pert

    return _epoch(state, dataset, config, step_loss,
                  lr_scales=layer_lr_scales(state.params, config.layer_decay))


# ---------------------------------------------------------------------------
# persistence

class _CrcWriter:
    """An open file as a sink of blocks: ``append`` writes one and folds it into ``crc``."""

    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def append(self, block) -> None:
        self.fh.write(block)
        self.crc = zlib.crc32(block, self.crc)


def _write_tensor_table(chunks: _CrcWriter, entries: list[tuple[str, Array, bool]]) -> None:
    chunks.append(struct.pack("<I", len(entries)))
    for name, data, requires_grad in entries:
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(data, dtype="<f8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BBB", 0, 1 if requires_grad else 0, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(memoryview(arr))


class _Reader:
    """Front-to-back reads of an open checkpoint that fold every byte read into ``crc``.

    ``left`` counts the unread bytes before the CRC-32 trailer once ``seal`` has
    set it aside. A read of more than that fails as a truncated file before
    anything is allocated for it.
    """

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.crc = 0

    def _need(self, n: int) -> None:
        if n > self.left:
            raise CheckpointError("truncated checkpoint")

    def _into(self, buf):
        n = memoryview(buf).nbytes
        if self.fh.readinto(buf) != n:
            raise CheckpointError("truncated checkpoint")
        self.crc = zlib.crc32(buf, self.crc)
        self.left -= n
        return buf

    def take(self, n: int) -> bytearray:
        self._need(n)
        return self._into(bytearray(n))

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, extents: tuple[int, ...]) -> Array:
        self._need(math.prod(extents) * 8)
        return self._into(np.empty(extents, dtype="<f8"))

    def seal(self) -> None:
        """Set the CRC-32 trailer aside from the bytes left to read."""
        self._need(4)
        self.left -= 4

    def verify(self) -> None:
        """Fold the unread bytes into the CRC in blocks of 1 MiB and compare it to the trailer."""
        block = memoryview(bytearray(min(self.left, 2**20)))
        while self.left:
            self._into(block[:min(self.left, len(block))])
        if self.fh.read(4) != struct.pack("<I", self.crc):
            raise CheckpointError("checksum mismatch: the checkpoint is damaged")


def _read_tensor_table(r: _Reader, table: str) -> dict[str, tuple[Array, bool]]:
    """The ``table`` tensors by name, with their requires_grad flags; a repeated name fails."""
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError("corrupt tensor name") from exc
        dtype, flags, rank = r.unpack("<BBB")
        if dtype != 0:
            raise CheckpointError(f"unknown dtype code {dtype}")
        if rank > 8:
            raise CheckpointError(f"implausible tensor rank {rank}")
        extents = r.unpack(f"<{rank}I") if rank else ()
        if any(e < 1 for e in extents):
            raise CheckpointError("corrupt shape table")
        data = r.array(extents)
        if name in entries:
            raise CheckpointError(f"the {table} table lists {name!r} twice")
        entries[name] = (data, bool(flags & 1))
    return entries


def save_checkpoint(state: TrainState, path) -> None:
    config_json = json.dumps(asdict(state.params.config), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    rng_json = json.dumps(state.rng.bit_generator.state, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    with _replacing(path) as tmp, open(tmp, "wb") as fh:
        chunks = _CrcWriter(fh)
        chunks.append(CHECKPOINT_MAGIC)
        chunks.append(struct.pack("<II", CHECKPOINT_VERSION, len(config_json)))
        chunks.append(config_json)
        _write_tensor_table(chunks, [(n, t.data, t.requires_grad)
                                     for n, t in state.params.tensors.items()])
        _write_tensor_table(chunks, [(n, a, True) for n, a in state.m.items()])
        _write_tensor_table(chunks, [(n, a, True) for n, a in state.v.items()])
        chunks.append(struct.pack("<QQ", state.step, state.epoch))
        chunks.append(struct.pack("<I", len(rng_json)))
        chunks.append(rng_json)
        fh.write(struct.pack("<I", chunks.crc))


def _check_shapes(params: ModelParams, m: dict[str, Array], v: dict[str, Array]) -> None:
    """Tensors must match ``param_specs`` of the stored config in shape and in trainable flag;
    moments must match their params."""
    specs = param_specs(params.config)
    stray = sorted(set(specs) ^ set(params.tensors))
    if stray:
        raise CheckpointError(f"tensors {stray} are missing or unexpected for the stored config")
    for name, t in params.tensors.items():
        shape, init = specs[name]
        if t.shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {t.shape}, its config needs {shape}")
        if t.requires_grad != (init != "sincos"):
            raise CheckpointError(f"tensor {name!r} has requires_grad={t.requires_grad}, "
                                  f"its config needs {not t.requires_grad}")
    trainable = {name for name, _ in params.trainable()}
    if set(m) != trainable or set(v) != trainable:
        raise CheckpointError("optimizer tables do not match the trainable parameters")
    for table, moments in (("m", m), ("v", v)):
        for name, data in moments.items():
            if data.shape != params[name].shape:
                raise CheckpointError(f"{table}[{name!r}] has shape {data.shape}, "
                                      f"its parameter has {params[name].shape}")


def _read_state(r: _Reader) -> TrainState:
    (cfg_len,) = r.unpack("<I")
    config_blob = r.take(cfg_len)
    try:
        config = ViTConfig(**json.loads(config_blob.decode("utf-8")))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt architecture description: {exc!r}") from exc
    table = _read_tensor_table(r, "parameter")
    # Tensor copies its array, so each array leaves the table as its copy is made
    tensors = {name: Tensor(*table.pop(name)) for name in list(table)}
    params = ModelParams(config=config, tensors=tensors)
    m = {name: data for name, (data, _) in _read_tensor_table(r, "m").items()}
    v = {name: data for name, (data, _) in _read_tensor_table(r, "v").items()}
    step, epoch = r.unpack("<QQ")
    (rng_len,) = r.unpack("<I")
    rng_blob = r.take(rng_len)
    if r.left:
        raise CheckpointError("trailing bytes after checkpoint payload")
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = json.loads(rng_blob.decode("utf-8"))
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CheckpointError(f"corrupt rng state: {exc!r}") from exc
    _check_shapes(params, m, v)
    return TrainState(params=params, m=m, v=v, step=int(step), epoch=int(epoch), rng=rng)


def load_checkpoint(path) -> TrainState:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        if r.take(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic: not a checkpoint file")
        (version,) = r.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        r.seal()
        try:
            return _read_state(r)
        finally:
            # read to the end whatever stopped the parse: a CRC mismatch wins over its error
            r.verify()
