"""Dataset loading and synthesis, and the one CSV writer.

Images are float64 in [0, 1], shaped [N, C, H, W]. The CIFAR-10 loader reads
the standard binary batch files; the synthetic generator produces
class-conditional stripe patterns that a nearest-template classifier
separates perfectly at zero noise, which keeps desk-scale experiments
meaningful. ``write_csv`` writes every CSV artifact, and ``_replacing`` makes
each artifact write, CSV or checkpoint, replace its file in one step.
"""

from __future__ import annotations

import contextlib
import glob
import os
import stat
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 x 32 x 32 channel planes


@dataclass
class Dataset:
    images: Array
    labels: Array
    split: str
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N, C, H, W], got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must be one class index per image")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.images.shape[0]


def _parse_cifar_file(path: str) -> tuple[Array, Array]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
        raise ValueError(f"{path}: length {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise ValueError(f"{path}: label byte exceeds 9")
    images = raw[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10_binary(directory, split: str = "train") -> Dataset:
    """Load CIFAR-10 from its binary batch files (data_batch_*.bin / test_batch.bin)."""
    directory = os.fspath(directory)
    if split == "train":
        paths = sorted(glob.glob(os.path.join(directory, "data_batch_*.bin")))
    elif split == "test":
        candidate = os.path.join(directory, "test_batch.bin")
        paths = [candidate] if os.path.exists(candidate) else []
    else:
        raise ValueError(f"unknown split {split!r}")
    if not paths:
        raise FileNotFoundError(f"no CIFAR-10 {split} batch files under {directory}")
    parts = [_parse_cifar_file(p) for p in paths]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return Dataset(images=images, labels=labels, split=split, num_classes=10)


def class_templates(num_classes: int, image_size: int, channels: int = 1) -> Array:
    """Noise-free per-class stripe patterns, [K, C, H, W] in [0, 1]."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if image_size < 2:
        raise ValueError("image_size must be at least 2")
    coords = np.arange(image_size, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    out = np.empty((num_classes, channels, image_size, image_size))
    for k in range(num_classes):
        angle = np.pi * k / num_classes
        freq = 1.0 + (k % 3)
        phase = 2.0 * np.pi * k / num_classes
        axis = np.cos(angle) * xx + np.sin(angle) * yy
        for c in range(channels):
            wave = np.sin(2.0 * np.pi * freq * axis / image_size + phase + 0.5 * c)
            out[k, c] = 0.5 + 0.4 * wave
    return out


def synth_dataset(num_classes: int, samples_per_class: int, image_size: int, noise: float,
                  rng: np.random.Generator, channels: int = 1) -> Dataset:
    """Class templates plus uniform pixel noise, shuffled; deterministic per rng."""
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be positive")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    templates = class_templates(num_classes, image_size, channels)
    n = num_classes * samples_per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    images = templates[labels]
    if noise > 0.0:
        images = images + rng.uniform(-noise, noise, size=images.shape)
    images = np.clip(images, 0.0, 1.0)
    order = rng.permutation(n)
    return Dataset(images=images[order], labels=labels[order], split="synth",
                   num_classes=num_classes)


@contextlib.contextmanager
def _replacing(path):
    """A temporary path beside ``path`` to write, moved over ``path`` when the block ends and
    removed if it raises; ``path`` keeps the permission bits writing in place would give it."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        yield tmp
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and each row's formatted fields, comma-joined; every line is
    built before the file is opened, so a row that fails to format leaves no file."""
    text = "".join(f"{line}\n" for line in [header, *(",".join(row) for row in rows)])
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
