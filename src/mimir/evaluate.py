"""Natural/robust accuracy evaluation and loss-landscape grids.

Evaluation shards the dataset into fixed-order batches; the attack for
batch ``b`` of job ``j`` uses a generator seeded with (root_seed, j, b), so
reports are deterministic and independent of sharding concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attacks import AttackSpec, attack_ce, attack_fea, attack_mi
from .data import Dataset, write_csv
from .mi import PenaltyConfig
from .model import ModelParams, classify

Array = np.ndarray


# attack kind -> its runner: (params, job, images, labels, rng) -> the job's Perturbation
ATTACKS = {"ce": lambda p, job, x, y, rng: attack_ce(p, x, y, job.spec, rng),
           "mi": lambda p, job, x, y, rng: attack_mi(p, PenaltyConfig(), x, y, job.lam, job.spec, rng),
           "fea": lambda p, job, x, y, rng: attack_fea(p, x, job.spec, rng)}


@dataclass(frozen=True)
class AttackJob:
    """One robust-accuracy column: an attack kind of ``ATTACKS`` plus its spec."""

    name: str
    kind: str
    spec: AttackSpec
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ATTACKS:
            raise ValueError(f"unknown attack kind {self.kind!r}")


@dataclass
class EvalReport:
    natural: float              # percent
    robust: list[tuple[str, float]]
    n: int


def _predict(params: ModelParams, images: Array) -> Array:
    return np.argmax(classify(params.constants(), Tensor(images)).data, axis=1)


def _run_job(params: ModelParams, job: AttackJob, images: Array, labels: Array,
             rng: np.random.Generator) -> Array:
    return images + ATTACKS[job.kind](params, job, images, labels, rng).delta


def attack_batches(dataset: Dataset, batch_size: int, seed: int, jobs: int):
    """Fixed-order batches ``(x, y, rngs)``; ``rngs[j]`` is seeded ``(seed, j, batch)``."""
    for b, start in enumerate(range(0, len(dataset), batch_size)):
        yield (dataset.images[start:start + batch_size], dataset.labels[start:start + batch_size],
               [np.random.default_rng([seed, j, b]) for j in range(jobs)])


def evaluate(params: ModelParams, dataset: Dataset, jobs: list[AttackJob],
             seed: int = 0, batch_size: int = 64) -> EvalReport:
    """Natural accuracy plus robust accuracy under each attack job.

    A sample counts as robust to a job only if it is classified right both
    at ``x`` and at the job's ``x + delta``, so robust never exceeds natural.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    correct_nat = 0
    correct_rob = [0] * len(jobs)
    for x, y, rngs in attack_batches(dataset, batch_size, seed, len(jobs)):
        clean = _predict(params, x) == y
        correct_nat += int(clean.sum())
        for j, (job, rng) in enumerate(zip(jobs, rngs)):
            x_adv = _run_job(params, job, x, y, rng)
            correct_rob[j] += int((clean & (_predict(params, x_adv) == y)).sum())
    robust = [(job.name, 100.0 * c / n) for job, c in zip(jobs, correct_rob)]
    return EvalReport(natural=100.0 * correct_nat / n, robust=robust, n=n)


def write_eval_csv(report: EvalReport, path) -> None:
    """CSV schema: ``attack,natural,robust,n``; natural repeated per row."""
    write_csv(path, "attack,natural,robust,n",
              ((name, f"{report.natural:.6f}", f"{pct:.6f}", str(report.n))
               for name, pct in report.robust or [("none", report.natural)]))


def _dataset_ce(params: ModelParams, dataset: Dataset, batch_size: int) -> float:
    params = params.constants()
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        x = dataset.images[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        ce = ad.cross_entropy(classify(params, Tensor(x)), y)
        total += ce.item() * len(y)
    return total / len(dataset)


def _check_half_width(grid_half_width: float) -> float:
    grid_half_width = float(grid_half_width)
    if not 0.0 < grid_half_width < np.inf:
        raise ValueError(f"grid_half_width must be positive and finite, got {grid_half_width}")
    return grid_half_width


def landscape_grid(params: ModelParams, dataset: Dataset, grid_half_width: float,
                   resolution: int, rng: np.random.Generator,
                   batch_size: int = 64) -> list[tuple[float, float, float]]:
    """Cross-entropy over a 2-D slice of parameter space.

    Two random directions are drawn, each rescaled per named tensor to match
    that tensor's norm (zero-norm tensors stay unperturbed); the loss is
    evaluated at theta + a d1 + b d2 over an odd-resolution grid so the
    exact unperturbed loss sits at the center cell. Each other cell is scored
    on a fresh ``ModelParams`` holding the moved tensors; ``params`` is never edited.
    """
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError("resolution must be an odd integer >= 3")
    grid_half_width = _check_half_width(grid_half_width)
    if len(dataset) == 0:
        raise ValueError("landscape_grid: empty dataset")

    names = [name for name, _ in params.trainable()]

    def draw_direction() -> dict[str, Array]:
        direction = {}
        for name in names:
            base = params[name].data
            d = rng.normal(size=base.shape)
            d_norm = float(np.sqrt((d * d).sum()))
            p_norm = float(np.sqrt((base * base).sum()))
            direction[name] = d * (p_norm / d_norm) if d_norm > 0.0 and p_norm > 0.0 else np.zeros_like(base)
        return direction

    d1 = draw_direction()
    d2 = draw_direction()
    axis = np.linspace(-grid_half_width, grid_half_width, resolution)
    axis[resolution // 2] = 0.0  # linspace can miss zero by an ulp, e.g. (0.45, 7)
    rows = []
    for a in axis:
        for b in axis:
            cell = params if a == 0.0 and b == 0.0 else ModelParams(params.config, {
                **params.tensors,
                **{name: Tensor(params[name].data + a * d1[name] + b * d2[name]) for name in names}})
            rows.append((float(a), float(b), _dataset_ce(cell, dataset, batch_size)))
    return rows


def write_landscape_csv(rows: list[tuple[float, float, float]], path) -> None:
    """CSV schema: ``a,b,loss``."""
    write_csv(path, "a,b,loss", ((f"{a:.6f}", f"{b:.6f}", f"{loss:.10e}") for a, b, loss in rows))
