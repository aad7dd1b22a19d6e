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
from .data import Dataset
from .mi import PenaltyConfig
from .model import ModelParams, classify

Array = np.ndarray


@dataclass(frozen=True)
class AttackJob:
    """One robust-accuracy column: an attack kind plus its spec."""

    name: str
    kind: str                   # "ce" | "mi" | "fea"
    spec: AttackSpec
    lam: float = 0.0
    estimator: str = "hsic"

    def __post_init__(self):
        if self.kind not in ("ce", "mi", "fea"):
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
    if job.kind == "ce":
        pert = attack_ce(params, images, labels, job.spec, rng)
    elif job.kind == "mi":
        pert = attack_mi(params, PenaltyConfig(estimator=job.estimator), images, labels,
                         job.lam, job.spec, rng)
    else:
        pert = attack_fea(params, images, job.spec, rng)
    return images + pert.delta


def evaluate(params: ModelParams, dataset: Dataset, jobs: list[AttackJob],
             seed: int = 0, batch_size: int = 64) -> EvalReport:
    """Natural accuracy plus robust accuracy under each attack job."""
    n = len(dataset)
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    starts = range(0, n, batch_size)
    correct_nat = 0
    correct_rob = [0] * len(jobs)
    for b, start in enumerate(starts):
        x = dataset.images[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        correct_nat += int((_predict(params, x) == y).sum())
        for j, job in enumerate(jobs):
            rng = np.random.default_rng([seed, j, b])
            x_adv = _run_job(params, job, x, y, rng)
            correct_rob[j] += int((_predict(params, x_adv) == y).sum())
    robust = [(job.name, 100.0 * c / n) for job, c in zip(jobs, correct_rob)]
    return EvalReport(natural=100.0 * correct_nat / n, robust=robust, n=n)


def write_eval_csv(report: EvalReport, path) -> None:
    """CSV schema: ``attack,natural,robust,n``; natural repeated per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("attack,natural,robust,n\n")
        for name, pct in report.robust:
            fh.write(f"{name},{report.natural:.6f},{pct:.6f},{report.n}\n")
        if not report.robust:
            fh.write(f"none,{report.natural:.6f},{report.natural:.6f},{report.n}\n")


def _dataset_ce(params: ModelParams, dataset: Dataset, batch_size: int) -> float:
    params = params.constants()
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        x = dataset.images[start:start + batch_size]
        y = dataset.labels[start:start + batch_size]
        ce = ad.cross_entropy(classify(params, Tensor(x)), y)
        total += ce.item() * len(y)
    return total / len(dataset)


def landscape_grid(params: ModelParams, dataset: Dataset, grid_half_width: float,
                   resolution: int, rng: np.random.Generator,
                   batch_size: int = 64) -> list[tuple[float, float, float]]:
    """Cross-entropy over a 2-D slice of parameter space.

    Two random directions are drawn, each rescaled per named tensor to match
    that tensor's norm (zero-norm tensors stay unperturbed); the loss is
    evaluated at theta + a d1 + b d2 over an odd-resolution grid so the
    exact unperturbed loss sits at the center cell.
    """
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError("resolution must be an odd integer >= 3")
    if grid_half_width <= 0.0:
        raise ValueError("grid_half_width must be positive")
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
    base = {name: params[name].data for name in names}
    axis = np.linspace(-grid_half_width, grid_half_width, resolution)
    rows = []
    try:
        for a in axis:
            for b in axis:
                if a == 0.0 and b == 0.0:
                    for name in names:
                        params[name].data = base[name]
                else:
                    for name in names:
                        params[name].data = base[name] + a * d1[name] + b * d2[name]
                rows.append((float(a), float(b), _dataset_ce(params, dataset, batch_size)))
    finally:
        for name in names:
            params[name].data = base[name]
    return rows


def write_landscape_csv(rows: list[tuple[float, float, float]], path) -> None:
    """CSV schema: ``a,b,loss``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("a,b,loss\n")
        for a, b, loss in rows:
            fh.write(f"{a:.6f},{b:.6f},{loss:.10e}\n")
