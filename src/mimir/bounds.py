"""Closed-form information-bottleneck bounds on the input/latent dependence.

Everything is in bits. The lower bound follows from Fano's inequality, the
upper bound from the Hellman-Raviv inequality; both are functions of the
label-disagreement probability ``p_e`` between predictions on the perturbed
input and on the reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import write_csv


@dataclass(frozen=True)
class BoundsInput:
    h_pred: float       # entropy of the predicted-label variable, bits
    p_e: float          # probability that the two predictions disagree
    num_classes: int

    def __post_init__(self):
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"p_e must lie in [0, 1], got {self.p_e}")
        if self.h_pred < 0.0:
            raise ValueError(f"h_pred must be non-negative, got {self.h_pred}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")


@dataclass
class BoundCurve:
    """Rows of (p_e, lower, upper) over a uniform grid."""

    rows: list[tuple[float, float, float]]

    def argmin_lower(self) -> tuple[float, float]:
        p, lo, _ = min(self.rows, key=lambda r: r[1])
        return p, lo


def binary_entropy(p: float) -> float:
    """H_b(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 := 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy: p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fano_lower_bound(inp: BoundsInput) -> float:
    """h_pred - H_b(p_e) - p_e log2(M - 1); may be negative."""
    return inp.h_pred - binary_entropy(inp.p_e) - inp.p_e * math.log2(inp.num_classes - 1)


def hellman_raviv_upper_bound(inp: BoundsInput) -> float:
    """h_pred - 2 p_e."""
    return inp.h_pred - 2.0 * inp.p_e


def _check_grid_step(grid_step: float) -> float:
    grid_step = float(grid_step)
    if not 0.0 < grid_step <= 0.1:
        raise ValueError(f"grid_step must lie in (0, 0.1], got {grid_step}")
    return grid_step


def bound_curves(num_classes: int, grid_step: float) -> BoundCurve:
    """Evaluate both bounds over p_e in {0, step, ..., 1} with h_pred = log2 M."""
    grid_step = _check_grid_step(grid_step)
    if num_classes < 2:
        raise ValueError(f"num_classes must be at least 2, got {num_classes}")
    h_pred = math.log2(num_classes)
    steps = int(round(1.0 / grid_step))
    rows = []
    for i in range(steps + 1):
        p = min(i * grid_step, 1.0)
        inp = BoundsInput(h_pred=h_pred, p_e=p, num_classes=num_classes)
        rows.append((p, fano_lower_bound(inp), hellman_raviv_upper_bound(inp)))
    return BoundCurve(rows=rows)


def write_bound_curve_csv(curve: BoundCurve, path) -> None:
    """CSV schema: header ``p_e,lower,upper``, 6 decimal places."""
    write_csv(path, "p_e,lower,upper", ((f"{value:.6f}" for value in row) for row in curve.rows))
