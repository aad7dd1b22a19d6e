"""Kernel-based dependence measures and an exact discrete-MI oracle.

Two paths live here, on one RBF Gram construction (``_rbf_kernel``). The
numpy path (``rbf_gram``, ``renyi_entropy``, ``hsic``, ...) is for
estimation and monitoring and takes Gram spectra from LAPACK. The graph path
(``penalty_mi``) wraps the same Gram in one autodiff node so the penalty can be
differentiated through the encoder; it is restricted to HSIC and the alpha=2
Renyi mutual information, where tr(K_norm^2) reduces to a plain Frobenius sum
and no eigendecomposition is needed. Both paths share one HSIC centering, so
the HSIC penalty equals ``hsic`` of the same batch bit for bit.

All entropies and mutual informations are in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Array = np.ndarray

_LN2 = float(np.log(2.0))
EIGEN_TOL_PER_ROW = 1e-12  # an N-row Gram's eigenvalues below N times this are snapped to zero


def _as_sample_matrix(samples, name: str) -> Array:
    """``samples`` as finite rows of features, at least 2; a sample's axes are flattened."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 0 or len(x) < 2:
        raise ValueError(f"{name}: needs at least 2 samples")
    if not np.isfinite(x).all():
        raise ValueError(f"{name}: samples must be finite")
    return x if x.ndim == 2 else x.reshape(len(x), -1)


def _as_grams(name: str, *grams) -> list[Array]:
    """Each of ``grams`` as a finite, non-empty square array; all of one size."""
    arrays = [np.asarray(k, dtype=np.float64) for k in grams]
    for a in arrays:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"{name}: expected a non-empty square matrix, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name}: matrix must be finite")
        if len(a) != len(arrays[0]):
            raise ValueError(f"{name}: size mismatch {len(arrays[0])} vs {len(a)}")
    return arrays


def _pairwise_sq_dists(x: Array) -> Array:
    """Squared distances from direct row differences, upper triangle mirrored.

    Direct differences, unlike ||a||^2 + ||b||^2 - 2 a.b, keep the Gram diagonal
    exactly 1 and duplicate rows at exactly zero distance. Row i's differences
    to the rows after it go into one reused [n-1, d] buffer; (a - b)^2 equals
    (b - a)^2 bit for bit, so the mirrored lower triangle is exact.
    """
    n = x.shape[0]
    d2 = np.zeros((n, n))
    buf = np.empty((n - 1, x.shape[1]))
    for i in range(n - 1):
        diff = np.subtract(x[i + 1:], x[i], out=buf[: n - 1 - i])
        row = np.einsum("jk,jk->j", diff, diff, out=d2[i, i + 1:])
        d2[i + 1:, i] = row
    return d2


def _median_of_sq_dists(d2: Array) -> float:
    upper = np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)])
    nonzero = upper[upper > 0.0]
    if nonzero.size == 0:
        return 1.0
    return float(np.median(nonzero))


def _rbf_kernel(x: Array, sigma: float | None) -> tuple[Array, float]:
    """K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) over the rows of ``x``, and sigma.

    Without ``sigma`` the bandwidth is the median distance, taken from the
    same distance matrix as K. The diagonal of K is exactly 1.
    """
    if sigma is not None and sigma <= 0.0:
        raise ValueError("rbf_gram: sigma must be positive")
    d2 = _pairwise_sq_dists(x)
    if sigma is None:
        sigma = _median_of_sq_dists(d2)
    k = np.negative(d2, out=d2)
    k /= 2.0 * sigma * sigma
    return np.exp(k, out=k), float(sigma)


def rbf_gram(samples, sigma: float | None = None) -> Array:
    """K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) as an exactly symmetric [N, N] array.

    Without ``sigma`` the bandwidth is ``median_bandwidth`` of the samples,
    taken from the same distance matrix as K.
    """
    x = _as_sample_matrix(samples, "rbf_gram")
    return _rbf_kernel(x, sigma)[0]


def median_bandwidth(samples) -> float:
    """Median of the nonzero pairwise distances; 1.0 if all points coincide."""
    x = _as_sample_matrix(samples, "median_bandwidth")
    return _median_of_sq_dists(_pairwise_sq_dists(x))


def symmetric_eigenvalues(matrix) -> Array:
    """All eigenvalues of a symmetric matrix, from LAPACK's ``eigvalsh``, descending.

    Eigenvalues within ``EIGEN_TOL_PER_ROW * N`` of zero, negative or
    positive, are numerical noise on PSD Gram matrices and are snapped to
    exactly zero; fractional orders would otherwise amplify them.
    """
    (a,) = _as_grams("symmetric_eigenvalues", matrix)
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ValueError("symmetric_eigenvalues: matrix is not symmetric within 1e-10")
    lam = np.maximum(np.linalg.eigvalsh(0.5 * (a + a.T))[::-1], 0.0)  # eigvalsh is ascending
    lam[lam < EIGEN_TOL_PER_ROW * a.shape[0]] = 0.0
    return lam


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 (Shannon limit) is not implemented")
    return alpha


def renyi_entropy(k: Array, alpha: float) -> float:
    """Matrix-based Renyi entropy of order alpha, in bits, of the Gram ``k`` divided by its trace."""
    alpha = _check_alpha(alpha)
    (k,) = _as_grams("renyi_entropy", k)
    trace = np.trace(k)
    if not trace > 0.0:
        raise ValueError(f"renyi_entropy: Gram trace must be positive, got {trace}")
    lam = symmetric_eigenvalues(k / trace)
    lam = np.where(lam > 0.0, lam, 0.0)
    total = (lam ** alpha).sum()
    if total >= np.finfo(np.float64).tiny:
        log_total = np.log2(total)
    else:  # the powers underflow at a large alpha: factor out the largest eigenvalue
        top = lam.max()
        log_total = alpha * np.log2(top) + np.log2(((lam / top) ** alpha).sum())
    return float(log_total / (1.0 - alpha))


def renyi_joint_entropy(k_x: Array, k_y: Array, alpha: float) -> float:
    """Entropy of the Hadamard product of the two Grams."""
    k_x, k_y = _as_grams("renyi_joint_entropy", k_x, k_y)
    return renyi_entropy(k_x * k_y, alpha)


def renyi_mi_from_grams(k_x: Array, k_y: Array, alpha: float) -> float:
    """H_a(X) + H_a(Y) - H_a(X, Y) from the two paired Grams."""
    k_x, k_y = _as_grams("renyi_mi_from_grams", k_x, k_y)
    return (renyi_entropy(k_x, alpha) + renyi_entropy(k_y, alpha)
            - renyi_joint_entropy(k_x, k_y, alpha))


def hsic_from_grams(k_x: Array, k_y: Array) -> float:
    """Biased empirical HSIC, (1/N^2) tr(K_x H K_y H) with H = I - (1/N) 1 1^T.

    H is idempotent, so the trace equals the elementwise product of the two
    doubly-centered Grams; that form makes a constant variable give exactly 0.
    """
    k_x, k_y = _as_grams("hsic_from_grams", k_x, k_y)
    return _hsic_graph(Tensor(k_x), Tensor(k_y)).item()


def _paired_grams(x_samples, y_samples, sigma_x: float | None, sigma_y: float | None,
                  name: str) -> tuple[Array, Array]:
    x, y = _as_sample_matrix(x_samples, name), _as_sample_matrix(y_samples, name)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{name}: sample sets must be paired")
    return rbf_gram(x, sigma_x), rbf_gram(y, sigma_y)


def renyi_mi(x_samples, y_samples, alpha: float,
             sigma_x: float | None = None, sigma_y: float | None = None) -> float:
    """H_a(X) + H_a(Y) - H_a(X, Y) with RBF Grams (median bandwidth by default)."""
    return renyi_mi_from_grams(*_paired_grams(x_samples, y_samples, sigma_x, sigma_y, "renyi_mi"),
                               alpha)


def hsic(x_samples, y_samples,
         sigma_x: float | None = None, sigma_y: float | None = None) -> float:
    """Biased empirical HSIC with RBF Grams (median bandwidth by default)."""
    return hsic_from_grams(*_paired_grams(x_samples, y_samples, sigma_x, sigma_y, "hsic"))


# ---------------------------------------------------------------------------
# differentiable penalty

@dataclass(frozen=True)
class PenaltyConfig:
    """Estimator selection for the differentiable MI penalty.

    ``sigma_x`` / ``sigma_y`` override the per-call median heuristic; the
    bandwidth is always treated as a constant in differentiation.
    """

    estimator: str = "hsic"
    sigma_x: float | None = None
    sigma_y: float | None = None

    def __post_init__(self):
        if self.estimator not in ("hsic", "renyi2"):
            raise ValueError(f"estimator must be 'hsic' or 'renyi2', got {self.estimator!r}")


def _flatten_batch(t: Tensor) -> Tensor:
    return ad.reshape(t, (t.shape[0], -1)) if t.ndim != 2 else t


def _gram_graph(x: Tensor, sigma: float | None) -> Tensor:
    """``_rbf_kernel`` of the rows of a [N, d] tensor as one graph node.

    The bandwidth is a constant. With S = (G + G^T) * K for the upstream G,
    the gradient of row i is sum_j S_ij (x_j - x_i) / sigma^2.
    """
    rows = x.data
    k, sigma = _rbf_kernel(rows, sigma)

    def grad_x(g: Array) -> Array:
        s = g + g.T
        s *= k
        out = s @ rows
        out -= s.sum(axis=1, keepdims=True) * rows
        out /= sigma * sigma
        return out

    return ad._result(k, "rbf_gram", [(x, grad_x)])


def _center_graph(k: Tensor) -> Tensor:
    # H K H with H = I - (1/N) 1 1^T, written so a constant K centers to exact zeros
    row = ad.reduce_mean(k, axes=0, keepdims=True)
    col = ad.reduce_mean(k, axes=1, keepdims=True)
    return ad.add(ad.sub(ad.sub(k, row), col), ad.reduce_mean(k))


def _hsic_graph(kx: Tensor, ky: Tensor) -> Tensor:
    # (1/N^2) tr(Kx H Ky H) as the product of doubly-centered Grams (H is idempotent)
    n = kx.shape[0]
    return ad.scale(ad.reduce_sum(ad.mul(_center_graph(kx), _center_graph(ky))), 1.0 / (n * n))


def _renyi2_entropy_graph(k: Tensor, n: int) -> Tensor:
    # H_2 = -log2(tr(K_norm^2)) = -(log sum K_ij^2 - 2 log tr K) / log 2, with tr K = n:
    # every Gram here, and the Hadamard product of two, has a diagonal of exactly 1
    frob = ad.reduce_sum(ad.square(k))
    return ad.scale(ad.sub(ad.log(frob), Tensor(2.0 * np.log(n))), -1.0 / _LN2)


def penalty_mi(x_batch: Tensor, z_batch: Tensor, config: PenaltyConfig) -> Tensor:
    """Differentiable dependence between paired batches, as a graph scalar.

    Rows are flattened per sample. The kernel bandwidths come from the
    median heuristic on the current values (or the config overrides) and
    carry no gradient.
    """
    x = _flatten_batch(x_batch)
    z = _flatten_batch(z_batch)
    n = x.shape[0]
    if n < 2:
        raise ValueError("penalty_mi: batch must contain at least 2 samples")
    if z.shape[0] != n:
        raise ValueError(f"penalty_mi: batch sizes differ, {n} vs {z.shape[0]}")
    kx = _gram_graph(x, config.sigma_x)
    kz = _gram_graph(z, config.sigma_y)
    if config.estimator == "hsic":
        return _hsic_graph(kx, kz)
    joint = ad.mul(kx, kz)
    hx = _renyi2_entropy_graph(kx, n)
    hz = _renyi2_entropy_graph(kz, n)
    hxz = _renyi2_entropy_graph(joint, n)
    return ad.sub(ad.add(hx, hz), hxz)


# ---------------------------------------------------------------------------
# exact discrete oracle

def discrete_mi(joint_pmf) -> float:
    """Exact mutual information of a finite joint pmf, in bits (0 log 0 := 0)."""
    p = np.asarray(joint_pmf, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("discrete_mi: joint pmf must be a matrix")
    if np.any(p < 0.0):
        raise ValueError("discrete_mi: probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"discrete_mi: pmf sums to {p.sum()}, not 1")
    outer = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    support = p > 0.0
    return float(np.sum(p[support] * np.log2(p[support] / outer[support])))
