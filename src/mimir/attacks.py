"""L-infinity bounded signed-gradient attacks with best-iterate tracking.

The generic ``pgd`` engine ascends a differentiable objective of the
perturbed input, projecting onto the epsilon-ball and the pixel box after
every step, and returns the best iterate visited (including the starting
point). The four concrete objectives follow: classification cross-entropy,
reconstruction error for pre-training, the MI-aware adaptive attack, and
the feature-distance adaptive attack. Each objective is built on
``ModelParams.constants()``, read-only views of the parameters' arrays with
no copy, so the reverse pass walks only the input path and never writes a
parameter's ``.grad``, and an in-place write into a parameter raises. The
encoder and autoencoder passes run in image shares (see
``model._split_pass``); the heads that couple the batch, the cross-entropy
and MSE means and the MI penalty, run once on the joined batch.

The one exception is the last iterate of ``attack_recon``: it is scored by
a forward on the live parameters, in shares as well, and when the returned
point has that iterate's bits, its ``(z, recon)`` pair is handed back in
``Perturbation.last_forward`` so that pre-training builds its loss on it
instead of running the autoencoder again. The attack runs no backward
through that forward, so it still writes no ``.grad``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mi import PenaltyConfig, penalty_mi
from .model import (MaskPlan, ModelParams, _pixel_mask, _pooled_logits, autoencoder_pass,
                    encode_full, patchify)

Array = np.ndarray

EPS_8_255 = 8.0 / 255.0
STEP_10_255 = 10.0 / 255.0
STEP_2_255 = 2.0 / 255.0


@dataclass(frozen=True)
class AttackSpec:
    """Budget and schedule of one attack; pixel scale is [0, 1].

    ``epsilon = 0`` is allowed and makes every attack a no-op, which is how
    natural fine-tuning and robust-equals-natural evaluation fall out.
    """

    epsilon: float
    step_size: float
    iters: int
    init: str = "random"
    box: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if int(self.iters) < 1:
            raise ValueError(f"iters must be a positive integer, got {self.iters}")
        if self.init not in ("zero", "random"):
            raise ValueError(f"init must be 'zero' or 'random', got {self.init!r}")
        if self.box[0] >= self.box[1]:
            raise ValueError(f"box must have low < high, got {self.box}")


def pretrain_attack_spec(epsilon: float = EPS_8_255, step_size: float = STEP_10_255) -> AttackSpec:
    """1-step random-init reconstruction attack used during pre-training."""
    return AttackSpec(epsilon=epsilon, step_size=step_size, iters=1, init="random")


def finetune_attack_spec(epsilon: float = EPS_8_255, step_size: float = STEP_2_255,
                         iters: int = 10) -> AttackSpec:
    """10-step adversarial-training attack used during fine-tuning."""
    return AttackSpec(epsilon=epsilon, step_size=step_size, iters=iters, init="zero")


def adaptive_attack_spec(epsilon: float = EPS_8_255, step_size: float = STEP_2_255,
                         iters: int = 100) -> AttackSpec:
    """100-step schedule for the adaptive (MI / feature) attacks."""
    return AttackSpec(epsilon=epsilon, step_size=step_size, iters=iters, init="random")


@dataclass
class Perturbation:
    """``x + delta`` is the best point visited; ``achieved_loss`` its objective.

    ``last_forward`` is what ``pgd``'s ``score_last`` built at the last
    iterate. It is kept only when ``x + delta`` has that iterate's bits
    (whether the iterate won or tied an earlier visit of its point), so a
    graph built on it is the graph a fresh forward at ``x + delta`` would
    build; otherwise it is None.
    """

    delta: Array
    achieved_loss: float
    last_forward: Any = None


def linf_project(x_adv: Array, x: Array, spec: AttackSpec) -> Array:
    """Clamp x_adv - x to [-eps, eps], then clamp the result into the box."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_adv.shape != x.shape:
        raise ValueError(f"linf_project: shape mismatch {x_adv.shape} vs {x.shape}")
    delta = np.clip(x_adv - x, -spec.epsilon, spec.epsilon)
    return np.clip(x + delta, spec.box[0], spec.box[1])


def _check_invariants(delta: Array, x: Array, spec: AttackSpec) -> None:
    if np.max(np.abs(delta), initial=0.0) > spec.epsilon + 1e-12:
        raise AssertionError("pgd: returned delta violates the epsilon ball")
    moved = x + delta
    if moved.min(initial=spec.box[0]) < spec.box[0] or moved.max(initial=spec.box[1]) > spec.box[1]:
        raise AssertionError("pgd: returned point violates the pixel box")


def _same_bits(a: Array, b: Array) -> bool:
    """Bitwise equality; unlike ``==`` it tells -0.0 from 0.0."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def pgd(objective: Callable[[Tensor], Tensor], x: Array, spec: AttackSpec,
        rng: np.random.Generator,
        extra_project: Callable[[Array], Array] | None = None,
        score_last: Callable[[Tensor], tuple[Tensor, Any]] | None = None) -> Perturbation:
    """Signed-gradient ascent of ``objective`` within the L-inf ball around x.

    Tracks the best objective over the initial point and every projected
    iterate, so with zero init the result is never worse than delta = 0.
    The ascent stops early once a step returns the iterate it started from
    bit for bit: every remaining iteration would evaluate that point again,
    so the result does not change.
    ``extra_project`` runs after initialization and after every projection
    (used to pin masked pixels to their natural values). ``score_last``
    scores the last iterate in place of ``objective``, to the same value,
    and returns that score with whatever it built on the way, which is
    kept whenever ``x + delta`` has the last iterate's bits; see
    :class:`Perturbation`.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.init == "random":
        x_adv = linf_project(x + rng.uniform(-spec.epsilon, spec.epsilon, size=x.shape), x, spec)
    else:
        x_adv = x.copy()
    if extra_project is not None:
        x_adv = extra_project(x_adv)

    def value_and_grad(point: Array) -> tuple[float, Array]:
        leaf = Tensor(point, requires_grad=True)
        out = objective(leaf)
        if out.data.size != 1:
            raise ValueError("pgd: objective must be scalar-valued")
        val = out.item()
        if not np.isfinite(val):
            raise FloatingPointError("pgd: non-finite objective")
        ad.backward(out)
        grad = leaf.grad if leaf.grad is not None else np.zeros_like(point)
        if not np.isfinite(grad).all():
            raise FloatingPointError("pgd: non-finite gradient")
        return val, grad

    best_point = x_adv.copy()
    best_loss = -np.inf
    for _ in range(int(spec.iters)):
        loss, grad = value_and_grad(x_adv)
        if loss > best_loss:
            best_loss, best_point = loss, x_adv.copy()
        previous = x_adv
        x_adv = linf_project(x_adv + spec.step_size * np.sign(grad), x, spec)
        if extra_project is not None:
            x_adv = extra_project(x_adv)
        if _same_bits(x_adv, previous):
            break  # every later iteration would evaluate this same point again
    if score_last is None:
        score, built = objective(Tensor(x_adv)), None
    else:
        score, built = score_last(Tensor(x_adv))
    final = score.item()
    if not np.isfinite(final):
        raise FloatingPointError("pgd: non-finite objective")
    if final > best_loss:
        best_loss, best_point = final, x_adv
    delta = best_point - x
    _check_invariants(delta, x, spec)
    kept = built if _same_bits(x + delta, x_adv) else None
    return Perturbation(delta=delta, achieved_loss=float(best_loss), last_forward=kept)


# ---------------------------------------------------------------------------
# concrete objectives

def _classifier_objective(params: ModelParams, labels: Array, lam: float,
                          penalty: PenaltyConfig | None) -> Callable[[Tensor], Tensor]:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= params.config.num_classes):
        raise ValueError("label out of range")
    params = params.constants()

    def objective(x_adv: Tensor) -> Tensor:
        z = encode_full(params, x_adv)
        ce = ad.cross_entropy(_pooled_logits(params, z), labels)
        if lam == 0.0:
            return ce
        pen = penalty_mi(x_adv, z, penalty or PenaltyConfig())
        return ad.add(ce, ad.scale(pen, lam))

    return objective


def attack_ce(params: ModelParams, images: Array, labels: Array, spec: AttackSpec,
              rng: np.random.Generator) -> Perturbation:
    """PGD on classification cross-entropy (inner max of AT, PGD-k evaluation)."""
    return pgd(_classifier_objective(params, labels, 0.0, None), images, spec, rng)


def attack_mi(params: ModelParams, penalty: PenaltyConfig, images: Array, labels: Array,
              lam: float, spec: AttackSpec, rng: np.random.Generator) -> Perturbation:
    """Adaptive attack maximizing cross-entropy plus the weighted MI penalty.

    With ``lam = 0`` this builds exactly the cross-entropy graph, so results
    are byte-identical to :func:`attack_ce` under the same seed and spec;
    with ``lam > 0``, ``penalty_mi`` rejects a batch of one.
    """
    return pgd(_classifier_objective(params, labels, float(lam), penalty), images, spec, rng)


def attack_fea(params: ModelParams, images: Array, spec: AttackSpec,
               rng: np.random.Generator) -> Perturbation:
    """Adaptive attack maximizing the feature-space MSE between f_e(x) and f_e(x+d).

    Zero init is rejected: the objective and its gradient vanish identically
    at delta = 0, so the ascent could never leave the starting point.
    """
    if spec.init == "zero":
        raise ValueError("attack_fea: zero init has an identically zero gradient; use random init")
    params = params.constants()
    x = np.asarray(images, dtype=np.float64)
    natural = encode_full(params, Tensor(x))

    def objective(x_adv: Tensor) -> Tensor:
        return ad.mse_loss(encode_full(params, x_adv), natural)

    return pgd(objective, x, spec, rng)


def attack_recon(params: ModelParams, images: Array, plan: MaskPlan, spec: AttackSpec,
                 rng: np.random.Generator) -> Perturbation:
    """Pre-training attack maximizing the reconstruction error against natural x.

    Only visible patches are attacked: masked-patch pixels are pinned back to
    their natural values after initialization and every step (their
    gradients are zero anyway, but random init would otherwise touch them).
    The autoencoder pass of the ascent runs on constant parameters; the MSE
    against the natural patches, as in the pre-training loss, couples the
    whole batch and runs once on the joined reconstruction. The last iterate
    runs through the live parameters and, when kept, its ``(z, recon)`` pair
    from :func:`mimir.model.autoencoder_pass` is ``last_forward``.
    """
    x = np.asarray(images, dtype=np.float64)
    masked_pixels = _pixel_mask(plan, params.config)
    target = patchify(Tensor(x), params.config.patch_size)

    def pin_masked(x_adv: Array) -> Array:
        out = x_adv.copy()
        out[masked_pixels] = x[masked_pixels]
        return out

    constants = params.constants()

    def objective(x_adv: Tensor) -> Tensor:
        return ad.mse_loss(autoencoder_pass(constants, x_adv, plan)[1], target)

    def score_last(x_adv: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        forward = autoencoder_pass(params, x_adv, plan)
        return ad.mse_loss(forward[1], target), forward

    return pgd(objective, x, spec, rng, extra_project=pin_masked, score_last=score_last)
