"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly by the op functions below; every differentiable
op records vector-Jacobian products for the parents that require gradients.
Forward results of arithmetic ops are checked for NaN/Inf so numerical
blow-ups surface where they happen instead of propagating.

Gradient accumulation contract: ``backward`` adds into ``Tensor.grad`` of
every reachable leaf that requires gradients. Callers zero leaf gradients
explicitly between optimization steps; running ``backward`` twice over the
same graph doubles the accumulated leaf gradients. Attacks and forward-only
passes run on ``ModelParams.constants()``, so they never touch parameter
``.grad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """Dense float64 array, optionally tracked in the differentiation graph.

    Leaves are created by the constructor or :func:`tensor_create`; non-leaf
    tensors are produced by ops and hold edges back to their parents.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple = ()
        self._op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Copy of the values as a fresh constant leaf."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op}{flag})"

    # Small operator sugar; everything maps onto the module-level ops.
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))


def _coerce(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def _ensure_finite(data: Array, op: str) -> None:
    if not np.isfinite(data).all():
        raise FloatingPointError(f"{op}: non-finite values in forward result")


def _result(data: Array, op: str, edges: Sequence[tuple[Tensor, Callable[[Array], Array]]],
            check: bool = True) -> Tensor:
    """Build an op result; edges to parents without gradients are dropped."""
    if check:
        _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    kept = tuple((p, vjp) for p, vjp in edges if p.requires_grad)
    out._parents = kept
    out.requires_grad = bool(kept)
    out._op = op
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# construction

def tensor_create(shape: Sequence[int], values, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor from a flat row-major value sequence."""
    extents = tuple(int(s) for s in shape)
    if any(s <= 0 for s in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    expected = int(np.prod(extents)) if extents else 1
    if flat.size != expected:
        raise ValueError(f"got {flat.size} values for shape {extents} (expected {expected})")
    return Tensor(flat.reshape(extents), requires_grad=requires_grad)


def constant(values) -> Tensor:
    """Leaf tensor that never takes gradients."""
    return Tensor(np.asarray(values, dtype=np.float64))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    return _result(a.data + b.data, "add", [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    return _result(a.data - b.data, "sub", [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    return _result(a.data * b.data, "mul", [
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ])


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result(a.data * c, "scale", [(a, lambda g: g * c)])


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, "neg", [(a, lambda g: -g)])


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as FloatingPointError below
        out = np.exp(a.data)
    return _result(out, "exp", [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: requires strictly positive values")
    return _result(np.log(a.data), "log", [(a, lambda g: g / a.data)])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: requires non-negative values")
    out = np.sqrt(a.data)
    return _result(out, "sqrt", [(a, lambda g: g * 0.5 / out)])


def square(a: Tensor) -> Tensor:
    return _result(a.data * a.data, "square", [(a, lambda g: g * 2.0 * a.data)])


def clip(a: Tensor, lo: float | None, hi: float | None) -> Tensor:
    """Clamp to [lo, hi]; gradient passes through inside the bounds (inclusive)."""
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"clip: lo={lo} exceeds hi={hi}")
    out = np.clip(a.data, lo, hi)
    mask = np.ones_like(a.data)
    if lo is not None:
        mask = mask * (a.data >= lo)
    if hi is not None:
        mask = mask * (a.data <= hi)
    return _result(out, "clip", [(a, lambda g: g * mask)])


# ---------------------------------------------------------------------------
# linear algebra and shape movement

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul: operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def grad_a(g: Array) -> Array:
        return _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)

    def grad_b(g: Array) -> Array:
        return _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)

    return _result(np.matmul(a.data, b.data), "matmul", [(a, grad_a), (b, grad_b)])


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = a.data.reshape(tuple(shape))
    return _result(np.ascontiguousarray(out), "reshape",
                   [(a, lambda g: g.reshape(a.shape))], check=False)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ValueError(f"transpose: {axes} is not a permutation of {a.ndim} axes")
    inverse = tuple(np.argsort(axes))
    return _result(np.ascontiguousarray(a.data.transpose(axes)), "transpose",
                   [(a, lambda g: g.transpose(inverse))], check=False)


def gather_rows(a: Tensor, indices: Array) -> Tensor:
    """Select ``a[b, indices[b, m], ...]`` along axis 1, per batch row."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim < 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(f"gather_rows: incompatible shapes {a.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ValueError("gather_rows: index out of range")
    expanded = idx.reshape(idx.shape + (1,) * (a.ndim - 2))
    out = np.take_along_axis(a.data, expanded, axis=1)
    batch_sel = np.arange(a.shape[0])[:, None]

    def grad_a(g: Array) -> Array:
        buf = np.zeros_like(a.data)
        np.add.at(buf, (batch_sel, idx), g)
        return buf

    return _result(np.ascontiguousarray(out), "gather_rows", [(a, grad_a)], check=False)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ValueError("concat: needs at least one tensor")
    axis = axis % parts[0].ndim
    out = np.concatenate([p.data for p in parts], axis=axis)
    edges = []
    offset = 0
    for p in parts:
        start, stop = offset, offset + p.shape[axis]
        offset = stop
        sel = tuple(slice(None) if d != axis else slice(start, stop) for d in range(p.ndim))
        edges.append((p, lambda g, sel=sel: g[sel]))
    return _result(out, "concat", edges, check=False)


def expand(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Broadcast (copying) to a larger shape; gradients sum back."""
    target = tuple(int(s) for s in shape)
    out = np.ascontiguousarray(np.broadcast_to(a.data, target))
    return _result(out, "expand", [(a, lambda g: _unbroadcast(g, a.shape))], check=False)


# ---------------------------------------------------------------------------
# reductions and neural-net primitives

def _normalize_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    normalized = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise ValueError(f"invalid axis {ax} for rank {ndim}")
        normalized.append(ax % ndim)
    if len(set(normalized)) != len(normalized):
        raise ValueError(f"duplicate axes in {axes}")
    return tuple(sorted(normalized))


def reduce_sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def grad_a(g: Array) -> Array:
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _result(np.asarray(out), "reduce_sum", [(a, grad_a)])


def reduce_mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def grad_a(g: Array) -> Array:
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy() / count

    return _result(np.asarray(out), "reduce_mean", [(a, grad_a)])


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _normalize_axes(axis, a.ndim)[0]
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_a(g: Array) -> Array:
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _result(out, "softmax", [(a, grad_a)])


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    if eps <= 0.0:
        raise ValueError("layer_norm: eps must be positive")
    dim = a.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise ValueError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match feature dim {dim}")
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    lead = tuple(range(a.ndim - 1))

    def grad_a(g: Array) -> Array:
        gh = g * gamma.data
        term = dim * gh - gh.sum(axis=-1, keepdims=True) - xhat * (gh * xhat).sum(axis=-1, keepdims=True)
        return term * inv / dim

    return _result(out, "layer_norm", [
        (a, grad_a),
        (gamma, lambda g: (g * xhat).sum(axis=lead)),
        (beta, lambda g: g.sum(axis=lead)),
    ])


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU (erf form, not the tanh approximation)."""
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))

    def grad_a(g: Array) -> Array:
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return g * (cdf + a.data * pdf)

    return _result(a.data * cdf, "gelu", [(a, grad_a)])


# ---------------------------------------------------------------------------
# losses

def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared elementwise differences; shapes must match exactly."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.shape} vs {target.shape}")
    return reduce_mean(square(sub(pred, target)))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax probability of the true class (natural log)."""
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy: logits must be [batch, classes], got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    batch, classes = logits.shape
    if y.shape[0] != batch:
        raise ValueError(f"cross_entropy: {y.shape[0]} labels for batch of {batch}")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValueError(f"cross_entropy: labels must lie in [0, {classes})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(batch), y]
    out = np.asarray((log_z - picked).mean())
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))

    def grad_logits(g: Array) -> Array:
        delta = probs.copy()
        delta[np.arange(batch), y] -= 1.0
        return delta * (g / batch)

    return _result(out, "cross_entropy", [(logits, grad_logits)])


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Accumulate gradients of a scalar loss into all reachable leaves.

    Returns a map from each requires-grad leaf to its (accumulated) gradient
    array. A loss with no gradient-tracked inputs yields an empty map.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    flowing: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Array] = {}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
                leaf_grads[node] = node.grad
            continue
        for parent, vjp in node._parents:
            pg = vjp(g)
            held = flowing.get(id(parent))
            flowing[id(parent)] = pg if held is None else held + pg
    return leaf_grads


# ---------------------------------------------------------------------------
# finite-difference validation

@dataclass
class GradReport:
    """Per-parameter maximum relative error between analytic and central differences."""

    per_param: dict[str, float]
    h: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def finite_diff_check(f: Callable[[Tensor], Tensor], point: Tensor, h: float) -> GradReport:
    """Check analytic gradients of ``f`` at ``point`` against central differences."""
    if h <= 0.0:
        raise ValueError("finite_diff_check: h must be positive")
    base = np.array(point.data, dtype=np.float64)
    leaf = Tensor(base, requires_grad=True)
    out = f(leaf)
    if out.data.size != 1:
        raise ValueError("finite_diff_check: f must be scalar-valued")
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)

    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        f_plus = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] = flat[i] - h
        f_minus = f(Tensor(bumped.reshape(base.shape))).item()
        numeric = (f_plus - f_minus) / (2.0 * h)
        worst = max(worst, _rel_err(float(analytic.reshape(-1)[i]), numeric))
    return GradReport(per_param={"x": worst}, h=h)


def finite_diff_check_params(f: Callable[[], Tensor], params: dict[str, Tensor],
                             h: float) -> GradReport:
    """Finite-difference check over a named parameter set.

    ``f`` is a closure over ``params`` re-evaluating the loss in place; each
    parameter's values are bumped one component at a time.
    """
    if h <= 0.0:
        raise ValueError("finite_diff_check_params: h must be positive")
    zero_grads(params.values())
    out = f()
    if out.data.size != 1:
        raise ValueError("finite_diff_check_params: f must be scalar-valued")
    backward(out)

    report: dict[str, float] = {}
    for name, tensor in params.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f().item()
            flat[i] = saved - h
            f_minus = f().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic.reshape(-1)[i]), numeric))
        report[name] = worst
    return GradReport(per_param=report, h=h)
