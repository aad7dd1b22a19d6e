"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly by the op functions below; every differentiable
op records vector-Jacobian products for the parents that require gradients.
Forward results of arithmetic ops are checked for NaN/Inf so numerical
blow-ups surface where they happen instead of propagating.

Two fused ops carry the transformer: ``linear`` (``x @ w + b`` as one node)
and ``attention`` (head split, scaled ``q kᵀ``, softmax, mixing of ``v`` and
head merge as one node, whose backward computes the score gradient once for
both ``q`` and ``k``). Their forward values are bit-identical to the same
computation spelled out with ``matmul``, ``add``, ``reshape``, ``transpose``,
``scale`` and ``softmax``.

Memory contract: an op result holds its values in ``data`` and its place in
the graph in ``_node``. A node holds its edges and the arrays its VJPs read,
not its output and not a non-leaf operand: an edge leads to a leaf
``Tensor`` or to the ``_Node`` of a non-leaf one. So a graph keeps an intermediate's values alive
only where a VJP reads them (``gelu``'s input, ``layer_norm``'s normalized
input, ``softmax``'s output, ``linear``'s input when its weight requires a
gradient), and the values of every other intermediate are freed once the
caller drops its tensor, while the graph lives on. A VJP sees the array
captured at forward time: rebinding an operand's ``.data`` later does not
reach the backward; writing into that array does.

Gradient accumulation contract: every vertex, leaf or node, sums the
gradients its edges send it in the order the reverse walk sends them, and
``backward`` adds that sum into ``Tensor.grad`` of every reachable leaf
that requires gradients. Callers zero leaf gradients
explicitly between optimization steps; running ``backward`` twice over the
same graph doubles the accumulated leaf gradients. Attacks and forward-only
passes run on ``ModelParams.constants()``, so they never touch parameter
``.grad``.

Passes over row shares: ``shards`` runs a pass over row shares of its
input, on helper threads (see :mod:`mimir._runtime`), and differentiates
it share by share. A share may reach a parameter only through an edge
whose gradient sums row-local terms over the rows (``linear``'s weight and
bias, ``layer_norm``'s affine, ``expand`` over new leading axes): numpy
adds such a sum row by row, so the shares' terms, summed on from share to
share in row order, give every gradient the bits of one pass over the
whole batch. Each share hands its running sums to the next through a
queue and closes it with an end marker, so no share waits for good.
"""

from __future__ import annotations

import math
import queue
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _runtime

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _Node:
    """The graph vertex of an op result: its edges and its op's name, not its values.

    ``_parents`` holds ``(vertex, vjp)`` pairs, a vertex being a leaf
    ``Tensor`` or the ``_Node`` of a non-leaf one. Only nodes have edges:
    the graph walks stop at a vertex whose ``is_leaf`` is True.
    """

    __slots__ = ("_parents", "_op")
    is_leaf = False

    def __init__(self, parents: tuple, op: str):
        self._parents, self._op = parents, op


class Tensor:
    """Dense float64 array, optionally tracked in the differentiation graph.

    Leaves are created by the constructor or :func:`tensor_create`; non-leaf
    tensors are produced by ops and hold their graph vertex in ``_node``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def is_leaf(self) -> bool:
        return self._node is None

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
        op = "leaf" if self._node is None else self._node._op
        return f"Tensor(shape={self.shape}, op={op}{flag})"


def _ensure_finite(data: Array, op: str) -> None:
    if not np.isfinite(data).all():
        raise FloatingPointError(f"{op}: non-finite values in forward result")


Vertex = Tensor | _Node


def _vertex(t: Tensor) -> Vertex:
    """``t``'s vertex in the graph: ``t`` itself for a leaf, its ``_Node`` otherwise."""
    return t if t._node is None else t._node


def _result(data: Array, op: str, edges: Sequence[tuple[Tensor, Callable[[Array], Array]]],
            check: bool = True) -> Tensor:
    """Build an op result; edges to parents without gradients are dropped, the rest lead
    to the parents' vertices."""
    if check:
        _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    kept = tuple((_vertex(p), vjp) for p, vjp in edges if p.requires_grad)
    out._node = _Node(kept, op) if kept else None
    out.requires_grad = bool(kept)
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _RowSum:
    """VJP of a parameter edge whose gradient sums row-local terms over the rows, in order.

    ``sum_on(g, total)`` adds the terms of ``g``'s rows, first to last, to
    ``total`` (to the first term for None); the gradient is ``finish`` of
    the sum over all rows. So the sum over a batch is the sum over its
    first rows continued over the others, and ``shards`` builds it from row
    shares that way.
    """

    __slots__ = ("sum_on", "finish")

    def __init__(self, sum_on: Callable[[Array, Array | None], Array],
                 finish: Callable[[Array], Array] | None = None):
        self.sum_on, self.finish = sum_on, finish

    def finished(self, total: Array) -> Array:
        return total if self.finish is None else self.finish(total)

    def __call__(self, g: Array) -> Array:
        return self.finished(self.sum_on(g, None))


def _stacked(terms: Callable[[Array], Array]) -> Callable[[Array, Array | None], Array]:
    """``_RowSum.sum_on`` for ``terms(g)``, the terms stacked on axis 0.

    numpy sums a C-contiguous stack over axis 0 row by row
    (``tests/test_autodiff.py`` pins this), so a running total continues as
    the first row of the stack.
    """
    def sum_on(g: Array, total: Array | None) -> Array:
        stack = np.ascontiguousarray(terms(g))
        if total is not None:
            stack = np.concatenate((total[None], stack))
        return stack.sum(axis=0)
    return sum_on


def _summed_to(shape: tuple[int, ...]) -> _RowSum:
    """``_unbroadcast(g, shape)`` as a ``_RowSum``, for a ``g`` of more axes than ``shape``."""
    return _RowSum(_stacked(lambda g: g), lambda total: _unbroadcast(total, shape))


def _joint(parents: Sequence[Tensor], grads: Callable[[object], dict[int, object]]) -> list:
    """Edges to ``parents`` whose VJPs share one call of ``grads``.

    ``grads(g)`` returns the gradient of every parent that requires one, by
    index in ``parents``. ``backward`` calls a node's kept VJPs back to back
    with one g: the first call computes them all, each call pops its own.
    """
    pending: dict[int, object] = {}

    def vjp_of(i: int) -> Callable:
        def vjp(g):
            if not pending:
                pending.update(grads(g))
            return pending.pop(i)
        return vjp

    return [(p, vjp_of(i)) for i, p in enumerate(parents)]


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


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape
    return _result(a.data + b.data, "add", [
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(g, sb)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _result(a.data - b.data, "sub", [
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(-g, sb)),
    ])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    return _result(x * y, "mul", [
        (a, lambda g: _unbroadcast(g * y, sa)),
        (b, lambda g: _unbroadcast(g * x, sb)),
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
    x = a.data
    return _result(np.log(x), "log", [(a, lambda g: g / x)])


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: requires non-negative values")
    out = np.sqrt(a.data)
    return _result(out, "sqrt", [(a, lambda g: g * 0.5 / out)])


def square(a: Tensor) -> Tensor:
    x = a.data
    return _result(x * x, "square", [(a, lambda g: g * 2.0 * x)])


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

    x, y, sa, sb = a.data, b.data, a.shape, b.shape

    def grad_a(g: Array) -> Array:
        return _unbroadcast(np.matmul(g, y.swapaxes(-1, -2)), sa)

    def grad_b(g: Array) -> Array:
        return _unbroadcast(np.matmul(x.swapaxes(-1, -2), g), sb)

    return _result(np.matmul(x, y), "matmul", [(a, grad_a), (b, grad_b)])


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``, as one graph node."""
    if x.ndim < 2 or w.ndim != 2:
        raise ValueError(f"linear: needs x of rank >= 2 and a 2-D weight, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: inner dimensions differ, {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ValueError(f"linear: bias shape {b.shape} does not match output dim {w.shape[1]}")
    out = np.matmul(x.data, w.data)
    xt, wt, w_shape = x.data.swapaxes(-1, -2), w.data.T, w.shape

    def summed(g: Array, total: Array | None) -> Array:
        # one row's product at a time, so it stays in cache; numpy's batched
        # product is one BLAS call per row, to the same bits
        rows = range(g.shape[0])
        if total is None:
            total, rows = np.matmul(xt[0], g[0]), rows[1:]
        product = np.empty_like(total)
        for row in rows:
            np.matmul(xt[row], g[row], out=product)
            total += product
        return total

    if x.ndim == 2:  # one product over the rows, not a sum of per-row terms
        w_vjp = lambda g: np.matmul(xt, g)
    else:
        w_vjp = _RowSum(summed, lambda total: _unbroadcast(total, w_shape))
    edges = [(x, lambda g: np.matmul(g, wt)), (w, w_vjp)]
    if b is not None:
        out += b.data
        edges.append((b, _summed_to(b.shape)))
    return _result(out, "linear", edges)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over ``[B, N, D]`` projections.

    Splits D into ``heads`` heads, mixes ``v`` by ``softmax(q kᵀ / sqrt(D / heads))``
    over the last axis and merges the heads back to ``[B, N, D]``. The
    backward visit computes the score gradient once for both ``q`` and ``k``.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ValueError(f"attention: q, k, v must share one [B, N, D] shape, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    bsz, n, dim = q.shape
    if heads < 1 or dim % heads != 0:
        raise ValueError(f"attention: dim {dim} is not divisible by {heads} heads")
    hd = dim // heads
    q_grad, k_grad, v_grad = q.requires_grad, k.requires_grad, v.requires_grad

    def split(a: Array, axes: tuple[int, ...]) -> Array:
        return np.ascontiguousarray(a.reshape(bsz, n, heads, hd).transpose(axes))

    def merge(a: Array, axes: tuple[int, ...]) -> Array:
        return a.transpose(axes).reshape(bsz, n, dim)

    qh, kt, vh = split(q.data, (0, 2, 1, 3)), split(k.data, (0, 2, 3, 1)), split(v.data, (0, 2, 1, 3))
    p = np.matmul(qh, kt)
    scl = 1.0 / math.sqrt(hd)
    p *= scl
    _ensure_finite(p, "attention")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, vh), (0, 2, 1, 3))

    def grads(g: Array) -> dict[int, Array]:
        gh = g.reshape(bsz, n, heads, hd).transpose(0, 2, 1, 3)
        found: dict[int, Array] = {}
        if q_grad or k_grad:
            ds = np.matmul(gh, vh.swapaxes(-1, -2))
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scl
            if q_grad:
                found[0] = merge(np.matmul(ds, kt.swapaxes(-1, -2)), (0, 2, 1, 3))
            if k_grad:
                found[1] = merge(np.matmul(qh.swapaxes(-1, -2), ds), (0, 3, 1, 2))
        if v_grad:
            found[2] = merge(np.matmul(p.swapaxes(-1, -2), gh), (0, 2, 1, 3))
        return found

    return _result(out, "attention", _joint([q, k, v], grads))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out, before = a.data.reshape(tuple(shape)), a.shape
    return _result(np.ascontiguousarray(out), "reshape",
                   [(a, lambda g: g.reshape(before))], check=False)


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
    batch_sel, shape = np.arange(a.shape[0])[:, None], a.shape

    def grad_a(g: Array) -> Array:
        buf = np.zeros(shape)
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
    out, before = np.ascontiguousarray(np.broadcast_to(a.data, target)), a.shape
    vjp = _summed_to(before) if len(target) > a.ndim else lambda g: _unbroadcast(g, before)
    return _result(out, "expand", [(a, vjp)], check=False)


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
    out, shape = a.data.sum(axis=axes, keepdims=keepdims), a.shape

    def grad_a(g: Array) -> Array:
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, shape).copy()

    return _result(np.asarray(out), "reduce_sum", [(a, grad_a)])


def reduce_mean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axes(axes, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    out, shape = a.data.mean(axis=axes, keepdims=keepdims), a.shape

    def grad_a(g: Array) -> Array:
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, shape).copy() / count

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
    # In place, in the operation order of centered = a - mean(a);
    # xhat = centered * (1 / sqrt(mean(centered²) + eps)); out = xhat * gamma + beta.
    xhat = a.data - np.add.reduce(a.data, axis=-1, keepdims=True) / dim
    out = np.multiply(xhat, xhat)  # the squares first, then the output
    inv = np.add.reduce(out, axis=-1, keepdims=True) / dim
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    gamma_data = gamma.data
    np.multiply(xhat, gamma_data, out=out)
    out += beta.data

    def grad_a(g: Array) -> Array:
        # (dim * gh - sum(gh) - xhat * sum(gh * xhat)) * inv / dim with gh = g * gamma
        gh = g * gamma_data
        gh_sum = np.add.reduce(gh, axis=-1, keepdims=True)
        proj = gh * xhat
        np.multiply(xhat, np.add.reduce(proj, axis=-1, keepdims=True), out=proj)
        gh *= dim
        gh -= gh_sum
        gh -= proj
        gh *= inv
        gh /= dim
        return gh

    # the affine gradients sum over every row of the leading axes, in order
    return _result(out, "layer_norm", [
        (a, grad_a),
        (gamma, _RowSum(_stacked(lambda g: (g * xhat).reshape(-1, dim)))),
        (beta, _RowSum(_stacked(lambda g: g.reshape(-1, dim)))),
    ])


# Cephes' erf (ndtr.c), the one scipy.special.erf runs: x * T(x²) / U(x²) for |x| <= 1, and
# 1 - erfc(|x|) with x's sign beyond, erfc being exp(-x²) * P(x) / Q(x) below 8. U and Q are
# monic; their leading 1 is left out, as Cephes' p1evl leaves it out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# Elements per pass of _erf, so that its temporaries stay in L2: on a 2-core Xeon VM a
# [16,64,256] erf took 1.79 ms in blocks of 2^15, 2.02 ms in 2^13, 2.31 ms in 2^17 and
# 3.17 ms in one pass, against 2.77 ms for scipy's (medians of 10 interleaved rounds).
_ERF_BLOCK = 1 << 15


def _horner(x: Array, coefs: Sequence[float], out: Array, monic: bool) -> Array:
    """Cephes' ``p1evl`` (``monic``) or ``polevl`` of ``x`` into ``out``, in their operation order."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erf_tail(x: Array) -> Array:
    """erf of values with |x| > 1: ``1 - erfc(|x|)`` with the sign of x, as Cephes computes it.

    From 8 on Cephes evaluates erfc with other coefficients, and flushes it
    to 0 where exp(-x²) underflows; either way erfc(|x|) < 1.2e-29 there, as
    at 8 itself, so ``1 - erfc`` is exactly 1 and |x| is clipped to 8 here.
    """
    a = np.minimum(np.abs(x), 8.0)
    # libm's exp, the one Cephes calls: numpy's float64 exp has kernels of its own that differ
    # from it in the last bit, but numpy's complex exp takes exp(t + 0i) from libm's exp(t)
    y = np.exp((-(a * a)).astype(complex)).real.copy()
    y *= _horner(a, _ERFC_P, np.empty_like(a), monic=False)
    y /= _horner(a, _ERFC_Q, np.empty_like(a), monic=True)
    np.subtract(1.0, y, out=y)
    return np.copysign(y, x, out=y)


def _erf(x: Array, out: Array) -> Array:
    """erf of ``x`` into the C-contiguous ``out``, which may be ``x``, bit for bit as scipy's.

    The |x| <= 1 polynomial runs over every element, ``_ERF_BLOCK`` at a
    time; the inputs beyond 1 are copied out before ``out`` overwrites them,
    and ``_erf_tail`` rewrites their elements at the end.
    """
    if not out.flags.c_contiguous:
        raise ValueError("_erf: out must be C-contiguous")
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat.size, _ERF_BLOCK)
    z, num, den = np.empty(size), np.empty(size), np.empty(size)
    beyond = np.empty(size, dtype=bool)
    tail_at, tail_x = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # only where _erf_tail rewrites
        for start in range(0, flat.size, _ERF_BLOCK):
            xb = flat[start:start + _ERF_BLOCK]
            ob = flat_out[start:start + _ERF_BLOCK]
            n = xb.size
            zb = np.multiply(xb, xb, out=z[:n])
            if np.greater(zb, 1.0, out=beyond[:n]).any():  # |x| > 1; nan stays here
                at = np.flatnonzero(beyond[:n])
                tail_at.append(at + start)
                tail_x.append(xb[at])
            np.multiply(xb, _horner(zb, _ERF_T, num[:n], monic=False), out=ob)
            ob /= _horner(zb, _ERF_U, den[:n], monic=True)
    if tail_at:
        flat_out[np.concatenate(tail_at)] = _erf_tail(np.concatenate(tail_x))
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU (erf form, not the tanh approximation).

    Its erf is ``_erf``, a numpy port of the Cephes erf that
    ``scipy.special.erf`` runs, with the same bits: a ratio of polynomials
    in x² for |x| <= 1, evaluated over the whole array in blocks, and
    ``1 - erfc(|x|)`` with the sign of x beyond, evaluated on just those
    elements. erfc's exp(-x²) must be libm's exp, which Cephes calls, and
    comes from numpy's complex exp: numpy's float64 exp differs from libm's
    in the last bit on some inputs, and scalar ``math.exp`` calls (60 ns an
    element against 9 ns on a 2-core Xeon VM) cost more than the rest of the
    erf once a tenth of its inputs lie past 1, as do those of one of the two
    encoder layers after 300 steps of the benchmark's tiny16 fine-tuning.
    """
    x = a.data
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty(a.shape))
    _erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5  # 0.5 * (1 + erf(a / sqrt 2))

    def grad_a(g: Array) -> Array:
        # g * (cdf + a * pdf) with pdf = exp(-0.5 * a * a) / sqrt(2 pi), in one buffer
        d = np.multiply(x, -0.5, out=np.empty_like(x))
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x
        d += cdf
        d *= g
        return d

    return _result(x * cdf, "gelu", [(a, grad_a)])


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
    probs = np.exp(shifted - log_z[:, None])

    def grad_logits(g: Array) -> Array:
        delta = probs.copy()
        delta[np.arange(batch), y] -= 1.0
        return delta * (g / batch)

    return _result(out, "cross_entropy", [(logits, grad_logits)])


# ---------------------------------------------------------------------------
# reverse pass

def _topo(roots: Sequence[Vertex], stop: Vertex | None = None) -> list[Vertex]:
    """Every vertex reachable from ``roots`` but not through ``stop``, each after all of its parents."""
    topo: list[Vertex] = []
    seen: set[int] = set()
    stack: list[tuple[Vertex, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node is stop or node.is_leaf:
            continue
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return topo


def _walk(topo: list[Vertex], flowing: dict[int, object],
          send: Callable[[Tensor, Callable, Array], Array | None] | None = None
          ) -> list[tuple[Tensor, Array]]:
    """Send the gradients in ``flowing`` back through ``topo``; the leaves reached, in walk order.

    ``flowing`` maps the ids of the vertices the walk starts from to their
    gradients. Every vertex, leaf or node, sums the gradients its edges send
    it as ``held + pg``, in walk order; a VJP that returns None sends
    nothing. Each leaf reached comes back with that sum. ``send(leaf, vjp,
    g)``, if given, stands in for ``vjp(g)`` on every edge into a leaf.
    """
    reached: list[tuple[Tensor, Array]] = []
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf:
            reached.append((node, g))
            continue
        for parent, vjp in node._parents:
            pg = send(parent, vjp, g) if send is not None and parent.is_leaf else vjp(g)
            if pg is not None:
                held = flowing.get(id(parent))
                flowing[id(parent)] = pg if held is None else held + pg
    return reached


def backward(loss: Tensor) -> dict[Tensor, Array]:
    """Accumulate gradients of a scalar loss into all reachable leaves.

    Returns a map from each requires-grad leaf to its (accumulated) gradient
    array. A loss with no gradient-tracked inputs yields an empty map. A
    leaf's contributions are added in walk order (see ``_walk``); an error
    leaves every ``.grad`` as it was.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}
    root = _vertex(loss)
    leaf_grads: dict[Tensor, Array] = {}
    for leaf, total in _walk(_topo([root]), {id(root): np.ones_like(loss.data)}):
        leaf.grad = total.copy() if leaf.grad is None else leaf.grad + total
        leaf_grads[leaf] = leaf.grad
    return leaf_grads


# ---------------------------------------------------------------------------
# passes over row shares

class _Seeds(dict):
    """The gradients of a ``shards`` node's outputs, by output index; ``+`` joins them."""

    def __add__(self, other: "_Seeds") -> "_Seeds":
        return _Seeds({**self, **other})


def _share_topo(outs: tuple[Tensor, ...], part: Tensor) -> list[Vertex]:
    """The graph of a share's outputs down to ``part``'s vertex, checked to reach every
    other gradient leaf through a ``_RowSum`` edge."""
    stop = _vertex(part)
    topo = _topo([_vertex(out) for out in outs if out.requires_grad], stop=stop)
    for node in topo:
        if node is stop or node.is_leaf:  # a non-leaf input's own edges lie outside the share
            continue
        for parent, vjp in node._parents:
            if parent.is_leaf and parent is not stop and type(vjp) is not _RowSum:
                raise ValueError(f"shards: a share reaches a leaf that requires gradients through "
                                 f"{node._op!r}, whose gradient is not a sum over rows")
    return topo


def shards(fn: Callable[[Tensor, slice], tuple[Tensor, ...]], x: Tensor) -> tuple[Tensor, ...]:
    """``fn`` over row shares of ``x``, as nodes that hold the shares' results in order.

    The shares are ``min(_runtime.workers(), rows)`` contiguous runs of
    rows, as even as ``np.array_split`` makes them (the first ones a row
    longer); this alone decides where a share begins. ``fn(part, rows)``
    gets ``x[rows]`` as a leaf of its own and returns a tuple of tensors
    whose first axis is those rows; it builds them from ``part``, constants
    and parameters. The calling thread runs the first share and helper
    threads (see ``_runtime.run_shares``) the others. Every share finishes
    before the call returns, and the first failing share's error is raised.
    The backward walks each share's graph once, from its rows of the
    gradients of all outputs (summed for an output returned twice), over the
    same threads, and joins the input gradients.

    A share may reach a leaf that requires gradients, other than its
    ``part``, only through a ``_RowSum`` edge; this raises ``ValueError``
    otherwise. The shares run one ``fn``, so their walks meet such edges in
    one order, and they form a chain: share i takes the total of shares 0 to
    i-1 for its next edge from share i-1's queue, sums the edge on over its
    rows and puts the total on its own queue, which it closes with an end
    marker, also when it fails. Reading the marker or another parameter's
    total there, or a total left after its walk, raises ``RuntimeError``
    naming share i-1. The last share's walk sums a parameter's finished
    edges as ``_walk`` sums any leaf's, and the parameter gets that sum
    through one edge of the node. So when ``fn`` computes each row from that
    row alone and keeps the rows on the leading axis of every tensor it
    builds, the values and gradients are the same bits as ``fn(x,
    slice(None))``, whatever the split and whichever thread ran a share.
    With one share ``fn`` runs on ``x`` itself and no node is added.
    """
    shares = np.array_split(np.arange(x.shape[0]), min(_runtime.workers(), x.shape[0]))
    rows = [slice(int(share[0]), int(share[-1]) + 1) for share in shares]
    if len(rows) == 1:
        outs = fn(x, rows[0])
        _share_topo(outs, x)
        return outs
    x_grad = x.requires_grad
    parts = [Tensor(x.data[r], requires_grad=x_grad) for r in rows]

    def build(i: int) -> tuple[tuple[Tensor, ...], list[Vertex]]:
        outs = fn(parts[i], rows[i])
        return outs, _share_topo(outs, parts[i])

    built = _runtime.run_shares(build, len(rows))
    # the backward keeps each share's graph, not its outputs' values; None marks a constant
    graphs = [([_vertex(out) if out.requires_grad else None for out in outs], topo)
              for outs, topo in built]
    params = list({id(p): p for node in reversed(graphs[0][1]) if not node.is_leaf
                   for p, _ in node._parents if p.is_leaf and p is not parts[0]}.values())
    last = len(rows) - 1

    def backprop(seeds: _Seeds) -> dict[int, Array | None]:
        links = [queue.SimpleQueue() for _ in range(last)]  # share i's sums go to share i+1

        def back(i: int) -> dict[Tensor, Array]:
            (heads, topo), part = graphs[i], parts[i]

            def take(leaf: Tensor | None) -> Array | None:
                """Share i-1's total for ``leaf``'s next edge; ``take(None)`` reads its end."""
                sent, total = links[i - 1].get()
                if sent is not leaf:
                    raise RuntimeError(f"shards: share {i - 1} failed or summed other "
                                       f"parameter edges than share {i}")
                return total

            def send(leaf: Tensor, vjp: _RowSum, g: Array) -> Array | None:
                """Sum the edge on from share i-1's total; the last share sends the whole sum."""
                if leaf is part:
                    return vjp(g)
                total = vjp.sum_on(g, take(leaf) if i else None)
                if i == last:
                    return vjp.finished(total)
                links[i].put((leaf, total))
                return None

            # one vertex with an edge to each output: the walk sums an output returned twice
            seed = _Node(tuple((heads[k], lambda s, k=k: s[k][rows[i]]) for k in seeds
                               if heads[k] is not None), "seeds")
            try:
                reached = _walk(topo + [seed], {id(seed): seeds}, send)
                if i:
                    take(None)  # share i-1 summed no edge that this share did not
            finally:
                if i < last:
                    links[i].put((None, None))  # the end marker
            return dict(reached)

        found = _runtime.run_shares(back, len(rows))
        # by index in [x] + params; the last share's walk summed each parameter's edges
        grads = {j: found[last].get(p) for j, p in enumerate(params, start=1)}
        if x_grad:
            grads[0] = np.concatenate([got[part] if part in got else np.zeros_like(part.data)
                                       for got, part in zip(found, parts)])
        return grads

    joint = _result(np.empty(0), "shards", _joint([x] + params, backprop), check=False)
    return tuple(_result(np.concatenate([outs[k].data for outs, _ in built]), "shards",
                         [(joint, lambda g, k=k: _Seeds({k: g}))], check=False)
                 for k in range(len(built[0][0])))


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
    leaf = Tensor(point.data, requires_grad=True)
    return finite_diff_check_params(lambda: f(leaf), {"x": leaf}, h)


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
