"""Randomized finite-difference cases covering every differentiable op.

Each case is (name, builder) where the builder draws inputs from a seeded
generator and returns (scalar_fn, point). Scalarization contracts op outputs
with a fixed random weight tensor so the full Jacobian action is exercised.
"""

import zlib

import numpy as np

from mimir import autodiff as ad
from mimir import mi
from mimir.autodiff import Tensor


def _weights(rng, shape):
    return Tensor(rng.normal(size=shape))


def _scalarize(op, rng, out_shape):
    w = _weights(rng, out_shape)

    def f(t):
        return ad.reduce_sum(ad.mul(op(t), w))

    return f


def case_builders():
    def unary(op, low, high):
        def build(rng):
            shape = tuple(rng.integers(2, 4, size=int(rng.integers(1, 4))))
            point = Tensor(rng.uniform(low, high, size=shape))
            return _scalarize(op, rng, shape), point
        return build

    def build_add_broadcast(rng):
        shape = (3, 2, 4)
        other = Tensor(rng.normal(size=(2, 4)))
        point = Tensor(rng.normal(size=shape))
        return _scalarize(lambda t: ad.add(t, other), rng, shape), point

    def build_mul_pair(rng):
        shape = (2, 5)
        other = Tensor(rng.normal(size=shape))
        point = Tensor(rng.normal(size=shape))
        return _scalarize(lambda t: ad.mul(other, t), rng, shape), point

    def build_scale(rng):
        shape = (4, 3)
        c = float(rng.normal())
        point = Tensor(rng.normal(size=shape))
        return _scalarize(lambda t: ad.scale(t, c), rng, shape), point

    def build_clip(rng):
        # keep samples away from the clip kinks so central differences are clean
        vals = rng.uniform(-1.0, 1.0, size=(3, 4))
        vals[np.abs(np.abs(vals) - 0.6) < 0.05] = 0.0
        point = Tensor(vals)
        return _scalarize(lambda t: ad.clip(t, -0.6, 0.6), rng, (3, 4)), point

    def build_matmul_left(rng):
        a_shape, b = (2, 3, 4), Tensor(rng.normal(size=(4, 5)))
        point = Tensor(rng.normal(size=a_shape))
        return _scalarize(lambda t: ad.matmul(t, b), rng, (2, 3, 5)), point

    def build_matmul_right(rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        point = Tensor(rng.normal(size=(2, 4, 5)))
        return _scalarize(lambda t: ad.matmul(a, t), rng, (2, 3, 5)), point

    def build_reduce_sum(rng):
        point = Tensor(rng.normal(size=(3, 4, 2)))
        return _scalarize(lambda t: ad.reduce_sum(t, axes=(0, 2)), rng, (4,)), point

    def build_reduce_mean(rng):
        point = Tensor(rng.normal(size=(3, 4)))
        return _scalarize(lambda t: ad.reduce_mean(t, axes=1, keepdims=True), rng, (3, 1)), point

    def build_softmax(rng):
        point = Tensor(rng.normal(size=(3, 5)))
        return _scalarize(lambda t: ad.softmax(t, axis=-1), rng, (3, 5)), point

    def build_layer_norm(rng):
        gamma = Tensor(rng.normal(size=(6,)))
        beta = Tensor(rng.normal(size=(6,)))
        point = Tensor(rng.normal(size=(2, 3, 6)))
        return _scalarize(lambda t: ad.layer_norm(t, gamma, beta), rng, (2, 3, 6)), point

    def build_layer_norm_affine(rng):
        x = Tensor(rng.normal(size=(4, 6)))
        beta = Tensor(rng.normal(size=(6,)))
        point = Tensor(rng.normal(size=(6,)))
        return _scalarize(lambda t: ad.layer_norm(x, t, beta), rng, (4, 6)), point

    def build_mse(rng):
        target = Tensor(rng.normal(size=(3, 4)))
        point = Tensor(rng.normal(size=(3, 4)))
        return (lambda t: ad.mse_loss(t, target)), point

    def build_cross_entropy(rng):
        labels = rng.integers(0, 5, size=4)
        point = Tensor(rng.normal(size=(4, 5)))
        return (lambda t: ad.cross_entropy(t, labels)), point

    def build_reshape(rng):
        point = Tensor(rng.normal(size=(2, 6)))
        return _scalarize(lambda t: ad.reshape(t, (3, 4)), rng, (3, 4)), point

    def build_transpose(rng):
        point = Tensor(rng.normal(size=(2, 3, 4)))
        return _scalarize(lambda t: ad.transpose(t, (2, 0, 1)), rng, (4, 2, 3)), point

    def build_gather(rng):
        idx = np.stack([rng.permutation(5)[:3] for _ in range(2)])
        point = Tensor(rng.normal(size=(2, 5, 3)))
        return _scalarize(lambda t: ad.gather_rows(t, idx), rng, (2, 3, 3)), point

    def build_concat(rng):
        other = Tensor(rng.normal(size=(2, 2, 4)))
        point = Tensor(rng.normal(size=(2, 3, 4)))
        return _scalarize(lambda t: ad.concat([t, other], axis=1), rng, (2, 5, 4)), point

    def build_expand(rng):
        point = Tensor(rng.normal(size=(4,)))
        return _scalarize(lambda t: ad.expand(t, (3, 2, 4)), rng, (3, 2, 4)), point

    def build_rbf_gram(rng):
        vals = rng.normal(size=(5, 3))
        vals[3] = vals[0]  # duplicate rows sit at distance exactly 0
        point = Tensor(vals)
        return _scalarize(lambda t: mi._gram_graph(t, 1.3), rng, (5, 5)), point

    def at_operand(op, shapes, point_at, out_shape):
        """Operand ``point_at`` is the point; the others are fixed draws (None stays None)."""
        def build(rng):
            arrays = {name: None if shape is None else rng.normal(size=shape)
                      for name, shape in shapes.items()}
            point = Tensor(arrays[point_at])

            def f(t):
                return op(**{name: t if name == point_at else None if a is None else Tensor(a)
                             for name, a in arrays.items()})

            return _scalarize(f, rng, out_shape), point
        return build

    def linear(lead, bias, point_at):
        shapes = {"x": lead + (4,), "w": (4, 3), "b": (3,) if bias else None}
        return at_operand(ad.linear, shapes, point_at, lead + (3,))

    def attention(point_at):
        return at_operand(lambda q, k, v: ad.attention(q, k, v, heads=2),
                          {"q": (2, 3, 4), "k": (2, 3, 4), "v": (2, 3, 4)}, point_at, (2, 3, 4))

    def build_self_attention(rng):
        point = Tensor(rng.normal(size=(2, 3, 4)))
        return _scalarize(lambda t: ad.attention(t, t, t, heads=2), rng, (2, 3, 4)), point

    return {
        "add": build_add_broadcast,
        "sub": unary(lambda t: ad.sub(t, Tensor(np.full((1,), 0.25))), -2.0, 2.0),
        "mul": build_mul_pair,
        "scale": build_scale,
        "neg": unary(ad.neg, -2.0, 2.0),
        "exp": unary(ad.exp, -2.0, 2.0),
        "log": unary(ad.log, 0.5, 3.0),
        "sqrt": unary(ad.sqrt, 0.5, 3.0),
        "square": unary(ad.square, -2.0, 2.0),
        "clip": build_clip,
        "matmul_left": build_matmul_left,
        "matmul_right": build_matmul_right,
        "reduce_sum": build_reduce_sum,
        "reduce_mean": build_reduce_mean,
        "softmax": build_softmax,
        "layer_norm": build_layer_norm,
        "layer_norm_affine": build_layer_norm_affine,
        "gelu": unary(ad.gelu, -2.0, 2.0),
        "mse_loss": build_mse,
        "cross_entropy": build_cross_entropy,
        "reshape": build_reshape,
        "transpose": build_transpose,
        "gather_rows": build_gather,
        "concat": build_concat,
        "expand": build_expand,
        "linear_x_3d": linear((2, 3), True, "x"),
        "linear_x_2d_no_bias": linear((5,), False, "x"),
        "linear_w_3d_no_bias": linear((2, 3), False, "w"),
        "linear_w_2d": linear((5,), True, "w"),
        "linear_b_3d": linear((2, 3), True, "b"),
        "attention_q": attention("q"),
        "attention_k": attention("k"),
        "attention_v": attention("v"),
        "attention_qkv_shared": build_self_attention,
        "rbf_gram": build_rbf_gram,
    }


def run_gradient_suite(seeds_per_op: int, h: float = 1e-4) -> tuple[int, float, list[str]]:
    """Run the whole randomized suite; returns (cases, worst_rel_err, failures)."""
    worst = 0.0
    cases = 0
    failures = []
    for name, build in case_builders().items():
        for seed in range(seeds_per_op):
            rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
            f, point = build(rng)
            report = ad.finite_diff_check(f, point, h)
            cases += 1
            worst = max(worst, report.max_rel_error)
            if report.max_rel_error > 1e-4:
                failures.append(f"{name}[seed {seed}]: {report.max_rel_error:.3e}")
    return cases, worst, failures
