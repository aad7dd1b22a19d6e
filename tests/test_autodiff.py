import math
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.special import erf

from mimir import _runtime as rt
from mimir import autodiff as ad
from mimir.autodiff import Tensor, tensor_create

from gradcheck_cases import run_gradient_suite


class TestCreate:
    def test_identity_like(self):
        t = tensor_create([2, 2], [1, 0, 0, 1])
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.eye(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tensor_create([3], [1.0, 2.0])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            tensor_create([0], [])

    def test_requires_grad_leaf(self):
        t = tensor_create([2], [1.0, 2.0], requires_grad=True)
        assert t.is_leaf and t.requires_grad


class TestMatmul:
    def test_identity(self):
        m = Tensor(np.array([[2.0, -1.0], [0.5, 3.0]]))
        out = ad.matmul(Tensor(np.eye(2)), m)
        assert np.allclose(out.data, m.data)

    def test_hand_value(self):
        out = ad.matmul(tensor_create([2, 2], [1, 2, 3, 4]), tensor_create([2, 1], [5, 6]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_inner_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_broadcast(self):
        a = Tensor(np.random.default_rng(0).normal(size=(4, 2, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        assert ad.matmul(a, b).shape == (4, 2, 5)


class TestLinear:
    def test_matches_matmul_plus_bias_bitwise(self):
        rng = np.random.default_rng(0)
        x, w, b = (Tensor(rng.normal(size=s)) for s in ((2, 5, 4), (4, 3), (3,)))
        assert np.array_equal(ad.linear(x, w, b).data, ad.add(ad.matmul(x, w), b).data)
        assert np.array_equal(ad.linear(x, w).data, ad.matmul(x, w).data)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 4), (3, 5), None),        # inner dimensions differ
        ((2, 4), (4, 5), (4,)),        # bias does not match the output dim
        ((2, 4), (4, 5), (1, 5)),      # bias is not 1-D
        ((4,), (4, 5), None),          # x has no batch axis
        ((2, 4), (2, 4, 5), None),     # weight is not 2-D
    ])
    def test_shape_mismatch_rejected(self, x_shape, w_shape, b_shape):
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), b)


class TestAttention:
    def test_uniform_scores_average_values(self):
        v = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        zeros = Tensor(np.zeros((2, 3, 4)))
        out = ad.attention(zeros, zeros, v, heads=2)
        assert np.allclose(out.data, v.data.mean(axis=1, keepdims=True).repeat(3, axis=1))

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (2, 5, 4), (2, 5, 4)),   # keys and values of another length
        ((2, 3, 4), (2, 3, 4), (2, 3, 8)),   # values of another width
        ((3, 4), (3, 4), (3, 4)),            # no batch axis
    ])
    def test_shape_mismatch_rejected(self, shapes):
        q, k, v = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ValueError, match="attention"):
            ad.attention(q, k, v, heads=2)

    @pytest.mark.parametrize("heads", [3, 0, -2])
    def test_dim_not_divisible_by_heads_rejected(self, heads):
        t = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="heads"):
            ad.attention(t, t, t, heads=heads)

    def test_each_backward_visit_uses_its_own_gradient(self):
        rng = np.random.default_rng(1)
        t = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(2, 3, 4))) for _ in range(2)]

        def grad_of(out, w):
            t.zero_grad()
            ad.backward(ad.reduce_sum(ad.mul(out, w)))
            return t.grad

        shared = ad.attention(t, t, t, heads=2)  # one node, two backward passes
        for w in weights:
            fresh = grad_of(ad.attention(t, t, t, heads=2), w)
            assert np.array_equal(grad_of(shared, w), fresh)

    def test_non_finite_scores_raise(self):
        q = Tensor(np.array([[[np.nan, 0.0], [1.0, 2.0]]]))
        t = Tensor(np.ones((1, 2, 2)))
        with pytest.raises(FloatingPointError, match="attention"):
            ad.attention(q, t, t, heads=1)


class TestElementwise:
    def test_add_zero_identity(self):
        x = Tensor(np.array([1.5, -2.0]))
        assert np.array_equal(ad.add(x, Tensor(np.zeros(2))).data, x.data)

    def test_clip_bounds(self):
        out = ad.clip(Tensor(np.array([-0.2, 0.5, 1.3])), 0.0, 1.0)
        assert np.array_equal(out.data, [0.0, 0.5, 1.0])

    def test_log_domain_error(self):
        with pytest.raises(ValueError):
            ad.log(Tensor(np.array([-1.0])))

    def test_sqrt_domain_error(self):
        with pytest.raises(ValueError):
            ad.sqrt(Tensor(np.array([-0.5])))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_exp_overflow_raises(self):
        with pytest.raises(FloatingPointError):
            ad.exp(Tensor(np.array([1e4])))


class TestReductionsAndNN:
    def test_softmax_symmetry(self):
        out = ad.softmax(Tensor(np.array([[0.0, 0.0]])))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_mean(self):
        assert ad.reduce_mean(Tensor(np.array([2.0, 4.0, 6.0]))).item() == 4.0

    def test_layer_norm_constant_row(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ad.reduce_sum(Tensor(np.zeros((2, 2))), axes=5)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = ad.softmax(Tensor(rng.normal(size=(4, 7)) * 5.0), axis=-1).data
            assert np.all(out > 0.0) and np.all(out < 1.0)
            assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-12

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 8)) * 2.0 + 1.0)
        out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-12
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-5


def _reference_gelu(a, g):
    """gelu's forward and VJP as plain out-of-place expressions."""
    cdf = 0.5 * (1.0 + erf(a * (1.0 / math.sqrt(2.0))))
    pdf = np.exp(-0.5 * a * a) * (1.0 / math.sqrt(2.0 * math.pi))
    return a * cdf, g * (cdf + a * pdf)


def _reference_layer_norm(a, gamma, beta, g, eps=1e-6):
    """layer_norm's forward and its three VJPs (a, gamma, beta) as plain expressions."""
    dim = a.shape[-1]
    mean = a.mean(axis=-1, keepdims=True)
    centered = a - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gh = g * gamma
    term = dim * gh - gh.sum(axis=-1, keepdims=True) - xhat * (gh * xhat).sum(axis=-1, keepdims=True)
    lead = tuple(range(a.ndim - 1))
    return xhat * gamma + beta, [term * inv / dim, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


# Activation shapes of the tiny16 and mid32 ViTs: tokens, MLP hidden, decoder tokens.
MODEL_SHAPES = [(16, 16, 32), (16, 16, 128), (16, 16, 16), (32, 64, 96), (32, 64, 384),
                (32, 64, 64)]


def _same_bits(a, b) -> bool:
    """Equal to the last bit, telling -0 from 0 and matching nan with nan."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestErf:
    """``_erf`` against scipy.special.erf, bit for bit, in place as gelu calls it and not.

    Each branch is covered over its whole range and at its edges; the gelu
    cases reach past |x| = 1 only with normal inputs.
    """

    @staticmethod
    def _check(x):
        want = erf(x)
        assert _same_bits(ad._erf(x, np.empty_like(x)), want)
        inplace = x.copy()
        assert ad._erf(inplace, inplace) is inplace
        assert _same_bits(inplace, want)

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (1.0, 8.0), (8.0, 30.0), (8.0, 1e300)])
    def test_a_million_random_inputs(self, low, high):
        """Each range holds 10^6 + 7 values, uniform (log-uniform up to 1e300), of random sign;
        the size is no multiple of the block, so the last block is short."""
        rng = np.random.default_rng([int(low), int(math.log10(high))])
        n = 10**6 + 7
        if high > 100.0:
            mag = np.exp(rng.uniform(math.log(low), math.log(high), n))
        else:
            mag = rng.uniform(low, high, n)
        self._check(np.where(rng.random(n) < 0.5, -mag, mag))

    def test_edges(self):
        tiny = np.finfo(float).tiny
        edges = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 8.0,
                 np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 1e300, np.inf, 5e-324, 1e-310,
                 tiny, np.nextafter(tiny, 0.0), *np.linspace(26.5, 27.5, 101)]
        x = np.array(edges + [-e for e in edges] + [np.nan])
        assert np.signbit(x).sum() == len(edges)  # -0.0 is among them
        self._check(x)
        self._check(x[:-1].reshape(2, -1))

    def test_branches_mixed_across_block_boundaries(self):
        """Values beyond 1 sit on both sides of each boundary, in a 3-d array as gelu passes."""
        block = ad._ERF_BLOCK
        rng = np.random.default_rng(7)
        x = rng.normal(size=2 * block + 9) * 1.5
        x[[0, block - 1, block, 2 * block - 1, 2 * block, -1]] = [-1.5, 2.0, -9.0, 1.0 + 1e-9, 3.0, -27.0]
        self._check(x)
        self._check(x[:-9].reshape(4, -1, 8))

    def test_rejects_an_out_it_cannot_write_flat(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            ad._erf(x.T, np.empty((3, 4)).T)

    def test_gelu_over_both_branches_across_a_block(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, ad._ERF_BLOCK // 2 + 5)) * 2.5
        a[0, :4] = [-30.0, 30.0, 12.0, -12.0]
        beyond = np.abs(a * (1.0 / math.sqrt(2.0))) > 1.0
        assert beyond.mean() > 0.3 and (~beyond).mean() > 0.3
        g = rng.normal(size=a.shape)
        out = ad.gelu(Tensor(a.copy(), requires_grad=True))
        ((_, vjp),) = out._node._parents
        want_out, want_grad = _reference_gelu(a, g)
        assert _same_bits(out.data, want_out) and _same_bits(vjp(g), want_grad)


class TestInPlaceKernels:
    """gelu and layer_norm build their temporaries in place; the bits must not move."""

    @staticmethod
    def _vjps_twice(out, g):
        """Each parent's VJP run twice: a clobbered saved tensor would change the second."""
        first = [vjp(g) for _, vjp in out._node._parents]
        second = [vjp(g) for _, vjp in out._node._parents]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        return first

    @pytest.mark.parametrize("shape", MODEL_SHAPES)
    def test_gelu_bit_identical_and_inputs_untouched(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape) * 2.0
        g = rng.normal(size=shape)
        a_before, g_before = a.copy(), g.copy()
        t = Tensor(a, requires_grad=True)
        out = ad.gelu(t)
        forward = out.data.copy()
        (grad,) = self._vjps_twice(out, g)
        want_out, want_grad = _reference_gelu(a_before, g_before)
        assert np.array_equal(forward, want_out) and np.array_equal(out.data, want_out)
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(t.data, a_before) and np.array_equal(g, g_before)
        assert not np.shares_memory(grad, g) and not np.shares_memory(grad, t.data)

    @pytest.mark.parametrize("shape", MODEL_SHAPES)
    def test_layer_norm_bit_identical_and_inputs_untouched(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        a = rng.normal(size=shape) * 3.0 + 0.5
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = rng.normal(size=shape)
        a_before, g_before = a.copy(), g.copy()
        t = Tensor(a, requires_grad=True)
        out = ad.layer_norm(t, Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True))
        forward = out.data.copy()
        grads = self._vjps_twice(out, g)
        want_out, want_grads = _reference_layer_norm(a_before, gamma, beta, g_before)
        assert np.array_equal(forward, want_out) and np.array_equal(out.data, want_out)
        assert len(grads) == 3
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want)
        assert np.array_equal(t.data, a_before) and np.array_equal(g, g_before)
        for got in grads:
            assert not np.shares_memory(got, g) and not np.shares_memory(got, t.data)


class TestRowOrderSums:
    """``shards`` builds every parameter gradient on numpy summing leading axes row by row."""

    @staticmethod
    def _row_by_row(rows):
        total = rows[0].copy()
        for row in rows[1:]:
            total = total + row
        return total

    @pytest.mark.parametrize("shape, axes", [((32, 96, 384), 0), ((32, 16, 96), 0),
                                             ((13, 64, 64), 0), ((32, 16, 96), (0, 1)),
                                             ((32, 64, 64), (0, 1))])
    def test_leading_axis_sums_equal_row_by_row_and_continued_prefix_sums(self, shape, axes):
        terms = np.random.default_rng(0).normal(size=shape)
        rows = terms.reshape((-1,) + shape[2:]) if axes == (0, 1) else terms
        whole = terms.sum(axis=axes).view(np.int64)
        assert np.array_equal(self._row_by_row(rows).view(np.int64), whole)
        for split in (1, 5, len(rows) // 2, len(rows) - 1):
            # the way a share continues the sum of the shares before it: a spare first row
            stack = np.empty((1 + len(rows) - split,) + rows.shape[1:])
            stack[1:] = rows[split:]
            stack[0] = rows[:split].sum(axis=0)
            assert np.array_equal(stack.sum(axis=0).view(np.int64), whole), split


class TestLosses:
    def test_mse_identity(self):
        x = Tensor(np.array([0.3, 0.7]))
        assert ad.mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_mse_hand_value(self):
        assert ad.mse_loss(Tensor(np.zeros(2)), Tensor(np.ones(2))).item() == 1.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_cross_entropy_uniform(self):
        out = ad.cross_entropy(Tensor(np.zeros((3, 10))), [0, 5, 9])
        assert out.item() == pytest.approx(np.log(10.0), abs=1e-12)

    def test_cross_entropy_large_margin(self):
        logits = np.full((1, 4), -50.0)
        logits[0, 2] = 50.0
        assert ad.cross_entropy(Tensor(logits), [2]).item() == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])

    def test_cross_entropy_bit_identical_to_normalising_a_second_exp(self):
        """The probabilities reuse ``log_z``; value and gradient equal the form that
        takes ``exp``, its row sums and their ``log`` a second time."""
        rng = np.random.default_rng(4)
        for shape, scale in (((7, 10), 1.0), ((16, 4), 30.0), ((1, 3), 1e-3), ((64, 10), 5.0)):
            logits = rng.normal(0.0, scale, size=shape)
            labels = rng.integers(0, shape[1], size=shape[0])
            t = Tensor(logits, requires_grad=True)
            out = ad.cross_entropy(t, labels)
            ad.backward(out)
            rows = np.arange(shape[0])
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=1))
            probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
            probs[rows, labels] -= 1.0
            assert out.item() == (log_z - shifted[rows, labels]).mean()
            assert np.array_equal(t.grad, probs * (np.ones(()) / shape[0]))


class TestBackward:
    def test_sum_of_squares(self):
        x = tensor_create([2], [1.0, 2.0], requires_grad=True)
        grads = ad.backward(ad.reduce_sum(ad.square(x)))
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert grads[x] is x.grad

    def test_constant_loss_empty_map(self):
        assert ad.backward(Tensor(np.asarray(3.0))) == {}

    def test_non_scalar_loss(self):
        x = tensor_create([2], [1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(ad.square(x))

    def test_double_backward_doubles_leaf_grads(self):
        x = tensor_create([2], [1.0, 2.0], requires_grad=True)
        loss = ad.reduce_sum(ad.square(x))
        ad.backward(loss)
        ad.backward(loss)
        assert np.array_equal(x.grad, [4.0, 8.0])

    def test_caller_zeroes_grads(self):
        x = tensor_create([2], [1.0, 2.0], requires_grad=True)
        ad.backward(ad.reduce_sum(ad.square(x)))
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression(self):
        x = tensor_create([1], [3.0], requires_grad=True)
        y = ad.mul(x, x)  # d/dx x^2 = 2x via two edges to the same parent
        ad.backward(ad.reduce_sum(y))
        assert np.array_equal(x.grad, [6.0])


def _three_edges(make) -> Tensor:
    """Three paths into one vertex, each through an edge of its own from ``make()``, whose
    gradients the walk sends in the order x 1e16, x -1e16, x 1: summed in that order they give
    the one path's gradient, and 0 in any order that does not start with the first two."""
    return ad.add(ad.add(ad.scale(make(), 1e16), ad.scale(make(), -1e16)), ad.scale(make(), 1.0))


class TestWalkOrder:
    """A leaf sums the gradients its edges send it in walk order, directly and in shares."""

    def test_leaf(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        ad.backward(ad.reduce_sum(_three_edges(lambda: x)))
        assert (1e16 + -1e16) + 1.0 == 1.0 and 1e16 + (-1e16 + 1.0) == 0.0
        assert np.array_equal(x.grad, np.ones((4, 3)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_share_input_and_parameter(self, monkeypatch, workers):
        """The input's three edges, and a parameter's three ``expand`` edges summed over 4 rows."""
        monkeypatch.setattr(rt, "workers", lambda: workers)
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        fn = lambda part, _: (ad.add(_three_edges(lambda: part),
                                     _three_edges(lambda: ad.expand(b, part.shape))),)
        (out,) = ad.shards(fn, x)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.ones((4, 3)))
        assert np.array_equal(b.grad, np.full(3, 4.0))


def _operand(shape, seed):
    """A leaf that requires a gradient, and a non-leaf copy of it whose values only it holds."""
    leaf = Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)
    return leaf, ad.scale(leaf, 1.0)


class TestRetention:
    """A graph keeps the arrays its VJPs read; any other operand's values die with its tensor."""

    @pytest.mark.parametrize("op, sign", [(ad.add, 1.0), (ad.sub, -1.0)])
    def test_add_and_sub_keep_no_operand(self, op, sign):
        (leaf_a, a), (leaf_b, b) = _operand((3, 4), 0), _operand((4,), 1)
        refs = [weakref.ref(a.data), weakref.ref(b.data)]
        loss = ad.reduce_sum(op(a, b))
        del a, b
        assert [r() for r in refs] == [None, None]
        ad.backward(loss)
        assert np.array_equal(leaf_a.grad, np.ones((3, 4)))
        assert np.array_equal(leaf_b.grad, np.full(4, 3.0 * sign))

    def test_attention_keeps_no_projection(self):
        leaves = [_operand((2, 5, 8), seed)[0] for seed in range(3)]
        g = Tensor(np.random.default_rng(3).normal(size=(2, 5, 8)))
        held = [ad.scale(leaf, 1.0) for leaf in leaves]
        ad.backward(ad.reduce_sum(ad.mul(ad.attention(*held, heads=2), g)))
        want = [leaf.grad for leaf in leaves]
        ad.zero_grads(leaves)
        q, k, v = (ad.scale(leaf, 1.0) for leaf in leaves)
        refs = [weakref.ref(t.data) for t in (q, k, v)]
        loss = ad.reduce_sum(ad.mul(ad.attention(q, k, v, heads=2), g))
        del q, k, v
        assert [r() for r in refs] == [None, None, None]
        ad.backward(loss)
        for leaf, bits in zip(leaves, want):
            assert _same_bits(leaf.grad, bits)

    def test_linear_keeps_its_input_only_for_a_live_weight(self):
        for live_weight in (False, True):
            w = Tensor(np.random.default_rng(1).normal(size=(8, 3)), requires_grad=live_weight)
            leaf, x = _operand((2, 5, 8), 0)
            ref = weakref.ref(x.data)
            loss = ad.reduce_sum(ad.linear(x, w, Tensor(np.zeros(3))))
            del x
            assert (ref() is not None) == live_weight  # the weight's VJP reads the input
            ad.backward(loss)
            assert _same_bits(leaf.grad, np.matmul(np.ones((2, 5, 3)), w.data.T))

    def test_gelu_keeps_its_derivative_not_its_input_or_output(self):
        leaf, a = _operand((3, 7), 0)
        h = ad.gelu(a)
        refs = [weakref.ref(a.data), weakref.ref(h.data)]
        loss = ad.reduce_sum(h)
        del a, h
        assert [r() for r in refs] == [None, None]
        ad.backward(loss)
        assert _same_bits(leaf.grad, _reference_gelu(leaf.data, np.ones((3, 7)))[1])
        constant = ad.gelu(Tensor(leaf.data))  # no edge, so no derivative to keep
        assert constant.is_leaf and not constant.requires_grad
        assert _same_bits(constant.data, _reference_gelu(leaf.data, np.ones((3, 7)))[0])

    def test_layer_norm_keeps_xhat_not_its_input_or_output(self):
        rng = np.random.default_rng(4)
        leaf, a = _operand((3, 8), 0)
        gamma = Tensor(rng.normal(size=8), requires_grad=True)
        beta = Tensor(rng.normal(size=8), requires_grad=True)
        g = rng.normal(size=(3, 8))
        out = ad.layer_norm(a, gamma, beta)
        (_, grad_a), _, _ = out._node._parents
        (xhat,) = [cell.cell_contents for cell in grad_a.__closure__
                   if getattr(cell.cell_contents, "shape", None) == (3, 8)]
        refs = [weakref.ref(arr) for arr in (a.data, out.data, xhat)]
        loss = ad.reduce_sum(ad.mul(out, Tensor(g)))
        del a, out, grad_a, xhat
        assert [r() is None for r in refs] == [True, True, False]
        ad.backward(loss)
        _, want = _reference_layer_norm(leaf.data, gamma.data, beta.data, g)
        for got, bits in zip((leaf.grad, gamma.grad, beta.grad), want):
            assert _same_bits(got, bits)


class TestFiniteDiff:
    def test_square_at_three(self):
        report = ad.finite_diff_check(lambda t: ad.reduce_sum(ad.square(t)),
                                      Tensor(np.array([3.0])), 1e-4)
        assert report.max_rel_error < 1e-6

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda t: ad.reduce_sum(t), Tensor(np.array([1.0])), 0.0)

    def test_non_scalar_function_rejected(self):
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda t: ad.square(t), Tensor(np.array([1.0, 2.0])), 1e-4)


def test_gradient_suite_compact():
    cases, worst, failures = run_gradient_suite(seeds_per_op=2)
    assert not failures, failures
    assert worst <= 1e-4
    assert cases >= 40


def test_composed_loss_input_gradients():
    """Finite differences through the full pre-training loss w.r.t. the image pixels."""
    from mimir.model import ViTConfig, init_params, sample_mask, forward_autoencoder, encode, patchify
    from mimir.mi import PenaltyConfig, penalty_mi, median_bandwidth

    cfg = ViTConfig(image_size=4, channels=1, patch_size=2, enc_layers=2, enc_dim=8,
                    enc_heads=2, dec_layers=1, dec_dim=8, dec_heads=2, num_classes=2,
                    mask_ratio=0.5)
    rng = np.random.default_rng(0)
    params = init_params(cfg, rng)
    images = rng.uniform(0.2, 0.8, size=(3, 1, 4, 4))
    plan = sample_mask(cfg.num_patches, cfg.mask_ratio, rng, batch_size=3)
    target = Tensor(images)

    # freeze the kernel bandwidths at the base point: they are constants of the loss
    base_latent = encode(params, patchify(Tensor(images), 2), plan)
    base_vis = ad.gather_rows(patchify(Tensor(images), 2), plan.visible)
    pen_cfg = PenaltyConfig(estimator="hsic",
                            sigma_x=median_bandwidth(base_vis.data.reshape(3, -1)),
                            sigma_y=median_bandwidth(base_latent.data.reshape(3, -1)))

    def loss_fn(t):
        latent = encode(params, patchify(t, 2), plan)
        recon = forward_autoencoder(params, t, plan)
        mse = ad.mse_loss(recon, target)
        pen = penalty_mi(ad.gather_rows(patchify(t, 2), plan.visible), latent, pen_cfg)
        return ad.add(mse, ad.scale(pen, 1e-3))

    report = ad.finite_diff_check(loss_fn, Tensor(images), 1e-4)
    assert report.max_rel_error < 1e-4


# ---------------------------------------------------------------------------
# helper threads

def _mimir_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("mimir-")]


def _probe(part, rows, done, fail=(), pause=0.0):
    """``2 * part`` as one node; its VJP waits ``pause`` s, then logs its first row or raises."""
    def vjp(g):
        if rows.start in fail:
            raise FloatingPointError(f"non-finite gradient in the share at row {rows.start}")
        time.sleep(pause)
        done.append(rows.start)
        return g * 2.0
    return ad._result(part.data * 2.0, "probe", [(part, vjp)])


def _live_params() -> list[Tensor]:
    rng = np.random.default_rng(2)
    shapes = [(8, 6), (6,), (8,), (8,), (6,), (6, 3)]  # w, b, gamma, beta, token, w2
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _live_pass(params: list[Tensor], part: Tensor) -> tuple[Tensor, Tensor]:
    """``[rows, 5, 8]`` to two outputs through linear, layer_norm and a token's expand; the bias
    ``b`` is reached through two edges."""
    w, b, gamma, beta, token, w2 = params
    y = ad.gelu(ad.linear(ad.layer_norm(part, gamma, beta), w, b))
    y = ad.mul(y, ad.expand(b, y.shape))
    tokens = ad.expand(token, (part.shape[0], 2, 6))
    return y, ad.linear(ad.concat([y, tokens], axis=1), w2)


@pytest.mark.parametrize("workers", [1, 2, 3])
class TestShards:
    @pytest.fixture(autouse=True)
    def force_workers(self, monkeypatch, workers):
        monkeypatch.setattr(rt, "workers", lambda: workers)

    @pytest.mark.parametrize("w_shape", [(4, 5), (32, 32), (96, 384)])
    def test_values_and_gradient_equal_one_pass(self, workers, w_shape):
        """...and the weight gradient equals one batched product's terms summed over the rows,
        for small and large weights."""
        rng = np.random.default_rng(0)
        data, w_data = rng.normal(size=(7, 3, w_shape[0])), rng.normal(size=w_shape)
        weights = Tensor(rng.normal(size=(7, 3, w_shape[1])))

        def run(split):
            x, w = Tensor(data, requires_grad=True), Tensor(w_data, requires_grad=True)
            fn = lambda part, _: (ad.linear(part, w),)
            (out,) = ad.shards(fn, x) if split else fn(x, slice(None))
            ad.backward(ad.reduce_sum(ad.mul(out, weights)))  # out's gradient is ``weights``
            return out.data, x.grad, w.grad

        split, whole = run(True), run(False)
        for a, b in zip(split, whole):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        batched = np.matmul(data.swapaxes(-1, -2), weights.data).sum(axis=0)
        assert np.array_equal(split[2].view(np.int64), batched.view(np.int64))

    def test_shares_are_even_runs_of_rows(self, workers):
        seen = []
        ad.shards(lambda part, rows: seen.append(rows) or (part,), Tensor(np.zeros((13, 2))))
        expected = {1: [(0, 13)], 2: [(0, 7), (7, 13)], 3: [(0, 5), (5, 9), (9, 13)]}
        assert sorted((rows.start, rows.stop) for rows in seen) == expected[workers]

    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_a_share_reaching_a_live_parameter_is_rejected(self, workers, requires_grad):
        """...through an edge whose gradient is no sum over rows, here ``mul``'s, by op name."""
        w = Tensor(np.ones(4), requires_grad=True)
        x = Tensor(np.ones((6, 4)), requires_grad=requires_grad)
        with pytest.raises(ValueError, match="through 'mul', whose gradient is not a sum over rows"):
            ad.shards(lambda part, _: (ad.mul(part, w),), x)
        assert w.grad is None and _mimir_threads() == []

    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_live_parameters_get_the_bits_of_one_pass(self, workers, requires_grad):
        """Every row-sum edge kind, two outputs that the loss reads, each .grad as one pass."""
        def run(split):
            params = _live_params()
            x = Tensor(np.random.default_rng(3).normal(size=(7, 5, 8)), requires_grad=requires_grad)
            if split:
                y, z = ad.shards(lambda part, _: _live_pass(params, part), x)
            else:
                y, z = _live_pass(params, x)
            weights = np.random.default_rng(4)
            loss = ad.add(ad.reduce_sum(ad.mul(y, Tensor(weights.normal(size=y.shape)))),
                          ad.reduce_sum(ad.square(ad.mul(z, Tensor(weights.normal(size=z.shape))))))
            ad.backward(loss)
            return [y.data, z.data] + [t.grad for t in params] + ([x.grad] if requires_grad else [])

        for a, b in zip(run(True), run(False)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert _mimir_threads() == []

    def test_no_helper_outlives_a_pass_or_its_backward(self, workers):
        x = Tensor(np.ones((9, 2)), requires_grad=True)
        names = set()

        def fn(part, rows):
            names.add(threading.current_thread().name.split("_")[0])
            return (_probe(part, rows, []),)

        (out,) = ad.shards(fn, x)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.full((9, 2), 2.0))
        assert names == ({"MainThread"} if workers == 1 else {"MainThread", "mimir-shard"})
        assert _mimir_threads() == []

    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_a_live_leaf_returned_as_an_output_is_rejected_by_index(self, workers, requires_grad):
        """Its gradient would have no share's walk to reach it, so the pass is refused."""
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        x = Tensor(np.ones((4, 3)), requires_grad=requires_grad)
        with pytest.raises(ValueError, match="output 1 is a leaf that requires gradients other "
                                             "than the share's input$"):
            ad.shards(lambda part, _: (ad.scale(part, 2.0), b), x)
        assert b.grad is None and _mimir_threads() == []

    def test_an_output_returned_twice_gets_both_gradients(self, workers):
        x = Tensor(np.ones((5, 2)), requires_grad=True)
        a, b = ad.shards(lambda part, _: (lambda y: (y, y))(ad.scale(part, 3.0)), x)
        ad.backward(ad.add(ad.reduce_sum(a), ad.reduce_sum(b)))
        assert np.array_equal(x.grad, np.full((5, 2), 6.0))


def test_one_share_stops_at_a_non_leaf_input(monkeypatch):
    """With one share the pass runs on ``x`` itself; the edges behind ``x`` are not the share's."""
    monkeypatch.setattr(rt, "workers", lambda: 1)
    leaf = Tensor(np.ones((3, 2)), requires_grad=True)
    (out,) = ad.shards(lambda part, _: (ad.square(part),), ad.scale(leaf, 2.0))
    ad.backward(ad.reduce_sum(out))
    assert np.array_equal(leaf.grad, np.full((3, 2), 8.0))


# Two shares whose graphs differ: only the second reaches the bias. The first share ends without
# summing the bias edge, so the second must not wait for it. Prints the error raised.
_UNEVEN_SHARES = """
import numpy as np
from mimir import _runtime as rt, autodiff as ad
rt.workers = lambda: 2
w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
b = ad.Tensor(np.ones(2), requires_grad=True)
x = ad.Tensor(np.ones((4, 1, 3)))
(out,) = ad.shards(lambda part, rows: (ad.linear(part, w, b if rows.start else None),), x)
try:
    ad.backward(ad.reduce_sum(out))
except RuntimeError as err:
    print(f"{err} {w.grad} {b.grad}")
"""


def test_a_share_never_waits_for_an_edge_the_share_before_it_never_summed():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ad.__file__)))
    run = subprocess.run([sys.executable, "-c", _UNEVEN_SHARES], env=env, timeout=60,
                         check=True, capture_output=True, text=True)
    assert run.stdout == ("shards: share 0 failed or summed other parameter edges than share 1 "
                          "None None\n")


@pytest.mark.parametrize("workers", [2, 3])
def test_a_parameter_edge_no_later_share_sums_is_rejected(monkeypatch, workers):
    """Only the first share reaches the bias: its rows' bias terms would otherwise be dropped."""
    monkeypatch.setattr(rt, "workers", lambda: workers)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    (out,) = ad.shards(lambda part, rows: (ad.linear(part, w, None if rows.start else b),),
                       Tensor(np.ones((6, 1, 3))))
    with pytest.raises(RuntimeError, match="share 0 failed or summed other parameter edges "
                                           "than share 1$"):
        ad.backward(ad.reduce_sum(out))
    assert w.grad is None and b.grad is None and _mimir_threads() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_every_share_finishes_before_a_helpers_error_is_raised(monkeypatch, workers):
    monkeypatch.setattr(rt, "workers", lambda: workers)
    x = Tensor(np.ones((9, 2)), requires_grad=True)
    done = []
    # every helper share fails at once; the caller's share logs only after a pause
    fail = {2: {5}, 3: {3, 6}}[workers]
    (out,) = ad.shards(lambda part, rows: (_probe(part, rows, done, fail=fail, pause=0.05),), x)
    with pytest.raises(FloatingPointError, match=f"share at row {min(fail)}$"):
        ad.backward(ad.reduce_sum(out))
    assert done == [0]
    assert x.grad is None and _mimir_threads() == []


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("fail", ["caller", "helper"])
class TestLiveShareFailures:
    """A failing share of a pass on live parameters: every share finishes, the first failing
    share's error is raised, no ``.grad`` moves and no helper thread is left."""

    @pytest.fixture(autouse=True)
    def force_workers(self, monkeypatch, workers):
        monkeypatch.setattr(rt, "workers", lambda: workers)

    @staticmethod
    def _params():
        params = _live_params()
        for t in params:
            t.grad = np.full_like(t.data, 7.0)
        return params

    @staticmethod
    def _assert_untouched(params):
        assert all(np.array_equal(t.grad, np.full_like(t.data, 7.0)) for t in params)
        assert _mimir_threads() == []

    def test_nan_in_one_shares_forward(self, workers, fail):
        params = self._params()
        data = np.random.default_rng(3).normal(size=(9, 5, 8))
        bad = {"caller": 1, "helper": 8}[fail]
        data[bad, 0, 0] = np.nan
        done = []

        def fn(part, rows):
            out = _live_pass(params, part)
            done.append(rows.start)
            return out

        with pytest.raises(FloatingPointError, match="layer_norm: non-finite"):
            ad.shards(fn, Tensor(data, requires_grad=True))
        starts = {2: [0, 5], 3: [0, 3, 6]}[workers]
        failing = max(start for start in starts if start <= bad)
        assert sorted(done) == [start for start in starts if start != failing]
        self._assert_untouched(params)

    def test_raise_in_one_shares_backward(self, workers, fail):
        params = self._params()
        x = Tensor(np.random.default_rng(3).normal(size=(9, 5, 8)), requires_grad=True)
        done = []
        # The probe is the first node a share's backward visits. Either the caller's share
        # fails at once, before it sums any parameter edge the helpers wait for, or every
        # helper share does while the caller's pauses.
        failing = {"caller": {0}, "helper": {2: {5}, 3: {3, 6}}[workers]}[fail]

        def fn(part, rows):
            y, z = _live_pass(params, part)
            return y, _probe(z, rows, done, fail=failing, pause=0.05)

        y, z = ad.shards(fn, x)
        with pytest.raises(FloatingPointError, match=f"share at row {min(failing)}$"):
            ad.backward(ad.add(ad.reduce_sum(y), ad.reduce_sum(z)))
        starts = {2: [0, 5], 3: [0, 3, 6]}[workers]
        assert sorted(done) == [s for s in starts if s not in failing]
        assert x.grad is None
        self._assert_untouched(params)


def test_bits_hold_with_more_workers_than_cores_and_rapid_switching(monkeypatch):
    """Live shares on three workers, with a thread switch every 10 us."""
    rng = np.random.default_rng(5)
    w1 = Tensor(rng.normal(size=(96, 384)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(384, 96)) * 0.1, requires_grad=True)
    data = rng.normal(size=(12, 32, 96))

    def grads(workers):
        monkeypatch.setattr(rt, "workers", lambda: workers)
        x = Tensor(data, requires_grad=True)
        w1.zero_grad()
        w2.zero_grad()
        (h,) = ad.shards(lambda part, _: (ad.linear(ad.gelu(ad.linear(part, w1)), w2),), x)
        ad.backward(ad.reduce_sum(ad.square(h)))
        return [t.view(np.int64) for t in (x.grad, w1.grad, w2.grad)]

    serial = grads(1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for _ in range(3):
            for got, want in zip(grads(3), serial):
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)
    assert _mimir_threads() == []
