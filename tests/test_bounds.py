import math

import numpy as np
import pytest

from mimir.bounds import (BoundsInput, binary_entropy, bound_curves, fano_lower_bound,
                          hellman_raviv_upper_bound, write_bound_curve_csv)
from mimir.mi import discrete_mi

LOG2_10 = math.log2(10.0)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_hand_value(self):
        assert binary_entropy(0.9) == pytest.approx(0.468996, abs=1e-6)

    def test_symmetry(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert binary_entropy(float(p)) == pytest.approx(binary_entropy(float(1.0 - p)), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestBoundsInput:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundsInput(h_pred=1.0, p_e=-0.1, num_classes=10)
        with pytest.raises(ValueError):
            BoundsInput(h_pred=-1.0, p_e=0.5, num_classes=10)
        with pytest.raises(ValueError):
            BoundsInput(h_pred=1.0, p_e=0.5, num_classes=1)


class TestFano:
    def test_zero_error_probability(self):
        inp = BoundsInput(h_pred=LOG2_10, p_e=0.0, num_classes=10)
        assert fano_lower_bound(inp) == pytest.approx(3.321928, abs=1e-6)

    def test_ten_class_minimum_at_point_nine(self):
        inp = BoundsInput(h_pred=LOG2_10, p_e=0.9, num_classes=10)
        assert abs(fano_lower_bound(inp)) <= 1e-5

    def test_binary_hand_value(self):
        inp = BoundsInput(h_pred=1.0, p_e=0.5, num_classes=2)
        assert fano_lower_bound(inp) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing_up_to_mminus1_over_m(self):
        for m in (2, 10, 37):
            grid = np.linspace(0.0, (m - 1) / m, 500)
            vals = [fano_lower_bound(BoundsInput(h_pred=math.log2(m), p_e=float(p), num_classes=m))
                    for p in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestHellmanRaviv:
    def test_zero_error(self):
        inp = BoundsInput(h_pred=LOG2_10, p_e=0.0, num_classes=10)
        assert hellman_raviv_upper_bound(inp) == pytest.approx(3.321928, abs=1e-6)

    def test_half(self):
        inp = BoundsInput(h_pred=LOG2_10, p_e=0.5, num_classes=10)
        assert hellman_raviv_upper_bound(inp) == pytest.approx(LOG2_10 - 1.0, abs=1e-12)

    def test_binary(self):
        inp = BoundsInput(h_pred=1.0, p_e=0.5, num_classes=2)
        assert hellman_raviv_upper_bound(inp) == 0.0


class TestCurves:
    def test_ten_class_grid(self):
        curve = bound_curves(10, 0.01)
        assert len(curve.rows) == 101
        p_min, v_min = curve.argmin_lower()
        assert p_min == pytest.approx(0.90, abs=1e-9)
        assert abs(v_min) <= 1e-5

    def test_upper_matches_closed_form(self):
        curve = bound_curves(10, 0.01)
        for p, _, hi in curve.rows:
            assert hi == pytest.approx(LOG2_10 - 2.0 * p, abs=1e-9)

    def test_lower_below_upper_until_point_nine(self):
        curve = bound_curves(10, 0.01)
        for p, lo, hi in curve.rows:
            if p <= 0.9 + 1e-12:
                assert lo <= hi + 1e-12

    def test_two_class_minimum_at_half(self):
        curve = bound_curves(2, 0.01)
        p_min, _ = curve.argmin_lower()
        assert p_min == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("step, rows", [(0.07, 16), (0.045, 24), (0.09, 13), (0.1, 11),
                                            (0.05, 21), (0.01, 101)])
    def test_grid_ends_at_one(self, step, rows):
        """A step that does not divide 1 still ends the grid at p_e = 1, after a shorter last gap."""
        ps = [p for p, _, _ in bound_curves(10, step).rows]
        assert len(ps) == rows and ps[-1] == 1.0
        assert ps[:-1] == [i * step for i in range(rows - 1)]

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            bound_curves(10, 0.5)
        with pytest.raises(ValueError):
            bound_curves(10, 0.0)

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "bounds.csv"
        write_bound_curve_csv(bound_curves(10, 0.1), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_e,lower,upper"
        assert lines[1] == "0.000000,3.321928,3.321928"
        assert len(lines) == 12


def _mi_of_map(p_source: np.ndarray, pairs: list[tuple[int, int]], nx: int, ny: int) -> float:
    joint = np.zeros((nx, ny))
    for p, (i, j) in zip(p_source, pairs):
        joint[i, j] += p
    return discrete_mi(joint)


def test_lemma_chain_on_finite_systems():
    """I(F(x+d), F(x_re)) <= I(F(x+d), x_re) <= I(x+d, z) on explicit discrete chains."""
    for seed in range(50):
        rng = np.random.default_rng([21, seed])
        n_s, n_z, n_xre, n_f = 6, int(rng.integers(2, 5)), int(rng.integers(2, 5)), 3
        p_s = rng.dirichlet(np.ones(n_s))
        f_of_s = rng.integers(0, n_f, size=n_s)        # F(x+d), a labeling of the input
        g = rng.integers(0, n_z, size=n_s)             # z = g(x+d), the bottleneck
        h = rng.integers(0, n_xre, size=n_z)           # x_re = h(z)
        f2 = rng.integers(0, n_f, size=n_xre)          # F(x_re)

        i_s_z = _mi_of_map(p_s, [(s, g[s]) for s in range(n_s)], n_s, n_z)
        i_f_xre = _mi_of_map(p_s, [(f_of_s[s], h[g[s]]) for s in range(n_s)], n_f, n_xre)
        i_f_f = _mi_of_map(p_s, [(f_of_s[s], f2[h[g[s]]]) for s in range(n_s)], n_f, n_f)

        assert i_f_f <= i_f_xre + 1e-12
        assert i_f_xre <= i_s_z + 1e-12


def test_independence_decomposition_exact():
    """I(x+d, z) = I(x, z) + I(d, z) for independent x, d and factorized z."""
    for seed in range(50):
        rng = np.random.default_rng([22, seed])
        nx, nd = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        nfx, nfd = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        px = rng.dirichlet(np.ones(nx))
        pd = rng.dirichlet(np.ones(nd))
        f = rng.integers(0, nfx, size=nx)
        g = rng.integers(0, nfd, size=nd)

        joint_sz = np.zeros((nx * nd, nfx * nfd))
        joint_xz = np.zeros((nx, nfx * nfd))
        joint_dz = np.zeros((nd, nfx * nfd))
        for i in range(nx):
            for j in range(nd):
                z = f[i] * nfd + g[j]
                p = px[i] * pd[j]
                joint_sz[i * nd + j, z] += p
                joint_xz[i, z] += p
                joint_dz[j, z] += p

        total = discrete_mi(joint_sz)
        parts = discrete_mi(joint_xz) + discrete_mi(joint_dz)
        assert total == pytest.approx(parts, abs=1e-12)
