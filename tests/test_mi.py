import numpy as np
import pytest

from mimir import autodiff as ad
from mimir import mi
from mimir.autodiff import Tensor
from mimir.mi import PenaltyConfig


class TestRbfGram:
    def test_identical_samples_all_ones(self):
        g = mi.rbf_gram(np.zeros((3, 2)), 1.0)
        assert np.array_equal(g, np.ones((3, 3)))

    def test_distance_sqrt2_sigma(self):
        g = mi.rbf_gram(np.array([[0.0], [np.sqrt(2.0)]]), 1.0)
        assert g[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            mi.rbf_gram(np.zeros((3, 2)), 0.0)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            mi.rbf_gram(np.zeros((1, 2)), 1.0)

    def test_invariants(self):
        rng = np.random.default_rng(0)
        g = mi.rbf_gram(rng.normal(size=(6, 3)), 0.8)
        assert np.max(np.abs(g - g.T)) <= 1e-12
        assert np.array_equal(np.diag(g), np.ones(6))
        norm = g / np.trace(g)
        assert abs(np.trace(norm) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(norm).min() >= -1e-10


def cube_sq_dists(x):
    """Reference pairwise squared distances through the full [n, n, d] difference cube."""
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def random_sets_with_duplicate_rows():
    rng = np.random.default_rng(17)
    for n, d in ((3, 1), (5, 3), (9, 1), (16, 7), (33, 48)):
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        x[-1] = x[0]  # a duplicated non-zero row
        yield x


class TestPairwiseDistances:
    def test_rbf_gram_matches_difference_cube_exactly(self):
        for x in random_sets_with_duplicate_rows():
            for sigma in (0.3, 1.7):
                expected = np.exp(-cube_sq_dists(x) / (2.0 * sigma * sigma))
                assert np.array_equal(mi.rbf_gram(x, sigma), expected)

    def test_median_bandwidth_matches_difference_cube_exactly(self):
        for x in random_sets_with_duplicate_rows():
            d = np.sqrt(cube_sq_dists(x))
            upper = d[np.triu_indices(x.shape[0], k=1)]
            expected = float(np.median(upper[upper > 0.0]))
            assert mi.median_bandwidth(x) == expected


class TestSharedGrams:
    """Estimators built from Grams that share one distance matrix per variable."""

    def test_gram_without_sigma_uses_the_median_bandwidth(self):
        for x in random_sets_with_duplicate_rows():
            sigma = mi.median_bandwidth(x)
            gram = mi.rbf_gram(x)
            assert np.array_equal(gram, mi.rbf_gram(x, sigma))

    def test_estimates_from_grams_match_the_sample_estimators_exactly(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(12, 5))
        y = np.tanh(x @ rng.normal(size=(5, 3))) + 0.1 * rng.normal(size=(12, 3))
        gx, gy = mi.rbf_gram(x), mi.rbf_gram(y)
        assert mi.hsic_from_grams(gx, gy) == mi.hsic(x, y)
        for alpha in (2.0, 1.5):
            assert mi.renyi_mi_from_grams(gx, gy, alpha) == mi.renyi_mi(x, y, alpha)

    def test_size_mismatch(self):
        gx, gy = mi.rbf_gram(np.eye(3)), mi.rbf_gram(np.eye(4))
        with pytest.raises(ValueError):
            mi.hsic_from_grams(gx, gy)
        with pytest.raises(ValueError):
            mi.renyi_mi_from_grams(gx, gy, 2.0)


class TestMedianBandwidth:
    def test_three_points(self):
        assert mi.median_bandwidth([[0.0], [1.0], [2.0]]) == 1.0

    def test_all_identical_fallback(self):
        assert mi.median_bandwidth(np.zeros((4, 2))) == 1.0

    def test_two_points(self):
        assert mi.median_bandwidth([[0.0], [5.0]]) == 5.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mi.median_bandwidth([[1.0]])


class TestSymmetricEigenvalues:
    def test_diagonal(self):
        spec = mi.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(spec, [3.0, 2.0, 1.0])

    def test_two_by_two(self):
        spec = mi.symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spec, [3.0, 1.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            mi.symmetric_eigenvalues([[1.0, 0.5], [0.0, 1.0]])

    def test_matches_lapack_on_random_psd(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 7, 10):
            a = rng.normal(size=(n, n))
            k = a @ a.T
            ours = mi.symmetric_eigenvalues(k)
            ref = np.sort(np.linalg.eigvalsh(k))[::-1]
            assert np.max(np.abs(ours - ref)) < 1e-10 * max(1.0, np.abs(ref).max())

    def test_normalized_gram_spectrum_sums_to_one(self):
        rng = np.random.default_rng(2)
        g = mi.rbf_gram(rng.normal(size=(8, 2)), 1.0)
        spec = mi.symmetric_eigenvalues(g / np.trace(g))
        assert abs(spec.sum() - 1.0) <= 1e-9


class TestRenyiEntropy:
    def test_uniform_spectrum_maximal(self):
        g = np.eye(4)
        for alpha in (0.5, 2.0, 4.0):
            assert mi.renyi_entropy(g, alpha) == pytest.approx(2.0, abs=1e-9)

    def test_rank_one_zero(self):
        g = np.ones((5, 5))
        assert mi.renyi_entropy(g, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_hand_spectrum(self):
        g = np.diag([0.75, 0.25])
        assert mi.renyi_entropy(g, 2.0) == pytest.approx(-np.log2(0.625), abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            mi.renyi_entropy(np.eye(2), 1.0)

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mi.renyi_entropy(np.eye(2), -0.5)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            x = rng.normal(size=(6, 2))
            g = mi.rbf_gram(x, mi.median_bandwidth(x))
            for alpha in (0.5, 2.0, 4.0):
                h = mi.renyi_entropy(g, alpha)
                assert -1e-9 <= h <= np.log2(6) + 1e-9


class TestRenyiJoint:
    def test_constant_y_is_identity(self):
        rng = np.random.default_rng(4)
        gx = mi.rbf_gram(rng.normal(size=(5, 2)), 1.0)
        gy = np.ones((5, 5))
        assert mi.renyi_joint_entropy(gx, gy, 2.0) == pytest.approx(mi.renyi_entropy(gx, 2.0), abs=1e-12)

    def test_both_constant_zero(self):
        g = np.ones((4, 4))
        assert mi.renyi_joint_entropy(g, g, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_explicit_hadamard(self):
        rng = np.random.default_rng(5)
        gx = mi.rbf_gram(rng.normal(size=(4, 2)), 1.0)
        gy = mi.rbf_gram(rng.normal(size=(4, 3)), 1.2)
        had = gx * gy
        expected = mi.renyi_entropy(had, 3.0)
        assert mi.renyi_joint_entropy(gx, gy, 3.0) == pytest.approx(expected, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mi.renyi_joint_entropy(np.eye(3), np.eye(4), 2.0)

    def test_monotone_under_hadamard_refinement(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
            gx = mi.rbf_gram(x, mi.median_bandwidth(x))
            gy = mi.rbf_gram(y, mi.median_bandwidth(y))
            joint = mi.renyi_joint_entropy(gx, gy, 2.0)
            assert joint >= max(mi.renyi_entropy(gx, 2.0), mi.renyi_entropy(gy, 2.0)) - 1e-9


class TestRenyiMI:
    def test_constant_y_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 2))
        assert mi.renyi_mi(x, np.zeros((6, 1)), 2.0, sigma_y=1.0) == pytest.approx(0.0, abs=1e-9)

    def test_self_dependence_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        sigma = mi.median_bandwidth(x)
        est = mi.renyi_mi(x, x, 2.0)
        k = mi.rbf_gram(x, sigma)
        had = k * k
        expected = (2.0 * mi.renyi_entropy(mi.rbf_gram(x, sigma), 2.0)
                    - mi.renyi_entropy(had, 2.0))
        assert est == pytest.approx(expected, abs=1e-12)

    def test_dependent_always_above_independent(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.uniform(size=(64, 1))
            y_indep = rng.uniform(size=(64, 1))
            indep = mi.renyi_mi(x, y_indep, 2.0)
            dep = mi.renyi_mi(x, x, 2.0)
            assert indep < dep

    def test_nonnegative_on_random_sets(self):
        count = 0
        for seed in range(100):
            rng = np.random.default_rng([9, seed])
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 2))
            assert mi.renyi_mi(x, y, 2.0) >= -1e-6
            count += 1
        assert count == 100


class TestHsic:
    def test_constant_x_exact_zero(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(5, 2))
        assert mi.hsic(np.zeros((5, 1)), y, sigma_x=1.0) == 0.0

    def test_bruteforce_three_samples(self):
        x = np.array([[0.0], [1.0], [2.0]])
        k = np.array([[np.exp(-abs(i - j) ** 2 / 2.0) for j in range(3)] for i in range(3)])
        h = np.eye(3) - np.ones((3, 3)) / 3.0
        expected = np.trace(k @ h @ k @ h) / 9.0
        assert mi.hsic(x, x, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        base = mi.hsic(x, y, 1.0, 1.0)
        perm = rng.permutation(6)
        assert mi.hsic(x[perm], y[perm], 1.0, 1.0) == pytest.approx(base, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            mi.hsic(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_independent_decay_with_n(self):
        def medians(n):
            vals = []
            for seed in range(50):
                rng = np.random.default_rng([n, seed])
                x = rng.uniform(size=(n, 1))
                y = rng.uniform(size=(n, 1))
                vals.append(mi.hsic(x, y, 0.5, 0.5))
            return np.median(vals)

        assert medians(256) < medians(32)


class TestMalformedInput:
    """The numpy estimators reject malformed samples and Grams with a ValueError that names
    the function called, not a numpy error or a NaN result."""

    def test_rbf_gram_rejects_a_nan_sample(self):
        with pytest.raises(ValueError, match="^rbf_gram: samples must be finite$"):
            mi.rbf_gram([[np.nan], [1.0]])

    def test_median_bandwidth_rejects_an_infinite_sample(self):
        with pytest.raises(ValueError, match="^median_bandwidth: samples must be finite$"):
            mi.median_bandwidth([[np.inf], [1.0]])

    @pytest.mark.parametrize("name", ["hsic", "renyi_mi"])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_sample_estimators_reject_a_nan_sample(self, name, side):
        good = np.random.default_rng(0).normal(size=(5, 3))
        bad = good.copy()
        bad[2, 1] = np.nan
        x, y = (bad, good) if side == "x" else (good, bad)
        estimate = mi.hsic if name == "hsic" else lambda x, y: mi.renyi_mi(x, y, 2.0)
        with pytest.raises(ValueError, match=f"^{name}: samples must be finite$"):
            estimate(x, y)

    def test_renyi_entropy_rejects_a_zero_trace(self):
        with pytest.raises(ValueError, match="^renyi_entropy: Gram trace must be positive"):
            mi.renyi_entropy(np.zeros((3, 3)), 2.0)

    def test_hsic_from_grams_rejects_non_square_grams(self):
        with pytest.raises(ValueError, match=r"^hsic_from_grams: expected a non-empty square "
                                             r"matrix, got \(3, 4\)$"):
            mi.hsic_from_grams(np.ones((3, 4)), np.ones((3, 4)))

    def test_symmetric_eigenvalues_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match=r"^symmetric_eigenvalues: expected a non-empty "
                                             r"square matrix, got \(0, 0\)$"):
            mi.symmetric_eigenvalues(np.zeros((0, 0)))

    @pytest.mark.parametrize("name", ["symmetric_eigenvalues", "renyi_entropy",
                                      "renyi_joint_entropy", "renyi_mi_from_grams",
                                      "hsic_from_grams"])
    def test_gram_functions_reject_a_non_finite_gram(self, name):
        good = mi.rbf_gram(np.random.default_rng(1).normal(size=(4, 2)))
        bad = good.copy()
        bad[0, 1] = bad[1, 0] = np.nan
        call = {"symmetric_eigenvalues": lambda: mi.symmetric_eigenvalues(bad),
                "renyi_entropy": lambda: mi.renyi_entropy(bad, 2.0),
                "renyi_joint_entropy": lambda: mi.renyi_joint_entropy(good, bad, 2.0),
                "renyi_mi_from_grams": lambda: mi.renyi_mi_from_grams(good, bad, 2.0),
                "hsic_from_grams": lambda: mi.hsic_from_grams(bad, good)}[name]
        with pytest.raises(ValueError, match=f"^{name}: matrix must be finite$"):
            call()


class TestPenalty:
    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            mi.penalty_mi(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))), PenaltyConfig())

    def test_identical_latents_zero_hsic(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 6)))
        z = Tensor(np.tile(rng.normal(size=(1, 5)), (4, 1)))
        assert mi.penalty_mi(x, z, PenaltyConfig("hsic")).item() == 0.0

    @pytest.mark.parametrize("estimator", ["hsic", "renyi2"])
    def test_gradient_wrt_latents(self, estimator):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 5))
        cfg = PenaltyConfig(estimator, sigma_x=1.1, sigma_y=0.9)
        report = ad.finite_diff_check(lambda t: mi.penalty_mi(Tensor(x), t, cfg), Tensor(z), 1e-4)
        assert report.max_rel_error < 1e-4

    def test_matches_numpy_estimators(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 3))
        z = rng.normal(size=(6, 4))
        sx, sy = mi.median_bandwidth(x), mi.median_bandwidth(z)
        graph_h = mi.penalty_mi(Tensor(x), Tensor(z), PenaltyConfig("hsic")).item()
        assert graph_h == mi.hsic(x, z, sx, sy)
        graph_r = mi.penalty_mi(Tensor(x), Tensor(z), PenaltyConfig("renyi2")).item()
        assert graph_r == pytest.approx(mi.renyi_mi(x, z, 2.0, sx, sy), abs=1e-9)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig("shannon")

    @pytest.mark.parametrize("sigmas", [(None, None), (1.3, 0.7)], ids=["median", "fixed"])
    def test_hsic_penalty_is_the_hsic_estimate(self, sigmas):
        """The penalty and ``hsic`` build one Gram per variable the same way, bit for bit."""
        for x in random_sets_with_duplicate_rows():
            z = np.tanh(x @ np.linspace(-1.0, 1.0, 2 * x.shape[1]).reshape(x.shape[1], 2))
            cfg = PenaltyConfig("hsic", *sigmas)
            assert mi.penalty_mi(Tensor(x), Tensor(z), cfg).item() == mi.hsic(x, z, *sigmas)

    @pytest.mark.parametrize("estimator", ["hsic", "renyi2"])
    def test_one_distance_matrix_per_variable(self, estimator, monkeypatch):
        """Each Gram and its median bandwidth come from one direct-difference distance
        matrix; no graph-side ||a||^2 + ||b||^2 - 2 a.b expansion is built."""
        calls = []
        pairwise, matmul = mi._pairwise_sq_dists, ad.matmul
        monkeypatch.setattr(mi, "_pairwise_sq_dists", lambda x: calls.append(x.shape) or pairwise(x))
        monkeypatch.setattr(ad, "matmul", lambda a, b: calls.append("matmul") or matmul(a, b))
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        z = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        ad.backward(mi.penalty_mi(x, z, PenaltyConfig(estimator)))
        assert calls == [(4, 6), (4, 5)]


class TestDiscreteMI:
    def test_product_pmf_zero(self):
        assert mi.discrete_mi(np.full((2, 2), 0.25)) == 0.0

    def test_diagonal_identity_channel(self):
        assert mi.discrete_mi(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_hand_value(self):
        val = mi.discrete_mi([[0.4, 0.1], [0.1, 0.4]])
        hb = -(0.2 * np.log2(0.2) + 0.8 * np.log2(0.8))
        assert val == pytest.approx(1.0 - hb, abs=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError):
            mi.discrete_mi([[0.5, 0.5], [0.5, 0.5]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mi.discrete_mi([[1.1, -0.1], [0.0, 0.0]])

    def test_matches_double_loop_on_pmfs_with_zeros(self):
        rng = np.random.default_rng(18)
        for shape in ((2, 2), (3, 5), (6, 4), (1, 7)):
            for _ in range(20):
                p = rng.uniform(size=shape) * (rng.uniform(size=shape) > 0.3)
                p[0, 0] = 1.0
                p /= p.sum()
                px, py = p.sum(axis=1), p.sum(axis=0)
                expected = 0.0
                for i in range(shape[0]):
                    for j in range(shape[1]):
                        if p[i, j] > 0.0:
                            expected += p[i, j] * np.log2(p[i, j] / (px[i] * py[j]))
                assert abs(mi.discrete_mi(p) - expected) <= 1e-12


def random_chain(rng, nx=3, ny=4, nz=3):
    """Random finite Markov chain X -> Y -> Z as (p_x, A=p(y|x), B=p(z|y))."""
    px = rng.dirichlet(np.ones(nx))
    a = np.stack([rng.dirichlet(np.ones(ny)) for _ in range(nx)])
    b = np.stack([rng.dirichlet(np.ones(nz)) for _ in range(ny)])
    return px, a, b


def test_data_processing_inequality():
    for seed in range(200):
        rng = np.random.default_rng([15, seed])
        px, a, b = random_chain(rng)
        joint_xy = px[:, None] * a
        joint_xz = px[:, None] * (a @ b)
        assert mi.discrete_mi(joint_xz) <= mi.discrete_mi(joint_xy) + 1e-12


def test_estimators_rank_dependence_like_discrete_mi():
    """HSIC and I_alpha order a dependent pair above an independent one, matching
    discrete MI on the same discretized data."""
    for seed in range(5):
        rng = np.random.default_rng([16, seed])
        levels = np.linspace(0.0, 1.0, 4)
        x = rng.choice(levels, size=64)
        y_dep = x.copy()
        y_ind = rng.choice(levels, size=64)

        def joint(xs, ys):
            pmf = np.zeros((4, 4))
            for xv, yv in zip(xs, ys):
                pmf[np.searchsorted(levels, xv), np.searchsorted(levels, yv)] += 1
            return pmf / pmf.sum()

        assert mi.discrete_mi(joint(x, y_dep)) > mi.discrete_mi(joint(x, y_ind))
        assert mi.hsic(x, y_dep, 0.5, 0.5) > mi.hsic(x, y_ind, 0.5, 0.5)
        assert mi.renyi_mi(x, y_dep, 2.0, 0.5, 0.5) > mi.renyi_mi(x, y_ind, 2.0, 0.5, 0.5)
