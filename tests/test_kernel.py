"""Transition-matrix construction, mixing and kernel-distance checks."""

import itertools
import math

import numpy as np
import pytest

from cdanneal.kernel import (
    KernelMatrix,
    build_gibbs_random_scan,
    estimate_zeta,
    flip_tables,
    kernel_distance,
    kernel_power,
    kernel_to_csv,
    m_step_stat_rows,
    reversibility_violation,
    spectral_gap,
    stationarity_violation,
)
from cdanneal.model import (
    FiniteExpFamily,
    ParamBox,
    build_fvbm,
    family_from_json,
    lattice_neighbor_pairs,
    state_probs,
)

RNG = np.random.default_rng(42)


def _per_site_kernel(fam, theta):
    """Reference construction: masked logistic, then one np.add.at per coordinate."""
    theta = np.asarray(theta, dtype=float)
    up, down = flip_tables(fam)
    scores = fam.log_carrier + fam.suff_stats @ theta
    gap = scores[up] - scores[down]
    p1 = np.empty_like(gap)
    pos = gap >= 0
    p1[pos] = 1.0 / (1.0 + np.exp(-gap[pos]))
    expg = np.exp(gap[~pos])
    p1[~pos] = expg / (1.0 + expg)
    p, n = fam.n_coords, fam.n_states
    probs = np.zeros((n, n))
    rows = np.arange(n)
    for j in range(p):
        np.add.at(probs, (rows, up[:, j]), p1[:, j] / p)
        np.add.at(probs, (rows, down[:, j]), (1.0 - p1[:, j]) / p)
    return probs


class TestGibbsConstruction:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_matches_per_site_reference(self, p):
        fam = build_fvbm(p)
        rng = np.random.default_rng(100 + p)
        thetas = list(rng.uniform(-3, 3, size=(5, fam.dim)))
        thetas += [
            np.full(fam.dim, 30.0),
            np.full(fam.dim, -30.0),
            30.0 * np.resize([1.0, -1.0], fam.dim),
        ]
        for theta in thetas:
            probs = build_gibbs_random_scan(fam, theta).probs
            assert np.all(np.isfinite(probs))
            np.testing.assert_allclose(probs, _per_site_kernel(fam, theta), rtol=0, atol=1e-14)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_stack_matches_one_point_builds(self, p):
        fam = build_fvbm(p)
        rng = np.random.default_rng(200 + p)
        thetas = np.concatenate(
            [
                rng.uniform(-3, 3, size=(40, fam.dim)),
                rng.choice([-30.0, 30.0], size=(8, fam.dim)),
                [np.full(fam.dim, 30.0), np.full(fam.dim, -30.0)],
            ]
        )
        stack = build_gibbs_random_scan(fam, thetas).probs
        assert stack.shape == (len(thetas), fam.n_states, fam.n_states)
        for theta, probs in zip(thetas, stack):
            np.testing.assert_array_equal(probs, build_gibbs_random_scan(fam, theta).probs)

    @pytest.mark.parametrize("theta", [30.0, -30.0])
    def test_small_tail_keeps_relative_precision(self, fvbm1, theta):
        # p = 1: K[0, 1] = sigmoid(theta) and K[1, 0] = sigmoid(-theta); one
        # of them is about 1e-13 and must still be right to the last digits.
        probs = build_gibbs_random_scan(fvbm1, [theta]).probs
        tail = math.exp(-30.0) / (1.0 + math.exp(-30.0))
        small = probs[0, 1] if theta < 0 else probs[1, 0]
        assert small == pytest.approx(tail, rel=1e-14, abs=0.0)

    def test_uniform_row_from_origin(self, fvbm2):
        kernel = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(kernel.probs[0], [0.5, 0.25, 0.25, 0.0], atol=1e-15)

    def test_rows_stochastic_and_reversible(self, fvbm2):
        for theta in RNG.uniform(-3, 3, size=(25, 3)):
            kernel = build_gibbs_random_scan(fvbm2, theta)
            assert np.all(kernel.probs >= 0)
            np.testing.assert_allclose(kernel.probs.sum(axis=1), 1.0, atol=1e-12)
            assert stationarity_violation(fvbm2, kernel) < 1e-12
            assert reversibility_violation(fvbm2, kernel) < 1e-12

    def test_saturated_couplings_absorb(self, fvbm2):
        kernel = build_gibbs_random_scan(fvbm2, [8.0, 8.0, 8.0])
        assert kernel.probs[3, 3] > 1.0 - 1e-5

    def test_non_binary_states_rejected(self):
        fam = family_from_json({"states": [[0], [1], [2]], "phi": [[0.0], [1.0], [2.0]]})
        with pytest.raises(ValueError):
            build_gibbs_random_scan(fam, [0.0])

    def test_partial_product_space_rejected(self):
        fam = family_from_json(
            {"states": [[0, 0], [0, 1], [1, 0]], "phi": [[0.0], [1.0], [2.0]]}
        )
        with pytest.raises(ValueError):
            build_gibbs_random_scan(fam, [0.0])


class TestKernelPower:
    def test_power_one_is_identity(self, fvbm2):
        kernel = build_gibbs_random_scan(fvbm2, [0.3, -0.2, 0.5])
        np.testing.assert_array_equal(kernel_power(kernel, 1).probs, kernel.probs)

    def test_two_step_row(self, fvbm2):
        kernel = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            kernel_power(kernel, 2).probs[0], [0.375, 0.25, 0.25, 0.125], atol=1e-15
        )

    def test_stays_stochastic_and_stationary(self, fvbm2, theta_star):
        kernel = kernel_power(build_gibbs_random_scan(fvbm2, theta_star), 7)
        np.testing.assert_allclose(kernel.probs.sum(axis=1), 1.0, atol=1e-10)
        assert stationarity_violation(fvbm2, kernel) < 1e-10

    def test_large_power_reaches_stationarity(self, fvbm2, theta_star):
        kernel = kernel_power(build_gibbs_random_scan(fvbm2, theta_star), 200)
        pi = state_probs(fvbm2, theta_star)
        tv = 0.5 * np.abs(kernel.probs - pi).sum(axis=1).max()
        assert tv < 1e-8

    @pytest.mark.parametrize("m", [0, -2])
    def test_nonpositive_power_rejected(self, fvbm2, m):
        kernel = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            kernel_power(kernel, m)


class TestSpectralGap:
    def test_uniform_two_site_value(self, fvbm2):
        kernel = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        assert spectral_gap(fvbm2, kernel) == pytest.approx(0.5, abs=1e-12)

    def test_single_site_mixes_in_one_step(self, fvbm1):
        kernel = build_gibbs_random_scan(fvbm1, [0.0])
        assert spectral_gap(fvbm1, kernel) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_below_one(self, fvbm2):
        for theta in RNG.uniform(-3, 3, size=(20, 3)):
            assert spectral_gap(fvbm2, build_gibbs_random_scan(fvbm2, theta)) < 1.0

    def test_invariant_under_relabeling(self, fvbm2):
        perm = np.array([3, 1, 0, 2])
        relabeled = FiniteExpFamily(
            states=fvbm2.states[perm],
            suff_stats=fvbm2.suff_stats[perm],
            log_carrier=fvbm2.log_carrier[perm],
        )
        for theta in RNG.uniform(-2, 2, size=(10, 3)):
            a = spectral_gap(fvbm2, build_gibbs_random_scan(fvbm2, theta))
            b = spectral_gap(relabeled, build_gibbs_random_scan(relabeled, theta))
            assert a == pytest.approx(b, abs=1e-10)

    def test_power_multiplies_mixing(self, fvbm2, theta_star):
        kernel = build_gibbs_random_scan(fvbm2, theta_star)
        alpha = spectral_gap(fvbm2, kernel)
        for m in (2, 3, 5):
            assert spectral_gap(fvbm2, kernel_power(kernel, m)) == pytest.approx(
                alpha**m, abs=1e-8
            )

    def test_non_reversible_kernel_rejected(self, fvbm2):
        cycle = np.roll(np.eye(4), 1, axis=1)
        fake = KernelMatrix(theta=np.zeros(3), probs=cycle)
        with pytest.raises(ValueError):
            spectral_gap(fvbm2, fake)

    def test_grid_supremum_monotone_in_half_width(self, fvbm2):
        sups = []
        for half_width in (1.0, 2.0, 3.0):
            grid = ParamBox(half_width, 3).grid(5)
            sups.append(
                max(spectral_gap(fvbm2, build_gibbs_random_scan(fvbm2, t)) for t in grid)
            )
        assert sups[0] <= sups[1] <= sups[2]
        assert sups[2] < 1.0


class TestKernelDistance:
    def test_zero_for_identical(self, fvbm2):
        k = build_gibbs_random_scan(fvbm2, [0.5, -1.0, 0.2])
        assert kernel_distance(k, k) == 0.0

    def test_symmetry(self, fvbm2):
        k1 = build_gibbs_random_scan(fvbm2, [0.5, -1.0, 0.2])
        k2 = build_gibbs_random_scan(fvbm2, [-0.3, 0.4, 1.1])
        assert kernel_distance(k1, k2) == kernel_distance(k2, k1)

    def test_matches_sign_pattern_brute_force(self, fvbm2):
        # maximize |sum_y f(y) (K1-K2)(x,y)| over all f in {-1,1}^4 and x
        k1 = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        k2 = build_gibbs_random_scan(fvbm2, [0.1, 0.0, 0.0])
        diff = k1.probs - k2.probs
        best = max(
            abs(float(diff[x] @ np.array(signs)))
            for x in range(4)
            for signs in itertools.product((-1.0, 1.0), repeat=4)
        )
        assert kernel_distance(k1, k2) == pytest.approx(best, abs=1e-15)

    def test_shape_mismatch_rejected(self, fvbm2, fvbm1):
        k1 = build_gibbs_random_scan(fvbm2, [0.0, 0.0, 0.0])
        k2 = build_gibbs_random_scan(fvbm1, [0.0])
        with pytest.raises(ValueError):
            kernel_distance(k1, k2)


class TestZetaEstimate:
    def test_constant_family_has_zero_slope(self):
        # zero sufficient statistic: conditionals never depend on theta
        fam = family_from_json({"states": [[0], [1]], "phi": [[0.0], [0.0]]})
        est = estimate_zeta(fam, np.array([[-1.0], [0.0], [1.0]]))
        assert est.zeta == 0.0

    def test_stable_under_grid_refinement(self, fvbm2, box3):
        ests = []
        for per_axis in (5, 9):
            grid = box3.grid(per_axis)
            pairs = lattice_neighbor_pairs(per_axis, 3)
            ests.append(estimate_zeta(fvbm2, grid, pairs).zeta)
        assert abs(ests[1] - ests[0]) / ests[1] < 0.20

    def test_bounds_held_out_random_pairs(self, fvbm2, box3):
        grid = box3.grid(9)
        pairs = lattice_neighbor_pairs(9, 3)
        zeta = estimate_zeta(fvbm2, grid, pairs).zeta
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(-3, 3, size=(2, 3))
            ka = build_gibbs_random_scan(fvbm2, a)
            kb = build_gibbs_random_scan(fvbm2, b)
            assert kernel_distance(ka, kb) <= zeta * np.linalg.norm(a - b) * 1.25

    def test_coincident_points_skipped(self, fvbm2):
        thetas = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        est = estimate_zeta(fvbm2, thetas)
        assert est.n_pairs == 1
        with pytest.raises(ValueError):
            estimate_zeta(fvbm2, np.zeros((3, 3)))


class TestStatRows:
    def test_match_kernel_power_rows(self, fvbm2, theta_star):
        rows = m_step_stat_rows(fvbm2, theta_star, 3)
        kernel = kernel_power(build_gibbs_random_scan(fvbm2, theta_star), 3)
        np.testing.assert_allclose(rows, kernel.probs @ fvbm2.suff_stats, atol=1e-15)

    def test_converge_to_model_mean(self, fvbm2, theta_star):
        from cdanneal.model import mean_parameter

        rows = m_step_stat_rows(fvbm2, theta_star, 300)
        mean = mean_parameter(fvbm2, theta_star)
        assert np.max(np.abs(rows - mean)) < 1e-8


class TestCsvExport:
    def test_round_trips_through_text(self, fvbm2, tmp_path):
        kernel = build_gibbs_random_scan(fvbm2, [0.5, 1.0, 0.5])
        path = tmp_path / "kernel.csv"
        kernel_to_csv(fvbm2, kernel, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "state,00,01,10,11"
        assert len(lines) == 5
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, kernel.probs)
