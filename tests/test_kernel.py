"""Transition-matrix construction, mixing and kernel-distance checks."""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from _bruteforce import zeta_per_pair
from cdanneal import kernel
from cdanneal.kernel import (
    KernelMatrix,
    _gibbs_tables,
    _matrix_power,
    _row_distances,
    build_gibbs_random_scan,
    estimate_zeta,
    kernel_distance,
    kernel_power,
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
    _scores,
    lattice_neighbor_pairs,
    state_probs,
)

RNG = np.random.default_rng(42)


def _per_site_kernel(fam, theta):
    """Reference construction: masked logistic, then one np.add.at per coordinate."""
    theta = np.asarray(theta, dtype=float)
    tables = _gibbs_tables(fam)
    up, down = tables.up, tables.down
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


def _carrier_family():
    """{0,1}^3 listed out of order, random statistics (d = 4) and a nonzero log carrier."""
    rng = np.random.default_rng(11)
    states = np.array(list(itertools.product((0, 1), repeat=3)))[[5, 0, 7, 2, 4, 1, 6, 3]]
    return family_from_json(
        {
            "states": states.tolist(),
            "phi": rng.normal(size=(8, 4)).tolist(),
            "log_carrier": rng.normal(size=8).tolist(),
        }
    )


FLIP_FAMILIES = {f"fvbm{p}": build_fvbm(p) for p in (1, 2, 3, 5)} | {"carrier": _carrier_family()}


def _flip_case(name, seed):
    """A family of FLIP_FAMILIES, its flip table and points with |theta| up to 30."""
    fam = FLIP_FAMILIES[name]
    tables = _gibbs_tables(fam)
    up, down = tables.up, tables.down
    flip = np.where(up == np.arange(fam.n_states)[:, None], down, up)
    rng = np.random.default_rng(seed)
    thetas = np.concatenate(
        [
            rng.uniform(-3, 3, size=(6, fam.dim)),
            rng.choice([-30.0, 30.0], size=(4, fam.dim)),
            [np.full(fam.dim, 30.0), np.full(fam.dim, -30.0)],
        ]
    )
    return fam, flip, thetas


class TestFlipProbabilities:
    @pytest.mark.parametrize("name", FLIP_FAMILIES)
    def test_equal_the_kernel_off_diagonal(self, name):
        fam, flip, thetas = _flip_case(name, 300)
        rows = np.arange(fam.n_states)[:, None]
        stack = _gibbs_tables(fam).flips(thetas)
        assert stack.shape == (len(thetas), fam.n_states, fam.n_coords)
        for theta, flips in zip(thetas, stack):
            probs = build_gibbs_random_scan(fam, theta).probs
            np.testing.assert_array_equal(flips, probs[rows, flip])
            np.testing.assert_array_equal(flips, _gibbs_tables(fam).flips(theta))
            # no other off-diagonal entry: each row is its flips and the diagonal
            probs[rows, flip] = 0.0
            np.fill_diagonal(probs, 0.0)
            assert not probs.any()

    @pytest.mark.parametrize("name", FLIP_FAMILIES)
    def test_row_distances_give_kernel_distance(self, name):
        fam, _, thetas = _flip_case(name, 400)
        rng = np.random.default_rng(500)
        a = np.concatenate([rng.uniform(-3, 3, size=(30, fam.dim)), thetas])
        b = np.concatenate([rng.uniform(-3, 3, size=(30, fam.dim)), thetas[::-1]])
        flips = _gibbs_tables(fam).flips
        got = _row_distances(flips(a), flips(b)).max(axis=-1)
        want = kernel_distance(build_gibbs_random_scan(fam, a), build_gibbs_random_scan(fam, b))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _move_probs(fam, gap):
    """sigmoid(gap) / p as 0.14.0 wrote it: a move's probability, with its own sigmoid."""
    return np.exp(np.minimum(gap, 0.0)) / (1.0 + np.exp(-np.abs(gap))) / fam.n_coords


def _scatter_kernel(fam, theta):
    """The kernel of 0.14.0: the package's scores, the move probabilities above, one scatter."""
    tables = _gibbs_tables(fam)
    n = fam.n_states
    scores = _scores(fam, theta)
    gap = scores.take(tables.target, axis=-1) - scores.take(tables.other, axis=-1)
    moves = _move_probs(fam, gap)
    scatter = tables.scatter
    if theta.ndim == 2:
        scatter = (np.arange(len(theta))[:, None] * (n * n) + scatter).reshape(-1)
    probs = np.bincount(scatter, weights=moves.ravel(), minlength=theta.size // fam.dim * n * n)
    return probs.reshape(theta.shape[:-1] + (n, n))


BUILDER_FAMILIES = {f"fvbm{p}": build_fvbm(p) for p in (1, 2, 3, 4)} | {"carrier": _carrier_family()}


class TestBoundBuilder:
    @pytest.mark.parametrize("name", BUILDER_FAMILIES)
    def test_keeps_the_bits_of_the_scatter_expression(self, name):
        fam = BUILDER_FAMILIES[name]
        rng = np.random.default_rng(600)
        thetas = np.concatenate(
            [
                rng.uniform(-3, 3, size=(30, fam.dim)),
                rng.choice([-30.0, 30.0], size=(6, fam.dim)),
                [np.full(fam.dim, 30.0), np.full(fam.dim, -30.0)],
            ]
        )
        build = _gibbs_tables(fam).probs
        np.testing.assert_array_equal(build(thetas), _scatter_kernel(fam, thetas))
        for theta in thetas:
            np.testing.assert_array_equal(build(theta), _scatter_kernel(fam, theta))

    def test_table_cache_lets_a_family_go(self):
        # the tables and their bound moves hold the family's arrays, never the family
        fam = build_fvbm(2)
        tables = _gibbs_tables(fam)
        assert tables.probs(np.zeros(fam.dim)).shape == (4, 4)
        assert tables.flips(np.zeros(fam.dim)).shape == (4, 2)
        gone = weakref.ref(fam)
        del fam
        gc.collect()
        assert gone() is None


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

    @pytest.mark.parametrize("p", [2, 3])
    def test_power_is_numpys_bit_for_bit(self, p):
        # the same np.matmul products in numpy's order, alone and on a stack
        fam = build_fvbm(p)
        thetas = np.random.default_rng(700 + p).uniform(-3, 3, size=(5, fam.dim))
        stack = build_gibbs_random_scan(fam, thetas).probs
        for m in range(1, 65):
            np.testing.assert_array_equal(_matrix_power(stack, m), np.linalg.matrix_power(stack, m))
            np.testing.assert_array_equal(
                _matrix_power(stack[2], m), np.linalg.matrix_power(stack[2], m)
            )

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

    def test_stationary_law_computed_once(self, fvbm2, monkeypatch):
        thetas = RNG.uniform(-3, 3, size=(6, 3))
        kernels = build_gibbs_random_scan(fvbm2, thetas)
        want = [spectral_gap(fvbm2, build_gibbs_random_scan(fvbm2, t)) for t in thetas]
        calls = []

        def counted(fam, theta):
            calls.append(1)
            return state_probs(fam, theta)

        monkeypatch.setattr(kernel, "state_probs", counted)
        np.testing.assert_array_equal(spectral_gap(fvbm2, kernels), want)
        assert len(calls) == 1

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


    def test_fvbm4_grid_matches_per_pair_kernels(self):
        # 2**10 = 1024 points of 16 states, 5120 lattice edges
        fam = build_fvbm(4)
        grid = ParamBox(1.25, fam.dim).grid(2)
        pairs = lattice_neighbor_pairs(2, fam.dim)
        est = estimate_zeta(fam, grid, pairs)
        zeta, used = zeta_per_pair(fam, grid, pairs)
        assert est.n_pairs == used == len(pairs)
        assert est.zeta == pytest.approx(zeta, rel=1e-13, abs=0.0)

    def test_builds_no_kernel(self, fvbm2, box3, monkeypatch):
        def refuse(*args):
            raise AssertionError("estimate_zeta built a kernel")

        monkeypatch.setattr(_gibbs_tables(fvbm2), "probs", refuse)
        assert estimate_zeta(fvbm2, box3.grid(5), lattice_neighbor_pairs(5, 3)).zeta > 0


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
