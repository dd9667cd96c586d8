"""Sampling, MLE, sample-constraint and theory-constant checks."""

import math

import numpy as np
import pytest

from cdanneal.kernel import kernel_power, build_gibbs_random_scan
from cdanneal.learner import cd_gradient, counter_rng
from cdanneal.model import ParamBox, state_probs
from cdanneal.oracle import (
    MleNonexistenceError,
    assemble_constants,
    check_constraint_empirical_process,
    check_constraint_mle,
    check_sample,
    compute_constants,
    compute_grid_bounds,
    empirical_stat_mean,
    mle,
    root_chi_square_divergence,
    sample_iid,
    smallest_admissible_m,
)

GAMMAS = [0.05, 0.25, 0.45]


class TestDataIndices:
    @pytest.mark.parametrize(
        "data",
        [np.array([0.0, 1.0]), np.array([[0, 1]]), np.array([], dtype=np.int64), [4], [-1]],
    )
    def test_learner_and_oracle_reject_the_same_samples(self, fvbm2, data):
        with pytest.raises(ValueError):
            empirical_stat_mean(fvbm2, data)
        with pytest.raises(ValueError):
            cd_gradient(fvbm2, np.zeros(3), data, 1, counter_rng(0, 0, 0, 1))

    def test_sample_object_and_index_list_agree(self, fvbm2, theta_star):
        data = sample_iid(fvbm2, theta_star, 50, seed=4)
        np.testing.assert_array_equal(
            empirical_stat_mean(fvbm2, data), empirical_stat_mean(fvbm2, data.items.tolist())
        )


class TestSampleIid:
    def test_uniform_frequencies(self, fvbm2):
        data = sample_iid(fvbm2, np.zeros(3), 1_000_000, seed=0)
        freqs = np.bincount(data.items, minlength=4) / data.n
        np.testing.assert_allclose(freqs, 0.25, atol=0.002)

    def test_seeded_reproducibility(self, fvbm2, theta_star):
        a = sample_iid(fvbm2, theta_star, 1000, seed=123)
        b = sample_iid(fvbm2, theta_star, 1000, seed=123)
        np.testing.assert_array_equal(a.items, b.items)

    def test_frequencies_match_exact_law(self, fvbm2, theta_star):
        n = 1_000_000
        data = sample_iid(fvbm2, theta_star, n, seed=17)
        freqs = np.bincount(data.items, minlength=4) / n
        probs = state_probs(fvbm2, theta_star)
        for f, p in zip(freqs, probs):
            assert abs(f - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_empirical_mean_bounded(self, fvbm2, theta_star):
        data = sample_iid(fvbm2, theta_star, 500, seed=4)
        mean = empirical_stat_mean(fvbm2, data)
        assert np.all(np.abs(mean) <= fvbm2.stat_bound)

    def test_bad_size_rejected(self, fvbm2):
        with pytest.raises(ValueError):
            sample_iid(fvbm2, np.zeros(3), 0, seed=1)


class TestMle:
    def test_uniform_counts_give_origin(self, fvbm2, box3):
        result = mle(fvbm2, np.array([0, 1, 2, 3]), box3)
        np.testing.assert_allclose(result.theta, np.zeros(3), atol=1e-10)
        assert result.residual < 1e-10
        assert not result.clipped

    def test_residual_always_tiny(self, fvbm2, box3, theta_star):
        for seed in range(5):
            data = sample_iid(fvbm2, theta_star, 10_000, seed=seed)
            result = mle(fvbm2, data, box3)
            assert result.residual < 1e-10

    def test_close_to_truth_at_large_n(self, fvbm2, box3, theta_star):
        errors = []
        for seed in range(5):
            data = sample_iid(fvbm2, theta_star, 10_000, seed=100 + seed)
            errors.append(np.linalg.norm(mle(fvbm2, data, box3).theta - theta_star))
        assert np.median(errors) < 0.2

    def test_objective_never_increases(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 300, seed=6)
        result = mle(fvbm2, data, box3)
        assert np.all(np.diff(result.nll_path) <= 1e-12)

    def test_degenerate_sample_has_no_mle(self, fvbm2, box3):
        with pytest.raises(MleNonexistenceError):
            mle(fvbm2, np.full(50, 3, dtype=np.int64), box3)

    def test_clipping_flagged_for_tiny_box(self, fvbm2):
        tiny = ParamBox(0.1, 3)
        data = np.array([0, 1, 2, 3] + [3] * 60)
        result = mle(fvbm2, data, tiny)
        assert result.clipped
        assert np.all(np.abs(result.theta) <= 0.1)
        assert np.max(np.abs(result.theta_raw)) > 0.1


class TestMleConstraint:
    def test_perfect_estimate_has_full_margin(self, fvbm2, box3):
        data = sample_iid(fvbm2, np.array([0.5, 1.0, 0.5]), 5000, seed=2)
        fitted = mle(fvbm2, data, box3)
        check = check_constraint_mle(fvbm2, data, fitted.theta, 0.45, box3, mle_result=fitted)
        assert check.passed
        assert check.statistic == 0.0
        assert check.margin == pytest.approx(5000**0.45)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_passes_on_honest_samples(self, fvbm2, box3, theta_star, gamma):
        data = sample_iid(fvbm2, theta_star, 10_000, seed=3)
        check = check_constraint_mle(fvbm2, data, theta_star, gamma, box3)
        assert check.margin == check.bound - check.statistic
        if gamma == 0.45:
            assert check.passed

    def test_fails_against_distant_truth(self, fvbm2, box3, theta_star):
        shifted = theta_star + np.array([0.0, 3.0, 0.0])
        data = sample_iid(fvbm2, shifted, 10_000, seed=5)
        check = check_constraint_mle(fvbm2, data, theta_star - np.array([0.0, 1.0, 0.0]), 0.45, ParamBox(5.0, 3))
        assert not check.passed

    def test_pass_rate_high_at_default_gamma(self, fvbm2, box3, theta_star):
        passed = 0
        for seed in range(30):
            data = sample_iid(fvbm2, theta_star, 10_000, seed=1000 + seed)
            passed += check_constraint_mle(fvbm2, data, theta_star, 0.45, box3).passed
        assert passed >= 27


class TestEmpiricalProcessConstraint:
    def test_exhaustive_frequencies_have_zero_deviation(self, fvbm2, box3):
        # frequencies equal the uniform law exactly, so the gap vanishes
        data = np.array([0, 1, 2, 3] * 2)
        grid = box3.grid(3)
        check = check_constraint_empirical_process(fvbm2, data, np.zeros(3), 2, 0.45, grid)
        assert check.statistic < 1e-12
        assert check.passed

    def test_matches_two_loop_summation(self, fvbm2, box3, theta_star):
        rng = np.random.default_rng(12)
        items = rng.integers(0, 4, size=30)
        grid = box3.grid(3)
        m = 2
        check = check_constraint_empirical_process(fvbm2, items, theta_star, m, 0.45, grid)
        probs = state_probs(fvbm2, theta_star)
        worst = 0.0
        for theta in grid:
            power = kernel_power(build_gibbs_random_scan(fvbm2, theta), m).probs
            emp = np.zeros(3)
            for x in items:
                row_mean = np.zeros(3)
                for y in range(4):
                    row_mean += power[x, y] * fvbm2.suff_stats[y]
                emp += row_mean
            emp /= len(items)
            pop = np.zeros(3)
            for x in range(4):
                for y in range(4):
                    pop += probs[x] * power[x, y] * fvbm2.suff_stats[y]
            worst = max(worst, math.sqrt(len(items)) * float(np.linalg.norm(emp - pop)))
        assert check.statistic == pytest.approx(worst, abs=1e-12)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_margin_grows_with_gamma(self, fvbm2, box3, theta_star, gamma):
        data = sample_iid(fvbm2, theta_star, 10_000, seed=21)
        grid = box3.grid(5)
        check = check_constraint_empirical_process(fvbm2, data, theta_star, 2, gamma, grid)
        assert check.bound == pytest.approx(10_000**gamma)
        assert check.worst_theta is not None

    def test_empty_grid_rejected(self, fvbm2, theta_star):
        with pytest.raises(ValueError):
            check_constraint_empirical_process(
                fvbm2, np.array([0]), theta_star, 1, 0.45, np.empty((0, 3))
            )

    def test_check_sample_combines_both(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 10_000, seed=31)
        checks = check_sample(fvbm2, box3, data, theta_star, 2, 0.45, box3.grid(5))
        assert checks.passed == (checks.mle_check.passed and checks.empirical_check.passed)
        assert checks.m == 2


class TestDivergenceFunction:
    def test_zero_at_the_true_parameter(self, fvbm2, theta_star):
        assert root_chi_square_divergence(fvbm2, theta_star, theta_star) == 0.0

    def test_positive_elsewhere(self, fvbm2, theta_star):
        assert root_chi_square_divergence(fvbm2, theta_star, theta_star + 0.5) > 0

    def test_matches_direct_chi_square_sum(self, fvbm2, theta_star):
        theta = np.array([-0.2, 0.4, 1.3])
        p_star = state_probs(fvbm2, theta_star)
        p_theta = state_probs(fvbm2, theta)
        chi2 = float(np.sum(p_star**2 / p_theta) - 1.0)
        assert root_chi_square_divergence(fvbm2, theta_star, theta) == pytest.approx(
            math.sqrt(chi2), abs=1e-12
        )


@pytest.fixture(scope="module")
def bounds(fvbm2, box3, theta_star):
    return compute_grid_bounds(fvbm2, box3, theta_star, grid_per_axis=5)


class TestConstants:
    def test_grid_bounds_sane(self, bounds):
        assert bounds.min_fisher_eig > 0
        assert 0 < bounds.mixing_bound < 1
        assert bounds.divergence_lipschitz > 0
        assert bounds.kernel_lipschitz > 0

    def test_mixing_bound_at_least_center_cell(self, fvbm2, box3, theta_star):
        bounds = compute_grid_bounds(fvbm2, box3, theta_star, grid_per_axis=9)
        assert bounds.mixing_bound >= 0.5

    def test_drift_coeff_monotone_in_m(self, fvbm2, box3, bounds):
        consts = [assemble_constants(fvbm2, box3, bounds, m, 10_000, 0.45) for m in range(1, 8)]
        drift = [c.drift_coeff for c in consts]
        assert all(b >= a for a, b in zip(drift, drift[1:]))
        fluct = [c.fluctuation_scale for c in consts]
        assert all(b <= a for a, b in zip(fluct, fluct[1:]))

    def test_fluctuation_scale_decreases_in_n(self, fvbm2, box3, bounds):
        values = [
            assemble_constants(fvbm2, box3, bounds, 2, n, 0.45).fluctuation_scale
            for n in (100, 1000, 10_000)
        ]
        assert values[0] > values[1] > values[2]

    def test_smallest_admissible_m_is_tight(self, fvbm2, box3, bounds):
        m_min = smallest_admissible_m(
            bounds.min_fisher_eig,
            bounds.divergence_lipschitz,
            bounds.mixing_bound,
            1.0,
            3,
        )
        assert m_min is not None
        at = assemble_constants(fvbm2, box3, bounds, m_min, 10_000, 0.45)
        below = assemble_constants(fvbm2, box3, bounds, m_min - 1, 10_000, 0.45)
        assert at.drift_coeff > 0
        assert below.drift_coeff <= 0
        assert at.smallest_admissible_m == m_min

    def test_inadmissible_m_flagged_not_fatal(self, fvbm2, box3, bounds):
        consts = assemble_constants(fvbm2, box3, bounds, 2, 10_000, 0.45)
        assert not consts.hypotheses_met
        assert consts.ball_radius == math.inf
        assert consts.rate_coeff == math.inf

    def test_admissible_constants_assemble(self, fvbm2, theta_star):
        box = ParamBox(1.25, 3)
        consts = compute_constants(fvbm2, box, theta_star, m=16, n=10_000, gamma=0.45)
        assert consts.hypotheses_met
        assert consts.ball_factor == pytest.approx(10_000 ** ((1 - 0.9) / 6))
        assert consts.ball_radius == pytest.approx(
            consts.ball_factor * consts.fluctuation_scale / consts.drift_coeff
        )
        assert consts.rate_coeff == pytest.approx(
            (1 + consts.bias_coeff) / consts.drift_coeff + box.diameter / 4
        )
        assert math.isfinite(consts.rate_bound(10_000))

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_gamma_range_supported(self, fvbm2, box3, bounds, gamma):
        consts = assemble_constants(fvbm2, box3, bounds, 3, 1000, gamma)
        assert consts.gamma == gamma
        assert consts.fluctuation_scale == pytest.approx(
            (1 + consts.bias_coeff) * 1000 ** (gamma - 0.5)
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.5, -0.1, 0.9])
    def test_bad_gamma_rejected(self, fvbm2, box3, bounds, gamma):
        with pytest.raises(ValueError):
            assemble_constants(fvbm2, box3, bounds, 2, 100, gamma)

    def test_boundary_theta_star_rejected(self, fvbm2, box3):
        with pytest.raises(ValueError):
            compute_grid_bounds(fvbm2, box3, np.array([3.0, 0.0, 0.0]), 3)

    def test_json_round_trip(self, fvbm2, box3, bounds):
        consts = assemble_constants(fvbm2, box3, bounds, 2, 100, 0.45)
        doc = consts.to_dict()
        assert doc["grid"] == {"per_axis": 5, "half_width": 3.0}
        assert doc["ball_radius"] == "inf"
        import json

        json.dumps(doc)
