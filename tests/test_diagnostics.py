"""Exact conditional-expectation, drift, super-martingale and rate-fit checks."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cdanneal.diagnostics import (
    SLACK_TOL,
    BoundCheck,
    HypothesesUnmetError,
    _expected_sq_series,
    _median_quantiles,
    bias_bound_grid,
    cd_conditional_moments,
    drift_report,
    envelope_coverage,
    expected_sq_distance_after_step,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from cdanneal.learner import Schedule, Trajectory, run_cd
from cdanneal.model import ParamBox, ParamBoxError, build_fvbm, mean_parameter, state_probs
from cdanneal.oracle import (
    TheoryConstants,
    assemble_constants,
    check_sample,
    compute_grid_bounds,
    mle,
    sample_iid,
)
from _bruteforce import enumerate_cd_moments, items_of


@pytest.fixture(scope="module")
def small_box():
    return ParamBox(1.25, 3)


@pytest.fixture(scope="module")
def small_bounds(fvbm2, small_box, theta_star):
    return compute_grid_bounds(fvbm2, small_box, theta_star, grid_per_axis=9)


@pytest.fixture(scope="module")
def admissible_setup(fvbm2, small_box, small_bounds, theta_star):
    """A verified sample and constants with a positive drift coefficient."""
    m = 16
    n = 1000
    consts = assemble_constants(fvbm2, small_box, small_bounds, m, n, 0.45)
    assert consts.hypotheses_met
    data = sample_iid(fvbm2, theta_star, n, seed=77)
    checks = check_sample(fvbm2, data, mle(fvbm2, data, small_box), theta_star, m, 0.45, small_box.grid(9))
    assert checks.passed
    return m, data, consts, checks


class TestExactExpectedGradient:
    def test_single_datum_kernel_row(self, fvbm2):
        value = cd_conditional_moments(fvbm2, np.zeros(3), np.array([0]), 1)[0]
        np.testing.assert_allclose(value, [-0.25, 0.0, -0.25], atol=1e-15)

    def test_long_chains_recover_exact_gradient(self, fvbm2, theta_star):
        items = np.array([0, 1, 1, 3, 2])
        emp = fvbm2.suff_stats[items].mean(axis=0)
        expected = emp - mean_parameter(fvbm2, theta_star)
        value = cd_conditional_moments(fvbm2, theta_star, items, 400)[0]
        np.testing.assert_allclose(value, expected, atol=1e-9)

    def test_stationary_start_rows_equal_model_mean(self, fvbm2, theta_star):
        # replacing the m-step rows by the stationary law gives the exact
        # gradient identically; the finite-m value must approach it
        items = np.array([0, 3])
        emp = fvbm2.suff_stats[items].mean(axis=0)
        surrogate = emp - state_probs(fvbm2, theta_star) @ fvbm2.suff_stats
        gaps = [
            np.linalg.norm(
                cd_conditional_moments(fvbm2, theta_star, items, m)[0] - surrogate
            )
            for m in (1, 4, 16, 64)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_matches_monte_carlo(self, fvbm2):
        theta = np.array([0.2, 0.6, -0.4])
        items = np.array([1, 2])
        m = 2
        mean, var_trace = cd_conditional_moments(fvbm2, theta, items, m)
        reps = 50_000
        # step 0 of run_cd under a unit rate moves theta by one gradient draw
        traj = run_cd(
            fvbm2, ParamBox(10.0, 3), Schedule("fixed", 1.0), np.tile(items, reps), m, steps=1,
            master_seed=70, theta_init=theta,
        )
        assert not traj.boundary_hits[0]
        grad = traj.thetas[1] - traj.thetas[0]
        se = math.sqrt(var_trace * len(items) / reps)
        assert np.all(np.abs(grad - mean) <= 4 * se)


class TestBoundCheck:
    def test_no_active_point_covers_nothing(self):
        # a violated bound off the active set, as martingale_outside_ball is
        # when every iterate stays in the layer or the ball
        check = BoundCheck(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2, dtype=bool), True)
        assert check.steps == 0
        assert check.worst_slack is None
        assert check.violations == 0
        assert check.entry() == {
            "steps": 0, "violations": 0, "worst_slack": None, "hypotheses_met": True,
        }

    def test_violations_need_the_hypotheses_and_exceed_the_tolerance(self):
        lhs = np.array([0.0, 1.0, 2.0, 0.5 * SLACK_TOL, 3.0])
        active = np.array([True, True, True, True, False])
        met = BoundCheck(lhs, np.ones(5), active, True)
        assert met.steps == 4
        assert met.worst_slack == -1.0
        assert met.violations == 1
        unmet = BoundCheck(lhs, np.ones(5), active, False)
        assert unmet.worst_slack == -1.0
        assert unmet.violations == 0
        assert unmet.entry()["hypotheses_met"] is False


class TestBruteForceAgreement:
    @pytest.mark.parametrize(
        "items,m",
        [([0], 1), ([0], 2), ([1, 3], 1), ([0, 2, 3], 2)],
    )
    def test_moments_match_path_enumeration(self, fvbm2, box3, items, m):
        theta = np.array([0.3, -0.2, 0.1])
        center = np.array([0.1, 0.2, -0.3])
        eta = 0.05
        items = np.array(items)
        grad_bf, sq_bf = enumerate_cd_moments(fvbm2, theta, items, m, eta, center)
        grad = cd_conditional_moments(fvbm2, theta, items, m)[0]
        sq = expected_sq_distance_after_step(fvbm2, box3, theta, eta, items, m, center)
        np.testing.assert_allclose(grad, grad_bf, atol=1e-12)
        assert sq == pytest.approx(sq_bf, abs=1e-12)


class TestBiasBound:
    def test_positive_slack_at_the_mle(self, fvbm2, small_box, theta_star, admissible_setup):
        m, data, consts, checks = admissible_setup
        at_mle = check_sample(fvbm2, data, checks.mle, theta_star, m, 0.45, checks.mle.theta)
        report = bias_bound_grid(consts, at_mle, checks.mle.theta)
        # at the MLE the distance term vanishes; only the fluctuation
        # allowance remains on the right side
        assert report.rhs[0] == pytest.approx(consts.fluctuation_scale)
        assert report.slack[0] >= 0

    def test_slack_positive_on_grid(self, fvbm2, small_box, theta_star, admissible_setup):
        m, data, consts, checks = admissible_setup
        grid = small_box.grid(5)
        report = bias_bound_grid(
            consts, check_sample(fvbm2, data, checks.mle, theta_star, m, 0.45, grid), grid
        )
        assert report.violations == 0
        assert report.worst_slack >= 0

    def test_refused_without_verified_sample(self, fvbm2, small_box, small_bounds, theta_star):
        m, n = 16, 1000
        consts = assemble_constants(fvbm2, small_box, small_bounds, m, n, 0.45)
        data = sample_iid(fvbm2, theta_star, n, seed=78)
        checks = check_sample(fvbm2, data, mle(fvbm2, data, small_box), theta_star, m, 0.45, small_box.grid(9))
        failing = dataclasses.replace(
            checks,
            mle_check=dataclasses.replace(checks.mle_check, passed=False),
        )
        with pytest.raises(HypothesesUnmetError):
            bias_bound_grid(consts, failing, small_box.grid(9))

    def test_refused_on_another_grid(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        with pytest.raises(ValueError, match="grid"):
            bias_bound_grid(consts, checks, small_box.grid(5))

    def test_mismatched_m_rejected(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        with pytest.raises(ValueError):
            bias_bound_grid(dataclasses.replace(consts, m=m + 1), checks, small_box.grid(9))

    def test_bound_utilization_shrinks_with_m(self, fvbm2, small_box, small_bounds, theta_star):
        # longer chains shrink the geometric coefficient of the distance
        # term, and the exact bias falls at least as fast as its bound, so
        # the utilized fraction of the bound must not degrade with m
        n = 10_000
        data = sample_iid(fvbm2, theta_star, n, seed=79)
        grid = small_box.grid(3)
        utilization = []
        for m in range(1, 7):
            consts = assemble_constants(fvbm2, small_box, small_bounds, m, n, 0.45)
            checks = check_sample(fvbm2, data, mle(fvbm2, data, small_box), theta_star, m, 0.45, small_box.grid(9))
            assert checks.passed
            on_grid = check_sample(fvbm2, data, checks.mle, theta_star, m, 0.45, grid)
            report = bias_bound_grid(consts, on_grid, grid)
            assert report.violations == 0
            utilization.append(report.lhs / report.rhs)
        utilization = np.stack(utilization)
        fraction_nonincreasing = np.mean(np.all(np.diff(utilization, axis=0) <= 1e-12, axis=0))
        assert fraction_nonincreasing >= 0.9


class TestDrift:
    def test_frozen_step_keeps_distance(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        theta = np.array([1.25, 0.0, 0.0])
        eta = 0.2
        value = expected_sq_distance_after_step(fvbm2, small_box, theta, eta, items_of(data), m, checks.mle.theta)
        assert value == pytest.approx(float(np.sum((theta - checks.mle.theta) ** 2)), abs=1e-15)

    def test_zero_rate_is_exact_equality(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        theta = np.array([0.4, 0.6, 0.1])
        h2 = float(np.sum((theta - checks.mle.theta) ** 2))
        lhs = expected_sq_distance_after_step(fvbm2, small_box, theta, 0.0, items_of(data), m, checks.mle.theta)
        assert lhs == pytest.approx(h2, abs=1e-14)

    def test_report_on_short_run(self, fvbm2, small_box, theta_star, small_bounds):
        m, n = 16, 1000
        consts = assemble_constants(fvbm2, small_box, small_bounds, m, n, 0.45)
        data = sample_iid(fvbm2, theta_star, n, seed=80)
        checks = check_sample(fvbm2, data, mle(fvbm2, data, small_box), theta_star, m, 0.45, small_box.grid(9))
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=300,
                      burn_in=20, master_seed=21, replicate=0)
        report = drift_report(fvbm2, small_box, traj, items_of(data), consts, checks)
        assert report.hypotheses_met == checks.passed
        assert report.violations == 0
        assert report.worst_slack >= -1e-10
        h = np.linalg.norm(traj.thetas[: traj.steps] - checks.mle.theta, axis=1)
        frozen = np.flatnonzero(traj.boundary_hits[: traj.steps])
        for t in frozen:
            assert report.lhs[t] == pytest.approx(h[t] ** 2, abs=1e-14)

    def test_variance_term_included(self, fvbm2, small_box, admissible_setup):
        # the conditional second moment exceeds the squared drifted mean
        m, data, consts, checks = admissible_setup
        theta = np.array([0.2, 0.3, -0.1])
        eta = 0.05
        mean, var_trace = cd_conditional_moments(fvbm2, theta, items_of(data), m)
        lhs = expected_sq_distance_after_step(fvbm2, small_box, theta, eta, items_of(data), m, checks.mle.theta)
        drifted = float(np.sum((theta + eta * mean - checks.mle.theta) ** 2))
        assert lhs == pytest.approx(drifted + eta**2 * var_trace, abs=1e-14)
        assert var_trace > 0


class TestSampleCountedOnce:
    def test_reports_on_a_sample_never_recount_it(self, fvbm2, small_box, admissible_setup, monkeypatch):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=200,
                      master_seed=26, replicate=0)
        nonfrozen = int(np.sum(~traj.boundary_hits[: traj.steps]))
        assert nonfrozen > 0
        bincount, calls = np.bincount, []

        def counting_bincount(*args, **kwargs):
            # unweighted calls count data; the kernel builder's are weighted scatters
            if kwargs.get("weights") is None:
                calls.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting_bincount)
        drift = drift_report(fvbm2, small_box, traj, data, consts, checks)
        mart = martingale_report(fvbm2, small_box, traj, data, consts, checks)
        assert len(calls) == 0
        # an index array is counted once per block of live steps, not once per
        # step; these 200 steps are one block, so once per report
        drift_items = drift_report(fvbm2, small_box, traj, items_of(data), consts, checks)
        mart_items = martingale_report(fvbm2, small_box, traj, items_of(data), consts, checks)
        assert len(calls) == 2
        assert np.array_equal(drift.lhs, drift_items.lhs)
        assert np.array_equal(mart.out.lhs, mart_items.out.lhs)
        assert np.array_equal(mart.inside.lhs, mart_items.inside.lhs)


class TestStackedMoments:
    @pytest.mark.parametrize("m", [1, 2, 16])
    def test_stack_matches_each_point_alone(self, fvbm2, box3, m):
        thetas = box3.sample(np.random.default_rng(40 + m), 50)
        items = items_of(sample_iid(fvbm2, np.array([0.5, 1.0, 0.5]), 1000, seed=41))
        means, traces = cd_conditional_moments(fvbm2, thetas, items, m)
        assert means.shape == (50, 3) and traces.shape == (50,)
        for theta, mean, trace in zip(thetas, means, traces):
            alone_mean, alone_trace = cd_conditional_moments(fvbm2, theta, items, m)
            assert isinstance(alone_trace, float)
            assert np.array_equal(mean, alone_mean)
            assert trace == alone_trace

    # eta0 = 25 harmonic over 700 steps covers t = 156, 313 and 627, where
    # eta squared as an array differs from the per-step scalar by 1 ulp.
    # Centred on a step's drifted mean, its value is eta^2 times the trace, so
    # that ulp shows.  p = 3 stacks its 8-state kernels in blocks of 256 steps.
    @pytest.mark.parametrize("n", [100, 10_000])
    @pytest.mark.parametrize("m", [1, 2, 16])
    @pytest.mark.parametrize("p, half_width", [(2, 3.0), (3, 1.25)])
    def test_series_matches_the_per_step_loop(self, p, half_width, m, n):
        fam = build_fvbm(p)
        box = ParamBox(half_width, fam.dim)
        data = sample_iid(fam, np.full(fam.dim, 0.3), n, seed=[42, p, m, n])
        traj = run_cd(fam, box, Schedule("harmonic", 25.0), data, m=m, steps=700,
                      master_seed=43, replicate=0)
        assert not np.any(traj.boundary_hits[[156, 313, 627]])
        assert np.sum(~traj.boundary_hits[: traj.steps]) > 256
        center = np.full(fam.dim, 0.1)
        loop = [
            expected_sq_distance_after_step(fam, box, traj.thetas[t], traj.etas[t], items_of(data), m, center)
            for t in range(traj.steps)
        ]
        assert np.array_equal(_expected_sq_series(fam, box, traj, data, center), loop)
        for t in (156, 313, 627):
            theta, eta = traj.thetas[t], traj.etas[t]
            drifted = theta + eta * cd_conditional_moments(fam, theta, data, m)[0]
            alone = expected_sq_distance_after_step(fam, box, theta, eta, items_of(data), m, drifted)
            assert _expected_sq_series(fam, box, traj, data, drifted)[t] == alone

    def test_all_frozen_trajectory_keeps_every_distance(self, fvbm2, small_box):
        # every iterate sits in the boundary layer, so the sample is never read:
        # a datum outside the state space goes unnoticed
        thetas = np.array([[1.25, 0.0, 0.0], [0.1, -1.2, 0.3], [0.7, 0.2, 1.1], [1.0, 1.0, 1.0]])
        etas = np.full(len(thetas), 0.05)
        traj = Trajectory(thetas=thetas, etas=etas, boundary_hits=np.ones(len(thetas), dtype=bool),
                          weighted_avgs=thetas, burn_in=0, m=2)
        center = np.array([0.2, 0.4, -0.3])
        series = _expected_sq_series(fvbm2, small_box, traj, np.array([99]), center)
        assert np.array_equal(series, [float(np.sum((theta - center) ** 2)) for theta in thetas[:-1]])

    @pytest.mark.parametrize(
        "theta, eta, error",
        [([1.5, 0.0, 0.0], 0.05, ParamBoxError), ([np.nan, 0.0, 0.0], 0.05, ParamBoxError),
         ([0.1, 0.2, 0.3], -0.05, ValueError)],
        ids=["outside_box", "nan", "negative_rate"],
    )
    def test_series_refuses_what_one_step_refuses(self, fvbm2, small_box, admissible_setup,
                                                  theta, eta, error):
        m, data, consts, checks = admissible_setup
        center = checks.mle.theta
        with pytest.raises(error):
            expected_sq_distance_after_step(fvbm2, small_box, theta, eta, data, m, center)
        thetas = np.array([[0.1, 0.0, 0.2], theta, [0.0, 0.3, 0.1]])
        etas = np.array([0.05, eta, 0.05])
        traj = Trajectory(thetas=thetas, etas=etas, boundary_hits=np.zeros(3, dtype=bool),
                          weighted_avgs=thetas, burn_in=0, m=m)
        with pytest.raises(error):
            _expected_sq_series(fvbm2, small_box, traj, data, center)


def _expected_sq_0_15(fam, box, theta, eta, data, m, center, moments=None):
    """0.15.0's guard and combine, copied: the bits every later version must keep."""
    theta = np.asarray(theta, dtype=float)
    center = np.asarray(center, dtype=float)
    if eta < 0:
        raise ValueError("eta_t must be nonnegative")
    reach = float(np.abs(np.asarray(theta, dtype=float)).max())
    if not reach <= box.half_width:
        raise ParamBoxError("theta lies outside the parameter box")
    if box.half_width - reach <= 2.0 * eta * math.sqrt(fam.dim) * fam.stat_bound:
        return float(np.sum((theta - center) ** 2))
    if moments is None:
        moments = cd_conditional_moments(fam, theta, data, m)
    mean, var_trace = moments
    drifted = theta + eta * mean - center
    return float(np.sum(drifted**2) + eta**2 * var_trace)


class TestCombinePinned:
    # p = 4 has d = 10, past the 8 terms from which numpy's pairwise sum unrolls
    @pytest.mark.parametrize("m", [1, 16])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_keeps_the_bits_of_0_15(self, p, m):
        fam = build_fvbm(p)
        box = ParamBox(1.25, fam.dim)
        data = sample_iid(fam, np.full(fam.dim, 0.2), 500, seed=[61, p, m])
        rng = np.random.default_rng([62, p, m])
        thetas = box.sample(rng, 40)
        # rates of the eta0 = 25 harmonic schedule, those of t = 156, 313 and
        # 627 among them (at least 0.036, so a layer at least 0.07 deep); the
        # last four rows sit in the layer, one on a box face
        rates = Schedule("harmonic", 25.0).rates(700)
        etas = rates[np.concatenate([rng.choice(700, 37, replace=False), [156, 313, 627]])]
        thetas[-4:, 0] = [1.25, -1.2, 1.22, -1.24]
        centers = [np.full(fam.dim, 0.1), rng.uniform(-1.25, 1.25, fam.dim)]
        means, traces = cd_conditional_moments(fam, thetas, data, m)
        frozen = 0
        for theta, eta, mean, trace in zip(thetas, etas, means, traces):
            for center in centers:
                want = _expected_sq_0_15(fam, box, theta, eta, items_of(data), m, center)
                frozen += want == float(np.sum((theta - center) ** 2))
                for rate in (eta, float(eta)):
                    args = (fam, box, theta, rate, items_of(data), m, center)
                    got = expected_sq_distance_after_step(*args)
                    given = expected_sq_distance_after_step(*args, (mean, trace))
                    assert isinstance(got, float) and got == want and given == want
        assert frozen >= 2 * 4

    def test_series_keeps_the_bits_of_0_15(self, fvbm2, admissible_setup):
        m, data, _, checks = admissible_setup
        box = ParamBox(1.25, fvbm2.dim)
        traj = run_cd(fvbm2, box, Schedule("harmonic", 25.0), data, m=m, steps=700,
                      master_seed=63, replicate=0)
        assert 0 < np.sum(traj.boundary_hits[: traj.steps]) < traj.steps
        center = checks.mle.theta
        want = [
            _expected_sq_0_15(fvbm2, box, theta, eta, items_of(data), m, center)
            for theta, eta in zip(traj.thetas[: traj.steps], traj.etas[: traj.steps])
        ]
        assert np.array_equal(_expected_sq_series(fvbm2, box, traj, data, center), want)


class TestMartingales:
    def test_increments_and_conditional_means(self, fvbm2, small_box, theta_star, small_bounds):
        m, n = 16, 1000
        consts = assemble_constants(fvbm2, small_box, small_bounds, m, n, 0.45)
        data = sample_iid(fvbm2, theta_star, n, seed=81)
        checks = check_sample(fvbm2, data, mle(fvbm2, data, small_box), theta_star, m, 0.45, small_box.grid(9))
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=200,
                      master_seed=22, replicate=0)
        report = martingale_report(fvbm2, small_box, traj, items_of(data), consts, checks)
        assert report.out.violations == 0
        assert report.inside.violations == 0
        assert report.bound_realized <= report.bound_analytic
        # realized increments reconstruct the squared-distance differences
        h2 = np.sum((traj.thetas - checks.mle.theta) ** 2, axis=1)
        etas = traj.etas[: traj.steps]
        drift_out = 2 * consts.ball_factor * (consts.ball_factor - 1) * consts.fluctuation_scale**2 / consts.drift_coeff
        reconstructed = np.diff(h2) + etas * drift_out - 4 * 3 * etas**2
        np.testing.assert_allclose(report.increment_out, reconstructed, atol=1e-12)

    @pytest.mark.parametrize("which", ["inside", "outside", "OUT", "", "in "])
    def test_tail_ratio_refuses_an_unknown_side(self, fvbm2, small_box, admissible_setup, which):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=20,
                      master_seed=30, replicate=0)
        mart = martingale_report(fvbm2, small_box, traj, data, consts, checks)
        assert mart.tail_ratio() == mart.tail_ratio("out")
        with pytest.raises(ValueError, match="'out' or 'in'"):
            mart.tail_ratio(which)

    def test_frozen_step_inside_increment_is_negative(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        # force a frozen first step by starting on the box boundary
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=5,
                      master_seed=23, replicate=0, theta_init=[1.25, 0.0, 0.0])
        assert traj.boundary_hits[0]
        report = martingale_report(fvbm2, small_box, traj, items_of(data), consts, checks)
        eta0 = traj.etas[0]
        expected = -eta0 * consts.fluctuation_scale**2 / (2 * consts.drift_coeff) - 4 * 3 * eta0**2
        assert report.increment_in[0] == pytest.approx(expected, abs=1e-12)
        assert report.inside.lhs[0] == pytest.approx(expected, abs=1e-12)
        assert report.increment_in[0] < 0

    def test_checks_judge_the_exact_conditional_means(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=120,
                      master_seed=29, replicate=0)
        center = checks.mle.theta
        h = np.linalg.norm(traj.thetas - center, axis=1)
        # a ball holding about half the iterates, so both indicators switch
        consts = dataclasses.replace(consts, ball_radius=float(np.median(h)))
        mart = martingale_report(fvbm2, small_box, traj, data, consts, checks)
        etas = traj.etas[: traj.steps]
        cond_diff = drift_report(fvbm2, small_box, traj, data, consts, checks).lhs - h[:-1] ** 2
        beta, b, a = consts.ball_factor, consts.fluctuation_scale, consts.drift_coeff
        four_dc2 = 4.0 * fvbm2.dim * fvbm2.stat_bound**2
        conds = {
            "out": cond_diff + etas * (2.0 * beta * (beta - 1.0) * b**2 / a) - four_dc2 * etas**2,
            "inside": cond_diff - etas * (b**2 / (2.0 * a)) - four_dc2 * etas**2,
        }
        for which, active in (("out", mart.active_out), ("inside", mart.active_in)):
            check, cond = getattr(mart, which), conds[which]
            assert 0 < int(np.sum(active)) < traj.steps
            assert np.array_equal(check.active, active)
            np.testing.assert_allclose(check.lhs, cond, rtol=0, atol=1e-12)
            assert check.steps == int(np.sum(active))
            assert check.worst_slack == -float(np.max(check.lhs[active]))
            assert check.violations == int(np.sum(active & (check.lhs > SLACK_TOL)))

    def test_refuses_nonpositive_drift_coefficient(self, fvbm2, box3, theta_star):
        bounds = compute_grid_bounds(fvbm2, box3, theta_star, grid_per_axis=5)
        consts = assemble_constants(fvbm2, box3, bounds, 2, 1000, 0.45)
        assert not consts.hypotheses_met
        data = sample_iid(fvbm2, theta_star, 1000, seed=82)
        checks = check_sample(fvbm2, data, mle(fvbm2, data, box3), theta_star, 2, 0.45, box3.grid(5))
        traj = run_cd(fvbm2, box3, Schedule("harmonic", 1.0), data, m=2, steps=50,
                      master_seed=24, replicate=0)
        with pytest.raises(HypothesesUnmetError):
            martingale_report(fvbm2, box3, traj, items_of(data), consts, checks)
        with pytest.raises(HypothesesUnmetError):
            occupancy_report(traj, consts, checks)


class TestOccupancy:
    def test_everything_inside_gives_fraction_one(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=100,
                      master_seed=25, replicate=0)
        # the ball radius at these constants covers the whole box
        assert consts.ball_radius > small_box.diameter
        report = occupancy_report(traj, consts, checks)
        assert report.fraction_full == 1.0
        assert report.fraction_tail_min == 1.0
        assert report.passes()

    def test_unit_ball_factor_threshold_zero(self, fvbm2, small_box, small_bounds, admissible_setup):
        m, data, consts, checks = admissible_setup
        # sample size one forces the ball factor to one and the threshold to zero
        consts_n1 = assemble_constants(fvbm2, small_box, small_bounds, m, 1, 0.45)
        assert consts_n1.ball_factor == 1.0
        assert consts_n1.occupancy_threshold == 0.0
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=60,
                      master_seed=26, replicate=0)
        report = occupancy_report(traj, consts_n1, checks)
        assert report.fraction_tail_min >= report.threshold
        assert report.passes()

    def test_unmet_hypotheses_count_no_violation(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=100,
                      master_seed=25, replicate=0)
        # a ball too small to hold any iterate fails the occupancy threshold
        tiny = dataclasses.replace(consts, ball_radius=1e-9)
        failing = dataclasses.replace(
            checks, empirical_check=dataclasses.replace(checks.empirical_check, passed=False)
        )
        met, unmet = occupancy_report(traj, tiny, checks), occupancy_report(traj, tiny, failing)
        assert not met.passes() and not unmet.passes()
        assert met.steps == unmet.steps == traj.steps + 1
        assert (met.entry()["hypotheses_met"], met.entry()["violations"]) == (True, 1)
        assert (unmet.entry()["hypotheses_met"], unmet.entry()["violations"]) == (False, 0)

    def test_fraction_weakly_grows_with_radius(self, fvbm2, small_box, admissible_setup):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=100,
                      master_seed=27, replicate=0)
        fractions = []
        for radius in (1e-6, 0.05, 0.5, consts.ball_radius):
            shrunk = dataclasses.replace(consts, ball_radius=radius)
            fractions.append(occupancy_report(traj, shrunk, checks).fraction_full)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))


class TestTailWindow:
    # (steps, start of the martingale window over `steps` sums, start of the
    # occupancy window over `steps` + 1 prefix fractions): the trailing 10%
    # begins at ceil(0.9 L), clamped to L - 1 for the 5-step run.
    @pytest.mark.parametrize("steps, mart_start, occ_start", [(40, 36, 37), (5, 4, 5)])
    def test_tail_statistics_read_the_trailing_tenth(
        self, fvbm2, small_box, admissible_setup, steps, mart_start, occ_start
    ):
        m, data, consts, checks = admissible_setup
        traj = run_cd(fvbm2, small_box, Schedule("harmonic", 1.0), data, m=m, steps=steps,
                      master_seed=28, replicate=0)
        h = np.linalg.norm(traj.thetas - checks.mle.theta, axis=1)
        # a ball holding about half the iterates, so both indicators switch
        consts = dataclasses.replace(consts, ball_radius=float(np.median(h)))
        mart = martingale_report(fvbm2, small_box, traj, data, consts, checks)
        assert len(mart.partial_sum_out) == steps
        for which in ("out", "in"):
            sums = getattr(mart, f"partial_sum_{which}")
            tail = sums[mart_start:] / mart.rate_sums[mart_start:]
            assert mart.tail_ratio(which) == float(np.max(tail))

        inside = traj.boundary_hits | (h <= consts.ball_radius)
        prefix = np.cumsum(traj.etas * inside) / np.cumsum(traj.etas)
        assert len(prefix) == steps + 1
        occ = occupancy_report(traj, consts, checks)
        assert occ.fraction_tail_min == float(np.min(prefix[occ_start:]))
        assert occ.fraction_full == float(prefix[-1])


def _envelope(coeffs: dict, gamma: float = 0.05) -> dict:
    """``TheoryConstants.rate_bound(n)`` of each size n for rate coefficient ``coeffs[n]``."""
    return {
        n: TheoryConstants.rate_bound(SimpleNamespace(rate_coeff=c, gamma=gamma), n)
        for n, c in coeffs.items()
    }


class TestRateFit:
    def test_exact_cubic_root_decay(self):
        deltas = {n: [float(n) ** (-1 / 3)] * 10 for n in (100, 1000, 10_000)}
        fit = rate_fit(deltas)
        assert fit.slope == pytest.approx(-1 / 3, abs=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.converging

    def test_constant_errors_flagged_not_converging(self):
        deltas = {n: [0.5] * 10 for n in (100, 1000, 10_000)}
        fit = rate_fit(deltas)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert not fit.converging

    def test_coverage_against_envelope(self):
        # per size: the fraction of tail errors strictly under the envelope
        # bounds: about 0.25 > 0.1 at n=1000, about 0.03 < 0.046 at n=10^4
        bounds = _envelope({1000: 2.0, 10_000: 0.5})
        assert envelope_coverage([1000 ** (-1 / 3)] * 10, bounds[1000]) == 1.0
        assert envelope_coverage([10_000 ** (-1 / 3)] * 10, bounds[10_000]) == 0.0
        bound = bounds[1000]
        assert envelope_coverage([bound] * 10, bound) == 0.0
        assert envelope_coverage([bound] * 5 + [np.nextafter(bound, 0.0)] * 5, bound) == 0.5

    def test_infinite_envelope_has_no_coverage(self):
        deltas = [100 ** (-1 / 3)] * 10
        assert math.isnan(envelope_coverage(deltas, _envelope({100: math.inf})[100]))
        assert math.isnan(envelope_coverage(deltas, math.nan))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            rate_fit({n: [0.0] * 10 for n in (10, 100, 1000)})
        with pytest.raises(ValueError):
            rate_fit({10: [0.1] * 10, 100: [0.1] * 10})
        with pytest.raises(ValueError):
            rate_fit({n: [0.1] * 3 for n in (10, 100, 1000)})


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


class TestMedianQuantiles:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_match_numpy_bit_for_bit(self, scale):
        # ties and NaNs included; quartiles at every n hit both branches of numpy's lerp
        rng = np.random.default_rng(int(scale * 1e3))
        for n in range(1, 40):
            for case in range(20):
                values = rng.random(n) * scale
                if case % 4 == 1:
                    values = np.round(values, 1)
                if case % 5 == 2:
                    values[rng.integers(n)] = np.nan
                median, q25, q75 = _median_quantiles(values, (0.25, 0.75))
                assert type(median) is type(q25) is np.float64
                assert _same_bits(median, np.median(values)), values
                assert _same_bits(q25, np.quantile(values, 0.25)), values
                assert _same_bits(q75, np.quantile(values, 0.75)), values

    @pytest.mark.parametrize("rows", [1, 2, 7, 20])
    def test_series_median_matches_numpy_along_axis_0(self, rows):
        series = np.random.default_rng(rows).random((rows, 50))
        series[0, 3] = series[-1, 7] = np.nan
        assert _same_bits(_median_quantiles(series)[0], np.median(series, axis=0))

    def test_nan_propagates(self):
        assert all(math.isnan(v) for v in _median_quantiles([0.1, np.nan, 0.3], (0.25, 0.75)))
