"""Schedule, gradient-estimate and guarded-iteration checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdanneal.diagnostics import cd_conditional_moments
from cdanneal.kernel import build_gibbs_random_scan, kernel_power, m_step_stat_rows
from cdanneal.learner import (
    Schedule,
    Trajectory,
    _cd_endpoints,
    cd_gradient,
    cd_step,
    counter_rng,
    delta_n,
    exact_gradient_step,
    run_cd,
    run_exact_gradient,
    weighted_average,
    weighted_average_series,
)
from cdanneal.model import ParamBox, mean_parameter
from cdanneal.oracle import mle, sample_iid


class TestSchedule:
    def test_harmonic_rates(self):
        sch = Schedule("harmonic", 2.0)
        assert sch.rate(0) == 2.0
        assert sch.rate(3) == 0.5
        np.testing.assert_allclose(sch.rates(4), [2.0, 1.0, 2 / 3, 0.5])

    def test_power_rates(self):
        sch = Schedule("power", 1.0, exponent=0.6)
        assert sch.rate(7) == pytest.approx(8.0**-0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "geometric", "eta0": 1.0},
            {"kind": "harmonic", "eta0": 0.0},
            {"kind": "harmonic", "eta0": -1.0},
            {"kind": "power", "eta0": 1.0, "exponent": 0.5},
            {"kind": "power", "eta0": 1.0, "exponent": 1.2},
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Schedule(**kwargs)

    def test_annealing_verdicts(self):
        ok, _ = Schedule("harmonic", 1.0).annealing_verdict()
        assert ok
        ok, reason = Schedule("fixed", 0.1).annealing_verdict()
        assert not ok and "diverges" in reason
        ok, _ = Schedule("power", 1.0, exponent=0.7).annealing_verdict()
        assert ok

    def test_harmonic_square_sums_converge_partial_sums_outgrow(self):
        # numeric spot check of the two annealing conditions
        rates = Schedule("harmonic", 1.0).rates(200000)
        assert np.sum(rates**2) < math.pi**2 / 6 + 1e-6
        t = np.array([100, 10000, 200000 - 1])
        partial = np.cumsum(rates)[t]
        ratio = partial / np.sqrt(np.log(t))
        assert ratio[0] < ratio[1] < ratio[2]


class TestCounterRng:
    def test_deterministic_per_key(self):
        a = counter_rng(1, 2, 3, 4).random(5)
        b = counter_rng(1, 2, 3, 4).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = counter_rng(1, 2, 3, 4).random(5)
        b = counter_rng(1, 2, 4, 4).random(5)
        assert not np.array_equal(a, b)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            counter_rng(-1, 0, 0, 0)


class TestCdGradient:
    def test_norm_never_exceeds_bound(self, fvbm2):
        bound = 2 * math.sqrt(3) * 1.0
        rng = np.random.default_rng(0)
        for trial in range(30):
            theta = rng.uniform(-3, 3, size=3)
            items = rng.integers(0, 4, size=rng.integers(1, 40))
            m = int(rng.integers(1, 5))
            grad = cd_gradient(fvbm2, theta, items, m, counter_rng(9, trial, 0, 1))
            assert np.linalg.norm(grad) <= bound + 1e-12

    def test_single_datum_mean(self, fvbm2):
        # one datum at (0,0), one chain step: E[g] = phi(0,0) - kernel row mean
        n_chains = 200_000
        items = np.zeros(n_chains, dtype=np.int64)
        grad = cd_gradient(fvbm2, np.zeros(3), items, 1, counter_rng(5, 0, 0, 1))
        _, var_trace = cd_conditional_moments(fvbm2, np.zeros(3), np.array([0]), 1)
        se = math.sqrt(var_trace / n_chains)
        np.testing.assert_allclose(grad, [-0.25, 0.0, -0.25], atol=4 * math.sqrt(3) * se)

    def test_stationary_start_matches_exact_gradient(self, fvbm2, theta_star, box3):
        # with many chain steps the endpoint law is the model law, so the
        # estimate centers on the exact log-likelihood gradient
        data = sample_iid(fvbm2, theta_star, 400, seed=3)
        m = 60
        rows = m_step_stat_rows(fvbm2, theta_star, m)
        pi_gap = np.max(np.abs(rows - mean_parameter(fvbm2, theta_star)))
        assert pi_gap < 1e-9
        reps = 400
        draws = np.stack(
            [
                cd_gradient(fvbm2, theta_star, data.items, m, counter_rng(6, r, 0, 1))
                for r in range(reps)
            ]
        )
        exact = (
            np.bincount(data.items, minlength=4) @ fvbm2.suff_stats / data.n
            - mean_parameter(fvbm2, theta_star)
        )
        se = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(draws.mean(axis=0) - exact) <= 4 * se + pi_gap)

    def test_monte_carlo_mean_matches_exact_expectation(self, fvbm2):
        # batched chains: one call over repeated data equals the average of
        # independent single-datum replicates
        theta = np.array([0.4, -0.7, 1.1])
        items_base = np.array([0, 2, 3])
        m = 3
        mean_exact, var_trace = cd_conditional_moments(fvbm2, theta, items_base, m)
        reps = 60_000
        tiled = np.tile(items_base, reps)
        grad = cd_gradient(fvbm2, theta, tiled, m, counter_rng(8, 0, 0, 1))
        # tiled data reproduce the empirical mean and the chain endpoints
        # average over reps independent copies of the base sample
        se = math.sqrt(var_trace * len(items_base) / reps)
        assert np.all(np.abs(grad - mean_exact) <= 4 * se)

    @pytest.mark.parametrize("bad_m", [0, -1, 1.5])
    def test_bad_m_rejected(self, fvbm2, bad_m):
        with pytest.raises(ValueError):
            cd_gradient(fvbm2, np.zeros(3), np.array([0]), bad_m, counter_rng(0, 0, 0, 1))

    def test_datum_outside_state_space_rejected(self, fvbm2):
        with pytest.raises(ValueError):
            cd_gradient(fvbm2, np.zeros(3), np.array([4]), 1, counter_rng(0, 0, 0, 1))


def _enumerated_m_step_law(fam, theta, m):
    """K^m by enumerating every length-m path of (coordinate, new value) moves.

    Independent of the kernel module: each move's probability comes from
    raw state weights, 1/p for the coordinate times its conditional.
    """
    p = fam.n_coords
    index = {tuple(row): i for i, row in enumerate(fam.states.tolist())}
    weights = np.exp(fam.log_carrier + fam.suff_stats @ theta)
    law = np.zeros((fam.n_states, fam.n_states))
    moves = list(itertools.product(range(p), (0, 1)))
    for s, row in enumerate(fam.states.tolist()):
        for path in itertools.product(moves, repeat=m):
            state, prob = list(row), 1.0
            for j, b in path:
                low, high = list(state), list(state)
                low[j], high[j] = 0, 1
                w0, w1 = weights[index[tuple(low)]], weights[index[tuple(high)]]
                prob *= (w1 if b else w0) / (w0 + w1) / p
                state[j] = b
            law[s, index[tuple(state)]] += prob
    return law


class TestCdEndpoints:
    DRAWS = 8000
    # Every sample mean below must sit within Z standard errors of its exact
    # value; with the fixed counter seeds the test is deterministic.
    Z = 5.0

    @pytest.mark.parametrize("m", [1, 3])
    def test_endpoint_counts_match_enumerated_law(self, fvbm2, m):
        theta = np.array([0.4, -0.7, 1.1])
        start = np.array([3, 0, 2, 1])  # n = 6, one empty start state
        km = _enumerated_m_step_law(fvbm2, theta, m)
        np.testing.assert_allclose(
            kernel_power(build_gibbs_random_scan(fvbm2, theta), m).probs, km, rtol=0, atol=1e-14
        )
        mean = start @ km
        cov = sum(c * (np.diag(row) - np.outer(row, row)) for c, row in zip(start, km))
        draws = np.stack(
            [
                _cd_endpoints(fvbm2, theta, start, m, counter_rng(21, m, t, 1))
                for t in range(self.DRAWS)
            ]
        ).astype(float)
        assert np.all(draws.sum(axis=1) == start.sum())

        se_mean = np.sqrt(np.diag(cov) / self.DRAWS)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= self.Z * se_mean + 1e-12)

        centered = draws - mean
        products = centered[:, :, None] * centered[:, None, :]
        se_cov = products.std(axis=0, ddof=1) / math.sqrt(self.DRAWS)
        assert np.all(np.abs(products.mean(axis=0) - cov) <= self.Z * se_cov + 1e-12)


class TestCdStep:
    def test_zero_rate_keeps_theta(self, fvbm2, box3):
        theta = np.array([0.5, -1.0, 0.3])
        new, hit = cd_step(fvbm2, box3, theta, 0.0, np.array([0, 1]), 1, counter_rng(1, 0, 0, 1))
        assert not hit
        np.testing.assert_array_equal(new, theta)

    def test_guard_freezes_near_boundary(self, fvbm2, box3):
        eta = 0.25
        eps = 0.5 * 2 * eta * math.sqrt(3)
        theta = np.array([3.0 - eps, 0.0, 0.0])
        new, hit = cd_step(fvbm2, box3, theta, eta, np.array([0]), 1, counter_rng(1, 0, 1, 1))
        assert hit
        assert new is theta or np.array_equal(new, theta)

    def test_large_box_has_no_hits(self, fvbm2, theta_star):
        # a wide box never triggers the guard at desk scale
        box = ParamBox(10.0, 3)
        sch = Schedule("harmonic", 1.0)
        clean = 0
        for rep in range(50):
            data = sample_iid(fvbm2, theta_star, 50, seed=[13, rep])
            traj = run_cd(fvbm2, box, sch, data, m=1, steps=1000, master_seed=13, replicate=rep)
            clean += int(traj.boundary_hits.sum() == 0)
        assert clean >= int(0.95 * 50)


class TestRunCd:
    def test_deterministic_given_seed(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 200, seed=1)
        sch = Schedule("harmonic", 2.0)
        a = run_cd(fvbm2, box3, sch, data, m=2, steps=150, burn_in=10, master_seed=4, replicate=1)
        b = run_cd(fvbm2, box3, sch, data, m=2, steps=150, burn_in=10, master_seed=4, replicate=1)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.weighted_avgs, b.weighted_avgs)
        c = run_cd(fvbm2, box3, sch, data, m=2, steps=150, burn_in=10, master_seed=5, replicate=1)
        assert not np.array_equal(a.thetas, c.thetas)

    def test_feasibility_and_step_bound(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 100, seed=2)
        sch = Schedule("harmonic", 3.0)
        traj = run_cd(fvbm2, box3, sch, data, m=2, steps=400, master_seed=0, replicate=0)
        assert np.all(np.abs(traj.thetas) <= 3.0)
        steps = np.linalg.norm(np.diff(traj.thetas, axis=0), axis=1)
        bound = 2 * math.sqrt(3) * traj.etas[:-1]
        assert np.all(steps <= bound + 1e-12)

    def test_frozen_steps_copy_theta_exactly(self, fvbm2, theta_star):
        box = ParamBox(1.25, 3)
        sch = Schedule("harmonic", 1.0)
        data = sample_iid(fvbm2, theta_star, 50, seed=5)
        traj = run_cd(fvbm2, box, sch, data, m=1, steps=100, master_seed=2, replicate=0)
        hits = np.flatnonzero(traj.boundary_hits[:-1])
        assert hits.size > 0
        for t in hits:
            np.testing.assert_array_equal(traj.thetas[t + 1], traj.thetas[t])

    def test_running_average_matches_recomputation(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 100, seed=8)
        sch = Schedule("harmonic", 2.0)
        traj = run_cd(fvbm2, box3, sch, data, m=1, steps=120, burn_in=7, master_seed=1, replicate=2)
        for t in (7, 30, 120):
            direct = weighted_average(traj.thetas, traj.etas, 7, t)
            np.testing.assert_allclose(traj.weighted_avg_at(t), direct, atol=1e-12)


class TestWeightedAverage:
    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(-5, 5, allow_nan=False), t=st.integers(2, 40))
    def test_constant_sequence_returns_constant(self, c, t):
        thetas = np.full((t + 1, 2), c)
        etas = Schedule("harmonic", 1.0).rates(t + 1)
        np.testing.assert_allclose(weighted_average(thetas, etas, 0, t), [c, c], atol=1e-12)

    def test_fixed_rate_is_plain_mean(self):
        rng = np.random.default_rng(3)
        thetas = rng.normal(size=(20, 3))
        etas = np.full(20, 0.3)
        np.testing.assert_allclose(
            weighted_average(thetas, etas, 4, 15), thetas[4:16].mean(axis=0), atol=1e-12
        )

    def test_alternating_sequence_matches_direct_sum(self):
        a, b = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        thetas = np.array([a if s % 2 == 0 else b for s in range(31)])
        etas = Schedule("harmonic", 1.0).rates(31)
        expected = sum(etas[s] * thetas[s] for s in range(5, 26)) / sum(
            etas[s] for s in range(5, 26)
        )
        np.testing.assert_allclose(weighted_average(thetas, etas, 5, 25), expected, atol=1e-12)

    def test_series_rows_match_single_calls(self):
        rng = np.random.default_rng(4)
        thetas = rng.normal(size=(15, 2))
        etas = Schedule("power", 1.0, exponent=0.7).rates(15)
        series = weighted_average_series(thetas, etas, 3)
        for t in range(3, 15):
            np.testing.assert_allclose(series[t - 3], weighted_average(thetas, etas, 3, t), atol=1e-12)

    def test_empty_window_rejected(self):
        thetas = np.zeros((5, 2))
        etas = np.ones(5)
        with pytest.raises(ValueError):
            weighted_average(thetas, etas, 4, 3)

    def test_iid_average_concentrates_on_mean(self):
        rng = np.random.default_rng(11)
        draws = rng.uniform(0.0, 1.0, size=(100_000, 2))
        etas = np.full(100_000, 1.0)
        avg = weighted_average(draws, etas, 0, 99_999)
        np.testing.assert_allclose(avg, [0.5, 0.5], atol=0.005)
        etas = Schedule("harmonic", 1.0).rates(100_000)
        avg = weighted_average(draws, etas, 0, 99_999)
        np.testing.assert_allclose(avg, [0.5, 0.5], atol=0.15)


def _synthetic_trajectory(avgs, burn_in=0):
    steps = len(avgs) - 1 + burn_in
    dim = avgs.shape[1]
    return Trajectory(
        thetas=np.zeros((steps + 1, dim)),
        etas=np.ones(steps + 1),
        boundary_hits=np.zeros(steps + 1, dtype=bool),
        weighted_avgs=np.asarray(avgs, dtype=float),
        burn_in=burn_in,
        m=1,
        n=1,
        master_seed=0,
        replicate=0,
    )


class TestDeltaN:
    def test_zero_when_average_sits_on_target(self, theta_star):
        avgs = np.tile(theta_star, (1001, 1))
        result = delta_n(_synthetic_trajectory(avgs), theta_star)
        assert result.tail_max == 0.0 and result.final == 0.0

    def test_decreasing_tail_takes_window_start(self, theta_star):
        avgs = np.tile(theta_star, (1001, 1)).astype(float)
        for t in range(1, 1001):
            avgs[t, 0] += 1.0 / t
        result = delta_n(_synthetic_trajectory(avgs), theta_star, tail_fraction=0.1)
        assert result.window_start == 900
        assert result.tail_max == pytest.approx(1.0 / 900)
        assert result.final == pytest.approx(1.0 / 1000)

    def test_window_respects_burn_in(self, theta_star):
        avgs = np.tile(theta_star, (51, 1))
        traj = _synthetic_trajectory(avgs, burn_in=50)
        result = delta_n(traj, theta_star, tail_fraction=1.0)
        assert result.window_start == 50


class TestExactGradient:
    def test_uniform_data_is_fixed_point_at_origin(self, fvbm2, box3):
        items = np.array([0, 1, 2, 3])
        new, hit = exact_gradient_step(fvbm2, box3, np.zeros(3), items, 0.5)
        assert not hit
        np.testing.assert_allclose(new, np.zeros(3), atol=1e-15)

    def test_mle_is_fixed_point(self, fvbm2, box3, theta_star):
        data = sample_iid(fvbm2, theta_star, 500, seed=9)
        result = mle(fvbm2, data, box3)
        new, _ = exact_gradient_step(fvbm2, box3, result.theta, data.items, 0.7)
        np.testing.assert_allclose(new, result.theta, atol=1e-9)

    def test_converges_to_newton_mle(self, fvbm1):
        box = ParamBox(3.0, 1)
        data = sample_iid(fvbm1, np.array([0.8]), 300, seed=10)
        target = mle(fvbm1, data, box)
        traj = run_exact_gradient(fvbm1, box, Schedule("harmonic", 10.0), data.items, steps=2000)
        assert abs(traj.thetas[-1, 0] - target.theta[0]) < 1e-4
