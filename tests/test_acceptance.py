"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight runs are shared through module fixtures; the whole
module is designed to finish well inside the stated runtime budgets.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import cdanneal.cli as cli
from cdanneal.config import RunConfig
from cdanneal.diagnostics import (
    bias_bound_grid,
    cd_conditional_moments,
    drift_report,
    expected_sq_distance_after_step,
    martingale_report,
    occupancy_report,
    rate_fit,
)
from cdanneal.kernel import (
    build_gibbs_random_scan,
    m_step_stat_table,
    reversibility_violation,
    spectral_gap,
    stationarity_violation,
)
from cdanneal.learner import Schedule, delta_n, run_cd
from cdanneal.model import ParamBox
from cdanneal.oracle import (
    MleNonexistenceError,
    assemble_constants,
    check_constraint_empirical_process,
    check_constraint_mle,
    check_sample,
    compute_grid_bounds,
    sample_iid,
)
from _bruteforce import enumerate_cd_moments

GAMMA = 0.45
SMALL_HALF_WIDTH = 1.25
ADMISSIBLE_M = 16


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def small_box():
    return ParamBox(SMALL_HALF_WIDTH, 3)


@pytest.fixture(scope="module")
def small_bounds(fvbm2, small_box, theta_star):
    return compute_grid_bounds(fvbm2, small_box, theta_star, grid_per_axis=9)


@pytest.fixture(scope="module")
def drift_runs(fvbm2, small_box, small_bounds, theta_star):
    """Five seeded headline-scale runs at an admissible chain length.

    Uses the reduced box, where m = 16 already gives a positive drift
    coefficient (the default box needs m near 70).
    """
    n = 10_000
    consts = assemble_constants(fvbm2, small_box, small_bounds, ADMISSIBLE_M, n, GAMMA)
    assert consts.hypotheses_met
    grid = small_box.grid(9)
    stat_table = m_step_stat_table(fvbm2, grid, ADMISSIBLE_M)
    runs = []
    for rep in range(5):
        data = sample_iid(fvbm2, theta_star, n, seed=[11, rep, n, 2])
        checks = check_sample(
            fvbm2, small_box, data, theta_star, ADMISSIBLE_M, GAMMA, grid, stat_table=stat_table
        )
        traj = run_cd(
            fvbm2, small_box, Schedule("harmonic", 1.0), data,
            m=ADMISSIBLE_M, steps=1000, burn_in=50, master_seed=11, replicate=rep,
        )
        runs.append((data, checks, traj))
    return consts, runs


@pytest.fixture(scope="module")
def rate_runs(fvbm2, box3, theta_star):
    """Tail errors across sample sizes for both chain lengths, 20 seeds."""
    config = RunConfig()
    config.validate()
    deltas = {m: {n: [] for n in config.n_values} for m in config.m_values}
    for n in config.n_values:
        for rep in config.seeds:
            data = sample_iid(fvbm2, theta_star, n, seed=[7, rep, n, 2])
            for m in config.m_values:
                traj = run_cd(
                    fvbm2, box3, config.schedule, data,
                    m=m, steps=config.iterations, burn_in=config.burn_in,
                    master_seed=7, replicate=rep,
                )
                deltas[m][n].append(delta_n(traj, theta_star, config.tail_fraction).tail_max)
    return config, deltas


class TestCriterion01Exactness:
    def test_exact_conditionals_match_path_enumeration(self, fvbm2, box3):
        """All exact conditional expectations agree with joint path enumeration."""
        theta = np.array([0.3, -0.2, 0.1])
        center = np.array([0.1, 0.2, -0.3])
        eta = 0.05
        worst = 0.0
        cases = 0
        for items in ([0], [2], [0, 1], [1, 3], [0, 1, 2], [0, 2, 3]):
            for m in (1, 2):
                items_arr = np.array(items)
                grad_bf, sq_bf = enumerate_cd_moments(fvbm2, theta, items_arr, m, eta, center)
                grad = cd_conditional_moments(fvbm2, theta, items_arr, m)[0]
                sq = expected_sq_distance_after_step(
                    fvbm2, box3, theta, eta, items_arr, m, center
                )
                worst = max(worst, float(np.max(np.abs(grad - grad_bf))), abs(sq - sq_bf))
                cases += 1
        _report(1, worst < 1e-12, f"{cases} cases, worst gap {worst:.3e} < 1e-12")


class TestCriterion02Kernel:
    def test_stationarity_balance_and_mixing_value(self, fvbm2):
        """Stationarity/detailed balance at 1e-12; exact mixing value at the origin."""
        rng = np.random.default_rng(20260810)
        worst = 0.0
        for theta in rng.uniform(-3, 3, size=(100, 3)):
            kernel = build_gibbs_random_scan(fvbm2, theta)
            worst = max(
                worst,
                stationarity_violation(fvbm2, kernel),
                reversibility_violation(fvbm2, kernel),
            )
        alpha0 = spectral_gap(fvbm2, build_gibbs_random_scan(fvbm2, np.zeros(3)))
        ok = worst < 1e-12 and abs(alpha0 - 0.5) <= 1e-10
        _report(2, ok, f"worst violation {worst:.3e}, alpha(0) - 1/2 = {alpha0 - 0.5:.2e}")


class TestCriterion03Drift:
    def test_per_step_slack_nonnegative(self, fvbm2, small_box, drift_runs):
        """Exact one-step drift slack at least -1e-10 on verified runs."""
        consts, runs = drift_runs
        passing = [(d, c, t) for d, c, t in runs if c.passed]
        assert len(passing) >= 4
        worst = math.inf
        violations = 0
        for data, checks, traj in passing:
            report = drift_report(fvbm2, small_box, traj, data.items, consts, checks)
            worst = min(worst, report.worst_slack)
            violations += report.violations
        ok = violations == 0 and worst >= -1e-10
        _report(
            3,
            ok,
            f"{len(passing)}/5 samples verified, worst per-step slack {worst:.3e}, "
            f"{violations} violations",
        )


class TestCriterion04Martingales:
    def test_conditional_increment_orientation(self, fvbm2, small_box, drift_runs):
        """Exact conditional increment means nonpositive on every active step."""
        consts, runs = drift_runs
        passing = [(d, c, t) for d, c, t in runs if c.passed]
        violations = 0
        active = 0
        for data, checks, traj in passing:
            report = martingale_report(fvbm2, small_box, traj, data.items, consts, checks)
            violations += report.violations_out + report.violations_in
            active += int(np.sum(report.active_out)) + int(np.sum(report.active_in))
            assert report.bound_realized <= report.bound_analytic
        _report(4, violations == 0, f"{active} active steps, {violations} violations")


class TestCriterion05BiasBound:
    def test_slack_nonnegative_on_grid(self, fvbm2, box3, theta_star):
        """Bias-bound slack at least 0 on the 9^3 grid for both chain lengths."""
        n = 10_000
        bounds = compute_grid_bounds(fvbm2, box3, theta_star, grid_per_axis=9)
        grid = box3.grid(9)
        worst = math.inf
        checked = 0
        for m in (2, 4):
            stat_table = m_step_stat_table(fvbm2, grid, m)
            consts = assemble_constants(fvbm2, box3, bounds, m, n, GAMMA)
            for rep in range(2):
                data = sample_iid(fvbm2, theta_star, n, seed=[19, rep, n, 2])
                checks = check_sample(
                    fvbm2, box3, data, theta_star, m, GAMMA, grid, stat_table=stat_table
                )
                assert checks.passed
                report = bias_bound_grid(
                    fvbm2, data.items, consts, checks, grid, stat_table=stat_table
                )
                worst = min(worst, report.worst_slack)
                checked += len(report.lhs)
        _report(5, worst >= 0.0, f"{checked} grid evaluations, worst slack {worst:.5f}")


class TestCriterion06Monotonicity:
    def test_median_tail_error_decreases(self, rate_runs):
        """Median tail error strictly decreasing in n, with a factor-2 drop."""
        config, deltas = rate_runs
        details = []
        ok = True
        for m in config.m_values:
            medians = [float(np.median(deltas[m][n])) for n in config.n_values]
            strictly = all(b < a for a, b in zip(medians, medians[1:]))
            halved = medians[-1] < 0.5 * medians[0]
            ok = ok and strictly and halved
            details.append(
                f"m={m}: medians {['%.4f' % v for v in medians]}, "
                f"ratio {medians[-1] / medians[0]:.3f}"
            )
        _report(6, ok, "; ".join(details))


class TestCriterion07RateExponent:
    def test_log_log_slope_in_band(self, rate_runs):
        """Fitted slope of log median error against log n within [-0.60, -0.15]."""
        config, deltas = rate_runs
        slopes = {}
        for m in config.m_values:
            fit = rate_fit({n: deltas[m][n] for n in config.n_values})
            slopes[m] = fit.slope
        ok = all(-0.60 <= s <= -0.15 for s in slopes.values())
        detail = ", ".join(f"m={m}: {s:.3f}" for m, s in slopes.items())
        _report(7, ok, f"slopes {detail} within [-0.60, -0.15]")


class TestCriterion08ChainLengthInsensitivity:
    def test_slopes_close_across_chain_lengths(self, rate_runs):
        """Fitted slopes for the two chain lengths differ by less than 0.15."""
        config, deltas = rate_runs
        slopes = [
            rate_fit({n: deltas[m][n] for n in config.n_values}).slope
            for m in config.m_values
        ]
        gap = max(slopes) - min(slopes)
        _report(8, gap < 0.15, f"slope gap {gap:.3f} < 0.15")

    def test_tail_error_spreads_overlap(self, rate_runs):
        """At each sample size the interquartile ranges for m=2 and m=4 overlap."""
        config, deltas = rate_runs
        m_lo, m_hi = config.m_values
        for n in config.n_values:
            a = np.quantile(deltas[m_lo][n], [0.25, 0.75])
            b = np.quantile(deltas[m_hi][n], [0.25, 0.75])
            assert a[0] <= b[1] and b[0] <= a[1]


class TestCriterion09Occupancy:
    def test_long_run_tail_occupancy(self, fvbm2, small_box, small_bounds, theta_star):
        """Rate-weighted layer-or-ball occupancy meets the threshold on a long run."""
        n = 10_000
        consts = assemble_constants(fvbm2, small_box, small_bounds, ADMISSIBLE_M, n, GAMMA)
        data = sample_iid(fvbm2, theta_star, n, seed=[13, 0, n, 2])
        grid = small_box.grid(9)
        checks = check_sample(fvbm2, small_box, data, theta_star, ADMISSIBLE_M, GAMMA, grid)
        assert checks.passed
        traj = run_cd(
            fvbm2, small_box, Schedule("harmonic", 1.0), data,
            m=ADMISSIBLE_M, steps=100_000, burn_in=50, master_seed=13, replicate=0,
        )
        occ = occupancy_report(traj, consts, checks.mle.theta)
        mart = martingale_report(
            fvbm2, small_box, traj, data.items, consts, checks, exact=False
        )
        tail_out = mart.tail_ratio("out")
        tail_in = mart.tail_ratio("in")
        ok = (
            occ.fraction_tail_min >= occ.threshold - 0.05
            and tail_out <= 0.05
            and tail_in <= 0.05
        )
        _report(
            9,
            ok,
            f"tail occupancy {occ.fraction_tail_min:.4f} vs threshold {occ.threshold:.4f}"
            f" - 0.05; normalized partial sums {tail_out:.4f}/{tail_in:.4f} <= 0.05",
        )


class TestCriterion10ConstraintPassRates:
    def test_pass_rates_high_and_nondecreasing(self, fvbm2, box3, theta_star):
        """Both sample constraints pass on at least 95% of 100 seeds at n = 10^4."""
        m = 2
        grid = box3.grid(9)
        stat_table = m_step_stat_table(fvbm2, grid, m)
        rates = {}
        for n in (100, 10_000):
            mle_pass = emp_pass = 0
            for rep in range(100):
                data = sample_iid(fvbm2, theta_star, n, seed=[17, rep, n, 2])
                try:
                    mle_pass += check_constraint_mle(
                        fvbm2, data, theta_star, GAMMA, box3
                    ).passed
                except MleNonexistenceError:
                    pass
                emp_pass += check_constraint_empirical_process(
                    fvbm2, data, theta_star, m, GAMMA, grid, stat_table=stat_table
                ).passed
            rates[n] = (mle_pass / 100.0, emp_pass / 100.0)
        ok = (
            rates[10_000][0] >= 0.95
            and rates[10_000][1] >= 0.95
            and rates[10_000][0] >= rates[100][0]
            and rates[10_000][1] >= rates[100][1]
        )
        _report(
            10,
            ok,
            f"pass rates n=100 {rates[100]}, n=10000 {rates[10_000]} (mle, empirical)",
        )


class TestCriterion11Determinism:
    def _digest(self, root: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def test_all_subcommands_byte_identical(self, tmp_path):
        """Reruns of every subcommand with the same config and seed match bytes."""
        config = RunConfig(
            n_values=[30, 60, 120],
            m_values=[1],
            seeds=list(range(10)),
            iterations=60,
            burn_in=6,
            schedule=Schedule("harmonic", 2.0),
            grid_per_axis=3,
            exact_step_checks=False,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(config.to_json())
        digests = {}
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(
                ["run", "--config", str(config_path), "--seed", "4", "--out", str(out / "run")]
            ) == 0
            assert cli.main(
                ["verify", "--config", str(config_path), "--out", str(out / "verify")]
            ) == 0
            rate_code = cli.main(
                ["rate", "--config", str(config_path), "--seed", "4", "--out", str(out / "rate")]
            )
            assert rate_code in (0, 3)
            assert cli.main(["diagnose", "--out", str(out / "run")]) == 0
            digests[name] = self._digest(out)
        _report(11, digests["a"] == digests["b"], f"tree digest {digests['a'][:16]}... matches")
