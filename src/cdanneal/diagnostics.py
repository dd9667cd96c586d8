"""Exact and statistical verification of the learner's convergence machinery.

The per-step checks compare exact conditional expectations (computed from
m-step transition rows, no Monte Carlo) against the claimed bias, drift and
super-martingale bounds; long-run checks measure ball occupancy and fit the
error-versus-sample-size rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import build_gibbs_random_scan, kernel_power, m_step_stat_table
from .learner import Trajectory
from .model import (
    FiniteExpFamily,
    ParamBox,
    _data_indices,
    boundary_layer_contains,
    mean_parameter,
)
from .oracle import SampleChecks, TheoryConstants, empirical_stat_mean

__all__ = [
    "BiasCheck",
    "BiasGridReport",
    "DriftReport",
    "HypothesesUnmetError",
    "MartingaleReport",
    "OccupancyReport",
    "RateFit",
    "bias_bound_grid",
    "cd_conditional_moments",
    "check_bias_bound",
    "drift_report",
    "exact_expected_cd_gradient",
    "expected_sq_distance_after_step",
    "martingale_report",
    "occupancy_report",
    "rate_fit",
]

SLACK_TOL = 1e-10


class HypothesesUnmetError(RuntimeError):
    """A check was requested whose hypotheses the inputs do not satisfy."""


def _moment_rows(fam: FiniteExpFamily, theta, m: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second moment rows of phi under the m-step law from each state."""
    kernel = kernel_power(build_gibbs_random_scan(fam, theta), m)
    return kernel.probs @ fam.suff_stats, kernel.probs @ fam.suff_stats**2


def exact_expected_cd_gradient(fam: FiniteExpFamily, theta, data, m: int) -> np.ndarray:
    """Conditional mean of the CD-m gradient given theta and the data."""
    items = _data_indices(fam, data)
    rows, _ = _moment_rows(fam, theta, m)
    weights = np.bincount(items, minlength=fam.n_states) / items.size
    return empirical_stat_mean(fam, items) - weights @ rows


def cd_conditional_moments(fam: FiniteExpFamily, theta, data, m: int) -> tuple[np.ndarray, float]:
    """Conditional mean and total variance (trace of covariance) of the CD gradient.

    Chains started at distinct data points are conditionally independent
    given theta, so the gradient covariance is the per-datum endpoint
    covariance summed and divided by n squared.
    """
    items = _data_indices(fam, data)
    counts = np.bincount(items, minlength=fam.n_states)
    n = items.size
    rows, sq_rows = _moment_rows(fam, theta, m)
    per_state_var = np.sum(sq_rows, axis=1) - np.sum(rows**2, axis=1)
    var_trace = float(counts @ per_state_var) / n**2
    mean = empirical_stat_mean(fam, items) - (counts / n) @ rows
    return mean, var_trace


def expected_sq_distance_after_step(
    fam: FiniteExpFamily,
    box: ParamBox,
    theta,
    eta: float,
    data,
    m: int,
    center,
) -> float:
    """Exact E[ |theta_next - center|^2 | theta ] under the guarded update."""
    theta = np.asarray(theta, dtype=float)
    center = np.asarray(center, dtype=float)
    if boundary_layer_contains(box, theta, eta, fam.stat_bound, fam.dim):
        return float(np.sum((theta - center) ** 2))
    mean, var_trace = cd_conditional_moments(fam, theta, data, m)
    drifted = theta + eta * mean - center
    return float(np.sum(drifted**2) + eta**2 * var_trace)


@dataclass(frozen=True)
class BiasCheck:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _bias_lhs(fam: FiniteExpFamily, theta, data, m: int) -> float:
    """Norm of the conditional CD-gradient bias relative to the exact gradient."""
    items = _data_indices(fam, data)
    rows, _ = _moment_rows(fam, theta, m)
    weights = np.bincount(items, minlength=fam.n_states) / items.size
    return float(np.linalg.norm(mean_parameter(fam, theta) - weights @ rows))


def check_bias_bound(
    fam: FiniteExpFamily,
    theta,
    data,
    m: int,
    constants: TheoryConstants,
    checks: SampleChecks,
) -> BiasCheck:
    """Exact bias norm against its claimed bound at one parameter point.

    The bound only holds for samples satisfying both quality constraints,
    so unverified samples are refused rather than scored.
    """
    if not checks.passed:
        raise HypothesesUnmetError("sample failed its quality constraints; bound does not apply")
    if m != constants.m or m != checks.m:
        raise ValueError("m disagrees between constants, checks and request")
    theta = np.asarray(theta, dtype=float)
    lhs = _bias_lhs(fam, theta, data, m)
    rhs = constants.fluctuation_scale + constants.bias_coeff * float(
        np.linalg.norm(theta - checks.mle.theta)
    )
    return BiasCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class BiasGridReport:
    thetas: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float = SLACK_TOL

    @property
    def slacks(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def worst_slack(self) -> float:
        return float(np.min(self.slacks))

    @property
    def violations(self) -> int:
        return int(np.sum(self.slacks < -self.tol))


def bias_bound_grid(
    fam: FiniteExpFamily,
    data,
    constants: TheoryConstants,
    checks: SampleChecks,
    thetas,
    stat_table: np.ndarray | None = None,
    mean_table: np.ndarray | None = None,
) -> BiasGridReport:
    """Bias-bound slack at every point of a parameter grid."""
    if not checks.passed:
        raise HypothesesUnmetError("sample failed its quality constraints; bound does not apply")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    items = _data_indices(fam, data)
    weights = np.bincount(items, minlength=fam.n_states) / items.size
    if stat_table is None:
        stat_table = m_step_stat_table(fam, thetas, constants.m)
    if mean_table is None:
        mean_table = np.stack([mean_parameter(fam, t) for t in thetas])
    lhs = np.linalg.norm(mean_table - np.einsum("s,gsd->gd", weights, stat_table), axis=1)
    dist = np.linalg.norm(thetas - checks.mle.theta, axis=1)
    rhs = constants.fluctuation_scale + constants.bias_coeff * dist
    return BiasGridReport(thetas=thetas, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class DriftReport:
    """Per-step exact conditional decrement versus the quadratic drift bound."""

    t: np.ndarray
    h: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    in_layer: np.ndarray
    in_ball: np.ndarray
    hypotheses_met: bool
    tol: float = SLACK_TOL

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def worst_slack(self) -> float:
        return float(np.min(self.slack))

    @property
    def violations(self) -> int:
        if not self.hypotheses_met:
            return 0
        return int(np.sum(self.slack < -self.tol))


def drift_report(
    fam: FiniteExpFamily,
    box: ParamBox,
    traj: Trajectory,
    data,
    constants: TheoryConstants,
    checks: SampleChecks,
) -> DriftReport:
    """Exact one-step conditional expectations along a trajectory.

    For every step the left side E[h^2(theta_{t+1}) | theta_t] is computed
    from m-step transition rows and compared with the quadratic drift
    bound.  Violations are only counted when the sample constraints hold
    (the bound's hypothesis); the slacks themselves are always recorded.
    """
    if traj.m != constants.m:
        raise ValueError("trajectory and constants disagree on the chain length m")
    items = _data_indices(fam, data)
    center = checks.mle.theta
    steps = traj.steps
    h = np.linalg.norm(traj.thetas[:steps] - center, axis=1)
    in_layer = traj.boundary_hits[:steps].copy()
    lhs = np.empty(steps)
    rhs = np.empty(steps)
    a, b = constants.drift_coeff, constants.fluctuation_scale
    four_dc2 = 4.0 * fam.dim * fam.stat_bound**2
    for t in range(steps):
        eta = traj.etas[t]
        lhs[t] = expected_sq_distance_after_step(
            fam, box, traj.thetas[t], eta, items, traj.m, center
        )
        guard = 0.0 if in_layer[t] else 1.0
        rhs[t] = h[t] ** 2 - 2.0 * eta * (a * h[t] ** 2 - b * h[t]) * guard + four_dc2 * eta**2
    in_ball = h <= constants.ball_radius
    return DriftReport(
        t=np.arange(steps),
        h=h,
        lhs=lhs,
        rhs=rhs,
        in_layer=in_layer,
        in_ball=in_ball,
        hypotheses_met=checks.passed,
    )


@dataclass(frozen=True)
class MartingaleReport:
    """Realized super-martingale increments, indicators and exact conditional means.

    ``increment_out[t]`` is the candidate increment attached to steps taken
    outside both the boundary layer and the ball; ``increment_in[t]`` the
    one attached to steps inside either.  The process sums each increment
    over the steps where its indicator is active; the super-martingale
    property asserts nonpositive conditional means on active steps.
    """

    t: np.ndarray
    increment_out: np.ndarray
    increment_in: np.ndarray
    active_out: np.ndarray
    active_in: np.ndarray
    cond_mean_out: np.ndarray | None
    cond_mean_in: np.ndarray | None
    partial_sum_out: np.ndarray
    partial_sum_in: np.ndarray
    rate_sums: np.ndarray
    bound_realized: float
    bound_analytic: float
    hypotheses_met: bool
    tol: float = SLACK_TOL

    def _violations(self, cond, active) -> int:
        if cond is None or not self.hypotheses_met:
            return 0
        return int(np.sum(active & (cond > self.tol)))

    @property
    def violations_out(self) -> int:
        return self._violations(self.cond_mean_out, self.active_out)

    @property
    def violations_in(self) -> int:
        return self._violations(self.cond_mean_in, self.active_in)

    def tail_ratio(self, which: str = "out", tail_fraction: float = 0.1) -> float:
        """Max normalized partial sum over the trailing window (limit surrogate)."""
        sums = self.partial_sum_out if which == "out" else self.partial_sum_in
        start = int(np.ceil((1.0 - tail_fraction) * len(sums)))
        start = min(start, len(sums) - 1)
        return float(np.max(sums[start:] / self.rate_sums[start:]))


def martingale_report(
    fam: FiniteExpFamily,
    box: ParamBox,
    traj: Trajectory,
    data,
    constants: TheoryConstants,
    checks: SampleChecks,
    exact: bool = True,
) -> MartingaleReport:
    """Build both split super-martingales along a trajectory.

    Requires a positive drift coefficient; otherwise the ball is undefined
    and the construction meaningless.  With ``exact`` the conditional means
    of the increments are computed from transition rows and checked for the
    nonpositive orientation on active steps.
    """
    if constants.drift_coeff <= 0:
        raise HypothesesUnmetError("drift coefficient not positive; ball undefined")
    if traj.m != constants.m:
        raise ValueError("trajectory and constants disagree on the chain length m")
    items = _data_indices(fam, data)
    center = checks.mle.theta
    steps = traj.steps
    h = np.linalg.norm(traj.thetas - center, axis=1)
    h2 = h**2
    etas = traj.etas[:steps]
    a, b, beta = constants.drift_coeff, constants.fluctuation_scale, constants.ball_factor
    four_dc2 = 4.0 * fam.dim * fam.stat_bound**2

    diff = h2[1:] - h2[:-1]
    drift_out = 2.0 * beta * (beta - 1.0) * b**2 / a
    drift_in = b**2 / (2.0 * a)
    increment_out = diff + etas * drift_out - four_dc2 * etas**2
    increment_in = diff - etas * drift_in - four_dc2 * etas**2

    in_layer = traj.boundary_hits[:steps]
    in_ball = h[:steps] <= constants.ball_radius
    active_in = in_layer | in_ball
    active_out = ~active_in

    cond_out = cond_in = None
    if exact:
        cond_diff = np.empty(steps)
        for t in range(steps):
            cond_diff[t] = (
                expected_sq_distance_after_step(
                    fam, box, traj.thetas[t], etas[t], items, traj.m, center
                )
                - h2[t]
            )
        cond_out = cond_diff + etas * drift_out - four_dc2 * etas**2
        cond_in = cond_diff - etas * drift_in - four_dc2 * etas**2

    rate_sums = np.cumsum(etas)
    realized_out = np.abs(increment_out) * active_out
    realized_in = np.abs(increment_in) * active_in
    bound_realized = float(np.max(np.maximum(realized_out, realized_in) / etas))
    bound_analytic = (
        4.0 * math.sqrt(fam.dim) * fam.stat_bound * box.diameter
        + 8.0 * fam.dim * fam.stat_bound**2 * float(np.max(etas))
        + max(drift_out, drift_in)
    )
    return MartingaleReport(
        t=np.arange(steps),
        increment_out=increment_out,
        increment_in=increment_in,
        active_out=active_out,
        active_in=active_in,
        cond_mean_out=cond_out,
        cond_mean_in=cond_in,
        partial_sum_out=np.cumsum(increment_out * active_out),
        partial_sum_in=np.cumsum(increment_in * active_in),
        rate_sums=rate_sums,
        bound_realized=bound_realized,
        bound_analytic=bound_analytic,
        hypotheses_met=checks.passed,
    )


@dataclass(frozen=True)
class OccupancyReport:
    """Rate-weighted fraction of time spent in the boundary layer or the ball."""

    fraction_full: float
    fraction_tail_min: float
    threshold: float
    ball_radius: float

    def passes(self, tolerance: float = 0.05) -> bool:
        return self.fraction_tail_min >= self.threshold - tolerance


def occupancy_report(
    traj: Trajectory,
    constants: TheoryConstants,
    mle_theta,
    tail_fraction: float = 0.1,
) -> OccupancyReport:
    """Occupancy of layer-or-ball against the theoretical lower threshold.

    The limiting statement is about a liminf of prefix fractions, which a
    finite run can only bound; the surrogate reported here is the minimum
    prefix fraction over the trailing window.
    """
    if constants.drift_coeff <= 0:
        raise HypothesesUnmetError("drift coefficient not positive; ball undefined")
    mle_theta = np.asarray(mle_theta, dtype=float)
    h = np.linalg.norm(traj.thetas - mle_theta, axis=1)
    inside = traj.boundary_hits | (h <= constants.ball_radius)
    etas = traj.etas[: traj.steps + 1]
    prefix = np.cumsum(etas * inside) / np.cumsum(etas)
    start = min(int(np.ceil((1.0 - tail_fraction) * len(prefix))), len(prefix) - 1)
    return OccupancyReport(
        fraction_full=float(prefix[-1]),
        fraction_tail_min=float(np.min(prefix[start:])),
        threshold=constants.occupancy_threshold,
        ball_radius=constants.ball_radius,
    )


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the median tail error against the sample size."""

    sizes: np.ndarray
    medians: np.ndarray
    slope: float
    intercept: float
    residuals: np.ndarray
    coverage: dict | None

    @property
    def converging(self) -> bool:
        return self.slope < -0.05


def rate_fit(
    deltas_by_n: dict[int, "np.ndarray | list[float]"],
    rate_coeffs: dict[int, float] | None = None,
    gamma: float | None = None,
) -> RateFit:
    """Least-squares slope of log median error versus log sample size.

    Requires at least three distinct sizes with at least ten replicates
    each.  When per-size rate coefficients and gamma are supplied, the
    fraction of replicates under the theoretical envelope is reported per
    size and overall.
    """
    if len(deltas_by_n) < 3:
        raise ValueError("need at least 3 distinct sample sizes")
    sizes = np.array(sorted(deltas_by_n), dtype=float)
    groups = [np.asarray(deltas_by_n[int(n)], dtype=float) for n in sizes]
    for n, g in zip(sizes, groups):
        if g.size < 10:
            raise ValueError(f"need at least 10 replicates per size, got {g.size} at n={int(n)}")
    medians = np.array([float(np.median(g)) for g in groups])
    if np.all(medians == 0) or np.any(medians <= 0):
        raise ValueError("degenerate tail errors; log fit undefined")
    slope, intercept = np.polyfit(np.log(sizes), np.log(medians), 1)
    residuals = np.log(medians) - (slope * np.log(sizes) + intercept)
    coverage = None
    if rate_coeffs is not None and gamma is not None:
        per_size = {}
        covered = total = 0
        for n, g in zip(sizes, groups):
            bound = rate_coeffs[int(n)] * float(n) ** (-(1.0 - 2.0 * gamma) / 3.0)
            per_size[int(n)] = float(np.mean(g < bound))
            covered += int(np.sum(g < bound))
            total += g.size
        coverage = {"per_size": per_size, "overall": covered / total}
    return RateFit(
        sizes=sizes,
        medians=medians,
        slope=float(slope),
        intercept=float(intercept),
        residuals=residuals,
        coverage=coverage,
    )
