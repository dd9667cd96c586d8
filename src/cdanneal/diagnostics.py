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

from .kernel import build_gibbs_random_scan, kernel_power
from .learner import Trajectory
from .model import (
    FiniteExpFamily,
    ParamBox,
    _blocks,
    _data_counts,
    _per_point,
    boundary_layer_contains,
)
from .oracle import SampleChecks, TheoryConstants

__all__ = [
    "BiasGridReport",
    "BoundCheck",
    "DriftReport",
    "HypothesesUnmetError",
    "MartingaleReport",
    "OccupancyReport",
    "RateFit",
    "bias_bound_grid",
    "cd_conditional_moments",
    "drift_report",
    "envelope_coverage",
    "expected_sq_distance_after_step",
    "martingale_report",
    "occupancy_report",
    "rate_fit",
]

_add_reduce = np.add.reduce

SLACK_TOL = 1e-10
# A finite run stands in for a limit by its trailing TAIL_WINDOW share; the
# occupancy surrogate may fall OCCUPANCY_TOL short of its threshold.
TAIL_WINDOW = 0.1
OCCUPANCY_TOL = 0.05


class HypothesesUnmetError(RuntimeError):
    """A check was requested whose hypotheses the inputs do not satisfy."""


def _tail_start(length: int) -> int:
    """First index of the trailing ``TAIL_WINDOW`` of a series, at most its last index."""
    return min(int(np.ceil((1.0 - TAIL_WINDOW) * length)), length - 1)


def cd_conditional_moments(fam: FiniteExpFamily, theta, data, m: int):
    """Conditional mean and total variance (trace of covariance) of the CD gradient.

    Chains started at distinct data points are conditionally independent
    given theta, so the gradient covariance is the per-datum endpoint
    covariance summed and divided by n squared.  One point (d,) gives
    ``(mean (d,), float)``; a stack (G, d) gives ``(means (G, d), traces (G,))``
    from one kernel build and one matrix power, and every point of a stack
    gets the same bits as when it is computed alone.  The data are counted
    once per call.
    """
    counts = _data_counts(fam, data)
    n = int(counts.sum())
    km = kernel_power(build_gibbs_random_scan(fam, theta), m)
    rows, sq_rows = km @ fam.suff_stats, km @ fam.suff_stats**2
    per_state_var = np.sum(sq_rows, axis=-1) - np.sum(rows**2, axis=-1)
    # Both reductions over states run per point (a dot, a vector-matrix
    # product), so a point of a stack gets the bits it gets alone.
    var_trace = (counts @ per_state_var[..., None])[..., 0] / n**2
    mean = counts @ fam.suff_stats / n - (counts / n) @ rows
    return mean, _per_point(var_trace)


def expected_sq_distance_after_step(
    fam: FiniteExpFamily,
    box: ParamBox,
    theta,
    eta: float,
    data,
    m: int,
    center,
    moments=None,
) -> float:
    """Exact E[ |theta_next - center|^2 | theta ] under the guarded update.

    ``moments`` is ``cd_conditional_moments(fam, theta, data, m)`` when the
    caller has it already; the guard runs either way, so a frozen step
    ignores it.
    """
    theta = np.asarray(theta, dtype=float)
    center = np.asarray(center, dtype=float)
    if boundary_layer_contains(box, theta, eta, fam.stat_bound, fam.dim):
        x = theta - center
        return float(_add_reduce(x * x))
    if moments is None:
        moments = cd_conditional_moments(fam, theta, data, m)
    mean, var_trace = moments
    drifted = theta + eta * mean - center
    return float(_add_reduce(drifted * drifted) + eta**2 * var_trace)


def _expected_sq_series(fam: FiniteExpFamily, box: ParamBox, traj: Trajectory, data, center):
    """E[|theta_{t+1} - center|^2 | theta_t] for every step t of a trajectory.

    The moments of the steps outside the boundary layer, which
    :func:`boundary_layer_contains` finds for the whole stack (and so
    refuses any step it refuses alone), are computed as stacks, in blocks
    of ``_blocks``, from the sample's counts (an index array is counted
    once per block); each step then goes through
    :func:`expected_sq_distance_after_step`, which guards it and combines
    its moments.
    """
    steps, m = traj.steps, traj.m
    thetas, etas = traj.thetas[:steps], traj.etas[:steps]
    center = np.asarray(center, dtype=float)
    live = np.flatnonzero(~boundary_layer_contains(box, thetas, etas, fam.stat_bound, fam.dim))
    moments = [None] * steps
    for block in _blocks(len(live), fam.n_states**2):
        means, traces = cd_conditional_moments(fam, thetas[live[block]], data, m)
        for t, mean, trace in zip(live[block].tolist(), means, traces):
            moments[t] = (mean, trace)
    return np.array(
        [
            expected_sq_distance_after_step(fam, box, theta, eta, data, m, center, step_moments)
            for theta, eta, step_moments in zip(thetas, etas.tolist(), moments)
        ],
        dtype=float,
    )


@dataclass(frozen=True)
class BoundCheck:
    """The inequality ``lhs <= rhs`` judged at every active point.

    A point violates the bound when its slack ``rhs - lhs`` falls below
    ``-tol``; violations count only when the bound's hypotheses hold.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    active: np.ndarray
    hypotheses_met: bool
    tol: float = SLACK_TOL

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def steps(self) -> int:
        return int(np.sum(self.active))

    @property
    def worst_slack(self) -> float | None:
        if not np.any(self.active):
            return None
        return float(np.min(self.slack[self.active]))

    @property
    def violations(self) -> int:
        if not self.hypotheses_met:
            return 0
        return int(np.sum(self.active & (self.slack < -self.tol)))

    def entry(self) -> dict:
        """The check's ``diagnostics.json`` record."""
        return {
            "steps": self.steps,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "hypotheses_met": self.hypotheses_met,
        }


@dataclass(frozen=True, kw_only=True)
class BiasGridReport(BoundCheck):
    """Exact gradient bias versus its bound at every point of a parameter grid."""

    thetas: np.ndarray


def bias_bound_grid(constants: TheoryConstants, checks: SampleChecks, thetas) -> BiasGridReport:
    """Bias-bound slack at every point of the grid ``checks`` swept.

    The exact bias norms come with the sample checks; ``thetas`` is their
    grid.  The bound only holds for samples satisfying both quality
    constraints, so unverified samples are refused rather than scored.
    """
    if constants.m != checks.m:
        raise ValueError("constants and sample checks disagree on the chain length m")
    if not checks.passed:
        raise HypothesesUnmetError("sample failed its quality constraints; bound does not apply")
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    lhs = checks.bias_norms
    if len(thetas) != len(lhs):
        raise ValueError("thetas is not the grid of the sample checks' bias norms")
    dist = np.linalg.norm(thetas - checks.mle.theta, axis=1)
    rhs = constants.fluctuation_scale + constants.bias_coeff * dist
    return BiasGridReport(
        thetas=thetas, lhs=lhs, rhs=rhs, active=np.ones(len(lhs), dtype=bool), hypotheses_met=True
    )


@dataclass(frozen=True, kw_only=True)
class DriftReport(BoundCheck):
    """Per-step exact conditional decrement versus the quadratic drift bound."""

    t: np.ndarray


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
    center = checks.mle.theta
    steps = traj.steps
    h = np.linalg.norm(traj.thetas[:steps] - center, axis=1)
    etas = traj.etas[:steps]
    a, b = constants.drift_coeff, constants.fluctuation_scale
    four_dc2 = 4.0 * fam.dim * fam.stat_bound**2
    guard = np.where(traj.boundary_hits[:steps], 0.0, 1.0)
    rhs = h**2 - 2.0 * etas * (a * h**2 - b * h) * guard + four_dc2 * etas**2
    return DriftReport(
        t=np.arange(steps),
        lhs=_expected_sq_series(fam, box, traj, data, center),
        rhs=rhs,
        active=np.ones(steps, dtype=bool),
        hypotheses_met=checks.passed,
    )


@dataclass(frozen=True)
class MartingaleReport:
    """Realized super-martingale increments, indicators and exact conditional means.

    ``increment_out[t]`` is the candidate increment attached to steps taken
    outside both the boundary layer and the ball; ``increment_in[t]`` the
    one attached to steps inside either.  The process sums each increment
    over the steps where its indicator is active; the super-martingale
    property asserts nonpositive conditional means on active steps, which
    ``out`` and ``inside`` check (lhs the exact conditional mean, rhs 0).
    """

    t: np.ndarray
    increment_out: np.ndarray
    increment_in: np.ndarray
    active_out: np.ndarray
    active_in: np.ndarray
    out: BoundCheck
    inside: BoundCheck
    partial_sum_out: np.ndarray
    partial_sum_in: np.ndarray
    rate_sums: np.ndarray
    bound_realized: float
    bound_analytic: float

    def tail_ratio(self, which: str = "out") -> float:
        """Max normalized partial sum over the trailing window (limit surrogate).

        ``which`` is ``"out"`` (outside the ball) or ``"in"`` (inside it).
        """
        if which not in ("out", "in"):
            raise ValueError(f"which must be 'out' or 'in', got {which!r}")
        sums = self.partial_sum_out if which == "out" else self.partial_sum_in
        start = _tail_start(len(sums))
        return float(np.max(sums[start:] / self.rate_sums[start:]))


def martingale_report(
    fam: FiniteExpFamily,
    box: ParamBox,
    traj: Trajectory,
    data,
    constants: TheoryConstants,
    checks: SampleChecks,
) -> MartingaleReport:
    """Build both split super-martingales along a trajectory.

    Requires a positive drift coefficient; otherwise the ball is undefined
    and the construction meaningless.  The conditional means of the
    increments are computed from transition rows and checked for the
    nonpositive orientation on active steps.
    """
    if not constants.hypotheses_met:
        raise HypothesesUnmetError("drift coefficient not positive; ball undefined")
    if traj.m != constants.m:
        raise ValueError("trajectory and constants disagree on the chain length m")
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

    cond_diff = _expected_sq_series(fam, box, traj, data, center) - h2[:steps]
    zero = np.zeros(steps)
    out = BoundCheck(
        cond_diff + etas * drift_out - four_dc2 * etas**2, zero, active_out, checks.passed
    )
    inside = BoundCheck(
        cond_diff - etas * drift_in - four_dc2 * etas**2, zero, active_in, checks.passed
    )

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
        out=out,
        inside=inside,
        partial_sum_out=np.cumsum(increment_out * active_out),
        partial_sum_in=np.cumsum(increment_in * active_in),
        rate_sums=rate_sums,
        bound_realized=bound_realized,
        bound_analytic=bound_analytic,
    )


@dataclass(frozen=True)
class OccupancyReport:
    """Rate-weighted fraction of time spent in the boundary layer or the ball."""

    steps: int
    fraction_full: float
    fraction_tail_min: float
    threshold: float
    hypotheses_met: bool

    def passes(self) -> bool:
        return self.fraction_tail_min >= self.threshold - OCCUPANCY_TOL

    def entry(self) -> dict:
        """:meth:`BoundCheck.entry`'s record, plus the threshold and both fractions."""
        return {
            "steps": self.steps,
            "violations": int(self.hypotheses_met and not self.passes()),
            "worst_slack": self.fraction_tail_min - self.threshold,
            "hypotheses_met": self.hypotheses_met,
            "threshold": self.threshold,
            "fraction_full": self.fraction_full,
            "fraction_tail_min": self.fraction_tail_min,
        }


def occupancy_report(
    traj: Trajectory, constants: TheoryConstants, checks: SampleChecks
) -> OccupancyReport:
    """Occupancy of layer-or-ball around the sample's MLE against the theoretical threshold.

    The limiting statement is about a liminf of prefix fractions, which a
    finite run can only bound; the surrogate reported here is the minimum
    prefix fraction over the trailing window.  Like the drift and
    martingale bounds, the threshold is only claimed for samples meeting
    their quality constraints.
    """
    if not constants.hypotheses_met:
        raise HypothesesUnmetError("drift coefficient not positive; ball undefined")
    h = np.linalg.norm(traj.thetas - checks.mle.theta, axis=1)
    inside = traj.boundary_hits | (h <= constants.ball_radius)
    etas = traj.etas[: traj.steps + 1]
    prefix = np.cumsum(etas * inside) / np.cumsum(etas)
    return OccupancyReport(
        steps=len(prefix),
        fraction_full=float(prefix[-1]),
        fraction_tail_min=float(np.min(prefix[_tail_start(len(prefix)):])),
        threshold=constants.occupancy_threshold,
        hypotheses_met=checks.passed,
    )


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the median tail error against the sample size."""

    sizes: np.ndarray
    medians: np.ndarray
    slope: float
    intercept: float
    residuals: np.ndarray

    @property
    def converging(self) -> bool:
        return self.slope < -0.05


def envelope_coverage(values, bound: float) -> float:
    """Fraction of ``values`` under ``bound``; nan when the bound is not finite."""
    if not math.isfinite(bound):
        return math.nan
    return float(np.mean(np.asarray(values) < bound))


def _median_quantiles(values: np.ndarray, quantiles=()) -> list:
    """``np.median(values, axis=0)``, then ``np.quantile(values, q)`` for each q of ``quantiles``.

    Each value has numpy's bits, from one sort and without the import of
    ``numpy.ma`` that numpy's functions pay on their first call.  The
    median is the mean of the middle one or two order statistics.  The
    "linear" quantile at v = (n - 1) * q interpolates between the order
    statistics floor(v) and floor(v) + 1 with weight g = v - floor(v), from
    the upper one when g >= 1/2, as numpy's ``_lerp`` does.  A column
    holding a NaN gives that NaN, as in numpy.  Quantiles take 1-d
    ``values`` only.  Equal values may sort in another order than numpy's
    partition, which can only flip the sign of a zero.
    """
    s = np.sort(values, axis=0)
    n = len(s)
    mid = s[(n - 1) // 2 : n // 2 + 1]
    stats = [mid.sum(axis=0) / len(mid)]
    for q in quantiles:
        v = (n - 1) * q
        if v < n - 1:
            lo = math.floor(v)
            hi = lo + 1
        else:  # numpy reads the last order statistic, with g = v + 1
            lo = hi = -1
        gamma = v - lo
        diff = s[hi] - s[lo]
        stats.append(s[hi] - diff * (1 - gamma) if gamma >= 0.5 else s[lo] + diff * gamma)
    nan = np.isnan(s[-1])  # a NaN sorts last
    return [np.where(nan, s[-1], x)[()] for x in stats]


def rate_fit(deltas_by_n: dict[int, "np.ndarray | list[float]"]) -> RateFit:
    """Least-squares slope of log median error versus log sample size.

    Requires at least three distinct sizes with at least ten replicates
    each.
    """
    if len(deltas_by_n) < 3:
        raise ValueError("need at least 3 distinct sample sizes")
    sizes = np.array(sorted(deltas_by_n), dtype=float)
    groups = [np.asarray(deltas_by_n[int(n)], dtype=float) for n in sizes]
    for n, g in zip(sizes, groups):
        if g.size < 10:
            raise ValueError(f"need at least 10 replicates per size, got {g.size} at n={int(n)}")
    medians = np.array([float(_median_quantiles(g)[0]) for g in groups])
    if np.any(medians <= 0):
        raise ValueError("degenerate tail errors; log fit undefined")
    slope, intercept = np.polyfit(np.log(sizes), np.log(medians), 1)
    residuals = np.log(medians) - (slope * np.log(sizes) + intercept)
    return RateFit(
        sizes=sizes,
        medians=medians,
        slope=float(slope),
        intercept=float(intercept),
        residuals=residuals,
    )
