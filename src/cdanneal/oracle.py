"""Ground-truth machinery: exact sampling, Newton MLE, sample-quality
constraints, and the constants entering the drift and rate bounds.

Everything is computed by enumeration or deterministic optimization, so
these values can serve as oracles for the stochastic learner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .kernel import (
    _check_chain_length,
    build_gibbs_random_scan,
    estimate_zeta,
    m_step_stat_rows,
    spectral_gap,
)
from .model import (
    FiniteExpFamily,
    ParamBox,
    _blocks,
    _data_counts,
    _in_blocks,
    _max_difference_quotient,
    _per_point,
    fisher_info,
    lattice_neighbor_pairs,
    log_partition,
    mean_parameter,
    state_probs,
)

__all__ = [
    "ConstraintCheck",
    "DataSample",
    "GridBounds",
    "MleNonexistenceError",
    "MleResult",
    "SampleChecks",
    "TheoryConstants",
    "assemble_constants",
    "check_constraint_empirical_process",
    "check_constraint_mle",
    "check_sample",
    "check_samples",
    "compute_grid_bounds",
    "empirical_stat_mean",
    "mle",
    "root_chi_square_divergence",
    "sample_iid",
    "smallest_admissible_m",
]


@dataclass(frozen=True, eq=False)
class DataSample:
    """An i.i.d. sample stored as its state counts.

    ``counts`` is a read-only int64 copy of the given counts, so the
    caller's array is neither aliased nor frozen; ``n`` is their total.
    Every exact function reads a sample only through its counts, and the
    functions that take a family refuse counts of any length but its state
    count.
    """

    counts: np.ndarray
    seed: object

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be a 1-d array of integers")
        counts = counts.astype(np.int64)
        if counts.size == 0 or counts.min() < 0 or counts.sum() < 1:
            raise ValueError("counts must be nonnegative with a total of at least 1")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def sample_iid(fam: FiniteExpFamily, theta_star, n: int, seed) -> DataSample:
    """The state counts of n exact categorical draws from the enumerated distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    probs = state_probs(fam, theta_star)
    rng = np.random.default_rng(seed)
    items = rng.choice(fam.n_states, size=n, p=probs)
    return DataSample(counts=np.bincount(items, minlength=fam.n_states), seed=seed)


def empirical_stat_mean(fam: FiniteExpFamily, data) -> np.ndarray:
    counts = _data_counts(fam, data)
    return counts @ fam.suff_stats / counts.sum()


class MleNonexistenceError(RuntimeError):
    """The empirical statistic mean sits on the boundary of the mean range."""


@dataclass
class MleResult:
    """Newton solution of the moment equation, clipped into the box if needed."""

    theta: np.ndarray
    theta_raw: np.ndarray
    residual: float
    iterations: int
    clipped: bool
    nll_path: np.ndarray


# Newton stops once the moment residual |grad A(theta) - target| drops below
# MLE_TOL, and gives up after MLE_MAX_ITER iterations.
MLE_TOL = 1e-10
MLE_MAX_ITER = 200


def mle(fam: FiniteExpFamily, data, box: ParamBox) -> MleResult:
    """Damped Newton solve of grad A(theta) = empirical statistic mean.

    The negative log-likelihood is strictly convex, so Newton with
    backtracking decreases it, up to a few ulps: a step whose predicted
    decrease (the Newton decrement) is within a few ulps of the nll is
    taken in full, because there the line search compares rounding noise
    and would stall short of the residual tolerance, so the nll path may
    rise by a few ulps near the optimum.  Failure to reach the residual
    tolerance ``MLE_TOL`` within ``MLE_MAX_ITER`` iterations signals a
    boundary-of-mean-range sample (for example all data identical) and
    raises.  So does numerical convergence at an escaped parameter: a
    residual can only dip under the tolerance with coordinates beyond about
    -log(MLE_TOL) when the maximizer sits at infinity, whereas count-based
    interior solutions stay within log(n) of the origin.  A Fisher matrix
    that is singular at a finite iterate arises only as Newton chases such
    a maximizer, and raises too.
    """
    target = empirical_stat_mean(fam, data)
    escape = max(2.0 * box.half_width, -0.9 * math.log(MLE_TOL))

    def nll(theta):
        return log_partition(fam, theta) - float(theta @ target)

    theta = np.zeros(fam.dim)
    current = nll(theta)
    path = [current]
    for iteration in range(1, MLE_MAX_ITER + 1):
        grad = mean_parameter(fam, theta) - target
        residual = float(np.linalg.norm(grad))
        if residual < MLE_TOL:
            if float(np.max(np.abs(theta))) > escape:
                raise MleNonexistenceError(
                    "statistic mean is numerically on the boundary of the mean range"
                )
            clipped = not box.contains(theta)
            return MleResult(
                theta=box.clip(theta) if clipped else theta.copy(),
                theta_raw=theta.copy(),
                residual=residual,
                iterations=iteration - 1,
                clipped=clipped,
                nll_path=np.asarray(path),
            )
        hess, _ = fisher_info(fam, theta)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise MleNonexistenceError("Fisher matrix is singular; no interior maximizer") from exc
        decrement = float(grad @ step)
        # Below the nll's resolution the Armijo test compares rounding noise.
        resolved = decrement > 4.0 * float(np.spacing(abs(current)))
        scale = 1.0
        while scale > 1e-14:
            candidate = theta - scale * step
            value = nll(candidate)
            if not resolved or value <= current - 1e-4 * scale * decrement:
                break
            scale /= 2.0
        else:
            raise MleNonexistenceError("line search stalled; no interior maximizer")
        theta, current = candidate, value
        path.append(current)
    raise MleNonexistenceError(
        f"Newton did not converge in {MLE_MAX_ITER} iterations; "
        "the sample's statistic mean has no interior preimage"
    )


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of one sample-quality inequality."""

    passed: bool
    statistic: float
    bound: float
    margin: float


def _constraint(statistic: float, n: int, gamma: float) -> ConstraintCheck:
    """The record of ``statistic < n**gamma``."""
    bound = float(n) ** gamma
    return ConstraintCheck(
        passed=statistic < bound, statistic=statistic, bound=bound, margin=bound - statistic
    )


def check_constraint_mle(
    fam: FiniteExpFamily, data, theta_star, gamma: float, fit: MleResult
) -> ConstraintCheck:
    """Check sqrt(n) * |mle - theta_star| < n**gamma, with ``fit`` the sample's MLE."""
    _validate_gamma(gamma)
    n = int(_data_counts(fam, data).sum())
    statistic = math.sqrt(n) * float(
        np.linalg.norm(fit.theta - np.asarray(theta_star, dtype=float))
    )
    return _constraint(statistic, n, gamma)


def _grid_pass(fam: FiniteExpFamily, samples, theta_star, m: int, gamma: float, theta_grid):
    """Every sample's empirical-process check and bias norms, from one sweep of the grid.

    The m-step rows K^m phi and the means mu are built once per block of the
    grid and serve every sample, w its state frequencies: the check reads
    the largest gap |(w - p_star) K^m phi|, the bias norms are the exact CD-m
    gradient bias |mu(theta) - w K^m phi| at each point.  No (G, S, d) table
    is held.
    """
    _validate_gamma(gamma)
    counts = [_data_counts(fam, data) for data in samples]
    theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
    if theta_grid.size == 0:
        raise ValueError("theta grid is empty")
    ns = [int(c.sum()) for c in counts]
    weights = [c / n for c, n in zip(counts, ns)]
    target_probs = state_probs(fam, theta_star)
    sups = [0.0] * len(samples)
    biases = [np.empty(len(theta_grid)) for _ in samples]
    for block in _blocks(len(theta_grid), fam.n_states**2):
        rows = m_step_stat_rows(fam, theta_grid[block], m)
        means = mean_parameter(fam, theta_grid[block])
        for k, w in enumerate(weights):
            gaps = np.linalg.norm(np.einsum("s,gsd->gd", w - target_probs, rows), axis=1)
            sups[k] = max(sups[k], float(np.max(gaps)))
            biases[k][block] = np.linalg.norm(means - np.einsum("s,gsd->gd", w, rows), axis=1)
    return [_constraint(math.sqrt(n) * sup, n, gamma) for n, sup in zip(ns, sups)], biases


def check_constraint_empirical_process(
    fam: FiniteExpFamily, data, theta_star, m: int, gamma: float, theta_grid
) -> ConstraintCheck:
    """Check the uniform m-step moment deviation over a parameter grid.

    At each grid point the data average and the population average of the
    m-step expected statistic are computed exactly from transition-matrix
    rows; the sup of sqrt(n) times their gap must stay below n**gamma.
    """
    return _grid_pass(fam, [data], theta_star, m, gamma, theta_grid)[0][0]


@dataclass(frozen=True)
class SampleChecks:
    """Both sample-quality constraints plus the MLE they share.

    ``bias_norms`` is the exact CD-m gradient bias at each point of the
    grid the empirical check swept (see :func:`_grid_pass`), or None in a
    run's cell task whose bias check does not run.
    """

    mle: MleResult
    mle_check: ConstraintCheck
    empirical_check: ConstraintCheck
    m: int
    bias_norms: np.ndarray | None

    @property
    def passed(self) -> bool:
        return self.mle_check.passed and self.empirical_check.passed


def check_samples(
    fam: FiniteExpFamily, samples, fits, theta_star, m: int, gamma: float, theta_grid
) -> list[SampleChecks]:
    """:func:`check_sample` of every sample with its MLE, from one sweep of the grid."""
    empirical, biases = _grid_pass(fam, samples, theta_star, m, gamma, theta_grid)
    return [
        SampleChecks(
            mle=fit,
            mle_check=check_constraint_mle(fam, data, theta_star, gamma, fit),
            empirical_check=check,
            m=int(m),
            bias_norms=bias,
        )
        for data, fit, check, bias in zip(samples, fits, empirical, biases, strict=True)
    ]


def check_sample(
    fam: FiniteExpFamily, data, fit: MleResult, theta_star, m: int, gamma: float, theta_grid
) -> SampleChecks:
    """Both sample-quality constraints of ``data``, given its MLE ``fit``."""
    return check_samples(fam, [data], [fit], theta_star, m, gamma, theta_grid)[0]


def root_chi_square_divergence(fam: FiniteExpFamily, theta_star, theta):
    """Square root of the chi-square divergence of p_theta_star from p_theta.

    Equals sqrt(exp(A(theta) + A(2 theta_star - theta) - 2 A(theta_star)) - 1);
    the exponent is nonnegative by convexity of the log normalizer, and the
    reflected point 2 theta_star - theta may leave the box, which is fine
    because the log normalizer is finite everywhere on a finite state space.
    A float for theta of shape (d,), an array of shape (G,) for a stack.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    theta = np.asarray(theta, dtype=float)
    exponent = (
        log_partition(fam, theta)
        + log_partition(fam, 2.0 * theta_star - theta)
        - 2.0 * log_partition(fam, theta_star)
    )
    return _per_point(np.sqrt(np.maximum(np.expm1(exponent), 0.0)))


def smallest_admissible_m(
    min_fisher_eig: float, divergence_lipschitz: float, mixing_bound: float, stat_bound: float, dim: int
) -> int | None:
    """Smallest m with min_fisher_eig - sqrt(dim)*C*L*alpha**m > 0, or None."""
    if min_fisher_eig <= 0:
        return None
    coeff = math.sqrt(dim) * stat_bound * divergence_lipschitz
    if coeff < min_fisher_eig:
        return 1
    if mixing_bound <= 0:
        return 1
    if mixing_bound >= 1:
        return None
    m = max(1, math.floor(math.log(min_fisher_eig / coeff) / math.log(mixing_bound)))
    while min_fisher_eig - coeff * mixing_bound**m <= 0:
        m += 1
        if m > 10_000:
            return None
    return m


def _scrub(value):
    """Make a value JSON-safe recursively: numpy values become Python ones, inf/nan strings."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


@dataclass(frozen=True)
class GridBounds:
    """Grid approximations of the extremal quantities over the box."""

    min_fisher_eig: float
    divergence_lipschitz: float
    mixing_bound: float
    kernel_lipschitz: float
    grid_per_axis: int
    half_width: float


@dataclass(frozen=True)
class TheoryConstants:
    """Everything the drift, ball and rate bounds need, with grid provenance.

    ``drift_coeff`` and ``fluctuation_scale`` are the quadratic and linear
    coefficients of the expected one-step decrement of the squared distance
    to the MLE; the ball around the MLE has radius ball_factor *
    fluctuation_scale / drift_coeff.  When drift_coeff <= 0 the requested m
    mixes too slowly for the guarantees and dependent quantities are
    infinite; ``smallest_admissible_m`` records the first m that works.
    ``bounds`` holds the grid sweep the constants derive from; ``to_dict``
    writes its values beside the others and its grid under ``grid``.
    """

    stat_bound: float
    dim: int
    bounds: GridBounds
    gamma: float
    m: int
    n: int
    bias_coeff: float
    drift_coeff: float
    fluctuation_scale: float
    ball_factor: float
    ball_radius: float
    rate_coeff: float
    smallest_admissible_m: int | None

    @property
    def hypotheses_met(self) -> bool:
        return self.drift_coeff > 0

    @property
    def occupancy_threshold(self) -> float:
        x = 4.0 * self.ball_factor * (self.ball_factor - 1.0)
        return x / (x + 1.0)

    def rate_bound(self, n: int) -> float:
        return self.rate_coeff * float(n) ** (-(1.0 - 2.0 * self.gamma) / 3.0)

    def to_dict(self) -> dict:
        doc = asdict(self)
        bounds = doc.pop("bounds")
        grid = {"per_axis": bounds.pop("grid_per_axis"), "half_width": bounds.pop("half_width")}
        return _scrub({**doc, **bounds, "hypotheses_met": self.hypotheses_met, "grid": grid})


def _validate_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie strictly between 0 and 1/2")


def compute_grid_bounds(
    fam: FiniteExpFamily, box: ParamBox, theta_star, grid_per_axis: int = 9
) -> GridBounds:
    """Sweep a regular grid for the extrema the theory constants need.

    Covers the Fisher-eigenvalue infimum, the divergence-map Lipschitz
    constant (max adjacent difference quotient), the mixing bound (max
    second eigenvalue) and the kernel Lipschitz constant.  Grid metadata
    rides along so the approximation stays visible in every report.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if not box.strictly_contains(theta_star):
        raise ValueError("theta_star must be interior to the box")
    grid = box.grid(grid_per_axis)
    pairs = lattice_neighbor_pairs(grid_per_axis, box.dim)
    eigs = _in_blocks(fam, grid, lambda t: fisher_info(fam, t)[1])
    fvals = _in_blocks(fam, grid, lambda t: root_chi_square_divergence(fam, theta_star, t))
    lipschitz, _ = _max_difference_quotient(
        grid, pairs, lambda a, b: np.abs(fvals[a] - fvals[b]), box.dim
    )
    gaps = _in_blocks(fam, grid, lambda t: spectral_gap(fam, t, build_gibbs_random_scan(fam, t)))
    zeta = estimate_zeta(fam, grid, pairs).zeta
    return GridBounds(
        min_fisher_eig=float(np.min(eigs)),
        divergence_lipschitz=lipschitz,
        mixing_bound=float(np.max(gaps)),
        kernel_lipschitz=float(zeta),
        grid_per_axis=grid_per_axis,
        half_width=box.half_width,
    )


def assemble_constants(
    fam: FiniteExpFamily, box: ParamBox, bounds: GridBounds, m: int, n: int, gamma: float
) -> TheoryConstants:
    """Combine grid bounds with (m, n, gamma) into the full constant set.

    m and n must be integers >= 1 (bools refused): a float would enter the
    coefficients as given and be recorded truncated.
    """
    _validate_gamma(gamma)
    _check_chain_length(m)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be an integer >= 1")
    bias_coeff = math.sqrt(fam.dim) * fam.stat_bound * bounds.divergence_lipschitz * (
        bounds.mixing_bound**m
    )
    drift_coeff = bounds.min_fisher_eig - bias_coeff
    fluctuation = (1.0 + bias_coeff) * float(n) ** (gamma - 0.5)
    ball_factor = float(n) ** ((1.0 - 2.0 * gamma) / 6.0)
    if drift_coeff > 0:
        ball_radius = ball_factor * fluctuation / drift_coeff
        rate_coeff = (1.0 + bias_coeff) / drift_coeff + box.diameter / 4.0
    else:
        ball_radius = math.inf
        rate_coeff = math.inf
    return TheoryConstants(
        stat_bound=fam.stat_bound,
        dim=fam.dim,
        bounds=bounds,
        gamma=gamma,
        m=int(m),
        n=int(n),
        bias_coeff=bias_coeff,
        drift_coeff=drift_coeff,
        fluctuation_scale=fluctuation,
        ball_factor=ball_factor,
        ball_radius=ball_radius,
        rate_coeff=rate_coeff,
        smallest_admissible_m=smallest_admissible_m(
            bounds.min_fisher_eig,
            bounds.divergence_lipschitz,
            bounds.mixing_bound,
            fam.stat_bound,
            fam.dim,
        ),
    )
