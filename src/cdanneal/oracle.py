"""Ground-truth machinery: exact sampling, Newton MLE, sample-quality
constraints, and the constants entering the drift and rate bounds.

Everything is computed by enumeration or deterministic optimization, so
these values can serve as oracles for the stochastic learner.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .kernel import (
    build_gibbs_random_scan,
    estimate_zeta,
    m_step_stat_table,
    spectral_gap,
)
from .model import (
    FiniteExpFamily,
    ParamBox,
    _data_counts,
    _in_blocks,
    _index_array,
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
    "compute_grid_bounds",
    "empirical_stat_mean",
    "mle",
    "root_chi_square_divergence",
    "sample_iid",
    "smallest_admissible_m",
]


@dataclass(frozen=True, eq=False)
class DataSample:
    """An i.i.d. sample stored as indices into the family's state list.

    ``items`` is a read-only int64 copy of the given indices and
    ``theta_star`` a read-only float64 copy of the true parameter, so the
    caller's arrays are neither aliased nor frozen.  ``counts`` holds the
    read-only state counts ``np.bincount(items)``, computed once: every
    exact function reads the sample through them, so the per-step checks
    never recount it.  Its length is max(items) + 1; the functions that
    take a family pad it to the family's state count and refuse a sample
    with a state beyond it.
    """

    items: np.ndarray
    theta_star: np.ndarray
    seed: object
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        items = _index_array(self.items).copy()
        counts = np.bincount(items)
        theta_star = np.array(self.theta_star, dtype=float)
        items.flags.writeable = counts.flags.writeable = theta_star.flags.writeable = False
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "theta_star", theta_star)

    @property
    def n(self) -> int:
        return self.items.size


def sample_iid(fam: FiniteExpFamily, theta_star, n: int, seed) -> DataSample:
    """n exact categorical draws from the enumerated distribution."""
    if n < 1:
        raise ValueError("n must be >= 1")
    probs = state_probs(fam, theta_star)
    rng = np.random.default_rng(seed)
    items = rng.choice(fam.n_states, size=n, p=probs)
    return DataSample(items=items, theta_star=np.asarray(theta_star, dtype=float), seed=seed)


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
    backtracking decreases it monotonically; failure to reach the residual
    tolerance ``MLE_TOL`` within ``MLE_MAX_ITER`` iterations signals a
    boundary-of-mean-range sample (for example all data identical) and
    raises.  So does numerical convergence at an escaped parameter: a
    residual can only dip under the tolerance with coordinates beyond about
    -log(MLE_TOL) when the maximizer sits at infinity, whereas count-based
    interior solutions stay within log(n) of the origin.
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
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while scale > 1e-14:
            candidate = theta - scale * step
            value = nll(candidate)
            if value <= current - 1e-4 * scale * float(grad @ step):
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


def check_constraint_mle(
    fam: FiniteExpFamily,
    data,
    theta_star,
    gamma: float,
    box: ParamBox,
    mle_result: MleResult | None = None,
) -> ConstraintCheck:
    """Check sqrt(n) * |mle - theta_star| < n**gamma."""
    _validate_gamma(gamma)
    n = int(_data_counts(fam, data).sum())
    result = mle_result if mle_result is not None else mle(fam, data, box)
    statistic = math.sqrt(n) * float(
        np.linalg.norm(result.theta - np.asarray(theta_star, dtype=float))
    )
    bound = float(n) ** gamma
    return ConstraintCheck(
        passed=statistic < bound, statistic=statistic, bound=bound, margin=bound - statistic
    )


def check_constraint_empirical_process(
    fam: FiniteExpFamily,
    data,
    theta_star,
    m: int,
    gamma: float,
    theta_grid,
    stat_table: np.ndarray | None = None,
) -> ConstraintCheck:
    """Check the uniform m-step moment deviation over a parameter grid.

    At each grid point the data average and the population average of the
    m-step expected statistic are computed exactly from transition-matrix
    rows; the sup of sqrt(n) times their gap must stay below n**gamma.
    """
    _validate_gamma(gamma)
    counts = _data_counts(fam, data)
    n = int(counts.sum())
    theta_grid = np.atleast_2d(np.asarray(theta_grid, dtype=float))
    if theta_grid.size == 0:
        raise ValueError("theta grid is empty")
    if stat_table is None:
        stat_table = m_step_stat_table(fam, theta_grid, m)
    weights = counts / n
    target_probs = state_probs(fam, theta_star)
    # (G, d) gaps between the empirical and population row averages.
    gaps = np.einsum("s,gsd->gd", weights - target_probs, stat_table)
    statistic = math.sqrt(n) * float(np.max(np.linalg.norm(gaps, axis=1)))
    bound = float(n) ** gamma
    return ConstraintCheck(
        passed=statistic < bound, statistic=statistic, bound=bound, margin=bound - statistic
    )


@dataclass(frozen=True)
class SampleChecks:
    """Both sample-quality constraints plus the MLE they share."""

    mle: MleResult
    mle_check: ConstraintCheck
    empirical_check: ConstraintCheck
    m: int

    @property
    def passed(self) -> bool:
        return self.mle_check.passed and self.empirical_check.passed


def check_sample(
    fam: FiniteExpFamily,
    box: ParamBox,
    data,
    theta_star,
    m: int,
    gamma: float,
    theta_grid,
    stat_table: np.ndarray | None = None,
) -> SampleChecks:
    result = mle(fam, data, box)
    return SampleChecks(
        mle=result,
        mle_check=check_constraint_mle(fam, data, theta_star, gamma, box, mle_result=result),
        empirical_check=check_constraint_empirical_process(
            fam, data, theta_star, m, gamma, theta_grid, stat_table=stat_table
        ),
        m=int(m),
    )


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
    gaps = _in_blocks(fam, grid, lambda t: spectral_gap(fam, build_gibbs_random_scan(fam, t)))
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
    """Combine grid bounds with (m, n, gamma) into the full constant set."""
    _validate_gamma(gamma)
    if m < 1:
        raise ValueError("m must be >= 1")
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
