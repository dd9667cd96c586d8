"""Contrastive-divergence updates with annealed step sizes.

Each update starts one Gibbs chain at every datum and runs it m steps at
the current parameter.  Given that parameter the chains are independent,
so the endpoint counts are a sum of multinomial draws, one per occupied
start state s with the rows K^m[s] of the m-step kernel as probabilities;
the learner builds K^m once per update and draws all endpoints in one
call.  The update freezes inside a shrinking layer along the
parameter-box boundary, which keeps every iterate feasible because a
single step of the bounded gradient cannot jump across the layer.
Randomness is counter based: each (master seed, replicate, iteration)
triple keys its own Philox stream, so replicates are independent and any
run is reproducible step by step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import build_gibbs_random_scan, kernel_power
from .model import (
    FiniteExpFamily,
    ParamBox,
    _data_indices,
    boundary_layer_contains,
    mean_parameter,
)

__all__ = [
    "Schedule",
    "TailDistance",
    "Trajectory",
    "cd_gradient",
    "cd_step",
    "counter_rng",
    "delta_n",
    "exact_gradient_step",
    "run_cd",
    "run_exact_gradient",
    "weighted_average",
    "weighted_average_series",
]

RNG_STREAM_CD = 1
RNG_STREAM_DATA = 2


def counter_rng(master_seed: int, replicate: int, step: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (master_seed, replicate, step, stream).

    Each tuple owns an independent stream, so replicates can run in
    parallel and any single iteration can be replayed in isolation.
    """
    for v in (master_seed, replicate, step, stream):
        if v < 0:
            raise ValueError("rng key components must be nonnegative")
    seq = np.random.SeedSequence(entropy=(master_seed, replicate, step, stream))
    return np.random.Generator(np.random.Philox(seed=seq))


@dataclass(frozen=True)
class Schedule:
    """Step-size sequence eta_t.

    Kinds: "fixed" (eta_t = eta0), "harmonic" (eta0 / (t+1)) and "power"
    (eta0 / (t+1)**exponent).  Indexing starts at t = 0, hence the one
    shift; it changes nothing about summability.  Power exponents are
    restricted to (1/2, 1] so that squares are summable while partial sums
    still outgrow sqrt(log t).  Fixed schedules are accepted for baselines
    but fail the annealing conditions and are flagged as such.
    """

    kind: str
    eta0: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "harmonic", "power"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        if self.kind == "power" and not (0.5 < self.exponent <= 1.0):
            raise ValueError("power schedule needs exponent in (1/2, 1]")

    def rate(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be nonnegative")
        if self.kind == "fixed":
            return self.eta0
        if self.kind == "harmonic":
            return self.eta0 / (t + 1)
        return self.eta0 / float(t + 1) ** self.exponent

    def rates(self, count: int) -> np.ndarray:
        t = np.arange(count, dtype=float)
        if self.kind == "fixed":
            return np.full(count, self.eta0)
        if self.kind == "harmonic":
            return self.eta0 / (t + 1.0)
        return self.eta0 / (t + 1.0) ** self.exponent

    def annealing_verdict(self) -> tuple[bool, str]:
        """Whether squares are summable and partial sums outgrow sqrt(log t)."""
        if self.kind == "fixed":
            return False, "fixed step: sum of squared rates diverges"
        if self.kind == "harmonic":
            return True, "harmonic decay: squares summable, partial sums grow like log t"
        return True, (
            f"power decay {self.exponent}: squares summable, "
            "partial sums grow polynomially"
        )


@dataclass
class Trajectory:
    """One seeded run: iterates, rates, guard hits and running averages.

    ``thetas`` holds theta_0 .. theta_T.  ``etas`` holds the rates for
    t = 0 .. T; the final one never drives an update but completes the
    weighted average at t = T.  ``boundary_hits[t]`` records whether
    theta_t sat inside the shrinking boundary layer (for t < T this is
    exactly the event that froze the step).  ``weighted_avgs[k]`` is the
    rate-weighted average of theta_{burn_in} .. theta_{burn_in + k}.
    """

    thetas: np.ndarray
    etas: np.ndarray
    boundary_hits: np.ndarray
    weighted_avgs: np.ndarray
    burn_in: int
    m: int
    n: int
    master_seed: int
    replicate: int
    data_id: str = ""

    @property
    def steps(self) -> int:
        return len(self.thetas) - 1

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]

    def weighted_avg_at(self, t: int) -> np.ndarray:
        if t < self.burn_in or t > self.steps:
            raise ValueError("t outside the averaged range")
        return self.weighted_avgs[t - self.burn_in]


def _cd_endpoints(
    fam: FiniteExpFamily, theta: np.ndarray, start: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Endpoint counts of m-step chains started with ``start[s]`` chains at each state s.

    ``Generator.multinomial`` broadcasts over the occupied rows of K^m, so
    the draw is one call whatever n and m are.  ``kernel_power`` rejects an
    m that is not an integer >= 1.
    """
    km = kernel_power(build_gibbs_random_scan(fam, theta), m).probs
    occupied = np.flatnonzero(start)
    return rng.multinomial(start[occupied], km[occupied]).sum(axis=0)


def _guarded_update(
    fam: FiniteExpFamily,
    box: ParamBox,
    theta: np.ndarray,
    eta: float,
    start: np.ndarray,
    m: int,
    stat_bound: float,
    make_rng,
) -> tuple[np.ndarray, bool]:
    """The guarded CD-m update on validated inputs; ``make_rng`` runs only if not frozen."""
    if boundary_layer_contains(box, theta, eta, stat_bound, fam.dim):
        return theta, True
    end = _cd_endpoints(fam, theta, start, m, make_rng())
    grad = (start - end) @ fam.suff_stats / start.sum()
    return theta + eta * grad, False


def cd_gradient(
    fam: FiniteExpFamily,
    theta: np.ndarray,
    data,
    m: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw of the CD-m gradient estimate.

    Every datum starts a chain at itself, the chain runs m single kernel
    steps at the current parameter, and the estimate is the gap between the
    empirical statistic mean of the data and of the chain endpoints.  Its
    norm never exceeds 2 * sqrt(dim) * stat_bound.
    """
    items = _data_indices(fam, data)
    start = np.bincount(items, minlength=fam.n_states)
    end = _cd_endpoints(fam, theta, start, m, rng)
    return (start - end) @ fam.suff_stats / items.size


def cd_step(
    fam: FiniteExpFamily,
    box: ParamBox,
    theta: np.ndarray,
    eta: float,
    data,
    m: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Guarded update: freeze inside the boundary layer, else step along CD-m."""
    start = np.bincount(_data_indices(fam, data), minlength=fam.n_states)
    theta = np.asarray(theta, dtype=float)
    return _guarded_update(fam, box, theta, eta, start, m, fam.stat_bound, lambda: rng)


def run_cd(
    fam: FiniteExpFamily,
    box: ParamBox,
    schedule: Schedule,
    data,
    m: int,
    steps: int,
    burn_in: int = 0,
    master_seed: int = 0,
    replicate: int = 0,
    theta_init=None,
    data_id: str = "",
) -> Trajectory:
    """Run CD-m for a fixed number of guarded updates.

    Inputs are validated once; a step the guard freezes draws no
    randomness, and every other step t draws from its own counter stream.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= burn_in <= steps:
        raise ValueError("burn_in must lie in [0, steps]")
    items = _data_indices(fam, data)
    start = np.bincount(items, minlength=fam.n_states)
    stat_bound = fam.stat_bound
    theta = np.zeros(fam.dim) if theta_init is None else np.asarray(theta_init, dtype=float)
    if not box.contains(theta):
        raise ValueError("initial theta outside the parameter box")
    thetas = np.empty((steps + 1, fam.dim))
    hits = np.empty(steps + 1, dtype=bool)
    thetas[0] = theta
    for t in range(steps):
        theta, hit = _guarded_update(
            fam,
            box,
            theta,
            schedule.rate(t),
            start,
            m,
            stat_bound,
            functools.partial(counter_rng, master_seed, replicate, t, RNG_STREAM_CD),
        )
        if not box.contains(theta):
            raise RuntimeError("guarded update left the parameter box")
        thetas[t + 1] = theta
        hits[t] = hit
    hits[steps] = boundary_layer_contains(
        box, thetas[steps], schedule.rate(steps), stat_bound, fam.dim
    )
    etas = schedule.rates(steps + 1)
    return Trajectory(
        thetas=thetas,
        etas=etas,
        boundary_hits=hits,
        weighted_avgs=weighted_average_series(thetas, etas, burn_in),
        burn_in=burn_in,
        m=int(m),
        n=int(items.size),
        master_seed=master_seed,
        replicate=replicate,
        data_id=data_id or getattr(data, "data_id", ""),
    )


def weighted_average(thetas: np.ndarray, etas: np.ndarray, t0: int, t: int) -> np.ndarray:
    """Rate-weighted average of theta_{t0} .. theta_t by direct summation."""
    if not 0 <= t0 <= t < len(thetas):
        raise ValueError("need 0 <= t0 <= t within the trajectory")
    if len(etas) <= t:
        raise ValueError("etas shorter than requested window")
    w = np.asarray(etas, dtype=float)[t0 : t + 1]
    block = np.asarray(thetas, dtype=float)[t0 : t + 1]
    return w @ block / w.sum()


def weighted_average_series(thetas: np.ndarray, etas: np.ndarray, t0: int) -> np.ndarray:
    """Running rate-weighted averages for every t >= t0."""
    thetas = np.asarray(thetas, dtype=float)
    if not 0 <= t0 < len(thetas):
        raise ValueError("t0 outside the trajectory")
    w = np.asarray(etas, dtype=float)[t0 : len(thetas)]
    cum_w = np.cumsum(w)
    cum_wt = np.cumsum(w[:, None] * thetas[t0:], axis=0)
    return cum_wt / cum_w[:, None]


@dataclass(frozen=True)
class TailDistance:
    """Finite-horizon surrogate for the limiting average-iterate error."""

    tail_max: float
    final: float
    window_start: int


def delta_n(traj: Trajectory, theta_star, tail_fraction: float = 0.1) -> TailDistance:
    """Max distance of the weighted average from theta_star over the tail.

    The tail window covers the final ``tail_fraction`` of the run (never
    reaching before the burn-in); its max upper-bounds the limiting
    behavior a finite run can exhibit, and the final-step distance is
    reported alongside.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    theta_star = np.asarray(theta_star, dtype=float)
    start = max(traj.burn_in, int(np.ceil((1.0 - tail_fraction) * traj.steps)))
    if start > traj.steps:
        raise ValueError("empty tail window")
    dists = np.linalg.norm(traj.weighted_avgs[start - traj.burn_in :] - theta_star, axis=1)
    return TailDistance(tail_max=float(dists.max()), final=float(dists[-1]), window_start=start)


def exact_gradient_step(
    fam: FiniteExpFamily, box: ParamBox, theta: np.ndarray, data, eta: float
) -> tuple[np.ndarray, bool]:
    """Noiseless baseline: step along the exact log-likelihood gradient."""
    theta = np.asarray(theta, dtype=float)
    if boundary_layer_contains(box, theta, eta, fam.stat_bound, fam.dim):
        return theta, True
    items = _data_indices(fam, data)
    emp = np.bincount(items, minlength=fam.n_states) @ fam.suff_stats / items.size
    return theta + eta * (emp - mean_parameter(fam, theta)), False


def run_exact_gradient(
    fam: FiniteExpFamily,
    box: ParamBox,
    schedule: Schedule,
    data,
    steps: int,
    burn_in: int = 0,
    theta_init=None,
    data_id: str = "",
) -> Trajectory:
    """Run the exact-gradient baseline with the same guard and averaging."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    items = _data_indices(fam, data)
    theta = np.zeros(fam.dim) if theta_init is None else np.asarray(theta_init, dtype=float)
    if not box.contains(theta):
        raise ValueError("initial theta outside the parameter box")
    thetas = np.empty((steps + 1, fam.dim))
    hits = np.empty(steps + 1, dtype=bool)
    thetas[0] = theta
    for t in range(steps):
        theta, hit = exact_gradient_step(fam, box, theta, items, schedule.rate(t))
        thetas[t + 1] = theta
        hits[t] = hit
    hits[steps] = boundary_layer_contains(
        box, thetas[steps], schedule.rate(steps), fam.stat_bound, fam.dim
    )
    etas = schedule.rates(steps + 1)
    return Trajectory(
        thetas=thetas,
        etas=etas,
        boundary_hits=hits,
        weighted_avgs=weighted_average_series(thetas, etas, burn_in),
        burn_in=burn_in,
        m=0,
        n=int(items.size),
        master_seed=0,
        replicate=0,
        data_id=data_id or getattr(data, "data_id", ""),
    )
