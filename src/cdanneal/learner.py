"""Contrastive-divergence updates with annealed step sizes.

Each update starts one Gibbs chain at every datum and runs it m steps at
the current parameter.  Given that parameter the chains are independent,
so the endpoint counts are a sum of multinomial draws, one per occupied
start state s with the rows K^m[s] of the m-step kernel as probabilities.
Once per run, the learner checks m, keys its generator, counts the data
and reads what no update changes: the move tables, the occupied start
states and n.  Once per update it builds the kernel at the current
parameter, raises it to K^m and draws all endpoints in one call.  The
update freezes inside a shrinking layer along the parameter-box boundary,
which keeps every iterate feasible because a single step of the bounded
gradient cannot jump across the layer.
Randomness is counter based (Philox): the key is (master seed,
replicate, stream) and the counter word is the step.  A run keys its
generator once and starts step t at counter (0, t, 0, 0), so every step
reads its own disjoint counter range, replicates are independent and any
single step can be replayed in isolation with :func:`counter_rng`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import _check_chain_length, _gibbs_probs, _gibbs_tables
from .model import (
    FiniteExpFamily,
    ParamBox,
    _data_counts,
    boundary_layer_contains,
    mean_parameter,
)

__all__ = [
    "Schedule",
    "TailDistance",
    "Trajectory",
    "counter_rng",
    "delta_n",
    "run_cd",
    "run_exact_gradient",
    "weighted_average_series",
]

RNG_STREAM_CD = 1
RNG_STREAM_DATA = 2


def _is_key_word(v) -> bool:
    """Whether ``v`` can be a word of a generator key: an integer in [0, 2**64)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < 2**64


def _check_key_word(v) -> None:
    if not _is_key_word(v):
        raise ValueError(f"rng key components must be nonnegative integers below 2**64, got {v!r}")


def _step_rngs(master_seed: int, replicate: int, stream: int):
    """``at(step)``: one Philox generator keyed by (master_seed, replicate, stream).

    The key is ``SeedSequence(entropy=(master_seed, replicate, stream))
    .generate_state(2, np.uint64)``.  ``at(step)`` resets the generator to
    counter (0, step, 0, 0) with an empty draw buffer and returns it, so a
    step's draws depend on the key and the step alone.
    """
    for v in (master_seed, replicate, stream):
        _check_key_word(v)
    seq = np.random.SeedSequence(entropy=(master_seed, replicate, stream))
    key = seq.generate_state(2, np.uint64)
    # Seeding from ``seq`` spares the OS entropy a keyless Philox would draw.
    bitgen = np.random.Philox(seed=seq)
    rng = np.random.Generator(bitgen)

    def at(step: int) -> np.random.Generator:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, step, 0, 0], dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return at


def counter_rng(master_seed: int, replicate: int, step: int, stream: int) -> np.random.Generator:
    """Philox generator with key (master_seed, replicate, stream) and counter word ``step``.

    It draws what step ``step`` of a run with that key draws, so any single
    iteration can be replayed in isolation; distinct keys give independent
    streams, so replicates can run in parallel.
    """
    _check_key_word(step)
    return _step_rngs(master_seed, replicate, stream)(step)


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

    kind: str = "harmonic"
    eta0: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed", "harmonic", "power"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        if self.kind == "power" and not (0.5 < self.exponent <= 1.0):
            raise ValueError("power schedule needs exponent in (1/2, 1]")

    def rates(self, count: int) -> np.ndarray:
        """eta_0 .. eta_{count - 1}."""
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

    @property
    def steps(self) -> int:
        return len(self.thetas) - 1

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


def _cd_sampler(fam: FiniteExpFamily, start: np.ndarray, m: int, rng_at):
    """``gradient(t, theta)``: the CD-m estimate of step t from ``start[s]`` chains at state s.

    What does not depend on theta is read once per run: the move tables,
    the statistic, the occupied start states with their counts, and n.  A
    call builds the kernel at theta, raises it to the m-th power and draws
    the endpoint counts of every chain from ``rng_at(t)`` in one
    ``Generator.multinomial`` broadcast over the occupied rows of K^m.  The
    caller has checked m and every theta the guard lets through is finite.
    """
    tables = _gibbs_tables(fam)
    phi = fam.suff_stats
    occupied = np.flatnonzero(start)
    chains = start[occupied]
    n = start.sum()

    def gradient(t: int, theta: np.ndarray) -> np.ndarray:
        km = np.linalg.matrix_power(_gibbs_probs(fam, tables, theta), m)
        end = rng_at(t).multinomial(chains, km[occupied]).sum(axis=0)
        return (start - end) @ phi / n

    return gradient


def _guarded_run(
    fam: FiniteExpFamily,
    box: ParamBox,
    schedule: Schedule,
    steps: int,
    burn_in: int,
    theta_init,
    gradient,
    m: int,
) -> Trajectory:
    """Guarded updates along ``gradient(t, theta)``, the loop of every learner.

    A step inside the boundary layer is frozen and never calls ``gradient``.
    The guard of the next step (or of the final iterate) raises
    ``ParamBoxError`` for an iterate outside the box, so an escape never
    returns a trajectory.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 <= burn_in <= steps:
        raise ValueError("burn_in must lie in [0, steps]")
    if box.dim != fam.dim:
        raise ValueError(f"box has dimension {box.dim}, the family {fam.dim}")
    stat_bound = fam.stat_bound
    theta = np.zeros(fam.dim) if theta_init is None else np.asarray(theta_init, dtype=float)
    if theta.shape != (fam.dim,):
        raise ValueError(f"theta_init has shape {theta.shape}, expected ({fam.dim},)")
    if not box.contains(theta):
        raise ValueError("initial theta outside the parameter box")
    etas = schedule.rates(steps + 1)
    thetas = np.empty((steps + 1, fam.dim))
    hits = np.empty(steps + 1, dtype=bool)
    thetas[0] = theta
    for t in range(steps):
        frozen = hits[t] = boundary_layer_contains(box, theta, etas[t], stat_bound, fam.dim)
        if not frozen:
            theta = theta + etas[t] * gradient(t, theta)
        thetas[t + 1] = theta
    hits[steps] = boundary_layer_contains(box, thetas[steps], etas[steps], stat_bound, fam.dim)
    return Trajectory(
        thetas=thetas,
        etas=etas,
        boundary_hits=hits,
        weighted_avgs=weighted_average_series(thetas, etas, burn_in),
        burn_in=burn_in,
        m=m,
    )


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
) -> Trajectory:
    """Run CD-m for a fixed number of guarded updates.

    A step the guard freezes draws no randomness, and every other step t
    draws what ``counter_rng(master_seed, replicate, t, RNG_STREAM_CD)``
    draws; the generator is keyed once per run.  The CD gradient estimate is
    the gap between the statistic means of the data and of the chain
    endpoints; its norm never exceeds 2 * sqrt(dim) * stat_bound.
    """
    _check_chain_length(m)
    rng_at = _step_rngs(master_seed, replicate, RNG_STREAM_CD)
    start = _data_counts(fam, data)
    gradient = _cd_sampler(fam, start, m, rng_at)
    return _guarded_run(fam, box, schedule, steps, burn_in, theta_init, gradient, m)


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


def run_exact_gradient(
    fam: FiniteExpFamily,
    box: ParamBox,
    schedule: Schedule,
    data,
    steps: int,
    burn_in: int = 0,
    theta_init=None,
) -> Trajectory:
    """Run the exact-gradient baseline with the same guard and averaging."""
    start = _data_counts(fam, data)
    data_mean = start @ fam.suff_stats / start.sum()

    def gradient(_t, theta):
        return data_mean - mean_parameter(fam, theta)

    return _guarded_run(fam, box, schedule, steps, burn_in, theta_init, gradient, 0)
