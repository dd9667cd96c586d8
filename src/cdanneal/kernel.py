"""Random-scan Gibbs kernels as explicit row-stochastic matrices.

The sampler picks one coordinate uniformly at random and resamples it from
its exact conditional, so the full transition matrix is available in closed
form.  That makes stationarity, reversibility, mixing coefficients and
kernel distances all checkable to machine precision.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .model import (
    FiniteExpFamily,
    _blocks,
    _check_theta,
    _max_difference_quotient,
    _per_point,
    _scores,
    state_probs,
)

__all__ = [
    "KernelMatrix",
    "ZetaEstimate",
    "build_gibbs_random_scan",
    "estimate_zeta",
    "flip_tables",
    "kernel_distance",
    "kernel_power",
    "m_step_stat_rows",
    "reversibility_violation",
    "spectral_gap",
    "stationarity_violation",
]


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Row-stochastic transition matrix at a parameter, or (G, S, S) at a stack (G, d)."""

    theta: np.ndarray
    probs: np.ndarray


class _GibbsTables:
    """Index tables of the single-site moves on {0,1}^p, built once per family.

    ``up[s, j]``/``down[s, j]`` are the states s with coordinate j set to
    1/0, and ``flip[s, j]`` the one of the two that is not s.  The flat
    arrays list the 2p moves out of every state in (s, j, up/down) order:
    ``target`` is where the move lands, ``other`` the state that differs
    from it in coordinate j only, and ``scatter`` the flat position
    s * n_states + target of the move in the transition matrix.
    ``probs(theta)`` is the family's kernel builder, bound to these tables
    (see :func:`_bind_gibbs_probs`).
    """

    def __init__(self, fam: FiniteExpFamily, up: np.ndarray, down: np.ndarray):
        n = up.shape[0]
        self.up = up
        self.down = down
        self.flip = np.where(up == np.arange(n)[:, None], down, up)
        self.target = np.stack([up, down], axis=2).reshape(-1)
        self.other = np.stack([down, up], axis=2).reshape(-1)
        self.scatter = np.repeat(np.arange(n) * n, 2 * up.shape[1]) + self.target
        self.probs = _bind_gibbs_probs(fam, self.target, self.other, self.scatter)


_TABLE_CACHE: "weakref.WeakKeyDictionary[FiniteExpFamily, _GibbsTables]" = (
    weakref.WeakKeyDictionary()
)


def _gibbs_tables(fam: FiniteExpFamily) -> _GibbsTables:
    cached = _TABLE_CACHE.get(fam)
    if cached is not None:
        return cached
    states = fam.states
    if not np.all((states == 0) | (states == 1)):
        raise ValueError("Gibbs sampling requires binary coordinates")
    p = fam.n_coords
    if fam.n_states != 2**p:
        raise ValueError("Gibbs sampling requires the full product state space {0,1}^p")
    bits = 1 << np.arange(p - 1, -1, -1)  # the bit of coordinate j in a state's code
    code = states.astype(np.int64) @ bits
    index = np.full(fam.n_states, -1)
    index[code] = np.arange(fam.n_states)
    if np.any(index < 0):
        raise ValueError("Gibbs sampling requires distinct states covering {0,1}^p")
    tables = _GibbsTables(fam, index[code[:, None] | bits], index[code[:, None] & ~bits])
    _TABLE_CACHE[fam] = tables
    return tables


def flip_tables(fam: FiniteExpFamily) -> tuple[np.ndarray, np.ndarray]:
    """Index tables (up, down) with up[s, j] the state s with coordinate j set to 1.

    Requires the state space to be the full binary product {0,1}^p; anything
    else cannot be resampled coordinate-wise and raises ValueError.
    """
    tables = _gibbs_tables(fam)
    return tables.up, tables.down


def build_gibbs_random_scan(fam: FiniteExpFamily, theta) -> KernelMatrix:
    """One step of random-scan Gibbs at theta, or at each theta of a stack (G, d).

    One step is the average of the p single-site kernels.  A move out of s
    that sets coordinate j to the value of state y has probability
    sigmoid(score(y) - score(y')) / p, with y' the state that differs from
    y in coordinate j only.  The sigmoid is evaluated as
    exp(min(g, 0)) / (1 + exp(-|g|)), which never overflows and keeps full
    relative precision for move probabilities near 0.  Up and down targets
    can coincide with the source state, so the 2p moves of each row are
    summed by one scatter; every matrix of a stack gets the same bits as
    when it is built alone.
    """
    theta = _check_theta(fam, theta)
    return KernelMatrix(theta=theta, probs=_gibbs_probs(fam, theta))


def _move_probs(fam: FiniteExpFamily, gap: np.ndarray) -> np.ndarray:
    """sigmoid(gap) / p, the probability of a single-site move with score gap ``gap``."""
    return np.exp(np.minimum(gap, 0.0)) / (1.0 + np.exp(-np.abs(gap))) / fam.n_coords


def _bind_gibbs_probs(
    fam: FiniteExpFamily, target: np.ndarray, other: np.ndarray, scatter: np.ndarray
):
    """``probs(theta)``: the kernel of :func:`build_gibbs_random_scan` at a checked theta.

    It makes the operations of ``model._scores`` and :func:`_move_probs`,
    then scatters the 2p moves of every row, so it gives their bits.  The
    carrier, the statistic, the move tables, numpy's functions and the
    constants are bound once per family; a constant as a 0-d array costs
    numpy less than a Python scalar and gives the same bits.  The builder
    holds no reference to ``fam``, so the weak table cache can still let a
    family go.
    """
    log_carrier, phi = fam.log_carrier, fam.suff_stats
    n = fam.n_states
    size = n * n
    p, zero, one = np.array(float(fam.n_coords)), np.array(0.0), np.array(1.0)
    exp, minimum, absolute, bincount = np.exp, np.minimum, np.abs, np.bincount

    def probs(theta: np.ndarray) -> np.ndarray:
        scores = log_carrier + (phi @ theta[..., None])[..., 0]
        gap = scores.take(target, -1) - scores.take(other, -1)
        moves = exp(minimum(gap, zero)) / (one + exp(-absolute(gap))) / p
        if theta.ndim == 1:
            return bincount(scatter, moves, size).reshape(n, n)
        g = len(theta)  # matrix k of the stack fills the flat positions from k * n * n on
        flat = (np.arange(g)[:, None] * size + scatter).reshape(-1)
        return bincount(flat, moves.reshape(-1), g * size).reshape(g, n, n)

    return probs


def _gibbs_probs(fam: FiniteExpFamily, theta: np.ndarray) -> np.ndarray:
    """Transition matrix of :func:`build_gibbs_random_scan` at an already checked theta."""
    return _gibbs_tables(fam).probs(theta)


def _flip_probs(fam: FiniteExpFamily, tables: _GibbsTables, theta: np.ndarray) -> np.ndarray:
    """K[s, flip[s, j]] of the kernel at a checked theta, shape (S, p) or (G, S, p).

    These are every off-diagonal entry of the kernel, bit for bit: each is
    one move, evaluated by the same expression as in :func:`_gibbs_probs`.
    """
    scores = _scores(fam, theta)
    return _move_probs(fam, scores.take(tables.flip, axis=-1) - scores[..., None])


def _row_distances(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Row-wise L1 norms of K1 - K2 from the flip probabilities (..., S, p) of two kernels.

    Row s of K1 - K2 holds dq[s, j] at the p flips of s and -sum_j dq[s, j]
    on the diagonal, since both rows sum to 1.  Their max is
    :func:`kernel_distance`.  The sums over j run as p adds of (..., S)
    slices, much faster than numpy's reduction over a short last axis.
    """
    dq = q1 - q2
    moved, stay = np.abs(dq[..., 0]), dq[..., 0].copy()
    for j in range(1, dq.shape[-1]):
        moved += np.abs(dq[..., j])
        stay += dq[..., j]
    return moved + np.abs(stay)


def _check_chain_length(m) -> None:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be an integer >= 1")


def _matrix_power(a: np.ndarray, m: int) -> np.ndarray:
    """``np.linalg.matrix_power(a, m)`` for a checked m >= 1, bit for bit.

    It makes numpy's products in numpy's order: the m = 2 and 3 shortcuts,
    then the squarings of a multiplied in from the least significant bit
    of m.  Each product is one ``np.matmul`` call, without the checks and
    the ``numpy.linalg.matmul`` wrapper that ``matrix_power`` adds.
    """
    matmul = np.matmul
    if m == 2:
        return matmul(a, a)
    if m == 3:
        return matmul(matmul(a, a), a)
    z = result = None
    while m > 0:
        z = a if z is None else matmul(z, z)
        m, bit = divmod(m, 2)
        if bit:
            result = z if result is None else matmul(result, z)
    return result


def kernel_power(kernel: KernelMatrix, m: int) -> KernelMatrix:
    """Exact m-step transition matrix (of every matrix of a stack)."""
    _check_chain_length(m)
    if m == 1:
        return kernel
    return KernelMatrix(theta=kernel.theta, probs=_matrix_power(kernel.probs, m))


def stationarity_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    pi = state_probs(fam, kernel.theta)[..., None, :]
    return float(np.max(np.abs(pi @ kernel.probs - pi)))


def reversibility_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    return _reversibility_violation(state_probs(fam, kernel.theta), kernel.probs)


def _reversibility_violation(pi: np.ndarray, probs: np.ndarray) -> float:
    flow = pi[..., :, None] * probs
    return float(np.max(np.abs(flow - np.swapaxes(flow, -1, -2))))


REVERSIBILITY_TOL = 1e-8


def spectral_gap(fam: FiniteExpFamily, kernel: KernelMatrix):
    """Second-largest absolute eigenvalue of the kernel on L2(pi).

    Computed from the symmetrized matrix D^{1/2} K D^{-1/2} with D the
    stationary distribution; that route is only valid for reversible
    kernels, so detailed balance is verified first (to ``REVERSIBILITY_TOL``).
    A float for one kernel, an array of shape (G,) for a stack.
    """
    pi = state_probs(fam, kernel.theta)
    if _reversibility_violation(pi, kernel.probs) > REVERSIBILITY_TOL:
        raise ValueError("kernel is not reversible; symmetric eigensolve is invalid")
    root = np.sqrt(pi)
    sym = (root[..., :, None] / root[..., None, :]) * kernel.probs
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    mags = np.sort(np.abs(np.linalg.eigvalsh(sym)), axis=-1)
    return _per_point(mags[..., -2])


def kernel_distance(k1: KernelMatrix, k2: KernelMatrix):
    """Worst-case one-step disagreement, max_x sum_y |K1(x,y) - K2(x,y)|.

    The supremum over test functions bounded by 1 is attained by the sign
    pattern of the row difference, which reduces it to a row-wise L1 norm.
    A float for two kernels, an array of shape (G,) for two stacks.
    """
    if k1.probs.shape != k2.probs.shape:
        raise ValueError("kernels act on different state spaces")
    return _per_point(np.max(np.sum(np.abs(k1.probs - k2.probs), axis=-1), axis=-1))


@dataclass(frozen=True)
class ZetaEstimate:
    """Lower estimate of the kernel Lipschitz constant with grid metadata."""

    zeta: float
    n_pairs: int


def estimate_zeta(fam: FiniteExpFamily, thetas, pairs=None) -> ZetaEstimate:
    """Max difference quotient of kernel distance over parameter pairs.

    ``thetas`` is an array of parameter points; ``pairs`` an optional index
    array of point pairs (consecutive points when omitted).  Coincident
    pairs are skipped.  The estimate is a lower bound that stabilizes under
    grid refinement.  No kernel is built: the S * p flip probabilities of
    each point (its kernel's off-diagonal entries) are evaluated once, in
    blocks of at most 2^14 entries, and kept for the whole sweep; each
    pair's distance is read from them, pairs again in blocks.
    """
    thetas = _check_theta(fam, np.atleast_2d(np.asarray(thetas, dtype=float)))
    if len(thetas) < 2:
        raise ValueError("need at least two parameter points")
    if pairs is None:
        pairs = np.stack([np.arange(len(thetas) - 1), np.arange(1, len(thetas))], axis=1)
    pairs = np.asarray(pairs, dtype=np.int64)
    tables = _gibbs_tables(fam)
    width = fam.n_states * fam.n_coords
    flips = np.empty((len(thetas), fam.n_states, fam.n_coords))
    for block in _blocks(len(thetas), width):
        flips[block] = _flip_probs(fam, tables, thetas[block])
    zeta, n_pairs = _max_difference_quotient(
        thetas, pairs, lambda a, b: _row_distances(flips[a], flips[b]), width
    )
    if n_pairs == 0:
        raise ValueError("all parameter pairs coincide")
    return ZetaEstimate(zeta, n_pairs)


def m_step_stat_rows(fam: FiniteExpFamily, theta, m: int) -> np.ndarray:
    """Expected sufficient statistic after m steps from each start state.

    Row x holds the exact integral of phi against the m-step transition law
    out of x, i.e. (K^m @ suff_stats)[x]; shape (S, d), or (G, S, d) for a
    stack of G parameters.
    """
    return kernel_power(build_gibbs_random_scan(fam, theta), m).probs @ fam.suff_stats

