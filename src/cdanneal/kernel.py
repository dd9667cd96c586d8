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

from .model import FiniteExpFamily, _check_theta, _in_blocks, _per_point, _scores, state_probs

__all__ = [
    "KernelMatrix",
    "ZetaEstimate",
    "build_gibbs_random_scan",
    "estimate_zeta",
    "flip_tables",
    "kernel_distance",
    "kernel_power",
    "m_step_stat_rows",
    "m_step_stat_table",
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
    1/0.  The flat arrays list the 2p moves out of every state in (s, j,
    up/down) order: ``target`` is where the move lands, ``other`` the state
    that differs from it in coordinate j only, and ``scatter`` the flat
    position s * n_states + target of the move in the transition matrix.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray):
        n = up.shape[0]
        self.up = up
        self.down = down
        self.target = np.stack([up, down], axis=2).reshape(-1)
        self.other = np.stack([down, up], axis=2).reshape(-1)
        self.scatter = np.repeat(np.arange(n) * n, 2 * up.shape[1]) + self.target


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
    tables = _GibbsTables(index[code[:, None] | bits], index[code[:, None] & ~bits])
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
    return KernelMatrix(theta=theta, probs=_gibbs_probs(fam, _gibbs_tables(fam), theta))


def _gibbs_probs(fam: FiniteExpFamily, tables: _GibbsTables, theta: np.ndarray) -> np.ndarray:
    """Transition matrix of :func:`build_gibbs_random_scan` at an already checked theta.

    ``tables`` is ``_gibbs_tables(fam)``; a caller that builds many kernels
    of one family looks it up once and skips every check.
    """
    n = fam.n_states
    scores = _scores(fam, theta)
    gap = scores.take(tables.target, axis=-1) - scores.take(tables.other, axis=-1)
    moves = np.exp(np.minimum(gap, 0.0)) / (1.0 + np.exp(-np.abs(gap))) / fam.n_coords
    scatter = tables.scatter
    if theta.ndim == 2:  # matrix g fills the flat positions from g * n * n on
        scatter = (np.arange(len(theta))[:, None] * (n * n) + scatter).reshape(-1)
    probs = np.bincount(scatter, weights=moves.ravel(), minlength=theta.size // fam.dim * n * n)
    return probs.reshape(theta.shape[:-1] + (n, n))


def _check_chain_length(m) -> None:
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be an integer >= 1")


def kernel_power(kernel: KernelMatrix, m: int) -> KernelMatrix:
    """Exact m-step transition matrix (of every matrix of a stack)."""
    _check_chain_length(m)
    if m == 1:
        return kernel
    return KernelMatrix(theta=kernel.theta, probs=np.linalg.matrix_power(kernel.probs, m))


def stationarity_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    pi = state_probs(fam, kernel.theta)[..., None, :]
    return float(np.max(np.abs(pi @ kernel.probs - pi)))


def reversibility_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    pi = state_probs(fam, kernel.theta)
    flow = pi[..., :, None] * kernel.probs
    return float(np.max(np.abs(flow - np.swapaxes(flow, -1, -2))))


REVERSIBILITY_TOL = 1e-8


def spectral_gap(fam: FiniteExpFamily, kernel: KernelMatrix):
    """Second-largest absolute eigenvalue of the kernel on L2(pi).

    Computed from the symmetrized matrix D^{1/2} K D^{-1/2} with D the
    stationary distribution; that route is only valid for reversible
    kernels, so detailed balance is verified first (to ``REVERSIBILITY_TOL``).
    A float for one kernel, an array of shape (G,) for a stack.
    """
    if reversibility_violation(fam, kernel) > REVERSIBILITY_TOL:
        raise ValueError("kernel is not reversible; symmetric eigensolve is invalid")
    root = np.sqrt(state_probs(fam, kernel.theta))
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
    grid refinement.  Pairs are evaluated in blocks of stacked kernels.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[0] < 2:
        raise ValueError("need at least two parameter points")
    if pairs is None:
        pairs = np.stack([np.arange(len(thetas) - 1), np.arange(1, len(thetas))], axis=1)
    pairs = np.asarray(pairs, dtype=np.int64)

    def separation_and_distance(block):
        a, b = thetas[block[:, 0]], thetas[block[:, 1]]
        dist = kernel_distance(build_gibbs_random_scan(fam, a), build_gibbs_random_scan(fam, b))
        return np.stack([np.linalg.norm(a - b, axis=1), dist], axis=1)

    seps, dists = _in_blocks(fam, pairs, separation_and_distance).T
    used = seps >= 1e-12
    if not np.any(used):
        raise ValueError("all parameter pairs coincide")
    seps, dists = seps[used], dists[used]
    return ZetaEstimate(float(np.max(dists / seps)), len(seps))


def m_step_stat_rows(fam: FiniteExpFamily, theta, m: int) -> np.ndarray:
    """Expected sufficient statistic after m steps from each start state.

    Row x holds the exact integral of phi against the m-step transition law
    out of x, i.e. (K^m @ suff_stats)[x]; shape (S, d), or (G, S, d) for a
    stack of G parameters.
    """
    return kernel_power(build_gibbs_random_scan(fam, theta), m).probs @ fam.suff_stats


def m_step_stat_table(fam: FiniteExpFamily, thetas, m: int) -> np.ndarray:
    """:func:`m_step_stat_rows` over a parameter grid, shape (G, S, d), in blocks."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return _in_blocks(fam, thetas, lambda t: m_step_stat_rows(fam, t, m))
