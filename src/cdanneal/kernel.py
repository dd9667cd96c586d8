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

from .model import FiniteExpFamily, _check_theta, state_probs

__all__ = [
    "KernelMatrix",
    "ZetaEstimate",
    "build_gibbs_random_scan",
    "estimate_zeta",
    "flip_tables",
    "kernel_distance",
    "kernel_power",
    "kernel_to_csv",
    "reversibility_violation",
    "spectral_gap",
    "stationarity_violation",
]


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Row-stochastic transition matrix built at a fixed parameter."""

    theta: np.ndarray
    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


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
    index = {tuple(int(v) for v in row): i for i, row in enumerate(states)}
    up = np.empty((fam.n_states, p), dtype=np.int64)
    down = np.empty((fam.n_states, p), dtype=np.int64)
    for s, row in enumerate(states):
        for j in range(p):
            key = list(int(v) for v in row)
            key[j] = 1
            up[s, j] = index[tuple(key)]
            key[j] = 0
            down[s, j] = index[tuple(key)]
    tables = _GibbsTables(up, down)
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
    """One step of random-scan Gibbs: average of the p single-site kernels.

    A move out of s that sets coordinate j to the value of state y has
    probability sigmoid(score(y) - score(y')) / p, with y' the state that
    differs from y in coordinate j only.  The sigmoid is evaluated as
    exp(min(g, 0)) / (1 + exp(-|g|)), which never overflows and keeps full
    relative precision for move probabilities near 0.  Up and down targets
    can coincide with the source state, so the 2p moves of each row are
    summed by one scatter.
    """
    theta = _check_theta(fam, theta)
    tables = _gibbs_tables(fam)
    n = fam.n_states
    scores = fam.log_carrier + fam.suff_stats @ theta
    gap = scores[tables.target] - scores[tables.other]
    moves = np.exp(np.minimum(gap, 0.0)) / (1.0 + np.exp(-np.abs(gap))) / fam.n_coords
    probs = np.bincount(tables.scatter, weights=moves, minlength=n * n).reshape(n, n)
    return KernelMatrix(theta=theta, probs=probs)


def kernel_power(kernel: KernelMatrix, m: int) -> KernelMatrix:
    """Exact m-step transition matrix."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be an integer >= 1")
    if m == 1:
        return kernel
    return KernelMatrix(theta=kernel.theta, probs=np.linalg.matrix_power(kernel.probs, m))


def stationarity_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    pi = state_probs(fam, kernel.theta)
    return float(np.max(np.abs(pi @ kernel.probs - pi)))


def reversibility_violation(fam: FiniteExpFamily, kernel: KernelMatrix) -> float:
    pi = state_probs(fam, kernel.theta)
    flow = pi[:, None] * kernel.probs
    return float(np.max(np.abs(flow - flow.T)))


def spectral_gap(fam: FiniteExpFamily, kernel: KernelMatrix, check_tol: float = 1e-8) -> float:
    """Second-largest absolute eigenvalue of the kernel on L2(pi).

    Computed from the symmetrized matrix D^{1/2} K D^{-1/2} with D the
    stationary distribution; that route is only valid for reversible
    kernels, so detailed balance is verified first.
    """
    if reversibility_violation(fam, kernel) > check_tol:
        raise ValueError("kernel is not reversible; symmetric eigensolve is invalid")
    pi = state_probs(fam, kernel.theta)
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * kernel.probs
    sym = 0.5 * (sym + sym.T)
    mags = np.sort(np.abs(np.linalg.eigvalsh(sym)))
    return float(mags[-2])


def kernel_distance(k1: KernelMatrix, k2: KernelMatrix) -> float:
    """Worst-case one-step disagreement, max_x sum_y |K1(x,y) - K2(x,y)|.

    The supremum over test functions bounded by 1 is attained by the sign
    pattern of the row difference, which reduces it to a row-wise L1 norm.
    """
    if k1.probs.shape != k2.probs.shape:
        raise ValueError("kernels act on different state spaces")
    return float(np.max(np.sum(np.abs(k1.probs - k2.probs), axis=1)))


@dataclass(frozen=True)
class ZetaEstimate:
    """Lower estimate of the kernel Lipschitz constant with grid metadata."""

    zeta: float
    max_pair_distance: float
    n_pairs: int


def estimate_zeta(fam: FiniteExpFamily, thetas, pairs=None) -> ZetaEstimate:
    """Max difference quotient of kernel distance over parameter pairs.

    ``thetas`` is an array of parameter points; ``pairs`` an optional index
    array of point pairs (consecutive points when omitted).  Coincident
    pairs are skipped.  The estimate is a lower bound that stabilizes under
    grid refinement.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[0] < 2:
        raise ValueError("need at least two parameter points")
    if pairs is None:
        pairs = np.stack([np.arange(len(thetas) - 1), np.arange(1, len(thetas))], axis=1)
    pairs = np.asarray(pairs, dtype=np.int64)
    kernels = [build_gibbs_random_scan(fam, t) for t in thetas]
    best = 0.0
    max_dist = 0.0
    used = 0
    for a, b in pairs:
        sep = float(np.linalg.norm(thetas[a] - thetas[b]))
        if sep < 1e-12:
            continue
        used += 1
        max_dist = max(max_dist, sep)
        quot = kernel_distance(kernels[a], kernels[b]) / sep
        best = max(best, quot)
    if used == 0:
        raise ValueError("all parameter pairs coincide")
    return ZetaEstimate(zeta=best, max_pair_distance=max_dist, n_pairs=used)


def m_step_stat_rows(fam: FiniteExpFamily, theta, m: int) -> np.ndarray:
    """Expected sufficient statistic after m steps from each start state.

    Row x holds the exact integral of phi against the m-step transition law
    out of x, i.e. (K^m @ suff_stats)[x].
    """
    kernel = kernel_power(build_gibbs_random_scan(fam, theta), m)
    return kernel.probs @ fam.suff_stats


def m_step_stat_table(fam: FiniteExpFamily, thetas, m: int) -> np.ndarray:
    """Stacked :func:`m_step_stat_rows` over a parameter grid, shape (G, S, d)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    return np.stack([m_step_stat_rows(fam, t, m) for t in thetas])


def kernel_to_csv(fam: FiniteExpFamily, kernel: KernelMatrix, path) -> None:
    """Dump the dense matrix as CSV, header and first column the state labels."""
    labels = fam.state_labels()
    lines = ["state," + ",".join(labels)]
    for label, row in zip(labels, kernel.probs):
        lines.append(label + "," + ",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
