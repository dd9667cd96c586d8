"""Exponential families on small finite state spaces.

Everything here is exact: the state space is enumerated, so the log
normalizer, its gradient (the mean of the sufficient statistic) and its
Hessian (the covariance of the sufficient statistic) are plain sums over
states.  The enumeration cap (4096 states, ``MAX_STATES``) keeps every
downstream quantity computable to machine precision.  A sample enters every
exact computation only through its state counts (:func:`_data_counts`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FiniteExpFamily",
    "IdentifiabilityReport",
    "ParamBox",
    "boundary_layer_contains",
    "build_fvbm",
    "family_from_json",
    "fisher_info",
    "identifiability_report",
    "lattice_neighbor_pairs",
    "log_partition",
    "mean_parameter",
    "state_log_probs",
    "state_probs",
]

MAX_FVBM_SITES = 12
# Dense S x S kernels of a larger family would not fit: S = 8192 is 512 MB each.
MAX_STATES = 2**MAX_FVBM_SITES


@dataclass(frozen=True, eq=False)
class FiniteExpFamily:
    """Family p(x) = c(x) * exp(theta . phi(x) - A(theta)) over listed states.

    ``states`` holds one state per row, ``suff_stats`` the matching rows
    phi(x), and ``log_carrier`` the values log c(x).  At most ``MAX_STATES``
    states are accepted.  ``stat_bound`` is the uniform bound on the
    sufficient statistic, max_j max_x |phi_j(x)|, computed once.  Instances
    are immutable after construction and safe to share across threads.
    """

    states: np.ndarray
    suff_stats: np.ndarray
    log_carrier: np.ndarray
    stat_bound: float = field(init=False)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states))
        phi = np.asarray(self.suff_stats, dtype=float)
        logc = np.asarray(self.log_carrier, dtype=float).reshape(-1)
        if phi.ndim != 2:
            raise ValueError("suff_stats must be 2-d (one row per state)")
        if phi.shape[0] != states.shape[0] or logc.shape[0] != states.shape[0]:
            raise ValueError("states, suff_stats and log_carrier row counts differ")
        if states.shape[0] < 2:
            raise ValueError("need at least two states")
        if states.shape[0] > MAX_STATES:
            raise ValueError(
                f"{states.shape[0]} states exceed the enumeration cap of {MAX_STATES}"
            )
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(logc))):
            raise ValueError("non-finite sufficient statistic or carrier")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "suff_stats", phi)
        object.__setattr__(self, "log_carrier", logc)
        object.__setattr__(self, "stat_bound", float(np.max(np.abs(phi))))

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def n_coords(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        """Number of natural parameters d."""
        return self.suff_stats.shape[1]


class ParamBoxError(ValueError):
    """Raised when a parameter leaves the admissible box."""


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned compact parameter region [-half_width, half_width]^dim."""

    half_width: float
    dim: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")

    def contains(self, theta: np.ndarray) -> bool:
        """Whether max |theta_i| <= half_width; a NaN entry is never contained."""
        return bool(np.abs(np.asarray(theta, dtype=float)).max() <= self.half_width)

    def strictly_contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(np.abs(theta) < self.half_width))

    def boundary_distance(self, theta: np.ndarray) -> float:
        """Distance from theta to the box boundary (0 on the boundary)."""
        theta = np.asarray(theta, dtype=float)
        if not self.contains(theta):
            raise ParamBoxError("theta lies outside the parameter box")
        return float(np.min(self.half_width - np.abs(theta)))

    @property
    def diameter(self) -> float:
        return 2.0 * self.half_width * float(np.sqrt(self.dim))

    def clip(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), -self.half_width, self.half_width)

    def axis(self, per_axis: int) -> np.ndarray:
        """The coordinates of the lattice along one axis, shape (per_axis,)."""
        return np.linspace(-self.half_width, self.half_width, per_axis)

    def check_lattice(self, per_axis: int) -> None:
        """Refuse a lattice whose adjacent points coincide (lie under _COINCIDENT apart)."""
        spacing = float(np.diff(self.axis(per_axis)).min())
        if spacing < _COINCIDENT:
            raise ValueError(f"grid points {spacing:.3g} apart coincide (< {_COINCIDENT:g})")

    def grid(self, per_axis: int) -> np.ndarray:
        """Regular lattice over the box, shape (per_axis**dim, dim)."""
        if per_axis < 2:
            raise ValueError("per_axis must be at least 2")
        mesh = np.meshgrid(*([self.axis(per_axis)] * self.dim), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=(size, self.dim))


def lattice_neighbor_pairs(per_axis: int, dim: int) -> np.ndarray:
    """Index pairs of lattice points adjacent along one axis, axis by axis.

    Indices refer to the flat ordering produced by :meth:`ParamBox.grid`.
    """
    index = np.arange(per_axis**dim).reshape((per_axis,) * dim)
    lower = [np.delete(index, -1, axis=k).ravel() for k in range(dim)]
    upper = [np.delete(index, 0, axis=k).ravel() for k in range(dim)]
    return np.stack([np.concatenate(lower), np.concatenate(upper)], axis=1)


def _check_theta(fam: FiniteExpFamily, theta) -> np.ndarray:
    """theta as floats: one point of shape (d,) or a stack of points (G, d)."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim < 2:
        theta = theta.reshape(-1)
    if theta.ndim > 2 or theta.shape[-1] != fam.dim:
        raise ValueError(f"theta has shape {theta.shape}, expected ({fam.dim},) or (G, {fam.dim})")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return theta


def _per_point(values: np.ndarray):
    """A float for one parameter point, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


# Grid sweeps evaluate at most this many entries (points * S**2 for kernels)
# at once: the stacked intermediates stay a few hundred kB whatever the grid.
_BLOCK_ENTRIES = 2**14


def _blocks(n_items: int, entries_per_item: int):
    """Slices of range(n_items), in order, each of at most _BLOCK_ENTRIES entries (or one item)."""
    step = max(1, _BLOCK_ENTRIES // entries_per_item)
    return (slice(i, i + step) for i in range(0, n_items, step))


def _in_blocks(fam: FiniteExpFamily, items: np.ndarray, fn) -> np.ndarray:
    """``fn`` over consecutive blocks of ``items`` (rows), results joined along axis 0."""
    return np.concatenate([fn(items[b]) for b in _blocks(len(items), fam.n_states**2)])


# Parameter pairs closer than this coincide; difference quotients skip them.
_COINCIDENT = 1e-12


def _max_difference_quotient(points: np.ndarray, pairs: np.ndarray, distance, width: int):
    """(max of distance(a, b) / |points[a] - points[b]| over pairs, number of pairs used).

    ``distance`` maps the two index arrays of a block of pairs to one row
    per pair (a value, or values whose max is the pair's distance),
    gathering ``width`` entries per pair.  Rounding keeps the order of x / sep
    in x, so dividing before the max gives the bits of dividing after it.
    Coincident pairs are skipped, and with none left the maximum is -inf.
    Pairs go in blocks, so nothing of size (pairs, d) is ever held.
    """
    best, n_used = -math.inf, 0
    for block in _blocks(len(pairs), width):
        a, b = pairs[block, 0], pairs[block, 1]
        seps = np.linalg.norm(points[a] - points[b], axis=1)
        used = seps >= _COINCIDENT
        if np.any(used):
            dists = distance(a[used], b[used])
            seps = seps[used].reshape((-1,) + (1,) * (dists.ndim - 1))
            best = max(best, float(np.max(dists / seps)))
            n_used += int(np.count_nonzero(used))
    return best, n_used


def _scores(fam: FiniteExpFamily, theta: np.ndarray) -> np.ndarray:
    """log c(x) + theta . phi(x) per state at a checked theta, shape (S,) or (G, S)."""
    # One matrix-vector product per point: the same bits alone and in a stack.
    return fam.log_carrier + (fam.suff_stats @ theta[..., None])[..., 0]


def _log_sum_exp(fam: FiniteExpFamily, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(top, scores - top, log sum exp(scores - top)), the reduced axis kept.

    The max shift keeps exp from overflowing; the raw scores can reach
    dim * half_width * stat_bound.
    """
    scores = _scores(fam, _check_theta(fam, theta))
    top = scores.max(axis=-1, keepdims=True)
    shifted = scores - top
    return top, shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _index_array(items) -> np.ndarray:
    """A non-empty 1-d array of nonnegative integer state indices, as int64."""
    items = np.asarray(items)
    if items.ndim != 1 or items.size == 0:
        raise ValueError("data must be a non-empty 1-d array of state indices")
    if not np.issubdtype(items.dtype, np.integer):
        raise ValueError("data must contain state indices")
    if items.min() < 0:
        raise ValueError("negative state index")
    return items.astype(np.int64, copy=False)


def _data_counts(fam: FiniteExpFamily, data) -> np.ndarray:
    """State counts of a sample, shape (S,) int64; the sample size is their sum.

    A ``DataSample`` carries its counts, so only their length is checked
    (O(S)); an index array is validated and counted here.
    """
    counts = getattr(data, "counts", None)
    if counts is None:
        items = _index_array(data)
        if items.max() >= fam.n_states:
            raise ValueError("datum outside the state space")
        return np.bincount(items, minlength=fam.n_states)
    short = fam.n_states - counts.size
    if short < 0:
        raise ValueError("datum outside the state space")
    return counts if short == 0 else np.concatenate([counts, np.zeros(short, np.int64)])


def log_partition(fam: FiniteExpFamily, theta):
    """Log normalizer A(theta) = log sum_x c(x) exp(theta . phi(x)).

    A float for theta of shape (d,), an array of shape (G,) for a stack.
    """
    top, _, lse = _log_sum_exp(fam, theta)
    return _per_point((top + lse)[..., 0])


def state_log_probs(fam: FiniteExpFamily, theta) -> np.ndarray:
    """log p_theta(x) per state, shape (S,) or (G, S)."""
    _, shifted, lse = _log_sum_exp(fam, theta)
    return shifted - lse


def state_probs(fam: FiniteExpFamily, theta) -> np.ndarray:
    return np.exp(state_log_probs(fam, theta))


def mean_parameter(fam: FiniteExpFamily, theta) -> np.ndarray:
    """Gradient of the log normalizer, E_theta[phi(X)], shape (d,) or (G, d)."""
    return (state_probs(fam, theta)[..., None, :] @ fam.suff_stats)[..., 0, :]


def fisher_info(fam: FiniteExpFamily, theta):
    """Covariance of phi under p_theta and its smallest eigenvalue.

    The covariance equals the Hessian of the log normalizer; its smallest
    eigenvalue is returned alongside so callers can monitor how close the
    family is to a degenerate (linearly dependent) parametrization.  A stack
    of G points gives covariances (G, d, d) and eigenvalues (G,).
    """
    probs = state_probs(fam, theta)
    centered = fam.suff_stats - (probs[..., None, :] @ fam.suff_stats)
    cov = np.swapaxes(centered * probs[..., None], -1, -2) @ centered
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return cov, _per_point(np.linalg.eigvalsh(cov)[..., 0])


def build_fvbm(p: int) -> FiniteExpFamily:
    """Fully-visible Boltzmann machine on {0,1}^p.

    States are listed in lexicographic order.  The sufficient statistic
    stacks the products x_j * x_k for j <= k in row-major order of (j, k),
    so for p = 2 the components are (x1^2, x1 x2, x2^2) and the natural
    parameter matches a symmetric coupling matrix W via theta_(j,j) = W_jj
    and theta_(j,k) = 2 W_jk.  The carrier is uniform and the statistic
    bound is 1.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError("p must be an integer")
    if p < 1 or p > MAX_FVBM_SITES:
        raise ValueError(f"p must be in [1, {MAX_FVBM_SITES}] for exact enumeration")
    states = np.array(list(itertools.product((0, 1), repeat=p)), dtype=np.int64)
    cols = [states[:, j] * states[:, k] for j in range(p) for k in range(j, p)]
    phi = np.stack(cols, axis=1).astype(float)
    return FiniteExpFamily(states=states, suff_stats=phi, log_carrier=np.zeros(len(states)))


def family_from_json(doc: dict) -> FiniteExpFamily:
    """Build a family from a JSON document.

    Two forms are accepted: {"type": "fvbm", "p": 2} and the generic
    {"states": [[..]], "phi": [[..]], "log_carrier": [..]} with the carrier
    optional (defaults to uniform).
    """
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if doc.get("type") == "fvbm":
        return build_fvbm(doc["p"])
    if "states" not in doc or "phi" not in doc:
        raise ValueError("generic model document needs 'states' and 'phi'")
    states = np.asarray(doc["states"])
    phi = np.asarray(doc["phi"], dtype=float)
    logc = np.asarray(doc.get("log_carrier", np.zeros(len(states))), dtype=float)
    return FiniteExpFamily(states=states, suff_stats=phi, log_carrier=logc)


def boundary_layer_contains(box: ParamBox, theta, eta_t: float, stat_bound: float, dim: int) -> bool:
    """Whether theta sits within 2 * eta_t * sqrt(dim) * stat_bound of the boundary.

    This is the shrinking layer inside which the guarded update freezes; a
    single step of the bounded update cannot jump further than that toward
    the boundary, so freezing inside the layer keeps every iterate feasible.
    The distance to the boundary is half_width - max |theta_i|, bit for bit
    :meth:`ParamBox.boundary_distance`, because rounding hw - x keeps its
    order in x.
    """
    if eta_t < 0:
        raise ValueError("eta_t must be nonnegative")
    reach = float(np.abs(np.asarray(theta, dtype=float)).max())
    if not reach <= box.half_width:
        raise ParamBoxError("theta lies outside the parameter box")
    return box.half_width - reach <= 2.0 * eta_t * math.sqrt(dim) * stat_bound


# Fisher-information probes of identifiability_report: uniform draws from
# the box at a fixed seed, and the smallest eigenvalue still called regular.
IDENTIFIABILITY_PROBES = 20
IDENTIFIABILITY_SEED = 0
IDENTIFIABILITY_TOL = 1e-10


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Smallest Fisher eigenvalue seen over the probe points, with a verdict."""

    min_eigenvalue: float

    @property
    def ok(self) -> bool:
        return self.min_eigenvalue >= IDENTIFIABILITY_TOL


def identifiability_report(fam: FiniteExpFamily, box: ParamBox) -> IdentifiabilityReport:
    """Probe random parameters for near-singular Fisher information.

    ``IDENTIFIABILITY_PROBES`` points are drawn from the box with seed
    ``IDENTIFIABILITY_SEED``.  A duplicated or linearly dependent
    sufficient-statistic column makes the covariance singular at every
    theta; such families are reported rather than silently accepted.
    """
    thetas = box.sample(np.random.default_rng(IDENTIFIABILITY_SEED), IDENTIFIABILITY_PROBES)
    eigs = _in_blocks(fam, thetas, lambda t: fisher_info(fam, t)[1])
    return IdentifiabilityReport(min_eigenvalue=float(np.min(eigs)))
