"""Exponential families on small finite state spaces.

Everything here is exact: the state space is enumerated, so the log
normalizer, its gradient (the mean of the sufficient statistic) and its
Hessian (the covariance of the sufficient statistic) are plain sums over
states.  The enumeration cap (4096 states) keeps every downstream quantity
computable to machine precision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class FiniteExpFamily:
    """Family p(x) = c(x) * exp(theta . phi(x) - A(theta)) over listed states.

    ``states`` holds one state per row, ``suff_stats`` the matching rows
    phi(x), and ``log_carrier`` the values log c(x).  Instances are
    immutable after construction and safe to share across threads.
    """

    states: np.ndarray
    suff_stats: np.ndarray
    log_carrier: np.ndarray

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
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(logc))):
            raise ValueError("non-finite sufficient statistic or carrier")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "suff_stats", phi)
        object.__setattr__(self, "log_carrier", logc)

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

    @property
    def stat_bound(self) -> float:
        """Uniform bound on the sufficient statistic, max_j max_x |phi_j(x)|."""
        return float(np.max(np.abs(self.suff_stats)))

    def state_labels(self) -> list[str]:
        return ["".join(str(int(v)) for v in row) for row in self.states]


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
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(np.abs(theta) <= self.half_width))

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

    def grid(self, per_axis: int) -> np.ndarray:
        """Regular lattice over the box, shape (per_axis**dim, dim)."""
        if per_axis < 2:
            raise ValueError("per_axis must be at least 2")
        axis = np.linspace(-self.half_width, self.half_width, per_axis)
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=(size, self.dim))


def lattice_neighbor_pairs(per_axis: int, dim: int) -> np.ndarray:
    """Index pairs of lattice points adjacent along one axis.

    Indices refer to the flat ordering produced by :meth:`ParamBox.grid`.
    """
    shape = (per_axis,) * dim
    strides = [int(np.prod(shape[k + 1:])) for k in range(dim)]
    pairs = []
    for flat, digits in enumerate(itertools.product(range(per_axis), repeat=dim)):
        for k in range(dim):
            if digits[k] + 1 < per_axis:
                pairs.append((flat, flat + strides[k]))
    return np.asarray(pairs, dtype=np.int64)


def _check_theta(fam: FiniteExpFamily, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.shape[0] != fam.dim:
        raise ValueError(f"theta has length {theta.shape[0]}, expected {fam.dim}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return theta


def _data_indices(fam: FiniteExpFamily, data) -> np.ndarray:
    """State indices of a sample (a ``DataSample`` or an index array) as int64."""
    items = np.asarray(getattr(data, "items", data))
    if items.ndim != 1 or items.size == 0:
        raise ValueError("data must be a non-empty 1-d array of state indices")
    if not np.issubdtype(items.dtype, np.integer):
        raise ValueError("data must contain state indices")
    if items.min() < 0 or items.max() >= fam.n_states:
        raise ValueError("datum outside the state space")
    return items.astype(np.int64, copy=False)


def log_partition(fam: FiniteExpFamily, theta) -> float:
    """Log normalizer A(theta) = log sum_x c(x) exp(theta . phi(x)).

    Uses a max shift before exponentiating; the raw scores can reach
    dim * half_width * stat_bound and overflow otherwise.
    """
    theta = _check_theta(fam, theta)
    scores = fam.log_carrier + fam.suff_stats @ theta
    top = float(np.max(scores))
    return top + float(np.log(np.sum(np.exp(scores - top))))


def state_log_probs(fam: FiniteExpFamily, theta) -> np.ndarray:
    theta = _check_theta(fam, theta)
    scores = fam.log_carrier + fam.suff_stats @ theta
    top = float(np.max(scores))
    return scores - top - float(np.log(np.sum(np.exp(scores - top))))


def state_probs(fam: FiniteExpFamily, theta) -> np.ndarray:
    return np.exp(state_log_probs(fam, theta))


def mean_parameter(fam: FiniteExpFamily, theta) -> np.ndarray:
    """Gradient of the log normalizer, E_theta[phi(X)], by enumeration."""
    return state_probs(fam, theta) @ fam.suff_stats


def fisher_info(fam: FiniteExpFamily, theta) -> tuple[np.ndarray, float]:
    """Covariance of phi under p_theta and its smallest eigenvalue.

    The covariance equals the Hessian of the log normalizer; its smallest
    eigenvalue is returned alongside so callers can monitor how close the
    family is to a degenerate (linearly dependent) parametrization.
    """
    probs = state_probs(fam, theta)
    centered = fam.suff_stats - probs @ fam.suff_stats
    cov = (centered * probs[:, None]).T @ centered
    cov = 0.5 * (cov + cov.T)
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    return cov, min_eig


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
        return build_fvbm(int(doc["p"]))
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
    """
    theta = np.asarray(theta, dtype=float)
    if eta_t < 0:
        raise ValueError("eta_t must be nonnegative")
    return box.boundary_distance(theta) <= 2.0 * eta_t * float(np.sqrt(dim)) * stat_bound


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Smallest Fisher eigenvalue seen over probe points, with a verdict."""

    min_eigenvalue: float
    worst_theta: np.ndarray
    n_probes: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.min_eigenvalue >= self.tol


def identifiability_report(
    fam: FiniteExpFamily,
    box: ParamBox,
    n_probes: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
) -> IdentifiabilityReport:
    """Probe random parameters for near-singular Fisher information.

    A duplicated or linearly dependent sufficient-statistic column makes the
    covariance singular at every theta; such families are reported rather
    than silently accepted.
    """
    rng = np.random.default_rng(seed)
    thetas = box.sample(rng, n_probes)
    worst = np.inf
    worst_theta = thetas[0]
    for theta in thetas:
        _, eig = fisher_info(fam, theta)
        if eig < worst:
            worst, worst_theta = eig, theta
    return IdentifiabilityReport(
        min_eigenvalue=float(worst), worst_theta=worst_theta, n_probes=n_probes, tol=tol
    )
