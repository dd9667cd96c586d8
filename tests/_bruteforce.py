"""Reference computations the package's fast paths are checked against.

The path-enumeration oracle enumerates every joint sequence of
(coordinate, new value) choices the random-scan sampler can make across
all chains and steps, computing each path's probability from raw state
weights.  It is deliberately independent of the package's kernel-matrix
and moment machinery so it can vouch for them.  The CD step reference
uses only the public, validating kernel and RNG entries, so it can vouch
for the learner's per-run sampler.  The kernel checks (distance,
stationarity, detailed balance) read a kernel as the plain (S, S) array
the package builds, or a (G, S, S) stack of them.
"""

import itertools
import math

import numpy as np


def items_of(data):
    """The state-index array whose counts are ``data.counts``, states in ascending order.

    Every exact function reads a sample only through its counts, so the order
    of the indices does not matter; this feeds the index-array path.
    """
    return np.repeat(np.arange(data.counts.size), data.counts)


def enumerate_cd_moments(fam, theta, items, m, eta, center):
    """Expectations of the CD gradient and the post-step squared distance.

    Returns (E[g], E[|theta + eta*g - center|^2]) where g is the CD-m
    gradient and the expectation enumerates all (2p)^(n*m) joint chain
    paths.  Assumes the unfrozen update branch.
    """
    theta = np.asarray(theta, dtype=float)
    center = np.asarray(center, dtype=float)
    items = list(items)
    p = fam.states.shape[1]
    index = {tuple(int(v) for v in row): i for i, row in enumerate(fam.states)}
    scores = fam.log_carrier + fam.suff_stats @ theta
    n = len(items)
    emp = fam.suff_stats[items].mean(axis=0)

    step_choices = list(itertools.product(range(p), (0, 1)))
    expected_grad = np.zeros(fam.dim)
    expected_sq = 0.0
    total_prob = 0.0
    for joint in itertools.product(step_choices, repeat=n * m):
        prob = 1.0
        states = [list(int(v) for v in fam.states[i]) for i in items]
        ptr = 0
        for i in range(n):
            for _ in range(m):
                j, b = joint[ptr]
                ptr += 1
                low = list(states[i])
                low[j] = 0
                high = list(states[i])
                high[j] = 1
                w0 = math.exp(scores[index[tuple(low)]])
                w1 = math.exp(scores[index[tuple(high)]])
                prob *= ((w1 if b else w0) / (w0 + w1)) / p
                states[i][j] = b
        ends = [index[tuple(s)] for s in states]
        grad = emp - fam.suff_stats[ends].mean(axis=0)
        expected_grad += prob * grad
        moved = theta + eta * grad - center
        expected_sq += prob * float(moved @ moved)
        total_prob += prob
    assert abs(total_prob - 1.0) < 1e-12
    return expected_grad, expected_sq


def grid_bounds_per_point(fam, box, theta_star, per_axis):
    """The four grid extrema of ``compute_grid_bounds``, one point at a time.

    Probabilities, log normalizers, covariances and spectral gaps are summed
    here directly; only the one-point Gibbs kernel comes from the package
    (it has its own per-site reference in the kernel tests).
    """
    from cdanneal.kernel import build_gibbs_random_scan

    theta_star = np.asarray(theta_star, dtype=float)
    phi = fam.suff_stats

    def log_z(theta):
        scores = fam.log_carrier + phi @ theta
        top = scores.max()
        return top + math.log(np.exp(scores - top).sum())

    def probs(theta):
        return np.exp(fam.log_carrier + phi @ theta - log_z(theta))

    grid = box.grid(per_axis)
    pairs = [
        (a, a + per_axis ** (box.dim - 1 - k))
        for a, digits in enumerate(itertools.product(range(per_axis), repeat=box.dim))
        for k in range(box.dim)
        if digits[k] + 1 < per_axis
    ]
    min_eig, mixing, fvals, kernels = math.inf, 0.0, [], []
    for theta in grid:
        pi = probs(theta)
        centered = phi - pi @ phi
        cov = (centered * pi[:, None]).T @ centered
        min_eig = min(min_eig, np.linalg.eigvalsh(0.5 * (cov + cov.T))[0])
        exponent = log_z(theta) + log_z(2.0 * theta_star - theta) - 2.0 * log_z(theta_star)
        fvals.append(math.sqrt(max(math.expm1(exponent), 0.0)))
        kernel = build_gibbs_random_scan(fam, theta)
        kernels.append(kernel)
        root = np.sqrt(pi)
        sym = root[:, None] * kernel / root[None, :]
        mags = sorted(abs(v) for v in np.linalg.eigvalsh(0.5 * (sym + sym.T)))
        mixing = max(mixing, mags[-2])
    lipschitz = zeta = 0.0
    for a, b in pairs:
        sep = math.sqrt(sum((x - y) ** 2 for x, y in zip(grid[a], grid[b])))
        lipschitz = max(lipschitz, abs(fvals[a] - fvals[b]) / sep)
        rows = np.abs(kernels[a] - kernels[b]).sum(axis=1)
        zeta = max(zeta, rows.max() / sep)
    return {
        "min_fisher_eig": min_eig,
        "divergence_lipschitz": lipschitz,
        "mixing_bound": mixing,
        "kernel_lipschitz": zeta,
    }


def _stationary_law(fam, theta):
    """State probabilities at one theta from the raw weights exp(log carrier + phi @ theta)."""
    scores = fam.log_carrier + fam.suff_stats @ np.asarray(theta, dtype=float)
    weights = np.exp(scores - scores.max())
    return weights / weights.sum()


def stationarity_violation(fam, theta, probs):
    """max_y |(pi K)(y) - pi(y)| for the kernel ``probs`` (S, S) at one theta."""
    pi = _stationary_law(fam, theta)
    return float(np.max(np.abs(pi @ probs - pi)))


def reversibility_violation(fam, theta, probs):
    """max_{x,y} |pi(x) K(x, y) - pi(y) K(y, x)| for the kernel ``probs`` (S, S) at one theta."""
    flow = _stationary_law(fam, theta)[:, None] * probs
    return float(np.max(np.abs(flow - flow.T)))


def kernel_distance(k1, k2):
    """Worst-case one-step disagreement, max_x sum_y |K1(x,y) - K2(x,y)|.

    The supremum over test functions bounded by 1 is attained by the sign
    pattern of the row difference, which reduces it to a row-wise L1 norm.
    A float for two kernels (S, S), an array (G,) for two stacks (G, S, S).
    """
    if k1.shape != k2.shape:
        raise ValueError("kernels act on different state spaces")
    dist = np.max(np.sum(np.abs(k1 - k2), axis=-1), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def zeta_per_pair(fam, thetas, pairs):
    """``estimate_zeta(fam, thetas, pairs)`` from one ``kernel_distance`` per pair.

    Each point's kernel is built alone by ``build_gibbs_random_scan``;
    pairs less than 1e-12 apart are skipped.  Returns (zeta, pairs used).
    """
    from cdanneal.kernel import build_gibbs_random_scan

    kernels = [build_gibbs_random_scan(fam, theta) for theta in thetas]
    zeta, used = 0.0, 0
    for a, b in pairs:
        sep = math.sqrt(sum((x - y) ** 2 for x, y in zip(thetas[a], thetas[b])))
        if sep >= 1e-12:
            zeta = max(zeta, kernel_distance(kernels[a], kernels[b]) / sep)
            used += 1
    return zeta, used


def cd_endpoints(fam, theta, start, m, rng):
    """Endpoint counts of m-step chains, ``start[s]`` of them started at state s.

    K^m is ``np.linalg.matrix_power`` of the public ``build_gibbs_random_scan``,
    not the package's own power; the counts are one multinomial draw per
    occupied row.
    """
    from cdanneal.kernel import build_gibbs_random_scan

    km = np.linalg.matrix_power(build_gibbs_random_scan(fam, theta), m)
    occupied = np.flatnonzero(start)
    return rng.multinomial(start[occupied], km[occupied]).sum(axis=0)


def cd_step(fam, theta, eta, start, m, master_seed, replicate, t):
    """theta_{t+1} of an unfrozen CD-m step t, drawn from ``counter_rng(master_seed, replicate, t, 1)``."""
    from cdanneal.learner import counter_rng

    end = cd_endpoints(fam, theta, start, m, counter_rng(master_seed, replicate, t, 1))
    return theta + eta * ((start - end) @ fam.suff_stats / start.sum())
