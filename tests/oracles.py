"""Independent reference implementations used by the tests.

These are deliberately naive (textbook recursions, exhaustive scans) and
share no code with the library paths they check.  The criterion oracles
read only the ``y``, ``w`` and ``n`` attributes of a sample and the
``family`` and ``bandwidths`` of a kernel spec, and evaluate the kernels
with their own scalar formulas.
"""

import math

import numpy as np


def naive_bspline(knots, degree, k, x):
    """Textbook two-term recursion for one basis function value.

    Base intervals are half-open; the last non-empty interval is closed at
    the global right boundary so that the basis sums to one there as well.
    """
    t = np.asarray(knots, dtype=float)

    def rec(p, i, x):
        if p == 0:
            if t[i] <= x < t[i + 1]:
                return 1.0
            if x == t[-1] and t[i] < t[i + 1] == t[-1]:
                return 1.0
            return 0.0
        total = 0.0
        if t[i + p] != t[i]:
            total += (x - t[i]) / (t[i + p] - t[i]) * rec(p - 1, i, x)
        if t[i + p + 1] != t[i + 1]:
            total += (t[i + p + 1] - x) / (t[i + p + 1] - t[i + 1]) * rec(p - 1, i + 1, x)
        return total

    return rec(degree, k, float(x))


def type1_quantile(data, p):
    """Sort-and-index inverse ECDF: x_(ceil(n*p)) with 1-based indexing."""
    s = sorted(float(v) for v in data)
    k = int(np.ceil(len(s) * p))
    return s[k - 1]


def lad_loss(values, weights, q):
    return float(np.sum(weights * np.abs(np.asarray(values) - q)))


def ls_loss(values, weights, q):
    return float(np.sum(weights * (np.asarray(values) - q) ** 2))


def lad_candidates(values):
    """Order statistics plus adjacent midpoints: the LAD minimizer set is covered."""
    s = np.sort(np.asarray(values, dtype=float))
    mids = 0.5 * (s[:-1] + s[1:]) if s.size > 1 else np.array([])
    return np.concatenate([s, mids])


def ecdf_sup_distance(x, y):
    """Brute-force sup distance of two ECDFs over all observed points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = 0.0
    for t in np.concatenate([x, y]):
        fx = np.mean(x <= t)
        fy = np.mean(y <= t)
        best = max(best, abs(fx - fy))
    return best


# --------------------------------------------------------------------------
# rank criterion: O(n^2) double loops over ordered pairs
# --------------------------------------------------------------------------


def kernel_1d(family, u):
    """Scalar kernel at u: uniform, gaussian or epanechnikov."""
    if family == "uniform":
        return 1.0 if abs(u) < 1.0 else 0.0
    if family == "gaussian":
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if family == "epanechnikov":
        return 0.75 * (1.0 - u * u) if abs(u) < 1.0 else 0.0
    raise ValueError(f"unknown kernel family {family!r}")


def product_kernel(spec, w_i, w0):
    """prod_k K((w_i[k] - w0[k]) / s_k) over the control coordinates."""
    total = 1.0
    for a, b, s in zip(w_i, w0, spec.bandwidths):
        total *= kernel_1d(spec.family, (a - b) / s)
    return total


def bruteforce_rank_strict_less(values):
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    out = np.zeros(n, dtype=np.intp)
    for i in range(n):
        for j in range(n):
            if j != i and v[j] < v[i]:
                out[i] += 1
    return out


def bruteforce_rank_criterion(sample, phi_values):
    phi = np.asarray(phi_values, dtype=float).ravel()
    n = sample.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j != i and phi[i] > phi[j]:
                total += sample.y[i]
    return total / (n * (n - 1))


def bruteforce_rank_criterion_discrete_w(sample, phi_values, w0):
    """Triple-indicator double loop, normalized by m(m-1) over the cell."""
    phi = np.asarray(phi_values, dtype=float).ravel()
    w0 = np.asarray(w0, dtype=float).ravel()
    match = [bool(np.all(sample.w[i] == w0)) for i in range(sample.n)]
    m = sum(match)
    if m < 2:
        return 0.0
    total = 0.0
    for i in range(sample.n):
        for j in range(sample.n):
            if j != i and match[i] and match[j] and phi[i] > phi[j]:
                total += sample.y[i]
    return total / (m * (m - 1))


def bruteforce_rank_criterion_weighted(sample, phi_values, w0, spec):
    phi = np.asarray(phi_values, dtype=float).ravel()
    n = sample.n
    total = 0.0
    for i in range(n):
        ui = product_kernel(spec, sample.w[i], w0)
        for j in range(n):
            if j != i and phi[i] > phi[j]:
                total += ui * sample.y[i] * product_kernel(spec, sample.w[j], w0)
    return total / (n * (n - 1))


def bruteforce_rank_criterion_pairwise(sample, phi_values, spec):
    phi = np.asarray(phi_values, dtype=float).ravel()
    n = sample.n
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j != i and phi[i] > phi[j]:
                total += sample.y[i] * product_kernel(spec, sample.w[i], sample.w[j])
    return total / (n * (n - 1))


# --------------------------------------------------------------------------
# series least squares on additive spline designs
# --------------------------------------------------------------------------


def pinned_block_lstsq(D, y, block_sizes):
    """Least squares of y on D with the first coefficient of every later block pinned to 0.

    D holds consecutive spline blocks of the given sizes.  Each clamped block
    sums to one, so each later block repeats the constant direction of the
    first; dropping its first column removes that repeat and leaves the span.
    """
    keep = np.ones(D.shape[1], dtype=bool)
    keep[np.cumsum(block_sizes)[:-1]] = False
    beta, *_ = np.linalg.lstsq(D[:, keep], y, rcond=None)
    gamma = np.zeros(D.shape[1])
    gamma[keep] = beta
    return gamma


def dependent_prefix_columns(X):
    """{j : rank(X[:, :j+1]) == rank(X[:, :j])}, by SVD ranks of every prefix."""
    ranks = [0] + [int(np.linalg.matrix_rank(X[:, : j + 1])) for j in range(X.shape[1])]
    return [j for j in range(X.shape[1]) if ranks[j + 1] == ranks[j]]
