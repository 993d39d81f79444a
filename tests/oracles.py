"""Independent reference implementations used by the tests.

These are deliberately naive (textbook recursions, exhaustive scans, plain
sort-and-binary-search formulas) and share no code with the library paths
they check.  The criterion oracles read only the ``y``, ``w`` and ``n``
attributes of a sample and the ``family`` and ``bandwidths`` of a kernel
spec, and evaluate the kernels with their own scalar formulas.
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


def sorted_rank_strict_less(values):
    """#{j : v_j < v_i} by binary search: the tie group's first index in sort(v)."""
    v = np.asarray(values, dtype=float).ravel()
    return np.searchsorted(np.sort(v), v, side="left")


def sorted_weighted_less_sums(phi, u):
    """sum of u_j over phi_j < phi_i: prefix sums of u in stable sort order of phi,
    read at each value's binary-search position."""
    order = np.argsort(phi, kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(u[order])))
    return prefix[np.searchsorted(phi[order], phi, side="left")]


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


# --------------------------------------------------------------------------
# the rank search: Nelder-Mead and its objective in their first numpy form
# --------------------------------------------------------------------------

NM_F_TOL = 1e-10  # simplex value-spread tolerance
NM_X_TOL = 1e-6  # simplex parameter-spread tolerance


def reference_rank_objective(D, offset, weighted_y, norm):
    """gamma -> sum_i weighted_y_i * #{j : phi_j < phi_i} / norm at phi = offset + D @ gamma.

    The counts are integers from the binary-search ranking above, so they
    are exact however they are found; the floating-point steps are the
    optimizer's: one matrix-vector product plus the offset, and one dot
    product with the integer counts, divided by the normalizer.
    """
    return lambda gamma: float(weighted_y @ sorted_rank_strict_less(offset + D @ gamma)) / norm


def reference_nelder_mead(f, x0, step, max_iters):
    """Minimize f from x0; returns (x, fx).  The optimizer's search, step for step.

    Standard reflect/expand/contract/shrink moves (1, 2, 1/2, 1/2).  Stops
    on value-spread < NM_F_TOL or parameter-spread < NM_X_TOL, whichever
    comes first.  On a value-spread (plateau) stop the centroid of the final
    simplex replaces the best vertex unless it evaluates worse.
    """
    dim = x0.size
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for i in range(dim):
        sim[i + 1] = x0
        sim[i + 1, i] += step
    fsim = np.array([f(v) for v in sim])

    plateau = False
    for _ in range(max_iters):
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]

        if fsim[-1] - fsim[0] < NM_F_TOL:
            plateau = True
            break
        if np.max(np.abs(sim[1:] - sim[0])) < NM_X_TOL:
            break

        centroid = np.mean(sim[:-1], axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = f(xr)
        if fr < fsim[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = f(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + 0.5 * (xr - centroid)
                fc = f(xc)
                accept = fc <= fr
            else:
                xc = centroid - 0.5 * (centroid - sim[-1])
                fc = f(xc)
                accept = fc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fsim[i] = f(sim[i])

    order = np.argsort(fsim, kind="stable")
    sim, fsim = sim[order], fsim[order]
    best_x, best_f = sim[0], fsim[0]
    if plateau:
        cand = np.mean(sim, axis=0)
        fcand = f(cand)
        if fcand <= best_f:
            best_x, best_f = cand, fcand
    return best_x, best_f


# --------------------------------------------------------------------------
# the synthetic DGPs: the whole-array latent draw in its first form
# --------------------------------------------------------------------------


def reference_latent_draw(variant, sigma, c, rng, size):
    """Draw Z1, Z2 and U whole, in that order; returns (z1, z2, w, ystar, h_arg).

    ``w`` is None for the baseline DGP.  Every array of the draw and every
    temporary of the formulas is alive at once.
    """
    z1 = 1.0 + sigma * rng.standard_normal(size)
    z2 = rng.uniform(-c, c, size)
    u = rng.standard_normal(size)
    if variant == "baseline":
        ystar = z1 + np.sin(z2) + u
        return z1, z2, None, ystar, ystar
    w = 0.5 * z2 + 0.5 * u
    ystar = z1 + np.sin(z2) + np.cos(w) + u * w**2
    return z1, z2, w, ystar, ystar + w


def reference_kink_quantiles(variant, sigma, c, rng, draws):
    """(q30, q70) of h's argument over one whole-array draw of ``draws`` values from rng."""
    h_arg = reference_latent_draw(variant, sigma, c, rng, draws)[4]
    q30, q70 = np.quantile(h_arg, [0.3, 0.7], overwrite_input=True)
    return float(q30), float(q70)


def reference_generate(variant, n, sigma, c, a, b, draws, kink_rng, sample_rng):
    """(y, z, w, ystar) of one sample: kinks from kink_rng, the sample from sample_rng.

    h is written as identity plus its two tail corrections; ``w`` is None
    for the baseline DGP.
    """
    q30, q70 = reference_kink_quantiles(variant, sigma, c, kink_rng, draws)
    z1, z2, w, ystar, h_arg = reference_latent_draw(variant, sigma, c, sample_rng, n)
    v = sample_rng.standard_normal(n)
    y = (
        h_arg
        + (b - 1.0) * np.maximum(h_arg - q70, 0.0)
        + (1.0 - a) * np.maximum(q30 - h_arg, 0.0)
    )
    y = y + v if w is None else y + v * np.abs(w)
    return y, np.column_stack([z1, z2]), w, ystar
