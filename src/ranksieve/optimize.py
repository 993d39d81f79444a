"""Maximization of the rank criterion over sieve coefficients.

The criterion is piecewise constant in the coefficients (it only depends on
the induced ordering of the fitted values), so its gradient is zero almost
everywhere and gradient-based methods are useless.  We use Nelder-Mead
simplex search restarted from random initializations.  Two departures from
a textbook simplex matter here:

* convergence is declared when EITHER the function-value spread or the
  parameter spread of the simplex is small - on a criterion plateau the
  value spread hits zero long before the simplex collapses;
* on a plateau stop, the centroid of the final simplex is preferred to an
  arbitrary vertex (and kept only if its criterion value is not worse).

The objective is the criterion that ``rankcrit.bind_criterion`` binds to the
sample, the same one the public evaluators use, at the candidate values
offset + D @ gamma of the rows that enter.  A series least-squares fit over
the same function space is provided as the comparison estimator that takes
the observed outcome at face value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyWindowError, NumericalError
from .rankcrit import (  # the variant classes are re-exported from here
    CriterionVariant,
    DiscreteW,
    FullRank,
    Pairwise,
    Sample,
    Weighted,
    bind_criterion,
    rank_criterion,
)
# bench/layers.py wraps these two by name on this module, so they stay importable here
from .rankcrit import kernel_weights, rank_strict_less
from .sieve import PhiEstimate, SieveSpec, apply_normalization, design_matrix

F_TOL = 1e-10  # simplex value-spread tolerance
X_TOL = 1e-6  # simplex parameter-spread tolerance


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start Nelder-Mead settings.

    ``init_scale`` is the half-width of the uniform box from which each
    start's coefficients are drawn; the initial simplex step is half of it.
    The stopping tolerances are the module constants ``F_TOL`` and
    ``X_TOL``, combined with OR (see module docstring).
    """

    n_starts: int = 20
    max_iters: int = 400
    init_scale: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1 or self.max_iters < 1:
            raise ValueError("n_starts and max_iters must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


def _build_objective(
    sample: Sample, spec: SieveSpec, variant: CriterionVariant
) -> Callable[[np.ndarray], float]:
    """Closure gamma -> criterion value; the design covers only the rows that enter."""
    crit = bind_criterion(sample, variant)
    if crit.empty:
        raise EmptyWindowError(
            f"control cell or window around w0={variant.w0.tolist()} has "
            f"{crit.n_used} observation(s) with weight; need >= 2"
        )
    D, offset = design_matrix(spec, sample.z[crit.rows])
    return lambda gamma: crit.value(offset + D @ gamma)


# --------------------------------------------------------------------------
# Nelder-Mead
# --------------------------------------------------------------------------


def _nelder_mead(f, x0: np.ndarray, step: float, cfg: OptimizerConfig):
    """Minimize f from x0; returns (x, fx).

    Standard reflect/expand/contract/shrink moves (1, 2, 1/2, 1/2).  Stops
    on value-spread < F_TOL (plateau: the simplex sits inside one constant
    piece) or parameter-spread < X_TOL, whichever comes first.  On a
    plateau stop the centroid of the final simplex replaces the best vertex
    unless it evaluates worse.
    """
    dim = x0.size
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for i in range(dim):
        sim[i + 1] = x0
        sim[i + 1, i] += step
    fsim = np.array([f(v) for v in sim])

    plateau = False
    for _ in range(cfg.max_iters):
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]

        if fsim[-1] - fsim[0] < F_TOL:
            plateau = True
            break
        if np.max(np.abs(sim[1:] - sim[0])) < X_TOL:
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


def _mask64(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def maximize_rank_criterion(
    sample: Sample,
    spec: SieveSpec,
    variant: CriterionVariant,
    cfg: OptimizerConfig,
) -> PhiEstimate:
    """Fit the sieve coefficients by maximizing the selected criterion variant.

    Runs ``cfg.n_starts`` Nelder-Mead searches from coefficient vectors
    drawn uniformly from [-init_scale, init_scale]^d, each start on its own
    RNG stream (seed XOR start index), and keeps the best result.  Ties on
    the achieved value break toward the smaller coefficient norm, then the
    lower start index, so the outcome does not depend on scheduling.  The
    returned estimate is normalized; ``degenerate`` is set when no start
    improved on the zero coefficient vector.
    """
    n_free = spec.n_free
    if n_free == 0:
        raise NumericalError("spec has no free coefficients to search over")
    objective = _build_objective(sample, spec, variant)

    best = None  # (value, norm, start_index, gamma)
    for s in range(cfg.n_starts):
        rng = np.random.default_rng(_mask64(cfg.rng_seed) ^ s)
        x0 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=n_free)
        x, fx = _nelder_mead(lambda g: -objective(g), x0, 0.5 * cfg.init_scale, cfg)
        key = (fx, float(np.linalg.norm(x)), s)
        if best is None or key < best[0]:
            best = (key, x)
    (neg_value, _, _), gamma = best
    value = -neg_value

    zero = np.zeros(n_free)
    value_zero = objective(zero)
    degenerate = not value > value_zero
    if value < value_zero:
        gamma, value = zero, value_zero

    estimate = PhiEstimate(
        spec=spec, coefficients=gamma, criterion_value=value, degenerate=degenerate
    )
    return apply_normalization(estimate)


# --------------------------------------------------------------------------
# series least squares
# --------------------------------------------------------------------------


def _deficient_columns(X: np.ndarray) -> list[int]:
    """Indices of columns that are (numerically) linear combinations of earlier ones."""
    rtol = 1e-10  # residual norm threshold, relative to max(column norm, 1)
    n, k = X.shape
    basis = np.zeros((n, 0))
    bad = []
    for j in range(k):
        col = X[:, j]
        orig = np.linalg.norm(col)
        resid = col - basis @ (basis.T @ col)
        resid = resid - basis @ (basis.T @ resid)  # one re-orthogonalization pass
        rnorm = np.linalg.norm(resid)
        if rnorm <= rtol * max(orig, 1.0):
            bad.append(j)
        else:
            basis = np.column_stack([basis, resid / rnorm])
    return bad


def ols_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of X."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def series_ols(sample: Sample, spec: SieveSpec) -> PhiEstimate:
    """Series regression of y on the spec's free-coefficient columns.

    Pinned identity terms are moved to the response.  An intercept column
    is added only when the free columns do not already span constants (a
    clamped B-spline block does, by partition of unity); either way the
    normalization step absorbs the location, so no intercept is stored.
    Raises on a rank-deficient design, reporting the dependent
    free-coefficient column indices.  The stored criterion_value is the
    plain rank criterion of the fitted values, which makes it comparable
    with rank-estimator fits.
    """
    D, offset = design_matrix(spec, sample.z)
    k = D.shape[1]
    if k == 0:
        raise NumericalError("spec has no free coefficients to fit")
    sweep = _deficient_columns(np.column_stack([D, np.ones(sample.n)]))
    bad = [j for j in sweep if j < k]
    if bad:
        raise NumericalError(
            f"rank-deficient design: free-coefficient columns {bad} are "
            "linear combinations of earlier columns"
        )
    X = D if k in sweep else np.column_stack([D, np.ones(sample.n)])
    beta = ols_fit(X, sample.y - offset)
    gamma = beta[:k]
    crit = rank_criterion(sample, offset + D @ gamma)
    estimate = PhiEstimate(spec=spec, coefficients=gamma, criterion_value=crit)
    return apply_normalization(estimate)


def evaluate_on_grid(estimate: PhiEstimate, grid) -> np.ndarray:
    """Normalized fitted values on a list of regressor points."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    return estimate.values(pts)
