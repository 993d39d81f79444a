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

import multiprocessing
import numbers
import os
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
from .sieve import PhiEstimate, SieveSpec, _as_float, _as_int, apply_normalization, design_matrix

F_TOL = 1e-10  # simplex value-spread tolerance
X_TOL = 1e-6  # simplex parameter-spread tolerance


def _store_ints(cfg, *names: str) -> None:
    """Store the named fields of the frozen dataclass ``cfg`` as ints, tuples entry by entry.

    Each value goes through :func:`ranksieve.sieve._as_int`: 2.0 becomes 2,
    and 2.5, True or "2" raises a ValueError naming the field.
    """
    for name in names:
        value = getattr(cfg, name)
        ints = tuple(_as_int(name, v) for v in (value if isinstance(value, tuple) else (value,)))
        object.__setattr__(cfg, name, ints if isinstance(value, tuple) else ints[0])


def _require_finite(cfg, *names: str) -> None:
    """Raise a ValueError naming the first named field of ``cfg`` that is not a finite number.

    A tuple field is checked entry by entry, each entry by the rule of
    :func:`ranksieve.sieve._as_float`.
    """
    for name in names:
        value = getattr(cfg, name)
        for v in value if isinstance(value, tuple) else (value,):
            _as_float(name, v)


def _worker_count(n_jobs: int, n_tasks: int) -> int:
    """Processes to run ``n_tasks`` independent tasks on: ``n_jobs``, or all cores for 0.

    Never more than one per task; an ``n_jobs`` that is not a non-negative
    integer raises a ValueError.
    """
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral) or n_jobs < 0:
        raise ValueError(f"n_jobs must be a non-negative integer (0 = all cores), got {n_jobs!r}")
    return min(n_jobs or os.cpu_count() or 1, n_tasks)


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
        _store_ints(self, "n_starts", "max_iters", "rng_seed")
        _require_finite(self, "init_scale")
        if self.n_starts < 1 or self.max_iters < 1:
            raise ValueError("n_starts and max_iters must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")


def _build_objective(
    sample: Sample, spec: SieveSpec, variant: CriterionVariant
) -> Callable[[np.ndarray], float]:
    """Closure gamma -> criterion value; the design covers only the rows that enter."""
    crit = bind_criterion(sample, variant)
    # the design can order no more rows than it has free coefficients at will
    need = spec.n_free + 2
    if crit.n_used < need:
        windowed = isinstance(variant, (DiscreteW, Weighted))
        where = f" around w0={variant.w0.tolist()}" if windowed else ""
        raise EmptyWindowError(
            f"{crit.n_used} observation(s) with weight{where}; "
            f"{spec.n_free} free coefficient(s) need >= {need}"
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
    fsim = [f(v) for v in sim]

    plateau = False
    for _ in range(cfg.max_iters):
        # a stable sort, as numpy's stable argsort of the values would give
        order = sorted(range(dim + 1), key=fsim.__getitem__)
        sim = sim.take(order, 0)
        fsim = [fsim[i] for i in order]

        if fsim[-1] - fsim[0] < F_TOL:
            plateau = True
            break
        # one coordinate at X_TOL or beyond already fails the check, so the
        # whole spread is computed only when the simplex may have collapsed
        if abs(sim[-1, 0] - sim[0, 0]) < X_TOL and abs(sim[1:] - sim[0]).max() < X_TOL:
            break

        # the mean of the vertices, summed and divided as np.mean does
        centroid = np.add.reduce(sim[:-1], axis=0) / dim
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

    # a plateau stop comes right after the sort, so the centroid sums sorted vertices
    best = min(range(dim + 1), key=fsim.__getitem__)
    best_x, best_f = sim[best], fsim[best]
    if plateau:
        cand = np.add.reduce(sim, axis=0) / (dim + 1)
        fcand = f(cand)
        if fcand <= best_f:
            best_x, best_f = cand, fcand
    return best_x, best_f


def _seed_sequence(seed: int, keys: tuple) -> np.random.SeedSequence:
    """The package's one rule for turning a seed and its keys into a stream.

    It hashes the tuple (seed mod 2^64, *keys).  Arithmetic on the seed, such
    as seed XOR key, maps different (seed, key) pairs to one stream.
    """
    return np.random.SeedSequence((int(seed) % 2**64,) + tuple(int(k) for k in keys))


def _substream(seed: int, *keys: int) -> np.random.Generator:
    """The random stream of one (seed, *keys) tuple."""
    return np.random.default_rng(_seed_sequence(seed, keys))


def derive_seed(master_seed: int, *keys: int) -> int:
    """Stable 64-bit child seed for a (cell, replication, ...) key tuple."""
    return int(_seed_sequence(master_seed, keys).generate_state(1, dtype=np.uint64)[0])


def _run_start(objective, n_free: int, cfg: OptimizerConfig, s: int):
    """Nelder-Mead from start s; returns ``((-value, norm, s), gamma)``, the best key first."""
    x0 = _substream(cfg.rng_seed, s).uniform(-cfg.init_scale, cfg.init_scale, size=n_free)
    x, fx = _nelder_mead(lambda g: -objective(g), x0, 0.5 * cfg.init_scale, cfg)
    return (fx, float(np.linalg.norm(x)), s), x


# set in pool worker processes only: (objective, n_free, cfg) of the fit they run starts for
_worker_fit = None


def _bind_worker(
    sample: Sample, spec: SieveSpec, variant: CriterionVariant, cfg: OptimizerConfig
) -> None:
    """Pool initializer: build the fit's objective once in this worker process."""
    global _worker_fit
    _worker_fit = (_build_objective(sample, spec, variant), spec.n_free, cfg)


def _worker_start(s: int):
    return _run_start(*_worker_fit, s)


def maximize_rank_criterion(
    sample: Sample,
    spec: SieveSpec,
    variant: CriterionVariant,
    cfg: OptimizerConfig,
    n_jobs: int = 1,
) -> PhiEstimate:
    """Fit the sieve coefficients by maximizing the selected criterion variant.

    Runs ``cfg.n_starts`` Nelder-Mead searches from coefficient vectors
    drawn uniformly from [-init_scale, init_scale]^d, start s from the
    stream ``_substream(rng_seed, s)``, and keeps the best result.  Ties on
    the achieved value break toward the smaller coefficient norm, then the
    lower start index, so the outcome does not depend on scheduling.  The
    returned estimate is normalized; ``degenerate`` is set when no start
    improved on the zero coefficient vector.  For every variant, fewer rows
    with weight than the free coefficients plus two raise EmptyWindowError.

    ``n_jobs`` processes run the starts (0 = all cores, never more than
    ``n_starts``); with 1 they run in this process.  The fit is
    bit-identical for every ``n_jobs``.  The pool is closed before the call
    returns or raises, and an exception in a worker reaches the caller.
    """
    n_free = spec.n_free
    if n_free == 0:
        raise NumericalError("spec has no free coefficients to search over")
    workers = _worker_count(n_jobs, cfg.n_starts)
    objective = _build_objective(sample, spec, variant)  # its checks run before any process starts

    if workers == 1:
        results = [_run_start(objective, n_free, cfg, s) for s in range(cfg.n_starts)]
    else:
        init = (sample, spec, variant, cfg)
        with multiprocessing.get_context().Pool(workers, _bind_worker, init) as pool:
            results = pool.map(_worker_start, range(cfg.n_starts), chunksize=1)
            pool.close()
            pool.join()
    (neg_value, _, _), gamma = min(results, key=lambda result: result[0])
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
    """Indices of columns that are (numerically) linear combinations of earlier ones.

    One left-to-right pass.  Column j counts as dependent when the norm of
    its residual after projection on the columns kept so far, the last
    diagonal entry of their unpivoted QR factorization with column j
    appended, is at most 1e-10 * max(column norm, 1).  Once n columns are
    kept, every further column of an n-row X is dependent.
    """
    n = X.shape[0]
    kept, dependent = [], []
    for j in range(X.shape[1]):
        resid = abs(np.linalg.qr(X[:, kept + [j]], mode="r")[-1, -1]) if len(kept) < n else 0.0
        if resid <= 1e-10 * max(np.linalg.norm(X[:, j]), 1.0):
            dependent.append(j)
        else:
            kept.append(j)
    return dependent


def ols_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the columns of X."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def series_ols(sample: Sample, spec: SieveSpec) -> PhiEstimate:
    """Series regression of y on the span of the spec's free-coefficient columns.

    Pinned identity terms are moved to the response, and an intercept
    column is appended after the free columns.  Every column of that design
    that is a linear combination of earlier ones is left out of the fit and
    gets coefficient 0: the intercept when the free columns already span
    constants (a clamped B-spline block does, by partition of unity), the
    last column of each further spline block, a repeated column, and with
    fewer rows than columns every column after the first n independent
    ones.  The fit therefore spans all free columns, for any spec.  The
    normalization step absorbs the location, so no intercept is stored.
    The stored criterion_value is the plain rank criterion of the fitted
    values, which makes it comparable with rank-estimator fits.
    """
    D, offset = design_matrix(spec, sample.z)
    k = D.shape[1]
    if k == 0:
        raise NumericalError("spec has no free coefficients to fit")
    X = np.column_stack([D, np.ones(sample.n)])
    keep = np.ones(k + 1, dtype=bool)
    keep[_deficient_columns(X)] = False
    beta = np.zeros(k + 1)
    beta[keep] = ols_fit(X[:, keep], sample.y - offset)
    gamma = beta[:k]
    crit = rank_criterion(sample, offset + D @ gamma)
    estimate = PhiEstimate(spec=spec, coefficients=gamma, criterion_value=crit)
    return apply_normalization(estimate)


def evaluate_on_grid(estimate: PhiEstimate, grid) -> np.ndarray:
    """Normalized fitted values on a list of regressor points."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    return estimate.values(pts)
