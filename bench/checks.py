"""Checks on what the program returns: the criterion oracle and the fit log.

The oracle recomputes every fit's criterion value by brute force, counting
all O(n^2) ordered pairs, from the fitted values ``fit.values(sample.z)`` and
the sample alone.  It shares no code with the program's ranking path (a sort
plus a binary search), so it checks the objective the optimizer actually
maximized.
"""

from __future__ import annotations

import math

import numpy as np

from ranksieve import cli, simulate
from ranksieve.optimize import FullRank, Weighted

ORACLE_RTOL = 1e-12
_BLOCK = 256

# Modules whose ``maximize_rank_criterion`` attribute the workloads reach.
FIT_CALLERS = (simulate, cli)


def _pair_weights(sample, variant) -> np.ndarray:
    """Per-observation weight u_i; a pair (i, j) counts with u_i * u_j."""
    if isinstance(variant, FullRank):
        return np.ones(sample.n)
    if isinstance(variant, Weighted) and variant.kernel.family == "uniform":
        u = (np.asarray(sample.w) - variant.w0[None, :]) / variant.kernel.bandwidths[None, :]
        return np.all(np.abs(u) < 1.0, axis=1).astype(float)
    raise ValueError(f"the oracle has no reference for variant {variant!r}")


def brute_force_criterion(sample, variant, phi) -> tuple[float, float]:
    """(value, scale): sum over ordered pairs i != j of u_i y_i u_j 1{phi_i > phi_j}.

    Both variants the workloads use (FullRank and the uniform-kernel
    Weighted window) normalize by n(n-1) over the whole sample.  ``scale``
    is the same sum over absolute terms, the size rounding error scales with.
    """
    y = np.asarray(sample.y, dtype=float)
    n = y.size
    u = _pair_weights(sample, variant)
    terms = np.empty(n)
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        below = phi[None, :] < phi[a:b, None]
        terms[a:b] = u[a:b] * y[a:b] * (below @ u)
    norm = n * (n - 1)
    return math.fsum(terms) / norm, math.fsum(np.abs(terms)) / norm


def oracle_problems(fits) -> list:
    """Compare each logged (sample, variant, fit) with the brute force."""
    problems = []
    for k, (sample, variant, fit) in enumerate(fits):
        phi = np.asarray(fit.values(sample.z), dtype=float)
        value, scale = brute_force_criterion(sample, variant, phi)
        got = fit.criterion_value
        if not abs(got - value) <= ORACLE_RTOL * scale:
            problems.append(
                f"fit {k}: criterion_value {got!r} != brute force {value!r} "
                f"({type(variant).__name__})"
            )
    return problems


class FitLog:
    """Every fit ``maximize_rank_criterion`` returns, with its inputs."""

    def __init__(self):
        self.fits: list = []
        self._patched: list = []

    def install(self) -> None:
        """Log every fit made through FIT_CALLERS; the wrappers time nothing."""
        for module in FIT_CALLERS:
            orig = module.maximize_rank_criterion

            def logged(*args, _orig=orig):
                fit = _orig(*args)
                sample, _, variant = args[:3]
                self.fits.append((sample, variant, fit))
                return fit

            module.maximize_rank_criterion = logged
            self._patched.append((module, orig))

    def restore(self) -> None:
        while self._patched:
            module, orig = self._patched.pop()
            module.maximize_rank_criterion = orig

    def take(self) -> list:
        """The fits logged since the last call, and forget them."""
        fits, self.fits = self.fits, []
        return fits
