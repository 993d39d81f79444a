"""Pointwise combination of local curve estimates.

When the target function does not actually depend on the control value,
each locally fitted curve estimates the same object, and the draws can be
combined per grid point: a weighted mean (the least-squares aggregate) or a
weighted median (the least-absolute-deviations aggregate, robust to the
erratic fits that can occur for control values in the tails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class LocalEstimateSet:
    """Curves fitted at different control values, on a shared grid.

    ``curves`` has one row per control draw; ``weights`` (optional) must be
    non-negative and sum to one.
    """

    grid: np.ndarray
    curves: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.atleast_2d(np.array(self.grid, dtype=float))
        curves = np.atleast_2d(np.array(self.curves, dtype=float))
        if curves.shape[0] == 0:
            raise ValueError("need at least one curve")
        if curves.shape[1] != grid.shape[0]:
            raise ValueError("curve length does not match grid length")
        weights = self.weights
        if weights is not None:
            weights = np.array(weights, dtype=float).ravel()
            if weights.size != curves.shape[0]:
                raise ValueError("one weight is required per curve")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            if abs(float(np.sum(weights)) - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1")
            weights.flags.writeable = False
        grid.flags.writeable = False
        curves.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "weights", weights)

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]


def aggregate_ls(estimates: LocalEstimateSet) -> np.ndarray:
    """Pointwise weighted mean of the curves (uniform weights if absent)."""
    if estimates.weights is None:
        return np.mean(estimates.curves, axis=0)
    return estimates.weights @ estimates.curves


def aggregate_lad(estimates: LocalEstimateSet) -> np.ndarray:
    """Pointwise weighted median of the curves.

    Uniform weights use the empirical median (midpoint of the two central
    order statistics for an even count).  With explicit weights, the median
    is the first order statistic whose cumulative weight reaches 1/2; if it
    lands on 1/2 exactly, the midpoint to the next order statistic is taken.
    """
    if estimates.weights is None:
        return np.median(estimates.curves, axis=0)
    order = np.argsort(estimates.curves, axis=0, kind="stable")
    sorted_curves = np.take_along_axis(estimates.curves, order, axis=0)
    cumw = np.cumsum(estimates.weights[order], axis=0)
    k = np.argmax(cumw >= 0.5 - 1e-12, axis=0)
    cols = np.arange(sorted_curves.shape[1])
    out = sorted_curves[k, cols]
    exact = np.abs(cumw[k, cols] - 0.5) <= 1e-12
    upper_idx = np.minimum(k + 1, sorted_curves.shape[0] - 1)
    out = np.where(exact, 0.5 * (out + sorted_curves[upper_idx, cols]), out)
    return out
