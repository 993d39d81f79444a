"""Rank-based criterion functions.

The core objective rewards candidate functions whose ordering of the
regressors lines up with large outcomes:

    Q_n(phi) = 1/(n(n-1)) * sum_i  y_i * #{ j != i : phi_j < phi_i }.

Because only the ordering of phi enters, every variant below is invariant
under strictly increasing transformations of the candidate function.  Four
variants are provided: the plain criterion, an exact-match restriction for
discrete controls, a kernel-weighted form around a fixed control value, and
a pairwise kernel form that weights pairs by their control distance.
``bind_criterion`` binds a variant to a sample once: it decides which rows
enter, their weights and the normalizer.  The public evaluators below and
the optimizer's objective both evaluate that one bound criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True, eq=False)
class Sample:
    """Observed data: outcome y, special regressors z, optional controls w.

    Arrays are copied, validated (consistent lengths, finite entries) and
    frozen; rows with missing values must be dropped before construction.
    A 1-D z or w is read as a single column.
    """

    y: np.ndarray
    z: np.ndarray
    w: Optional[np.ndarray] = None

    def __post_init__(self):
        y = np.array(self.y, dtype=float).ravel()
        z = np.array(self.z, dtype=float)
        if z.ndim < 2:
            z = z.reshape(-1, 1)
        z = np.ascontiguousarray(z)
        w = None
        if self.w is not None:
            w = np.array(self.w, dtype=float)
            if w.ndim == 1:
                w = w[:, None]
        if z.shape[0] != y.size or (w is not None and w.shape[0] != y.size):
            raise ValueError("y, z, w must have the same number of rows")
        for name, a in (("y", y), ("z", z)) + ((("w", w),) if w is not None else ()):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in {name}; drop missing rows first")
        for a in (y, z) + ((w,) if w is not None else ()):
            a.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d_z(self) -> int:
        return self.z.shape[1]

    @property
    def d_w(self) -> int:
        return 0 if self.w is None else self.w.shape[1]


_KERNEL_FAMILIES = ("uniform", "gaussian", "epanechnikov")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Product kernel: family plus one bandwidth per control dimension."""

    family: str
    bandwidths: np.ndarray

    def __post_init__(self):
        if self.family not in _KERNEL_FAMILIES:
            raise ValueError(f"kernel family must be one of {_KERNEL_FAMILIES}")
        s = np.asarray(self.bandwidths, dtype=float).ravel()
        if s.size == 0 or np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("bandwidths must be positive reals")
        s.flags.writeable = False
        object.__setattr__(self, "bandwidths", s)


def _kernel_1d(family: str, u: np.ndarray) -> np.ndarray:
    if family == "uniform":
        return (np.abs(u) < 1.0).astype(float)
    if family == "gaussian":
        return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    # epanechnikov
    return np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0)


def kernel_weights(spec: KernelSpec, w: np.ndarray, w0) -> np.ndarray:
    """Product kernel weights of each row of w (a 1-D w is one control column) at w0."""
    w = np.asarray(w, dtype=float)
    w = w[:, None] if w.ndim == 1 else np.atleast_2d(w)
    w0 = np.asarray(w0, dtype=float).ravel()
    if w.shape[1] != spec.bandwidths.size or w0.size != spec.bandwidths.size:
        raise ValueError("control dimension does not match bandwidth vector")
    u = (w - w0[None, :]) / spec.bandwidths[None, :]
    return np.prod(_kernel_1d(spec.family, u), axis=1)


class WindowedValue(NamedTuple):
    """Criterion value plus the number of observations that carried weight."""

    value: float
    n_used: int

    @property
    def empty(self) -> bool:
        return self.n_used < 2


# --------------------------------------------------------------------------
# ranking
# --------------------------------------------------------------------------


def _sort_with_tie_starts(v: np.ndarray, positions: np.ndarray, kind=None):
    """Sort order of v and, per sorted position, where its tie group starts.

    ``positions`` holds 0, 1, ..., v.size - 1 (int or float).  start[p] is
    the first sorted position p0 <= p with v[order][p0] equal to v[order][p],
    so a value's start is the number of values strictly below it.  Without
    adjacent equal values the starts are the positions themselves, and
    ``positions`` is returned as it is: it is shared, so no caller may write
    into it.  Otherwise the starts are a copy of it in which the positions of
    tied successors are zeroed and a running maximum carries each group's
    first position forward.  NaN has no place in a strict order and is
    rejected; argsort puts it last.
    """
    order = v.argsort(kind=kind)
    sv = v[order]
    if math.isnan(sv[-1]):
        raise ValueError("cannot rank NaN values")
    tied = sv[1:] == sv[:-1]
    if not np.count_nonzero(tied):
        return order, positions
    start = positions.copy()
    start[1:][tied] = 0
    np.maximum.accumulate(start, out=start)
    return order, start


def rank_strict_less(values) -> np.ndarray:
    """out[i] = #{ j != i : values[j] < values[i] }; ties contribute zero.

    Runs in O(n log n): one argsort, then each value takes the sorted
    position where its tie group starts.  Raises ValueError on NaN, which
    has no strict order; +-inf rank like any other value.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("need at least one value")
    order, start = _sort_with_tie_starts(v, np.arange(v.size))
    out = np.empty_like(start)
    out[order] = start
    return out


def _weighted_less_sums(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """out[i] = sum of u[j] over j with phi[j] < phi[i] (weighted ranking).

    A stable argsort fixes the summation order of the prefix sums of u; each
    value takes the prefix up to the start of its tie group.  Raises
    ValueError on NaN, like ``rank_strict_less``.
    """
    order, start = _sort_with_tie_starts(phi, np.arange(phi.size), kind="stable")
    prefix = np.concatenate(([0.0], np.cumsum(u[order])))
    out = np.empty(phi.size)
    out[order] = prefix[start]
    return out


# --------------------------------------------------------------------------
# criterion variants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FullRank:
    """Plain criterion over the whole sample (no controls)."""


@dataclass(frozen=True, eq=False)
class DiscreteW:
    """Restrict to the subsample whose controls equal w0 exactly."""

    w0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float).ravel())


@dataclass(frozen=True, eq=False)
class Weighted:
    """Kernel-weight observations by their control distance to w0."""

    w0: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float).ravel())


@dataclass(frozen=True)
class Pairwise:
    """Weight each pair by the kernel of the control difference W_i - W_j."""

    kernel: KernelSpec


CriterionVariant = Union[FullRank, DiscreteW, Weighted, Pairwise]

_ALL_ROWS = slice(None)


@dataclass(frozen=True, eq=False)
class Criterion:
    """A criterion variant bound to one sample.

    ``value(phi)`` takes the candidate values of the rows that enter
    (``sample.z[rows]``) and returns sum_i weighted_y_i * below_i / norm.
    weighted_y_i is y_i times the row's own weight; below_i counts the rows
    with phi_j < phi_i, or sums their pair weights when ``weighted_below``
    is set.  ``positions`` (0.0, 1.0, ... per entering row, built once and
    read-only) is what the ranking hands back as the counts when phi has no
    ties; it is shared between calls and must not be written.
    """

    rows: Union[slice, np.ndarray]
    weighted_y: np.ndarray
    norm: int
    n_used: int
    weighted_below: Optional[Callable[[np.ndarray], np.ndarray]] = None
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        positions = np.arange(self.weighted_y.size, dtype=float)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    def value(self, phi: np.ndarray) -> float:
        if self.weighted_below is None:
            order, start = _sort_with_tie_starts(phi, self.positions)
            below = np.empty(phi.size)
            below[order] = start
        else:
            below = self.weighted_below(phi)
        return float(self.weighted_y @ below) / self.norm


def bind_criterion(sample: Sample, variant: CriterionVariant) -> Criterion:
    """Precompute which rows enter, their weights and the normalizer.

    Window membership does not depend on the candidate, so subsample
    variants (exact cell, uniform-kernel window) drop the other rows here;
    this is exact, not an approximation.  Raises NumericalError when a
    variant normalized by n(n-1) gets fewer than two rows; an empty cell or
    window is reported through ``n_used`` instead.  Raises ValueError when
    the variant needs controls the sample lacks, or when the control point
    or the bandwidth vector does not have one entry per control column.
    """
    if not isinstance(variant, FullRank) and sample.w is None:
        raise ValueError("criterion variant requires controls, but sample has none")
    sizes = [variant.w0.size] if isinstance(variant, (DiscreteW, Weighted)) else []
    if isinstance(variant, (Weighted, Pairwise)):
        sizes.append(variant.kernel.bandwidths.size)
    if any(size != sample.d_w for size in sizes):
        raise ValueError(f"control dimension does not match the sample's {sample.d_w} control(s)")
    if isinstance(variant, DiscreteW):
        rows = np.all(sample.w == variant.w0[None, :], axis=1)
        m = int(np.count_nonzero(rows))
        return Criterion(rows, sample.y[rows], m * (m - 1), m)
    n = sample.n
    if n < 2:
        raise NumericalError("need at least two observations")
    norm = n * (n - 1)
    if isinstance(variant, FullRank):
        return Criterion(_ALL_ROWS, sample.y, norm, n)
    if isinstance(variant, Pairwise):
        below = partial(pairwise_weighted_less_sums, w=sample.w, spec=variant.kernel)
        return Criterion(_ALL_ROWS, sample.y, norm, n, below)
    if not isinstance(variant, Weighted):
        raise TypeError(f"unknown criterion variant {variant!r}")
    u = kernel_weights(variant.kernel, sample.w, variant.w0)
    if variant.kernel.family == "uniform":
        # 0/1 weights: the pair sum is the plain rank-sum inside the window
        rows = u > 0.0
        return Criterion(rows, sample.y[rows], norm, int(np.count_nonzero(rows)))
    below = partial(_weighted_less_sums, u=u)
    return Criterion(_ALL_ROWS, u * sample.y, norm, int(np.count_nonzero(u > 0.0)), below)


def _evaluate(sample: Sample, variant: CriterionVariant, phi_values) -> WindowedValue:
    """Bound criterion at full-sample phi; value 0 when the window is empty."""
    try:
        crit = bind_criterion(sample, variant)
    except NumericalError as exc:
        # the evaluators are called with caller data: an unusable sample is a ValueError
        raise ValueError(str(exc)) from None
    phi = np.asarray(phi_values, dtype=float).ravel()
    if phi.size != sample.n:
        raise ValueError("phi_values length must equal the sample size")
    if np.isnan(phi).any():
        raise ValueError("phi_values contain NaN")
    if crit.n_used < 2:
        return WindowedValue(0.0, crit.n_used)
    return WindowedValue(crit.value(phi[crit.rows]), crit.n_used)


def rank_criterion(sample: Sample, phi_values) -> float:
    """Plain rank criterion: 1/(n(n-1)) * sum_i y_i * rank_strict_less(phi)[i]."""
    return _evaluate(sample, FullRank(), phi_values).value


def rank_criterion_discrete_w(sample: Sample, phi_values, w0) -> WindowedValue:
    """Criterion restricted to the subsample with controls exactly equal to w0.

    Normalized by m(m-1) over the m matching rows; returns value 0 with
    n_used < 2 (``empty`` flag) when the cell is too small.
    """
    return _evaluate(sample, DiscreteW(w0), phi_values)


def rank_criterion_weighted(
    sample: Sample, phi_values, w0, spec: KernelSpec
) -> WindowedValue:
    """Kernel-weighted criterion around the control point w0.

    General form: sum over ordered pairs i != j of
    K_s(W_i - w0) * y_i * K_s(W_j - w0) * 1{phi_i > phi_j}, normalized by
    n(n-1).  With a uniform kernel the weights are window indicators, so
    the sum collapses to the plain rank-sum over the subsample inside the
    window (fast path); an empty window is flagged via ``n_used`` and
    evaluates to 0.
    """
    return _evaluate(sample, Weighted(w0, spec), phi_values)


def rank_criterion_pairwise(sample: Sample, phi_values, spec: KernelSpec) -> float:
    """Pairwise-kernel criterion: weights each ordered pair by K_s(W_i - W_j).

    sum_{i != j} y_i * K_s(W_i - W_j) * 1{phi_i > phi_j} / (n(n-1)).
    Inherently O(n^2); computed in row blocks to bound memory.
    """
    return _evaluate(sample, Pairwise(spec), phi_values).value


def pairwise_weighted_less_sums(phi: np.ndarray, w: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """out[i] = sum_j K_s(W_i - W_j) * 1{phi_j < phi_i}, in blocks of 256 rows."""
    n = phi.size
    block = 256
    s = spec.bandwidths
    out = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        u = (w[start:stop, None, :] - w[None, :, :]) / s[None, None, :]
        kw = np.prod(_kernel_1d(spec.family, u), axis=2)
        ind = phi[None, :] < phi[start:stop, None]
        out[start:stop] = np.sum(kw * ind, axis=1)
    return out
