"""Additive B-spline function spaces and their normalization.

The estimators in this package search over additive candidate functions

    phi(z) = sum_m  component_m(z)

where each component is either an identity term on one regressor (possibly
pinned to a fixed coefficient, which fixes the scale of the whole function)
or a linear combination of B-spline basis functions evaluated on a selected
regressor.  Knots are placed at empirical quantiles of the data, and fitted
functions are pinned down by an anchor-point (location) or two-point
(location and scale) normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .errors import NumericalError


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def make_knot_vector(data, degree: int, n_interior: int) -> np.ndarray:
    """Clamped knot vector with interior knots at empirical quantiles.

    Interior knots sit at the quantile levels p = j/(n_interior+1),
    j = 1..n_interior, read off the inverse empirical CDF (type 1): the
    order statistic x_(ceil(n*p)), so every knot is a member of the sample.
    The boundary knots are the sample min and max, each repeated degree+1
    times.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("cannot place knots on empty data")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if n_interior < 0:
        raise ValueError("n_interior must be non-negative")
    lo, hi = float(np.min(x)), float(np.max(x))
    if not lo < hi:
        raise ValueError("degenerate support: min(data) == max(data)")
    s = np.sort(x)
    # the level is rounded before the product: n * j / (n_interior + 1)
    # picks another order statistic for some (n, j), e.g. n=42, j=9 of 13
    levels = [j / (n_interior + 1) for j in range(1, n_interior + 1)]
    interior = [s[math.ceil(s.size * p) - 1] for p in levels]
    return np.concatenate(
        [np.full(degree + 1, lo), np.asarray(interior, dtype=float), np.full(degree + 1, hi)]
    )


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """Clamped B-spline basis of a given polynomial degree.

    ``knots`` must be non-decreasing with the first and last knot each
    repeated degree+1 times.  The number of basis functions is
    K = len(knots) - degree - 1.  Evaluation outside the boundary knots
    clamps the argument to the boundary, so the basis extends as a
    constant beyond the data range.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", _readonly(np.ravel(self.knots)))
        t = self.knots
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if t.size < 2 * (self.degree + 1):
            raise ValueError("knot vector too short for a clamped basis")
        if np.any(np.diff(t) < 0):
            raise ValueError("knots must be non-decreasing")
        p = self.degree
        if not (np.all(t[: p + 1] == t[0]) and np.all(t[-(p + 1):] == t[-1])):
            raise ValueError("knots must be clamped: boundary knots repeated degree+1 times")
        if not t[0] < t[-1]:
            raise ValueError("degenerate support: all knots equal")
        K = t.size - p - 1
        if not t[K - 1] < t[K]:
            raise ValueError("interior knot coincides with the right boundary knot")

    @property
    def K(self) -> int:
        """Number of basis functions."""
        return self.knots.size - self.degree - 1

    def evaluate_all(self, x) -> np.ndarray:
        """Dense (len(x), K) matrix of basis values, argument clamped to support."""
        return _basis_matrix(self.knots, self.degree, np.asarray(x, dtype=float).ravel())


def _basis_matrix(knots: np.ndarray, degree: int, x: np.ndarray) -> np.ndarray:
    """Triangular-scheme evaluation of all basis functions at each x.

    Only the degree+1 functions supported on the span of x are nonzero;
    they are computed without differencing and scattered into a dense
    matrix.  Zero-width spans created by repeated knots are handled by
    the 0/0 := 0 convention.
    """
    K = knots.size - degree - 1
    x = np.clip(x, knots[0], knots[-1])
    span = np.searchsorted(knots, x, side="right") - 1
    span = np.clip(span, degree, K - 1)

    n = x.size
    vals = np.zeros((n, degree + 1))
    vals[:, 0] = 1.0
    left = np.empty((n, degree + 1))
    right = np.empty((n, degree + 1))
    for j in range(1, degree + 1):
        left[:, j] = x - knots[span + 1 - j]
        right[:, j] = knots[span + j] - x
        saved = np.zeros(n)
        for r in range(j):
            denom = right[:, r + 1] + left[:, j - r]
            temp = np.divide(
                vals[:, r], denom, out=np.zeros(n), where=denom != 0.0
            )
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved

    out = np.zeros((n, K))
    cols = span[:, None] - degree + np.arange(degree + 1)[None, :]
    out[np.arange(n)[:, None], cols] = vals
    return out


# --------------------------------------------------------------------------
# regressor selectors and components
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Coordinate:
    """Selects one regressor column."""

    index: int

    def values(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        if not 0 <= self.index < z.shape[1]:
            raise ValueError(f"regressor index {self.index} out of range")
        return z[:, self.index]


@dataclass(frozen=True)
class Product:
    """Selects the product of two regressor columns (interaction input)."""

    i: int
    j: int

    def values(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        d = z.shape[1]
        if not (0 <= self.i < d and 0 <= self.j < d):
            raise ValueError(f"regressor indices ({self.i}, {self.j}) out of range")
        return z[:, self.i] * z[:, self.j]


RegressorSelector = Union[Coordinate, Product]


@dataclass(frozen=True)
class IdentityComponent:
    """A linear term on one selected regressor.

    When pinned, the coefficient is fixed (scale normalization of the
    additive model) and the term contributes to the offset rather than to
    the free-coefficient block.
    """

    input: RegressorSelector
    coefficient: float = 1.0
    pinned: bool = True

    @property
    def n_free(self) -> int:
        return 0 if self.pinned else 1


@dataclass(frozen=True)
class SplineComponent:
    """A B-spline expansion on one selected regressor; contributes K free coefficients."""

    input: RegressorSelector
    basis: BSplineBasis

    @property
    def n_free(self) -> int:
        return self.basis.K


Component = Union[IdentityComponent, SplineComponent]


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NoNormalization:
    pass


@dataclass(frozen=True, eq=False)
class Anchor:
    """Shift the fitted function so phi(point) == value."""

    point: np.ndarray
    value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", _readonly(np.ravel(self.point)))


@dataclass(frozen=True, eq=False)
class TwoPoint:
    """Affine rescale so phi(point1) == value1 and phi(point2) == value2."""

    point1: np.ndarray
    value1: float
    point2: np.ndarray
    value2: float

    def __post_init__(self):
        object.__setattr__(self, "point1", _readonly(np.ravel(self.point1)))
        object.__setattr__(self, "point2", _readonly(np.ravel(self.point2)))
        if self.point1.size != self.point2.size:
            raise ValueError("two-point normalization needs two points of the same dimension")


Normalization = Union[NoNormalization, Anchor, TwoPoint]


@dataclass(frozen=True)
class SieveSpec:
    """An additive candidate-function space plus its normalization rule."""

    components: tuple
    normalization: Normalization = field(default_factory=NoNormalization)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("spec needs at least one component")
        for comp in self.components:
            if not isinstance(comp, (IdentityComponent, SplineComponent)):
                raise TypeError(f"unknown component type: {type(comp).__name__}")

    @property
    def n_free(self) -> int:
        """Total number of free coefficients across components."""
        return sum(c.n_free for c in self.components)


def design_matrix(spec: SieveSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Free-coefficient design matrix and pinned offsets for rows of z.

    Returns (D, offset) with phi_i = offset[i] + D[i] @ coefficients for
    any coefficient vector over the spec's free coefficients, flattened in
    component order.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = z.shape[0]
    offset = np.zeros(n)
    blocks = []
    for comp in spec.components:
        x = comp.input.values(z)
        if isinstance(comp, IdentityComponent):
            if comp.pinned:
                offset = offset + comp.coefficient * x
            else:
                blocks.append(x[:, None])
        else:
            blocks.append(comp.basis.evaluate_all(x))
    D = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    return D, offset


@dataclass(frozen=True, eq=False)
class PhiEstimate:
    """A fitted member of a sieve space.

    ``coefficients`` covers the free coefficients in component order;
    ``scale``/``shift`` hold the affine normalization map, so the fitted
    function is  scale * (offset + row(z) @ coefficients) + shift.
    """

    spec: SieveSpec
    coefficients: np.ndarray
    criterion_value: float
    scale: float = 1.0
    shift: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(np.ravel(self.coefficients)))
        if self.coefficients.size != self.spec.n_free:
            raise ValueError(
                f"coefficient vector has length {self.coefficients.size}, "
                f"spec has {self.spec.n_free} free coefficients"
            )

    def values(self, z: np.ndarray) -> np.ndarray:
        """Normalized fitted values at the rows of z."""
        D, offset = design_matrix(self.spec, z)
        return self.scale * (offset + D @ self.coefficients) + self.shift


def apply_normalization(estimate: PhiEstimate) -> PhiEstimate:
    """Re-solve the estimate's affine map so its normalization constraints hold.

    The raw (unnormalized) function is recovered first, which makes the
    operation idempotent.  Anchor shifts only; TwoPoint applies the unique
    affine map through both pins and fails if the raw function takes the
    same value at the two pin points.
    """
    norm = estimate.spec.normalization
    if isinstance(norm, NoNormalization):
        return estimate

    pins = [norm.point] if isinstance(norm, Anchor) else [norm.point1, norm.point2]
    D, off = design_matrix(estimate.spec, np.vstack(pins))
    raw = [float(off[i]) + float(D[i] @ estimate.coefficients) for i in range(len(pins))]
    if isinstance(norm, Anchor):
        scale = 1.0
        shift = norm.value - raw[0]
    else:
        r1, r2 = raw
        if r1 == r2:
            raise NumericalError(
                "two-point normalization failed: fitted function is constant "
                "across the two pin points"
            )
        scale = (norm.value2 - norm.value1) / (r2 - r1)
        shift = norm.value1 - scale * r1
    return replace(estimate, scale=scale, shift=shift)


# --------------------------------------------------------------------------
# JSON reading
# --------------------------------------------------------------------------


def _selector_from_json(obj: dict) -> RegressorSelector:
    if "coord" in obj:
        return Coordinate(int(obj["coord"]))
    if "product" in obj:
        i, j = obj["product"]
        return Product(int(i), int(j))
    raise ValueError(f"unknown selector object: {obj!r}")


def sieve_spec_from_json(obj: dict, z: Optional[np.ndarray] = None) -> SieveSpec:
    """Build a spec from its JSON form.

    Spline entries without embedded knots are templates: the knot vector is
    then built from the selected column of ``z`` via empirical quantiles,
    so the same template file can be bound to any dataset.
    """
    comps = []
    for cj in obj.get("components", []):
        sel = _selector_from_json(cj["input"])
        if cj["type"] == "identity":
            comps.append(
                IdentityComponent(
                    input=sel,
                    coefficient=float(cj.get("coefficient", 1.0)),
                    pinned=bool(cj.get("pinned", True)),
                )
            )
        elif cj["type"] == "spline":
            degree = int(cj["degree"])
            if "knots" in cj:
                basis = BSplineBasis(degree, np.asarray(cj["knots"], dtype=float))
            else:
                if z is None:
                    raise ValueError(
                        "spline component has no knots and no data was supplied to place them"
                    )
                basis = BSplineBasis(
                    degree,
                    make_knot_vector(sel.values(np.atleast_2d(np.asarray(z, dtype=float))),
                                     degree, int(cj["n_interior"])),
                )
            comps.append(SplineComponent(input=sel, basis=basis))
        else:
            raise ValueError(f"unknown component type {cj['type']!r}")

    nj = obj.get("normalization", {"type": "none"})
    kind = nj.get("type", "none")
    if kind == "none":
        norm: Normalization = NoNormalization()
    elif kind == "anchor":
        norm = Anchor(point=np.asarray(nj["point"], dtype=float), value=float(nj.get("value", 0.0)))
    elif kind == "two_point":
        (p1, p2), (v1, v2) = nj["points"], nj["values"]
        norm = TwoPoint(
            point1=np.asarray(p1, dtype=float),
            value1=float(v1),
            point2=np.asarray(p2, dtype=float),
            value2=float(v2),
        )
    else:
        raise ValueError(f"unknown normalization type {kind!r}")
    return SieveSpec(components=tuple(comps), normalization=norm)
