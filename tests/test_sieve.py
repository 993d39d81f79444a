import json

import numpy as np
import pytest

from ranksieve import (
    Anchor,
    BSplineBasis,
    Coordinate,
    IdentityComponent,
    NoNormalization,
    NumericalError,
    PhiEstimate,
    Product,
    SieveSpec,
    SplineComponent,
    TwoPoint,
    apply_normalization,
    design_matrix,
    make_knot_vector,
    sieve_spec_from_json,
)

from oracles import naive_bspline, type1_quantile


# --------------------------------------------------------------------------
# knot placement
# --------------------------------------------------------------------------


def test_knot_vector_basic_example():
    np.testing.assert_array_equal(
        make_knot_vector([0, 1, 2, 3, 4], degree=1, n_interior=1), [0, 0, 2, 4, 4]
    )


def test_knot_vector_degenerate_support():
    with pytest.raises(ValueError, match="degenerate"):
        make_knot_vector([5.0] * 12, degree=2, n_interior=1)
    with pytest.raises(ValueError):
        make_knot_vector([], degree=2, n_interior=1)


def test_knot_vector_uniform_grid_quantiles():
    data = np.linspace(-3, 3, 601)
    kv = make_knot_vector(data, degree=3, n_interior=2)
    assert kv.size == 2 + 2 * 4
    np.testing.assert_allclose(kv[4:6], [-1.0, 1.0], atol=1e-12)


def test_knot_vector_matches_sort_and_index_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        data = rng.normal(size=rng.integers(5, 200))
        m = int(rng.integers(0, 5))
        degree = int(rng.integers(0, 4))
        kv = make_knot_vector(data, degree, m)
        assert kv.size == m + 2 * (degree + 1)
        assert np.all(np.diff(kv) >= 0)
        for j in range(1, m + 1):
            assert kv[degree + j] == type1_quantile(data, j / (m + 1))
    # n * (j / (m + 1)) and n * j / (m + 1) round to different order
    # statistics here (j = 9): the knot follows the level j / (m + 1)
    data = np.arange(42.0)
    kv = make_knot_vector(data, 1, 13)
    for j in range(1, 14):
        assert kv[1 + j] == type1_quantile(data, j / 14)


# --------------------------------------------------------------------------
# basis evaluation
# --------------------------------------------------------------------------


def _random_basis(rng):
    degree = int(rng.integers(0, 4))
    data = rng.normal(scale=2.0, size=60)
    n_interior = int(rng.integers(0, 4))
    return BSplineBasis(degree, make_knot_vector(data, degree, n_interior))


def test_degree_zero_is_indicator():
    basis = BSplineBasis(0, np.array([0.0, 1.0, 2.0]))
    assert basis.evaluate_all([0.5])[0, 0] == 1.0
    assert basis.evaluate_all([1.5])[0, 0] == 0.0
    assert basis.evaluate_all([1.5])[0, 1] == 1.0


def test_partition_of_unity_and_nonnegativity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        basis = _random_basis(rng)
        lo, hi = basis.knots[0], basis.knots[-1]
        x = rng.uniform(lo, hi, 1000)
        B = basis.evaluate_all(x)
        assert np.min(B) >= 0.0
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)
        # boundary points and clamped extrapolation included
        edge = basis.evaluate_all([lo, hi, lo - 3.0, hi + 3.0])
        np.testing.assert_allclose(edge.sum(axis=1), 1.0, atol=1e-12)


def test_eval_matches_naive_recursion():
    rng = np.random.default_rng(1)
    for _ in range(10):
        basis = _random_basis(rng)
        xs = rng.uniform(basis.knots[0], basis.knots[-1], 40)
        xs = np.append(xs, [basis.knots[0], basis.knots[-1]])
        for x in xs:
            for k in range(basis.K):
                expected = naive_bspline(basis.knots, basis.degree, k, x)
                assert basis.evaluate_all([x])[0, k] == pytest.approx(expected, abs=1e-12)


def test_eval_matches_scipy_on_interior_points():
    scipy_interp = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(2)
    basis = BSplineBasis(3, make_knot_vector(rng.normal(size=80), 3, 2))
    x = rng.uniform(basis.knots[0] + 1e-6, basis.knots[-1] - 1e-6, 200)
    B = basis.evaluate_all(x)
    for k in range(basis.K):
        coef = np.zeros(basis.K)
        coef[k] = 1.0
        ref = scipy_interp.BSpline(basis.knots, coef, basis.degree)(x)
        np.testing.assert_allclose(B[:, k], ref, atol=1e-12)


def test_basis_validation():
    with pytest.raises(ValueError, match="non-decreasing"):
        BSplineBasis(1, np.array([0.0, 0.0, 2.0, 1.0, 2.0, 2.0]))
    with pytest.raises(ValueError, match="clamped"):
        BSplineBasis(2, np.array([0.0, 0.0, 1.0, 2.0, 3.0, 3.0, 3.0]))
    with pytest.raises(ValueError, match="right boundary"):
        BSplineBasis(1, np.array([0.0, 0.0, 9.0, 9.0, 9.0]))


# --------------------------------------------------------------------------
# design rows
# --------------------------------------------------------------------------


def _spec_pinned_plus_spline(n_interior=2, degree=2, norm=None):
    basis = BSplineBasis(degree, make_knot_vector(np.linspace(-3, 3, 101), degree, n_interior))
    return SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),
            SplineComponent(input=Coordinate(1), basis=basis),
        ),
        normalization=norm if norm is not None else NoNormalization(),
    )


def test_design_row_pinned_only():
    spec = SieveSpec(
        components=(IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),),
    )
    D, offset = design_matrix(spec, [[2.5, 7.0]])
    assert D[0].size == 0
    assert offset[0] == 2.5
    assert spec.n_free == 0


def test_design_row_spline_partition():
    basis = BSplineBasis(1, make_knot_vector(np.linspace(0, 1, 11), 1, 2))
    spec = SieveSpec(components=(SplineComponent(input=Coordinate(1), basis=basis),))
    D, offset = design_matrix(spec, [[9.9, 0.4]])
    assert D[0].size == 4
    assert offset[0] == 0.0
    assert D[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_design_row_product_selector():
    basis = BSplineBasis(2, make_knot_vector(np.linspace(0, 10, 101), 2, 1))
    spec = SieveSpec(components=(SplineComponent(input=Product(0, 1), basis=basis),))
    D, _ = design_matrix(spec, [[2.0, 3.0]])
    np.testing.assert_allclose(D[0], basis.evaluate_all([6.0])[0], atol=1e-15)


def test_design_reconstructs_phi():
    rng = np.random.default_rng(3)
    spec = SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),
            IdentityComponent(input=Coordinate(1), coefficient=0.0, pinned=False),
            SplineComponent(
                input=Coordinate(1),
                basis=BSplineBasis(2, make_knot_vector(rng.normal(size=50), 2, 2)),
            ),
            SplineComponent(
                input=Product(0, 1),
                basis=BSplineBasis(1, make_knot_vector(rng.normal(size=50), 1, 1)),
            ),
        ),
    )
    z = rng.normal(size=(30, 2))
    gamma = rng.normal(size=spec.n_free)
    D, offset = design_matrix(spec, z)
    phi = offset + D @ gamma

    # componentwise recomputation
    ident_free = gamma[0]
    sp1 = spec.components[2].basis
    sp2 = spec.components[3].basis
    g1 = gamma[1 : 1 + sp1.K]
    g2 = gamma[1 + sp1.K :]
    direct = (
        z[:, 0]
        + ident_free * z[:, 1]
        + sp1.evaluate_all(z[:, 1]) @ g1
        + sp2.evaluate_all(z[:, 0] * z[:, 1]) @ g2
    )
    np.testing.assert_allclose(phi, direct, atol=1e-12)


def test_selector_out_of_range():
    spec = _spec_pinned_plus_spline()
    with pytest.raises(ValueError, match="out of range"):
        design_matrix(spec, [[1.0]])


def test_spec_requires_components():
    with pytest.raises(ValueError):
        SieveSpec(components=())


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def _fitted(spec, coefficients):
    return PhiEstimate(spec=spec, coefficients=np.asarray(coefficients, dtype=float),
                       criterion_value=0.0)


def test_anchor_shifts_to_value():
    spec = _spec_pinned_plus_spline(norm=Anchor(point=np.zeros(2), value=0.0))
    rng = np.random.default_rng(4)
    est = _fitted(spec, rng.normal(size=spec.n_free))
    raw_at_anchor = est.values([[0.0, 0.0]])[0]
    assert raw_at_anchor != 0.0
    out = apply_normalization(est)
    assert out.values([[0.0, 0.0]])[0] == pytest.approx(0.0, abs=1e-12)
    assert out.shift == pytest.approx(-raw_at_anchor, abs=1e-12)


def test_no_normalization_is_identity():
    spec = _spec_pinned_plus_spline()
    est = _fitted(spec, np.ones(spec.n_free))
    assert apply_normalization(est) is est


def test_two_point_normalization_exact():
    basis = BSplineBasis(2, make_knot_vector(np.linspace(-25, 55, 201), 2, 0))
    spec = SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),
            SplineComponent(input=Coordinate(1), basis=basis),
        ),
        normalization=TwoPoint(
            point1=np.array([-20.0, -20.0]), value1=0.0,
            point2=np.array([50.0, 50.0]), value2=1.0,
        ),
    )
    est = _fitted(spec, np.random.default_rng(5).normal(size=spec.n_free))
    out = apply_normalization(est)
    assert out.values([[-20.0, -20.0]])[0] == pytest.approx(0.0, abs=1e-12)
    assert out.values([[50.0, 50.0]])[0] == pytest.approx(1.0, abs=1e-12)


def test_two_point_requires_nonconstant():
    spec = SieveSpec(
        components=(IdentityComponent(input=Coordinate(0), coefficient=0.0, pinned=False),),
        normalization=TwoPoint(
            point1=np.array([1.0]), value1=0.0, point2=np.array([1.0]), value2=1.0
        ),
    )
    est = _fitted(spec, [2.0])
    with pytest.raises(NumericalError, match="constant"):
        apply_normalization(est)
    with pytest.raises(ValueError, match="same dimension"):
        TwoPoint(point1=np.array([1.0, 5.0]), value1=0.0, point2=np.array([2.0]), value2=1.0)


def test_normalization_idempotent_and_order_preserving():
    rng = np.random.default_rng(6)
    for norm in (
        Anchor(point=np.zeros(2), value=0.5),
        TwoPoint(point1=np.array([0.0, -2.0]), value1=0.0,
                 point2=np.array([0.0, 2.0]), value2=1.0),
    ):
        spec = _spec_pinned_plus_spline(norm=norm)
        est = _fitted(spec, rng.normal(size=spec.n_free))
        once = apply_normalization(est)
        twice = apply_normalization(once)
        assert twice.scale == pytest.approx(once.scale, rel=1e-12)
        assert twice.shift == pytest.approx(once.shift, abs=1e-12)
        pts = rng.uniform(-3, 3, size=(50, 2))
        raw_order = np.argsort(est.values(pts), kind="stable")
        if once.scale > 0:
            np.testing.assert_array_equal(np.argsort(once.values(pts), kind="stable"), raw_order)


def test_coefficient_length_checked():
    spec = _spec_pinned_plus_spline()
    with pytest.raises(ValueError, match="length"):
        _fitted(spec, np.ones(spec.n_free + 1))


# --------------------------------------------------------------------------
# JSON specs
# --------------------------------------------------------------------------


def test_spec_json_with_embedded_knots():
    text = """{
      "components": [
        {"type": "identity", "input": {"coord": 0}, "pinned": true, "coefficient": 1.5},
        {"type": "spline", "input": {"coord": 1}, "degree": 2,
         "knots": [-3, -3, -3, -0.5, 1, 3, 3, 3]},
        {"type": "identity", "input": {"product": [0, 1]}, "pinned": false}
      ],
      "normalization": {"type": "anchor", "point": [0, 0], "value": 0.25}
    }"""
    spec = sieve_spec_from_json(json.loads(text))
    ident, spline, inter = spec.components
    assert ident == IdentityComponent(input=Coordinate(0), coefficient=1.5, pinned=True)
    assert spline.input == Coordinate(1) and spline.basis.degree == 2
    np.testing.assert_array_equal(spline.basis.knots, [-3, -3, -3, -0.5, 1, 3, 3, 3])
    assert inter.input == Product(0, 1) and not inter.pinned
    assert spec.n_free == 5 + 1
    assert isinstance(spec.normalization, Anchor)
    np.testing.assert_array_equal(spec.normalization.point, [0.0, 0.0])
    assert spec.normalization.value == 0.25


def test_spec_template_binds_knots_from_data():
    template = {
        "components": [
            {"type": "identity", "input": {"coord": 0}, "pinned": True, "coefficient": 1.0},
            {"type": "spline", "input": {"coord": 1}, "degree": 1, "n_interior": 1},
        ],
        "normalization": {"type": "none"},
    }
    z = np.column_stack([np.zeros(5), [0.0, 1.0, 2.0, 3.0, 4.0]])
    spec = sieve_spec_from_json(template, z=z)
    np.testing.assert_array_equal(spec.components[1].basis.knots, [0, 0, 2, 4, 4])
    with pytest.raises(ValueError, match="no data"):
        sieve_spec_from_json(template)


def test_spec_json_two_point_and_product():
    obj = {
        "components": [
            {"type": "spline", "input": {"product": [0, 1]}, "degree": 2, "n_interior": 0,
             "knots": [0, 0, 0, 1, 1, 1]},
        ],
        "normalization": {"type": "two_point", "points": [[0, 0], [1, 1]], "values": [0, 1]},
    }
    spec = sieve_spec_from_json(obj)
    assert isinstance(spec.components[0].input, Product)
    assert isinstance(spec.normalization, TwoPoint)


@pytest.mark.parametrize(
    "component, detail",
    [
        ({"input": {"coord": 1.7}}, "coord must be an integer, got 1.7"),
        ({"input": {"coord": True}}, "coord must be an integer, got True"),
        ({"input": {"coord": "1"}}, "coord must be an integer, got '1'"),
        ({"input": {"product": [0, 1.5]}}, "product must be an integer, got 1.5"),
        ({"degree": 2.9}, "degree must be an integer, got 2.9"),
        ({"degree": True}, "degree must be an integer, got True"),
        ({"n_interior": 2.5}, "n_interior must be an integer, got 2.5"),
        ({"type": "identity", "pinned": "false"}, "pinned must be true or false, got 'false'"),
        ({"type": "identity", "pinned": 0}, "pinned must be true or false, got 0"),
        ({"type": "identity", "coefficient": True},
         "coefficient must be a finite number, got True"),
        ({"type": "identity", "coefficient": "2.5"},
         "coefficient must be a finite number, got '2.5'"),
        ({"type": "identity", "coefficient": float("nan")},
         "coefficient must be a finite number, got nan"),
        ({"type": "identity", "coefficient": 10**400},
         f"coefficient must be a finite number, got {10**400!r}"),
        ({"knots": [0, 0, 0, "1", 1, 1]}, "knots must be a finite number, got '1'"),
        ({"knots": [0, 0, 0, float("inf"), 1, 1]}, "knots must be a finite number, got inf"),
        ({"normalization": {"type": "anchor", "point": ["0", True]}},
         "point must be a finite number, got '0'"),
        ({"normalization": {"type": "anchor", "point": [0, True]}},
         "point must be a finite number, got True"),
        ({"normalization": {"type": "anchor", "point": [0, 0], "value": "1"}},
         "value must be a finite number, got '1'"),
        ({"normalization": {"type": "two_point", "points": [[0, 0], [1, None]],
                            "values": [0, 1]}}, "points must be a finite number, got None"),
        ({"normalization": {"type": "two_point", "points": [[0, 0], [1, 1]],
                            "values": [0, float("nan")]}},
         "values must be a finite number, got nan"),
    ],
    ids=["coord-1.7", "coord-true", "coord-str", "product-1.5", "degree-2.9", "degree-true",
         "n_interior-2.5", "pinned-str", "pinned-0", "coefficient-true", "coefficient-str",
         "coefficient-nan", "coefficient-beyond-float", "knots-str", "knots-inf", "anchor-point-str", "anchor-point-true",
         "anchor-value-str", "two-point-none", "two-point-value-nan"],
)
def test_spec_json_rejects_non_integers_and_non_booleans(component, detail):
    # floats are checked too: no boolean, string or non-finite value is read as a number
    component = dict(component)
    norm = component.pop("normalization", {"type": "none"})
    cj = dict({"type": "spline", "input": {"coord": 1}, "degree": 2, "n_interior": 1}, **component)
    z = np.column_stack([np.zeros(9), np.arange(9.0)])
    with pytest.raises(ValueError) as info:
        sieve_spec_from_json({"components": [cj], "normalization": norm}, z=z)
    assert str(info.value) == detail


def test_spec_json_takes_integral_floats():
    z = np.column_stack([np.zeros(9), np.arange(9.0)])
    as_floats = {"type": "spline", "input": {"coord": 1.0}, "degree": 2.0, "n_interior": 1.0}
    as_ints = {"type": "spline", "input": {"coord": 1}, "degree": 2, "n_interior": 1}
    a = sieve_spec_from_json({"components": [as_floats]}, z=z).components[0]
    b = sieve_spec_from_json({"components": [as_ints]}, z=z).components[0]
    assert a.input == b.input and type(a.input.index) is int
    assert a.basis.degree == b.basis.degree and type(a.basis.degree) is int
    np.testing.assert_array_equal(a.basis.knots, b.basis.knots)


def test_immutability():
    basis = BSplineBasis(1, np.array([0.0, 0.0, 1.0, 2.0, 2.0]))
    with pytest.raises(ValueError):
        basis.knots[0] = 5.0
