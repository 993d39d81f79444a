import numpy as np
import pytest

from ranksieve import (
    Anchor,
    BSplineBasis,
    Coordinate,
    DgpConfig,
    DiscreteW,
    EmptyWindowError,
    FullRank,
    IdentityComponent,
    KernelSpec,
    NumericalError,
    OptimizerConfig,
    Pairwise,
    Product,
    Sample,
    SieveSpec,
    SplineComponent,
    Weighted,
    design_matrix,
    evaluate_on_grid,
    generate,
    make_knot_vector,
    maximize_rank_criterion,
    mse_on_grid,
    series_ols,
)
from ranksieve import optimize
from ranksieve.optimize import _build_objective, _deficient_columns, ols_fit
from ranksieve.sieve import PhiEstimate, apply_normalization
from ranksieve.simulate import _spline_spec

from oracles import (
    bruteforce_rank_criterion,
    bruteforce_rank_criterion_discrete_w,
    bruteforce_rank_criterion_pairwise,
    bruteforce_rank_criterion_weighted,
    dependent_prefix_columns,
    pinned_block_lstsq,
)


def _single_spline_spec(data, degree=2, n_interior=2, norm=None):
    basis = BSplineBasis(degree, make_knot_vector(data, degree, n_interior))
    kwargs = {} if norm is None else {"normalization": norm}
    return SieveSpec(components=(SplineComponent(input=Coordinate(0), basis=basis),), **kwargs)


# --------------------------------------------------------------------------
# maximize_rank_criterion
# --------------------------------------------------------------------------


def test_monotone_toy_recovers_full_ordering():
    rng = np.random.default_rng(42)
    n = 200
    z = rng.uniform(0, 1, n)
    y = np.exp(2 * z)  # strictly increasing in z, no noise
    sample = Sample(y=y, z=z[:, None])
    spec = _single_spline_spec(z)
    fit = maximize_rank_criterion(sample, spec, FullRank(), OptimizerConfig(rng_seed=0))
    phi = fit.values(z[:, None])
    # Kendall tau of (phi, z) equals 1: every pair strictly concordant
    order = np.argsort(z)
    assert np.all(np.diff(phi[order]) > 0)
    # achieved criterion equals the maximum attainable rank-sum value
    best_possible = float(np.sort(y) @ np.arange(n)) / (n * (n - 1))
    assert fit.criterion_value == pytest.approx(best_possible, rel=1e-12)


def test_no_free_coefficients_is_an_error():
    sample = Sample(y=[1.0, 2.0], z=[[0.0, 1.0], [1.0, 2.0]])
    spec = SieveSpec(
        components=(IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),)
    )
    with pytest.raises(NumericalError, match="free coefficients"):
        maximize_rank_criterion(sample, spec, FullRank(), OptimizerConfig())


def test_determinism_bit_identical():
    rng = np.random.default_rng(1)
    n = 150
    sample = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)))
    spec = _single_spline_spec(sample.z[:, 0])
    cfg = OptimizerConfig(n_starts=5, max_iters=150, rng_seed=11)
    a = maximize_rank_criterion(sample, spec, FullRank(), cfg)
    b = maximize_rank_criterion(sample, spec, FullRank(), cfg)
    assert a.criterion_value == b.criterion_value
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert (a.scale, a.shift) == (b.scale, b.shift)


def test_distinct_seeds_draw_disjoint_start_sets(monkeypatch):
    starts = []
    nelder_mead = optimize._nelder_mead

    def recording_nelder_mead(f, x0, step, cfg):
        starts.append(tuple(x0))
        return nelder_mead(f, x0, step, cfg)

    monkeypatch.setattr(optimize, "_nelder_mead", recording_nelder_mead)
    rng = np.random.default_rng(1)
    n = 60
    sample = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)))
    spec = _single_spline_spec(sample.z[:, 0])
    start_sets = []
    for seed in range(4):
        starts.clear()
        cfg = OptimizerConfig(n_starts=20, max_iters=5, rng_seed=seed)
        maximize_rank_criterion(sample, spec, FullRank(), cfg)
        start_sets.append(set(starts))
        assert len(start_sets[-1]) == 20
    for i in range(4):
        for j in range(i):
            assert not start_sets[i] & start_sets[j], f"seeds {j} and {i} share start points"


def test_criterion_at_least_zero_vector_value():
    rng = np.random.default_rng(2)
    n = 120
    sample = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 2)))
    spec = _spline_spec(sample.z[:, 1], 2, 1)
    cfg = OptimizerConfig(n_starts=3, max_iters=100, rng_seed=5)
    fit = maximize_rank_criterion(sample, spec, FullRank(), cfg)
    objective = _build_objective(sample, spec, FullRank())
    assert fit.criterion_value >= objective(np.zeros(spec.n_free))


def test_coefficient_rescaling_leaves_criterion_unchanged():
    # in a pure linear sieve, scaling all free coefficients is a strictly
    # increasing transform of the candidate, so the criterion cannot move
    rng = np.random.default_rng(3)
    n = 80
    sample = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)))
    spec = _single_spline_spec(sample.z[:, 0])
    objective = _build_objective(sample, spec, FullRank())
    for _ in range(10):
        gamma = rng.normal(size=spec.n_free)
        for c in (0.1, 2.0, 57.0):
            assert objective(c * gamma) == objective(gamma)


def test_empty_cell_and_window_propagate():
    rng = np.random.default_rng(4)
    n = 30
    sample = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)), w=np.zeros((n, 1)))
    spec = _single_spline_spec(sample.z[:, 0])
    with pytest.raises(EmptyWindowError):
        maximize_rank_criterion(sample, spec, DiscreteW([9.0]), OptimizerConfig())
    with pytest.raises(EmptyWindowError):
        maximize_rank_criterion(
            sample, spec, Weighted([9.0], KernelSpec("uniform", [0.5])), OptimizerConfig()
        )
    one_row = Sample(y=[1.0], z=[[0.5]], w=[[0.0]])
    identity = SieveSpec(
        components=(IdentityComponent(input=Coordinate(0), coefficient=0.0, pinned=False),)
    )
    with pytest.raises(NumericalError, match="two observations"):
        maximize_rank_criterion(
            one_row, identity, Pairwise(KernelSpec("gaussian", [1.0])), OptimizerConfig()
        )


def test_objective_matches_bruteforce_for_every_variant():
    # integer regressors and dyadic coefficients keep phi exact, so ties in
    # phi are real ties whatever order the design product sums in
    rng = np.random.default_rng(13)
    n = 40
    z = rng.integers(-3, 4, size=(n, 2)).astype(float)
    w = rng.integers(-2, 3, size=(n, 1)) / 2.0
    sample = Sample(y=rng.normal(size=n), z=z, w=w)
    spec = SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),
            IdentityComponent(input=Coordinate(1), coefficient=0.0, pinned=False),
            IdentityComponent(input=Product(0, 1), coefficient=0.0, pinned=False),
        )
    )
    gau = KernelSpec("gaussian", [0.8])
    cases = [
        (FullRank(), lambda phi: bruteforce_rank_criterion(sample, phi)),
        (DiscreteW([0.5]), lambda phi: bruteforce_rank_criterion_discrete_w(sample, phi, [0.5])),
        (Pairwise(gau), lambda phi: bruteforce_rank_criterion_pairwise(sample, phi, gau)),
    ]
    for family in ("uniform", "gaussian", "epanechnikov"):
        k = KernelSpec(family, [0.8])
        cases.append(
            (Weighted([0.0], k),
             lambda phi, k=k: bruteforce_rank_criterion_weighted(sample, phi, [0.0], k))
        )
    D, offset = design_matrix(spec, sample.z)
    for variant, oracle in cases:
        objective = _build_objective(sample, spec, variant)
        for _ in range(5):
            gamma = rng.integers(-8, 9, size=spec.n_free) / 4.0
            phi = offset + D @ gamma
            assert len(np.unique(phi)) < n
            assert objective(gamma) == pytest.approx(oracle(phi), abs=1e-12), variant


def test_discrete_w_variant_fits_on_cell():
    rng = np.random.default_rng(5)
    n = 300
    z = rng.uniform(0, 1, n)
    w = rng.integers(0, 2, n).astype(float)
    y = np.where(w == 1.0, np.exp(z), rng.normal(size=n))  # signal only in cell w=1
    sample = Sample(y=y, z=z[:, None], w=w[:, None])
    spec = _single_spline_spec(z, degree=1, n_interior=1)
    fit = maximize_rank_criterion(
        sample, spec, DiscreteW([1.0]), OptimizerConfig(n_starts=10, rng_seed=3)
    )
    cell = w == 1.0
    phi = fit.values(sample.z[cell])
    order = np.argsort(z[cell])
    assert np.mean(np.diff(phi[order]) > 0) > 0.9  # ordering mostly recovered


def test_mild_distortion_fit_tracks_sine():
    cfg = DgpConfig(n=1000, sigma=1.0, c=3.0, a=0.5, b=0.5, seed=3,
                    quantile_approx_draws=50_000)
    gen = generate(cfg)
    spec = _spline_spec(gen.sample.z[:, 1], 2, 2)
    fit = maximize_rank_criterion(gen.sample, spec, FullRank(), OptimizerConfig(rng_seed=3))
    tgrid = np.linspace(-2.9, 2.9, 101)
    curve = evaluate_on_grid(fit, np.column_stack([np.zeros_like(tgrid), tgrid]))
    truth = np.sin(tgrid)
    assert np.max(np.abs(curve - truth)) < 0.45
    assert mse_on_grid(curve, truth) < 0.05


# --------------------------------------------------------------------------
# series least squares
# --------------------------------------------------------------------------


def test_series_ols_interpolates_exact_spline_signal():
    rng = np.random.default_rng(6)
    n = 200
    z = rng.uniform(-2, 2, n)
    spec = _single_spline_spec(z, degree=1, n_interior=2)
    y = 0.3 + 1.7 * z  # linear signal lies inside a degree-1 spline space
    sample = Sample(y=y, z=z[:, None])
    fit = series_ols(sample, spec)
    resid = y - fit.values(sample.z) - (y - fit.values(sample.z)).mean()
    np.testing.assert_allclose(resid, 0.0, atol=1e-10)


def test_series_ols_flat_when_no_signal():
    cfg = DgpConfig(n=400, sigma=1.0, c=3.0, a=1.0, b=1.0, seed=9,
                    quantile_approx_draws=10_000)
    gen = generate(cfg)
    y = gen.sample.z[:, 0]  # replace outcome: exactly the pinned term, no z2 signal
    sample = Sample(y=y, z=gen.sample.z)
    spec = _spline_spec(sample.z[:, 1], 2, 2)
    fit = series_ols(sample, spec)
    tgrid = np.linspace(-2.5, 2.5, 41)
    curve = evaluate_on_grid(fit, np.column_stack([np.zeros_like(tgrid), tgrid]))
    np.testing.assert_allclose(curve, 0.0, atol=1e-8)


def test_series_ols_normal_equations():
    rng = np.random.default_rng(7)
    n = 500
    z = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    sample = Sample(y=y, z=z)
    spec = _spline_spec(z[:, 1], 2, 2)
    fit = series_ols(sample, spec)
    D, offset = design_matrix(spec, z)
    X = np.column_stack([D, np.ones(n)])  # basis spans constants; intercept redundant
    resid = (y - offset) - D @ fit.coefficients
    # project out the intercept direction handled inside the fit
    resid = resid - resid.mean()
    assert np.max(np.abs(D.T @ resid)) < 1e-8


def test_series_ols_duplicated_column_gets_zero():
    rng = np.random.default_rng(8)
    n = 50
    z = rng.normal(size=(n, 1))
    y = rng.normal(size=n)
    spec = SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=0.0, pinned=False),
            IdentityComponent(input=Coordinate(0), coefficient=0.0, pinned=False),
        )
    )
    fit = series_ols(Sample(y=y, z=z), spec)
    assert fit.coefficients[1] == 0.0
    D, offset = design_matrix(spec, z)
    resid = (y - offset) - D @ fit.coefficients
    resid = resid - resid.mean()  # the intercept column is fitted, not stored
    assert np.max(np.abs(D.T @ resid)) < 1e-10


def test_series_ols_wide_design_fits():
    rng = np.random.default_rng(13)
    z = np.sort(rng.uniform(-1, 1, 4))
    y = rng.normal(size=4)
    spec = _single_spline_spec(z, degree=2, n_interior=2)  # 5 columns plus intercept, 4 rows
    fit = series_ols(Sample(y=y, z=z[:, None]), spec)
    assert np.all(np.isfinite(fit.coefficients))
    resid = y - fit.values(z[:, None])
    np.testing.assert_allclose(resid - resid.mean(), 0.0, atol=1e-10)


def _two_block_cases():
    """(sample, spec, block sizes): z2 and W spline blocks, then z2 and z1*z2 blocks."""
    for seed in range(3):
        for degree, K in ((1, 3), (2, 4), (2, 6), (3, 5)):
            rng = np.random.default_rng(100 + seed)
            n = 400
            z = np.column_stack(
                [rng.normal(1, 1, n), rng.uniform(-3, 3, n), rng.normal(0, 1, n)]
            )
            y = z[:, 0] + np.sin(z[:, 1]) + np.cos(z[:, 2]) + rng.normal(size=n)
            spec = _spline_spec(z[:, 1:], degree, K - degree)
            yield Sample(y=y, z=z), spec, [K + 1, K + 1]
            product = SplineComponent(
                input=Product(0, 1),
                basis=BSplineBasis(degree, make_knot_vector(z[:, 0] * z[:, 1], degree, 0)),
            )
            spec = SieveSpec(
                components=_spline_spec(z[:, 1], degree, K - degree).components + (product,),
                normalization=Anchor(point=np.zeros(3), value=0.0),
            )
            yield Sample(y=y, z=z), spec, [K + 1, degree + 1]


def test_series_ols_two_blocks_matches_pinned_lstsq():
    for sample, spec, sizes in _two_block_cases():
        fit = series_ols(sample, spec)
        D, offset = design_matrix(spec, sample.z)
        gamma = pinned_block_lstsq(D, sample.y - offset, sizes)
        ref = apply_normalization(PhiEstimate(spec=spec, coefficients=gamma, criterion_value=0.0))
        tgrid = np.linspace(-2.9, 2.9, 59)
        pts = np.vstack([np.column_stack([np.zeros(59), tgrid, np.zeros(59)]), sample.z[:100]])
        np.testing.assert_allclose(
            evaluate_on_grid(fit, pts), evaluate_on_grid(ref, pts), rtol=0, atol=1e-10
        )


def test_deficient_columns_match_prefix_ranks():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        n = int(rng.integers(k, 40))
        X = rng.normal(size=(n, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
        for j in rng.choice(np.arange(1, k), size=min(3, k - 1), replace=False):
            kind = rng.integers(3)
            if kind == 0:
                X[:, j] = X[:, :j] @ rng.normal(size=j)  # combination of earlier columns
            elif kind == 1:
                X[:, j] = -3.0 * X[:, rng.integers(j)]  # scaled duplicate
            else:
                X[:, j] = 0.0
        assert _deficient_columns(X) == dependent_prefix_columns(X), seed
    wide = np.random.default_rng(41).normal(size=(5, 9))
    wide[:, 2] = wide[:, 0] - wide[:, 1]  # leaves room for one more independent column
    assert _deficient_columns(wide) == dependent_prefix_columns(wide) == [2, 6, 7, 8]


def test_ols_core_invariant_to_column_mixing():
    rng = np.random.default_rng(9)
    n = 300
    X = rng.normal(size=(n, 5))
    y = rng.normal(size=n)
    fitted = X @ ols_fit(X, y)
    for _ in range(5):
        while True:
            A = rng.normal(size=(5, 5))
            if abs(np.linalg.det(A)) > 1e-3:
                break
        mixed = (X @ A) @ ols_fit(X @ A, y)
        np.testing.assert_allclose(mixed, fitted, atol=1e-8)


# --------------------------------------------------------------------------
# evaluate_on_grid
# --------------------------------------------------------------------------


def test_grid_anchor_pin_exact():
    rng = np.random.default_rng(10)
    z2 = rng.uniform(-3, 3, 200)
    spec = _spline_spec(z2, 2, 2)
    sample = Sample(y=rng.normal(size=200), z=np.column_stack([rng.normal(size=200), z2]))
    fit = series_ols(sample, spec)
    grid = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
    vals = evaluate_on_grid(fit, grid)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def test_grid_single_point():
    rng = np.random.default_rng(11)
    z = rng.uniform(0, 1, 50)
    spec = _single_spline_spec(z, degree=1, n_interior=1)
    sample = Sample(y=rng.normal(size=50), z=z[:, None])
    fit = series_ols(sample, spec)
    assert evaluate_on_grid(fit, [[0.5]]).shape == (1,)


def test_grid_product_row_major():
    # two-coordinate product grid, row-major flattening: second axis fastest
    m = 7
    ax = np.linspace(-20, 50, m)
    pts = np.array([[a, b] for a in ax for b in ax])
    rng = np.random.default_rng(12)
    z2 = rng.uniform(-25, 55, 300)
    z = np.column_stack([rng.uniform(-25, 55, 300), z2])
    spec = SieveSpec(
        components=(
            IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),
            SplineComponent(
                input=Coordinate(1),
                basis=BSplineBasis(2, make_knot_vector(z2, 2, 0)),
            ),
        ),
        normalization=Anchor(point=np.array([0.0, 0.0]), value=0.0),
    )
    fit = series_ols(Sample(y=rng.normal(size=300), z=z), spec)
    vals = evaluate_on_grid(fit, pts)
    assert vals.shape == (m * m,)
    # row-major: consecutive entries vary the second coordinate
    direct = fit.values(np.array([[ax[0], ax[1]]]))[0]
    assert vals[1] == pytest.approx(direct, rel=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n_starts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(init_scale=-1.0)
