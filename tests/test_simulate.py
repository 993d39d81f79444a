import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ranksieve import (
    DgpConfig,
    KernelSpec,
    LocalEstimateSet,
    MCConfig,
    NumericalError,
    OptimizerConfig,
    Sample,
    Weighted,
    aggregate_lad,
    aggregate_ls,
    approximate_quantiles,
    evaluate_on_grid,
    fit_local_aggregate,
    generate,
    h_piecewise,
    ks_two_sample,
    maximize_rank_criterion,
    mse_on_grid,
    run_monte_carlo,
    simulate,
    write_summary_csvs,
)
from ranksieve.simulate import (
    QUANTILE_CHUNK,
    GeneratedSample,
    _draw_z1,
    _draw_z2,
    _kolmogorov_sf,
    _spline_spec,
    _substream,
    _weighted_replication,
)

from oracles import ecdf_sup_distance, reference_generate, reference_kink_quantiles


def _tiny_mc(**overrides):
    base = dict(
        variant="baseline",
        n=200,
        sigma=(1.0,),
        c=(3.0,),
        K=(3,),
        a=0.5,
        b=0.5,
        replications=2,
        master_seed=123,
        quantile_approx_draws=10_000,
        optimizer=OptimizerConfig(n_starts=3, max_iters=120),
        grid_points=21,
        n_jobs=1,
    )
    base.update(overrides)
    return MCConfig(**base)


# --------------------------------------------------------------------------
# the outcome distortion h
# --------------------------------------------------------------------------


def test_h_identity_when_slopes_one():
    y = np.linspace(-5, 5, 101)
    np.testing.assert_array_equal(h_piecewise(y, -1.0, 1.0, 1.0, 1.0), y)


def test_h_censors_with_zero_slopes():
    assert h_piecewise(7.3, -1.0, 2.0, 0.0, 0.0) == 2.0
    assert h_piecewise(-9.0, -1.0, 2.0, 0.0, 0.0) == -1.0
    assert h_piecewise(0.5, -1.0, 2.0, 0.0, 0.0) == 0.5


def test_h_half_slope_above():
    assert h_piecewise(2.0 + 2.0, -1.0, 2.0, 0.5, 0.5) == 3.0


def test_h_rejects_crossed_quantiles():
    with pytest.raises(ValueError):
        h_piecewise(0.0, 1.0, -1.0, 0.5, 0.5)


def test_h_continuous_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(25):
        q30 = rng.normal()
        q70 = q30 + abs(rng.normal())
        a, b = rng.uniform(0, 3, size=2)
        y = np.sort(np.concatenate([
            np.linspace(q30 - 5, q70 + 5, 2001),
            [q30, q70, q30 - 1e-9, q30 + 1e-9, q70 - 1e-9, q70 + 1e-9],
        ]))
        h = h_piecewise(y, q30, q70, a, b)
        assert np.all(np.diff(h) >= -1e-12)  # weakly monotone
        lip = max(1.0, a, b)
        assert np.max(np.abs(np.diff(h))) <= lip * np.max(np.diff(y)) + 1e-12  # continuous


# --------------------------------------------------------------------------
# quantile approximation
# --------------------------------------------------------------------------


def test_quantiles_bracket_the_symmetric_center():
    cfg = DgpConfig(n=10, seed=5, quantile_approx_draws=200_000)
    q30, q70 = approximate_quantiles(cfg)
    assert q30 < 1.0 < q70
    assert q30 + q70 == pytest.approx(2.0, abs=0.02)  # symmetric around 1


def test_quantiles_degenerate_limit_matches_normal():
    scipy_stats = pytest.importorskip("scipy.stats")
    cfg = DgpConfig(n=10, sigma=1e-9, c=1e-9, seed=5, quantile_approx_draws=1_000_000)
    q30, q70 = approximate_quantiles(cfg)
    assert q30 == pytest.approx(1.0 + scipy_stats.norm.ppf(0.3), abs=0.01)
    assert q70 == pytest.approx(1.0 + scipy_stats.norm.ppf(0.7), abs=0.01)


def test_quantiles_deterministic():
    cfg = DgpConfig(n=10, seed=77, quantile_approx_draws=10_000)
    assert approximate_quantiles(cfg) == approximate_quantiles(cfg)


@pytest.mark.parametrize(
    "draws",
    [10_000, QUANTILE_CHUNK - 1, QUANTILE_CHUNK, QUANTILE_CHUNK + 1, 123_457, 1_000_000],
)
@pytest.mark.parametrize("variant", ["baseline", "weighted"])
def test_chunked_quantiles_match_the_whole_array_draw_bitwise(variant, draws):
    # the seed moves where Z1 ends in the stream, and so where Z2 and U start
    for seed in (0, 7, 11):
        for sigma, c in [(0.5, 2.0), (0.5, 3.0), (2.0, 2.0), (2.0, 3.0)]:
            cfg = DgpConfig(variant=variant, sigma=sigma, c=c, quantile_approx_draws=draws,
                            seed=seed)
            ref = reference_kink_quantiles(variant, sigma, c, _substream(seed, 0), draws)
            got = approximate_quantiles(cfg)
            assert [q.hex() for q in got] == [q.hex() for q in ref], (seed, sigma, c)


@pytest.mark.parametrize("variant", ["baseline", "weighted"])
def test_generate_matches_the_whole_array_reference_bytewise(variant):
    cfg = DgpConfig(variant=variant, n=700, sigma=0.5, c=2.0, a=0.0, b=0.3,
                    quantile_approx_draws=QUANTILE_CHUNK + 1, seed=12)
    y, z, w, ystar = reference_generate(
        variant, cfg.n, cfg.sigma, cfg.c, cfg.a, cfg.b, cfg.quantile_approx_draws,
        _substream(cfg.seed, 0), _substream(cfg.seed, 1),
    )
    gen = generate(cfg)
    assert gen.sample.y.tobytes() == y.tobytes()
    assert gen.sample.z.tobytes() == z.tobytes()
    assert gen.ystar.tobytes() == ystar.tobytes()
    if w is None:
        assert gen.sample.w is None
    else:
        assert gen.sample.w[:, 0].tobytes() == w.tobytes()


def test_quantile_draw_holds_about_two_arrays():
    # Z1's buffer (which becomes h's argument) and Z2, plus chunk-sized temporaries
    draws = 1_000_000
    cfg = DgpConfig(variant="weighted", quantile_approx_draws=draws, seed=4)
    tracemalloc.start()
    try:
        approximate_quantiles(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * draws, f"peak {peak / 1e6:.1f} MB"


def test_quantile_draw_holds_one_array():
    # Z1's buffer (which becomes h's argument) plus chunk-sized Z2, U and temporaries
    draws = 1_000_000
    cfg = DgpConfig(variant="weighted", quantile_approx_draws=draws, seed=4)
    tracemalloc.start()
    try:
        approximate_quantiles(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * draws, f"peak {peak / 1e6:.1f} MB"


# --------------------------------------------------------------------------
# sample generation
# --------------------------------------------------------------------------


def test_generate_identity_distortion_no_noise():
    # with slopes a = b = 1 the distortion is the identity: Y = Y* + V exactly
    cfg = DgpConfig(n=500, a=1.0, b=1.0, seed=3, quantile_approx_draws=10_000)
    gen = generate(cfg)
    rng = _substream(cfg.seed, 1)
    _draw_z1(cfg, rng, cfg.n)
    _draw_z2(cfg, rng, cfg.n)
    rng.standard_normal(cfg.n)  # U
    v = rng.standard_normal(cfg.n)
    np.testing.assert_array_equal(gen.sample.y, gen.ystar + v)


def test_generate_clt_sanity():
    cfg = DgpConfig(n=1000, sigma=1.0, seed=21, quantile_approx_draws=10_000)
    gen = generate(cfg)
    assert abs(gen.sample.z[:, 0].mean() - 1.0) < 4.0 / np.sqrt(1000)
    assert np.max(np.abs(gen.sample.z[:, 1])) <= 3.0


def test_generate_reproducible():
    cfg = DgpConfig(n=100, seed=8, quantile_approx_draws=10_000)
    a, b = generate(cfg), generate(cfg)
    np.testing.assert_array_equal(a.sample.y, b.sample.y)
    np.testing.assert_array_equal(a.sample.z, b.sample.z)
    np.testing.assert_array_equal(a.ystar, b.ystar)


def test_generate_weighted_controls_correlate_with_z2():
    cfg = DgpConfig(variant="weighted", n=1000, a=0.0, b=0.0, seed=9,
                    quantile_approx_draws=10_000)
    gen = generate(cfg)
    w = gen.sample.w[:, 0]
    assert np.corrcoef(gen.sample.z[:, 1], w)[0, 1] > 0.5


def test_dgp_validation():
    with pytest.raises(ValueError):
        DgpConfig(n=1)
    with pytest.raises(ValueError):
        DgpConfig(sigma=0.0)
    with pytest.raises(ValueError):
        DgpConfig(a=-0.1)
    with pytest.raises(ValueError):
        DgpConfig(quantile_approx_draws=100)
    with pytest.raises(ValueError):
        DgpConfig(variant="other")


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------


def test_mse_examples():
    assert mse_on_grid([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_on_grid([2.0, 3.0], [1.0, 2.0]) == 1.0
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=33), rng.normal(size=33)
    assert mse_on_grid(a, b) == pytest.approx(sum((x - y) ** 2 for x, y in zip(a, b)) / 33)
    with pytest.raises(ValueError):
        mse_on_grid([1.0], [1.0, 2.0])


def test_ks_identical_samples():
    x = np.random.default_rng(2).normal(size=50)
    res = ks_two_sample(x, x)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_ks_disjoint_supports():
    res = ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0])
    assert res.statistic == 1.0


def test_ks_statistic_matches_bruteforce():
    assert ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5]).statistic == pytest.approx(
        ecdf_sup_distance([1, 2, 3], [1.5, 2.5, 3.5]), abs=1e-15
    )
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=rng.integers(2, 40))
        y = rng.normal(size=rng.integers(2, 40))
        assert ks_two_sample(x, y).statistic == pytest.approx(
            ecdf_sup_distance(x, y), abs=1e-14
        )


def test_ks_invariant_under_increasing_transform():
    rng = np.random.default_rng(4)
    x = rng.normal(size=60)
    y = rng.normal(size=45) + 0.3
    base = ks_two_sample(x, y)
    trans = ks_two_sample(np.exp(x), np.exp(y))
    assert base.statistic == trans.statistic
    assert base.p_value == trans.p_value


def test_ks_pvalue_matches_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    for t in (0.3, 0.8, 1.2, 2.0):
        assert _kolmogorov_sf(t) == pytest.approx(float(scipy_special.kolmogorov(t)), abs=1e-10)
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    y = rng.normal(size=150)
    res = ks_two_sample(x, y)
    en = np.sqrt(200 * 150 / 350)
    assert res.p_value == pytest.approx(float(scipy_special.kolmogorov(en * res.statistic)),
                                        abs=1e-10)
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


# --------------------------------------------------------------------------
# Monte Carlo driver
# --------------------------------------------------------------------------


def test_mc_single_replication_quantiles_collapse():
    cfg = _tiny_mc(replications=1)
    summary = run_monte_carlo(cfg)
    cell = summary.cells[0]
    np.testing.assert_array_equal(cell.rank_q05, cell.rank_median)
    np.testing.assert_array_equal(cell.rank_median, cell.rank_q95)
    assert cell.n_failed == 0


def test_mc_quantile_ordering_and_accounting():
    cfg = _tiny_mc(replications=3)
    summary = run_monte_carlo(cfg)
    cell = summary.cells[0]
    assert np.all(cell.rank_q05 <= cell.rank_median)
    assert np.all(cell.rank_median <= cell.rank_q95)
    assert cell.replications == 3
    assert cell.n_failed + 3 - len([f for f in summary.failures]) == 3


def test_mc_weighted_smoke():
    cfg = _tiny_mc(
        variant="weighted",
        n=300,
        a=0.0,
        b=0.0,
        replications=1,
        n_w_draws=8,
        local_optimizer=OptimizerConfig(n_starts=2, max_iters=80),
    )
    summary = run_monte_carlo(cfg)
    cell = summary.cells[0]
    assert cell.n_failed == 0
    assert np.isfinite(cell.mse_rank) and np.isfinite(cell.mse_ols)


@pytest.mark.parametrize("variant", ["baseline", "weighted"])
def test_mc_results_do_not_depend_on_worker_count(variant):
    cfg = _tiny_mc(
        variant=variant,
        replications=3,
        n_w_draws=4,
        local_optimizer=OptimizerConfig(n_starts=2, max_iters=60),
    )
    cells = [run_monte_carlo(replace(cfg, n_jobs=jobs)).cells[0] for jobs in (1, 2)]
    assert [cell.n_failed for cell in cells] == [0, 0]

    def hexed(cell):
        values = [cell.mse_rank, cell.mse_ols, *cell.rank_median, *cell.ols_median]
        return [float(v).hex() for v in values]

    assert hexed(cells[0]) == hexed(cells[1])


def test_mc_starts_no_more_workers_than_replications(monkeypatch):
    pools = []
    context = multiprocessing.get_context()

    def recording_pool(processes):
        pools.append(processes)
        return context.Pool(processes=processes)

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    recording = SimpleNamespace(Pool=recording_pool)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: recording)
    summary = run_monte_carlo(_tiny_mc(replications=3, n_jobs=0))
    assert pools == [3]
    assert summary.cells[0].n_failed == 0
    run_monte_carlo(_tiny_mc(replications=1, n_jobs=0))
    assert pools == [3]  # one replication runs in this process
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov"])
def test_weighted_replication_skips_small_windows_for_compact_kernels(kernel):
    # controls in far-apart pairs: every window holds 2 rows, below n_free + 2 = 6
    n = 40
    w = np.repeat(10.0 * np.arange(n // 2), 2) + np.tile([0.0, 0.01], n // 2)
    rng = np.random.default_rng(14)
    z = np.column_stack([rng.normal(size=n), rng.uniform(-3, 3, n)])
    sample = Sample(y=rng.normal(size=n), z=z, w=w)
    spec = _spline_spec(z[:, 1], 2, 1)
    cfg = MCConfig(
        variant="weighted",
        n=n,
        n_w_draws=5,
        bandwidth_scale=0.001,
        kernel=kernel,
        local_optimizer=OptimizerConfig(n_starts=1, max_iters=20),
    )
    grid_pts = np.column_stack([np.zeros(5), np.linspace(-2, 2, 5)])
    with pytest.raises(NumericalError, match="no control draw"):
        _weighted_replication(cfg, 0, 0, sample, spec, grid_pts)


def test_weighted_degeneracy_is_judged_over_the_fits_made(monkeypatch):
    # constant y makes every local fit degenerate; 12 rows share w = 0, the
    # other 28 sit in far-apart pairs whose 2-row windows are skipped
    n = 40
    rng = np.random.default_rng(15)
    w = np.concatenate([np.zeros(12), np.repeat(10.0 * np.arange(1, 15), 2)])
    z = np.column_stack([rng.normal(size=n), rng.uniform(-3, 3, n)])
    sample = Sample(y=np.ones(n), z=z, w=w)
    monkeypatch.setattr(simulate, "generate", lambda dgp: GeneratedSample(sample, sample.y))
    fits = []
    real_fit = simulate.maximize_rank_criterion

    def counting_fit(*args):
        fits.append(real_fit(*args))
        return fits[-1]

    monkeypatch.setattr(simulate, "maximize_rank_criterion", counting_fit)
    cfg = _tiny_mc(
        variant="weighted",
        n=n,
        replications=1,
        n_w_draws=10,
        bandwidth_scale=0.01,
        local_optimizer=OptimizerConfig(n_starts=2, max_iters=40),
    )
    cell = run_monte_carlo(cfg).cells[0]
    # at most half of the draws were fitted, and every fit made was degenerate
    assert 0 < len(fits) <= cfg.n_w_draws // 2 and all(fit.degenerate for fit in fits)
    assert cell.n_failed == 0 and cell.n_degenerate == 1


def test_fit_local_aggregate_skips_an_empty_window_and_combines_the_rest():
    rng = np.random.default_rng(16)
    n = 120
    z = np.column_stack([rng.normal(size=n), rng.uniform(-3, 3, n)])
    sample = Sample(y=z[:, 0] + np.sin(z[:, 1]) + rng.normal(size=n), z=z, w=rng.uniform(-1, 1, n))
    spec = _spline_spec(z[:, 1], 2, 1)
    kernel = KernelSpec("uniform", [0.5])
    w0s = [-0.5, 5.0, 0.0, 0.5]  # no control lies within 0.5 of 5.0
    optimizers = [OptimizerConfig(n_starts=2, max_iters=60, rng_seed=d) for d in range(4)]
    grid = np.column_stack([np.zeros(7), np.linspace(-2, 2, 7)])
    curve, fits = fit_local_aggregate(sample, spec, kernel, w0s, optimizers, grid)
    assert fits[1] is None and all(fits[d] is not None for d in (0, 2, 3))
    # point d is fitted with its own optimizer config
    direct = maximize_rank_criterion(sample, spec, Weighted([0.0], kernel), optimizers[2])
    np.testing.assert_array_equal(fits[2].coefficients, direct.coefficients)
    curves = np.vstack([evaluate_on_grid(fits[d], grid) for d in (0, 2, 3)])
    expected = aggregate_lad(LocalEstimateSet(grid=grid, curves=curves))
    assert [v.hex() for v in curve] == [v.hex() for v in expected]
    curve_ls, _ = fit_local_aggregate(sample, spec, kernel, w0s, optimizers, grid, "ls")
    expected_ls = aggregate_ls(LocalEstimateSet(grid=grid, curves=curves))
    assert [v.hex() for v in curve_ls] == [v.hex() for v in expected_ls]
    with pytest.raises(NumericalError, match="no control draw"):
        fit_local_aggregate(sample, spec, kernel, [5.0, -5.0], optimizers[:2], grid)
    with pytest.raises(ValueError):
        fit_local_aggregate(sample, spec, kernel, w0s, optimizers[:3], grid)
    with pytest.raises(ValueError, match="aggregation"):
        fit_local_aggregate(sample, spec, kernel, w0s, optimizers, grid, "mean")


def test_failed_replications_are_recorded_and_written_as_nan(monkeypatch, tmp_path):
    # a constant control has no spread, so no bandwidth: every replication fails
    n = 40
    rng = np.random.default_rng(17)
    z = np.column_stack([rng.normal(size=n), rng.uniform(-3, 3, n)])
    sample = Sample(y=rng.normal(size=n), z=z, w=np.full(n, 0.5))
    monkeypatch.setattr(simulate, "generate", lambda dgp: GeneratedSample(sample, sample.y))
    summary = run_monte_carlo(_tiny_mc(variant="weighted", n=n, replications=2, n_w_draws=3))
    cell = summary.cells[0]
    assert cell.n_failed == cell.replications == 2
    assert [(tag, rep) for tag, rep, _ in summary.failures] == [(cell.tag, 0), (cell.tag, 1)]
    for _, _, message in summary.failures:
        assert message.startswith("NumericalError: control variable is degenerate")
    assert np.isnan([cell.mse_rank, cell.mse_ols, cell.ks_reject_rate]).all()
    for curve in (cell.rank_median, cell.rank_q05, cell.rank_q95, cell.ols_median):
        assert curve.shape == cell.grid.shape and np.isnan(curve).all()
    write_summary_csvs(summary, str(tmp_path))
    table = (tmp_path / "mse_table.csv").read_text().splitlines()
    assert table[1].split(",")[3:] == ["nan", "nan", "nan", "2"]
    rows = (tmp_path / f"curves_{cell.tag}.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2:] == ["nan"] * 4 for row in rows)


def test_mc_cell_grid_ordering():
    cfg = _tiny_mc(sigma=(0.5, 1.0), K=(3, 4))
    summary = run_monte_carlo(cfg)
    labels = [(c.sigma, c.c, c.K) for c in summary.cells]
    assert labels == [(0.5, 3.0, 3), (0.5, 3.0, 4), (1.0, 3.0, 3), (1.0, 3.0, 4)]


def test_mc_config_validation_and_k_convention():
    cfg = _tiny_mc()
    assert cfg.n_interior_for(4) == 2  # K+1 basis functions of degree 2
    with pytest.raises(ValueError, match="too small"):
        _tiny_mc(K=(1,))
    with pytest.raises(ValueError, match="unknown"):
        MCConfig.from_dict({"replicationz": 5})
    with pytest.raises(ValueError):
        _tiny_mc(aggregation="mean")
    # DGP fields are checked for every (sigma, c) pair before any replication runs
    with pytest.raises(ValueError, match="sigma and c must be positive"):
        _tiny_mc(sigma=(1.0, -1.0))
    with pytest.raises(ValueError, match="n must be at least 2"):
        _tiny_mc(n=1)
    with pytest.raises(ValueError, match="quantile_approx_draws"):
        _tiny_mc(quantile_approx_draws=100)
    with pytest.raises(ValueError, match="variant"):
        _tiny_mc(variant="nonclassical")


def test_integer_fields_take_integral_numbers_and_reject_the_rest():
    cfg = MCConfig.from_dict(
        {"n": 150.0, "K": [4.0, 5], "replications": 2.0, "master_seed": 3.0,
         "quantile_approx_draws": 1e4, "optimizer": {"n_starts": 2.0}}
    )
    ints = (cfg.n, *cfg.K, cfg.replications, cfg.master_seed, cfg.quantile_approx_draws,
            cfg.optimizer.n_starts, DgpConfig(n=150.0).n, DgpConfig(seed=np.uint64(7)).seed)
    assert all(type(v) is int for v in ints)
    assert cfg.K == (4, 5)
    cases = [
        ({"K": [4.7]}, "K"),
        ({"replications": 2.5}, "replications"),
        ({"n": True}, "n"),
        ({"n_jobs": float("nan")}, "n_jobs"),
        ({"master_seed": "3"}, "master_seed"),
        ({"optimizer": {"n_starts": 2.5}}, "n_starts"),
    ]
    for obj, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            MCConfig.from_dict(obj)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        DgpConfig(seed=0.5)


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"optimizer": {"init_scale": float("nan")}}, "init_scale"),
        ({"local_optimizer": {"init_scale": float("inf")}}, "init_scale"),
        ({"sigma": [1.0, float("nan")]}, "sigma"),
        ({"c": [float("inf")]}, "c"),
        ({"a": float("nan")}, "a"),
        ({"b": float("-inf")}, "b"),
        ({"grid_margin": float("nan")}, "grid_margin"),
        ({"bandwidth_scale": float("inf")}, "bandwidth_scale"),
        ({"a": "0.5"}, "a"),
        ({"grid_margin": True}, "grid_margin"),
        ({"sigma": ["0.5", 1.0]}, "sigma"),
        ({"sigma": [0.5, True]}, "sigma"),
        ({"c": "3"}, "c"),
    ],
)
def test_float_fields_must_be_finite(obj, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        MCConfig.from_dict(obj)
    if name in ("sigma", "c", "a", "b"):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            DgpConfig(**{name: float("nan")})


def test_mc_kernel_must_be_a_known_family():
    assert MCConfig(kernel="epanechnikov").kernel == "epanechnikov"
    with pytest.raises(ValueError, match="kernel family must be one of"):
        MCConfig(kernel="bogus")


def test_mc_from_dict_nested():
    cfg = MCConfig.from_dict(
        {
            "variant": "baseline",
            "n": 200,
            "sigma": [1.0],
            "c": 3.0,
            "K": [3],
            "replications": 1,
            "optimizer": {"n_starts": 2, "max_iters": 50},
            "quantile_approx_draws": 10_000,
        }
    )
    assert cfg.optimizer.n_starts == 2
    assert cfg.c == (3.0,)
