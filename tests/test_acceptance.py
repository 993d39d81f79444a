"""Acceptance gate: every headline requirement at its stated tolerance.

One printed PASS/FAIL line per criterion (run with ``pytest -s`` to see them
live; the values are also embedded in assertion messages).  The Monte Carlo
fixtures are shared across criteria, use a pre-registered master seed, and
parallelize replications across cores; the full module takes on the order of
ten minutes on two cores.
"""

import hashlib
import json

import numpy as np
import pytest

from ranksieve import (
    KernelSpec,
    MCConfig,
    OptimizerConfig,
    Sample,
    aggregate_lad,
    aggregate_ls,
    LocalEstimateSet,
    h_piecewise,
    ks_two_sample,
    rank_criterion,
    rank_criterion_discrete_w,
    rank_criterion_pairwise,
    rank_criterion_weighted,
    rank_strict_less,
    run_monte_carlo,
)
from ranksieve.cli import main as cli_main
from ranksieve.rankcrit import (
    bruteforce_rank_criterion_weighted,
    bruteforce_rank_strict_less,
)
from ranksieve.sieve import BSplineBasis, bspline_eval, make_knot_vector

from conftest import record_acceptance_line
from oracles import lad_candidates, lad_loss, ls_loss, naive_bspline

MASTER_SEED = 20250808
BASELINE_REPS = 200
WEIGHTED_REPS = 100


def _report(num: str, desc: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {desc}: {detail} -> {'PASS' if ok else 'FAIL'}"
    print("\n" + line, flush=True)
    record_acceptance_line(line)


def _mc_config(**overrides) -> MCConfig:
    base = dict(
        variant="baseline",
        n=1000,
        sigma=(1.0,),
        c=(3.0,),
        K=(4,),
        a=0.5,
        b=0.5,
        replications=BASELINE_REPS,
        master_seed=MASTER_SEED,
        quantile_approx_draws=200_000,
        optimizer=OptimizerConfig(n_starts=20, max_iters=400),
        local_optimizer=OptimizerConfig(n_starts=8, max_iters=300),
        grid_points=101,
        grid_margin=0.1,
        n_jobs=0,
    )
    base.update(overrides)
    return MCConfig(**base)


@pytest.fixture(scope="module")
def mild_cell():
    summary = run_monte_carlo(_mc_config())
    return summary.cells[0]


@pytest.fixture(scope="module")
def severe_cell():
    summary = run_monte_carlo(_mc_config(a=0.0, b=0.0))
    return summary.cells[0]


@pytest.fixture(scope="module")
def illposed_cells():
    summary = run_monte_carlo(_mc_config(sigma=(0.5,), K=(3, 4, 5, 6)))
    return summary.cells


@pytest.fixture(scope="module")
def weighted_cell():
    summary = run_monte_carlo(
        _mc_config(
            variant="weighted",
            a=0.0,
            b=0.0,
            replications=WEIGHTED_REPS,
            n_w_draws=50,
            bandwidth_scale=0.5,
            kernel="uniform",
            aggregation="lad",
        )
    )
    return summary.cells[0]


# --------------------------------------------------------------------------
# criteria 1-5: Monte Carlo reproduction
# --------------------------------------------------------------------------


def test_criterion_1_mse_spot_check(mild_cell):
    value = mild_cell.mse_rank
    ok = 0.03 <= value <= 0.07
    _report("1", "MSE spot check (sigma=1, c=3, K=4, 200 reps)",
            ok, f"MSE(rank)={value:.5f}, target [0.03, 0.07]")
    assert ok, f"MSE {value:.5f} outside [0.03, 0.07]"
    assert mild_cell.n_failed == 0


def test_criterion_2_illposedness_monotonicity(illposed_cells):
    values = [(c.K, c.mse_rank) for c in illposed_cells]
    ms = [v for _, v in values]
    ok = all(ms[i] < ms[i + 1] for i in range(len(ms) - 1))
    detail = ", ".join(f"K={k}: {v:.5f}" for k, v in values)
    _report("2", "MSE strictly increasing in K (sigma=0.5, c=3, 200 reps)", ok, detail)
    assert ok, f"MSE not strictly increasing across K: {detail}"


def test_criterion_3_bias_correction_dominance(severe_cell):
    c = severe_cell
    dev_rank = float(np.max(np.abs(c.rank_median - c.truth)))
    dev_ols = float(np.max(np.abs(c.ols_median - c.truth)))
    ok = (c.mse_rank < c.mse_ols) and (dev_rank < 0.25) and (dev_ols > 0.4)
    _report(
        "3",
        "severe-distortion dominance (a=b=0, 200 reps)",
        ok,
        f"MSE rank={c.mse_rank:.5f} < ols={c.mse_ols:.5f}; "
        f"max|rank_median-sin|={dev_rank:.3f} (<0.25); "
        f"max|ols_median-sin|={dev_ols:.3f} (>0.4)",
    )
    assert c.mse_rank < c.mse_ols
    assert dev_rank < 0.25
    assert dev_ols > 0.4


def test_criterion_4_ks_rejection_rates(mild_cell, severe_cell):
    mild_rate = mild_cell.ks_reject_rate
    severe_rate = severe_cell.ks_reject_rate
    ok = (mild_rate < 0.02) and (severe_rate > 0.90)
    _report(
        "4",
        "KS 5%-level rejection rates (200 reps)",
        ok,
        f"a=b=0.5: {mild_rate:.4f} (<0.02); a=b=0: {severe_rate:.4f} (>0.90)",
    )
    assert mild_rate < 0.02
    assert severe_rate > 0.90


def test_criterion_5_weighted_estimator_dominance(weighted_cell):
    c = weighted_cell
    ok = c.mse_rank < c.mse_ols
    _report(
        "5",
        "aggregated local rank fits beat the error-blind series fit "
        f"({WEIGHTED_REPS} reps, 50 draws, LAD)",
        ok,
        f"MSE rank={c.mse_rank:.5f} < ols={c.mse_ols:.5f}; failed={c.n_failed}",
    )
    assert ok, f"weighted MSE {c.mse_rank:.5f} not below series MSE {c.mse_ols:.5f}"


# --------------------------------------------------------------------------
# criterion 6: deterministic property suites
# --------------------------------------------------------------------------


def test_criterion_6a_monotone_transform_invariance():
    rng = np.random.default_rng(60)
    transforms = (lambda t: 3.0 * t - 2.0, np.tanh, np.arctan, lambda t: t**3)
    ok = True
    for i in range(100):
        n = int(rng.integers(5, 40))
        s = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)), w=rng.normal(size=(n, 1)))
        phi = rng.normal(size=n)
        ties = rng.random(n) < 0.4
        if ties.any():
            phi[ties] = np.round(float(phi[ties].mean()), 1)  # a shared tie value
        m = transforms[i % 4]
        uni, gau = KernelSpec("uniform", [1.0]), KernelSpec("gaussian", [0.8])
        w0 = s.w[0]
        before = (
            rank_criterion(s, phi),
            rank_criterion_discrete_w(s, phi, w0).value,
            rank_criterion_weighted(s, phi, w0, uni).value,
            rank_criterion_weighted(s, phi, w0, gau).value,
            rank_criterion_pairwise(s, phi, gau),
        )
        after = (
            rank_criterion(s, m(phi)),
            rank_criterion_discrete_w(s, m(phi), w0).value,
            rank_criterion_weighted(s, m(phi), w0, uni).value,
            rank_criterion_weighted(s, m(phi), w0, gau).value,
            rank_criterion_pairwise(s, m(phi), gau),
        )
        ok = ok and (before == after)
    _report("6a", "monotone-transform invariance, all variants, 100 instances",
            ok, "bit-identical" if ok else "mismatch found")
    assert ok


def test_criterion_6b_ranking_equals_bruteforce():
    rng = np.random.default_rng(61)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 60))
        v = rng.normal(size=n)
        ties = rng.random(n) < 0.5
        v[ties] = np.round(v[ties], 1)
        ok = ok and np.array_equal(rank_strict_less(v), bruteforce_rank_strict_less(v))
    _report("6b", "O(n log n) ranking vs O(n^2) oracle incl. ties, 100 instances",
            ok, "exact match" if ok else "mismatch")
    assert ok


def test_criterion_6c_uniform_fast_path_equals_general():
    rng = np.random.default_rng(62)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 60))
        s = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)), w=rng.normal(size=(n, 1)))
        phi = rng.normal(size=n)
        spec = KernelSpec("uniform", [float(rng.uniform(0.3, 2.0))])
        w0 = rng.normal(size=1)
        fast = rank_criterion_weighted(s, phi, w0, spec).value
        general = bruteforce_rank_criterion_weighted(s, phi, w0, spec)
        worst = max(worst, abs(fast - general))
    ok = worst < 1e-12
    _report("6c", "uniform-kernel fast path vs general weighted path, 50 instances",
            ok, f"max |diff| = {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_6d_bspline_properties():
    rng = np.random.default_rng(63)
    worst_pu, worst_orc, min_val = 0.0, 0.0, 0.0
    for _ in range(3):
        degree = int(rng.integers(0, 4))
        basis = BSplineBasis(
            degree, make_knot_vector(rng.normal(scale=2, size=80), degree, int(rng.integers(0, 4)))
        )
        x = rng.uniform(basis.knots[0], basis.knots[-1], 1000)
        B = basis.evaluate_all(x)
        worst_pu = max(worst_pu, float(np.max(np.abs(B.sum(axis=1) - 1.0))))
        min_val = min(min_val, float(B.min()))
        for xv in x[:40]:
            for k in range(basis.K):
                worst_orc = max(
                    worst_orc,
                    abs(bspline_eval(basis, k, float(xv))
                        - naive_bspline(basis.knots, degree, k, xv)),
                )
    ok = worst_pu < 1e-12 and min_val >= 0.0 and worst_orc < 1e-12
    _report("6d", "B-spline partition of unity / non-negativity / naive-recursion oracle",
            ok, f"max|sum-1|={worst_pu:.2e}, min={min_val:.1e}, max oracle diff={worst_orc:.2e}")
    assert ok


def test_criterion_6e_h_properties():
    rng = np.random.default_rng(64)
    ok = True
    for _ in range(30):
        q30 = rng.normal()
        q70 = q30 + abs(rng.normal())
        a, b = rng.uniform(0, 2, size=2)
        y = np.linspace(q30 - 4, q70 + 4, 1501)
        h = h_piecewise(y, q30, q70, a, b)
        ok = ok and bool(np.all(np.diff(h) >= -1e-12))
        ok = ok and bool(np.max(np.abs(np.diff(h))) <= max(1.0, a, b) * (y[1] - y[0]) + 1e-12)
    ident = np.linspace(-5, 5, 301)
    ok = ok and bool(np.array_equal(h_piecewise(ident, -1.0, 1.0, 1.0, 1.0), ident))
    _report("6e", "outcome distortion continuity/monotonicity; slopes=1 identity",
            ok, "all held" if ok else "violated")
    assert ok


def test_criterion_6f_aggregation_and_ks_oracles():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(65)
    curves = rng.normal(size=(7, 6))
    w = rng.random(7)
    w /= w.sum()
    est = LocalEstimateSet(
        grid=np.arange(6, dtype=float)[:, None],
        curves=curves,
        weights=w,
    )
    ls, lad = aggregate_ls(est), aggregate_lad(est)
    ok = True
    for j in range(6):
        res = scipy_opt.minimize_scalar(
            lambda q: ls_loss(curves[:, j], w, q),
            bounds=(curves[:, j].min() - 1, curves[:, j].max() + 1),
            method="bounded", options={"xatol": 1e-10},
        )
        ok = ok and abs(ls[j] - res.x) < 1e-6
        best = min(lad_loss(curves[:, j], w, q) for q in lad_candidates(curves[:, j]))
        ok = ok and lad_loss(curves[:, j], w, lad[j]) <= best + 1e-12
    x = rng.normal(size=40)
    ok = ok and ks_two_sample(x, x).statistic == 0.0
    ok = ok and ks_two_sample([0.0, 1.0], [5.0, 6.0, 7.0]).statistic == 1.0
    _report("6f", "LS/LAD vs scalar-minimization oracles; KS D=0 identical, D=1 disjoint",
            ok, "all held" if ok else "violated")
    assert ok


def test_criterion_6g_simulate_seed_determinism(tmp_path):
    cfg = {
        "variant": "baseline",
        "n": 150,
        "sigma": [1.0],
        "c": [3.0],
        "K": [3],
        "replications": 2,
        "master_seed": 7,
        "quantile_approx_draws": 10000,
        "optimizer": {"n_starts": 2, "max_iters": 80},
        "grid_points": 11,
        "n_jobs": 2,
    }
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(out):
        assert cli_main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        digests = {}
        for p in sorted(out.iterdir()):
            digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return digests

    d1 = run(tmp_path / "run1")
    d2 = run(tmp_path / "run2")
    ok = d1 == d2 and len(d1) == 2
    _report("6g", "simulate twice with the same seed: byte-identical CSVs",
            ok, f"{len(d1)} files compared")
    assert ok
