"""Synthetic data generation and the Monte Carlo study harness.

Two data generating processes are built in.  Both share the latent additive
structure  Y* = Z1 + sin(Z2) + ...  with Z1 ~ N(1, sigma^2) and
Z2 ~ U[-c, c], and distort the observed outcome through a piecewise-linear
map h that leaves the middle of the latent distribution untouched and
rescales its tails:

* ``baseline``:  Y* = Z1 + sin(Z2) + U,          Y = h(Y*) + V
* ``weighted``:  Y* = Z1 + sin(Z2) + cos(W) + U*W^2,  W = 0.5*Z2 + 0.5*U,
                 Y = h(Y* + W) + V*|W|

The kink locations of h are the 30%/70% quantiles of its argument,
approximated numerically from a large fresh draw.  The harness fits the
rank estimator and the series least-squares comparison on each replication,
anchors both (and the target curve sin) at the point (0, 0), scores mean
squared error on a fixed grid, runs a two-sample Kolmogorov-Smirnov test of
Y against Y*, and accumulates pointwise median curves of both estimators
(plus 0.05/0.95 quantile curves of the rank estimator) across replications.
On the weighted DGP the rank estimate comes from :func:`fit_local_aggregate`,
kernel-window fits at control values drawn from W, combined pointwise.

The kink draw holds about 8 bytes per value, 8 MB at the default 10^6
draws: Z2 and U are drawn in chunks, from two points of one stream, so the
quantiles are those of one whole-array draw, bit for bit.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .aggregate import LocalEstimateSet, aggregate_lad, aggregate_ls
from .dataio import write_csv
from .errors import EmptyWindowError, NumericalError
from .optimize import (
    FullRank,
    OptimizerConfig,
    Weighted,
    _require_finite,
    _store_ints,
    _substream,
    _worker_count,
    derive_seed,
    evaluate_on_grid,
    maximize_rank_criterion,
    series_ols,
)
from .rankcrit import KernelSpec, Sample
from .sieve import (
    Anchor,
    BSplineBasis,
    Coordinate,
    IdentityComponent,
    SieveSpec,
    SplineComponent,
    make_knot_vector,
)
# bench/layers.py wraps these three by name on this module, so they stay importable here
from .optimize import ols_fit
from .sieve import apply_normalization, design_matrix


# --------------------------------------------------------------------------
# data generating processes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DgpConfig:
    """Parameterization of one synthetic-data configuration.

    ``a``/``b`` are the slopes of the outcome distortion below/above its
    kinks (1 = no distortion, 0 = hard censoring of the tails).  The
    noise terms U and V are part of the measurement-error model and always
    enter with unit scale.
    """

    variant: str = "baseline"
    n: int = 1000
    sigma: float = 1.0
    c: float = 3.0
    a: float = 0.5
    b: float = 0.5
    quantile_approx_draws: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        _store_ints(self, "n", "quantile_approx_draws", "seed")
        _require_finite(self, "sigma", "c", "a", "b")
        if self.variant not in ("baseline", "weighted"):
            raise ValueError("variant must be 'baseline' or 'weighted'")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.sigma <= 0 or self.c <= 0:
            raise ValueError("sigma and c must be positive")
        if self.a < 0 or self.b < 0:
            raise ValueError("slopes a, b must be non-negative")
        if self.quantile_approx_draws < 10_000:
            raise ValueError("quantile_approx_draws must be at least 10^4")


def h_piecewise(ystar, q30: float, q70: float, a: float, b: float):
    """Piecewise-linear outcome distortion; identity on [q30, q70].

    Values above q70 are pulled toward it with slope b, values below q30
    with slope a; continuous at both kinks and weakly increasing for
    a, b >= 0.  Written as identity plus tail corrections, so slopes of 1
    reproduce the input exactly.
    """
    if q30 > q70:
        raise ValueError("q30 must not exceed q70")
    y = np.asarray(ystar, dtype=float)
    out = (
        y
        + (b - 1.0) * np.maximum(y - q70, 0.0)
        + (1.0 - a) * np.maximum(q30 - y, 0.0)
    )
    return out if out.ndim else float(out)


# approximate_quantiles builds h's argument in chunks of this length:
# chunked Generator draws continue the stream value for value
QUANTILE_CHUNK = 1 << 16


def _draw_z1(cfg: DgpConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw Z1 = 1 + sigma * N(0, 1), formed in the buffer drawn."""
    z1 = rng.standard_normal(size)
    z1 *= cfg.sigma
    z1 += 1.0
    return z1


def _draw_z2(cfg: DgpConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw Z2 ~ U[-c, c]."""
    return rng.uniform(-cfg.c, cfg.c, size)


def _latent(cfg: DgpConfig, z1, z2, u):
    """The latent quantities built from Z1, Z2 and U, elementwise.

    Returns ``(w, ystar, h_arg)``: ``w`` is None for the baseline DGP, and
    ``h_arg`` is the quantity the distortion h is applied to.
    """
    if cfg.variant == "baseline":
        ystar = z1 + np.sin(z2) + u
        return None, ystar, ystar
    w = 0.5 * z2 + 0.5 * u
    ystar = z1 + np.sin(z2) + np.cos(w) + u * w**2
    return w, ystar, ystar + w


def approximate_quantiles(cfg: DgpConfig) -> tuple[float, float]:
    """30%/70% quantiles of h's argument from a fresh simulated draw.

    Uses a dedicated RNG substream of ``cfg.seed``, so the result matches
    the one :func:`generate` uses internally, and is deterministic.  The
    substream is drawn in the order Z1, Z2, U, as in :func:`generate`.  h's
    argument is built in Z1's buffer, chunk by chunk of Z2 and U, so the
    draw holds one array of its length.
    """
    n = cfg.quantile_approx_draws
    rng = _substream(cfg.seed, 0)
    h_arg = _draw_z1(cfg, rng, n)
    # Generator.uniform takes exactly one 64-bit PCG64 word per value, so U
    # starts n words after Z2's first value: a copy of the stream advanced by
    # n words draws U in lockstep with Z2
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    u_rng = np.random.Generator(bits.advance(n))
    for lo in range(0, n, QUANTILE_CHUNK):
        part = slice(lo, lo + QUANTILE_CHUNK)
        size = h_arg[part].size
        h_arg[part] = _latent(
            cfg, h_arg[part], _draw_z2(cfg, rng, size), u_rng.standard_normal(size)
        )[2]
    # h_arg is a fresh draw no one else holds: partition it in place, not a copy
    q30, q70 = np.quantile(h_arg, [0.3, 0.7], overwrite_input=True)
    return float(q30), float(q70)


class GeneratedSample(NamedTuple):
    """A drawn sample together with the latent quantities behind it."""

    sample: Sample
    ystar: np.ndarray


def generate(cfg: DgpConfig) -> GeneratedSample:
    """Draw one sample; bit-reproducible for a fixed ``cfg.seed``.

    The draw order (Z1, Z2, U, V) is fixed so that the same seed yields the
    same sample regardless of variant-specific bookkeeping.
    """
    q30, q70 = approximate_quantiles(cfg)
    rng = _substream(cfg.seed, 1)
    z1 = _draw_z1(cfg, rng, cfg.n)
    z2 = _draw_z2(cfg, rng, cfg.n)
    w, ystar, h_arg = _latent(cfg, z1, z2, rng.standard_normal(cfg.n))
    v = rng.standard_normal(cfg.n)
    y = h_piecewise(h_arg, q30, q70, cfg.a, cfg.b)
    if w is None:
        sample = Sample(y=y + v, z=np.column_stack([z1, z2]))
    else:
        sample = Sample(y=y + v * np.abs(w), z=np.column_stack([z1, z2]), w=w[:, None])
    return GeneratedSample(sample, ystar)


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------


def mse_on_grid(curve, truth_curve) -> float:
    """Mean squared pointwise difference between two curves on a shared grid."""
    a = np.asarray(curve, dtype=float).ravel()
    b = np.asarray(truth_curve, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("curves must have equal length")
    return float(np.mean((a - b) ** 2))


def _kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution, 2*sum (-1)^(k-1) exp(-2 k^2 t^2)."""
    if t <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = np.exp(-2.0 * (k * t) ** 2)
        total += sign * term
        if term < 1e-16:
            break
        sign = -sign
    return float(min(max(2.0 * total, 0.0), 1.0))


class KsResult(NamedTuple):
    statistic: float
    p_value: float


def ks_two_sample(x, y) -> KsResult:
    """Exact two-sample KS statistic with the asymptotic p-value.

    D is the sup-distance of the two empirical CDFs, evaluated at every
    observed point; the p-value uses the Kolmogorov limit distribution at
    sqrt(nm/(n+m)) * D.
    """
    xs = np.sort(np.asarray(x, dtype=float).ravel())
    ys = np.sort(np.asarray(y, dtype=float).ravel())
    n, m = xs.size, ys.size
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    allv = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, allv, side="right") / n
    fy = np.searchsorted(ys, allv, side="right") / m
    d = float(np.max(np.abs(fx - fy)))
    en = np.sqrt(n * m / (n + m))
    return KsResult(d, _kolmogorov_sf(en * d))


# --------------------------------------------------------------------------
# Monte Carlo configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo sweep over (sigma, c, K) cells.

    ``K`` labels the sieve dimension of the spline block: the spline has
    K+1 basis functions of the configured degree (the anchor normalization
    absorbs the constant direction, leaving K effective dimensions), i.e.
    K - degree interior knots.
    """

    variant: str = "baseline"
    n: int = 1000
    sigma: tuple = (1.0,)
    c: tuple = (3.0,)
    K: tuple = (4,)
    a: float = 0.5
    b: float = 0.5
    replications: int = 200
    master_seed: int = 0
    spline_degree: int = 2
    grid_points: int = 101
    grid_margin: float = 0.1
    quantile_approx_draws: int = 1_000_000
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    local_optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(n_starts=8, max_iters=300)
    )
    n_w_draws: int = 50
    bandwidth_scale: float = 0.5
    kernel: str = "uniform"
    aggregation: str = "lad"
    n_jobs: int = 0

    def __post_init__(self):
        for name in ("sigma", "c"):
            entries = tuple(getattr(self, name))
            object.__setattr__(self, name, entries)
            _require_finite(self, name)  # before float() would take "0.5" or True
            object.__setattr__(self, name, tuple(float(v) for v in entries))
        object.__setattr__(self, "K", tuple(self.K))
        _store_ints(
            self, "n", "K", "replications", "master_seed", "spline_degree", "grid_points",
            "quantile_approx_draws", "n_w_draws", "n_jobs",
        )
        _require_finite(self, "grid_margin", "bandwidth_scale")  # the DGP checks a, b
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not (self.sigma and self.c and self.K):
            raise ValueError("sigma, c, K grids must be non-empty")
        for sigma in self.sigma:
            for c in self.c:
                self._dgp_config(sigma, c, seed=0)  # the DGP's own field checks
        if self.spline_degree < 0:
            raise ValueError("spline_degree must be non-negative")
        for k in self.K:
            if self.n_interior_for(k) < 0:
                raise ValueError(f"K={k} is too small for degree {self.spline_degree}")
        if self.grid_points < 1 or self.grid_margin < 0:
            raise ValueError("invalid evaluation grid")
        if self.aggregation not in ("ls", "lad"):
            raise ValueError("aggregation must be 'ls' or 'lad'")
        KernelSpec(self.kernel, [1.0])  # the kernel family's own check
        if self.n_w_draws < 1:
            raise ValueError("n_w_draws must be positive")
        if self.bandwidth_scale <= 0:
            raise ValueError("bandwidth_scale must be positive")
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be non-negative (0 = all cores)")

    def _dgp_config(self, sigma: float, c: float, seed: int) -> DgpConfig:
        shared = ("variant", "n", "a", "b", "quantile_approx_draws")
        return DgpConfig(sigma=sigma, c=c, seed=seed, **{k: getattr(self, k) for k in shared})

    def n_interior_for(self, k: int) -> int:
        return k - self.spline_degree

    @classmethod
    def from_dict(cls, obj: dict) -> "MCConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown MC config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        for key in ("optimizer", "local_optimizer"):
            if key in kwargs and isinstance(kwargs[key], dict):
                kwargs[key] = OptimizerConfig(**kwargs[key])
        for key in ("sigma", "c", "K"):
            if key in kwargs and not isinstance(kwargs[key], (list, tuple)):
                kwargs[key] = (kwargs[key],)
        return cls(**kwargs)


class CellSummary(NamedTuple):
    sigma: float
    c: float
    K: int
    replications: int
    n_failed: int
    n_degenerate: int
    mse_rank: float
    mse_ols: float
    ks_reject_rate: float
    grid: np.ndarray
    truth: np.ndarray
    rank_median: np.ndarray
    rank_q05: np.ndarray
    rank_q95: np.ndarray
    ols_median: np.ndarray

    @property
    def tag(self) -> str:
        return f"sigma{self.sigma:g}_c{self.c:g}_K{self.K}"


@dataclass(frozen=True)
class MCSummary:
    cells: tuple
    failures: tuple  # (cell_tag, replication_index, message)
    seconds: float


# --------------------------------------------------------------------------
# per-replication work
# --------------------------------------------------------------------------


def _spline_spec(spline_data: np.ndarray, degree: int, n_interior: int) -> SieveSpec:
    """Pinned identity on coordinate 0 plus spline blocks, anchored at zero.

    A 1-D ``spline_data`` gives one spline block on coordinate 1; a 2-D one
    gives one block per column, on coordinates 1, 2, ..., with knots placed
    from that column.
    """
    columns = spline_data.reshape(spline_data.shape[0], -1).T
    blocks = tuple(
        SplineComponent(
            input=Coordinate(j),
            basis=BSplineBasis(degree, make_knot_vector(col, degree, n_interior)),
        )
        for j, col in enumerate(columns, start=1)
    )
    return SieveSpec(
        components=(IdentityComponent(input=Coordinate(0), coefficient=1.0, pinned=True),)
        + blocks,
        normalization=Anchor(point=np.zeros(len(blocks) + 1), value=0.0),
    )


def _cell_grid(cfg: MCConfig, c: float) -> np.ndarray:
    lo, hi = -c + cfg.grid_margin, c - cfg.grid_margin
    return np.linspace(lo, hi, cfg.grid_points)


def _run_replication(cfg: MCConfig, cell_index: int, rep: int) -> dict:
    sigma, c, K = _cells(cfg)[cell_index]
    dgp = cfg._dgp_config(sigma, c, seed=derive_seed(cfg.master_seed, cell_index, rep, 0))
    tgrid = _cell_grid(cfg, c)
    truth = np.sin(tgrid)
    grid_pts = np.column_stack([np.zeros_like(tgrid), tgrid])
    try:
        gen = generate(dgp)
        spec = _spline_spec(gen.sample.z[:, 1], cfg.spline_degree, cfg.n_interior_for(K))
        if cfg.variant == "baseline":
            opt = replace(cfg.optimizer, rng_seed=derive_seed(cfg.master_seed, cell_index, rep, 1))
            fit = maximize_rank_criterion(gen.sample, spec, FullRank(), opt)
            rank_curve = evaluate_on_grid(fit, grid_pts)
            ols_curve = evaluate_on_grid(series_ols(gen.sample, spec), grid_pts)
            degenerate = fit.degenerate
        else:
            rank_curve, degenerate = _weighted_replication(
                cfg, cell_index, rep, gen.sample, spec, grid_pts
            )
            ols_curve = _weighted_series_curve(cfg, gen.sample, K, grid_pts)
        ks = ks_two_sample(gen.sample.y, gen.ystar)
        return {
            "failed": False,
            "degenerate": degenerate,
            "rank_curve": rank_curve,
            "ols_curve": ols_curve,
            "mse_rank": mse_on_grid(rank_curve, truth),
            "mse_ols": mse_on_grid(ols_curve, truth),
            "ks_reject": ks.p_value < 0.05,
        }
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return {"failed": True, "error": f"{type(exc).__name__}: {exc}"}


def fit_local_aggregate(
    sample: Sample, spec: SieveSpec, kernel: KernelSpec, w0s, optimizers, grid, aggregation="lad"
) -> tuple[np.ndarray, list]:
    """Fit the kernel window at each control point of ``w0s``; returns ``(curve, fits)``.

    Point d is fitted with ``optimizers[d]``.  A window too thin for the spec
    (EmptyWindowError) is skipped, and its entry in ``fits`` is None.  The
    other fits' curves on ``grid`` are combined pointwise by the median
    ("lad") or the mean ("ls").
    """
    if aggregation not in ("ls", "lad"):
        raise ValueError("aggregation must be 'ls' or 'lad'")
    fits = []
    for w0, opt in zip(w0s, optimizers, strict=True):
        try:
            fits.append(maximize_rank_criterion(sample, spec, Weighted(w0, kernel), opt))
        except EmptyWindowError:
            fits.append(None)
    curves = [evaluate_on_grid(fit, grid) for fit in fits if fit is not None]
    if not curves:
        raise NumericalError("no control draw produced a usable local fit")
    estimates = LocalEstimateSet(grid=grid, curves=np.vstack(curves))
    curve = aggregate_lad(estimates) if aggregation == "lad" else aggregate_ls(estimates)
    return curve, fits


def _weighted_replication(cfg, cell_index, rep, sample, spec, grid_pts):
    """The paper's local fits: bandwidth scale x SD of W, at control values drawn from W.

    Returns the aggregated curve and whether more than half of the fits made were degenerate.
    """
    w_flat = sample.w[:, 0]
    s = cfg.bandwidth_scale * float(np.std(w_flat))
    if s <= 0:
        raise NumericalError("control variable is degenerate; bandwidth is zero")
    kernel = KernelSpec(cfg.kernel, np.array([s]))

    rng = np.random.default_rng(derive_seed(cfg.master_seed, cell_index, rep, 2))
    w_draws = rng.choice(w_flat, size=cfg.n_w_draws, replace=True)
    optimizers = [
        replace(cfg.local_optimizer, rng_seed=derive_seed(cfg.master_seed, cell_index, rep, 3, d))
        for d in range(cfg.n_w_draws)
    ]
    curve, fits = fit_local_aggregate(
        sample, spec, kernel, w_draws, optimizers, grid_pts, cfg.aggregation
    )
    made = [fit for fit in fits if fit is not None]
    return curve, sum(fit.degenerate for fit in made) > len(made) // 2


def _weighted_series_curve(cfg, sample, K, grid_pts):
    """Series fit of the error-free additive model Z1 + g(Z2) + m(W).

    W enters as a third regressor with its own spline block; ``series_ols``
    fits the span of both blocks, and the curve is read off at W = 0.
    """
    z_aug = np.column_stack([sample.z, sample.w[:, 0]])
    spec = _spline_spec(z_aug[:, 1:], cfg.spline_degree, cfg.n_interior_for(K))
    fit = series_ols(Sample(y=sample.y, z=z_aug), spec)
    return evaluate_on_grid(fit, np.column_stack([grid_pts, np.zeros(len(grid_pts))]))


# --------------------------------------------------------------------------
# sweep driver
# --------------------------------------------------------------------------


def _cells(cfg: MCConfig) -> list[tuple[float, float, int]]:
    return [(s, c, k) for s in cfg.sigma for c in cfg.c for k in cfg.K]


def run_monte_carlo(cfg: MCConfig) -> MCSummary:
    """Run the full sweep; deterministic for a fixed master seed.

    Every replication derives its own seeds from (master_seed, cell,
    replication), so results do not depend on scheduling or the worker
    count.  Failed replications are recorded and excluded from the curve
    quantiles and MSE averages rather than aborting the sweep.
    """
    t0 = time.perf_counter()
    cells = _cells(cfg)
    tasks = [(ci, r) for ci in range(len(cells)) for r in range(cfg.replications)]
    n_jobs = _worker_count(cfg.n_jobs, len(tasks))
    if n_jobs > 1:
        with multiprocessing.get_context().Pool(processes=n_jobs) as pool:
            raw = pool.starmap(partial(_run_replication, cfg), tasks, chunksize=1)
    else:
        raw = [_run_replication(cfg, ci, r) for ci, r in tasks]

    cell_summaries = []
    failures = []
    for ci, (sigma, c, K) in enumerate(cells):
        tgrid = _cell_grid(cfg, c)
        truth = np.sin(tgrid)
        reps = raw[ci * cfg.replications : (ci + 1) * cfg.replications]
        ok = [r for r in reps if not r["failed"]]
        if ok:
            rank_stack = np.vstack([r["rank_curve"] for r in ok])
            ols_stack = np.vstack([r["ols_curve"] for r in ok])
            rank_q = np.quantile(rank_stack, [0.05, 0.5, 0.95], axis=0)
            ols_median = np.quantile(ols_stack, 0.5, axis=0)
            mse_rank = float(np.mean([r["mse_rank"] for r in ok]))
            mse_ols = float(np.mean([r["mse_ols"] for r in ok]))
            ks_rate = sum(r["ks_reject"] for r in ok) / len(ok)
        else:
            nanrow = np.full_like(tgrid, np.nan)
            rank_q, ols_median = np.vstack([nanrow] * 3), nanrow
            mse_rank = mse_ols = ks_rate = float("nan")
        cell_summaries.append(
            CellSummary(
                sigma=sigma,
                c=c,
                K=K,
                replications=cfg.replications,
                n_failed=len(reps) - len(ok),
                n_degenerate=int(sum(r["degenerate"] for r in ok)),
                mse_rank=mse_rank,
                mse_ols=mse_ols,
                ks_reject_rate=ks_rate,
                grid=tgrid,
                truth=truth,
                rank_median=rank_q[1],
                rank_q05=rank_q[0],
                rank_q95=rank_q[2],
                ols_median=ols_median,
            )
        )
        failures += [
            (cell_summaries[-1].tag, rep, r["error"]) for rep, r in enumerate(reps) if r["failed"]
        ]
    return MCSummary(
        cells=tuple(cell_summaries),
        failures=tuple(failures),
        seconds=time.perf_counter() - t0,
    )


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------


def write_summary_csvs(summary: MCSummary, out_dir: str) -> list[str]:
    """Write mse_table.csv plus one curves_<cell>.csv per cell; returns paths.

    Every real number is printed with 6 significant digits.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, "mse_table.csv")]
    table = ("sigma", "c", "K", "mse_rank", "mse_ols", "ks_reject_rate", "n_failed")
    write_csv(paths[0], table, [[getattr(cell, name) for name in table] for cell in summary.cells])
    curves = ("grid", "truth", "rank_median", "rank_q05", "rank_q95", "ols_median")
    for cell in summary.cells:
        paths.append(os.path.join(out_dir, f"curves_{cell.tag}.csv"))
        write_csv(paths[-1], ("z2",) + curves[1:], zip(*(getattr(cell, name) for name in curves)))
    return paths
