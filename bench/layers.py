"""Where the traced run puts its spans, and the per-layer metrics they give.

A span wraps a public function at the module attribute its caller looks it
up by, so ``optimize.rank_strict_less`` times the ranking calls made by the
optimizer's objective and by series_ols.  A span's layer is the part of its
name before the first dot.
"""

from __future__ import annotations

import numpy as np

from ranksieve import cli, optimize, sieve, simulate

# (module, attribute, span name)
SPANS = (
    (optimize, "rank_strict_less", "rankcrit.rank"),
    (optimize, "kernel_weights", "rankcrit.kernel_weights"),
    (simulate, "maximize_rank_criterion", "optimize.fit"),
    (cli, "maximize_rank_criterion", "optimize.fit"),
    (simulate, "series_ols", "optimize.series_ols"),
    (cli, "series_ols", "optimize.series_ols"),
    (simulate, "ols_fit", "optimize.ols_fit"),
    (simulate, "evaluate_on_grid", "optimize.evaluate_on_grid"),
    (cli, "evaluate_on_grid", "optimize.evaluate_on_grid"),
    (optimize, "design_matrix", "sieve.design_matrix"),
    (simulate, "design_matrix", "sieve.design_matrix"),
    (sieve, "design_matrix", "sieve.design_matrix"),
    (optimize, "apply_normalization", "sieve.apply_normalization"),
    (simulate, "apply_normalization", "sieve.apply_normalization"),
    (simulate, "make_knot_vector", "sieve.make_knot_vector"),
    (cli, "sieve_spec_from_json", "sieve.spec_from_json"),
    (simulate, "run_monte_carlo", "simulate.run_monte_carlo"),
    (simulate, "generate", "simulate.generate"),
    (simulate, "approximate_quantiles", "simulate.quantiles"),
    (simulate, "ks_two_sample", "simulate.ks"),
    (simulate, "mse_on_grid", "simulate.mse"),
    (simulate, "aggregate_lad", "aggregate.lad"),
    (simulate, "aggregate_ls", "aggregate.ls"),
    (cli, "load_csv", "dataio.load_csv"),
    (cli, "main", "cli.main"),
)

# Per-layer metric name -> unit.  Values are per op unless the name says
# otherwise; a layer the workload does not use reads 0.
UNITS = {
    "rankcrit.rank.calls": "count",
    "rankcrit.rank.mean_n": "rows",
    "rankcrit.rank.self_s": "s",
    "rankcrit.rank.us_per_call": "us",
    "rankcrit.kernel_weights.self_s": "s",
    "optimize.fits": "count",
    "optimize.evals_per_fit": "count",
    "optimize.self_s": "s",
    "optimize.self_us_per_eval": "us",
    "optimize.series_ols.self_s": "s",
    "optimize.degenerate_share": "ratio",
    "simulate.generate.self_s": "s",
    "simulate.quantiles.self_s": "s",
    "simulate.quantiles.draws": "count",
    "simulate.ks.self_s": "s",
    "simulate.self_s": "s",
    "simulate.mse_rank_mean": "mse",
    "simulate.mse_ols_mean": "mse",
    "sieve.design_matrix.calls": "count",
    "sieve.design_matrix.rows": "rows",
    "sieve.self_s": "s",
    "aggregate.calls": "count",
    "aggregate.curves_per_call": "count",
    "aggregate.self_s": "s",
    "dataio.load_csv.self_s": "s",
    "dataio.rows_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def install(tracer) -> None:
    """Put every span of SPANS in place, with the counters they feed."""

    def on_rank(args, result, parent):
        tracer.count("rank.n", np.size(args[0]))
        if parent == "optimize.fit":
            tracer.count("evals")

    hooks = {
        "rankcrit.rank": on_rank,
        "optimize.fit": lambda a, r, p: tracer.count("degenerate", bool(r.degenerate)),
        "sieve.design_matrix": lambda a, r, p: tracer.count("design.rows", r[0].shape[0]),
        "simulate.quantiles": lambda a, r, p: tracer.count("draws", a[0].quantile_approx_draws),
        "aggregate.lad": lambda a, r, p: tracer.count("curves", a[0].n_curves),
        "aggregate.ls": lambda a, r, p: tracer.count("curves", a[0].n_curves),
        "dataio.load_csv": lambda a, r, p: tracer.count("csv.rows", r[1].rows_read),
    }
    for module, attr, name in SPANS:
        tracer.wrap(module, attr, name, hooks.get(name))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer, n_ops: int, mse_rank: list, mse_ols: list, overhead: float, coverage: float) -> dict:
    """Per-layer metrics of the traced phase, per op unless named otherwise."""
    c = tracer.counts
    rank_calls = tracer.calls("rankcrit.rank")
    fits = tracer.calls("optimize.fit")
    evals = c.get("evals", 0)
    aggregates = tracer.calls("aggregate.lad") + tracer.calls("aggregate.ls")
    load_wall = tracer.totals.get("dataio.load_csv", (0, 0.0, 0.0))[1]
    uses_simulate = tracer.calls("simulate.run_monte_carlo") > 0
    values = {
        "rankcrit.rank.calls": rank_calls / n_ops,
        "rankcrit.rank.mean_n": _ratio(c.get("rank.n", 0), rank_calls),
        "rankcrit.rank.self_s": tracer.self_s("rankcrit.rank") / n_ops,
        "rankcrit.rank.us_per_call": 1e6 * _ratio(tracer.self_s("rankcrit.rank"), rank_calls),
        "rankcrit.kernel_weights.self_s": tracer.self_s("rankcrit.kernel_weights") / n_ops,
        "optimize.fits": fits / n_ops,
        "optimize.evals_per_fit": _ratio(evals, fits),
        "optimize.self_s": tracer.layer_self_s("optimize") / n_ops,
        "optimize.self_us_per_eval": 1e6 * _ratio(tracer.self_s("optimize.fit"), evals),
        "optimize.series_ols.self_s": tracer.self_s("optimize.series_ols") / n_ops,
        "optimize.degenerate_share": _ratio(c.get("degenerate", 0), fits),
        "simulate.generate.self_s": tracer.self_s("simulate.generate") / n_ops,
        "simulate.quantiles.self_s": tracer.self_s("simulate.quantiles") / n_ops,
        "simulate.quantiles.draws": c.get("draws", 0) / n_ops,
        "simulate.ks.self_s": tracer.self_s("simulate.ks") / n_ops,
        "simulate.self_s": tracer.layer_self_s("simulate") / n_ops,
        "simulate.mse_rank_mean": float(np.mean(mse_rank)) if uses_simulate else 0.0,
        "simulate.mse_ols_mean": float(np.mean(mse_ols)) if uses_simulate else 0.0,
        "sieve.design_matrix.calls": tracer.calls("sieve.design_matrix") / n_ops,
        "sieve.design_matrix.rows": c.get("design.rows", 0) / n_ops,
        "sieve.self_s": tracer.layer_self_s("sieve") / n_ops,
        "aggregate.calls": aggregates / n_ops,
        "aggregate.curves_per_call": _ratio(c.get("curves", 0), aggregates),
        "aggregate.self_s": tracer.layer_self_s("aggregate") / n_ops,
        "dataio.load_csv.self_s": tracer.self_s("dataio.load_csv") / n_ops,
        "dataio.rows_per_s": _ratio(c.get("csv.rows", 0), load_wall),
        "cli.self_s": tracer.layer_self_s("cli") / n_ops,
        "trace.overhead": overhead,
        "trace.coverage": coverage,
    }
    assert values.keys() == UNITS.keys()
    return values
