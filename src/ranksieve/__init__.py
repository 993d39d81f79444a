"""Rank-based sieve estimation for regression with distorted outcome measurements.

The package fits an additive B-spline model by maximizing a pairwise rank
criterion that is immune to strictly increasing distortions of the observed
outcome, provides kernel-weighted variants for continuous controls with
pointwise aggregation of local fits, and ships a reproducible Monte Carlo
harness plus a CLI for CSV workflows.
"""

from .aggregate import LocalEstimateSet, aggregate_lad, aggregate_ls
from .dataio import DatasetSchema, IngestionReport, load_csv, summary_stats
from .errors import DataError, EmptyWindowError, NumericalError, RankSieveError
from .optimize import (
    DiscreteW,
    FullRank,
    OptimizerConfig,
    Pairwise,
    Weighted,
    derive_seed,
    evaluate_on_grid,
    maximize_rank_criterion,
    series_ols,
)
from .rankcrit import (
    KernelSpec,
    Sample,
    WindowedValue,
    kernel_weights,
    rank_criterion,
    rank_criterion_discrete_w,
    rank_criterion_pairwise,
    rank_criterion_weighted,
    rank_strict_less,
)
from .sieve import (
    Anchor,
    BSplineBasis,
    Coordinate,
    IdentityComponent,
    NoNormalization,
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
from .simulate import (
    DgpConfig,
    GeneratedSample,
    KsResult,
    MCConfig,
    MCSummary,
    approximate_quantiles,
    generate,
    h_piecewise,
    ks_two_sample,
    mse_on_grid,
    run_monte_carlo,
    write_summary_csvs,
)

__version__ = "0.1.0"

__all__ = [
    "Anchor",
    "BSplineBasis",
    "Coordinate",
    "DataError",
    "DatasetSchema",
    "DgpConfig",
    "DiscreteW",
    "EmptyWindowError",
    "FullRank",
    "GeneratedSample",
    "IdentityComponent",
    "IngestionReport",
    "KernelSpec",
    "KsResult",
    "LocalEstimateSet",
    "MCConfig",
    "MCSummary",
    "NoNormalization",
    "NumericalError",
    "OptimizerConfig",
    "Pairwise",
    "PhiEstimate",
    "Product",
    "RankSieveError",
    "Sample",
    "SieveSpec",
    "SplineComponent",
    "TwoPoint",
    "Weighted",
    "WindowedValue",
    "aggregate_lad",
    "aggregate_ls",
    "apply_normalization",
    "approximate_quantiles",
    "derive_seed",
    "design_matrix",
    "evaluate_on_grid",
    "generate",
    "h_piecewise",
    "kernel_weights",
    "ks_two_sample",
    "load_csv",
    "make_knot_vector",
    "maximize_rank_criterion",
    "mse_on_grid",
    "rank_criterion",
    "rank_criterion_discrete_w",
    "rank_criterion_pairwise",
    "rank_criterion_weighted",
    "rank_strict_less",
    "run_monte_carlo",
    "series_ols",
    "sieve_spec_from_json",
    "summary_stats",
    "write_summary_csvs",
]
