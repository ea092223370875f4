"""Regression-adjusted quantile treatment effects under covariate-adaptive
randomization, with multiplier-bootstrap inference."""

__version__ = "0.1.0"

from .adjust import (
    METHODS,
    AdjustmentModel,
    FeatureMap,
    LassoConfig,
    build_sieve_map,
    fit_adjustment,
    fit_hd_lasso,
    fit_lp,
    fit_lpml,
    fit_ml,
    fit_none,
    logistic_features,
    raw_features,
)
from .bootstrap import (
    BootstrapDraws,
    BootstrapDrawSet,
    InferenceResult,
    bootstrap_se,
    difference_test,
    draw_weights,
    empirical_quantile,
    pointwise_test,
    run_bootstrap,
    uniform_band,
)
from .data import (
    Dataset,
    QuantileGrid,
    StrataStats,
    index_strata,
    load_csv,
)
from .dgp import DgpSpec, PotentialData, cached_true_qte, generate, true_qte_oracle
from .errors import (
    CarqteError,
    DataValidationError,
    DegenerateCellError,
    NumericalError,
)
from .estimator import QteEstimate, pilot_quantiles, qte
from .harness import ScenarioResult, ScenarioSpec, emit_table, run_scenario
from .randomization import (
    SCHEME_KINDS,
    SchemeSpec,
    assign,
    assign_bcd,
    assign_sbr,
    assign_srs,
    assign_wei,
)

__all__ = [name for name in dir() if not name.startswith("_")]
