"""Regression-adjusted quantile treatment effects under covariate-adaptive
randomization, with multiplier-bootstrap inference."""

__version__ = "0.1.0"

from .adjust import (
    METHODS,
    AdjustmentModel,
    LassoConfig,
    fit_adjustment,
    fit_ml,
)
from .bootstrap import (
    BootstrapDraws,
    BootstrapDrawSet,
    InferenceResult,
    bootstrap_se,
    difference_test,
    draw_weights,
    pointwise_test,
    run_bootstrap,
    uniform_band,
)
from .data import (
    Dataset,
    QuantileGrid,
    StrataStats,
    load_csv,
)
from .dgp import DgpSpec, PotentialData, cached_true_qte, generate
from .errors import (
    CarqteError,
    DataValidationError,
    DegenerateCellError,
    NumericalError,
)
from .estimator import QteEstimate, pilot_quantiles, qte
from .harness import ScenarioResult, ScenarioSpec, emit_table, run_scenario
from .randomization import SCHEME_KINDS, SchemeSpec, assign

__all__ = [name for name in dir() if not name.startswith("_")]
