"""Multiplier bootstrap and the inference products built from its draws.

Each replicate perturbs unit contributions with iid standard-exponential
weights, recomputes the weighted treated fractions, and re-solves the two
arm problems from the subgradient conditions; the fitted adjustment is never
re-estimated.  Several models bootstrap over one shared stream of weights,
solved together in one pass per replicate.  From the resulting draw matrix
we build pointwise confidence intervals and Wald tests, quantile-difference
tests, and uniform bands.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .data import Dataset, QuantileGrid, _per_stratum
from .errors import DataValidationError, NumericalError
from .estimator import QteEstimate, _model_solver, _point

# Spread of the standard normal between the 2.5% and 97.5% critical values.
_NORMAL_SPREAD = ndtri(0.975) - ndtri(0.025)

# A bootstrap draw is discarded when an arm's weighted mass in some stratum
# falls below this fraction of the stratum count.
_DEGENERATE_FRACTION = 1e-8
_MAX_RESAMPLE = 1000

# Float budget of one block of replicates: b = max(1, _BLOCK_FLOATS // n)
# weight vectors are solved per pass.
_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class BootstrapDraws:
    """B x len(grid) matrix of bootstrap QTE estimates of one model.

    ``point`` is the unit-weight estimate from the same solve, the value
    :func:`~carqte.estimator.qte` returns for the model; its ``taus`` are
    the grid.
    """

    draws: np.ndarray
    point: QteEstimate


@dataclass(frozen=True)
class BootstrapDrawSet:
    """Per-model draws of models bootstrapped over one weight stream.

    Item k is the :class:`BootstrapDraws` of the k-th model, equal to what a
    :func:`run_bootstrap` call on that model alone with the same generator
    returns.  ``n_resampled`` counts the resampled weight draws of the
    shared stream.
    """

    per_model: tuple[BootstrapDraws, ...]
    n_resampled: int = 0

    def __getitem__(self, k: int) -> BootstrapDraws:
        return self.per_model[k]

    def __len__(self) -> int:
        return len(self.per_model)

    def __iter__(self):
        return iter(self.per_model)


@dataclass(frozen=True)
class InferenceResult:
    """Point estimate with bootstrap standard error and CI/band.

    Fields are scalars for pointwise/difference tests and per-tau arrays for
    the uniform band.  :meth:`rejects` decides any null from the same result.
    """

    estimate: object
    se: object
    ci_lower: object
    ci_upper: object
    critical_value: float
    alpha: float

    def rejects(self, null) -> bool:
        """Whether the test rejects ``null``.

        A scalar test is a Wald test, which at a zero standard error reduces
        to an equality check of the estimate; a band rejects a null function
        that leaves it at some grid point.
        """
        if np.ndim(self.estimate) == 0:
            if self.se == 0.0:
                return bool(self.estimate != null)
            return bool(abs(self.estimate - null) / self.se >= self.critical_value)
        nv = np.asarray(null, dtype=np.float64)
        if nv.shape != np.shape(self.estimate):
            raise DataValidationError("null function must match the grid length")
        return bool(np.any((nv < self.ci_lower) | (nv > self.ci_upper)))


def draw_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid standard-exponential bootstrap weights."""
    if n < 1:
        raise DataValidationError("need at least one weight")
    return rng.exponential(scale=1.0, size=n)


def empirical_quantile(values: np.ndarray, nu) -> np.ndarray:
    """Per-column order statistics with linear interpolation at rank nu*(B-1)+1.

    This single convention is shared by the standard-error, difference-test,
    and uniform-band constructions.
    """
    return np.quantile(np.asarray(values, dtype=np.float64), nu, axis=0, method="linear")


def bootstrap_se(draws: np.ndarray):
    """Normal-scaled interquantile spread of the bootstrap draws: a float for
    one column of B draws, the k column SEs of a B x k matrix in one call."""
    d = np.asarray(draws, dtype=np.float64)
    if d.ndim == 0 or d.shape[0] < 2:
        raise DataValidationError("need at least two bootstrap draws")
    se = _se_and_center(d)[0]
    return float(se) if d.ndim == 1 else se


def _draw_matrix(k: int, B: int, n_taus: int) -> np.ndarray:
    """The empty (k, B, n_taus) draw array; a B too large to hold is a data error."""
    try:
        return np.empty((k, B, n_taus))
    except MemoryError:
        raise DataValidationError(f"B={B} bootstrap draws do not fit in memory") from None


def run_bootstrap(
    dataset: Dataset,
    models,
    grid: QuantileGrid,
    B: int,
    rng: np.random.Generator,
    fixed_pi=None,
) -> BootstrapDrawSet:
    """B multiplier-bootstrap QTE draws over the grid for each fitted model.

    ``models`` is a sequence of fitted adjustments; draws of a lone model
    unpack as ``(draws,) = run_bootstrap(..., [model], ...)``.
    Within a replicate every model sees the same weights, treated fractions
    and arm masses; only the adjusted targets differ, so all models are
    solved in one pass.  The same solver, with unit weights, gives each
    model's point estimate, so the adjustments are evaluated once.
    ``fixed_pi`` None re-estimates the treated fractions from each draw's
    weights; a scalar or per-stratum value in (0, 1) fixes them in every
    draw, the naive variant.

    Replicates are solved in blocks of b = max(1, _BLOCK_FLOATS // n), so a
    block's weights and temporaries stay within a fixed float budget
    whatever B is.  A block is the next b * n exponentials of ``rng``, one
    row per replicate, each row laid out as the solver's columns [treated
    sorted by y | control sorted by y]; so the draws do not depend on the
    block size, the execution order, the worker count or the order of the
    dataset's rows.  A draw in which some stratum's arm mass collapses is
    redrawn, and counted, from one child stream spawned at the first such
    draw, in replicate order.
    """
    if B < 2:
        raise DataValidationError("need at least two bootstrap replicates")
    if not models:
        raise DataValidationError("need at least one model to bootstrap")
    n = dataset.n
    n_strata = dataset.n_strata
    n_taus = len(grid)
    # Allocated first: a B too large to hold ends here, before any work.
    draws = _draw_matrix(len(models), B, n_taus)
    solver = _model_solver(dataset, models, grid)
    floor = _DEGENERATE_FRACTION * dataset.strata.n.astype(np.float64)
    fixed_pis = None if fixed_pi is None else _per_stratum(fixed_pi, n_strata, "fixed pi")[None]
    q1_unit, q0_unit = _point(solver, dataset, fixed_pi)

    size = min(B, max(1, _BLOCK_FLOATS // n))
    # Each column's (arm, stratum) cell, s or S + s, offset by 2S per block
    # row: one bincount sums every row's treated and control masses, each
    # bin in column order, so a row's masses are bit for bit those of a
    # one-row block.  This is the one weighted mass in the package.
    codes = (np.arange(size)[:, None] * (2 * n_strata) + solver._prop_col).ravel()

    def masses(xi):  # b x 2 x S masses, and whether each row's clear the floor
        nw = np.bincount(codes[:xi.size], weights=xi.ravel(), minlength=2 * n_strata * len(xi))
        nw = nw.reshape(-1, 2, n_strata)
        return nw, np.all(nw > floor, axis=(1, 2))

    n_resampled, redraws = 0, None
    for start in range(0, B, size):
        xi = draw_weights(min(size, B - start) * n, rng).reshape(-1, n)
        nw, ok = masses(xi)
        for r in np.flatnonzero(~ok):
            redraws = redraws or rng.spawn(1)[0]
            for _attempt in range(_MAX_RESAMPLE):
                n_resampled += 1
                xi[r] = draw_weights(n, redraws)
                nw[r:r + 1], ok[r:r + 1] = masses(xi[r:r + 1])
                if ok[r]:
                    break
            else:
                raise NumericalError(
                    f"replicate {start + r}: bootstrap weights kept zeroing an arm "
                    "in some stratum"
                )
        n1w, n0w = nw[:, 0], nw[:, 1]
        q1, q0 = solver.solve(xi, n1w / (n1w + n0w) if fixed_pis is None else fixed_pis)
        draws[:, start:start + len(xi)] = (
            (q1 - q0).reshape(len(xi), len(models), n_taus).transpose(1, 0, 2))
    points = zip(q1_unit.reshape(-1, n_taus), q0_unit.reshape(-1, n_taus))
    return BootstrapDrawSet(tuple(
        BootstrapDraws(draws=d, point=QteEstimate(tuple(grid), q1, q0))
        for d, (q1, q0) in zip(draws, points)
    ), n_resampled)


@lru_cache(maxsize=32)
def _normal_critical_values(alpha: float) -> tuple[float, float]:
    """(lower, upper) two-sided standard-normal critical values at level alpha."""
    if not (0.0 < alpha < 1.0):
        raise DataValidationError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    z_lo, z_hi = ndtri(alpha / 2.0), ndtri(1.0 - alpha / 2.0)
    if not (np.isfinite(z_lo) and np.isfinite(z_hi)):
        # 1 - alpha/2 rounds to 1 for alpha below about 1.1e-16.
        raise DataValidationError(f"alpha {alpha!r} is too small: its critical value is infinite")
    return z_lo, z_hi


def pointwise_test(
    estimate: float, draws_at_tau: np.ndarray, alpha: float = 0.05,
) -> InferenceResult:
    """Normal-critical-value CI around the estimate, for a Wald decision.

    With a zero bootstrap standard error the test degenerates to an equality
    check of the estimate against the null.
    """
    return _wald(estimate, bootstrap_se(draws_at_tau), alpha)


def _wald(estimate: float, se: float, alpha: float) -> InferenceResult:
    """The Wald interval of ``estimate`` at bootstrap standard error ``se``."""
    se = float(se)
    z_lo, z_hi = _normal_critical_values(alpha)
    if se == 0.0:
        lower, upper = float(estimate), float(estimate)
    else:
        lower, upper = float(estimate + z_lo * se), float(estimate + z_hi * se)
    return InferenceResult(
        estimate=float(estimate), se=se, ci_lower=lower, ci_upper=upper,
        critical_value=float(z_hi), alpha=alpha,
    )


def difference_test(
    estimate_1: float,
    estimate_2: float,
    draws_at_tau1: np.ndarray,
    draws_at_tau2: np.ndarray,
    alpha: float = 0.05,
) -> InferenceResult:
    """Test q(tau1) - q(tau2) using per-draw differences of the estimates."""
    d1 = np.asarray(draws_at_tau1, dtype=np.float64)
    d2 = np.asarray(draws_at_tau2, dtype=np.float64)
    if d1.shape != d2.shape:
        raise DataValidationError("draw columns must have equal length")
    return pointwise_test(estimate_1 - estimate_2, d1 - d2, alpha)


def sup_critical_value(sups: np.ndarray, alpha: float) -> float:
    """Smallest z covering at least 1-alpha of the sup statistics."""
    s = np.sort(np.asarray(sups, dtype=np.float64))
    b = s.size
    k = int(np.ceil((1.0 - alpha) * b))
    k = min(max(k, 1), b)
    return float(s[k - 1])


def uniform_band(estimates: np.ndarray, draws: np.ndarray, alpha: float = 0.05) -> InferenceResult:
    """Simultaneous confidence band over the quantile grid.

    Per-tau standard errors come from the shared interquantile convention;
    draws are centered at their per-tau bootstrap median and studentized, and
    the critical value is the (1-alpha) empirical quantile of the per-draw
    sup.  Grid points with zero standard error are excluded from the sup
    (with a warning) and contribute a zero-width band segment.
    """
    est = np.asarray(estimates, dtype=np.float64)
    d = np.asarray(draws, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != est.size:
        raise DataValidationError("draws must be B x len(estimates)")
    if d.shape[0] < 2:
        raise DataValidationError("need at least two bootstrap draws")
    return _band(est, d, *_se_and_center(d), alpha)


def _se_and_center(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column bootstrap SEs and medians of ``d`` from one quantile call."""
    lo, center, hi = empirical_quantile(d, [0.025, 0.5, 0.975])
    return (hi - lo) / _NORMAL_SPREAD, center


def _band(est, d, se, center, alpha: float) -> InferenceResult:
    """The uniform band of ``est`` from draws ``d`` with their per-column
    SEs and medians."""
    ok = se > 0.0
    if not ok.any():
        crit = 0.0
    else:
        if not ok.all():
            warnings.warn(
                "uniform band: zero bootstrap SE at some grid points; "
                "excluded from the sup",
                stacklevel=3,
            )
        stud = np.abs((d[:, ok] - center[ok]) / se[ok])
        crit = sup_critical_value(stud.max(axis=1), alpha)
    return InferenceResult(
        estimate=est,
        se=se,
        ci_lower=est - crit * se,
        ci_upper=est + crit * se,
        critical_value=float(crit),
        alpha=alpha,
    )
