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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .data import Dataset, QuantileGrid, StrataStats
from .errors import DataValidationError, NumericalError
from .estimator import QteEstimate, _fixed_pis, _model_solver, _point

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
    :func:`~carqte.estimator.qte` returns for the model.
    """

    draws: np.ndarray
    grid: QuantileGrid
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
    """Point estimate with bootstrap standard error, CI/band, and decision.

    Fields are scalars for pointwise/difference tests and per-tau arrays for
    the uniform band.  ``reject`` is None when no null value was supplied;
    :meth:`rejects` decides any other null from the same result.
    """

    estimate: object
    se: object
    ci_lower: object
    ci_upper: object
    critical_value: float
    alpha: float
    reject: object = None
    null_value: object = None

    def rejects(self, null_value) -> bool:
        """Whether the test rejects ``null_value``.

        A scalar test is a Wald test, which at a zero standard error reduces
        to an equality check of the estimate; a band rejects a null function
        that leaves it at some grid point.
        """
        if np.ndim(self.estimate) == 0:
            if self.se == 0.0:
                return bool(self.estimate != null_value)
            return bool(abs(self.estimate - null_value) / self.se >= self.critical_value)
        nv = np.asarray(null_value, dtype=np.float64)
        if nv.shape != np.shape(self.estimate):
            raise DataValidationError("null function must match the grid length")
        return bool(np.any((nv < self.ci_lower) | (nv > self.ci_upper)))

    def _tested(self, null_value) -> "InferenceResult":
        """This result with its decision on ``null_value`` (none when None)."""
        if null_value is None:
            return self
        return replace(self, reject=self.rejects(null_value), null_value=null_value)


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
    lo, hi = empirical_quantile(d, [0.025, 0.975])
    se = (hi - lo) / _NORMAL_SPREAD
    return float(se) if d.ndim == 1 else se


def _draw_matrix(k: int, B: int, n_taus: int) -> np.ndarray:
    """The empty (k, B, n_taus) draw array; a B too large to hold is a data error."""
    try:
        return np.empty((k, B, n_taus))
    except MemoryError:
        raise DataValidationError(f"B={B} bootstrap draws do not fit in memory") from None


def run_bootstrap(
    dataset: Dataset,
    stats: StrataStats,
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
    whatever B is.  One child RNG stream is spawned per replicate and each
    weight vector is drawn from its own stream, so the draws do not depend
    on the block size, the execution order or the worker count.  Draws in
    which some stratum's arm mass collapses are redrawn from their own
    stream and counted.
    """
    if B < 2:
        raise DataValidationError("need at least two bootstrap replicates")
    if not models:
        raise DataValidationError("need at least one model to bootstrap")
    n = dataset.n
    n_strata = stats.n_strata
    n_taus = len(grid)
    # Allocated first: a B too large to hold ends here, before any work.
    draws = _draw_matrix(len(models), B, n_taus)
    solver = _model_solver(dataset, stats, models, grid)
    floor = _DEGENERATE_FRACTION * stats.n.astype(np.float64)
    fixed_pis = None if fixed_pi is None else _fixed_pis(fixed_pi, n_strata)[None]
    q1_unit, q0_unit = _point(solver, stats, fixed_pi)

    size = min(B, max(1, _BLOCK_FLOATS // n))
    # Row-major codes r*S + s over a full block, for all rows and for the
    # treated rows: one bincount sums every row's per-stratum masses, each
    # bin in row order, so a row's masses are bit for bit those of a
    # per-vector bincount of its weights (whose treated sum may also add the
    # control rows' zeros, which change no bin).  This is the one weighted
    # mass in the package; at unit weights it gives the count fractions.
    treated = np.flatnonzero(dataset.a == 1)
    offsets = np.arange(size)[:, None] * n_strata
    codes = (offsets + dataset.s).ravel()
    codes1 = (offsets + dataset.s[treated]).ravel()

    def masses(xi):
        b = xi.shape[0]
        nw = np.bincount(codes[:b * n], weights=xi.ravel(), minlength=b * n_strata)
        n1w = np.bincount(codes1[:b * treated.size], minlength=b * n_strata,
                          weights=np.take(xi, treated, axis=1).ravel())
        return n1w.reshape(b, n_strata), nw.reshape(b, n_strata)

    def accepted(n1w, nw):
        return np.all(n1w > floor, axis=-1) & np.all(nw - n1w > floor, axis=-1)

    n_resampled = 0
    for start in range(0, B, size):
        b = min(size, B - start)
        streams = rng.spawn(b)
        vectors = [draw_weights(n, stream) for stream in streams]
        # A one-row block is a view of its draw, so large n copies nothing.
        xi = vectors[0][None] if b == 1 else np.stack(vectors)
        n1w, nw = masses(xi)
        for r in np.flatnonzero(~accepted(n1w, nw)):
            for _attempt in range(_MAX_RESAMPLE):
                n_resampled += 1
                w = draw_weights(n, streams[r])[None]
                n1w[r], nw[r] = masses(w)
                if accepted(n1w[r], nw[r]):
                    break
            else:
                raise NumericalError(
                    f"replicate {start + r}: bootstrap weights kept zeroing an arm "
                    "in some stratum"
                )
            xi[r] = w[0]
        q1, q0 = solver.solve(xi, n1w / nw if fixed_pis is None else fixed_pis)
        draws[:, start:start + b] = (q1 - q0).reshape(b, len(models), n_taus).transpose(1, 0, 2)
    taus = tuple(grid)
    per_model = tuple(
        BootstrapDraws(
            draws=d, grid=grid,
            point=QteEstimate(
                taus=taus,
                q1=q1_unit[k * n_taus:(k + 1) * n_taus],
                q0=q0_unit[k * n_taus:(k + 1) * n_taus],
            ),
        )
        for k, d in enumerate(draws)
    )
    return BootstrapDrawSet(per_model, n_resampled)


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
    estimate: float,
    draws_at_tau: np.ndarray,
    null_value: float | None = None,
    alpha: float = 0.05,
) -> InferenceResult:
    """Normal-critical-value CI around the estimate, and a Wald decision.

    With a zero bootstrap standard error the test degenerates to an equality
    check of the estimate against the null.
    """
    return _wald(estimate, bootstrap_se(draws_at_tau), alpha)._tested(null_value)


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
    null_value: float | None = None,
    alpha: float = 0.05,
) -> InferenceResult:
    """Test q(tau1) - q(tau2) using per-draw differences of the estimates."""
    d1 = np.asarray(draws_at_tau1, dtype=np.float64)
    d2 = np.asarray(draws_at_tau2, dtype=np.float64)
    if d1.shape != d2.shape:
        raise DataValidationError("draw columns must have equal length")
    return pointwise_test(estimate_1 - estimate_2, d1 - d2, null_value, alpha)


def sup_critical_value(sups: np.ndarray, alpha: float) -> float:
    """Smallest z covering at least 1-alpha of the sup statistics."""
    s = np.sort(np.asarray(sups, dtype=np.float64))
    b = s.size
    k = int(np.ceil((1.0 - alpha) * b))
    k = min(max(k, 1), b)
    return float(s[k - 1])


def uniform_band(
    estimates: np.ndarray,
    draws: np.ndarray,
    alpha: float = 0.05,
    null_values: np.ndarray | None = None,
) -> InferenceResult:
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
    se = bootstrap_se(d)
    ok = se > 0.0
    if not ok.any():
        crit = 0.0
    else:
        if not ok.all():
            warnings.warn(
                "uniform band: zero bootstrap SE at some grid points; "
                "excluded from the sup",
                stacklevel=2,
            )
        center = empirical_quantile(d[:, ok], 0.5)
        stud = np.abs((d[:, ok] - center) / se[ok])
        crit = sup_critical_value(stud.max(axis=1), alpha)
    return InferenceResult(
        estimate=est,
        se=se,
        ci_lower=est - crit * se,
        ci_upper=est + crit * se,
        critical_value=float(crit),
        alpha=alpha,
    )._tested(null_values)
