"""Regression-adjusted quantile estimation via subgradient conditions.

The per-arm problems are piecewise-linear in the candidate quantile, so the
minimizer is an observed outcome of that arm found by a single sorted sweep
over cumulative inverse-propensity weights; no iterative optimization is
involved.  One solver core serves the unit-weight point estimator and
every multiplier-bootstrap draw of every model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, QuantileGrid, StrataStats, weighted_arm_counts
from .errors import DataValidationError, DegenerateCellError, NumericalError


@dataclass(frozen=True)
class QteEstimate:
    """Per-tau arm quantiles and their difference."""

    taus: tuple[float, ...]
    q1: np.ndarray
    q0: np.ndarray

    @property
    def qte(self) -> np.ndarray:
        return self.q1 - self.q0

    def at(self, tau: float) -> float:
        return float(self.qte[self.taus.index(float(tau))])


@dataclass(frozen=True)
class PilotQuantiles:
    """Unadjusted per-arm quantiles used to build adjustment labels."""

    taus: tuple[float, ...]
    q1: np.ndarray
    q0: np.ndarray

    def q(self, arm: int, tau: float) -> float:
        i = self.taus.index(float(tau))
        return float(self.q1[i] if arm == 1 else self.q0[i])


@dataclass(frozen=True)
class _ArmIndex:
    """Sorted-outcome view of one arm, with distinct-value group ends."""

    rows: np.ndarray
    y_sorted: np.ndarray
    s_sorted: np.ndarray
    group_last: np.ndarray
    y_distinct: np.ndarray


def _arm_index(dataset: Dataset, arm: int) -> _ArmIndex:
    rows = np.flatnonzero(dataset.a == arm)
    if rows.size == 0:
        raise DegenerateCellError([], f"arm {arm} has no observations")
    order = np.argsort(dataset.y[rows], kind="stable")
    rows = rows[order]
    ys = dataset.y[rows]
    change = np.flatnonzero(np.diff(ys) != 0.0)
    group_last = np.append(change, ys.size - 1)
    return _ArmIndex(
        rows=rows,
        y_sorted=ys,
        s_sorted=dataset.s[rows],
        group_last=group_last,
        y_distinct=ys[group_last],
    )


def _fixed_pis(fixed_pi, n_strata: int) -> np.ndarray:
    if np.isscalar(fixed_pi):
        pis = np.full(n_strata, float(fixed_pi))
    else:
        pis = np.asarray(fixed_pi, dtype=np.float64)
        if pis.shape != (n_strata,):
            raise DataValidationError("fixed pi has wrong per-stratum length")
    if not np.all((pis > 0.0) & (pis < 1.0)):
        raise DataValidationError("fixed pi must lie strictly inside (0, 1)")
    return pis


def _pi_by_stratum(
    dataset: Dataset,
    xi: np.ndarray,
    pi_source: str,
    fixed_pi,
    n_strata: int,
) -> np.ndarray:
    if pi_source == "fixed":
        return _fixed_pis(fixed_pi, n_strata)
    n1w, nw = weighted_arm_counts(dataset.s, dataset.a.astype(np.float64), xi, n_strata)
    bad = (nw <= 0.0) | (n1w <= 0.0) | (n1w >= nw)
    if np.any(bad):
        raise DegenerateCellError(
            [dataset.strata_labels[i] for i in np.flatnonzero(bad)],
            "weighted treated fraction is degenerate in strata "
            f"{[dataset.strata_labels[i] for i in np.flatnonzero(bad)]}",
        )
    return n1w / nw


class _Solver:
    """Both arm problems for K adjustments stacked over one quantile grid.

    Built once per dataset from the n x (K*T) adjustment matrix of each arm
    (model-major columns) and the tau of each column.  Each :meth:`solve`
    takes one weight vector and the per-stratum treated fractions: the
    inverse-propensity masses, their sorted cumulative sums and the residual
    weights are computed once and shared by every model; only the adjusted
    target masses differ, and they come from one product per arm followed by
    one sorted search.
    """

    def __init__(self, dataset: Dataset, column_taus: np.ndarray, m_by_arm: dict) -> None:
        self._s = dataset.s
        self._af = dataset.a.astype(np.float64)
        self._arms = {arm: (_arm_index(dataset, arm), m) for arm, m in m_by_arm.items()}
        self._taus = column_taus

    def solve(self, xi: np.ndarray, pis: np.ndarray) -> dict:
        """Arm -> smallest minimizer of the weighted check objective per column.

        Implements the sandwich characterization: the solution is the first
        distinct arm outcome whose cumulative weight reaches the adjusted
        target mass.  Duplicate outcomes are grouped so the cumulative mass
        jumps once per distinct value, and exact boundary ties resolve to the
        smaller value.  Targets outside the attainable range clip to the
        endpoint candidates, matching the argmin over observed arm outcomes.
        """
        pi_full = pis[self._s]
        resid = xi * (self._af - pi_full)
        out = {}
        for arm, (index, m) in self._arms.items():
            p_sorted = pis[index.s_sorted]
            cum = np.cumsum(xi[index.rows] / (p_sorted if arm == 1 else 1.0 - p_sorted))
            total = cum[-1]
            if not np.isfinite(total) or total <= 0.0:
                raise NumericalError(f"arm {arm} has no weighted mass")
            if arm == 1:
                targets = self._taus * total - (resid / pi_full) @ m
            else:
                targets = self._taus * total + (resid / (1.0 - pi_full)) @ m
            k = np.searchsorted(cum[index.group_last], targets, side="left")
            out[arm] = index.y_distinct[np.minimum(k, index.y_distinct.size - 1)]
        return out


def _model_solver(dataset: Dataset, models, grid: QuantileGrid) -> _Solver:
    """Solver over the adjustments of ``models``, evaluated on every row."""
    values = [m.evaluate_all(grid, dataset) for m in models]
    m_by_arm = {arm: np.column_stack([v[arm] for v in values]) for arm in (1, 0)}
    return _Solver(dataset, np.tile(tuple(grid), len(models)), m_by_arm)


def qte(
    dataset: Dataset,
    stats: StrataStats,
    model,
    grid: QuantileGrid,
    pi_source: str = "estimated",
    fixed_pi=0.5,
) -> QteEstimate:
    """Adjusted QTE curve: per-tau difference of the two arm solutions.

    The model is evaluated on the dataset rows once, for both arms, and the
    arm problems are solved with unit weights.
    """
    degenerate = [stats.labels[i] for i in stats.degenerate]
    if degenerate:
        raise DegenerateCellError(degenerate)
    solver = _model_solver(dataset, (model,), grid)
    unit = np.ones(dataset.n)
    q = solver.solve(unit, _pi_by_stratum(dataset, unit, pi_source, fixed_pi, stats.n_strata))
    return QteEstimate(taus=tuple(grid), q1=q[1], q0=q[0])


def pilot_quantiles(dataset: Dataset, stats: StrataStats, grid: QuantileGrid) -> PilotQuantiles:
    """Unadjusted arm quantiles (zero adjustment, unit weights)."""
    from .adjust import fit_none

    est = qte(dataset, stats, fit_none(grid), grid)
    return PilotQuantiles(taus=est.taus, q1=est.q1, q0=est.q0)
