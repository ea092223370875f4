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

from .data import Dataset, QuantileGrid, _per_stratum
from .errors import DegenerateCellError, NumericalError


@dataclass(frozen=True)
class QteEstimate:
    """Per-tau arm quantiles and their difference.

    The unadjusted pilot quantiles, which build the adjustment labels, are
    one of these too.
    """

    taus: tuple[float, ...]
    q1: np.ndarray
    q0: np.ndarray

    @property
    def qte(self) -> np.ndarray:
        return self.q1 - self.q0

    def q(self, arm: int, tau: float) -> float:
        i = self.taus.index(float(tau))
        return float(self.q1[i] if arm == 1 else self.q0[i])


def _arm_rows(dataset: Dataset, arm: int) -> np.ndarray:
    """Rows of one arm, ordered by outcome (ties keep row order)."""
    rows = np.flatnonzero(dataset.a == arm)
    if rows.size == 0:
        raise DegenerateCellError([], f"arm {arm} has no observations")
    return rows[np.argsort(dataset.y[rows], kind="stable")]


def _search_left(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise ``np.searchsorted(cum[r], targets[r], side="left")``.

    ``cum`` is b x m with non-decreasing rows, ``targets`` b x C.  A
    branchless binary search moves every (row, column) target at once, so a
    block costs about log2(m) vectorised passes over b x C entries.  A probe
    stops at ``cum >= t``, which no NaN target meets, so NaN sorts after
    every entry as in searchsorted; ties resolve to the leftmost index.
    """
    b, m = cum.shape
    flat = cum.ravel()
    before_row = (np.arange(b) * m - 1)[:, None]
    k = np.zeros(targets.shape, dtype=np.intp)
    step = 1 << (m.bit_length() - 1)
    while step:
        probe = k + step
        # A probe past its row reads a neighbour (clipped at the very end)
        # and is discarded by ``probe > m``.
        stop = (flat.take(before_row + probe, mode="clip") >= targets) | (probe > m)
        k = np.where(stop, k, probe)
        step >>= 1
    return k


class _Solver:
    """Both arm problems for K adjustments stacked over one quantile grid.

    Built once per dataset.  The rows are permuted once into an arm-sorted
    layout, [arm 1 sorted by y | arm 0 sorted by y], and each arm's
    n x (K*T) adjustment matrix (model-major columns, one n x T block per
    model) is stored in that row order, so a solve reads every row-indexed
    array contiguously.  :meth:`solve` takes a b x n block of weight vectors
    in that layout and their treated fractions; the unit-weight point
    estimate is a one-row block.  Per block it forms the inverse-propensity
    masses shared by every model, and per arm runs one ``cumsum`` along the
    rows, one product against each half (treated and control rows) of the
    adjustment matrix, and one exact sorted search.
    """

    def __init__(self, dataset: Dataset, column_taus: np.ndarray, m_by_arm: dict) -> None:
        rows1 = _arm_rows(dataset, 1)
        self._perm = np.concatenate([rows1, _arm_rows(dataset, 0)])
        self.n = dataset.n
        self._n1 = rows1.size
        # Column of each row in the [pi | 1 - pi] table: its arm's propensity.
        arm_offset = np.repeat([0, dataset.n_strata], [self._n1, dataset.n - self._n1])
        self._prop_col = dataset.s[self._perm] + arm_offset
        self._y = dataset.y[self._perm]
        self._m = {arm: np.take(np.hstack(m_by_arm[arm]), self._perm, axis=0) for arm in (1, 0)}
        self._taus = column_taus

    def solve(self, xi: np.ndarray, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q1, q0), each b x (K*T): the smallest minimizer of the weighted
        check objective for every row of ``xi`` and every column.

        ``xi`` is b x n in the solver's layout, where column j weighs dataset
        row ``self._perm[j]`` (pass weights in row order as ``xi[:, _perm]``);
        ``pis`` is b x S, or 1 x S when all rows share the treated fractions.
        Implements the sandwich characterization: the solution is the first
        arm outcome, in sorted order, whose cumulative weight reaches the
        adjusted target mass.  Searching the per-unit cumulative mass finds
        the same distinct value as searching the mass at each distinct
        value's last unit, so duplicate outcomes act as one candidate, and
        exact boundary ties resolve to the smaller value.  Targets outside
        the attainable range clip to the endpoint candidates, matching the
        argmin over observed arm outcomes.
        """
        n1 = self._n1
        prop = np.take(np.concatenate([pis, 1.0 - pis], axis=1), self._prop_col, axis=1)
        w = xi / prop
        # The residual weights xi (a - pi) / pi of the arm-1 target are
        # [w - xi | -xi] over [treated | control] rows, and those of the
        # arm-0 target, xi (a - pi) / (1 - pi), are [xi | -(w - xi)].
        excess = w - xi
        m1, m0 = self._m[1], self._m[0]
        slope1 = excess[:, :n1] @ m1[:n1] - xi[:, n1:] @ m1[n1:]
        slope0 = xi[:, :n1] @ m0[:n1] - excess[:, n1:] @ m0[n1:]
        out = []
        for arm, rows, shift in ((1, slice(None, n1), -slope1), (0, slice(n1, None), slope0)):
            cum = np.cumsum(w[:, rows], axis=1)
            total = cum[:, -1:]
            if not np.all(np.isfinite(total) & (total > 0.0)):
                raise NumericalError(f"arm {arm} has no weighted mass")
            y = self._y[rows]
            k = _search_left(cum, self._taus * total + shift)
            out.append(y[np.minimum(k, y.size - 1)])
        return out[0], out[1]


def _model_solver(dataset: Dataset, models, grid: QuantileGrid) -> _Solver:
    """Solver over the adjustments of ``models``, evaluated on every row; every
    estimate and draw passes here, so it refuses degenerate strata."""
    degenerate = [dataset.strata_labels[i] for i in dataset.strata.degenerate]
    if degenerate:
        raise DegenerateCellError(degenerate)
    values = [m.evaluate_all(grid, dataset) for m in models]
    m_by_arm = {arm: [v[arm] for v in values] for arm in (1, 0)}
    return _Solver(dataset, np.tile(tuple(grid), len(models)), m_by_arm)


def _point(solver: _Solver, dataset: Dataset, fixed_pi) -> tuple[np.ndarray, np.ndarray]:
    """(q1, q0) per column at unit weights: the solve as a one-row block.

    Unit weights give the count fractions ``dataset.strata.pi_hat``, or the
    known ``fixed_pi`` when one is given.
    """
    pis = (dataset.strata.pi_hat if fixed_pi is None
           else _per_stratum(fixed_pi, dataset.n_strata, "fixed pi"))
    q1, q0 = solver.solve(np.ones((1, solver.n)), pis[None])
    return q1[0], q0[0]


def qte(dataset: Dataset, model, grid: QuantileGrid, fixed_pi=None) -> QteEstimate:
    """Adjusted QTE curve: per-tau difference of the two arm solutions.

    The model is evaluated on the dataset rows once, for both arms, and the
    arm problems are solved with unit weights.  ``fixed_pi`` None uses the
    estimated treated fractions; a scalar or per-stratum value in (0, 1)
    fixes them instead.
    """
    solver = _model_solver(dataset, (model,), grid)
    q1, q0 = _point(solver, dataset, fixed_pi)
    return QteEstimate(taus=tuple(grid), q1=q1, q0=q0)


def pilot_quantiles(dataset: Dataset, grid: QuantileGrid) -> QteEstimate:
    """Unadjusted arm quantiles (zero adjustment, unit weights)."""
    from .adjust import fit_none

    return qte(dataset, fit_none(grid), grid)
