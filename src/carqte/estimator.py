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

from .data import Dataset, QuantileGrid
from .errors import DegenerateCellError, NumericalError

# Rows per chunk of the solver's gather of each model's adjustments.
_GATHER_ROWS = 4096


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


def _search_left(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise ``np.searchsorted(cum[r], targets[r], side="left")``.

    ``cum`` is b x m with non-decreasing rows, ``targets`` b x C.  A
    branchless binary search moves every (row, column) target at once, so a
    block costs about log2(m) vectorised passes over b x C entries.  A probe
    stops at ``cum >= t``, which no NaN target meets, so NaN sorts after
    every entry as in searchsorted; ties resolve to the leftmost index.
    """
    b, m = cum.shape
    if b == 1:  # one call in place of log2(m) small ones that hold the GIL
        return np.searchsorted(cum[0], targets[0], side="left")[None]
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
    adjustment matrix ``tau - prob`` is gathered straight from the models'
    ``prob`` into that row order, so a solve reads every row-indexed array
    contiguously.  The matrix is n x (K'*T): model-major columns, one n x T
    block for each of the K' adjusted models.  An unadjusted model (``prob``
    None) has exact zero slopes and gets no columns, and a solver whose
    models are all unadjusted holds no matrix.  :meth:`solve` takes a b x n
    block of weight vectors in that layout and their treated fractions; the
    unit-weight point estimate is a one-row block.  Per block it forms the
    inverse-propensity masses shared by every model, and per arm runs one
    ``cumsum`` along the rows, one product against each half (treated and
    control rows) of the adjustment matrix, and one exact sorted search.

    The two b x n temporaries of a solve live in one workspace, allocated at
    the first solve and again only when a block outgrows it, so a solver
    runs one solve at a time.
    """

    def __init__(self, dataset: Dataset, taus: np.ndarray, probs) -> None:
        """``probs`` holds each model's (arm, row, tau) ``prob`` over the
        dataset's rows and the T ``taus``, or None for no adjustment."""
        rows0, rows1 = dataset.arm_rows
        self._perm = np.concatenate([rows1, rows0])
        self.n = dataset.n
        self._n1 = rows1.size
        # Column of each row in the [pi | 1 - pi] table: its arm's propensity.
        arm_offset = np.repeat([0, dataset.n_strata], [self._n1, dataset.n - self._n1])
        self._prop_col = dataset.s[self._perm] + arm_offset
        self._y = dataset.y[self._perm]
        self._taus = np.tile(taus, len(probs))
        T = len(taus)
        adjusted = [prob for prob in probs if prob is not None]
        # The columns that the slopes shift; the others' targets stay tau * total.
        self._cols = np.flatnonzero(np.repeat([prob is not None for prob in probs], T))
        self._m = {}
        # With K' > 1 a model's block is a strided view, which take fills
        # through a buffer the size of ``out``: row chunks bound that buffer.
        chunks = [slice(r, r + _GATHER_ROWS) for r in range(0, self.n, _GATHER_ROWS)]
        for arm in (1, 0) if adjusted else ():
            m = self._m[arm] = np.empty((self.n, len(adjusted) * T))
            for j, prob in enumerate(adjusted):
                for rows in chunks:
                    block = m[rows, j * T:(j + 1) * T]
                    # mode="clip" lets take write straight into ``out``; every index is valid.
                    np.take(prob[arm], self._perm[rows], axis=0, out=block, mode="clip")
                    np.subtract(taus, block, out=block)
        self._work = None

    def _workspace(self, b: int) -> list[np.ndarray]:
        """b-row views of the workspace: a b x n scratch (the propensities,
        then the excess masses) and the b x n masses, which each arm's
        cumulative sum overwrites."""
        if self._work is None or len(self._work[0]) < b:
            self._work = (np.empty((b, self.n)), np.empty((b, self.n)))
        return [a[:b] for a in self._work]

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
        scratch, w = self._workspace(len(xi))
        # mode="clip" lets take write straight into ``out``; every index is valid.
        prop = np.take(np.concatenate([pis, 1.0 - pis], axis=1), self._prop_col, axis=1,
                       out=scratch[:len(pis)], mode="clip")
        np.divide(xi, prop, out=w)
        # np.dot, unlike matmul on one product, and a 1-D cumsum, unlike one
        # along an axis, release the GIL, so the bootstrap's draw runs beside
        # them; the sums are the same.
        shifts = (None, None)
        if self._m:
            # The residual weights xi (a - pi) / pi of the arm-1 target are
            # [w - xi | -xi] over [treated | control] rows, and those of the
            # arm-0 target, xi (a - pi) / (1 - pi), are [xi | -(w - xi)].
            excess = np.subtract(w, xi, out=scratch)  # prop is spent
            m1, m0 = self._m[1], self._m[0]
            slope1 = np.dot(excess[:, :n1], m1[:n1]) - np.dot(xi[:, n1:], m1[n1:])
            slope0 = np.dot(xi[:, :n1], m0[:n1]) - np.dot(excess[:, n1:], m0[n1:])
            shifts = (-slope1, slope0)
        out = []
        for arm, rows, shift in ((1, slice(None, n1), shifts[0]),
                                 (0, slice(n1, None), shifts[1])):
            cum = w[:, rows]  # nothing reads the masses after their sum
            if len(w) == 1:
                np.cumsum(cum[0], out=cum[0])
            else:
                np.cumsum(cum, axis=1, out=cum)
            total = cum[:, -1:]
            if not np.all(np.isfinite(total) & (total > 0.0)):
                raise NumericalError(f"arm {arm} has no weighted mass")
            targets = self._taus * total
            if shift is not None:
                targets[:, self._cols] += shift
            y = self._y[rows]
            k = _search_left(cum, targets)
            out.append(y[np.minimum(k, y.size - 1)])
        return out[0], out[1]


def _model_solver(dataset: Dataset, models, grid: QuantileGrid) -> _Solver:
    """Solver over the adjustments of ``models`` on every row; every estimate
    and draw passes here, so it refuses degenerate strata, and models fitted
    on another grid or dataset."""
    degenerate = [dataset.strata_labels[i] for i in dataset.strata.degenerate]
    if degenerate:
        raise DegenerateCellError(degenerate)
    # The arm-sorted rows are cached on the dataset, so sort them before the
    # adjustment matrices are allocated: a cache allocated above them would
    # keep their memory from returning to the system.
    dataset.arm_rows  # noqa: B018 - computed and cached here
    probs = [m._checked_prob(grid, dataset) for m in models]
    return _Solver(dataset, np.asarray(tuple(grid)), probs)


def _point(solver: _Solver, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q1, q0) per column at unit weights and the 1 x S treated fractions
    ``pis``: the solve as a one-row block."""
    q1, q0 = solver.solve(np.ones((1, solver.n)), pis)
    return q1[0], q0[0]


def qte(dataset: Dataset, model, grid: QuantileGrid) -> QteEstimate:
    """Adjusted QTE curve: per-tau difference of the two arm solutions.

    The model is evaluated on the dataset rows once, for both arms, and the
    arm problems are solved with unit weights at the estimated treated
    fractions ``dataset.strata.pi_hat``.  The naive estimate at a known
    fraction is the ``point`` of :func:`~carqte.bootstrap.run_bootstrap`
    with ``fixed_pi``.
    """
    solver = _model_solver(dataset, (model,), grid)
    q1, q0 = _point(solver, dataset.strata.pi_hat[None])
    return QteEstimate(taus=tuple(grid), q1=q1, q0=q0)


def pilot_quantiles(dataset: Dataset, grid: QuantileGrid) -> QteEstimate:
    """Unadjusted arm quantiles (zero adjustment, unit weights)."""
    from .adjust import _fit_none

    return qte(dataset, _fit_none(grid), grid)
