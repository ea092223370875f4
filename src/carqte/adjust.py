"""Auxiliary-regression working models for quantile adjustment.

Every method fits, per (arm, stratum, tau) cell, a model of the probability
that the outcome falls below the arm's pilot quantile, and stores the fitted
probabilities on the rows it was fitted on in a single
:class:`AdjustmentModel`; the adjustment is ``tau - fitted probability``.
Methods:

* ``na``     zero adjustment,
* ``lp``     linear probability with within-cell demeaned regressors,
* ``ml``     logistic quasi-ML; ``mlx`` adds pairwise interactions,
* ``lpml``   optimal linear recombination of the two logistic probability
             columns, ridge-stabilized; ``lpmlx`` with interactions,
* ``np``     logistic on a sieve basis thresholded at the covariate medians,
* ``lasso``  l1-penalized logistic with iterated penalty loadings and a
             post-selection refit.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset, QuantileGrid
from .errors import CarqteError, DataValidationError, NumericalError

METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np", "lasso")
# Recombination method -> the logistic method whose per-cell fits it recombines.
LOGIT_BASE = {"lpml": "ml", "lpmlx": "mlx"}
LOGIT_METHODS = ("ml", "mlx", "np")  # the methods of :func:`fit_ml`

# Coefficient magnitude beyond which a logistic fit is treated as separated.
_SEPARATION_CAP = 30.0
_SCORE_TOL = 1e-8
_MAX_NEWTON = 200
# The batched logistic solve pads cells into blocks of at most about this many
# floats (cells x rows x features x taus); a cell larger than that is a block
# of its own.
_BLOCK_FLOATS = 1 << 18
# A recombined probability column whose cell standard deviation is at most
# this is treated as constant: saturated logistic columns have an sd of
# rounding size, and dividing by it would amplify rounding noise.
_ZERO_SD = 1e-8
# Lasso: the loading rounds stop once the loadings move by less than
# _LOADING_TOL (relative); coordinate descent stops at a KKT residual of
# _KKT_TOL or after _MAX_OUTER reweighting steps.
_LOADING_TOL = 1e-4
_KKT_TOL = 1e-8
_MAX_OUTER = 200
# Lasso dictionary columns always kept in the post-selection refit: the first
# covariate of [1 | x], which every dictionary has (a fit needs d >= 1).
_FORCED_SUPPORT = (1,)


# ---------------------------------------------------------------------------
# Regressors
# ---------------------------------------------------------------------------


def _features(method: str, x: np.ndarray, medians: np.ndarray | None) -> np.ndarray:
    """The (n, p) regressor matrix of ``method`` on the covariates ``x``.

    ``lp``: x itself.  ``ml``, ``lpml`` and ``lasso``: [1 | x].  ``mlx`` and
    ``lpmlx``: those columns, then x_i x_j for every i < j.  ``np``: the
    ``mlx`` columns, then x_i 1{x_i > t_i} x_j 1{x_j > t_j} for every i < j,
    at the thresholds t = ``medians`` (None for the other methods).
    """
    n, d = x.shape
    if d < 1:
        raise DataValidationError(f"{method} needs at least one covariate")
    interact = method in ("mlx", "lpmlx", "np")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)] if interact else []
    lead = 0 if method == "lp" else 1
    start = lead + d
    H = np.empty((n, start + len(pairs) * (2 if method == "np" else 1)))
    H[:, :lead] = 1.0
    H[:, lead:start] = x
    for c, (i, j) in enumerate(pairs, start):
        H[:, c] = x[:, i] * x[:, j]
    if method == "np":
        above = x > medians
        for c, (i, j) in enumerate(pairs, start + len(pairs)):
            H[:, c] = x[:, i] * above[:, i] * x[:, j] * above[:, j]
    return H


class _RowFeatures:
    """The (n, p) regressors of ``method`` on a dataset's covariates ``x``,
    built only for the rows asked for.

    ``self[rows]`` is ``self[:][rows]`` bit for bit: each entry is the same
    elementwise product, and ``np`` thresholds at the whole dataset's column
    medians, computed here once, not at those of the rows.  A fit builds one
    cell or stratum at a time, never the whole matrix.
    """

    def __init__(self, method: str, x: np.ndarray):
        self.method, self.x = method, x
        self.medians = np.median(x, axis=0) if method == "np" else None
        self.shape = (x.shape[0], _features(method, x[:0], self.medians).shape[1])

    def __getitem__(self, rows) -> np.ndarray:
        return _features(self.method, self.x[rows], self.medians)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjustmentModel:
    """Fitted auxiliary regressions for every (arm, stratum, tau) cell.

    ``coef`` is a dense ``(arm, stratum, tau, p)`` array indexed by arm,
    stratum code and tau index, and ``live`` the ``(arm, stratum, tau)``
    mask of fitted cells; a cell outside it keeps zero coefficients.
    ``prob`` holds the ``(arm, row, tau)`` fitted values that the adjustment
    subtracts from tau, on the rows the model was fitted on, each row under
    its stratum's cell model: probabilities for the logistic methods, the
    linear fit for ``lp`` and the centred recombination for ``lpml``.  It
    holds tau itself where a cell is not live, so that its adjustment is
    exactly zero, and is None for ``na``.
    """

    method: str
    taus: tuple[float, ...]
    coef: np.ndarray
    live: np.ndarray
    prob: np.ndarray | None
    support: dict | None
    diagnostics: dict

    def evaluate_all(self, grid, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Adjustment values ``tau - prob`` for every row, at both arms.

        Returns the pair of ``(n, len(grid))`` matrices indexed by arm
        (control first).  The adjustment exists only in sample: ``grid`` and
        ``dataset`` must be the ones the model was fitted on.
        """
        prob = self._checked_prob(grid, dataset)
        if prob is None:
            return np.zeros((dataset.n, len(self.taus))), np.zeros((dataset.n, len(self.taus)))
        taus = np.asarray(self.taus)
        return taus - prob[0], taus - prob[1]

    def _checked_prob(self, grid, dataset: Dataset) -> np.ndarray | None:
        """``prob``, once ``grid`` and ``dataset`` are checked to be the ones
        the model was fitted on (for ``na``, the grid only)."""
        if tuple(grid) != self.taus:
            raise DataValidationError(f"model was fitted on grid {self.taus}, not {tuple(grid)}")
        if self.prob is not None and (dataset.n != self.prob.shape[1]
                                      or dataset.n_strata != self.live.shape[1]):
            raise DataValidationError("model was fitted on another dataset")
        return self.prob


def _fitted_prob(dataset: Dataset, taus: tuple, live: np.ndarray, H, coef, link=None):
    """``prob`` of a model fitted on ``H`` (a :class:`_RowFeatures`):
    ``link(H_s @ theta)`` for every live cell on all rows of its stratum
    (link None is the identity), tau elsewhere.  Strata run on
    :func:`_two_lanes` in tasks of the solve's float budget (:func:`_chunks`),
    each writing only its own rows, so a one-task call starts no thread."""
    prob = np.empty((2, dataset.n, len(taus)))
    prob[:] = np.asarray(taus)

    def fill(strata):
        for s in strata:
            rows = np.flatnonzero(dataset.s == s)
            H_s = H[rows]
            for ti in range(len(taus)):
                for a in np.flatnonzero(live[:, s, ti]):
                    fit = np.dot(H_s, coef[a, s, ti])
                    prob[a, rows, ti] = fit if link is None else link(fit)
            del H_s  # before the next build: one stratum's block alive per lane

    _two_lanes(_chunks(dataset.strata.n, H.shape[1] * len(taus)), fill)
    return prob


# ---------------------------------------------------------------------------
# Logistic quasi-ML: one batched Newton core for every (cell, tau) problem
# ---------------------------------------------------------------------------


def _expit(x):
    """The logistic link ``1 / (1 + exp(-x))``.  Below x = -709.78,
    ``exp(-x)`` overflows to inf, silently, and the link is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _batch_objective(t, Y, valid, n, ridge, theta, mm):
    """Per-problem penalized mean negative log-likelihood, shape (C, T);
    ``mm`` is the row product of :func:`_newton_pass`."""
    # log(1 + e^t) - y t over each cell's valid rows, spelled out because
    # np.logaddexp costs several times as much.
    f = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - Y * t
    nll = mm(valid, f)[:, 0] / n[:, None]
    return nll + 0.5 * ridge[:, None] * np.sum(theta * theta, axis=1)


def _newton_pass(H, Y, valid, n, ridge, active):
    """Damped Newton iteration on a block of padded cells.

    ``H`` is (C, N, p) with zero rows past each cell's ``n`` rows (``valid``
    masks them out of the objective), ``Y`` is (C, N, T) with tau along the
    columns, ``ridge`` is per cell and ``active`` (C, T) selects the problems
    to fit, for at most ``_MAX_NEWTON`` iterations.  A problem is frozen
    once its score is within tolerance (converged), without ridge once a
    coefficient passes the separation cap (separated), or at its first score
    or Hessian that is not finite (failed: its theta is returned as NaN, so
    the fitted values refuse it); an iteration works only on the tau columns
    that still have a live problem.  Steps solve each Hessian exactly; if
    some Hessian of the stack is singular, that iteration falls back to
    per-problem minimum norm least squares.  Backtracking halves a problem's
    step while its objective rises by more than 1e-14.  Returns theta
    (C, p, T) and the converged and separated masks.

    The products over the N rows are 2-D ``np.dot`` calls for a lone cell,
    which release the GIL (a stacked matmul of one cell holds it), and
    stacked matmuls over a block of several cells.
    """
    C, _, p = H.shape
    T = Y.shape[2]
    mm = np.matmul if C > 1 else lambda a, b: np.dot(a[0], b[0])[None]
    active = active.copy()
    converged = np.zeros((C, T), dtype=bool)
    separated = np.zeros((C, T), dtype=bool)
    failed = np.zeros((C, T), dtype=bool)
    check_sep = (ridge == 0.0)[:, None]
    HT = H.transpose(0, 2, 1)
    theta = np.zeros((C, p, T))
    t = np.zeros(Y.shape)
    obj = _batch_objective(t, Y, valid, n, ridge, theta, mm)
    eye = np.eye(p)
    for _ in range(_MAX_NEWTON):
        cols = np.flatnonzero(active.any(axis=0))
        if cols.size == 0:
            break
        if cols.size == T:
            cols = slice(None)  # every column live: views, no copies
        Yc, tc, th, oc = Y[:, :, cols], t[:, :, cols], theta[:, :, cols], obj[:, cols]
        prob = _expit(tc)
        score = mm(HT, Yc - prob) / n[:, None, None] - ridge[:, None, None] * th
        # A NaN score never meets the tolerance, and a step from it or from
        # a non-finite Hessian is no fit, however finite theta still is.
        bad = active[:, cols] & ~np.all(np.isfinite(score), axis=1)
        done = active[:, cols] & (np.max(np.abs(score), axis=1) <= _SCORE_TOL)
        converged[:, cols] |= done
        failed[:, cols] |= bad
        live = active[:, cols] & ~done & ~bad
        active[:, cols] = live
        if not live.any():
            break
        # Hessians as a (C, T', p, p) stack, one product per tau column, so
        # no temporary holds more than one column's (C, p, N) weighted rows;
        # only live problems take a step.
        w = (prob * (1.0 - prob)).transpose(0, 2, 1)
        k = w.shape[1]
        hess = np.stack([mm(HT * w[:, j, None, :], H) for j in range(k)], axis=1)
        hess = hess / n[:, None, None, None] + ridge[:, None, None, None] * eye
        bad = live & ~np.all(np.isfinite(hess), axis=(2, 3))
        failed[:, cols] |= bad
        live &= ~bad
        active[:, cols] = live
        if not live.any():
            continue
        hess, rhs = hess[live], score.transpose(0, 2, 1)[live]
        try:
            solved = np.linalg.solve(hess, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            solved = np.array([np.linalg.lstsq(h, r, rcond=None)[0] for h, r in zip(hess, rhs)])
        step = np.zeros((C, k, p))
        step[live] = solved
        step = step.transpose(0, 2, 1)
        eta = np.ones(live.shape)
        cand = th + step
        t_cand = mm(H, cand)
        obj_cand = _batch_objective(t_cand, Yc, valid, n, ridge, cand, mm)
        halve = live & (obj_cand > oc + 1e-14)
        while halve.any():
            eta[halve] *= 0.5
            cand = np.where(halve[:, None], th + eta[:, None] * step, cand)
            t_cand = np.where(halve[:, None], mm(H, cand), t_cand)
            obj_new = _batch_objective(t_cand, Yc, valid, n, ridge, cand, mm)
            obj_cand = np.where(halve, obj_new, obj_cand)
            halve &= (obj_cand > oc + 1e-14) & (eta > 1e-10)
        th = np.where(live[:, None], cand, th)
        theta[:, :, cols] = th
        t[:, :, cols] = np.where(live[:, None], t_cand, tc)
        obj[:, cols] = np.where(live, obj_cand, oc)
        sep = live & check_sep & (np.max(np.abs(th), axis=1) > _SEPARATION_CAP)
        separated[:, cols] |= sep
        active[:, cols] = live & ~sep
    theta.transpose(0, 2, 1)[failed] = np.nan
    return theta, converged, separated


def _chunks(sizes, width):
    """Consecutive runs of cells whose padded block fits the float budget."""
    chunk: list[int] = []
    rows = 0
    for i, size in enumerate(sizes):
        if chunk and (len(chunk) + 1) * max(rows, size) * width > _BLOCK_FLOATS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(i)
        rows = max(rows, size)
    if chunk:
        yield chunk


def _two_lanes(tasks, run):
    """``run(task)`` for every task on two lanes, the calling thread and one
    helper thread scoped to the call, which take tasks from one shared queue;
    a one-task call starts no thread.  A failure clears the queue, so the
    other lane stops after its current task; the error raised is the failing
    task's own, and the helper has ended before the call returns or raises.
    """
    pending = deque(tasks)

    def lane():
        while True:
            try:
                task = pending.popleft()
            except IndexError:
                return
            try:
                run(task)
            except BaseException:
                pending.clear()
                raise

    if len(pending) <= 1:
        lane()
    else:
        with ThreadPoolExecutor(1) as pool:
            helper = pool.submit(lane)
            lane()
            helper.result()


def _fit_logit_cells(cells, labels):
    """Logistic quasi-ML for every (cell, tau) problem, in padded batches.

    ``cells[c]`` is ``(H, rows)``, the cell's rows of its own feature matrix
    (an array or a :class:`_RowFeatures`), so cells of several datasets
    share a solve unstacked.  ``labels[c]`` holds its (n_c, T) bool or 0/1
    labels, one column per tau, cast to floats as its block is filled.  The
    first pass has no ridge; problems that separate in it are refitted from
    zero with ridge ``1e-4 / n_c`` in a second batched pass.  Returns theta
    (C, T, p) and the converged and separated masks (C, T).

    The chunks run on :func:`_two_lanes`; each builds its own features and
    writes only its own rows of the results, so nothing depends on which
    lane solved it.
    """
    C = len(cells)
    p = cells[0][0].shape[1]
    T = labels[0].shape[1]
    sizes = [rows.size for _, rows in cells]
    theta = np.zeros((C, T, p))
    converged = np.zeros((C, T), dtype=bool)
    separated = np.zeros((C, T), dtype=bool)

    def solve(chunk):
        N = max(sizes[c] for c in chunk)
        Hb = np.zeros((len(chunk), N, p))
        Yb = np.zeros((len(chunk), N, T))
        for k, c in enumerate(chunk):
            H, rows = cells[c]
            Hb[k, : sizes[c]] = H[rows]
            Yb[k, : sizes[c]] = labels[c]
        n = np.array([sizes[c] for c in chunk], dtype=np.float64)
        valid = (np.arange(N) < n[:, None])[:, None, :].astype(np.float64)
        active = np.ones((len(chunk), T), dtype=bool)
        th, conv, sep = _newton_pass(Hb, Yb, valid, n, np.zeros(len(chunk)), active)
        redo = np.flatnonzero(sep.any(axis=1))
        if redo.size:
            th2, conv2, _ = _newton_pass(
                Hb[redo], Yb[redo], valid[redo], n[redo], 1e-4 / n[redo], sep[redo]
            )
            mask = sep[redo]
            th[redo] = np.where(mask[:, None], th2, th[redo])
            conv[redo] = np.where(mask, conv2, conv[redo])
        theta[chunk] = th.transpose(0, 2, 1)
        converged[chunk] = conv
        separated[chunk] = sep

    _two_lanes(_chunks(sizes, p * T), solve)
    return theta, converged, separated


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def _cell_problems(dataset: Dataset, pilot, taus: tuple, min_rows: int) -> tuple:
    """The (arm, stratum) cells with at least ``min_rows`` rows, and the live mask.

    Cells run stratum-major, treated arm first.  The first result yields each
    fitted cell as ``(a, s, rows, labels)``, with its (n_c, T) bool labels
    1{y <= q_a(tau)}, the one target every method fits, built only as the
    cell is reached.  The second is the (arm, stratum, tau) ``live`` mask,
    set on every tau of the fitted cells; a fitter that leaves a fitted cell
    unfit clears it there, and :func:`_model` reports every cell outside it
    as degraded.  A per-tau fit reads contiguous float rows, as
    ``labels.T.astype(np.float64, order="C")`` gives: on a strided column, a
    matrix product can sum in another order.  ``pilot`` may hold more taus.
    """
    for tau in taus:
        if tau not in pilot.taus:
            raise DataValidationError(f"the pilot has no quantile at tau={tau}: "
                                      f"its grid is {pilot.taus}")
    cutoffs = [np.array([pilot.q(a, tau) for tau in taus]) for a in (0, 1)]
    cells = [(a, s, np.flatnonzero((dataset.s == s) & (dataset.a == a)))
             for s in range(dataset.n_strata) for a in (1, 0)]
    live = np.zeros((2, dataset.n_strata, len(taus)), dtype=bool)
    for a, s, rows in cells:
        live[a, s] = rows.size >= min_rows
    fitted = ((a, s, rows, dataset.y[rows][:, None] <= cutoffs[a])
              for a, s, rows in cells if rows.size >= min_rows)
    return fitted, live


# The outcomes that warn, in the order they do; {n} is the number of listed
# cells or problems, {why} the degraded cells counted by cause.
_WARNINGS = (
    ("singular_gram", "singular within-cell Gram in {n} cell(s); minimum-norm solution used"),
    ("kkt_unmet", "penalized solve missed the KKT tolerance in {n} problem(s)"),
    ("unconverged", "logistic fit did not reach score tolerance in {n} problem(s)"),
    ("degraded", "{why}, degraded to zero adjustment"),
)


def _model(method, taus, coef, live, prob, support=None, unfit=None, converged=None,
           extra=None, **masks):
    """The fitted :class:`AdjustmentModel`, with every outcome of the fit
    listed under its diagnostics and reported.

    ``degraded`` lists the (a, s) cells outside ``live``.  Each of ``masks``
    is an (arm, stratum, tau) bool mask, listed under its own name as
    (a, s, tau index) tuples, and ``unconverged`` lists the live problems
    outside ``converged``.  Every list runs in cell order: stratum first,
    treated arm first, then tau.  ``unfit`` masks the (a, s) cells degraded
    because their stratum's base fit is not live on both arms; the other
    degraded cells are too small.  ``extra`` diagnostics are kept as given.
    Warns once per non-empty outcome of ``_WARNINGS``, then raises when no
    cell is live or a fitted value is not finite.
    """
    if converged is not None:
        masks["unconverged"] = live & ~converged
    order = [(a, s) for s in range(live.shape[1]) for a in (1, 0)]
    diagnostics = {"degraded": tuple((a, s) for a, s in order if not live[a, s].all())}
    for key, mask in masks.items():
        diagnostics[key] = tuple((a, s, ti) for a, s in order for ti in range(len(taus))
                                 if mask[a, s, ti])
    n_unfit = 0 if unfit is None else int(unfit.sum())
    why = f"{len(diagnostics['degraded']) - n_unfit} cell(s) too small"
    if n_unfit:
        why += f" and {n_unfit} in a stratum without a live {LOGIT_BASE[method]} fit"
    for key, text in _WARNINGS:
        if diagnostics.get(key):
            warnings.warn(f"{method}: " + text.format(n=len(diagnostics[key]), why=why),
                          stacklevel=3)
    if diagnostics["degraded"] and not live.any():
        raise DataValidationError(f"{method}: no cell is live: {why}" if n_unfit
                                  else f"{method}: every (arm, stratum) cell is too small")
    if prob is not None and not np.all(np.isfinite(prob)):
        raise NumericalError(f"{method}: fitted values are not finite")
    return AdjustmentModel(method, taus, coef, live, prob, support,
                           {**diagnostics, **(extra or {})})


# ---------------------------------------------------------------------------
# Fitters
# ---------------------------------------------------------------------------


def _fit_none(grid: QuantileGrid) -> AdjustmentModel:
    """The no-adjustment model: evaluates to zero everywhere."""
    taus = tuple(grid)
    coef, live = np.zeros((2, 0, len(taus), 0)), np.zeros((2, 0, len(taus)), dtype=bool)
    return _model("na", taus, coef, live, None)


def _fit_lp(dataset: Dataset, pilot, grid: QuantileGrid) -> AdjustmentModel:
    """Within-cell least squares of the outcome indicator on demeaned regressors."""
    H = _RowFeatures("lp", dataset.x)
    p = H.shape[1]
    taus = tuple(grid)
    fitted, live = _cell_problems(dataset, pilot, taus, p + 2)
    coef, singular = np.zeros(live.shape + (p,)), np.zeros_like(live)
    for a, s, rows, labels in fitted:
        Hc = H[rows]
        wdot = Hc - Hc.mean(axis=0)
        if not np.all(np.isfinite(wdot)):  # a cell sum overflowed; lstsq would fail on it
            raise NumericalError(f"lp: demeaned regressors are not finite in stratum "
                                 f"{dataset.strata_labels[s]!r}, arm {a}")
        for ti, y_t in enumerate(labels.T.astype(np.float64, order="C")):
            coef[a, s, ti], _, rank, _ = np.linalg.lstsq(wdot, y_t, rcond=None)
            singular[a, s, ti] = rank < p
    prob = _fitted_prob(dataset, taus, live, H, coef)
    return _model("lp", taus, coef, live, prob, singular_gram=singular)


def fit_ml(items, grid: QuantileGrid, method: str) -> list:
    """Logistic quasi-ML per cell on indicator labels below the pilot quantile,
    for a group of ``(dataset, pilot)`` items in one batched solve.

    ``method`` (``ml``, ``mlx`` or ``np``) names the results and picks each
    item's regressors, the sieve at that dataset's own medians for ``np``.
    The items must share one covariate count.  Returns one entry per item:
    its model, or the :class:`CarqteError` that failed it.
    """
    taus = tuple(grid)
    prepared, cells, labels = [], [], []
    for dataset, pilot in items:
        H = _RowFeatures(method, dataset.x)
        fitted, live = _cell_problems(dataset, pilot, taus, H.shape[1] + 2)
        fitted = list(fitted)
        cells += [(H, rows) for _, _, rows, _ in fitted]
        labels += [cell_labels for *_, cell_labels in fitted]
        fitted = [(a, s) for a, s, *_ in fitted]  # no reference to the labels kept
        prepared.append((H, fitted, live))
    fits = iter(())  # (theta, converged, separated) of each fitted cell, in item order
    if cells:
        fits = zip(*_fit_logit_cells(cells, labels))
    del cells, labels  # freed before ``prob`` is allocated, so they add nothing to the peak
    out: list = []
    for (dataset, _), (H, fitted, live) in zip(items, prepared):
        coef = np.zeros(live.shape + (H.shape[1],))
        converged, separated = np.zeros_like(live), np.zeros_like(live)
        for a, s in fitted:
            coef[a, s], converged[a, s], separated[a, s] = next(fits)
        prob = _fitted_prob(dataset, taus, live, H, coef, _expit)
        try:
            out.append(_model(method, taus, coef, live, prob, converged=converged,
                              separated=separated))
        except CarqteError as exc:
            out.append(exc)
    return out


def _fit_lpml(dataset: Dataset, pilot, grid: QuantileGrid, ml_model: AdjustmentModel | None,
              method: str) -> AdjustmentModel:
    """Optimal linear recombination of the two logistic probability columns.

    The columns are the ``prob`` of the logistic model named by
    ``LOGIT_BASE[method]``, fitted here unless ``ml_model`` hands it over.
    Per cell, the pair (treated-model probability, control-model probability)
    is demeaned, scaled by its cell standard deviation, and regressed on the
    cell's bool labels, as floats, with a ridge of 1/n on the 2x2 system; a
    column of zero cell sd gets a zero coefficient.  A stratum's columns are
    gathered for every tau at once, and strata run on :func:`_two_lanes` as
    in :func:`_fitted_prob`, each task writing only its strata's cells.
    """
    taus = tuple(grid)
    base = LOGIT_BASE[method]
    if dataset.x.shape[1] < 1:
        raise DataValidationError(f"{method} needs at least one covariate")
    if ml_model is None:
        ml_model = fit_adjustment(base, dataset, pilot, grid)
    elif ml_model.method != base:
        raise DataValidationError(f"{method} recombines an {base} fit, not {ml_model.method}")
    ml_prob = ml_model._checked_prob(grid, dataset)
    delta = 1.0 / dataset.n
    prob = np.empty(ml_prob.shape)
    prob[:] = np.asarray(taus)
    # Two coefficients plus the usual slack; a cell also adjusts by zero when
    # its stratum's base fit is not live on both arms.
    fitted, live = _cell_problems(dataset, pilot, taus, 4)
    coef, zero_var = np.zeros(live.shape + (2,)), np.zeros_like(live)
    unfit = np.zeros(live.shape[:2], dtype=bool)
    cells: list = [[] for _ in range(dataset.n_strata)]  # (a, (T, n_c) labels) by stratum
    for a, s, _, labels in fitted:
        if ml_model.live[:, s].all():
            cells[s].append((a, labels.T))
        else:
            live[a, s], unfit[a, s] = False, True

    def recombine(strata):
        for s in strata:
            stratum = np.flatnonzero(dataset.s == s)
            # (n_s, T, 2): the treated-model, then the control-model column
            w = np.stack([ml_prob[1, stratum], ml_prob[0, stratum]], axis=2)
            for a, labels in cells[s]:
                in_cell = dataset.a[stratum] == a
                cell = w[in_cell]
                mean, sd = cell.mean(axis=0), cell.std(axis=0)
                ok = sd > _ZERO_SD
                wd = w - mean  # standardised in place: one (n_s, T, 2) block per lane
                wd /= np.where(ok, sd, 1.0)
                wd[:, ~ok] = 0.0
                wd_cell = wd[in_cell]
                zero_var[a, s] = ~ok.all(axis=1)
                for ti, y_t in enumerate(labels):  # contiguous copies per tau
                    wd_t, wd_ct = wd[:, ti].copy(), wd_cell[:, ti].copy()
                    gram = np.dot(wd_ct.T, wd_ct) / len(cell) + delta * np.eye(2)
                    rhs = np.dot(wd_ct.T, y_t.astype(np.float64)) / len(cell)
                    theta = np.linalg.solve(gram, rhs)
                    theta[~ok[ti]] = 0.0
                    coef[a, s, ti] = theta
                    prob[a, stratum, ti] = np.dot(wd_t, theta)

    _two_lanes(_chunks(dataset.strata.n, 2 * len(taus)), recombine)
    return _model(method, taus, coef, live, prob, unfit=unfit, zero_variance=zero_var)


# ---------------------------------------------------------------------------
# L1-penalized logistic with iterated loadings, plus post-selection refit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoConfig:
    """Tuning constants for the penalized logistic fit: the penalty
    multiplier ``c`` and the number of loading refreshes."""

    c: float = 1.1
    loading_iterations: int = 2

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c > 0.0) or self.loading_iterations < 1:
            raise DataValidationError("lasso config needs a finite c > 0 and K >= 1")


def _penalty_level(n_cell: int, p_penalized: int, config: LassoConfig) -> float:
    """Cell-level penalty c * sqrt(n) * Phi^-1(1 - 1/(p log n)), its tail capped at 1/2."""
    logn = max(np.log(n_cell), 1.0)
    tail = min(1.0 / (p_penalized * logn), 0.5)
    return config.c * np.sqrt(n_cell) * NormalDist().inv_cdf(1.0 - tail)


def _l1_kkt_residual(H, y, theta, lam):
    """Max violation of the subgradient optimality conditions."""
    n = H.shape[0]
    g = H.T @ (_expit(H @ theta) - y) / n
    res = np.where(
        lam == 0.0,
        np.abs(g),
        np.where(
            theta != 0.0,
            np.abs(g + np.sign(theta) * lam),
            np.maximum(np.abs(g) - lam, 0.0),
        ),
    )
    return float(np.max(res)) if res.size else 0.0


def _l1_logit_cd(H, y, lam, theta):
    """Coordinate descent on iteratively reweighted quadratic majorizations.

    ``lam`` is the per-column penalty level on the mean negative
    log-likelihood scale; zero entries are unpenalized.  Starts from a copy
    of ``theta``.  Returns theta and its KKT residual, above ``_KKT_TOL``
    only after ``_MAX_OUTER`` steps, and after the first step whose residual
    is not finite.
    """
    n, p = H.shape
    theta = theta.copy()
    col_sq = H**2
    for _ in range(_MAX_OUTER):
        t = H @ theta
        prob = _expit(t)
        w = np.maximum(prob * (1.0 - prob), 1e-6)
        z = t + (y - prob) / w
        r = z - t
        denom = np.maximum((w[:, None] * col_sq).mean(axis=0), 1e-12)
        for _sweep in range(100):
            max_delta = 0.0
            for h in range(p):
                th_old = theta[h]
                rho = np.mean(w * H[:, h] * r) + denom[h] * th_old
                if lam[h] > 0.0:
                    th_new = np.sign(rho) * max(abs(rho) - lam[h], 0.0) / denom[h]
                else:
                    th_new = rho / denom[h]
                if th_new != th_old:
                    r = r - H[:, h] * (th_new - th_old)
                    theta[h] = th_new
                    max_delta = max(max_delta, abs(th_new - th_old))
            if max_delta < 1e-12:
                break
        kkt = _l1_kkt_residual(H, y, theta, lam)
        if kkt <= _KKT_TOL or not np.isfinite(kkt):
            break  # a non-finite residual never falls; _model rejects the fit
    return theta, kkt


def _fit_hd_lasso(
    dataset: Dataset,
    pilot,
    grid: QuantileGrid,
    config: LassoConfig = LassoConfig(),
) -> AdjustmentModel:
    """Penalized logistic per cell on the dictionary [1 | x], then an
    unpenalized refit on the support.

    Penalty loadings start from the second moments of the centered indicator
    label times each squared column and are refreshed from fitted residuals
    over ``config.loading_iterations`` rounds.  The selected support, joined
    with the ``_FORCED_SUPPORT`` columns and the intercept (column 0, never
    penalized), is refitted without penalty; evaluation uses the refitted
    coefficients.  A problem converged when its last loading round stopped
    at a KKT residual of at most ``_KKT_TOL`` and its refit met the score
    tolerance.
    """
    H = _RowFeatures("lasso", dataset.x)
    p = H.shape[1]
    pen_cols = np.arange(1, p)
    forced = _FORCED_SUPPORT
    taus = tuple(grid)
    fitted, live = _cell_problems(dataset, pilot, taus, 3)
    coef = np.zeros(live.shape + (p,))
    converged, kkt_unmet, separated = (np.zeros_like(live) for _ in range(3))
    support, kkt_diag, hd_theta, hd_lam = {}, {}, {}, {}  # by (a, s, tau index)
    for a, s, rows, labels in fitted:
        Hc = H[rows]
        nc = rows.size
        rho = _penalty_level(nc, pen_cols.size, config)
        for ti, y_t in enumerate(labels.T.astype(np.float64, order="C")):
            ybar = y_t.mean()
            # Initial loadings: centered-label second moments (no square root).
            sig = ((y_t - ybar) ** 2)[:, None] * (Hc**2)
            loadings = sig.mean(axis=0)
            theta = np.zeros(p)
            for _k in range(config.loading_iterations + 1):
                lam = np.zeros(p)
                lam[pen_cols] = rho * loadings[pen_cols] / nc
                theta, kkt = _l1_logit_cd(Hc, y_t, lam, theta)
                resid = y_t - _expit(Hc @ theta)
                new_loadings = np.sqrt(((Hc * resid[:, None]) ** 2).mean(axis=0))
                rel = np.max(
                    np.abs(new_loadings - loadings) / np.maximum(np.abs(loadings), 1e-12)
                )
                loadings = new_loadings
                if rel < _LOADING_TOL or not np.isfinite(kkt):
                    break
            kkt_diag[(a, s, ti)] = kkt
            hd_theta[(a, s, ti)] = theta
            hd_lam[(a, s, ti)] = lam
            keep = {j for j in pen_cols if theta[j] != 0.0} | set(forced) | {0}
            # Refit must stay overdetermined within the cell.
            cap = max(nc - 2, 1)
            if len(keep) > cap:
                ordered = sorted(
                    keep, key=lambda j: (j not in forced, j != 0, -abs(theta[j]))
                )
                keep = set(ordered[:cap]) | set(forced)
            cols = tuple(sorted(keep))
            refit, conv, sep = _fit_logit_cells([(Hc[:, cols], np.arange(nc))], [y_t[:, None]])
            coef[a, s, ti, list(cols)] = refit[0, 0]
            support[(a, s, ti)] = cols
            converged[a, s, ti] = conv[0, 0]
            kkt_unmet[a, s, ti] = not kkt <= _KKT_TOL  # a NaN residual too
            separated[a, s, ti] = sep[0, 0]
    prob = _fitted_prob(dataset, taus, live, H, coef, _expit)
    return _model("lasso", taus, coef, live, prob, support, converged=converged,
                  extra={"kkt": kkt_diag, "hd_theta": hd_theta, "hd_lam": hd_lam},
                  kkt_unmet=kkt_unmet, separated=separated)


# ---------------------------------------------------------------------------
# Method dispatch
# ---------------------------------------------------------------------------


def fit_adjustment(
    method: str,
    dataset: Dataset,
    pilot,
    grid: QuantileGrid,
    lasso_config: LassoConfig = LassoConfig(),
    ml_model: AdjustmentModel | None = None,
) -> AdjustmentModel:
    """Fit the named auxiliary regression on its regressors (:func:`_features`).

    ``ml_model`` hands ``lpml`` (``lpmlx``) an already fitted ``ml``
    (``mlx``) model, whose fitted probabilities the recombination then
    reuses instead of refitting them; the result is identical either way.
    """
    if ml_model is not None and method not in LOGIT_BASE:
        raise DataValidationError(f"method {method!r} does not reuse a logistic fit")
    if method == "na":
        return _fit_none(grid)
    if method == "lp":
        return _fit_lp(dataset, pilot, grid)
    if method in LOGIT_METHODS:
        (model,) = fit_ml([(dataset, pilot)], grid, method=method)
        if isinstance(model, CarqteError):
            raise model
        return model
    if method in LOGIT_BASE:
        return _fit_lpml(dataset, pilot, grid, ml_model, method)
    if method == "lasso":
        return _fit_hd_lasso(dataset, pilot, grid, config=lasso_config)
    raise DataValidationError(f"unknown adjustment method {method!r}")
