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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtri

from .data import Dataset, QuantileGrid
from .errors import CarqteError, DataValidationError

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


# ---------------------------------------------------------------------------
# Regressors
# ---------------------------------------------------------------------------


def _features(method: str, x: np.ndarray) -> np.ndarray:
    """The (n, p) regressor matrix of ``method`` on the covariates ``x``.

    ``lp``: x itself.  ``ml``, ``lpml`` and ``lasso``: [1 | x].  ``mlx`` and
    ``lpmlx``: those columns, then x_i x_j for every i < j.  ``np``: the
    ``mlx`` columns, then x_i 1{x_i > t_i} x_j 1{x_j > t_j} for every i < j,
    at the column medians t.
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
        t = np.median(x, axis=0)
        for c, (i, j) in enumerate(pairs, start + len(pairs)):
            H[:, c] = x[:, i] * (x[:, i] > t[i]) * x[:, j] * (x[:, j] > t[j])
    return H


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
    support: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def evaluate_all(self, grid, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Adjustment values ``tau - prob`` for every row, at both arms.

        Returns the pair of ``(n, len(grid))`` matrices indexed by arm
        (control first).  The adjustment exists only in sample: ``grid`` and
        ``dataset`` must be the ones the model was fitted on.
        """
        if tuple(grid) != self.taus:
            raise DataValidationError(f"model was fitted on grid {self.taus}, not {tuple(grid)}")
        if self.prob is None:
            return np.zeros((dataset.n, len(self.taus))), np.zeros((dataset.n, len(self.taus)))
        if dataset.n != self.prob.shape[1] or dataset.n_strata != self.live.shape[1]:
            raise DataValidationError("model was fitted on another dataset")
        taus = np.asarray(self.taus)
        return taus - self.prob[0], taus - self.prob[1]


def _fitted_prob(dataset: Dataset, taus: tuple, live: np.ndarray, H, coef, link=None):
    """``prob`` of a model fitted on ``H``: ``link(H_s @ theta)`` for every
    live cell on all rows of its stratum (link None is the identity), tau
    elsewhere."""
    prob = np.empty((2, dataset.n, len(taus)))
    prob[:] = np.asarray(taus)
    for s in range(live.shape[1]):
        rows = np.flatnonzero(dataset.s == s)
        H_s = H[rows]
        for ti in range(len(taus)):
            for a in np.flatnonzero(live[:, s, ti]):
                fit = H_s @ coef[a, s, ti]
                prob[a, rows, ti] = fit if link is None else link(fit)
        del H_s  # before the next gather: one stratum's block alive at a time
    return prob


# ---------------------------------------------------------------------------
# Logistic quasi-ML: one batched Newton core for every (cell, tau) problem
# ---------------------------------------------------------------------------


def _batch_objective(t, Y, valid, n, ridge, theta):
    """Per-problem penalized mean negative log-likelihood, shape (C, T)."""
    # log(1 + e^t) - y t over each cell's valid rows, spelled out because
    # np.logaddexp costs several times as much.
    f = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))) - Y * t
    nll = (valid @ f)[:, 0] / n[:, None]
    return nll + 0.5 * ridge[:, None] * np.sum(theta * theta, axis=1)


def _newton_pass(H, Y, valid, n, ridge, active):
    """Damped Newton iteration on a block of padded cells.

    ``H`` is (C, N, p) with zero rows past each cell's ``n`` rows (``valid``
    masks them out of the objective), ``Y`` is (C, N, T) with tau along the
    columns, ``ridge`` is per cell and ``active`` (C, T) selects the problems
    to fit, for at most ``_MAX_NEWTON`` iterations.  A problem is frozen
    once its score is within tolerance (converged) or, without ridge, once a
    coefficient passes the separation cap (separated); an iteration works
    only on the tau columns that still have a live problem.  Steps solve
    each Hessian exactly; if some Hessian of the stack is singular, that
    iteration falls back to per-problem minimum norm least squares.  Backtracking halves a problem's step while
    its objective rises by more than 1e-14.  Returns theta (C, p, T) and the
    converged and separated masks.
    """
    C, _, p = H.shape
    T = Y.shape[2]
    active = active.copy()
    converged = np.zeros((C, T), dtype=bool)
    separated = np.zeros((C, T), dtype=bool)
    check_sep = (ridge == 0.0)[:, None]
    HT = H.transpose(0, 2, 1)
    theta = np.zeros((C, p, T))
    t = np.zeros(Y.shape)
    obj = _batch_objective(t, Y, valid, n, ridge, theta)
    eye = np.eye(p)
    for _ in range(_MAX_NEWTON):
        cols = np.flatnonzero(active.any(axis=0))
        if cols.size == 0:
            break
        if cols.size == T:
            cols = slice(None)  # every column live: views, no copies
        Yc, tc, th, oc = Y[:, :, cols], t[:, :, cols], theta[:, :, cols], obj[:, cols]
        prob = expit(tc)
        score = HT @ (Yc - prob) / n[:, None, None] - ridge[:, None, None] * th
        done = active[:, cols] & (np.max(np.abs(score), axis=1) <= _SCORE_TOL)
        converged[:, cols] |= done
        live = active[:, cols] & ~done
        active[:, cols] = live
        if not live.any():
            break
        # Hessians as a (C, T', p, p) stack, one product per cell; only live
        # problems take a step.
        w = (prob * (1.0 - prob)).transpose(0, 2, 1)
        k = w.shape[1]
        hess = ((HT[:, None] * w[:, :, None, :]).reshape(C, k * p, -1) @ H).reshape(C, k, p, p)
        hess = hess / n[:, None, None, None] + ridge[:, None, None, None] * eye
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
        t_cand = H @ cand
        obj_cand = _batch_objective(t_cand, Yc, valid, n, ridge, cand)
        halve = live & (obj_cand > oc + 1e-14)
        while halve.any():
            eta[halve] *= 0.5
            cand = np.where(halve[:, None], th + eta[:, None] * step, cand)
            t_cand = np.where(halve[:, None], H @ cand, t_cand)
            obj_new = _batch_objective(t_cand, Yc, valid, n, ridge, cand)
            obj_cand = np.where(halve, obj_new, obj_cand)
            halve &= (obj_cand > oc + 1e-14) & (eta > 1e-10)
        th = np.where(live[:, None], cand, th)
        theta[:, :, cols] = th
        t[:, :, cols] = np.where(live[:, None], t_cand, tc)
        obj[:, cols] = np.where(live, obj_cand, oc)
        sep = live & check_sep & (np.max(np.abs(th), axis=1) > _SEPARATION_CAP)
        separated[:, cols] |= sep
        active[:, cols] = live & ~sep
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


def _fit_logit_cells(cells, labels):
    """Logistic quasi-ML for every (cell, tau) problem, in padded batches.

    ``cells[c]`` is ``(H, rows)``, the cell's rows of its own feature matrix,
    so cells of several datasets share a solve unstacked.  ``labels[c]`` holds its (n_c, T) 0/1 labels, one column per tau.
    The first pass has no ridge; problems that separate in it are refitted
    from zero with ridge ``1e-4 / n_c`` in a second batched pass.  Returns
    theta (C, T, p) and the converged and separated masks (C, T).
    """
    C = len(cells)
    p = cells[0][0].shape[1]
    T = labels[0].shape[1]
    sizes = [rows.size for _, rows in cells]
    theta = np.zeros((C, T, p))
    converged = np.zeros((C, T), dtype=bool)
    separated = np.zeros((C, T), dtype=bool)
    for chunk in _chunks(sizes, p * T):
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
    return theta, converged, separated


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def _cells(dataset: Dataset, taus: tuple, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero coefficients and an all-degraded mask for every (arm, stratum, tau) cell."""
    shape = (2, dataset.n_strata, len(taus))
    return np.zeros(shape + (p,)), np.zeros(shape, dtype=bool)


def _cell_problems(dataset: Dataset, pilot, taus: tuple, min_rows: int) -> tuple:
    """The (arm, stratum) cells with at least ``min_rows`` rows, and the others.

    Cells run stratum-major, treated arm first.  The first result yields each
    fitted cell as ``(a, s, rows, labels)``, with its (n_c, T) labels
    1{y <= q_a(tau)}, the one target every method fits, built only as the
    cell is reached; the second lists the other cells as ``(a, s)``.  A
    per-tau fit reads the rows of ``labels.T.copy()``: on a strided column,
    a matrix product can sum in another order.
    """
    cutoffs = [np.array([pilot.q(a, tau) for tau in taus]) for a in (0, 1)]
    cells = [(a, s, np.flatnonzero((dataset.s == s) & (dataset.a == a)))
             for s in range(dataset.n_strata) for a in (1, 0)]
    fitted = ((a, s, rows, (dataset.y[rows][:, None] <= cutoffs[a]).astype(np.float64))
              for a, s, rows in cells if rows.size >= min_rows)
    return fitted, [(a, s) for a, s, rows in cells if rows.size < min_rows]


def _model(method, taus, coef, live, prob, degraded, support=None, unfit=(), **diagnostics):
    """The fitted :class:`AdjustmentModel`, with ``degraded`` under its diagnostics.

    ``unfit`` lists the cells of ``degraded`` in a stratum whose base fit is
    not live on both arms; the others are too small.  Warns with both counts
    when a cell adjusts by zero, and raises when no cell is live.
    """
    if degraded:
        why = f"{len(degraded) - len(unfit)} cell(s) too small"
        if unfit:
            why += f" and {len(unfit)} in a stratum without a live {LOGIT_BASE[method]} fit"
        warnings.warn(f"{method}: {why}, degraded to zero adjustment", stacklevel=3)
        if not live.any():
            raise DataValidationError(f"{method}: no cell is live: {why}" if unfit
                                      else f"{method}: every (arm, stratum) cell is too small")
    return AdjustmentModel(method, taus, coef, live, prob, support,
                           {"degraded": tuple(degraded), **diagnostics})


# ---------------------------------------------------------------------------
# Fitters
# ---------------------------------------------------------------------------


def fit_none(grid: QuantileGrid) -> AdjustmentModel:
    """The no-adjustment model: evaluates to zero everywhere."""
    taus = tuple(grid)
    coef, live = np.zeros((2, 0, len(taus), 0)), np.zeros((2, 0, len(taus)), dtype=bool)
    return _model("na", taus, coef, live, None, [])


def fit_lp(dataset: Dataset, pilot, grid: QuantileGrid) -> AdjustmentModel:
    """Within-cell least squares of the outcome indicator on demeaned regressors."""
    H = _features("lp", dataset.x)
    p = H.shape[1]
    taus = tuple(grid)
    coef, live = _cells(dataset, taus, p)
    fitted, degraded = _cell_problems(dataset, pilot, taus, p + 2)
    singular: list = []
    for a, s, rows, labels in fitted:
        live[a, s] = True
        Hc = H[rows]
        wdot = Hc - Hc.mean(axis=0)
        for ti, y_t in enumerate(labels.T.copy()):  # one contiguous vector per tau
            coef[a, s, ti], _, rank, _ = np.linalg.lstsq(wdot, y_t, rcond=None)
            if rank < p:
                singular.append((a, s, ti))
    if singular:
        warnings.warn(
            f"lp: singular within-cell Gram in {len(singular)} cell(s); "
            "minimum-norm solution used",
            stacklevel=2,
        )
    prob = _fitted_prob(dataset, taus, live, H, coef)
    return _model("lp", taus, coef, live, prob, degraded, singular_gram=tuple(singular))


def fit_ml(items, grid: QuantileGrid, method: str = "ml") -> list:
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
        H = _features(method, dataset.x)
        fitted, degraded = _cell_problems(dataset, pilot, taus, H.shape[1] + 2)
        fitted = list(fitted)
        cells += [(H, rows) for _, _, rows, _ in fitted]
        labels += [cell_labels for *_, cell_labels in fitted]
        fitted = [(a, s) for a, s, *_ in fitted]  # no reference to the labels kept
        prepared.append((H, fitted, degraded))
    fits = iter(())  # (theta, separated) of each fitted cell, in item order
    if cells:
        theta, _, sep = _fit_logit_cells(cells, labels)
        fits = zip(theta, sep)
    del cells, labels  # freed before ``prob`` is allocated, so they add nothing to the peak
    out: list = []
    for (dataset, _), (H, fitted, degraded) in zip(items, prepared):
        coef, live = _cells(dataset, taus, H.shape[1])
        separated: list = []
        for a, s in fitted:
            coef[a, s], sep_c = next(fits)
            live[a, s] = True
            separated += [(a, s, ti) for ti in range(len(taus)) if sep_c[ti]]
        prob = _fitted_prob(dataset, taus, live, H, coef, expit)
        try:
            out.append(_model(method, taus, coef, live, prob, degraded,
                              separated=tuple(separated)))
        except CarqteError as exc:
            out.append(exc)
    return out


def fit_lpml(
    dataset: Dataset,
    pilot,
    grid: QuantileGrid,
    ml_model: AdjustmentModel | None = None,
    method: str = "lpml",
) -> AdjustmentModel:
    """Optimal linear recombination of the two logistic probability columns.

    The columns are the ``prob`` of the logistic model named by
    ``LOGIT_BASE[method]``, fitted here unless ``ml_model`` hands it over.
    Per cell, the pair (treated-model probability, control-model probability)
    is demeaned, scaled by its cell standard deviation, and regressed on the
    indicator label with a ridge of 1/n on the 2x2 system; a column of zero
    cell sd gets a zero coefficient.
    """
    taus = tuple(grid)
    base = LOGIT_BASE[method]
    if dataset.x.shape[1] < 1:
        raise DataValidationError(f"{method} needs at least one covariate")
    if ml_model is None:
        ml_model = fit_adjustment(base, dataset, pilot, grid)
    elif ml_model.method != base:
        raise DataValidationError(f"{method} recombines an {base} fit, not {ml_model.method}")
    elif ml_model.taus != taus or ml_model.prob.shape[1] != dataset.n \
            or ml_model.live.shape[1] != dataset.n_strata:
        raise DataValidationError("ml_model was fitted on other data or another grid")
    ml_prob = ml_model.prob
    delta = 1.0 / dataset.n
    coef, live = _cells(dataset, taus, 2)
    prob = np.empty(ml_prob.shape)
    prob[:] = np.asarray(taus)
    # Two coefficients plus the usual slack; a cell also adjusts by zero when
    # its stratum's base fit is not live on both arms.
    fitted, degraded = _cell_problems(dataset, pilot, taus, 4)
    unfit: list = []
    zero_var: list = []
    for a, s, rows, labels in fitted:
        if not ml_model.live[:, s].all():
            unfit.append((a, s))
            continue
        live[a, s] = True
        stratum = np.flatnonzero(dataset.s == s)
        in_cell = dataset.a[stratum] == a
        nc = rows.size
        for ti, y_t in enumerate(labels.T.copy()):  # one contiguous vector per tau
            w = np.column_stack([ml_prob[1, stratum, ti], ml_prob[0, stratum, ti]])
            cell = w[in_cell]
            mean = cell.mean(axis=0)
            sd = cell.std(axis=0)
            ok = sd > _ZERO_SD
            if not ok.all():
                zero_var.append((a, s, ti))
            wd = np.where(ok, (w - mean) / np.where(ok, sd, 1.0), 0.0)
            wd_cell = wd[in_cell]
            gram = wd_cell.T @ wd_cell / nc + delta * np.eye(2)
            theta = np.linalg.solve(gram, wd_cell.T @ y_t / nc)
            theta[~ok] = 0.0
            coef[a, s, ti] = theta
            prob[a, stratum, ti] = wd @ theta
    degraded = sorted(degraded + unfit, key=lambda cell: (cell[1], -cell[0]))  # cell order
    return _model(method, taus, coef, live, prob, degraded, unfit=unfit,
                  zero_variance=tuple(zero_var))


# ---------------------------------------------------------------------------
# L1-penalized logistic with iterated loadings, plus post-selection refit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoConfig:
    """Tuning constants for the penalized logistic fit.

    ``forced_support`` columns are always included in the post-selection
    refit; the default is the first covariate column of (1, x), and a column
    past the dictionary is dropped.  The intercept column is never penalized.
    """

    c: float = 1.1
    loading_iterations: int = 2
    forced_support: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c > 0.0) or self.loading_iterations < 1:
            raise DataValidationError("lasso config needs a finite c > 0 and K >= 1")


def penalty_level(n_cell: int, p_penalized: int, config: LassoConfig) -> float:
    """Cell-level penalty c * sqrt(n) * Phi^-1(1 - 1/(p log n)), its tail capped at 1/2."""
    logn = max(np.log(n_cell), 1.0)
    tail = min(1.0 / (p_penalized * logn), 0.5)
    return config.c * np.sqrt(n_cell) * ndtri(1.0 - tail)


def _l1_kkt_residual(H, y, theta, lam):
    """Max violation of the subgradient optimality conditions."""
    n = H.shape[0]
    g = H.T @ (expit(H @ theta) - y) / n
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


def _l1_logit_cd(H, y, lam, theta0=None):
    """Coordinate descent on iteratively reweighted quadratic majorizations.

    ``lam`` is the per-column penalty level on the mean negative
    log-likelihood scale; zero entries are unpenalized.
    """
    n, p = H.shape
    theta = np.zeros(p) if theta0 is None else theta0.copy()
    col_sq = H**2
    for _ in range(_MAX_OUTER):
        t = H @ theta
        prob = expit(t)
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
        if kkt <= _KKT_TOL:
            return theta, kkt, True
    return theta, _l1_kkt_residual(H, y, theta, lam), False


def fit_hd_lasso(
    dataset: Dataset,
    pilot,
    grid: QuantileGrid,
    config: LassoConfig | None = None,
) -> AdjustmentModel:
    """Penalized logistic per cell on the dictionary [1 | x], then an
    unpenalized refit on the support.

    Penalty loadings start from the second moments of the centered indicator
    label times each squared column and are refreshed from fitted residuals
    over ``config.loading_iterations`` rounds.  The selected support, joined
    with any forced columns and the intercept (column 0, never penalized), is
    refitted without penalty; evaluation uses the refitted coefficients.
    """
    cfg = config if config is not None else LassoConfig()
    H = _features("lasso", dataset.x)
    p = H.shape[1]
    pen_cols = np.arange(1, p)
    forced = tuple(j for j in cfg.forced_support if 0 <= j < p)
    taus = tuple(grid)
    coef, live = _cells(dataset, taus, p)
    fitted, degraded = _cell_problems(dataset, pilot, taus, 3)
    support: dict = {}
    kkt_diag: dict = {}
    hd_theta: dict = {}
    hd_lam: dict = {}
    not_converged: list = []
    separated: list = []
    short_refits = 0  # refits that stopped short of the score tolerance
    for a, s, rows, labels in fitted:
        live[a, s] = True
        Hc = H[rows]
        nc = rows.size
        rho = penalty_level(nc, pen_cols.size, cfg)
        for ti, y_t in enumerate(labels.T.copy()):  # one contiguous vector per tau
            ybar = y_t.mean()
            # Initial loadings: centered-label second moments (no square root).
            sig = ((y_t - ybar) ** 2)[:, None] * (Hc**2)
            loadings = sig.mean(axis=0)
            theta = None
            for _k in range(cfg.loading_iterations + 1):
                lam = np.zeros(p)
                lam[pen_cols] = rho * loadings[pen_cols] / nc
                lam = np.maximum(lam, 0.0)
                theta, kkt, ok = _l1_logit_cd(Hc, y_t, lam, theta0=theta)
                if not ok:
                    not_converged.append((a, s, ti, kkt))
                resid = y_t - expit(Hc @ theta)
                new_loadings = np.sqrt(((Hc * resid[:, None]) ** 2).mean(axis=0))
                rel = np.max(
                    np.abs(new_loadings - loadings) / np.maximum(np.abs(loadings), 1e-12)
                )
                loadings = new_loadings
                if rel < _LOADING_TOL:
                    break
            kkt_diag[(a, s, ti)] = kkt
            hd_theta[(a, s, ti)] = theta.copy()
            hd_lam[(a, s, ti)] = lam.copy()
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
            if sep[0, 0]:
                separated.append((a, s, ti))
            short_refits += not conv[0, 0]
    if short_refits:
        warnings.warn(
            f"lasso: post-selection refit did not reach score tolerance in {short_refits} fit(s)",
            stacklevel=2,
        )
    if not_converged:
        worst = max(item[3] for item in not_converged)
        warnings.warn(
            f"lasso: inner solver hit iteration cap in {len(not_converged)} fit(s); "
            f"worst KKT residual {worst:.3e}",
            stacklevel=2,
        )
    prob = _fitted_prob(dataset, taus, live, H, coef, expit)
    return _model("lasso", taus, coef, live, prob, degraded, support,
                  separated=tuple(separated), kkt=kkt_diag, hd_theta=hd_theta, hd_lam=hd_lam)


# ---------------------------------------------------------------------------
# Method dispatch
# ---------------------------------------------------------------------------


def fit_adjustment(
    method: str,
    dataset: Dataset,
    pilot,
    grid: QuantileGrid,
    lasso_config: LassoConfig | None = None,
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
        return fit_none(grid)
    if method == "lp":
        return fit_lp(dataset, pilot, grid)
    if method in LOGIT_METHODS:
        (model,) = fit_ml([(dataset, pilot)], grid, method=method)
        if isinstance(model, CarqteError):
            raise model
        return model
    if method in LOGIT_BASE:
        return fit_lpml(dataset, pilot, grid, ml_model, method)
    if method == "lasso":
        return fit_hd_lasso(dataset, pilot, grid, config=lasso_config)
    raise DataValidationError(f"unknown adjustment method {method!r}")
