"""Shared dataset helpers and the brute-force oracles used across tests."""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.special import expit

from carqte import Dataset, DataValidationError, DegenerateCellError
from carqte.adjust import _SCORE_TOL, _SEPARATION_CAP, _ZERO_SD, _fit_logit_cells
from carqte.data import _per_stratum
from carqte.estimator import _Solver


def make_stratified_dataset(rng, n=40, k=2, d=1, y=None):
    """Random dataset guaranteeing every (arm, stratum) cell is populated."""
    if n < 3 * k:
        raise ValueError("need n >= 3k to populate every cell")
    s = np.concatenate([np.repeat(np.arange(k), 2), rng.integers(0, k, n - 2 * k)])
    a = np.concatenate([np.tile([0, 1], k), rng.integers(0, 2, n - 2 * k)])
    perm = rng.permutation(n)
    s, a = s[perm], a[perm]
    if y is None:
        y = rng.normal(0.0, 2.0, n)
    x = rng.normal(0.0, 1.0, (n, d)) if d else np.empty((n, 0))
    return Dataset.from_arrays(y, a, s, x)


def brute_force_arm(arm, ds, xi, pis, mhat, tau):
    """Smallest minimizer of the objective over observed arm outcomes.

    Evaluates the full objective at every candidate via broadcasting; ties
    resolve to the smallest candidate because ``np.unique`` sorts.
    """
    cands = np.unique(ds.y[ds.a == arm])
    pi_full = pis[ds.s]
    af = ds.a.astype(float)
    u = ds.y[None, :] - cands[:, None]
    rho = u * (tau - (u <= 0.0))
    if arm == 1:
        main = rho @ (xi * af / pi_full)
        slope = float(np.sum(xi * (af - pi_full) / pi_full * mhat))
    else:
        main = rho @ (xi * (1.0 - af) / (1.0 - pi_full))
        slope = -float(np.sum(xi * (af - pi_full) / (1.0 - pi_full) * mhat))
    vals = main + slope * cands
    return float(cands[int(np.flatnonzero(vals <= vals.min())[0])])


def searchsorted_arm(arm, ds, xi, pis, mhat, tau):
    """One arm problem by a per-vector sorted sweep: the reference for one
    row of the block solve.

    Sorts the arm's outcomes, takes the cumulative inverse-propensity mass
    at the last unit of each distinct value, and ``np.searchsorted`` (left)
    finds the first value whose mass reaches the adjusted target.
    """
    rows = arm_sorted_rows(ds, arm)
    pi_full = pis[ds.s]
    prop = pi_full if arm == 1 else 1.0 - pi_full
    cum = np.cumsum(xi[rows] / prop[rows])
    ys = ds.y[rows]
    last = np.append(np.flatnonzero(np.diff(ys) != 0.0), ys.size - 1)
    slope = (xi * (ds.a - pi_full) / prop) @ np.asarray(mhat, float)
    target = tau * cum[-1] - slope if arm == 1 else tau * cum[-1] + slope
    k = int(np.searchsorted(cum[last], target, side="left"))
    return float(ys[last][min(k, last.size - 1)])


def arm_sorted_rows(ds, arm):
    """Rows of one arm, stably sorted by outcome: one half of the solver's
    column layout [treated sorted by y | control sorted by y]."""
    rows = np.flatnonzero(ds.a == arm)
    return rows[np.argsort(ds.y[rows], kind="stable")]


def weighted_arm_counts(ds, w):
    """Weighted (treated, total) mass per stratum of one weight vector.

    The per-vector reference for the bootstrap's block ``bincount``, which
    sums each arm's weights in outcome order and takes the total as treated
    plus control mass: at unit weights it gives the arm counts, so
    ``n1w / nw`` is ``StrataStats.pi_hat``.
    """
    w = np.asarray(w, dtype=np.float64)
    n1w, n0w = (
        np.bincount(ds.s[rows], weights=w[rows], minlength=ds.n_strata)
        for rows in (arm_sorted_rows(ds, 1), arm_sorted_rows(ds, 0))
    )
    return n1w, n1w + n0w


def pi_by_stratum(ds, xi, fixed_pi=None):
    """Per-stratum treated fractions the solver is handed for weights ``xi``.

    ``fixed_pi`` when given; otherwise the weighted fractions ``n1w / nw``,
    raising :class:`DegenerateCellError` when one of them is 0 or 1.
    """
    if fixed_pi is not None:
        return _per_stratum(fixed_pi, ds.n_strata, "fixed pi")
    n1w, nw = weighted_arm_counts(ds, xi)
    bad = [ds.strata_labels[i] for i in np.flatnonzero((nw <= 0.0) | (n1w <= 0.0) | (n1w >= nw))]
    if bad:
        raise DegenerateCellError(bad, f"weighted treated fraction is degenerate in strata {bad}")
    return n1w / nw


def solve_arm(ds, arm, tau, xi, mhat, fixed_pi=None):
    """One arm problem through the solver core, as row 0 of a 3-row block.

    The block stacks ``xi`` with unit weights and with ``xi`` reversed, so
    every call runs the batched solve with b > 1 (with fixed pi, every row
    shares one 1 x S row of treated fractions, as in the bootstrap).  Each
    row is checked against the brute-force argmin and against
    :func:`searchsorted_arm` before row 0 is returned.
    """
    xi = np.asarray(xi, float)
    block = np.stack([xi, np.ones(ds.n), xi[::-1]])
    if fixed_pi is not None:
        pis = pi_by_stratum(ds, xi, fixed_pi)[None]
    else:
        pis = np.stack([pi_by_stratum(ds, w) for w in block])
    m = np.asarray(mhat, float)[:, None]
    solver = _Solver(ds, np.array([tau]), {arm: [m], 1 - arm: [np.zeros_like(m)]})
    q1, q0 = solver.solve(block[:, solver._perm], pis)
    got = (q1 if arm == 1 else q0)[:, 0]
    for w, p, g in zip(block, np.broadcast_to(pis, (3, ds.n_strata)), got):
        assert g == brute_force_arm(arm, ds, w, p, mhat, tau)
        assert g == searchsorted_arm(arm, ds, w, p, mhat, tau)
    return float(got[0])


def check_sandwich(ds, arm, tau, xi, mhat, solution, tol=1e-10):
    """Verify the subgradient inequalities at a proposed arm solution.

    Uses the grouped convention: the slack on the lower inequality is the
    total weight of all arm units tied at the solution value, which reduces
    to the single unit's weight when outcomes are distinct.  Targets outside
    the attainable mass range certify the endpoint candidates instead.
    """
    pis = estimated_pis(ds, xi)
    pi_full = pis[ds.s]
    af = ds.a.astype(float)
    prop = pi_full if arm == 1 else 1.0 - pi_full
    in_arm = ds.a == arm
    cands = np.unique(ds.y[in_arm])
    mass_upto = np.array([np.sum((xi / prop)[in_arm & (ds.y <= c)]) for c in cands])
    total = mass_upto[-1]
    residual = float(np.sum(xi * (af - pi_full) / prop * mhat))
    t = tau * total + (-residual if arm == 1 else residual)
    where = np.flatnonzero(cands == solution)
    if where.size != 1:
        return False
    k = int(where[0])
    below = mass_upto[k - 1] if k > 0 else 0.0
    at = mass_upto[k]
    scale = max(abs(t), abs(total), 1.0)
    if t > at + tol * scale:
        return k == cands.size - 1  # target above attainable mass
    if t < below - tol * scale:
        return k == 0  # target below attainable mass
    return True


def estimated_pis(ds, xi):
    n1w, nw = weighted_arm_counts(ds, xi)
    return n1w / nw


def solve_both_ways(ds, xi, mhat, tau, arm):
    """(solver output, brute-force output) for one arm problem."""
    got = solve_arm(ds, arm, tau, xi, mhat)
    want = brute_force_arm(arm, ds, xi, estimated_pis(ds, xi), mhat, tau)
    return got, want


class TableModel:
    """Duck-typed adjustment model backed by explicit per-unit values.

    ``values[(arm, tau)]`` is an n-vector; used to exercise the estimator
    with arbitrary adjustments and per-(arm, stratum) shifts.
    """

    def __init__(self, values):
        self.values = {(a, float(t)): np.asarray(v, float) for (a, t), v in values.items()}

    def evaluate_all(self, grid, dataset):
        return tuple(
            np.column_stack([self.values[(arm, float(t))] for t in grid]) for arm in (0, 1)
        )

    def shifted(self, dataset, shifts):
        """New model with per-(arm, stratum) constants added."""
        out = {}
        for (a, t), v in self.values.items():
            c = np.array([shifts[(a, int(s))] for s in dataset.s])
            out[(a, t)] = v + c
        return TableModel(out)


def features_reference(method, x):
    """Each method's regressors built entry by entry from its term roster:
    the reference for ``adjust._features``.

    The roster is ``("const",)`` (absent for ``lp``), ``("x", j)`` for every
    covariate, then for ``mlx``/``lpmlx``/``np`` ``("prod", i, j)`` for every
    pair i < j, and for ``np`` also ``("thrprod", i, j)``, the product of
    x_i and x_j each zeroed unless strictly above its column median.
    """
    n, d = x.shape
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    terms = [] if method == "lp" else [("const",)]
    terms += [("x", j) for j in range(d)]
    if method in ("mlx", "lpmlx", "np"):
        terms += [("prod", i, j) for i, j in pairs]
    if method == "np":
        terms += [("thrprod", i, j) for i, j in pairs]
    medians = [np.median(x[:, j]) for j in range(d)]
    H = np.zeros((n, len(terms)))
    for r in range(n):
        for c, term in enumerate(terms):
            if term[0] == "const":
                H[r, c] = 1.0
            elif term[0] == "x":
                H[r, c] = x[r, term[1]]
            elif term[0] == "prod":
                H[r, c] = x[r, term[1]] * x[r, term[2]]
            else:
                i, j = term[1:]
                if x[r, i] > medians[i] and x[r, j] > medians[j]:
                    H[r, c] = x[r, i] * x[r, j]
    return H


def evaluate_reference(model, arm, grid, ds, H=None, ml_model=None):
    """One arm's adjustment matrix, cell by cell, recomputed from the
    coefficients: the reference for ``AdjustmentModel.evaluate_all``.

    The per-cell evaluation of earlier releases: the coefficients are copied
    into ``(arm, stratum, tau index)`` dicts, with None for a degraded cell,
    ``H`` is the model's regressor matrix, and each (stratum, tau) cell
    dispatches on the method name.  lpml recomputes both probability
    columns on the stratum's rows from the coefficients of ``ml_model``, and
    their cell means and sds from the cell's rows of those columns.
    """
    out = np.zeros((ds.n, len(grid)))
    if model.method == "na":
        return out
    coef = {
        key: model.coef[key].copy() if model.live[key] else None
        for key in np.ndindex(model.live.shape)
    }
    for s in range(ds.n_strata):
        rows = np.flatnonzero(ds.s == s)
        H_s = H[rows]
        for j, tau in enumerate(grid):
            ti = model.taus.index(float(tau))
            theta = coef[(arm, s, ti)]
            if theta is None:
                continue
            if model.method == "lp":
                out[rows, j] = tau - H_s @ theta
            elif model.method in ("ml", "mlx", "np", "lasso"):
                out[rows, j] = tau - expit(H_s @ theta)
            else:
                th1, th0 = ml_model.coef[1, s, ti].copy(), ml_model.coef[0, s, ti].copy()
                w = np.column_stack([expit(H_s @ th1), expit(H_s @ th0)])
                cell = w[ds.a[rows] == arm]
                mean, sd = cell.mean(axis=0), cell.std(axis=0)
                ok = sd > _ZERO_SD
                wd = np.where(ok, (w - mean) / np.where(ok, sd, 1.0), 0.0)
                out[rows, j] = tau - wd @ theta
    return out


def logit_newton(H, y, ridge=0.0, max_iter=200):
    """One logistic problem by damped Newton: the per-problem reference.

    Same rule as the batched core in ``carqte.adjust``: stop once the score
    is within ``_SCORE_TOL``; take the minimum-norm least-squares Newton
    step; halve it while the objective rises by more than 1e-14 (down to a
    step factor of 1e-10); without ridge, stop as separated once a
    coefficient passes ``_SEPARATION_CAP``.  Returns (theta, converged,
    separated).
    """
    n, p = H.shape

    def objective(theta):
        t = H @ theta
        nll = np.mean(np.logaddexp(0.0, t) - y * t)
        if ridge > 0.0:
            nll += 0.5 * ridge * float(theta @ theta)
        return nll

    theta = np.zeros(p)
    for _ in range(max_iter):
        prob = expit(H @ theta)
        score = H.T @ (y - prob) / n - ridge * theta
        if np.max(np.abs(score)) <= _SCORE_TOL:
            return theta, True, False
        w = prob * (1.0 - prob)
        hess = (H * w[:, None]).T @ H / n + ridge * np.eye(p)
        step = np.linalg.lstsq(hess, score, rcond=None)[0]
        obj = objective(theta)
        eta = 1.0
        cand = theta + step
        while objective(cand) > obj + 1e-14 and eta > 1e-10:
            eta *= 0.5
            cand = theta + eta * step
        theta = cand
        if ridge == 0.0 and np.max(np.abs(theta)) > _SEPARATION_CAP:
            return theta, False, True
    return theta, False, False


def fit_logit_cell(H, y):
    """(theta, converged, separated) of one cell: a one-problem call of the
    batched logistic core."""
    theta, converged, separated = _fit_logit_cells([(H, np.arange(H.shape[0]))], [y[:, None]])
    return theta[0, 0], bool(converged[0, 0]), bool(separated[0, 0])


def logit_fit_reference(H, y):
    """(theta, converged, separated) of one cell, with the small-ridge refit."""
    theta, converged, separated = logit_newton(H, y)
    if separated:
        theta, converged, _ = logit_newton(H, y, 1e-4 / H.shape[0])
    return theta, converged, separated


def load_csv_reference(path):
    """The row-by-row CSV loader: the reference for ``carqte.load_csv``.

    Reads each record with ``csv``, converts ``y`` and the covariates with
    ``float()`` and stops at the first bad line, naming it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in ("y", "a", "s"):
            if col not in header:
                raise DataValidationError(f"{path}: missing required column '{col}'")
        pos = {name: i for i, name in enumerate(header)}
        if len(pos) != len(header):
            raise DataValidationError(f"{path}: duplicate column names")
        x_cols = [h for h in header if h not in ("y", "a", "s")]

        ys, as_, ss, xs = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataValidationError(f"{path}:{lineno}: wrong number of fields")
            try:
                yv = float(row[pos["y"]])
            except ValueError:
                raise DataValidationError(f"{path}:{lineno}: column 'y' is not a float") from None
            av_raw = row[pos["a"]].strip()
            if av_raw not in ("0", "1"):
                raise DataValidationError(f"{path}:{lineno}: column 'a' must be 0 or 1")
            sv = row[pos["s"]].strip()
            if sv == "":
                raise DataValidationError(f"{path}:{lineno}: column 's' is empty")
            xrow = []
            for c in x_cols:
                cell = row[pos[c]].strip()
                if cell == "":
                    raise DataValidationError(f"{path}:{lineno}: missing value in column '{c}'")
                try:
                    xrow.append(float(cell))
                except ValueError:
                    raise DataValidationError(
                        f"{path}:{lineno}: column '{c}' is not a float"
                    ) from None
            ys.append(yv)
            as_.append(int(av_raw))
            ss.append(sv)
            xs.append(xrow)

    if not ys:
        raise DataValidationError(f"{path}: no data rows")
    x = np.asarray(xs, dtype=np.float64) if x_cols else np.empty((len(ys), 0))
    return Dataset.from_arrays(np.asarray(ys), np.asarray(as_), np.asarray(ss, dtype=object), x)


def parse_table(text):
    """Inverse of ``emit_table(..., 'csv')``: exact round trip of the records."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    int_cols = {"n", "B", "reps"}
    str_cols = {"dgp", "scheme", "method", "test"}
    out = []
    for row in reader:
        rec = {}
        for name, cell in zip(header, row):
            if name in str_cols:
                rec[name] = cell
            elif name in int_cols:
                rec[name] = int(cell)
            else:
                rec[name] = float(cell)
        out.append(rec)
    return out
