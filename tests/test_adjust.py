import ast
import dataclasses
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from conftest import evaluate_reference, features_reference, fit_logit_cell, logit_fit_reference
from scipy.special import expit, logit

from carqte import (
    METHODS,
    Dataset,
    DataValidationError,
    LassoConfig,
    NumericalError,
    QuantileGrid,
    fit_adjustment,
    fit_ml,
    pilot_quantiles,
)
from carqte import adjust
from carqte.adjust import (
    LOGIT_BASE,
    _features,
    _fit_hd_lasso,
    _fit_logit_cells,
    _fit_lp,
    _fit_lpml,
    _fit_none,
    _RowFeatures,
    _l1_kkt_residual,
    _penalty_level,
)
from carqte.dgp import DgpSpec, generate
from carqte.estimator import QteEstimate, _model_solver, qte
from carqte.randomization import SchemeSpec, assign


def _median_pilot(y, a):
    return QteEstimate(
        (0.5,), np.array([np.median(y[a == 1])]), np.array([np.median(y[a == 0])])
    )


def _two_strata_dataset(rng, n=80):
    s = np.tile([0, 1], n // 2)
    a = np.tile([0, 0, 1, 1], n // 4)
    x = rng.normal(0, 1, (n, 2))
    y = x[:, 0] + 0.5 * x[:, 1] + rng.normal(0, 1, n)
    return Dataset.from_arrays(y, a, s, x)


GRID = QuantileGrid.of([0.5])


# -- feature maps -----------------------------------------------------------


def test_raw_and_logistic_maps():
    x = np.array([[2.0, 3.0]])
    assert _features("lp", x, None).tolist() == [[2.0, 3.0]]
    for method in ("ml", "lpml", "lasso"):
        assert _features(method, x, None).tolist() == [[1.0, 2.0, 3.0]]
    for method in ("mlx", "lpmlx"):
        assert _features(method, x, None).tolist() == [[1.0, 2.0, 3.0, 6.0]]


def test_sieve_roster_five_terms_for_two_covariates():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 0.5]])
    H = _RowFeatures("np", x)[:]
    assert H.shape == (4, 5)
    assert np.array_equal(H[:, :4], _features("mlx", x, None))
    # The joint product thresholded at the medians 1.5 and 0.75: only the
    # third row has both coordinates strictly above them.
    assert H[:, 4].tolist() == [0.0, 0.0, 4.0, 0.0]
    assert np.array_equal(_features("np", x, np.array([1.5, 0.75])), H)


def _tied_covariates(d, n=41):
    """Integer-valued covariates, so that many entries equal their column
    median and the strict ``>`` of the threshold products is exercised; the
    columns are shifted apart, so that each has its own nonzero median."""
    x = np.random.default_rng(d).integers(-3, 4, (n, d)) + 2.0 * np.arange(1, d + 1)
    medians = np.median(x, axis=0)
    assert np.all((x == medians).sum(axis=0) > 1) and np.unique(medians).size == d
    return x


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("method", [m for m in METHODS if m != "na"])
def test_features_match_the_term_roster_reference(method, d):
    x = _tied_covariates(d)
    assert np.array_equal(_RowFeatures(method, x)[:], features_reference(method, x))


@pytest.mark.parametrize("method", ["lp", "ml", "mlx", "np", "lasso"])
def test_a_cells_features_are_the_rows_of_the_datasets_features(method):
    x = _tied_covariates(3, n=61)
    H = _RowFeatures(method, x)
    whole = H[:]
    assert H.shape == whole.shape
    # A cell above the first covariate's median: its own medians differ.
    cell = np.flatnonzero(x[:, 0] > np.median(x[:, 0]))
    for rows in (cell, np.arange(x.shape[0]), np.array([7]), cell[:0]):
        got, want = H[rows], whole[rows]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if method == "np":  # the sieve thresholds at the dataset's medians, not the cell's
        assert not np.array_equal(_RowFeatures("np", x[cell])[:], whole[cell])


# -- logistic cell ----------------------------------------------------------


def test_intercept_only_half_labels_zero():
    th, _, _ = fit_logit_cell(np.ones((8, 1)), np.array([1, 1, 1, 1, 0, 0, 0, 0.0]))
    assert abs(th[0]) < 1e-9


def test_intercept_only_quarter_labels():
    th, _, _ = fit_logit_cell(np.ones((8, 1)), np.array([1, 0, 0, 0, 1, 0, 0, 0.0]))
    assert th[0] == pytest.approx(np.log(1 / 3), abs=1e-8)


def test_separated_cell_takes_ridge_path():
    H = np.column_stack([np.ones(2), [0.0, 1.0]])
    th, converged, separated = fit_logit_cell(H, np.array([0.0, 1.0]))
    assert separated and converged
    assert np.all(np.isfinite(th))
    p = expit(H @ th)
    assert np.all((p > 0.0) & (p < 1.0))


def test_constant_labels_yield_interior_probabilities():
    H = np.column_stack([np.ones(6), np.arange(6.0)])
    th, _, _ = fit_logit_cell(H, np.ones(6))
    p = expit(H @ th)
    assert np.all((p > 0.0) & (p < 1.0))


def test_score_tolerance_on_random_cells():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(30, 80))
        H = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 2))])
        y = (rng.uniform(size=n) < expit(H @ np.array([0.2, 0.8, -0.5]))).astype(float)
        th, _, _ = fit_logit_cell(H, y)
        score = H.T @ (y - expit(H @ th)) / n
        assert np.max(np.abs(score)) <= 1e-8


# -- batched logistic core --------------------------------------------------


def _mixed_logit_dataset(seed=0):
    """Three strata whose np-roster cells converge, separate, have a zero
    feature column (singular Hessian) or are too small to fit."""
    rng = np.random.default_rng(seed)
    parts = []

    def cell(s, a, x, y):
        parts.append((x, y, np.full(len(y), a), np.full(len(y), s)))

    for a in (0, 1):  # noisy outcomes: converged problems
        x = rng.normal(0, 1, (60, 2))
        cell(0, a, x, x @ [1.0, -0.5] + rng.normal(0, 1, 60))
    x = rng.normal(0, 1, (40, 2))  # outcome a function of x1: separated
    cell(1, 1, x, 3.0 * x[:, 0])
    # No row has both covariates above their medians, so the threshold
    # product column is zero in this cell.
    x = rng.normal(0, 1, (50, 2))
    x[::2, 0] = -2.0 - np.abs(x[::2, 0])
    x[1::2, 1] = -2.0 - np.abs(x[1::2, 1])
    cell(1, 0, x, x @ [1.0, 0.5] + rng.normal(0, 1, 50))
    x = rng.normal(0, 1, (4, 2))  # too small: degraded
    cell(2, 1, x, rng.normal(0, 1, 4))
    x = rng.normal(0, 1, (50, 2))
    cell(2, 0, x, x[:, 1] + rng.normal(0, 1, 50))
    x, y, a, s = (np.concatenate(c) for c in zip(*parts))
    return Dataset.from_arrays(y, a, s, x)


def _fit_ml(ds, pilot, grid, method="ml"):
    """``fit_ml`` on a one-item group; raises the item's failure."""
    (model,) = fit_ml([(ds, pilot)], grid, method)
    if isinstance(model, Exception):
        raise model
    return model


def _fit_quiet(fit, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit(*args, **kwargs)


def test_batched_logit_matches_per_problem_reference_on_mixed_batch():
    ds = _mixed_logit_dataset()
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    model = _fit_quiet(_fit_ml, ds, pilot, grid, method="np")
    H = features_reference("np", ds.x)
    zero_col = 4  # the threshold product of the two covariates
    assert model.diagnostics["degraded"] == ((1, 2),)
    separated = []
    for s in range(ds.n_strata):
        for a in (1, 0):
            rows = np.flatnonzero((ds.s == s) & (ds.a == a))
            if rows.size < H.shape[1] + 2:
                assert not model.live[a, s].any() and not model.coef[a, s].any()
                continue
            assert model.live[a, s].all()
            Hc = H[rows]
            for ti, tau in enumerate(grid):
                y = (ds.y[rows] <= pilot.q(a, tau)).astype(float)
                want, converged, sep = logit_fit_reference(Hc, y)
                assert converged
                if sep:
                    separated.append((a, s, ti))
                got = model.coef[a, s, ti]
                ridge = 1e-4 / rows.size if sep else 0.0
                score = Hc.T @ (y - expit(Hc @ got)) / rows.size - ridge * got
                assert np.max(np.abs(score)) <= 1e-8
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert model.diagnostics["separated"] == tuple(separated)
    assert any(key[:2] == (1, 1) for key in separated)
    # The singular cell: its zero column keeps a zero (minimum-norm) coefficient.
    singular = np.flatnonzero((ds.s == 1) & (ds.a == 0))
    assert not H[singular, zero_col].any()
    assert np.all(model.coef[0, 1, :, zero_col] == 0.0)


def test_fit_logit_cell_matches_per_problem_reference():
    rng = np.random.default_rng(9)
    for n, p in ((30, 2), (60, 4), (45, 6)):
        H = np.column_stack([np.ones(n), rng.normal(0, 1, (n, p - 1))])
        for y in ((rng.uniform(size=n) < expit(H[:, 1])).astype(float),
                  (H[:, 1] > 0.0).astype(float)):
            want, converged, separated = logit_fit_reference(H, y)
            got, got_converged, got_separated = fit_logit_cell(H, y)
            assert (got_converged, got_separated) == (converged, separated)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("method", ["ml", "np"])
def test_batched_logit_coefficients_do_not_depend_on_chunking(monkeypatch, method):
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(12))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(13))
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    for ds in (Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x),
               _mixed_logit_dataset()):
        pilot = pilot_quantiles(ds, grid)
        fits = []
        for budget in (1, 1 << 30):  # one cell per block; every cell in one block
            monkeypatch.setattr(adjust, "_BLOCK_FLOATS", budget)
            fits.append(_fit_quiet(fit_adjustment, method, ds, pilot, grid))
        small, large = fits
        assert small.diagnostics == large.diagnostics
        assert np.array_equal(small.live, large.live)
        for key in zip(*np.nonzero(large.live)):
            th = large.coef[key]
            assert np.max(np.abs(small.coef[key] - th)) <= 1e-12 * np.max(np.abs(th))
        assert not small.coef[~small.live].any() and not large.coef[~large.live].any()


@pytest.mark.parametrize("method", ["ml", "mlx", "np"])
def test_grouped_logit_fit_matches_each_items_solo_fit(method):
    # One solve over the cells of a dgp1 dataset and of the mixed dataset,
    # whose singular cell sends every Hessian of its stack to lstsq, plus an
    # item too small to fit, which fails alone.
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(12))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(13))
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    tiny = Dataset.from_arrays(
        np.arange(8.0), np.tile([0, 1], 4), np.zeros(8), np.random.default_rng(3).normal(0, 1, (8, 2))
    )
    items = []
    for ds in (Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x), tiny,
               _mixed_logit_dataset()):
        items.append((ds, pilot_quantiles(ds, grid)))
    grouped = _fit_quiet(fit_ml, items, grid, method=method)
    assert isinstance(grouped[1], DataValidationError)
    assert "every (arm, stratum) cell is too small" in str(grouped[1])
    for item, got in zip(items[::2], grouped[::2]):
        want = _fit_quiet(_fit_ml, *item, grid, method=method)
        assert got.method == method
        assert got.diagnostics == want.diagnostics
        assert np.array_equal(got.live, want.live)
        for key in zip(*np.nonzero(want.live)):
            th = want.coef[key]
            assert np.max(np.abs(got.coef[key] - th)) <= 1e-12 * np.max(np.abs(th))
        assert not got.coef[~got.live].any()
        assert np.all(np.abs(got.prob - want.prob) <= 1e-12 * np.abs(want.prob))


def _logit_cells():
    """The np-roster cells of the mixed dataset and of a dgp1 sample, as
    ``_fit_logit_cells`` takes them: converged, separated and singular
    problems of several sizes, each with three tau columns."""
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(12))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(13))
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    cells, labels = [], []
    for ds in (_mixed_logit_dataset(), Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)):
        H = _RowFeatures("np", ds.x)
        fitted, _ = adjust._cell_problems(ds, pilot_quantiles(ds, grid), tuple(grid), H.shape[1] + 2)
        for *_, rows, y in fitted:
            cells.append((H, rows))
            labels.append(y)
    return cells, labels


def _switching(fit, *args, **kwargs):
    """``fit`` with the interpreter switching threads every microsecond, so
    that the two lanes interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fit(*args, **kwargs)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("budget", [1, 2000])  # one cell per chunk; one or two
def test_two_lane_fit_equals_each_chunk_solved_alone(monkeypatch, budget):
    cells, labels = _logit_cells()
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", budget)
    p, T = cells[0][0].shape[1], labels[0].shape[1]
    chunks = list(adjust._chunks([rows.size for _, rows in cells], p * T))
    assert len(chunks) > 2 and any(len(chunk) > 1 for chunk in chunks) == (budget > 1)
    got = _switching(_fit_logit_cells, cells, labels)
    want = [_fit_logit_cells([cells[c] for c in chunk], [labels[c] for c in chunk])
            for chunk in chunks]
    for got_part, want_parts in zip(got, zip(*want), strict=True):
        assert np.array_equal(got_part, np.concatenate(want_parts))
    assert got[2].any() and got[1].all()  # some problem separated; every one converged


class _CountedFeatures:
    """A cell's feature rows, counting the requests; ``fail`` makes every
    request raise, like a chunk that fails."""

    def __init__(self, H, cell, requests, fail):
        self.H, self.shape, self.cell, self.requests, self.fail = H, H.shape, cell, requests, fail

    def __getitem__(self, rows):
        self.requests.append(self.cell)
        if self.fail:
            raise NumericalError(f"cell {self.cell}")
        return self.H[rows]


@pytest.mark.parametrize("fail", [None, 0, 1, -1])
def test_no_helper_thread_outlives_the_logit_fit(monkeypatch, fail):
    cells, labels = _logit_cells()
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)  # every cell a chunk of its own
    failing = None if fail is None else range(len(cells))[fail]
    requests: list = []
    cells = [(_CountedFeatures(H, c, requests, c == failing), rows)
             for c, (H, rows) in enumerate(cells)]
    before = threading.active_count()
    if fail is None:
        _switching(_fit_logit_cells, cells, labels)
        assert sorted(requests) == list(range(len(cells)))
    else:
        with pytest.raises(NumericalError, match=f"^cell {failing}$"):
            _switching(_fit_logit_cells, cells, labels)
    assert threading.active_count() == before
    if fail == 0:  # the other lane stops after the chunk it holds
        assert len(requests) < len(cells)


def test_a_one_chunk_fit_starts_no_thread(monkeypatch):
    started = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, *args):
            started.append(args)
            super().__init__(*args)

    monkeypatch.setattr(adjust, "ThreadPoolExecutor", Spy)
    cells, labels = _logit_cells()
    _fit_logit_cells(cells, labels)  # at the default budget, every cell is in one block
    assert started == []
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    _fit_logit_cells(cells, labels)
    assert started == [(1,)]


# -- the per-stratum passes on two lanes -------------------------------------


def _dgp1_sample(seed):
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(seed))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(100 + seed))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    return ds, pilot_quantiles(ds, grid), grid


def _stratum_tasks(ds, width):
    return list(adjust._chunks(ds.strata.n, width))


@pytest.mark.parametrize("method", ["lp", "ml", "mlx", "np", "lasso"])
def test_prob_pass_in_stratum_tasks_equals_one_task(monkeypatch, method):
    ds, pilot, grid = _dgp1_sample(3)
    model = _fit_quiet(fit_adjustment, method, ds, pilot, grid)
    H = _RowFeatures(method, ds.x)
    link = None if method == "lp" else adjust._expit
    width = H.shape[1] * len(grid)
    assert len(_stratum_tasks(ds, width)) == 1  # the model's own pass was one task
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    assert len(_stratum_tasks(ds, width)) == ds.n_strata > 2
    got = _switching(adjust._fitted_prob, ds, tuple(grid), model.live, H, model.coef, link)
    assert np.array_equal(got, model.prob)
    want = np.empty_like(got)  # one matrix-vector product per live (cell, tau)
    want[:] = np.asarray(tuple(grid))
    for a, s, ti in zip(*np.nonzero(model.live)):
        rows = np.flatnonzero(ds.s == s)
        fit = H[rows] @ model.coef[a, s, ti]
        want[a, rows, ti] = fit if link is None else link(fit)
    assert np.array_equal(got, want)


def _recombination_per_tau(ds, pilot, grid, ml):
    """The recombination's coef and prob, one (cell, tau) problem at a time
    on its own (n_s, 2) columns."""
    taus = tuple(grid)
    coef, prob = np.zeros(ml.live.shape + (2,)), np.empty(ml.prob.shape)
    prob[:] = np.asarray(taus)
    for a, s, rows, labels in adjust._cell_problems(ds, pilot, taus, 4)[0]:
        stratum = np.flatnonzero(ds.s == s)
        in_cell = ds.a[stratum] == a
        for ti, y_t in enumerate(labels.T.copy()):
            w = np.column_stack([ml.prob[1, stratum, ti], ml.prob[0, stratum, ti]])
            cell = w[in_cell]
            ok = cell.std(axis=0) > adjust._ZERO_SD
            wd = np.where(ok, (w - cell.mean(axis=0)) / np.where(ok, cell.std(axis=0), 1.0), 0.0)
            wd_cell = wd[in_cell]
            gram = wd_cell.T @ wd_cell / rows.size + np.eye(2) / ds.n
            theta = np.linalg.solve(gram, wd_cell.T @ y_t / rows.size)
            theta[~ok] = 0.0
            coef[a, s, ti] = theta
            prob[a, stratum, ti] = wd @ theta
    return coef, prob


@pytest.mark.parametrize("seed,method", [(2, "lpml"), (3, "lpmlx")])
def test_recombination_in_stratum_tasks_equals_the_per_tau_loop(monkeypatch, seed, method):
    ds, pilot, grid = _dgp1_sample(seed)
    base = _fit_quiet(fit_adjustment, LOGIT_BASE[method], ds, pilot, grid)
    assert base.live.all()
    coef, prob = _recombination_per_tau(ds, pilot, grid, base)
    one = _fit_quiet(fit_adjustment, method, ds, pilot, grid, ml_model=base)
    assert len(_stratum_tasks(ds, 2 * len(grid))) == 1
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    assert len(_stratum_tasks(ds, 2 * len(grid))) == ds.n_strata
    many = _switching(fit_adjustment, method, ds, pilot, grid, ml_model=base)
    assert one.diagnostics["zero_variance"] and many.diagnostics == one.diagnostics
    for model in (one, many):
        assert np.array_equal(model.coef, coef) and np.array_equal(model.prob, prob)


class _FailingStratum:
    """A model's feature rows whose request for stratum ``fail`` raises."""

    def __init__(self, H, s, fail):
        self.H, self.shape, self.s, self.fail = H, H.shape, s, fail

    def __getitem__(self, rows):
        if self.s[rows[0]] == self.fail:
            raise NumericalError(f"stratum {self.fail}")
        return self.H[rows]


class _FailingColumns(np.ndarray):
    """Probability columns whose gather for one stratum's rows raises."""

    def __getitem__(self, key):
        if isinstance(key, tuple) and np.array_equal(key[-1], getattr(self, "fail_rows", ())):
            raise NumericalError(f"stratum {self.fail}")
        return np.asarray(self)[key]


@pytest.mark.parametrize("method", ["mlx", "lpmlx"])
@pytest.mark.parametrize("fail", [None, 0, -1])
def test_no_helper_thread_outlives_a_stratum_pass(monkeypatch, method, fail):
    ds, pilot, grid = _dgp1_sample(3)
    base = _fit_quiet(fit_adjustment, "mlx", ds, pilot, grid)
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)  # every stratum a task of its own
    failing = None if fail is None else range(ds.n_strata)[fail]
    if method == "mlx":
        H = _FailingStratum(_RowFeatures("mlx", ds.x), ds.s, failing)
        call = (adjust._fitted_prob, ds, tuple(grid), base.live, H, base.coef, adjust._expit)
    else:
        prob = base.prob.view(_FailingColumns)
        prob.fail, prob.fail_rows = failing, np.flatnonzero(ds.s == failing)
        call = (_fit_lpml, ds, pilot, grid, dataclasses.replace(base, prob=prob), "lpmlx")
    before = threading.active_count()
    if fail is None:
        _switching(*call)
    else:
        with pytest.raises(NumericalError, match=f"^stratum {failing}$"):
            _switching(*call)
    assert threading.active_count() == before


def test_a_one_task_fit_starts_no_thread(monkeypatch):
    started = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, *args):
            started.append(args)
            super().__init__(*args)

    monkeypatch.setattr(adjust, "ThreadPoolExecutor", Spy)
    ds, pilot, grid = _dgp1_sample(3)
    for method in METHODS:
        _fit_quiet(fit_adjustment, method, ds, pilot, grid)
    assert started == []
    base = _fit_quiet(fit_adjustment, "ml", ds, pilot, grid)
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    _fit_quiet(fit_adjustment, "lpml", ds, pilot, grid, ml_model=base)
    assert started == [(1,)]


def test_zero_variance_lists_cells_in_order_across_stratum_tasks(monkeypatch):
    ds, pilot, grid = _dgp1_sample(5)
    ml = _fit_quiet(fit_adjustment, "ml", ds, pilot, grid)
    # The control column is constant up to rounding noise in strata 1 and 3.
    prob = ml.prob.copy()
    flat = np.isin(ds.s, [1, 3])
    prob[0, flat] = 0.5 + 1e-14 * np.random.default_rng(5).standard_normal(prob[0, flat].shape)
    ml = dataclasses.replace(ml, prob=prob)
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    model = _switching(_fit_lpml, ds, pilot, grid, ml_model=ml, method="lpml")
    want = [(a, s, ti) for s in (1, 3) for a in (1, 0) for ti in range(len(grid))]
    got = model.diagnostics["zero_variance"]
    assert [cell for cell in got if cell[1] in (1, 3)] == want
    assert list(got) == sorted(got, key=lambda cell: (cell[1], -cell[0], cell[2]))


@pytest.mark.parametrize("method, key", [
    ("lp", "singular_gram"), ("np", "separated"), ("lasso", "separated")])
def test_outcomes_list_cells_in_order_across_stratum_tasks(monkeypatch, method, key):
    # In strata 1 and 3 x2 copies x1 (every lp Gram there is singular) and
    # the outcome is x1 itself (logistic problems there separate).  The
    # np solve and every prob pass then run one cell or stratum per task.
    ds, _, grid = _dgp1_sample(5)
    y, x = ds.y.copy(), ds.x.copy()
    flat = np.isin(ds.s, [1, 3])
    x[flat, 1] = y[flat] = x[flat, 0]
    ds = Dataset.from_arrays(y, ds.a, ds.s, x)
    pilot = pilot_quantiles(ds, grid)
    one = _fit_quiet(fit_adjustment, method, ds, pilot, grid)
    monkeypatch.setattr(adjust, "_BLOCK_FLOATS", 1)
    got = _switching(_fit_quiet, fit_adjustment, method, ds, pilot, grid).diagnostics[key]
    assert got == one.diagnostics[key] and {cell[1] for cell in got} >= {1, 3}
    assert list(got) == sorted(got, key=lambda cell: (cell[1], -cell[0], cell[2]))
    if method == "lp":
        assert list(got) == [(a, s, ti) for s in (1, 3) for a in (1, 0) for ti in range(len(grid))]


def test_diagnostics_keys_are_pinned():
    # A new diagnostic shows up here as a test diff.
    ds, pilot, grid = _dgp1_sample(3)
    keys = {method: sorted(_fit_quiet(fit_adjustment, method, ds, pilot, grid).diagnostics)
            for method in METHODS}
    logit = ["degraded", "separated", "unconverged"]
    recombined = ["degraded", "zero_variance"]
    assert keys == {
        "na": ["degraded"], "lp": ["degraded", "singular_gram"], "ml": logit,
        "lpml": recombined, "mlx": logit, "lpmlx": recombined, "np": logit,
        "lasso": ["degraded", "hd_lam", "hd_theta", "kkt", "kkt_unmet", "separated",
                  "unconverged"]}


# -- LP ---------------------------------------------------------------------


def test_lp_constant_indicator_gives_zero_slope():
    rng = np.random.default_rng(1)
    ds = _two_strata_dataset(rng)
    # pilot far above every outcome: all labels are 1
    pilot = QteEstimate((0.5,), np.array([1e6]), np.array([1e6]))
    model = _fit_lp(ds, pilot, GRID)
    assert model.live.all()
    assert np.max(np.abs(model.coef)) < 1e-10


def test_lp_slope_by_hand():
    # treated cell: W = (0, 0, 1, 1) with indicators (0, 0, 1, 1); the OLS
    # slope on the demeaned regressor is exactly 1
    y = np.array([10.0, 10.0, 0.0, 0.0, -1.0, -1.0, 1.0, 1.0])
    a = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    x = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [0.0], [1.0], [1.0]])
    ds = Dataset.from_arrays(y, a, np.zeros(8), x)
    pilot = QteEstimate((0.5,), np.array([0.0]), np.array([0.0]))
    model = _fit_lp(ds, pilot, GRID)
    assert model.coef[1, 0, 0, 0] == pytest.approx(1.0)


def test_lp_residual_orthogonality():
    rng = np.random.default_rng(2)
    ds = _two_strata_dataset(rng)
    pilot = _median_pilot(ds.y, ds.a)
    model = _fit_lp(ds, pilot, GRID)
    for arm in (0, 1):
        for s in (0, 1):
            rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
            wdot = ds.x[rows] - ds.x[rows].mean(axis=0)
            labels = (ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)
            resid = wdot.T @ (labels - wdot @ model.coef[arm, s, 0])
            assert np.max(np.abs(resid)) <= 1e-8


def test_lp_singular_gram_uses_minimum_norm():
    rng = np.random.default_rng(3)
    n = 40
    x1 = rng.normal(0, 1, n)
    x = np.column_stack([x1, x1])  # duplicated column: singular Gram
    ds = Dataset.from_arrays(x1 + rng.normal(0, 1, n), np.tile([0, 1], n // 2), np.zeros(n), x)
    with pytest.warns(UserWarning, match="singular"):
        model = _fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
    th = model.coef[1, 0, 0]
    assert np.all(np.isfinite(th))
    assert th[0] == pytest.approx(th[1])  # minimum-norm splits evenly


def test_lp_evaluate_matches_direct_formula():
    rng = np.random.default_rng(4)
    ds = _two_strata_dataset(rng)
    model = _fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
    row = ds.x[5]
    s = int(ds.s[5])
    assert model.evaluate_all(GRID, ds)[1][5, 0] == pytest.approx(
        0.5 - row @ model.coef[1, s, 0]
    )


# -- ML family --------------------------------------------------------------


def test_ml_intercept_only_matches_cell_mean():
    # Every (arm, stratum) cell of one batched solve on an all-ones H.
    rng = np.random.default_rng(7)
    ds = _two_strata_dataset(rng)
    pilot = _median_pilot(ds.y, ds.a)
    H = np.ones((ds.n, 1))
    cells, labels = [], []
    for arm in (0, 1):
        for s in (0, 1):
            rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
            cells.append((H, rows))
            labels.append((ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)[:, None])
    theta, converged, separated = _fit_logit_cells(cells, labels)
    assert converged.all() and not separated.any()
    for th, y in zip(theta, labels):
        assert expit(th[0, 0]) == pytest.approx(y.mean(), abs=1e-7)


def test_mlx_coefficient_layout():
    rng = np.random.default_rng(8)
    ds = _two_strata_dataset(rng)
    model = fit_adjustment("mlx", ds, _median_pilot(ds.y, ds.a), GRID)
    assert model.method == "mlx"
    assert model.coef.shape == (2, 2, 1, 4)  # (arm, stratum, tau, 1 + x1 + x2 + x1*x2)


def test_mlx_reduces_to_ml_when_interactions_vanish():
    rng = np.random.default_rng(9)
    n = 80
    x = np.column_stack([rng.normal(0, 1, n), np.zeros(n)])  # x1*x2 == 0
    y = x[:, 0] + rng.normal(0, 1, n)
    ds = Dataset.from_arrays(y, np.tile([0, 1], n // 2), np.zeros(n), x)
    pilot = _median_pilot(ds.y, ds.a)
    ml = _fit_ml(ds, pilot, GRID)
    mlx = _fit_ml(ds, pilot, GRID, method="mlx")
    assert np.array_equal(mlx.live, ml.live)
    assert np.allclose(mlx.coef[..., :3], ml.coef, atol=1e-7)
    assert np.all(np.abs(mlx.coef[..., 3]) < 1e-10)


def test_np_all_cells_too_small_raises():
    rng = np.random.default_rng(11)
    n = 12
    ds = Dataset.from_arrays(
        rng.normal(size=n), np.tile([0, 1], n // 2), np.zeros(n), rng.normal(0, 1, (n, 2))
    )
    pilot = _median_pilot(ds.y, ds.a)
    # 6-row cells: the 5-term sieve of two covariates needs at least 7
    with pytest.raises(DataValidationError, match=r"np: every \(arm, stratum\) cell is too small"), \
            pytest.warns(UserWarning, match=r"np: 2 cell\(s\) too small"):
        _fit_ml(ds, pilot, GRID, method="np")


def test_partial_small_cells_degrade_with_warning():
    rng = np.random.default_rng(12)
    n = 66
    s = np.array([0] * 60 + [1] * 6)
    a = np.concatenate([np.tile([0, 1], 30), np.array([0, 1, 0, 1, 0, 1])])
    x = rng.normal(0, 1, (n, 2))
    ds = Dataset.from_arrays(rng.normal(size=n), a, s, x)
    pilot = _median_pilot(ds.y, ds.a)
    with pytest.warns(UserWarning, match="degraded"):
        model = _fit_ml(ds, pilot, GRID)
    assert not model.live[1, 1, 0]
    treated = model.evaluate_all(GRID, ds)[1]
    assert np.all(treated[s == 1] == 0.0)  # degraded cell adjusts by zero
    assert model.live[1, 0, 0]
    assert np.all(treated[s == 0] != 0.0)


def _straddling_dataset():
    """Seven strata of 30 control rows and 2, 3, 4, 5, 6, 7 or 30 treated
    rows, d = 2: every row minimum (3 for the lasso, 4 for the
    recombinations, p + 2 for lp, ml, mlx and np) falls between two of them."""
    rng = np.random.default_rng(21)
    sizes = (2, 3, 4, 5, 6, 7, 30)
    s = np.concatenate([np.full(k + 30, stratum) for stratum, k in enumerate(sizes)])
    a = np.concatenate([np.r_[np.ones(k, int), np.zeros(30, int)] for k in sizes])
    x = rng.normal(0, 1, (s.size, 2))
    return Dataset.from_arrays(x @ [1.0, 0.5] + rng.normal(0, 1, s.size), a, s, x)


@pytest.mark.parametrize("method,count", [
    ("lasso", 1), ("lp", 2), ("ml", 3), ("mlx", 4), ("np", 5), ("lpml", 6), ("lpmlx", 8),
])
def test_degraded_lists_exactly_the_cells_left_at_zero(method, count):
    ds = _straddling_dataset()
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    model = _fit_quiet(fit_adjustment, method, ds, pilot_quantiles(ds, grid), grid)
    degraded = model.diagnostics["degraded"]
    dead = {(a, s) for a in (0, 1) for s in range(ds.n_strata) if not model.live[a, s].any()}
    assert set(degraded) == dead and len(degraded) == count
    assert list(degraded) == sorted(degraded, key=lambda cell: (cell[1], -cell[0]))


@pytest.mark.parametrize("method", ["lpml", "lpmlx"])
def test_recombination_degrades_both_arms_of_a_stratum_without_a_live_base(method):
    rng = np.random.default_rng(22)
    s = np.repeat([0, 1], [24, 40])
    a = np.concatenate([np.r_[np.ones(20, int), np.zeros(4, int)], np.tile([0, 1], 20)])
    x = rng.normal(0, 1, (s.size, 2))
    ds = Dataset.from_arrays(x[:, 0] + rng.normal(0, 1, s.size), a, s, x)
    pilot = _median_pilot(ds.y, ds.a)
    # Stratum 0's 4 control rows are too few for the base fit, not for lpml.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_adjustment(method, ds, pilot, GRID)
    base = {"lpml": "ml", "lpmlx": "mlx"}[method]
    assert str(caught[-1].message) == (f"{method}: 0 cell(s) too small and 2 in a stratum "
                                       f"without a live {base} fit, degraded to zero adjustment")
    assert model.diagnostics["degraded"] == ((1, 0), (0, 0))
    assert model.live[:, 1].all()
    assert all(np.all(adj[s == 0] == 0.0) for adj in model.evaluate_all(GRID, ds))


def test_np_fitted_cdf_not_monotone_in_tau():
    # Non-monotonicity across taus is possible (and merely diagnostic):
    # this seed exhibits a crossing.
    rng = np.random.default_rng(1)
    n = 60
    a = np.tile([0, 1], n // 2)
    x = rng.normal(0, 1, (n, 2))
    y = x[:, 0] * x[:, 1] + rng.normal(0, 1.5, n)
    ds = Dataset.from_arrays(y, a, np.zeros(n, int), x)
    grid = QuantileGrid.of([0.4, 0.6])
    pilot = pilot_quantiles(ds, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = _fit_ml(ds, pilot, grid, method="np")
    H = features_reference("np", ds.x)
    p_lo = expit(H @ model.coef[1, 0, 0])
    p_hi = expit(H @ model.coef[1, 0, 1])
    assert np.any(p_lo > p_hi + 1e-9)


# -- LPML -------------------------------------------------------------------


def test_lpml_handles_collinear_probability_columns():
    rng = np.random.default_rng(13)
    ds = _two_strata_dataset(rng)
    pilot = _median_pilot(ds.y, ds.a)
    ml = _fit_ml(ds, pilot, GRID)
    # the treated-model column in both places: the two columns coincide, and
    # the ridge splits the weight evenly between them
    dup = dataclasses.replace(ml, prob=ml.prob[[1, 1]])
    model = _fit_lpml(ds, pilot, GRID, ml_model=dup, method="lpml")
    assert model.live.all() and np.all(np.isfinite(model.coef))
    assert np.allclose(model.coef[..., 0], model.coef[..., 1], rtol=1e-9)


def test_lpml_matches_ridge_reference():
    rng = np.random.default_rng(14)
    ds = _two_strata_dataset(rng, n=200)
    pilot = _median_pilot(ds.y, ds.a)
    ml = _fit_ml(ds, pilot, GRID)
    model = _fit_lpml(ds, pilot, GRID, ml_model=ml, method="lpml")
    H = features_reference("ml", ds.x)
    assert model.live.all()
    for arm, s, ti in np.ndindex(model.live.shape):
        th = model.coef[arm, s, ti]
        rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
        w = np.column_stack(
            [expit(H[rows] @ ml.coef[1, s, ti]), expit(H[rows] @ ml.coef[0, s, ti])]
        )
        wd = (w - w.mean(axis=0)) / w.std(axis=0)
        labels = (ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)
        gram = wd.T @ wd / rows.size + np.eye(2) / ds.n
        ridge = np.linalg.solve(gram, wd.T @ labels / rows.size)
        assert np.allclose(th, ridge, rtol=1e-9, atol=1e-12)


def test_lpml_zero_variance_column_coefficient_forced_zero():
    rng = np.random.default_rng(16)
    ds = _two_strata_dataset(rng)
    pilot = _median_pilot(ds.y, ds.a)
    ml = _fit_ml(ds, pilot, GRID)
    # The control column is 0.5 up to rounding-size noise, as a saturated
    # logistic column is: its cell sd is far below 1e-8, so it counts as
    # constant and gets a zero coefficient.
    prob = ml.prob.copy()
    prob[0] = 0.5 + 1e-14 * rng.standard_normal(prob[0].shape)
    model = _fit_lpml(ds, pilot, GRID, ml_model=dataclasses.replace(ml, prob=prob),
                      method="lpml")
    assert model.live.all()
    assert len(model.diagnostics["zero_variance"]) == model.live.size
    assert np.all(model.coef[..., 1] == 0.0)
    assert np.any(model.coef[..., 0] != 0.0)
    for out in model.evaluate_all(GRID, ds):
        assert out.shape == (ds.n, len(GRID))
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("seed,method,base", [(2, "lpml", "ml"), (3, "lpmlx", "mlx")])
def test_lpml_qte_ignores_rounding_size_changes_of_logistic_coefficients(seed, method, base):
    # Saturated probability columns have a cell sd of rounding size; before
    # such columns counted as constant, dividing by that sd let a 1e-13
    # relative change of the logistic fit move these estimates.  The change
    # scales the linear predictors behind the probabilities it reads.
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(seed))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(100 + seed))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ml = fit_adjustment(base, ds, pilot, grid)
        bumped = dataclasses.replace(ml, prob=expit(logit(ml.prob) * (1.0 + 1e-13)))
        model = fit_adjustment(method, ds, pilot, grid, ml_model=ml)
        moved = fit_adjustment(method, ds, pilot, grid, ml_model=bumped)
    assert model.diagnostics["zero_variance"]
    assert model.diagnostics == moved.diagnostics
    assert np.array_equal(qte(ds, model, grid).qte, qte(ds, moved, grid).qte)


def test_lpml_reusing_fitted_logistic_model_equals_standalone_fit():
    rng = np.random.default_rng(17)
    ds = _two_strata_dataset(rng, n=160)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    for method, base in (("lpml", "ml"), ("lpmlx", "mlx")):
        alone = fit_adjustment(method, ds, pilot, grid)
        reused = fit_adjustment(
            method, ds, pilot, grid,
            ml_model=fit_adjustment(base, ds, pilot, grid),
        )
        assert reused.method == alone.method
        assert reused.diagnostics == alone.diagnostics
        for field in ("live", "coef", "prob"):
            assert np.array_equal(getattr(reused, field), getattr(alone, field)), field
        for got, want in zip(reused.evaluate_all(grid, ds), alone.evaluate_all(grid, ds)):
            assert np.array_equal(got, want)
    ml = fit_adjustment("ml", ds, pilot, grid)
    with pytest.raises(DataValidationError, match="recombines an mlx fit"):
        fit_adjustment("lpmlx", ds, pilot, grid, ml_model=ml)
    with pytest.raises(DataValidationError, match="does not reuse"):
        fit_adjustment("lp", ds, pilot, grid, ml_model=ml)
    # an ml fit on other rows or another grid is refused
    half = Dataset.from_arrays(ds.y[:80], ds.a[:80], ds.s[:80], ds.x[:80])
    for other, message in ((fit_adjustment("ml", half, pilot_quantiles(half, grid), grid),
                            "model was fitted on another dataset"),
                           (fit_adjustment("ml", ds, _median_pilot(ds.y, ds.a), GRID),
                            "model was fitted on grid")):
        with pytest.raises(DataValidationError, match=message):
            fit_adjustment("lpml", ds, pilot, grid, ml_model=other)


# -- lasso ------------------------------------------------------------------


def _signal_dataset(seed, n=200, p=20):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, p))
    x[:, 1] = x[:, 0]  # duplicate of the signal column
    a = np.tile([0, 1], n // 2)
    y = 4.0 * x[:, 0] + 0.3 * rng.normal(0, 1, n)
    ds = Dataset.from_arrays(y, a, np.zeros(n, int), x)
    return ds, _median_pilot(y, a)


def test_lasso_recovers_planted_signal(monkeypatch):
    monkeypatch.setattr(adjust, "_FORCED_SUPPORT", ())
    for seed in range(5):
        ds, pilot = _signal_dataset(seed)
        model = _fit_hd_lasso(ds, pilot, GRID)
        for arm in (0, 1):
            # dictionary columns: 0 intercept, 1 signal, 2 its duplicate
            assert {1, 2} & set(model.support[(arm, 0, 0)])


def test_lasso_null_design_selects_little(monkeypatch):
    monkeypatch.setattr(adjust, "_FORCED_SUPPORT", ())
    sizes = []
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        n, p = 400, 50
        x = rng.normal(0, 1, (n, p))
        a = np.tile([0, 1], n // 2)
        y = rng.normal(0, 1, n)
        ds = Dataset.from_arrays(y, a, np.zeros(n, int), x)
        model = _fit_hd_lasso(ds, _median_pilot(y, a), GRID)
        for arm in (0, 1):
            sizes.append(len(model.support[(arm, 0, 0)]) - 1)  # minus intercept
    assert np.mean([v <= 5 for v in sizes]) >= 0.9


def test_lasso_kkt_conditions_verified_independently(monkeypatch):
    monkeypatch.setattr(adjust, "_FORCED_SUPPORT", ())
    ds, pilot = _signal_dataset(0)
    model = _fit_hd_lasso(ds, pilot, GRID)
    H = features_reference("lasso", ds.x)
    for arm in (0, 1):
        rows = np.flatnonzero(ds.a == arm)
        labels = (ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)
        theta = model.diagnostics["hd_theta"][(arm, 0, 0)]
        lam = model.diagnostics["hd_lam"][(arm, 0, 0)]
        assert _l1_kkt_residual(H[rows], labels, theta, lam) <= 1e-6


def test_lasso_empty_support_falls_back(monkeypatch):
    monkeypatch.setattr(adjust, "_FORCED_SUPPORT", ())
    rng = np.random.default_rng(2)
    n = 60
    x = rng.normal(0, 1, (n, 4))
    y = rng.normal(0, 1, n)
    ds = Dataset.from_arrays(y, np.tile([0, 1], n // 2), np.zeros(n, int), x)
    cfg = LassoConfig(c=50.0)  # penalty so heavy nothing enters
    model = _fit_hd_lasso(ds, _median_pilot(y, ds.a), GRID, cfg)
    for arm in (0, 1):
        assert set(model.support[(arm, 0, 0)]) == {0}  # intercept only
    theta0 = model.coef[1, 0, 0, 0]
    assert model.evaluate_all(GRID, ds)[1][0, 0] == pytest.approx(0.5 - expit(theta0))


def test_lasso_lists_separated_refits():
    # The treated outcome is the forced column x1 itself, so x1 splits every
    # treated label vector and each refit on a support holding x1 separates.
    rng = np.random.default_rng(4)
    n = 80
    a = np.tile([0, 1], n // 2)
    x = rng.normal(0, 1, (n, 2))
    ds = Dataset.from_arrays(np.where(a == 1, x[:, 0], x[:, 0] + rng.normal(0, 1, n)), a,
                             np.zeros(n, int), x)
    taus = (0.25, 0.5, 0.75)
    pilot = pilot_quantiles(ds, QuantileGrid.of(taus))
    model = _fit_hd_lasso(ds, pilot, QuantileGrid.of(taus))
    H = features_reference("lasso", ds.x)
    want = []
    for (arm, s, ti), cols in model.support.items():
        rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
        labels = (ds.y[rows] <= pilot.q(arm, taus[ti])).astype(float)
        if logit_fit_reference(H[np.ix_(rows, cols)], labels)[2]:
            want.append((arm, s, ti))
    assert model.diagnostics["separated"] == tuple(want)
    assert [key for key in want if key[0] == 1] == [(1, 0, 0), (1, 0, 1), (1, 0, 2)]


def test_lasso_mhat_sign_convention_and_debug_flag(monkeypatch):
    monkeypatch.setattr(adjust, "_FORCED_SUPPORT", ())
    ds, pilot = _signal_dataset(4)
    model = _fit_hd_lasso(ds, pilot, GRID)
    H = features_reference("lasso", ds.x[:1])
    prob = float(expit(H @ model.coef[1, 0, 0])[0])
    assert model.evaluate_all(GRID, ds)[1][0, 0] == pytest.approx(0.5 - prob)
    # The raw-probability debug flag is gone: tau - p is the only convention.
    assert "hd_raw_mhat" not in {f.name for f in dataclasses.fields(model)}


def test_lasso_warning_counts_problems_by_their_final_kkt_residual(monkeypatch):
    # One reweighting step per round leaves every problem above the KKT
    # tolerance.  Each (cell, tau) problem is listed once, by the residual of
    # its last loading round, not each round that hit the cap, and its one
    # warning names the penalized solve, not the refit, which converged.
    monkeypatch.setattr(adjust, "_MAX_OUTER", 1)
    ds, _ = _signal_dataset(0)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = _fit_hd_lasso(ds, pilot_quantiles(ds, grid), grid)
    over = [key for key, v in model.diagnostics["kkt"].items() if v > adjust._KKT_TOL]
    assert len(over) == 6
    assert model.diagnostics["kkt_unmet"] == tuple(over)
    assert model.diagnostics["unconverged"] == ()
    assert [str(w.message) for w in caught] == [
        "lasso: penalized solve missed the KKT tolerance in 6 problem(s)"]


def test_only_the_model_constructor_warns():
    # Every fitter reports its outcomes through adjust._model, which lists
    # and warns them; no fitter warns on its own.
    tree = ast.parse(Path(adjust.__file__).read_text(encoding="utf-8"))
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr.startswith("warn")
               and isinstance(node.func.value, ast.Name) and node.func.value.id == "warnings"]
    assert callers == ["_model"]


def test_a_non_finite_fitted_value_is_a_numerical_error():
    # The one constructor of every model refuses it, naming the method.
    prob = np.full((2, 4, 1), 0.5)
    prob[1, 2, 0] = np.inf
    coef, live = np.zeros((2, 1, 1, 3)), np.ones((2, 1, 1), dtype=bool)
    with pytest.raises(NumericalError, match="mlx: fitted values are not finite"):
        adjust._model("mlx", (0.5,), coef, live, prob, [])


_PENALTY_LEVELS = {(2, 1): 0.0, (40, 3): 9.312175720180859, (100, 20): 25.248533094171222,
                   (5000, 400): 267.3770072233668}


@pytest.mark.parametrize("n_cell,p", list(_PENALTY_LEVELS))
def test_penalty_level_equals_norm_ppf_formula(n_cell, p):
    # The quantile comes from statistics.NormalDist, within 1e-15 relative
    # of scipy's norm.ppf; the levels are pinned as literals.
    from scipy.stats import norm

    cfg = LassoConfig(c=1.1)
    level = _PENALTY_LEVELS[(n_cell, p)]
    tail = min(1.0 / (p * max(np.log(n_cell), 1.0)), 0.5)
    z = NormalDist().inv_cdf(1.0 - tail)
    assert z == pytest.approx(norm.ppf(1.0 - tail), rel=1e-15, abs=0.0)
    assert _penalty_level(n_cell, p, cfg) == cfg.c * np.sqrt(n_cell) * z == level


def test_logistic_link_is_within_four_ulp_of_scipy_expit():
    # Away from underflow each link is within 2 ulp of the exact value, so
    # within 4 of the other; below x = -709.78 exp(-x) overflows, silently,
    # and both give 0.
    ends = [-1000.0, -745.0, 0.0, 745.0, 1000.0]
    x = np.concatenate([np.linspace(-1000.0, 1000.0, 2_000_001), ends])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = adjust._expit(x)
    want = expit(x)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert got[-5:].tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
    z = np.random.default_rng(23).normal(0.0, 8.0, 200_000)
    assert np.all(np.abs(adjust._expit(z) - expit(z)) <= 2 * np.spacing(expit(z)))


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
def test_lasso_config_needs_finite_positive_c(c):
    with pytest.raises(DataValidationError, match="finite c > 0"):
        LassoConfig(c=c)


# -- container semantics ----------------------------------------------------


def _evaluation_datasets():
    """The mixed batch with one cell cut to two rows, which every method
    degrades, and a dgp1 sample whose lpml fits have zero-variance columns."""
    ds = _mixed_logit_dataset()
    cut = np.flatnonzero((ds.s == 2) & (ds.a == 1))[2:]
    keep = np.setdiff1d(np.arange(ds.n), cut)
    mixed = Dataset.from_arrays(ds.y[keep], ds.a[keep], ds.s[keep], ds.x[keep])
    latent = generate(DgpSpec("dgp1", 400), np.random.default_rng(2))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(102))
    return mixed, Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)


@pytest.mark.parametrize("method", METHODS)
def test_evaluate_all_matches_per_cell_reference(method):
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    degraded, zero_variance = [], []
    for ds in _evaluation_datasets():
        pilot = pilot_quantiles(ds, grid)
        ml = None
        if method in LOGIT_BASE:
            ml = _fit_quiet(fit_adjustment, LOGIT_BASE[method], ds, pilot, grid)
        model = _fit_quiet(fit_adjustment, method, ds, pilot, grid, ml_model=ml)
        values = model.evaluate_all(grid, ds)
        H = None if method == "na" else features_reference(method, ds.x)
        for arm in (0, 1):
            want = evaluate_reference(model, arm, grid, ds, H, ml)
            assert np.array_equal(values[arm], want)
        degraded.append(not model.live.all())
        zero_variance.append(bool(model.diagnostics.get("zero_variance")))
    assert degraded[0] == (method != "na")
    assert zero_variance[1] == (method in ("lpml", "lpmlx"))


def test_model_solver_builds_no_features(monkeypatch):
    ds = _two_strata_dataset(np.random.default_rng(20), n=160)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    models = [_fit_quiet(fit_adjustment, m, ds, pilot, grid) for m in METHODS]
    calls = []
    monkeypatch.setattr(adjust, "_features", lambda method, x: calls.append(method))
    _model_solver(ds, models, grid)
    assert calls == []  # every model holds its in-sample fit


def test_na_model_evaluates_to_zero_everywhere():
    model = _fit_none(GRID)
    rng = np.random.default_rng(17)
    ds = _two_strata_dataset(rng)
    for out in model.evaluate_all(GRID, ds):
        assert np.array_equal(out, np.zeros((ds.n, len(GRID))))


def test_ml_zero_coefficients_give_tau_minus_half():
    rng = np.random.default_rng(18)
    ds = _two_strata_dataset(rng)
    model = _fit_ml(ds, _median_pilot(ds.y, ds.a), GRID)
    assert np.all((model.prob > 0.0) & (model.prob < 1.0))
    zeroed = dataclasses.replace(model, coef=np.zeros_like(model.coef))
    for arm in (0, 1):
        ref = evaluate_reference(zeroed, arm, GRID, ds, features_reference("ml", ds.x))
        assert np.all(ref == 0.0)  # 0.5 - lambda(0)
    half = dataclasses.replace(model, prob=np.full_like(model.prob, 0.5))
    for out in half.evaluate_all(GRID, ds):
        assert np.all(out == 0.0)


def test_evaluate_errors():
    rng = np.random.default_rng(19)
    ds = _two_strata_dataset(rng)
    model = _fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
    # The adjustment exists in sample only: another dataset or grid is refused.
    wider = Dataset.from_arrays(ds.y, ds.a, np.arange(ds.n) % 3, ds.x)
    fewer = Dataset.from_arrays(ds.y[:40], ds.a[:40], ds.s[:40], ds.x[:40])
    for other in (wider, fewer):
        with pytest.raises(DataValidationError, match="another dataset"):
            model.evaluate_all(GRID, other)
    for grid in (QuantileGrid.of([0.25]), QuantileGrid.of([0.5, 0.75])):
        with pytest.raises(DataValidationError, match="grid"):
            model.evaluate_all(grid, ds)
        with pytest.raises(DataValidationError, match="grid"):
            _fit_none(GRID).evaluate_all(grid, ds)
    with pytest.raises(DataValidationError):
        fit_adjustment("probit", ds, _median_pilot(ds.y, ds.a), GRID)


@pytest.mark.parametrize("method", [m for m in METHODS if m != "na"])
def test_a_pilot_without_a_fitted_tau_is_a_data_error_naming_it(method):
    ds = _two_strata_dataset(np.random.default_rng(21))
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    short = pilot_quantiles(ds, QuantileGrid.of([0.25, 0.5]))
    with pytest.raises(DataValidationError, match=r"no quantile at tau=0\.75"):
        fit_adjustment(method, ds, short, grid)
    if method in adjust.LOGIT_METHODS:
        with pytest.raises(DataValidationError, match=r"no quantile at tau=0\.75"):
            fit_ml([(ds, short)], grid, method)
    # A pilot on a larger grid serves every tau of the fit.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wide = fit_adjustment(method, ds, pilot_quantiles(ds, QuantileGrid.of(
            [0.1, 0.25, 0.5, 0.6, 0.75])), grid)
        same = fit_adjustment(method, ds, pilot_quantiles(ds, grid), grid)
    assert np.array_equal(wide.prob, same.prob)
