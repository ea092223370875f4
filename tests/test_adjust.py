import dataclasses
import warnings

import numpy as np
import pytest
from conftest import evaluate_reference, features_reference, fit_logit_cell, logit_fit_reference
from scipy.special import expit, logit

from carqte import (
    METHODS,
    Dataset,
    DataValidationError,
    LassoConfig,
    QuantileGrid,
    fit_adjustment,
    fit_hd_lasso,
    fit_lp,
    fit_lpml,
    fit_ml,
    fit_none,
    pilot_quantiles,
)
from carqte import adjust
from carqte.adjust import (
    LOGIT_BASE,
    _features,
    _fit_logit_cells,
    _l1_kkt_residual,
    penalty_level,
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
    assert _features("lp", x).tolist() == [[2.0, 3.0]]
    for method in ("ml", "lpml", "lasso"):
        assert _features(method, x).tolist() == [[1.0, 2.0, 3.0]]
    for method in ("mlx", "lpmlx"):
        assert _features(method, x).tolist() == [[1.0, 2.0, 3.0, 6.0]]


def test_sieve_roster_five_terms_for_two_covariates():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [2.0, 0.5]])
    H = _features("np", x)
    assert H.shape == (4, 5)
    assert np.array_equal(H[:, :4], _features("mlx", x))
    # The joint product thresholded at the medians 1.5 and 0.75: only the
    # third row has both coordinates strictly above them.
    assert H[:, 4].tolist() == [0.0, 0.0, 4.0, 0.0]


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
    assert np.array_equal(_features(method, x), features_reference(method, x))


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


# -- LP ---------------------------------------------------------------------


def test_lp_constant_indicator_gives_zero_slope():
    rng = np.random.default_rng(1)
    ds = _two_strata_dataset(rng)
    # pilot far above every outcome: all labels are 1
    pilot = QteEstimate((0.5,), np.array([1e6]), np.array([1e6]))
    model = fit_lp(ds, pilot, GRID)
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
    model = fit_lp(ds, pilot, GRID)
    assert model.coef[1, 0, 0, 0] == pytest.approx(1.0)


def test_lp_residual_orthogonality():
    rng = np.random.default_rng(2)
    ds = _two_strata_dataset(rng)
    pilot = _median_pilot(ds.y, ds.a)
    model = fit_lp(ds, pilot, GRID)
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
        model = fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
    th = model.coef[1, 0, 0]
    assert np.all(np.isfinite(th))
    assert th[0] == pytest.approx(th[1])  # minimum-norm splits evenly


def test_lp_evaluate_matches_direct_formula():
    rng = np.random.default_rng(4)
    ds = _two_strata_dataset(rng)
    model = fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
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
    with pytest.raises(DataValidationError, match=r"np: every \(arm, stratum\) cell is too small"):
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
    model = fit_lpml(ds, pilot, GRID, ml_model=dup)
    assert model.live.all() and np.all(np.isfinite(model.coef))
    assert np.allclose(model.coef[..., 0], model.coef[..., 1], rtol=1e-9)


def test_lpml_matches_ridge_reference():
    rng = np.random.default_rng(14)
    ds = _two_strata_dataset(rng, n=200)
    pilot = _median_pilot(ds.y, ds.a)
    ml = _fit_ml(ds, pilot, GRID)
    model = fit_lpml(ds, pilot, GRID, ml_model=ml)
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
    model = fit_lpml(ds, pilot, GRID, ml_model=dataclasses.replace(ml, prob=prob))
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
    for other in (fit_adjustment("ml", half, pilot_quantiles(half, grid), grid),
                  fit_adjustment("ml", ds, _median_pilot(ds.y, ds.a), GRID)):
        with pytest.raises(DataValidationError, match="other data or another grid"):
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


def test_lasso_recovers_planted_signal():
    for seed in range(5):
        ds, pilot = _signal_dataset(seed)
        model = fit_hd_lasso(ds, pilot, GRID, LassoConfig(forced_support=()))
        for arm in (0, 1):
            # dictionary columns: 0 intercept, 1 signal, 2 its duplicate
            assert {1, 2} & set(model.support[(arm, 0, 0)])


def test_lasso_null_design_selects_little():
    sizes = []
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        n, p = 400, 50
        x = rng.normal(0, 1, (n, p))
        a = np.tile([0, 1], n // 2)
        y = rng.normal(0, 1, n)
        ds = Dataset.from_arrays(y, a, np.zeros(n, int), x)
        model = fit_hd_lasso(ds, _median_pilot(y, a), GRID, LassoConfig(forced_support=()))
        for arm in (0, 1):
            sizes.append(len(model.support[(arm, 0, 0)]) - 1)  # minus intercept
    assert np.mean([v <= 5 for v in sizes]) >= 0.9


def test_lasso_kkt_conditions_verified_independently():
    ds, pilot = _signal_dataset(0)
    model = fit_hd_lasso(ds, pilot, GRID, LassoConfig(forced_support=()))
    H = features_reference("lasso", ds.x)
    for arm in (0, 1):
        rows = np.flatnonzero(ds.a == arm)
        labels = (ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)
        theta = model.diagnostics["hd_theta"][(arm, 0, 0)]
        lam = model.diagnostics["hd_lam"][(arm, 0, 0)]
        assert _l1_kkt_residual(H[rows], labels, theta, lam) <= 1e-6


def test_lasso_post_support_contains_forced():
    ds, pilot = _signal_dataset(3)
    cfg = LassoConfig(forced_support=(7,))
    model = fit_hd_lasso(ds, pilot, GRID, cfg)
    for arm in (0, 1):
        sup = model.support[(arm, 0, 0)]
        assert 7 in sup
        assert model.coef[arm, 0, 0].shape == (21,)
        assert np.flatnonzero(model.coef[arm, 0, 0]).tolist() == list(sup)


def test_lasso_empty_support_falls_back():
    rng = np.random.default_rng(2)
    n = 60
    x = rng.normal(0, 1, (n, 4))
    y = rng.normal(0, 1, n)
    ds = Dataset.from_arrays(y, np.tile([0, 1], n // 2), np.zeros(n, int), x)
    cfg = LassoConfig(c=50.0, forced_support=())  # penalty so heavy nothing enters
    model = fit_hd_lasso(ds, _median_pilot(y, ds.a), GRID, cfg)
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
    model = fit_hd_lasso(ds, pilot, QuantileGrid.of(taus))
    H = features_reference("lasso", ds.x)
    want = []
    for (arm, s, ti), cols in model.support.items():
        rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
        labels = (ds.y[rows] <= pilot.q(arm, taus[ti])).astype(float)
        if logit_fit_reference(H[np.ix_(rows, cols)], labels)[2]:
            want.append((arm, s, ti))
    assert model.diagnostics["separated"] == tuple(want)
    assert [key for key in want if key[0] == 1] == [(1, 0, 0), (1, 0, 1), (1, 0, 2)]


def test_lasso_mhat_sign_convention_and_debug_flag():
    ds, pilot = _signal_dataset(4)
    model = fit_hd_lasso(ds, pilot, GRID, LassoConfig(forced_support=()))
    H = features_reference("lasso", ds.x[:1])
    prob = float(expit(H @ model.coef[1, 0, 0])[0])
    assert model.evaluate_all(GRID, ds)[1][0, 0] == pytest.approx(0.5 - prob)
    # The raw-probability debug flag is gone: tau - p is the only convention.
    assert "hd_raw_mhat" not in {f.name for f in dataclasses.fields(model)}


@pytest.mark.parametrize("n_cell,p", [(2, 1), (40, 3), (100, 20), (5000, 400)])
def test_penalty_level_equals_norm_ppf_formula(n_cell, p):
    from scipy.stats import norm

    cfg = LassoConfig(c=1.1)
    tail = 1.0 / (p * max(np.log(n_cell), 1.0))
    want = cfg.c * np.sqrt(n_cell) * norm.ppf(1.0 - min(tail, 0.5))
    assert penalty_level(n_cell, p, cfg) == want


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
    model = fit_none(GRID)
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
    model = fit_lp(ds, _median_pilot(ds.y, ds.a), GRID)
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
            fit_none(GRID).evaluate_all(grid, ds)
    with pytest.raises(DataValidationError):
        fit_adjustment("probit", ds, _median_pilot(ds.y, ds.a), GRID)
