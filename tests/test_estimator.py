import numpy as np
import pytest
from conftest import (
    TableModel,
    brute_force_arm,
    check_sandwich,
    make_stratified_dataset,
    solve_arm,
    solve_both_ways,
)

from carqte import (
    Dataset,
    DataValidationError,
    DegenerateCellError,
    QuantileGrid,
    draw_weights,
    fit_none,
    index_strata,
    pilot_quantiles,
    qte,
    run_bootstrap,
)


def _unit_solve(ds, arm, tau, mhat=None):
    mhat = np.zeros(ds.n) if mhat is None else mhat
    return solve_arm(ds, arm, tau, np.ones(ds.n), mhat)


def test_single_candidate():
    ds = Dataset.from_arrays([5.0, 1.0, 2.0], [1, 0, 0], [1, 1, 1], np.zeros((3, 1)))
    for tau in (0.1, 0.5, 0.9):
        assert _unit_solve(ds, 1, tau) == 5.0


def test_boundary_tie_returns_smaller_candidate():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [1, 1, 1, 1], np.zeros((4, 1)))
    assert _unit_solve(ds, 1, 0.5) == 1.0


def test_constant_adjustment_cancels():
    rng = np.random.default_rng(8)
    ds = make_stratified_dataset(rng, n=30, k=2)
    base = _unit_solve(ds, 1, 0.5)
    for c in (-7.0, 0.3, 12.0):
        assert _unit_solve(ds, 1, 0.5, np.full(30, c)) == base


def test_solver_matches_brute_force():
    rng = np.random.default_rng(99)
    for trial in range(300):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(3 * k, 41))
        ds = make_stratified_dataset(rng, n=n, k=k)
        xi = rng.exponential(1.0, n) if trial % 2 else np.ones(n)
        mhat = rng.normal(0.0, 1.5, n)
        tau = float(rng.choice(np.arange(0.1, 0.95, 0.1)))
        for arm in (0, 1):
            got, want = solve_both_ways(ds, xi, mhat, tau, arm)
            assert got == want


def _single_unit_cells(rng, k):
    """k strata, each with exactly one unit in one arm; which arm varies."""
    s, a = [], []
    for stratum in range(k):
        size = int(rng.integers(2, 8))
        lone = int(rng.integers(0, 2))
        s += [stratum] * size
        a += [lone] + [1 - lone] * (size - 1)
    n = len(s)
    return Dataset.from_arrays(rng.normal(0.0, 2.0, n), a, s, np.zeros((n, 1)))


@pytest.mark.parametrize("case", ["ties", "extreme_weights", "single_unit_cells", "fixed_pi"])
def test_block_solve_matches_oracles_on_hard_cases(case):
    # solve_arm solves a 3-row block and checks every row against the
    # brute-force argmin and a per-row searchsorted; this drives it through
    # heavy ties, weights spanning 1e-12..1e6, cells of one unit and fixed pi.
    rng = np.random.default_rng({"ties": 1, "extreme_weights": 2,
                                 "single_unit_cells": 3, "fixed_pi": 4}[case])
    skipped = 0
    for _ in range(150):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(3 * k, 41))
        if case == "single_unit_cells":
            ds = _single_unit_cells(rng, k)
            n = ds.n
        else:
            values = rng.normal(0.0, 2.0, int(rng.integers(1, 4)))
            y = rng.choice(values, n) if case == "ties" else None
            ds = make_stratified_dataset(rng, n=n, k=k, y=y)
        if case == "extreme_weights":
            xi = 10.0 ** rng.uniform(-12.0, 6.0, n)
        else:
            xi = rng.exponential(1.0, n)
        mhat = rng.normal(0.0, 1.5, n)
        tau = float(rng.uniform(0.05, 0.95))
        kw = {"fixed_pi": float(rng.uniform(0.2, 0.8))} if case == "fixed_pi" else {}
        try:
            for arm in (0, 1):
                solve_arm(ds, arm, tau, xi, mhat, **kw)
                solve_arm(ds, arm, tau, xi, np.zeros(n), **kw)
        except DegenerateCellError:
            # A stratum's control (or treated) mass fell below one ulp of the
            # other arm's, so the weighted treated fraction rounds to 0 or 1;
            # the bootstrap redraws such weights instead of solving them.
            assert case == "extreme_weights"
            skipped += 1
    assert skipped < 10


def test_sandwich_conditions_hold():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        ds = make_stratified_dataset(rng, n=n, k=2)
        xi = rng.exponential(1.0, n)
        tau = float(rng.uniform(0.1, 0.9))
        mhat = rng.normal(0, 1, n)
        sol = solve_arm(ds, 1, tau, xi, mhat)
        assert check_sandwich(ds, 1, tau, xi, mhat, sol)


def test_na_matches_classical_quantile_convention():
    # One stratum, equal arms: the arm solution is the left-continuous
    # empirical quantile inf{y: F(y) >= tau} of that arm's outcomes.
    rng = np.random.default_rng(33)
    for _ in range(20):
        m = int(rng.integers(3, 30))
        y = np.concatenate([rng.normal(0, 1, m), rng.normal(0, 1, m)])
        a = np.array([1] * m + [0] * m)
        ds = Dataset.from_arrays(y, a, np.ones(2 * m), np.zeros((2 * m, 1)))
        st = index_strata(ds)
        grid = QuantileGrid.of([0.1, 0.3, 0.5, 0.7, 0.9])
        est = qte(ds, st, fit_none(grid), grid)
        for j, tau in enumerate(grid):
            assert est.q1[j] == np.quantile(y[a == 1], tau, method="inverted_cdf")
            assert est.q0[j] == np.quantile(y[a == 0], tau, method="inverted_cdf")


def test_swapping_arms_negates_qte():
    rng = np.random.default_rng(44)
    ds = make_stratified_dataset(rng, n=60, k=3)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    st = index_strata(ds)
    est = qte(ds, st, fit_none(grid), grid)
    flipped = Dataset.from_arrays(ds.y, 1 - ds.a, ds.s, ds.x)
    est2 = qte(flipped, index_strata(flipped), fit_none(grid), grid)
    assert np.array_equal(est2.qte, -est.qte)


def test_constant_shift_recovered():
    rng = np.random.default_rng(55)
    n = 5000
    y0 = rng.normal(0, 1, n) + 4.0 * rng.uniform(-1, 1, n)
    a = (rng.uniform(size=n) < 0.5).astype(int)
    y = np.where(a == 1, y0 + 3.0, y0)
    ds = Dataset.from_arrays(y, a, np.ones(n), np.zeros((n, 1)))
    st = index_strata(ds)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    est = qte(ds, st, fit_none(grid), grid)
    assert np.all(np.abs(est.qte - 3.0) < 0.3)


def test_pilot_matches_na_and_is_monotone():
    rng = np.random.default_rng(66)
    ds = make_stratified_dataset(rng, n=80, k=2)
    st = index_strata(ds)
    grid = QuantileGrid.of([0.1, 0.25, 0.5, 0.75, 0.9])
    pilot = pilot_quantiles(ds, st, grid)
    est = qte(ds, st, fit_none(grid), grid)
    assert np.array_equal(pilot.q1, est.q1)
    assert np.array_equal(pilot.q0, est.q0)
    assert np.all(np.diff(pilot.q1) >= 0)
    assert np.all(np.diff(pilot.q0) >= 0)
    again = pilot_quantiles(ds, st, grid)
    assert np.array_equal(again.q1, pilot.q1)


def test_location_shift_invariance_bitwise():
    rng = np.random.default_rng(77)
    grid = QuantileGrid.of([0.3, 0.7])
    for _ in range(30):
        ds = make_stratified_dataset(rng, n=60, k=2)
        st = index_strata(ds)
        values = {
            (a, t): rng.normal(0, 1, 60) for a in (0, 1) for t in grid
        }
        model = TableModel(values)
        shifts = {(a, s): float(rng.normal(0, 5)) for a in (0, 1) for s in range(2)}
        shifted = model.shifted(ds, shifts)
        est = qte(ds, st, model, grid)
        est_s = qte(ds, st, shifted, grid)
        assert np.array_equal(est.qte, est_s.qte)
        (d1,) = run_bootstrap(ds, st, [model], grid, 20, np.random.default_rng(123))
        (d2,) = run_bootstrap(ds, st, [shifted], grid, 20, np.random.default_rng(123))
        assert np.array_equal(d1.draws, d2.draws)


def test_fixed_pi_mode():
    rng = np.random.default_rng(88)
    ds = make_stratified_dataset(rng, n=41, k=2)  # odd n: pi_hat != 0.5
    st = index_strata(ds)
    grid = QuantileGrid.of([0.5])
    values = {(a, 0.5): rng.normal(0, 1, 41) for a in (0, 1)}
    model = TableModel(values)
    est_estimated = qte(ds, st, model, grid)
    est_fixed = qte(ds, st, model, grid, fixed_pi=0.5)
    xi = np.ones(41)
    want = brute_force_arm(1, ds, xi, np.full(2, 0.5), values[(1, 0.5)], 0.5)
    assert est_fixed.q1[0] == want
    assert est_estimated.q1[0] != est_fixed.q1[0] or est_estimated.q0[0] != est_fixed.q0[0]
    # exactly balanced data: the two modes coincide
    rng_b = np.random.default_rng(3)
    y_b = rng_b.normal(size=40)
    a_b = np.tile([0, 1], 20)
    ds_b = Dataset.from_arrays(y_b, a_b, np.ones(40), np.zeros((40, 1)))
    st_b = index_strata(ds_b)
    m = TableModel({(0, 0.5): np.zeros(40), (1, 0.5): np.zeros(40)})
    assert qte(ds_b, st_b, m, grid).qte[0] == qte(
        ds_b, st_b, m, grid, fixed_pi=0.5
    ).qte[0]


def test_degenerate_cell_hard_error():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0], [1, 1, 2, 2], np.zeros((4, 1)))
    st = index_strata(ds)
    grid = QuantileGrid.of([0.5])
    with pytest.raises(DegenerateCellError):
        qte(ds, st, fit_none(grid), grid)


def test_qte_identity():
    rng = np.random.default_rng(10)
    ds = make_stratified_dataset(rng, n=50, k=2)
    st = index_strata(ds)
    grid = QuantileGrid.of([0.25, 0.75])
    est = qte(ds, st, fit_none(grid), grid)
    assert np.array_equal(est.qte, est.q1 - est.q0)


def test_weight_length_mismatch():
    # The bootstrap draws one weight per row; there is no empty weight vector.
    assert draw_weights(3, np.random.default_rng(0)).shape == (3,)
    with pytest.raises(DataValidationError):
        draw_weights(0, np.random.default_rng(0))


def test_problem_validation():
    ds = Dataset.from_arrays([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [1, 1, 2, 2], np.zeros((4, 1)))
    st = index_strata(ds)
    grid = QuantileGrid.of([0.5])
    for fixed_pi in (0.0, 1.0, [0.5, 0.5, 0.5]):
        with pytest.raises(DataValidationError):
            qte(ds, st, fit_none(grid), grid, fixed_pi=fixed_pi)
