import hashlib
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    arm_sorted_rows,
    brute_force_arm,
    make_stratified_dataset,
    weighted_arm_counts,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import carqte.bootstrap as bt
import carqte.estimator as est
from carqte import (
    BootstrapDrawSet,
    Dataset,
    DataValidationError,
    DgpSpec,
    NumericalError,
    QteEstimate,
    QuantileGrid,
    SchemeSpec,
    assign,
    bootstrap_se,
    difference_test,
    draw_weights,
    fit_adjustment,
    generate,
    pilot_quantiles,
    pointwise_test,
    qte,
    run_bootstrap,
    uniform_band,
)
from carqte.adjust import _fit_none
from carqte.bootstrap import _empirical_quantile, _normal_critical_values, _sup_critical_value


def test_weights_nonnegative_and_reproducible():
    w1 = draw_weights(500, np.random.default_rng(3))
    w2 = draw_weights(500, np.random.default_rng(3))
    assert isinstance(w1, np.ndarray) and w1.shape == (500,)
    assert np.all(w1 >= 0)
    assert np.array_equal(w1, w2)


def test_weight_moments():
    n = 100_000
    w = draw_weights(n, np.random.default_rng(7))
    assert abs(w.mean() - 1.0) < 3.0 / np.sqrt(n)
    # var of (xi - 1)^2 for Exp(1) is 8, so 3 SEs of the sample variance:
    assert abs(w.var() - 1.0) < 3.0 * np.sqrt(8.0 / n)


def _fixture(seed=0, n=60, taus=(0.3, 0.7)):
    rng = np.random.default_rng(seed)
    ds = make_stratified_dataset(rng, n=n, k=2)
    grid = QuantileGrid.of(taus)
    return ds, grid


def test_run_bootstrap_deterministic():
    ds, grid = _fixture()
    model = _fit_none(grid)
    (d1,) = run_bootstrap(ds, [model], grid, 3, np.random.default_rng(11))
    (d2,) = run_bootstrap(ds, [model], grid, 3, np.random.default_rng(11))
    assert d1.draws.shape == (3, 2)
    assert np.array_equal(d1.draws, d2.draws)


def test_all_ones_weights_reproduce_point_estimate(monkeypatch):
    ds, grid = _fixture()
    model = _fit_none(grid)
    point = qte(ds, model, grid)
    monkeypatch.setattr(bt, "draw_weights", lambda n, rng, out=None: np.ones(n))
    (draws,) = run_bootstrap(ds, [model], grid, 5, np.random.default_rng(0))
    assert np.array_equal(draws.draws, np.tile(point.qte, (5, 1)))
    # every inference product collapses to zero width
    res = pointwise_test(point.qte[0], draws.draws[:, 0], 0.05)
    assert res.se == 0.0 and res.ci_lower == res.ci_upper
    band = uniform_band(point.qte, draws.draws, 0.05)
    assert band.critical_value == 0.0
    assert np.array_equal(band.ci_lower, band.ci_upper)


def test_na_bootstrap_matches_from_scratch_rederivation():
    # Independent implementation of the unadjusted weighted bootstrap: the
    # B x n block is the first B*n exponentials of the stream, and each row
    # weighs the units in arm-sorted order [treated by y | control by y].
    # For each draw, recompute the weighted treated fractions and take the
    # smallest arm outcome whose cumulative inverse-propensity mass reaches
    # tau*total.
    ds, grid = _fixture(seed=21, n=50, taus=(0.25, 0.5, 0.75))
    model = _fit_none(grid)
    B = 8
    boot = run_bootstrap(ds, [model], grid, B, np.random.default_rng(17))
    assert boot.n_resampled == 0
    (draws,) = boot
    block = np.random.default_rng(17).exponential(1.0, B * ds.n).reshape(B, ds.n)
    by_arm = {}
    for arm in (1, 0):
        rows = np.flatnonzero(ds.a == arm)
        by_arm[arm] = rows[np.argsort(ds.y[rows], kind="stable")]
    layout = np.concatenate([by_arm[1], by_arm[0]])
    for b, row in enumerate(block):
        xi = np.empty(ds.n)
        xi[layout] = row
        n1w, n0w = (np.bincount(ds.s[by_arm[arm]], weights=xi[by_arm[arm]],
                                minlength=ds.n_strata) for arm in (1, 0))
        piw = n1w / (n1w + n0w)
        for j, tau in enumerate(grid):
            qs = []
            for arm in (1, 0):
                rows = by_arm[arm]
                denom = piw[ds.s[rows]] if arm == 1 else 1.0 - piw[ds.s[rows]]
                cum = np.cumsum(xi[rows] / denom)
                k = int(np.searchsorted(cum, tau * cum[-1], side="left"))
                qs.append(ds.y[rows][min(k, len(rows) - 1)])
            assert draws.draws[b, j] == qs[0] - qs[1]


def test_a_block_of_weights_is_successive_draws_of_one_stream():
    # A b x n block is the next b*n exponentials of the stream, so it equals
    # b successive n-draws, and the stream goes on from the same state.
    n, b = 37, 5
    one, many = np.random.default_rng(4), np.random.default_rng(4)
    block = draw_weights(b * n, one).reshape(b, n)
    rows = np.stack([draw_weights(n, many) for _ in range(b)])
    assert np.array_equal(block, rows)
    assert np.array_equal(draw_weights(n, one), draw_weights(n, many))
    # Drawn into a buffer, the stream is the same, call after call.
    into, buf = np.random.default_rng(4), np.empty(n)
    for want in draw_weights(7 * n, np.random.default_rng(4)).reshape(7, n):
        assert draw_weights(n, into, out=buf) is buf
        assert np.array_equal(buf, want)


@pytest.mark.parametrize("seed", range(5))
def test_weights_are_the_exponential_stream_with_or_without_out(seed):
    # Both forms of draw_weights draw the stream of rng.exponential(1.0, n).
    n = 101
    plain = draw_weights(n, np.random.default_rng(seed))
    buf = np.empty(n)
    into = draw_weights(n, np.random.default_rng(seed), out=buf)
    want = np.random.default_rng(seed).exponential(1.0, n)
    assert np.array_equal(plain, want) and np.array_equal(into, want)


# sha256 of each model's B=40 draw matrix from single-model run_bootstrap
# calls on the design below, recorded when the weights came to be drawn as
# one stream of B x n exponentials laid out in the solver's arm-sorted column
# order (numpy 2.4, scipy 1.17, OpenBLAS 0.3.31).  Every draw moved then; the
# models still share one solve pass and give their single-model draws.
PINNED_DRAWS = {
    "estimated": {
        "na": "8db35ca4f9aa788079224055f1238c5d8234a608f41d4cbbf7072036e5ad385d",
        "lp": "f78377346aded312089b964842f41efe4998fb356edc214792bc971f41a4456a",
        "ml": "744e7db11bc28f6332d7aa7dda33a3f75987b4a65851432bc960b5ea1fc58889",
        "lpml": "5efd0002584b85fe121f51739253d7917d8e211cc149839936e411b0004e6450",
        "mlx": "77cff690e52049787b2cea0264cffb940a3c7d3a558c5b238e15f08171f5a94c",
        "lpmlx": "be7af0866b1ffe030a3617f9241f8eefedded081f321f5b9b5c4801d550a3d00",
        "np": "274e00dc0f09b9bc22583335417c55aa1670fcf64685dd748a6a474829034087",
    },
    "fixed": {
        "na": "9cf712bee0fc4d879fc7f5dd5b0d3335a66902b0574df4161344a8677d75553b",
        "lp": "c62541e43261b771218a97082e499bd8a207849c7a0adfd53d31da5eb89dc273",
        "ml": "8267fff70f212131a3634ce390d40d8cc0d169e8e590c5ba2a7906a83a62b95d",
        "lpml": "f15ee8dbda6ccff8db9655ee33293f80ea83ef8602ba4844764ccada0e80f489",
        "mlx": "fc5da511fe05dfb8bfbf67a80ea1fb4a40e56f1544e54d779edbc5a5ffcddee0",
        "lpmlx": "3e750aae0638533d092fe0b3c906de1ead93843dd213c3a64d9242fe60e59ee5",
        "np": "5ccc435dbe3c2d2d38bb14d20fcf6cf36fd96db84f801fc1e7803b7f652557d2",
    },
}


def _pinned_design():
    """The dgp1/sbr design of PINNED_DRAWS with every model fitted."""
    latent = generate(DgpSpec("dgp1", 200), np.random.default_rng(31))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(32))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    models = [fit_adjustment(m, ds, pilot, grid) for m in PINNED_DRAWS["estimated"]]
    return ds, grid, models


# How each pinned π mode calls the estimator: estimated, or fixed at 1/2.
_PI_MODES = {"estimated": {}, "fixed": {"fixed_pi": 0.5}}


def _unit_point(ds, model, grid, pi_mode):
    """The unit-weight estimate of each π mode: ``qte``, or at π fixed at 1/2
    the brute-force argmin of each arm problem."""
    if pi_mode == "estimated":
        return qte(ds, model, grid)
    adj, ones, half = model.evaluate_all(grid, ds), np.ones(ds.n), np.full(ds.n_strata, 0.5)
    q1, q0 = (np.array([brute_force_arm(arm, ds, ones, half, adj[arm][:, j], tau)
                        for j, tau in enumerate(grid)]) for arm in (1, 0))
    return QteEstimate(tuple(grid), q1, q0)


@pytest.mark.parametrize("pi_mode", ["estimated", "fixed"])
def test_shared_stream_draws_equal_single_model_draws(pi_mode):
    ds, grid, models = _pinned_design()
    methods = tuple(PINNED_DRAWS[pi_mode])
    kw = _PI_MODES[pi_mode]
    shared = run_bootstrap(ds, models, grid, 40, np.random.default_rng(33), **kw)
    assert isinstance(shared, BootstrapDrawSet)
    assert len(shared) == len(methods)
    assert shared.n_resampled == 0
    for method, model, draws in zip(methods, models, shared):
        solo = run_bootstrap(ds, [model], grid, 40, np.random.default_rng(33), **kw)
        (alone,) = solo
        assert draws.draws.shape == (40, 3)
        assert np.array_equal(draws.draws, alone.draws)
        assert solo.n_resampled == shared.n_resampled
        point = _unit_point(ds, model, grid, pi_mode)  # what the draws carry as .point
        for got in (draws.point, alone.point):
            assert got.taus == point.taus
            assert np.array_equal(got.q1, point.q1) and np.array_equal(got.q0, point.q0)
        digest = hashlib.sha256(np.ascontiguousarray(draws.draws).tobytes()).hexdigest()
        assert digest == PINNED_DRAWS[pi_mode][method], method


def test_shared_stream_counts_resampled_draws_once(monkeypatch):
    ds, grid = _fixture()
    real = bt.draw_weights
    calls = []

    def flaky(n, rng, out=None):
        calls.append(n)
        w = real(n, rng, out=out)
        if len(calls) % 3 == 1:  # some draws zero every weight
            w[:] = 0.0
        return w

    monkeypatch.setattr(bt, "draw_weights", flaky)
    model = _fit_none(grid)
    shared = run_bootstrap(ds, [model, model], grid, 4, np.random.default_rng(2))
    # One block of 4 replicates, all zeroed; then one redraw each, the third
    # of which is zeroed and redrawn again: shared by both models.
    assert shared.n_resampled == 5
    assert calls == [4 * ds.n] + [ds.n] * 5
    assert np.array_equal(shared[0].draws, shared[1].draws)
    with pytest.raises(DataValidationError):
        run_bootstrap(ds, [], grid, 4, np.random.default_rng(2))


# Block budgets giving b = 1, b = 7 (B = 25 leaves a last block of 4) and
# one block of all B replicates.
_BLOCK_BUDGETS = (1, 7 * 200, 2**30)


@pytest.mark.parametrize("pi_mode", ["estimated", "fixed"])
def test_one_row_blocks_give_every_model_its_single_model_draws(monkeypatch, pi_mode):
    # At b = 1 (the path of n > 16,384) every replicate is a one-row block,
    # solved by matrix-vector products in which na has no columns; alone,
    # na's solver holds no adjustment matrix at all.
    ds, grid, models = _pinned_design()
    methods = tuple(PINNED_DRAWS[pi_mode])
    assert "na" in methods
    kw = _PI_MODES[pi_mode]
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", 1)
    shared = run_bootstrap(ds, models, grid, 25, np.random.default_rng(33), **kw)
    for method, model, draws in zip(methods, models, shared, strict=True):
        (alone,) = run_bootstrap(ds, [model], grid, 25, np.random.default_rng(33), **kw)
        assert np.array_equal(draws.draws, alone.draws), method
        assert np.array_equal(draws.point.q1, alone.point.q1), method
        assert np.array_equal(draws.point.q0, alone.point.q0), method


def test_bootstrap_holds_one_adjustment_matrix_per_arm():
    # The solver gathers each arm's n x T adjustments straight from the
    # models' prob, so a one-row-block bootstrap of K' lp models at 41 taus
    # peaks at their 2K' matrices, O(n) vectors and one gather chunk, also
    # when K' > 1 makes each model's block a strided view; the unadjusted
    # pilot allocates no n x T array at all.
    n = 20_000
    latent = generate(DgpSpec("dgp1", n), np.random.default_rng(3))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(4))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of([round(0.1 + 0.02 * k, 3) for k in range(41)])
    model = fit_adjustment("lp", ds, pilot_quantiles(ds, grid), grid)
    assert bt._BLOCK_FLOATS // n == 1
    n_by_t, vector = n * len(grid) * 8, n * 8
    chunk = est._GATHER_ROWS * len(grid) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pilot_quantiles(ds, grid)
        assert tracemalloc.get_traced_memory()[1] - start < n_by_t
        for models in ([model], [model, model]):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_bootstrap(ds, models, grid, 4, np.random.default_rng(5))
            boot_peak = tracemalloc.get_traced_memory()[1] - start
            assert boot_peak <= 2 * len(models) * n_by_t + 16 * vector + chunk, len(models)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pi_mode", ["estimated", "fixed"])
def test_draws_do_not_depend_on_block_size(monkeypatch, pi_mode):
    ds, grid, models = _pinned_design()
    runs = []
    for budget in _BLOCK_BUDGETS:
        monkeypatch.setattr(bt, "_BLOCK_FLOATS", budget)
        runs.append(run_bootstrap(ds, models, grid, 25, np.random.default_rng(33),
                                  **_PI_MODES[pi_mode]))
    for run in runs[1:]:
        assert run.n_resampled == runs[0].n_resampled
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got.draws, want.draws)
            assert np.array_equal(got.point.q1, want.point.q1)
            assert np.array_equal(got.point.q0, want.point.q0)


@pytest.mark.parametrize("budget", ["1", "7n", "2^30"])
def test_each_replicate_is_solved_with_its_own_weighted_fractions(monkeypatch, budget):
    # The block bincount must hand the solver, row by row, the treated
    # fractions n1w / nw of that row's own weights, bit for bit, resampled
    # rows included; the unit-weight point solve gets the count fractions.
    # A row is in the solver's layout: column j weighs dataset row perm[j].
    ds, grid = _fixture(seed=4, n=60, taus=(0.25, 0.5, 0.75))
    real_solve, real_draw = est._Solver.solve, bt.draw_weights
    seen, calls = [], []

    def spy(self, xi, pis):
        seen.append((xi.copy(), pis.copy(), self._perm))
        return real_solve(self, xi, pis)

    def flaky(n, rng, out=None):  # some draws, whole blocks or redraws, zero every weight
        calls.append(n)
        w = real_draw(n, rng, out=out)
        if len(calls) % 5 == 1:
            w[:] = 0.0
        return w

    monkeypatch.setattr(est._Solver, "solve", spy)
    monkeypatch.setattr(bt, "draw_weights", flaky)
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", {"1": 1, "7n": 7 * ds.n, "2^30": 2**30}[budget])
    boot = run_bootstrap(ds, [_fit_none(grid)], grid, 25, np.random.default_rng(8))
    assert boot.n_resampled > 0
    (unit, unit_pis, _), *blocks = seen
    assert np.array_equal(unit, np.ones((1, ds.n)))
    assert np.array_equal(unit_pis, ds.strata.pi_hat[None])
    assert len(blocks) == {"1": 25, "7n": 4, "2^30": 1}[budget]
    rows = [(x, p, perm) for xi, pis, perm in blocks for x, p in zip(xi, pis, strict=True)]
    assert len(rows) == 25
    for x, p, perm in rows:
        w = np.empty(ds.n)
        w[perm] = x
        n1w, nw = weighted_arm_counts(ds, w)
        assert np.array_equal(p, n1w / nw)


def test_resampled_rows_of_later_blocks_do_not_depend_on_block_size(monkeypatch):
    # The first draw of replicates 10, 11 and 24 zeroes the treated units of
    # stratum 0.  With b = 7 they are rows 3 and 4 of the second block and
    # row 3 of the partial last block; each is redrawn, in replicate order,
    # from the one child stream.
    ds, grid, models = _pinned_design()
    real = bt.draw_weights
    # Layout columns of stratum 0's treated units: the treated come first.
    zeroed = np.flatnonzero(ds.s[arm_sorted_rows(ds, 1)] == 0)
    runs, redraws = [], []
    for budget in _BLOCK_BUDGETS:
        main = np.random.default_rng(33)
        drawn = [0]  # replicates drawn from the main stream so far

        def flaky(n, rng, out=None):
            w = real(n, rng, out=out)
            if rng is not main:
                redraws.append(n)
                return w
            block = w.reshape(-1, ds.n)
            for i in range(len(block)):
                if drawn[0] + i in (10, 11, 24):
                    block[i, zeroed] = 0.0
            drawn[0] += len(block)
            return w

        monkeypatch.setattr(bt, "draw_weights", flaky)
        monkeypatch.setattr(bt, "_BLOCK_FLOATS", budget)
        redraws.clear()
        runs.append(run_bootstrap(ds, models, grid, 25, main))
        assert drawn == [25]
        assert redraws == [ds.n] * 3
        assert runs[-1].n_resampled == 3
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got.draws, want.draws)
    # The redrawn replicates differ from an undisturbed run; the others match.
    monkeypatch.setattr(bt, "draw_weights", real)
    plain = run_bootstrap(ds, models, grid, 25, np.random.default_rng(33))
    for got, want in zip(runs[0], plain):
        same = np.all(got.draws == want.draws, axis=1)
        assert same[[r for r in range(25) if r not in (10, 11, 24)]].all()
        assert not same[[10, 11, 24]].any()


@pytest.mark.parametrize("budget", ["1", "7n", "2^30"])
def test_pipelined_draws_equal_a_serial_solve_of_the_same_blocks(monkeypatch, budget):
    # The reference draws each block of the stream, forms its treated
    # fractions row by row and solves it before drawing the next, on the
    # calling thread.  A short switch interval makes the helper thread
    # interleave with the next block's draw as often as it can.
    ds, grid, models = _pinned_design()
    B, n = 25, ds.n
    floats = {"1": 1, "7n": 7 * n, "2^30": 2**30}[budget]
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", floats)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        boot = run_bootstrap(ds, models, grid, B, np.random.default_rng(33))
    finally:
        sys.setswitchinterval(interval)
    assert boot.n_resampled == 0
    solver = est._model_solver(ds, models, grid)
    rng, size = np.random.default_rng(33), min(B, max(1, floats // n))
    want = []
    for start in range(0, B, size):
        xi = rng.exponential(1.0, min(size, B - start) * n).reshape(-1, n)
        pis = []
        for row in xi:
            w = np.empty(n)
            w[solver._perm] = row
            n1w, nw = weighted_arm_counts(ds, w)
            pis.append(n1w / nw)
        q1, q0 = solver.solve(xi, np.array(pis))
        want.append((q1 - q0).reshape(len(xi), len(models), len(grid)))
    want = np.concatenate(want).transpose(1, 0, 2)
    for got, ref in zip(boot, want, strict=True):
        assert np.array_equal(got.draws, ref)


def _failing_solve(monkeypatch, block):
    """Make the solve of bootstrap block ``block`` (0-based) raise."""
    real, calls = est._Solver.solve, []

    def solve(self, xi, pis):
        calls.append(len(xi))
        if len(calls) == block + 2:  # the unit-weight point solve comes first
            raise NumericalError(f"solve of block {block}")
        return real(self, xi, pis)

    monkeypatch.setattr(est._Solver, "solve", solve)


def _collapsing_draws(monkeypatch, replicate):
    """Make every draw of ``replicate``, the first and each redraw, zero
    every weight; one replicate per block."""
    real, drawn = bt.draw_weights, [0]

    def draw(n, rng, out=None):
        w = real(n, rng, out=out)
        if drawn[0] < replicate:
            drawn[0] += 1
        else:
            w[:] = 0.0
        return w

    monkeypatch.setattr(bt, "draw_weights", draw)


@pytest.mark.parametrize("failure", ["solve", "resample"])
def test_no_helper_thread_outlives_run_bootstrap(monkeypatch, failure):
    # A solve failing on block 2, or a draw collapsing at replicate 3, ends
    # the call; the threads alive before it are the threads alive after.
    ds, grid = _fixture()
    model = _fit_none(grid)
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", 1)
    before = threading.active_count()
    run_bootstrap(ds, [model], grid, 6, np.random.default_rng(5))
    assert threading.active_count() == before
    if failure == "solve":
        _failing_solve(monkeypatch, 2)
    else:
        _collapsing_draws(monkeypatch, 3)
    with pytest.raises(NumericalError, match={"solve": "solve of block 2",
                                              "resample": "replicate 3"}[failure]):
        run_bootstrap(ds, [model], grid, 6, np.random.default_rng(5))
    assert threading.active_count() == before


@pytest.mark.parametrize("solve_block, resample_replicate", [(2, 3), (3, 2)])
def test_the_first_failing_replicate_is_reported(monkeypatch, solve_block, resample_replicate):
    # While block k is solved, block k + 1 is drawn: whichever of the two
    # fails first in replicate order is the error raised.
    ds, grid = _fixture()
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", 1)
    _failing_solve(monkeypatch, solve_block)
    _collapsing_draws(monkeypatch, resample_replicate)
    with pytest.raises(NumericalError) as err:
        run_bootstrap(ds, [_fit_none(grid)], grid, 6, np.random.default_rng(5))
    if solve_block < resample_replicate:
        assert str(err.value) == f"solve of block {solve_block}"
    else:
        assert str(err.value).startswith(f"replicate {resample_replicate}:")


def test_draw_spread_shrinks_with_root_n():
    grid = QuantileGrid.of([0.5])
    ratios = []
    for rep in range(50):
        sds = []
        for n in (200, 800):
            rng = np.random.default_rng(1000 * rep + n)
            ds = make_stratified_dataset(rng, n=n, k=2, y=rng.normal(0, 1, n))
            (draws,) = run_bootstrap(ds, [_fit_none(grid)], grid, 60, np.random.default_rng(rep))
            sds.append(draws.draws[:, 0].std())
        ratios.append(sds[1] / sds[0])
    assert 0.4 <= np.mean(ratios) <= 0.6  # n^{-1/2} rate: expect about 0.5


@pytest.mark.parametrize("B", [2, 3, 40, 201, 400])
def test_bootstrap_se_of_a_matrix_is_the_per_column_loop(B):
    rng = np.random.default_rng(B)
    d = np.column_stack([
        rng.normal(size=B),
        np.round(rng.normal(size=B), 1),  # ties
        np.full(B, 2.5),  # constant: zero SE
        rng.integers(0, 3, B).astype(float),  # mostly ties
        rng.standard_cauchy(B) * 1e6,
    ])
    got = bootstrap_se(d)
    assert got.shape == (d.shape[1],)
    assert got.tolist() == [bootstrap_se(d[:, j]) for j in range(d.shape[1])]
    assert got[2] == 0.0


def test_bootstrap_se_normal_oracle():
    draws = np.random.default_rng(5).standard_normal(1_000_000)
    assert bootstrap_se(draws) == pytest.approx(1.0, abs=0.01)


def test_bootstrap_se_degenerate_and_affine():
    assert bootstrap_se(np.full(10, 3.3)) == 0.0
    draws = np.random.default_rng(6).standard_normal(500)
    base = bootstrap_se(draws)
    assert bootstrap_se(-2.0 * draws + 5.0) == pytest.approx(2.0 * base, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    a=st.floats(-10, 10, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
    b=st.floats(-100, 100, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_bootstrap_se_affine_equivariance(a, b, seed):
    draws = np.random.default_rng(seed).standard_normal(64)
    assert bootstrap_se(a * draws + b) == pytest.approx(abs(a) * bootstrap_se(draws), rel=1e-9)


def test_pointwise_null_at_estimate_never_rejects():
    draws = np.random.default_rng(8).standard_normal(200)
    res = pointwise_test(1.7, draws, 0.05)
    assert res.rejects(1.7) is False


def test_pointwise_statistic_beyond_critical_rejects():
    draws = np.random.default_rng(9).standard_normal(400)
    se = bootstrap_se(draws)
    est = 0.0
    res = pointwise_test(est, draws, 0.05)
    assert res.rejects(est - 2.5 * se) is True  # 2.5 > 1.959964
    assert res.rejects(est - 1.5 * se) is False


def test_pointwise_ci_symmetric_about_estimate():
    draws = np.random.default_rng(10).standard_normal(300)
    res = pointwise_test(2.0, draws, 0.05)
    assert res.ci_lower + res.ci_upper == pytest.approx(4.0, abs=1e-10)


def test_pointwise_zero_se_equality_branch():
    res = pointwise_test(1.0, np.full(20, 9.9), 0.05)
    assert res.rejects(1.0) is False and res.se == 0.0
    assert res.rejects(1.1) is True


def test_difference_same_tau_degenerates():
    draws = np.random.default_rng(11).standard_normal(100)
    res = difference_test(1.0, 1.0, draws, draws, 0.05)
    assert res.estimate == 0.0 and res.se == 0.0
    assert res.rejects(0.0) is False


def test_difference_of_shifted_copies_has_near_zero_se():
    draws = np.random.default_rng(12).standard_normal(100)
    res = difference_test(2.0, 1.0, draws, draws - 1.0, 0.05)
    assert res.se == pytest.approx(0.0, abs=1e-14)  # only float cancellation dust


def test_difference_reduces_to_pointwise_on_difference_series():
    rng = np.random.default_rng(13)
    d1, d2 = rng.standard_normal(200), rng.standard_normal(200)
    a = difference_test(3.0, 1.0, d1, d2, 0.05)
    b = pointwise_test(2.0, d1 - d2, 0.05)
    assert (a.estimate, a.se, a.ci_lower, a.ci_upper, a.rejects(1.5)) == (
        b.estimate, b.se, b.ci_lower, b.ci_upper, b.rejects(1.5),
    )


def test_uniform_band_constant_draws_collapse():
    est = np.array([1.0, 2.0, 3.0])
    draws = np.tile([0.5, 1.5, 2.5], (50, 1))
    band = uniform_band(est, draws, 0.05)
    assert band.critical_value == 0.0
    assert np.array_equal(band.ci_lower, est)


def test_uniform_band_single_tau_matches_sup_rule():
    draws = np.random.default_rng(14).standard_normal((400, 1))
    band = uniform_band(np.array([0.0]), draws, 0.05)
    se = bootstrap_se(draws[:, 0])
    center = _empirical_quantile(draws[:, 0], 0.5)
    sups = np.abs((draws[:, 0] - center) / se)
    assert band.critical_value == _sup_critical_value(sups, 0.05)


def test_uniform_band_critical_value_monotone_in_alpha():
    draws = np.random.default_rng(15).standard_normal((500, 5))
    est = np.zeros(5)
    c = [uniform_band(est, draws, a).critical_value for a in (0.01, 0.05, 0.2)]
    assert c[0] >= c[1] >= c[2]


def test_uniform_band_reject_shift_invariance():
    rng = np.random.default_rng(16)
    draws = rng.standard_normal((300, 4))
    est = rng.normal(0, 1, 4)
    null = est + rng.normal(0, 0.5, 4)
    r1 = uniform_band(est, draws, 0.05).rejects(null)
    r2 = uniform_band(est + 7.0, draws + 7.0, 0.05).rejects(null + 7.0)
    assert r1 == r2
    # pointwise reject decisions are shift invariant too
    p1 = pointwise_test(est[0], draws[:, 0], 0.05).rejects(null[0])
    p2 = pointwise_test(est[0] + 7.0, draws[:, 0] + 7.0, 0.05).rejects(null[0] + 7.0)
    assert p1 == p2


def test_uniform_band_zero_se_column_excluded():
    rng = np.random.default_rng(17)
    draws = np.column_stack([rng.standard_normal(200), np.zeros(200)])
    with pytest.warns(UserWarning, match="zero bootstrap SE"):
        band = uniform_band(np.array([0.0, 1.0]), draws, 0.05)
    assert band.critical_value > 0
    assert band.ci_lower[1] == band.ci_upper[1] == 1.0


def test_uniform_band_null_function_decision():
    rng = np.random.default_rng(18)
    draws = rng.standard_normal((500, 3))
    est = np.zeros(3)
    band = uniform_band(est, draws, 0.05)
    assert band.rejects(np.array([0.1, -0.1, 0.0])) is False
    assert band.rejects(np.array([0.0, 0.0, 50.0])) is True


def test_one_result_decides_each_null_as_its_own_test_would():
    rng = np.random.default_rng(21)
    draws = rng.standard_normal((300, 3))
    est = np.array([0.1, -0.2, 0.3])
    for j in range(3):
        res = pointwise_test(est[j], draws[:, j], 0.05)
        edge = est[j] + res.critical_value * res.se
        for null in (est[j], est[j] + 0.1, est[j] - 5.0 * res.se, edge):
            wald = abs(est[j] - null) / bootstrap_se(draws[:, j]) >= res.critical_value
            assert res.rejects(null) == wald
    flat = pointwise_test(1.0, np.full(20, 9.9), 0.05)  # zero SE: equality check
    assert (flat.rejects(1.0), flat.rejects(1.1)) == (False, True)
    band = uniform_band(est, draws, 0.05)
    for null in (est, est + 0.05, est + np.array([0.0, 0.0, 10.0])):
        outside = np.any((null < band.ci_lower) | (null > band.ci_upper))
        assert band.rejects(null) == outside
    with pytest.raises(DataValidationError, match="grid length"):
        band.rejects(np.zeros(2))


@pytest.mark.parametrize("call, message", [
    (lambda: difference_test(1.0, 0.0, np.zeros(10), np.zeros(9)), "equal length"),
    (lambda: uniform_band(np.zeros(3), np.zeros(10)), "B x len"),
    (lambda: uniform_band(np.zeros(3), np.zeros((10, 2))), "B x len"),
    (lambda: uniform_band(np.zeros(2), np.zeros((1, 2))), "at least two bootstrap draws"),
], ids=["difference-lengths", "band-vector", "band-width", "band-one-draw"])
def test_difference_and_band_refuse_draws_of_the_wrong_shape(call, message):
    with pytest.raises(DataValidationError, match=message):
        call()


def test_wald_tests_of_every_model_equal_the_per_test_functions():
    # One quantile pass over every model's draws and differences must give,
    # bit for bit, the SEs, intervals and band of the public per-test
    # functions.  Rounded draws make ties; the second model has a constant
    # column (a zero SE, which warns) and the third is constant throughout.
    rng = np.random.default_rng(3)
    boot = []
    for scale in ([1.0, 1.0, 1.0], [0.1, 0.0, 0.1], [0.0, 0.0, 0.0]):
        draws = np.round(rng.normal(size=(201, 3)) * scale, 2)
        point = np.round(rng.normal(size=3), 3)
        boot.append(SimpleNamespace(draws=draws, point=SimpleNamespace(qte=point)))
    pairs = [(2, 0), (1, 0)]
    with pytest.warns(UserWarning, match="zero bootstrap SE"):
        got = bt._wald_tests(boot, 0.05, pairs, True)

    def fields(res):
        return [np.asarray(getattr(res, f)).tolist()
                for f in ("estimate", "se", "ci_lower", "ci_upper", "critical_value")]

    for results, b in zip(got, boot, strict=True):
        est, d = b.point.qte, b.draws
        want = [pointwise_test(est[j], d[:, j], 0.05) for j in range(3)]
        want += [difference_test(est[i], est[j], d[:, i], d[:, j], 0.05) for i, j in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want.append(uniform_band(est, d, 0.05))
        assert [fields(r) for r in results] == [fields(w) for w in want]


def test_empirical_quantile_convention():
    x = np.arange(1.0, 6.0)  # ranks 1..5
    # rank nu*(B-1)+1 = 0.25*4+1 = 2 exactly: second order statistic
    assert _empirical_quantile(x, 0.25) == 2.0
    # interpolation between ranks
    assert _empirical_quantile(x, 0.3) == pytest.approx(2.2)


@pytest.mark.parametrize("alpha", [1e-16, 1e-300, 5e-324])
def test_critical_values_reject_alpha_whose_critical_value_is_infinite(alpha):
    # 1 - alpha/2 rounds to 1 here, and ndtri(1) is inf: an interval would
    # be written as Infinity.
    assert 1.0 - alpha / 2.0 == 1.0
    with pytest.raises(DataValidationError, match="infinite"):
        _normal_critical_values(alpha)
    assert np.all(np.isfinite(_normal_critical_values(3e-16)))


def test_critical_values_reject_alpha_outside_unit_interval():
    assert _normal_critical_values(0.05) == (-1.9599639845400538, 1.9599639845400536)
    assert _normal_critical_values(0.05) == pytest.approx(
        (norm.ppf(0.025), norm.ppf(0.975)), rel=1e-15, abs=0.0)
    draws = np.random.default_rng(19).standard_normal(50)
    for alpha in (0.0, 1.0, 2.0, -0.1, float("nan")):
        with pytest.raises(DataValidationError, match="alpha"):
            pointwise_test(0.0, draws, alpha)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1e-10])
def test_normal_quantiles_equal_scipy_stats_norm(alpha):
    # The package computes normal quantiles with statistics.NormalDist,
    # whose inv_cdf is within 1e-15 relative of norm.ppf (scipy's ndtri).
    assert bt._NORMAL_SPREAD == 3.919927969080107
    assert bt._NORMAL_SPREAD == pytest.approx(
        norm.ppf(0.975) - norm.ppf(0.025), rel=1e-15, abs=0.0)
    lo, hi = _normal_critical_values(alpha)
    assert (lo, hi) == pytest.approx(
        (norm.ppf(alpha / 2.0), norm.ppf(1.0 - alpha / 2.0)), rel=1e-15, abs=0.0)
    assert type(lo) is type(hi) is float


def test_run_bootstrap_validation():
    ds, grid = _fixture()
    with pytest.raises(DataValidationError):
        run_bootstrap(ds, [_fit_none(grid)], grid, 1, np.random.default_rng(0))
    with pytest.raises(DataValidationError):
        bootstrap_se(np.array([1.0]))
