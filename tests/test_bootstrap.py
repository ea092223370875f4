import hashlib

import numpy as np
import pytest
from conftest import make_stratified_dataset, weighted_arm_counts
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
    QuantileGrid,
    SchemeSpec,
    assign,
    bootstrap_se,
    difference_test,
    draw_weights,
    fit_adjustment,
    fit_none,
    generate,
    index_strata,
    pilot_quantiles,
    pointwise_test,
    qte,
    run_bootstrap,
    uniform_band,
)
from carqte.bootstrap import _normal_critical_values, empirical_quantile, sup_critical_value


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
    stt = index_strata(ds)
    grid = QuantileGrid.of(taus)
    return ds, stt, grid


def test_run_bootstrap_deterministic():
    ds, stt, grid = _fixture()
    model = fit_none(grid)
    (d1,) = run_bootstrap(ds, stt, [model], grid, 3, np.random.default_rng(11))
    (d2,) = run_bootstrap(ds, stt, [model], grid, 3, np.random.default_rng(11))
    assert d1.draws.shape == (3, 2)
    assert np.array_equal(d1.draws, d2.draws)


def test_all_ones_weights_reproduce_point_estimate(monkeypatch):
    ds, stt, grid = _fixture()
    model = fit_none(grid)
    point = qte(ds, stt, model, grid)
    monkeypatch.setattr(bt, "draw_weights", lambda n, rng: np.ones(n))
    (draws,) = run_bootstrap(ds, stt, [model], grid, 5, np.random.default_rng(0))
    assert np.array_equal(draws.draws, np.tile(point.qte, (5, 1)))
    # every inference product collapses to zero width
    res = pointwise_test(point.qte[0], draws.draws[:, 0], None, 0.05)
    assert res.se == 0.0 and res.ci_lower == res.ci_upper
    band = uniform_band(point.qte, draws.draws, 0.05)
    assert band.critical_value == 0.0
    assert np.array_equal(band.ci_lower, band.ci_upper)


def test_na_bootstrap_matches_from_scratch_rederivation():
    # Independent implementation of the unadjusted weighted bootstrap: for
    # each draw, recompute weighted treated fractions and take the smallest
    # arm outcome whose cumulative inverse-propensity mass reaches tau*total.
    ds, stt, grid = _fixture(seed=21, n=50, taus=(0.25, 0.5, 0.75))
    model = fit_none(grid)
    B = 8
    (draws,) = run_bootstrap(ds, stt, [model], grid, B, np.random.default_rng(17))
    streams = np.random.default_rng(17).spawn(B)
    for b, stream in enumerate(streams):
        xi = stream.exponential(1.0, ds.n)
        n1w = np.bincount(ds.s, weights=xi * ds.a, minlength=stt.n_strata)
        nw = np.bincount(ds.s, weights=xi, minlength=stt.n_strata)
        piw = n1w / nw
        for j, tau in enumerate(grid):
            qs = []
            for arm in (1, 0):
                rows = np.flatnonzero(ds.a == arm)
                denom = piw[ds.s[rows]] if arm == 1 else 1.0 - piw[ds.s[rows]]
                w = xi[rows] / denom
                order = np.argsort(ds.y[rows])
                cum = np.cumsum(w[order])
                k = int(np.searchsorted(cum, tau * cum[-1], side="left"))
                qs.append(ds.y[rows][order][min(k, len(rows) - 1)])
            assert draws.draws[b, j] == qs[0] - qs[1]


# sha256 of each model's B=40 draw matrix from single-model run_bootstrap
# calls on the design below, recorded before the models shared one solve pass
# (numpy 2.4, scipy 1.17, OpenBLAS 0.3.31).  The lpml/lpmlx values were
# re-recorded when probability columns with a cell sd <= 1e-8 started to
# count as constant (adjust._ZERO_SD); the other methods keep their values.
PINNED_DRAWS = {
    "estimated": {
        "na": "1022dfad5644df22a7f9ef2eb180624af2edadb6030570e7dbe1982050173cb2",
        "lp": "d5956aeebd56fbdf28c0a55ccf12aca6220f56e011d93be43b6aadeae73e872b",
        "ml": "d85b6f62f48feee1220ef43505d63ddad5523b6ed55d8c0d2024b60e8abb4e3c",
        "lpml": "d23f8c3965fa8e5ea4bdad467c30141621f324dfa331578b8f50a0b978879765",
        "mlx": "4bf21bf633df2d81b2dde64aa016998dd29f5ea24022982c0156a1d7b510e3f5",
        "lpmlx": "3ea0dfa1d93f3d22ac9f0c9b049508f35a08e6b34d7f9b27e47a5eb398e9ab69",
        "np": "01989ca1a9f11e8f203e803621f14a76e6a62e8599646f5643a600c3856c6906",
    },
    "fixed": {
        "na": "0f9b4cc4aae52d3de9f6b0c15bf7f5494a0d85de07478b9aaa0116997a621b09",
        "lp": "110fafcabf9fd08dcbefc91ebb4f233f9fdabb1e4153dbd8932f457365156fe0",
        "ml": "83429b8d95ede52f00c2c4dc51e19a179f4ccad8cf88383b12cbafa761b575eb",
        "lpml": "4e10474dfb31674e27c66facc40e1027bb294d274839a1e2cf0db76da2c2435e",
        "mlx": "91824838d980f49a9ec3294d7addcd8b2fe72e53f91f7745ae4ce6f521ec59f3",
        "lpmlx": "11bbd31449bd1c0c478190e53114ca6e637ae2a47638ab0a59710c728d494c5b",
        "np": "3475ea000878502ed00978a44c789df1eb5418b8a75659d74df67f923eecc424",
    },
}


def _pinned_design():
    """The dgp1/sbr design of PINNED_DRAWS with every model fitted."""
    latent = generate(DgpSpec("dgp1", 200), np.random.default_rng(31))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(32))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    stt = index_strata(ds)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, stt, grid)
    models = [fit_adjustment(m, ds, stt, pilot, grid) for m in PINNED_DRAWS["estimated"]]
    return ds, stt, grid, models


# How each pinned π mode calls the estimator: estimated, or fixed at 1/2.
_PI_MODES = {"estimated": {}, "fixed": {"fixed_pi": 0.5}}


@pytest.mark.parametrize("pi_mode", ["estimated", "fixed"])
def test_shared_stream_draws_equal_single_model_draws(pi_mode):
    ds, stt, grid, models = _pinned_design()
    methods = tuple(PINNED_DRAWS[pi_mode])
    kw = _PI_MODES[pi_mode]
    shared = run_bootstrap(ds, stt, models, grid, 40, np.random.default_rng(33), **kw)
    assert isinstance(shared, BootstrapDrawSet)
    assert len(shared) == len(methods)
    assert shared.n_resampled == 0
    for method, model, draws in zip(methods, models, shared):
        solo = run_bootstrap(ds, stt, [model], grid, 40, np.random.default_rng(33), **kw)
        (alone,) = solo
        assert draws.draws.shape == (40, 3)
        assert np.array_equal(draws.draws, alone.draws)
        assert solo.n_resampled == shared.n_resampled
        point = qte(ds, stt, model, grid, **kw)  # what the draws carry as .point
        for got in (draws.point, alone.point):
            assert got.taus == point.taus
            assert np.array_equal(got.q1, point.q1) and np.array_equal(got.q0, point.q0)
        digest = hashlib.sha256(np.ascontiguousarray(draws.draws).tobytes()).hexdigest()
        assert digest == PINNED_DRAWS[pi_mode][method], method


def test_shared_stream_counts_resampled_draws_once(monkeypatch):
    ds, stt, grid = _fixture()
    real = bt.draw_weights
    calls = []

    def flaky(n, rng):
        calls.append(n)
        w = real(n, rng)
        if len(calls) % 3 == 1:  # first try of some replicates zeroes every weight
            return np.zeros(n)
        return w

    monkeypatch.setattr(bt, "draw_weights", flaky)
    model = fit_none(grid)
    shared = run_bootstrap(ds, stt, [model, model], grid, 4, np.random.default_rng(2))
    assert shared.n_resampled == 2
    assert len(calls) == 6  # 4 replicates plus 2 resamples, shared by both models
    assert np.array_equal(shared[0].draws, shared[1].draws)
    with pytest.raises(DataValidationError):
        run_bootstrap(ds, stt, [], grid, 4, np.random.default_rng(2))


# Block budgets giving b = 1, b = 7 (B = 25 leaves a last block of 4) and
# one block of all B replicates.
_BLOCK_BUDGETS = (1, 7 * 200, 2**30)


@pytest.mark.parametrize("pi_mode", ["estimated", "fixed"])
def test_draws_do_not_depend_on_block_size(monkeypatch, pi_mode):
    ds, stt, grid, models = _pinned_design()
    runs = []
    for budget in _BLOCK_BUDGETS:
        monkeypatch.setattr(bt, "_BLOCK_FLOATS", budget)
        runs.append(run_bootstrap(ds, stt, models, grid, 25, np.random.default_rng(33),
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
    ds, stt, grid = _fixture(seed=4, n=60, taus=(0.25, 0.5, 0.75))
    real_solve, real_draw = est._Solver.solve, bt.draw_weights
    seen, calls = [], []

    def spy(self, xi, pis):
        seen.append((xi.copy(), pis.copy()))
        return real_solve(self, xi, pis)

    def flaky(n, rng):  # the first try of some replicates zeroes every weight
        calls.append(n)
        w = real_draw(n, rng)
        return np.zeros(n) if len(calls) % 5 == 1 else w

    monkeypatch.setattr(est._Solver, "solve", spy)
    monkeypatch.setattr(bt, "draw_weights", flaky)
    monkeypatch.setattr(bt, "_BLOCK_FLOATS", {"1": 1, "7n": 7 * ds.n, "2^30": 2**30}[budget])
    boot = run_bootstrap(ds, stt, [fit_none(grid)], grid, 25, np.random.default_rng(8))
    assert boot.n_resampled > 0
    (unit, unit_pis), *blocks = seen
    assert np.array_equal(unit, np.ones((1, ds.n)))
    assert np.array_equal(unit_pis, stt.pi_hat[None])
    assert len(blocks) == {"1": 25, "7n": 4, "2^30": 1}[budget]
    rows = [(x, p) for xi, pis in blocks for x, p in zip(xi, pis, strict=True)]
    assert len(rows) == 25
    for x, p in rows:
        n1w, nw = weighted_arm_counts(ds, x)
        assert np.array_equal(p, n1w / nw)


def test_resampled_rows_of_later_blocks_do_not_depend_on_block_size(monkeypatch):
    # The first draw of replicates 10, 11 and 24 zeroes the treated units of
    # stratum 0.  With b = 7 they are rows 3 and 4 of the second block and
    # row 3 of the partial last block; each is redrawn from its own stream.
    ds, stt, grid, models = _pinned_design()
    real = bt.draw_weights
    zeroed = (ds.a == 1) & (ds.s == 0)
    runs, calls = [], []
    for budget in _BLOCK_BUDGETS:
        seen = set()

        def flaky(n, rng):
            calls.append(n)
            w = real(n, rng)
            replicate = rng.bit_generator.seed_seq.spawn_key[-1]
            if replicate in (10, 11, 24) and replicate not in seen:
                seen.add(replicate)
                w[zeroed] = 0.0
            return w

        monkeypatch.setattr(bt, "draw_weights", flaky)
        monkeypatch.setattr(bt, "_BLOCK_FLOATS", budget)
        calls.clear()
        runs.append(run_bootstrap(ds, stt, models, grid, 25, np.random.default_rng(33)))
        assert len(calls) == 25 + 3
        assert runs[-1].n_resampled == 3
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got.draws, want.draws)
    # The redrawn replicates differ from an undisturbed run; the others match.
    monkeypatch.setattr(bt, "draw_weights", real)
    plain = run_bootstrap(ds, stt, models, grid, 25, np.random.default_rng(33))
    for got, want in zip(runs[0], plain):
        same = np.all(got.draws == want.draws, axis=1)
        assert same[[r for r in range(25) if r not in (10, 11, 24)]].all()


def test_draw_spread_shrinks_with_root_n():
    grid = QuantileGrid.of([0.5])
    ratios = []
    for rep in range(50):
        sds = []
        for n in (200, 800):
            rng = np.random.default_rng(1000 * rep + n)
            ds = make_stratified_dataset(rng, n=n, k=2, y=rng.normal(0, 1, n))
            stt = index_strata(ds)
            (draws,) = run_bootstrap(ds, stt, [fit_none(grid)], grid, 60,
                                  np.random.default_rng(rep))
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
    res = pointwise_test(1.7, draws, 1.7, 0.05)
    assert res.reject is False


def test_pointwise_statistic_beyond_critical_rejects():
    draws = np.random.default_rng(9).standard_normal(400)
    se = bootstrap_se(draws)
    est = 0.0
    res = pointwise_test(est, draws, est - 2.5 * se, 0.05)
    assert res.reject is True  # 2.5 > 1.959964
    res2 = pointwise_test(est, draws, est - 1.5 * se, 0.05)
    assert res2.reject is False


def test_pointwise_ci_symmetric_about_estimate():
    draws = np.random.default_rng(10).standard_normal(300)
    res = pointwise_test(2.0, draws, None, 0.05)
    assert res.ci_lower + res.ci_upper == pytest.approx(4.0, abs=1e-10)
    assert res.reject is None


def test_pointwise_zero_se_equality_branch():
    res = pointwise_test(1.0, np.full(20, 9.9), 1.0, 0.05)
    assert res.reject is False and res.se == 0.0
    res2 = pointwise_test(1.0, np.full(20, 9.9), 1.1, 0.05)
    assert res2.reject is True


def test_difference_same_tau_degenerates():
    draws = np.random.default_rng(11).standard_normal(100)
    res = difference_test(1.0, 1.0, draws, draws, 0.0, 0.05)
    assert res.estimate == 0.0 and res.se == 0.0
    assert res.reject is False


def test_difference_of_shifted_copies_has_near_zero_se():
    draws = np.random.default_rng(12).standard_normal(100)
    res = difference_test(2.0, 1.0, draws, draws - 1.0, None, 0.05)
    assert res.se == pytest.approx(0.0, abs=1e-14)  # only float cancellation dust


def test_difference_reduces_to_pointwise_on_difference_series():
    rng = np.random.default_rng(13)
    d1, d2 = rng.standard_normal(200), rng.standard_normal(200)
    a = difference_test(3.0, 1.0, d1, d2, 1.5, 0.05)
    b = pointwise_test(2.0, d1 - d2, 1.5, 0.05)
    assert (a.estimate, a.se, a.ci_lower, a.ci_upper, a.reject) == (
        b.estimate, b.se, b.ci_lower, b.ci_upper, b.reject,
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
    center = empirical_quantile(draws[:, 0], 0.5)
    sups = np.abs((draws[:, 0] - center) / se)
    assert band.critical_value == sup_critical_value(sups, 0.05)


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
    r1 = uniform_band(est, draws, 0.05, null).reject
    r2 = uniform_band(est + 7.0, draws + 7.0, 0.05, null + 7.0).reject
    assert r1 == r2
    # pointwise reject decisions are shift invariant too
    p1 = pointwise_test(est[0], draws[:, 0], null[0], 0.05).reject
    p2 = pointwise_test(est[0] + 7.0, draws[:, 0] + 7.0, null[0] + 7.0, 0.05).reject
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
    inside = uniform_band(est, draws, 0.05, np.array([0.1, -0.1, 0.0]))
    far = uniform_band(est, draws, 0.05, np.array([0.0, 0.0, 50.0]))
    assert inside.reject is False
    assert far.reject is True


def test_one_result_decides_each_null_as_its_own_test_would():
    rng = np.random.default_rng(21)
    draws = rng.standard_normal((300, 3))
    est = np.array([0.1, -0.2, 0.3])
    for j in range(3):
        res = pointwise_test(est[j], draws[:, j], None, 0.05)
        assert res.reject is None
        edge = est[j] + res.critical_value * res.se
        for null in (est[j], est[j] + 0.1, est[j] - 5.0 * res.se, edge):
            assert res.rejects(null) == pointwise_test(est[j], draws[:, j], null, 0.05).reject
    flat = pointwise_test(1.0, np.full(20, 9.9), None, 0.05)  # zero SE: equality check
    assert (flat.rejects(1.0), flat.rejects(1.1)) == (False, True)
    band = uniform_band(est, draws, 0.05)
    for null in (est, est + 0.05, est + np.array([0.0, 0.0, 10.0])):
        assert band.rejects(null) == uniform_band(est, draws, 0.05, null).reject
    with pytest.raises(DataValidationError, match="grid length"):
        band.rejects(np.zeros(2))


def test_empirical_quantile_convention():
    x = np.arange(1.0, 6.0)  # ranks 1..5
    # rank nu*(B-1)+1 = 0.25*4+1 = 2 exactly: second order statistic
    assert empirical_quantile(x, 0.25) == 2.0
    # interpolation between ranks
    assert empirical_quantile(x, 0.3) == pytest.approx(2.2)


@pytest.mark.parametrize("alpha", [1e-16, 1e-300, 5e-324])
def test_critical_values_reject_alpha_whose_critical_value_is_infinite(alpha):
    # 1 - alpha/2 rounds to 1 here, and ndtri(1) is inf: an interval would
    # be written as Infinity.
    assert 1.0 - alpha / 2.0 == 1.0
    with pytest.raises(DataValidationError, match="infinite"):
        _normal_critical_values(alpha)
    assert np.all(np.isfinite(_normal_critical_values(3e-16)))


def test_critical_values_reject_alpha_outside_unit_interval():
    assert _normal_critical_values(0.05) == (norm.ppf(0.025), norm.ppf(0.975))
    draws = np.random.default_rng(19).standard_normal(50)
    for alpha in (0.0, 1.0, 2.0, -0.1, float("nan")):
        with pytest.raises(DataValidationError, match="alpha"):
            pointwise_test(0.0, draws, 0.0, alpha)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1e-10])
def test_normal_quantiles_equal_scipy_stats_norm(alpha):
    # The package computes normal quantiles with scipy.special.ndtri, which
    # is what norm.ppf calls; the values must match bit for bit.
    assert bt._NORMAL_SPREAD == norm.ppf(0.975) - norm.ppf(0.025)
    lo, hi = _normal_critical_values(alpha)
    assert (lo, hi) == (norm.ppf(alpha / 2.0), norm.ppf(1.0 - alpha / 2.0))
    assert type(lo) is type(norm.ppf(alpha / 2.0))


def test_run_bootstrap_validation():
    ds, stt, grid = _fixture()
    with pytest.raises(DataValidationError):
        run_bootstrap(ds, stt, [fit_none(grid)], grid, 1, np.random.default_rng(0))
    with pytest.raises(DataValidationError):
        bootstrap_se(np.array([1.0]))
