"""Acceptance gates: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The heavier Monte Carlo gates share module-scoped
fixtures; the whole module targets a commodity multi-core machine and stays
well inside its stated runtime budgets.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import (
    TableModel,
    brute_force_arm,
    estimated_pis,
    features_reference,
    fit_logit_cell,
    make_stratified_dataset,
    solve_arm,
)
from scipy.special import expit

from carqte import (
    Dataset,
    DgpSpec,
    LassoConfig,
    QuantileGrid,
    ScenarioSpec,
    SchemeSpec,
    bootstrap_se,
    fit_hd_lasso,
    fit_lp,
    generate,
    pilot_quantiles,
    qte,
    run_bootstrap,
    run_scenario,
    true_qte_oracle,
    uniform_band,
)
from carqte.adjust import _l1_kkt_residual
from carqte.bootstrap import sup_critical_value
from carqte.estimator import QteEstimate
from carqte.randomization import assign_bcd, assign_sbr, assign_srs, assign_wei

SEED = 20260808
GRID05 = QuantileGrid.of([0.5])


def _gate(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def truth05():
    rng = np.random.default_rng(0)
    truth = true_qte_oracle(DgpSpec("dgp1", 10_000), GRID05, mc_n=10_000, mc_reps=300, rng=rng)
    return truth


@pytest.fixture(scope="module")
def size_runs(truth05):
    """Criterion 3/4 scenarios: DGP (i), n=400, NA and LP, SRS and SBR."""
    out = {}
    start = time.perf_counter()
    for scheme in ("srs", "sbr"):
        spec = ScenarioSpec(
            dgp=DgpSpec("dgp1", 400),
            scheme=SchemeSpec(scheme),
            methods=("na", "lp"),
            reps=500,
            B=200,
            taus=GRID05,
            seed=SEED,
        )
        out[scheme] = run_scenario(spec, truth05)
    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_1_solver_matches_brute_force_oracle():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    taus = np.arange(0.1, 0.91, 0.1)
    failures = 0
    for trial in range(1000):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(3 * k, 41))
        ds = make_stratified_dataset(rng, n=n, k=k)
        xi = rng.exponential(1.0, n) if trial % 3 == 0 else np.ones(n)
        mhat = rng.normal(0.0, 1.5, n)
        tau = float(rng.choice(taus))
        pis = estimated_pis(ds, xi)
        for arm in (0, 1):
            got = solve_arm(ds, arm, tau, xi, mhat)
            want = brute_force_arm(arm, ds, xi, pis, mhat, tau)
            failures += got != want
    elapsed = time.perf_counter() - start
    _gate(
        1,
        failures == 0 and elapsed < 10.0,
        f"solver-oracle equivalence: {failures} failures over 1000 instances "
        f"(both arms), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_location_shift_invariance():
    rng = np.random.default_rng(SEED + 1)
    grid = QuantileGrid.of([0.3, 0.7])
    mismatches = 0
    for _ in range(200):
        ds = make_stratified_dataset(rng, n=50, k=2)
        model = TableModel({(a, t): rng.normal(0, 1, 50) for a in (0, 1) for t in grid})
        shifts = {(a, s): float(rng.normal(0, 5)) for a in (0, 1) for s in range(2)}
        shifted = model.shifted(ds, shifts)
        base = qte(ds, model, grid)
        moved = qte(ds, shifted, grid)
        (d1,) = run_bootstrap(ds, [model], grid, 25, np.random.default_rng(7))
        (d2,) = run_bootstrap(ds, [shifted], grid, 25, np.random.default_rng(7))
        if not (np.array_equal(base.qte, moved.qte) and np.array_equal(d1.draws, d2.draws)):
            mismatches += 1
    _gate(
        2,
        mismatches == 0,
        f"location-shift invariance: {mismatches} of 200 instances differed "
        "(estimates and all bootstrap draws bit-identical)",
    )


def test_criterion_3_size_gate(size_runs):
    sizes = {
        (scheme, m): size_runs[scheme].rows[(m, "pointwise@0.5")]["size"]
        for scheme in ("srs", "sbr")
        for m in ("na", "lp")
    }
    ok = all(0.02 <= v <= 0.09 for v in sizes.values())
    budget_ok = size_runs["elapsed"] < 900.0
    detail = ", ".join(f"{s}/{m}={v:.3f}" for (s, m), v in sizes.items())
    _gate(
        3,
        ok and budget_ok,
        f"empirical size in [0.02, 0.09]: {detail}; "
        f"runtime {size_runs['elapsed']:.0f}s (< 900s)",
    )


def test_criterion_4_power_ordering(size_runs):
    gaps = {}
    for scheme in ("srs", "sbr"):
        rows = size_runs[scheme].rows
        gaps[scheme] = (
            rows[("lp", "pointwise@0.5")]["power"] - rows[("na", "pointwise@0.5")]["power"]
        )
    ok = all(g >= 0.03 for g in gaps.values())
    _gate(
        4,
        ok,
        "power(LP) - power(NA) >= 0.03: "
        + ", ".join(f"{s}: {g:+.3f}" for s, g in gaps.items()),
    )


def test_criterion_5_se_reduction(truth05):
    spec = ScenarioSpec(
        dgp=DgpSpec("dgp1", 400),
        scheme=SchemeSpec("srs"),
        methods=("na", "lpmlx"),
        reps=200,
        B=200,
        taus=GRID05,
        seed=SEED,
    )
    res = run_scenario(spec, truth05)
    se_na = res.rows[("na", "pointwise@0.5")]["mean_se"]
    se_lx = res.rows[("lpmlx", "pointwise@0.5")]["mean_se"]
    ratio = se_lx / se_na
    _gate(
        5,
        ratio <= 0.95,
        f"mean bootstrap SE ratio LPMLX/NA = {ratio:.3f} (<= 0.95; "
        f"{se_lx:.3f} vs {se_na:.3f})",
    )


def test_criterion_6_fixed_pi_bootstrap_is_conservative(truth05, size_runs):
    spec = ScenarioSpec(
        dgp=DgpSpec("dgp1", 400),
        scheme=SchemeSpec("sbr"),
        methods=("na",),
        reps=500,
        B=200,
        taus=GRID05,
        seed=SEED,
        fixed_pi=0.5,
    )
    res = run_scenario(spec, truth05)
    fixed_size = res.rows[("na", "pointwise@0.5")]["size"]
    estimated_size = size_runs["sbr"].rows[("na", "pointwise@0.5")]["size"]
    _gate(
        6,
        fixed_size <= 0.035 and estimated_size >= 0.02,
        f"fixed-pi size {fixed_size:.3f} (<= 0.035) vs estimated-pi size "
        f"{estimated_size:.3f} (>= 0.02)",
    )


def test_criterion_7_lasso_correctness():
    # (a) KKT residuals on every cell of a high-dimensional run
    latent = generate(DgpSpec("dgphd", 400), np.random.default_rng(SEED + 2))
    a = assign_sbr(latent.s, SchemeSpec("sbr"), np.random.default_rng(SEED + 3))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    pilot = pilot_quantiles(ds, grid)
    cfg = LassoConfig(forced_support=(1,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_hd_lasso(ds, pilot, grid, cfg)
    H = features_reference("lasso", ds.x)
    worst = 0.0
    n_cells = 0
    forced_ok = True
    for (arm, s, ti), theta in model.diagnostics["hd_theta"].items():
        rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
        labels = (ds.y[rows] <= pilot.q(arm, grid.taus[ti])).astype(float)
        lam = model.diagnostics["hd_lam"][(arm, s, ti)]
        worst = max(worst, _l1_kkt_residual(H[rows], labels, theta, lam))
        forced_ok &= 1 in model.support[(arm, s, ti)]
        n_cells += 1

    # (b) planted-signal recovery across 20 seeds
    recovered = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, p = 200, 20
        x = rng.normal(0, 1, (n, p))
        x[:, 1] = x[:, 0]
        arm_v = np.tile([0, 1], n // 2)
        y = 4.0 * x[:, 0] + 0.3 * rng.normal(0, 1, n)
        dsp = Dataset.from_arrays(y, arm_v, np.zeros(n, int), x)
        pil = QteEstimate(
            (0.5,), np.array([np.median(y[arm_v == 1])]), np.array([np.median(y[arm_v == 0])])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = fit_hd_lasso(dsp, pil, GRID05, LassoConfig(forced_support=()))
        # dictionary columns 1 and 2 are the planted signal and its duplicate
        recovered += all({1, 2} & set(m.support[(arm, 0, 0)]) for arm in (0, 1))
    _gate(
        7,
        worst <= 1e-6 and recovered == 20 and forced_ok and n_cells >= 24,
        f"lasso: worst KKT residual {worst:.2e} over {n_cells} cells (<= 1e-6), "
        f"planted-signal recovery {recovered}/20, forced support always kept",
    )


def test_criterion_8_scheme_invariants():
    # SBR: |D_n(s)| < 1 in every stratum, every call
    rng = np.random.default_rng(SEED + 4)
    sbr_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 300))
        strata = rng.integers(0, 4, n)
        pi = float(rng.uniform(0.2, 0.8))
        a = assign_sbr(strata, SchemeSpec("sbr", pi=pi), rng)
        for s in np.unique(strata):
            mask = strata == s
            sbr_ok &= abs(float(np.sum(a[mask] - pi))) < 1.0

    # WEI and BCD: mean |D_n(s)/n(s)| at n=5000 over 100 seeds below 0.05
    means = {}
    for name, fn in (("wei", assign_wei), ("bcd", assign_bcd)):
        spec = SchemeSpec(name)
        vals = []
        for seed in range(100):
            strata = np.random.default_rng(10_000 + seed).integers(0, 2, 5000)
            a = fn(strata, spec, np.random.default_rng(seed))
            for s in (0, 1):
                mask = strata == s
                vals.append(abs(np.sum(a[mask] - 0.5)) / mask.sum())
        means[name] = float(np.mean(vals))

    # SRS: realized fractions within 3 binomial SEs of the targets
    n = 100_000
    a = assign_srs(np.zeros(n, int), SchemeSpec("srs"), np.random.default_rng(SEED + 5))
    srs_ok = abs(a.mean() - 0.5) < 3 * np.sqrt(0.25 / n)
    strata2 = np.random.default_rng(SEED + 6).integers(0, 2, 40_000)
    a2 = assign_srs(strata2, SchemeSpec("srs", pi={0: 0.3, 1: 0.7}), np.random.default_rng(SEED + 7))
    for s, target in ((0, 0.3), (1, 0.7)):
        mask = strata2 == s
        srs_ok &= abs(a2[mask].mean() - target) < 3 * np.sqrt(target * (1 - target) / mask.sum())

    _gate(
        8,
        sbr_ok and means["wei"] < 0.05 and means["bcd"] < 0.05 and srs_ok,
        f"SBR |D|<1 always: {sbr_ok}; mean |D/n| wei={means['wei']:.4f}, "
        f"bcd={means['bcd']:.4f} (< 0.05); SRS within 3-SE bands: {srs_ok}",
    )


def test_criterion_9_numerical_fit_properties():
    rng = np.random.default_rng(SEED + 8)
    # logistic score max-norm on non-degenerate cells
    score_ok = True
    worst_score = 0.0
    for _ in range(20):
        n = int(rng.integers(40, 120))
        H = np.column_stack([np.ones(n), rng.normal(0, 1, (n, 2))])
        y = (rng.uniform(size=n) < expit(H @ rng.normal(0, 0.7, 3))).astype(float)
        if y.min() == y.max():
            continue
        th, _, _ = fit_logit_cell(H, y)
        score = np.max(np.abs(H.T @ (y - expit(H @ th)) / n))
        worst_score = max(worst_score, score)
        score_ok &= score <= 1e-8

    # LP normal equations on every cell of a realistic fit
    ds = make_stratified_dataset(rng, n=160, k=2, d=2)
    pilot = pilot_quantiles(ds, GRID05)
    model = fit_lp(ds, pilot, GRID05)
    worst_resid = 0.0
    for arm, s, ti in zip(*np.nonzero(model.live)):
        th = model.coef[arm, s, ti]
        rows = np.flatnonzero((ds.a == arm) & (ds.s == s))
        wdot = ds.x[rows] - ds.x[rows].mean(axis=0)
        labels = (ds.y[rows] <= pilot.q(arm, 0.5)).astype(float)
        worst_resid = max(worst_resid, np.max(np.abs(wdot.T @ (labels - wdot @ th))))

    # bootstrap SE against the standard-normal oracle
    draws = np.random.default_rng(SEED + 9).standard_normal(1_000_000)
    se = bootstrap_se(draws)

    _gate(
        9,
        score_ok and worst_resid <= 1e-8 and abs(se - 1.0) < 0.01,
        f"logistic score max {worst_score:.2e} (<= 1e-8), LP residual max "
        f"{worst_resid:.2e} (<= 1e-8), bootstrap SE on 1e6 normals {se:.4f} "
        "(within 0.01 of 1)",
    )


def test_criterion_10_uniform_band_sanity():
    est = np.zeros(11)
    flat = uniform_band(est, np.tile(np.linspace(-1, 1, 11), (100, 1)), 0.05)
    constant_ok = flat.critical_value == 0.0

    rng = np.random.default_rng(SEED + 10)
    draws = rng.standard_normal((1000, 11))
    band = uniform_band(est, draws, 0.05)
    crit = band.critical_value
    in_range = 2.2 <= crit <= 3.2

    # direct max-of-Gaussians oracle: 95% quantile of sup of 11 independent
    # absolute normals, simulated afresh
    sim = np.abs(np.random.default_rng(SEED + 11).standard_normal((200_000, 11))).max(axis=1)
    oracle = sup_critical_value(sim, 0.05)
    close = abs(crit - oracle) < 0.25

    _gate(
        10,
        constant_ok and in_range and close,
        f"constant draws give critical value 0: {constant_ok}; iid-normal "
        f"critical value {crit:.3f} in [2.2, 3.2] and within 0.25 of the "
        f"simulated max-of-Gaussians oracle {oracle:.3f}",
    )
