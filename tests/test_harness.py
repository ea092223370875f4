import time

import numpy as np
import pytest

import carqte.adjust as adjust
import carqte.harness as harness

from carqte import (
    DataValidationError,
    DgpSpec,
    NumericalError,
    QuantileGrid,
    ScenarioSpec,
    SchemeSpec,
    emit_table,
    run_scenario,
)
from carqte.harness import _result_records
from conftest import parse_table


def _tiny_spec(**overrides):
    base = dict(
        dgp=DgpSpec("dgp1", 120),
        scheme=SchemeSpec("srs"),
        methods=("na", "lp"),
        reps=4,
        B=40,
        taus=QuantileGrid.of([0.25, 0.75]),
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


TRUTH2 = np.array([0.6, 1.4])  # placeholder truths for the two grid points


def test_repeat_runs_are_byte_identical():
    spec = _tiny_spec()
    r1 = run_scenario(spec, TRUTH2)
    r2 = run_scenario(spec, TRUTH2)
    assert emit_table(r1) == emit_table(r2)
    assert r1.rows == r2.rows


def test_zero_delta_makes_power_equal_size():
    spec = _tiny_spec(delta=0.0)
    res = run_scenario(spec, TRUTH2)
    for row in res.rows.values():
        assert row["size"] == row["power"]


def test_rates_are_decision_means_with_mcse():
    spec = _tiny_spec()
    res = run_scenario(spec, TRUTH2)
    for row in res.rows.values():
        assert 0.0 <= row["size"] <= 1.0
        assert 0.0 <= row["power"] <= 1.0
        p = row["size"]
        assert row["size_mcse"] == pytest.approx(np.sqrt(p * (1 - p) / row["reps"]))
    # three tests per method on a 2-point grid: pointwise x2, diff, uniform
    tests = {k[1] for k in res.rows}
    assert tests == {"pointwise@0.25", "pointwise@0.75", "diff(0.75,0.25)", "uniform"}


def test_emit_parse_round_trip():
    res = run_scenario(_tiny_spec(), TRUTH2)
    text = emit_table(res)
    assert parse_table(text) == _result_records(res)
    assert parse_table("") == []


def test_worker_count_does_not_change_results():
    # Three groups, the last one partial: the grouping is fixed by rep index.
    reps = 2 * harness._REP_GROUP + 1
    spec1 = _tiny_spec(reps=reps, methods=("na", "lp", "ml", "lpml"))
    spec2 = _tiny_spec(reps=reps, methods=("na", "lp", "ml", "lpml"), workers=2)
    assert emit_table(run_scenario(spec1, TRUTH2)) == emit_table(run_scenario(spec2, TRUTH2))


@pytest.mark.parametrize(
    "workers,groups,cpus,pool",
    [(4000, 2, 8, 2), (4000, 5, 3, 3), (3, 5, 8, 3), (4000, 5, 1, None), (2, 1, 8, None)],
)
def test_worker_pool_is_capped_by_reps_and_cpus(monkeypatch, workers, groups, cpus, pool):
    # A fork pool starts every worker it is asked for, so the harness asks
    # for min(workers, groups of replications, CPUs) and runs serially when
    # that is 1.  The last group is partial.
    assert harness._available_cpus() >= 1
    reps = groups * harness._REP_GROUP - 3
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness, "_available_cpus", lambda: cpus)
    spec = _tiny_spec(reps=reps, methods=("na",))
    serial = emit_table(run_scenario(spec, TRUTH2))
    pooled = run_scenario(_tiny_spec(reps=reps, methods=("na",), workers=workers), TRUTH2)
    assert sizes == ([] if pool is None else [pool])
    assert emit_table(pooled) == serial


def test_recombination_reuses_logistic_fit_in_any_method_order(monkeypatch):
    real, real_group = harness.fit_adjustment, harness.fit_ml
    seen = []

    def recording(method, *args, **kwargs):
        base = kwargs.get("ml_model")
        seen.append((method, None if base is None else base.method))
        return real(method, *args, **kwargs)

    def recording_group(items, grid, method):
        seen.append((method, None))
        return real_group(items, grid, method=method)

    monkeypatch.setattr(harness, "fit_adjustment", recording)
    monkeypatch.setattr(harness, "fit_ml", recording_group)
    orders = (("lpmlx", "lpml", "na", "mlx", "ml"), ("ml", "mlx", "na", "lpml", "lpmlx"))
    rows = []
    for methods in orders:
        seen.clear()
        rows.append(run_scenario(_tiny_spec(methods=methods, reps=1), TRUTH2).rows)
        assert sorted(seen) == sorted(
            [("na", None), ("ml", None), ("mlx", None), ("lpml", "ml"), ("lpmlx", "mlx")]
        )
    assert rows[0] == rows[1]


@pytest.mark.parametrize("stage", ["prepare", "fit"])
def test_a_failing_replication_leaves_its_group_mates_reporting(monkeypatch, stage):
    spec = _tiny_spec(reps=harness._REP_GROUP, methods=("na", "lp", "ml", "lpml"))
    clean = harness._run_group((spec, TRUTH2, range(spec.reps)))
    if stage == "prepare":
        real = harness._prepare

        def failing(spec, rep):
            if rep == 2:
                raise DataValidationError("boom")
            return real(spec, rep)

        monkeypatch.setattr(harness, "_prepare", failing)
    else:
        real = harness.fit_ml

        def failing(items, grid, method):
            out = real(items, grid, method=method)
            out[2] = DataValidationError("boom")  # rep 2 fails inside the grouped fit
            return out

        monkeypatch.setattr(harness, "fit_ml", failing)
    results = harness._run_group((spec, TRUTH2, range(spec.reps)))
    assert [rep for rep, _, _ in results] == list(range(spec.reps))
    assert results[2][1:] == (None, "rep 2: boom")
    for (rep, payload, message), (_, want, _) in zip(results, clean):
        if rep != 2:
            assert message is None and payload.keys() == want.keys()
            # Leaving the group may move the logistic fits of the others by
            # ulps; the other methods do not depend on the group.
            assert {k: v for k, v in payload.items() if k[0] in ("na", "lp")} == {
                k: v for k, v in want.items() if k[0] in ("na", "lp")
            }
    with pytest.raises(DataValidationError, match="^1 of 8 replications failed; first: rep 2: boom$"):
        run_scenario(spec, TRUTH2)


def test_smoke_scenario_within_time_budget():
    start = time.time()
    spec = _tiny_spec(
        dgp=DgpSpec("dgp1", 100), reps=5, B=50, taus=QuantileGrid.of([0.5]),
        methods=("na", "lp"), scheme=SchemeSpec("sbr"),
    )
    res = run_scenario(spec, np.array([1.0]))
    assert time.time() - start < 30.0
    assert res.failures == 0


def test_failure_budget_enforced():
    # n = 12 over up to 4 strata under SRS: some replication leaves a cell
    # empty, and with reps this small any failure exceeds the 1% budget.
    spec = ScenarioSpec(
        dgp=DgpSpec("dgp1", 12),
        scheme=SchemeSpec("srs"),
        methods=("na",),
        reps=40,
        B=20,
        taus=QuantileGrid.of([0.5]),
        seed=1,
    )
    with pytest.raises(DataValidationError, match="failed"):
        run_scenario(spec, np.array([1.0]))


def test_spec_validation():
    with pytest.raises(DataValidationError):
        _tiny_spec(methods=("na", "ols"))
    with pytest.raises(DataValidationError):
        _tiny_spec(reps=0)
    for bad in ({"seed": -1}, {"alpha": 1e-16}, {"alpha": 1.0}):
        with pytest.raises(DataValidationError):
            _tiny_spec(**bad)
    with pytest.raises(DataValidationError):
        run_scenario(_tiny_spec(), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("fixed_pi", [1.5, 0.0, float("nan")])
def test_spec_checks_a_scalar_fixed_pi_before_the_truth(monkeypatch, fixed_pi):
    def no_truth(spec):
        raise AssertionError("the truth was computed before fixed_pi was checked")

    monkeypatch.setattr(harness, "scenario_truth", no_truth)
    with pytest.raises(DataValidationError, match=r"fixed pi must lie strictly inside \(0, 1\)"):
        run_scenario(_tiny_spec(fixed_pi=fixed_pi))


@pytest.mark.parametrize("fixed_pi", [[0.5] * 5, (0.5,), np.array(0.5), "0.5"])
def test_spec_rejects_a_fixed_pi_that_is_not_one_number(fixed_pi):
    with pytest.raises(DataValidationError, match="fixed pi must be one number"):
        _tiny_spec(fixed_pi=fixed_pi)


def test_a_failed_replication_leaves_its_group_mates_reporting(monkeypatch):
    fit_and_bootstrap, calls = harness._fit_and_bootstrap, []

    def third_fails(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NumericalError("solver broke down")
        return fit_and_bootstrap(*args)

    monkeypatch.setattr(harness, "_fit_and_bootstrap", third_fails)
    monkeypatch.setattr(harness, "_FAILURE_BUDGET", 0.5)  # tolerate one of four
    res = run_scenario(_tiny_spec(), TRUTH2)
    assert res.failures == 1
    assert {row["reps"] for row in res.rows.values()} == {3}  # reps 0, 1 and 3 of one group


def test_a_scenario_whose_every_replication_fails_raises(monkeypatch):
    def fail(*args):
        raise NumericalError("solver broke down")

    monkeypatch.setattr(harness, "_fit_and_bootstrap", fail)
    with pytest.raises(DataValidationError,
                       match="4 of 4 replications failed; first: rep 0: solver broke down"):
        run_scenario(_tiny_spec(), TRUTH2)


def test_a_non_finite_fit_fails_its_replication(monkeypatch):
    # One group fits ml for its four replications in one call; the second
    # replication's fitted values are NaN.
    fitted_prob, calls = adjust._fitted_prob, []

    def second_is_nan(*args):
        prob = fitted_prob(*args)
        calls.append(None)
        if len(calls) == 2:
            prob[0, 0, 0] = np.nan
        return prob

    monkeypatch.setattr(adjust, "_fitted_prob", second_is_nan)
    with pytest.raises(DataValidationError, match="1 of 4 replications failed; first: "
                       "rep 1: ml: fitted values are not finite"):
        run_scenario(_tiny_spec(methods=("ml",)), TRUTH2)
