import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_stratified_dataset, parse_table
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import carqte
from carqte import DgpSpec, generate
from carqte.cli import main
from carqte.randomization import SchemeSpec, assign


def _write_experiment_csv(path, kind, n, d):
    """An sbr experiment on ``kind`` at size ``n`` with its first ``d``
    covariates, written with round-trip floats."""
    data = generate(DgpSpec(kind, n), np.random.default_rng(0))
    a = assign(data.s, SchemeSpec("sbr"), np.random.default_rng(1))
    lines = ["y,a,s," + ",".join(f"x{j + 1}" for j in range(d))]
    y = data.observed(a)
    for i in range(n):
        xs = ",".join(repr(float(v)) for v in data.x[i, :d])
        lines.append(f"{float(y[i])!r},{int(a[i])},{int(data.s[i])},{xs}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def experiment_csv(tmp_path):
    return _write_experiment_csv(tmp_path / "exp.csv", "dgp1", 160, 2)


def test_estimate_deterministic_report(experiment_csv, tmp_path):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    args = ["estimate", "--input", experiment_csv, "--adjust", "na",
            "--taus", "0.5", "--B", "200", "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    report = json.loads(b1)
    assert report["seed"] == 7
    assert report["method"] == "na"
    assert report["version"]
    [row] = report["pointwise"]
    assert row["tau"] == 0.5
    assert row["ci"][0] <= row["estimate"] <= row["ci"][1]


def test_estimate_all_products(experiment_csv, tmp_path):
    out = str(tmp_path / "r.json")
    code = main([
        "estimate", "--input", experiment_csv, "--adjust", "lp",
        "--taus", "0.25,0.5,0.75", "--B", "100", "--seed", "3",
        "--diff", "0.75,0.25", "--uniform", "--out", out,
    ])
    assert code == 0
    report = json.loads(open(out).read())
    assert len(report["pointwise"]) == 3
    assert report["difference"]["tau1"] == 0.75
    band = report["uniform_band"]
    assert len(band["lower"]) == 3
    assert band["critical_value"] > 0


def test_estimate_degenerate_stratum_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,a,s,x1\n1.0,1,A,0.1\n2.0,1,A,0.2\n3.0,1,B,0.3\n4.0,0,B,0.4\n")
    code = main(["estimate", "--input", str(path), "--taus", "0.5", "--B", "10"])
    assert code == 3
    err = capsys.readouterr().err
    assert "A" in err  # names the offending stratum


def test_estimate_missing_file_exit_code(tmp_path):
    assert main(["estimate", "--input", str(tmp_path / "nope.csv")]) == 3


@pytest.mark.parametrize("method", carqte.METHODS)
def test_every_adjusting_method_needs_a_covariate(tmp_path, capsys, method):
    # 18 rows of y, a, s only; both strata hold both arms.
    path = tmp_path / "bare.csv"
    rows = [f"{0.5 * i!r},{(i // 2) % 2},{i % 2}" for i in range(18)]
    path.write_text("y,a,s\n" + "\n".join(rows) + "\n")
    code = main(["estimate", "--input", str(path), "--adjust", method, "--taus", "0.5",
                 "--B", "10", "--out", str(tmp_path / "r.json")])
    if method == "na":
        assert code == 0
    else:
        assert code == 3
        assert f"{method} needs at least one covariate" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:.*degraded to zero adjustment")
@pytest.mark.parametrize("method", ["lpml", "lpmlx"])
def test_recombination_without_a_live_base_stratum_exits_3(tmp_path, capsys, method):
    # 48 rows, d = 2: stratum 0 holds 4 control rows and stratum 1 holds 4
    # treated rows, too few for the base fit, so no stratum has a live base
    # fit on both arms and no lpml cell can be fitted.
    rng = np.random.default_rng(5)
    a = np.array([1] * 20 + [0] * 4 + [1] * 4 + [0] * 20)
    x = rng.normal(0, 1, (48, 2))
    y = x[:, 0] + rng.normal(0, 1, 48)
    path = tmp_path / "thin.csv"
    path.write_text("y,a,s,x1,x2\n" + "".join(
        f"{float(y[i])!r},{a[i]},{i // 24},{float(x[i, 0])!r},{float(x[i, 1])!r}\n"
        for i in range(48)))
    code = main(["estimate", "--input", str(path), "--adjust", method, "--B", "10",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3
    base = {"lpml": "ml", "lpmlx": "mlx"}[method]
    assert (f"{method}: no cell is live: 0 cell(s) too small and 4 in a stratum without a "
            f"live {base} fit") in capsys.readouterr().err


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about half of the start-up of a fresh process.
    code = "import sys, carqte, carqte.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(carqte.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_public_surface_is_pinned():
    assert sorted(carqte.__all__) == [
        "AdjustmentModel", "BootstrapDrawSet", "BootstrapDraws", "CarqteError",
        "DataValidationError", "Dataset", "DegenerateCellError", "DgpSpec",
        "InferenceResult", "LassoConfig", "METHODS", "NumericalError",
        "PotentialData", "QteEstimate", "QuantileGrid", "SCHEME_KINDS", "ScenarioResult",
        "ScenarioSpec", "SchemeSpec", "StrataStats", "adjust", "assign", "assign_bcd",
        "assign_sbr", "assign_srs", "assign_wei", "bootstrap", "bootstrap_se",
        "cached_true_qte", "data", "dgp", "difference_test",
        "draw_weights", "emit_table", "empirical_quantile", "errors", "estimator",
        "fit_adjustment", "fit_hd_lasso", "fit_lp", "fit_lpml", "fit_ml",
        "fit_none", "generate", "harness", "load_csv",
        "pilot_quantiles", "pointwise_test", "qte",
        "randomization", "run_bootstrap", "run_scenario",
        "true_qte_oracle", "uniform_band",
    ]


def test_fitter_options_are_pinned():
    # A new fitter option or config field shows up here as a test diff.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    adjust = carqte.adjust
    assert params(adjust.fit_adjustment) == [
        "method", "dataset", "pilot", "grid", "lasso_config", "ml_model"]
    assert params(adjust.fit_lp) == ["dataset", "pilot", "grid"]
    assert params(adjust.fit_ml) == ["items", "grid", "method"]
    assert params(adjust.fit_lpml) == ["dataset", "pilot", "grid", "ml_model", "method"]
    assert params(adjust.fit_hd_lasso) == ["dataset", "pilot", "grid", "config"]
    assert params(adjust.penalty_level) == ["n_cell", "p_penalized", "config"]
    # A dataset carries its strata, and a result decides any null itself.
    assert params(carqte.qte) == ["dataset", "model", "grid", "fixed_pi"]
    assert params(carqte.pilot_quantiles) == ["dataset", "grid"]
    assert params(carqte.run_bootstrap) == [
        "dataset", "models", "grid", "B", "rng", "fixed_pi"]
    assert params(carqte.pointwise_test) == ["estimate", "draws_at_tau", "alpha"]
    assert params(carqte.difference_test) == [
        "estimate_1", "estimate_2", "draws_at_tau1", "draws_at_tau2", "alpha"]
    assert params(carqte.uniform_band) == ["estimates", "draws", "alpha"]
    fields = [f.name for f in dataclasses.fields(carqte.StrataStats)]
    assert fields == ["n", "n1", "n0", "pi_hat", "degenerate"]
    fields = [f.name for f in dataclasses.fields(carqte.InferenceResult)]
    assert fields == ["estimate", "se", "ci_lower", "ci_upper", "critical_value", "alpha"]
    fields = [f.name for f in dataclasses.fields(adjust.LassoConfig)]
    assert fields == ["c", "loading_iterations", "forced_support"]
    fields = [f.name for f in dataclasses.fields(adjust.AdjustmentModel)]
    assert fields == ["method", "taus", "coef", "live", "prob", "support", "diagnostics"]
    # Wei's allocation function, the design's Z coefficient and the oracle
    # seed are constants: (1 - x) / 2, 4.0 and 0.
    assert [f.name for f in dataclasses.fields(carqte.SchemeSpec)] == ["kind", "pi", "bcd_lambda"]
    assert [f.name for f in dataclasses.fields(carqte.DgpSpec)] == ["kind", "n"]
    fields = [f.name for f in dataclasses.fields(carqte.ScenarioSpec)]
    assert fields == ["dgp", "scheme", "methods", "reps", "B", "taus", "delta", "alpha", "seed",
                      "fixed_pi", "mc_n", "mc_reps", "truth_cache", "workers", "lasso_c",
                      "lasso_iters"]


def test_names_the_benchmark_tracer_wraps_exist():
    # perfbench/child.py wraps these by name; a missing one only drops its
    # spans from the traced metrics, so nothing else would fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for module, names in ((carqte.cli, child._CLI_NAMES),
                          (carqte.harness, child._HARNESS_NAMES)):
        assert [n for n in names if not callable(getattr(module, n, None))] == []
    assert callable(carqte.adjust.AdjustmentModel.evaluate_all)
    assert callable(carqte.bootstrap.draw_weights)
    # The resampled-draw count is read off run_bootstrap's return value.
    ds = make_stratified_dataset(np.random.default_rng(0), n=30)
    grid = carqte.QuantileGrid.of([0.5])
    boot = carqte.run_bootstrap(ds, [carqte.fit_none(grid)], grid, 4, np.random.default_rng(0))
    assert isinstance(boot.n_resampled, int)


@pytest.mark.parametrize("target_pi", ["1.5", "0", "1", "nan", "-inf"])
def test_simulate_rejects_target_pi_before_the_oracle(tmp_path, capsys, monkeypatch, target_pi):
    def no_oracle(spec):
        raise AssertionError("the oracle ran before --target-pi was checked")

    monkeypatch.setattr(carqte.harness, "scenario_truth", no_oracle)
    cache, out = tmp_path / "truth.json", tmp_path / "sim.csv"
    code = main(["simulate", f"--target-pi={target_pi}", "--methods", "na", "--n", "80",
                 "--reps", "3", "--B", "20", "--workers", "1", "--truth-cache", str(cache),
                 "--out", str(out)])
    assert code == 3
    assert "strictly inside (0, 1)" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()


def test_config_that_is_not_utf8_is_a_data_error(experiment_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe")
    assert main(["estimate", "--input", experiment_csv, "--config", str(cfg)]) == 3
    assert f"cannot read config {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{not json", b"[1,2]", b"\xff"])
def test_simulate_with_unreadable_truth_cache_is_a_data_error(tmp_path, capsys, content):
    cache = tmp_path / "truth.json"
    cache.write_bytes(content)
    code = main(["simulate", "--reps", "2", "--B", "20", "--n", "80", "--mc-n", "200",
                 "--mc-reps", "2", "--workers", "1", "--truth-cache", str(cache)])
    assert code == 3
    assert str(cache) in capsys.readouterr().err
    assert cache.read_bytes() == content


def test_unknown_adjust_is_usage_error(experiment_csv):
    assert main(["estimate", "--input", experiment_csv, "--adjust", "ols"]) == 2


def test_fixed_pi_mode_changes_se_not_schema(experiment_csv, tmp_path):
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["estimate", "--input", experiment_csv, "--taus", "0.5", "--B", "150",
            "--seed", "2"]
    assert main(base + ["--out", out_a]) == 0
    assert main(base + ["--pi", "fixed:0.5", "--out", out_b]) == 0
    ra, rb = json.loads(open(out_a).read()), json.loads(open(out_b).read())
    assert set(ra) == set(rb)
    assert ra["pointwise"][0]["se"] != rb["pointwise"][0]["se"]


def test_config_file_with_flag_precedence(experiment_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 50, "seed": 9, "taus": [0.5]}))
    out = str(tmp_path / "r.json")
    code = main(["estimate", "--input", experiment_csv, "--config", str(cfg),
                 "--B", "30", "--out", out])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["B"] == 30      # flag wins
    assert report["seed"] == 9    # config fills the gap


def test_abbreviated_flag_is_a_usage_error_and_a_full_one_beats_config(experiment_csv, tmp_path,
                                                                       capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "taus": [0.5], "B": 20}))
    out = tmp_path / "r.json"
    base = ["estimate", "--input", experiment_csv, "--config", str(cfg), "--out", str(out)]
    for flag in (["--se", "5"], ["--se=5"]):
        assert main(base + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()
    assert main(["simulate", "--rep", "1"]) == 2
    assert main(base + ["--seed", "5"]) == 0
    assert json.loads(out.read_text())["seed"] == 5


def test_bad_config_value_is_a_data_error_even_when_the_flag_is_given(experiment_csv, tmp_path,
                                                                     capsys):
    # Every config value is converted before the command line is parsed
    # over it, so a value the flag overrides is still checked.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 2.5, "taus": [0.5]}))
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--config", str(cfg), "--B", "20",
                 "--out", str(out)])
    assert code == 3
    assert "config key 'B': invalid value 2.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["func", "command", "config"])
def test_config_reserved_keys_are_data_errors(experiment_csv, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--config", str(cfg),
                 "--out", str(out)])
    assert code == 3
    assert "reserved" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg,field,want",
    [
        ({"B": "50"}, "B", 50),
        ({"B": 40.0}, "B", 40),
        ({"alpha": "0.1"}, "alpha", 0.1),
        ({"null": 1}, "null", 1.0),
        ({"taus": 0.5}, "taus", [0.5]),
        ({"taus": "0.25,0.75"}, "taus", [0.25, 0.75]),
    ],
)
def test_config_values_are_coerced_through_option_types(experiment_csv, tmp_path, cfg,
                                                        field, want):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"B": 20, **cfg}))
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--config", str(path),
                 "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())["config"][field]
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "cfg",
    [
        {"B": 2.5},          # non-integral value for an int option
        {"B": "2.5"},
        {"B": True},         # valued options take no booleans
        {"B": [50]},
        {"seed": None},      # only options without a default take null
        {"alpha": "five"},
        {"uniform": "yes"},  # flags take booleans only
        {"adjust": "ols"},   # outside the option's choices
        {"pi": {"fixed": 0.5}},
        {"taus": [{"tau": 0.5}]},
    ],
)
def test_config_bad_values_are_data_errors(experiment_csv, tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--config", str(path),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "config key" in err or "quantile list" in err
    assert not out.exists()


def test_config_coerces_simulate_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": "2", "n": 80.0, "B": "20", "mc-reps": 2,
                               "workers": "1"}))
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
    assert sidecar["config"]["reps"] == 2
    assert sidecar["config"]["n"] == 80


def test_estimate_lasso_with_overrides(experiment_csv, tmp_path):
    out = str(tmp_path / "lasso.json")
    code = main([
        "estimate", "--input", experiment_csv, "--adjust", "lasso",
        "--taus", "0.5", "--B", "60", "--seed", "1",
        "--lasso-c", "1.5", "--lasso-iters", "1", "--out", out,
    ])
    assert code == 0
    report = json.loads(open(out).read())
    assert report["method"] == "lasso"


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = str(tmp_path / "res.csv")
    code = main([
        "simulate", "--dgp", "1", "--scheme", "sbr", "--methods", "na",
        "--n", "100", "--reps", "3", "--B", "30", "--taus", "0.5",
        "--seed", "13", "--mc-n", "400", "--mc-reps", "3", "--out", out,
    ])
    assert code == 0
    text = open(out).read()
    assert text.splitlines()[0].startswith("dgp,")
    assert len(text.strip().splitlines()) == 2
    sidecar = json.loads(open(out + ".config.json").read())
    assert sidecar["seed"] == 13
    assert sidecar["config"]["scheme"] == "sbr"
    assert len(sidecar["truth"]) == 1


def test_simulate_reruns_byte_identical(tmp_path):
    args = ["simulate", "--dgp", "1", "--scheme", "srs", "--methods", "na,lp",
            "--n", "80", "--reps", "3", "--B", "20", "--taus", "0.5",
            "--seed", "4", "--mc-n", "200", "--mc-reps", "2"]
    o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", o1]) == 0
    assert main(args + ["--out", o2, "--workers", "2"]) == 0
    assert open(o1, "rb").read() == open(o2, "rb").read()


def test_simulate_unknown_method_usage_error():
    assert main(["simulate", "--methods", "na,banana", "--reps", "2"]) == 2


def test_usage_error_without_subcommand():
    assert main([]) == 2


@pytest.mark.parametrize("diff", ["0.5", "0.5,0.3", "a,b", "0.25,0.5,0.75"])
def test_estimate_bad_diff_is_data_error_naming_grid(experiment_csv, tmp_path, capsys, diff):
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--taus", "0.25,0.5,0.75",
                 "--B", "20", "--diff", diff, "--out", str(out)])
    assert code == 3
    assert "[0.25, 0.5, 0.75]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("alpha", ["0", "1", "2", "-0.5", "nan"])
def test_alpha_outside_unit_interval_is_data_error(experiment_csv, tmp_path, capsys,
                                                   command, alpha):
    out = tmp_path / "r.out"
    if command == "estimate":
        argv = ["estimate", "--input", experiment_csv, "--B", "20"]
    else:
        argv = ["simulate", "--n", "80", "--reps", "2", "--B", "20", "--mc-reps", "2"]
    code = main(argv + ["--alpha", alpha, "--out", str(out)])
    assert code == 3
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,option", [("estimate", "null"), ("simulate", "delta")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_non_finite_null_and_delta_are_data_errors(experiment_csv, tmp_path, capsys,
                                                   command, option, value, via):
    out = tmp_path / "r.out"
    if command == "estimate":
        argv = ["estimate", "--input", experiment_csv, "--B", "20"]
    else:
        argv = ["simulate", "--n", "80", "--reps", "2", "--B", "20", "--mc-reps", "2"]
    if via == "flag":
        argv += [f"--{option}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: float(value)}))
        argv += ["--config", str(cfg)]
    code = main(argv + ["--out", str(out)])
    assert code == 3
    assert f"--{option} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("option,value", [("seed", -1), ("alpha", 1e-16)])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_and_vanishing_alpha_are_rejected_up_front(tmp_path, capsys, monkeypatch,
                                                                 command, option, value, via):
    # A negative seed has no SeedSequence, and at alpha = 1e-16, 1 - alpha/2
    # rounds to 1, whose normal critical value is infinite.  Both exit 3
    # before the CSV is read or the oracle runs.
    def never(*args, **kwargs):
        raise AssertionError(f"work started before --{option} was checked")

    monkeypatch.setattr(carqte.cli, "load_csv", never)
    monkeypatch.setattr(carqte.harness, "scenario_truth", never)
    out = tmp_path / "r.out"
    if command == "estimate":
        argv = ["estimate", "--input", str(tmp_path / "unread.csv"), "--B", "20"]
    else:
        argv = ["simulate", "--n", "80", "--reps", "2", "--B", "20", "--workers", "1",
                "--truth-cache", str(tmp_path / "truth.json")]
    if via == "flag":
        argv += [f"--{option}={value!r}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        argv += ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 3
    assert option in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "truth.json").exists()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_bootstrap_size_beyond_memory_is_a_data_error(experiment_csv, tmp_path, capsys, command):
    # numpy refuses an array of 10**15 draws at once, so nothing is allocated.
    out = tmp_path / "r.out"
    if command == "estimate":
        argv = ["estimate", "--input", experiment_csv]
    else:
        argv = ["simulate", "--n", "80", "--reps", "2", "--mc-n", "500", "--mc-reps", "3",
                "--workers", "1", "--truth-cache", str(tmp_path / "truth.json")]
    assert main(argv + ["--B", str(10**15), "--out", str(out)]) == 3
    assert "do not fit in memory" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_checks_bootstrap_size_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the oracle or a replication ran before --B was checked")

    monkeypatch.setattr(carqte.harness, "scenario_truth", no_work)
    monkeypatch.setattr(carqte.harness, "generate", no_work)
    cache, out = tmp_path / "truth.json", tmp_path / "sim.csv"
    code = main(["simulate", "--n", "400", "--reps", "20", "--B", str(10**15), "--mc-n", "500",
                 "--mc-reps", "3", "--workers", "1", "--truth-cache", str(cache),
                 "--out", str(out)])
    assert code == 3
    assert "do not fit in memory" in capsys.readouterr().err
    assert not out.exists() and not cache.exists() and not (tmp_path / "sim.csv.config.json").exists()


def test_estimate_target_pi_is_gone(experiment_csv, tmp_path):
    # The flag set a target that no estimate used; it is now unknown (exit 2),
    # and a config key of that name is ignored like any other unknown key.
    out = tmp_path / "r.json"
    base = ["estimate", "--input", experiment_csv, "--taus", "0.5", "--B", "20"]
    assert main(base + ["--target-pi", "0.3", "--out", str(out)]) == 2
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_pi": 7}))
    assert main(base + ["--config", str(cfg), "--out", str(out)]) == 0
    assert main(base + ["--out", str(tmp_path / "plain.json")]) == 0
    assert out.read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("c", ["nan", "inf", "0"])
def test_lasso_c_must_be_finite_and_positive(experiment_csv, tmp_path, capsys, command, c):
    out = tmp_path / "r.out"
    if command == "estimate":
        argv = ["estimate", "--input", experiment_csv, "--adjust", "lasso", "--B", "20"]
    else:  # rejected before any replication runs, whatever the methods
        argv = ["simulate", "--n", "80", "--reps", "2", "--B", "20", "--mc-reps", "2"]
    code = main(argv + ["--lasso-c", c, "--out", str(out)])
    assert code == 3
    assert "finite c > 0" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the table written by the command below (numpy 2.4, scipy 1.17,
# OpenBLAS 0.3.31), re-recorded when each replication's bootstrap weights
# came to be drawn as one stream laid out in the solver's arm-sorted column
# order; workers 1 and 2 write the same bytes.
PAPER_TABLE_SHA256 = "5c6df2cbce897e7b310801b95ac0be516c27301b293fe47cc3f58366ebd6df87"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_paper_methods_table_is_pinned(tmp_path, workers):
    out = tmp_path / "sim.csv"
    code = main([
        "simulate", "--dgp", "1", "--scheme", "sbr",
        "--methods", "na,lp,ml,lpml,mlx,lpmlx,np", "--n", "400", "--reps", "2",
        "--B", "50", "--taus", "0.25,0.5,0.75", "--workers", workers,
        "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PAPER_TABLE_SHA256


# sha256 of each report below with its "input" line (the temporary CSV path)
# removed, so that the bytes of the whole report are pinned.  The first three
# were re-recorded when the bootstrap weights came to be drawn as one stream
# laid out in the solver's arm-sorted column order, and the rest recorded on
# that code.  A key "<method>-d4" runs the method on a 4-covariate file
# (dgphd, n=600, sbr, its first four covariates): at d=2 there is one
# covariate pair, so only there can a slip in the order of the product or
# threshold columns show.
ESTIMATE_REPORT_SHA256 = {
    "lpmlx": "f3f2220b42214d2bc36e6619e1dcf14fd29e2d37be0da75065a10fefd5275f22",
    "lpml": "589d244d5836f453954b7e6a5b2622eeeb754bff96a7e93cacc01d43d8753aab",
    "na": "adf0e8553b0823d0a4641ba2d926c5acc7b3b2134a1995dbbe3e2efd5fb2f98c",
    "lp": "eedd373d7a27086e9e5d34159101b9d67462853e4a592b57a16546e8d83ef627",
    "ml": "2718c518d99988c31cec88f70d7d374f8a7bacd7729ca73245a0da5e9e5a930d",
    "mlx": "020229977048e82887af39ca2b9323d1e6410ea5de9564671e269217cced84b6",
    "np": "8c220bddc1ae747e4462778e88e8bc452765e3165fe5f75297ad1e328b04e57e",
    "lasso": "f7c6dd6d6ef2b608f50ed28ab6be7a0e557d4b337baea7e97e26345f670a4a43",
    "mlx-d4": "65ba7000b209ff04fbe45cc487e3f90bc7a368963f5950de61eb31d9b28edca0",
    "np-d4": "21119894ed8ea88b2d2562d510deeb490c0fcc0daebced4320729838dbfae403",
    "lasso-d4": "05c59a5020413120052e5999224113622b9a5e0b6f0be72199786b77198b3252",
}
_FULL_REPORT = ["--taus", "0.25,0.5,0.75", "--diff", "0.75,0.25", "--uniform", "--B", "200"]
_ESTIMATE_PIN_ARGS = {
    "lpmlx": _FULL_REPORT,
    "lpml": ["--pi", "fixed:0.5"],
    "na": ["--taus", "0.5"],
    **{key: _FULL_REPORT for key in ("lp", "ml", "mlx", "np", "lasso",
                                     "mlx-d4", "np-d4", "lasso-d4")},
}


@pytest.mark.parametrize("key", sorted(_ESTIMATE_PIN_ARGS))
def test_estimate_report_bytes_are_pinned(experiment_csv, tmp_path, key):
    method, _, wide = key.partition("-")
    path = _write_experiment_csv(tmp_path / "exp4.csv", "dgphd", 600, 4) if wide else experiment_csv
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", path, "--adjust", method,
                 *_ESTIMATE_PIN_ARGS[key], "--out", str(out)])
    assert code == 0
    input_line = f'    "input": {json.dumps(path)},\n'.encode()
    lines = out.read_bytes().splitlines(keepends=True)
    assert lines.count(input_line) == 1
    body = b"".join(line for line in lines if line != input_line)
    assert hashlib.sha256(body).hexdigest() == ESTIMATE_REPORT_SHA256[key]


# -- fuzzing the CSV boundary ---------------------------------------------------

_ROWS = st.tuples(
    st.sampled_from([b"0.5", b"-1", b"2.25", b"3", b"1e2", b"-0.0", b" 4 ", b"7"]),
    st.sampled_from([b"0", b"1"]),
    st.sampled_from([b"u", b"u", b"\xc3\xa9", b'"v,w"']),
    st.sampled_from([b"0.1", b"-2", b"5e-3", b"1"]),
).map(b",".join)


@st.composite
def _csv_bodies(draw):
    """Mostly well-formed rows under ``y,a,s,x1``, then a few byte edits."""
    body = bytearray(b"\n".join(draw(st.lists(_ROWS, min_size=8, max_size=24))))
    edits = draw(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1),
                                    st.binary(max_size=2)), max_size=2))
    for at, cut, data in edits:
        at %= len(body) + 1
        body[at:at + cut] = data
    return bytes(body)


_BODIES = st.one_of(_csv_bodies(), st.binary(max_size=64))


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name} in output")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bom=st.booleans(), body=_BODIES)
def test_any_csv_body_ends_in_a_documented_exit(tmp_path, bom, body):
    # Arbitrary body bytes, invalid UTF-8 and NUL included, end in exit 0
    # with strict JSON, 3 (bad data) or 4 (numerical failure).
    path, out = tmp_path / "fuzz.csv", tmp_path / "fuzz.json"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + b"y,a,s,x1\n" + body)
    out.unlink(missing_ok=True)
    code = main(["estimate", "--input", str(path), "--taus", "0.25,0.5", "--B", "20",
                 "--uniform", "--out", str(out)])
    assert code in (0, 3, 4)
    if code == 0:
        report = _strict_json(out.read_text())
        for row in report["pointwise"]:
            assert row["ci"][0] <= row["estimate"] <= row["ci"][1]
    else:
        assert not out.exists()


def _fuzzed_options(optional, required=None):
    """Strategy for a list of (option, value, in config file) triples.

    Options map to (good values, bad values).  Each ``optional`` option is
    left out or set to a good value, each ``required`` one is always set to
    one, and then up to two options, required or not, are set to a bad value
    instead, so that many runs get as far as writing output.  Either way the
    value goes on the command line or into a ``--config`` file.
    """
    options = {**optional, **(required or {})}

    def setting(name, values):
        return st.tuples(st.just(name), st.sampled_from(values), st.booleans())

    good = [st.one_of(st.none(), setting(k, g)) for k, (g, _) in optional.items()]
    good += [setting(k, g) for k, (g, _) in (required or {}).items()]
    bad = st.lists(st.sampled_from([k for k, (_, b) in options.items() if b]).flatmap(
        lambda k: setting(k, options[k][1])), max_size=2, unique_by=lambda o: o[0])

    def merge(drawn):
        good_ones, bad_ones = drawn
        chosen = {o[0]: o for o in good_ones if o is not None}
        chosen.update((o[0], o) for o in bad_ones)
        return list(chosen.values())

    return st.tuples(st.tuples(*good), bad).map(merge)


def _fuzz_argv(argv, opts, tmp_path):
    cfg = {}
    for name, value, in_config in opts:
        if in_config:
            cfg[name] = value
        else:
            argv.append(f"--{name}" if value is True else f"--{name}={value}")
    path = tmp_path / "fuzz.cfg.json"
    path.unlink(missing_ok=True)
    if cfg:
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    return argv


_SEEDS = (["0", "7", str(2**64), str(10**30)], ["-1", "-7", "x"])
_TAUS = (["0.25,0.5,0.75", "0.25,0.75", "0.5", "1e-300,0.5"],
         ["", ",", "0.75,0.25", "nan", "0.5,nan", "0,0.5", "0.3,0.3", "abc"])
_ALPHAS = (["0.05", "0.5", "0.999", "1e-10"], ["1e-16", "5e-324", "0", "1", "-0.1", "nan", "x"])
_PIS = (["estimated", "fixed:0.5", "fixed:0.3"],
        ["fixed:0", "fixed:1", "fixed:nan", "fixed:", "fix"])
_ESTIMATE_OPTIONS = {
    "seed": _SEEDS, "taus": _TAUS, "alpha": _ALPHAS, "pi": _PIS,
    "adjust": (["na", "lp", "ml"], ["ols"]),
    "diff": (["0.75,0.25", "0.25,0.75"], ["0.5,0.5", "0.5", "0.1,0.2", "nan,0.5", "a,b", ""]),
    "null": (["0", "1.5", "-2", "1e308"], ["nan", "inf", "x"]),
    "uniform": ([True], []),
}
_SIMULATE_OPTIONS = {
    "seed": _SEEDS, "taus": _TAUS, "alpha": _ALPHAS, "pi": _PIS,
    "dgp": (["1", "2"], ["7"]), "scheme": (["srs", "sbr", "wei", "bcd"], ["none"]),
    "methods": (["na", "na,lp"], ["ols"]), "delta": (["1.5", "0"], ["nan"]),
    "target-pi": (["0.5", "0.45"], ["1.5", "nan"]),
}
# Kept small so a run takes milliseconds; --workers is always 1.
_SIMULATE_SIZES = {
    "n": (["60", "80"], ["0", "1"]), "reps": (["1", "3"], ["0"]),
    "B": (["2", "20"], ["0", "1"]), "mc-n": (["1", "500"], ["0"]),
    "mc-reps": (["1", "3"], ["0"]),
}


def _check_interval(block):
    lower, upper = block["ci"] if "ci" in block else (block["lower"], block["upper"])
    assert np.all(np.asarray(lower) <= np.asarray(block["estimate"]))
    assert np.all(np.asarray(block["estimate"]) <= np.asarray(upper))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(opts=_fuzzed_options(_ESTIMATE_OPTIONS, {"B": (["2", "3", "20"], ["0", "1"])}),
       removed_flag=st.sampled_from([False] * 7 + [True]))
@example(opts=[("seed", "-1", False), ("B", "20", False)], removed_flag=False)
@example(opts=[("alpha", "1e-16", True), ("B", "20", False)], removed_flag=False)
def test_any_estimate_argv_ends_in_a_documented_exit(experiment_csv, tmp_path, opts,
                                                     removed_flag):
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    argv = _fuzz_argv(["estimate", "--input", experiment_csv, "--out", str(out)], opts,
                      tmp_path)
    code = main(argv + (["--target-pi=0.3"] if removed_flag else []))
    assert code in (0, 2, 3, 4)
    if removed_flag:
        assert code == 2
    if code == 0:
        report = _strict_json(out.read_text())
        for block in report["pointwise"] + [report.get("difference")]:
            if block is not None:
                _check_interval(block)
        if "uniform_band" in report:
            _check_interval(report["uniform_band"])
    else:
        assert not out.exists()


@settings(max_examples=25, deadline=None)
@given(opts=_fuzzed_options(_SIMULATE_OPTIONS, _SIMULATE_SIZES))
@example(opts=[("seed", "-1", False), ("n", "60", False), ("reps", "1", False),
               ("B", "2", False), ("mc-n", "1", False), ("mc-reps", "1", False)])
def test_any_simulate_argv_ends_in_a_documented_exit(tmp_path_factory, opts):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out, cache = tmp_path / "fuzz.csv", tmp_path / "truth.json"
    argv = _fuzz_argv(["simulate", "--workers", "1", "--truth-cache", str(cache),
                       "--out", str(out)], opts, tmp_path)
    code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        rows = parse_table(out.read_text())
        assert rows
        assert all(np.isfinite(v) for row in rows for v in row.values() if isinstance(v, float))
        _strict_json(Path(str(out) + ".config.json").read_text())
    else:
        assert not out.exists()
