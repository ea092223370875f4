import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import make_stratified_dataset, parse_table
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import carqte
from carqte import DgpSpec, generate
from carqte.adjust import LOGIT_BASE
from carqte.cli import _build_parser, main
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


def test_estimate_uniform_band_on_41_taus(tmp_path):
    # A dense grid of a uniform band: 41 taus, 0.1 to 0.9 by 0.02.
    csv_path = _write_experiment_csv(tmp_path / "exp.csv", "dgp1", 400, 2)
    taus = ",".join(repr(round(0.1 + 0.02 * k, 2)) for k in range(41))
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["estimate", "--input", csv_path, "--adjust", "lp", "--taus", taus,
                     "--B", "100", "--seed", "5", "--uniform", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    report = _strict_json(reports[0].decode())
    band = report["uniform_band"]
    assert [len(band[k]) for k in ("estimate", "se", "lower", "upper")] == [41] * 4
    assert np.all(np.isfinite([band[k] for k in ("estimate", "se", "lower", "upper")]))
    _check_interval(band)
    assert len(report["pointwise"]) == 41
    for row in report["pointwise"]:
        _check_interval(row)


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


def _scipy_modules_after(runs):
    """In a fresh process: the scipy modules loaded after ``import
    carqte.cli`` and after each argv of ``runs`` through ``main``."""
    code = (
        "import json, sys\n"
        "import carqte, carqte.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = [loaded()]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert carqte.cli.main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(carqte.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _small_simulate(dgp, out):
    return ["simulate", "--dgp", dgp, "--n", "80", "--reps", "2", "--B", "20",
            "--mc-n", "2000", "--mc-reps", "2", "--out", str(out)]


def test_cli_import_does_not_load_scipy_stats(experiment_csv, tmp_path):
    # scipy costs about half of the start-up of a fresh process, and no
    # estimate or low-dimensional simulation needs it.
    runs = [["estimate", "--input", experiment_csv, "--adjust", method, "--B", "20",
             "--out", str(tmp_path / f"{method}.json")] for method in carqte.METHODS]
    runs += [_small_simulate(dgp, tmp_path / f"sim{dgp}.csv") for dgp in ("1", "2")]
    assert _scipy_modules_after(runs) == [[]] * (len(runs) + 1)


def test_cli_import_loads_neither_numpy_polynomial_nor_scipy():
    # estimate's set-up is this import alone; the exact dgp1 and dgp2 truths
    # load numpy.polynomial when they run.
    code = ("import sys, carqte.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.startswith('numpy.polynomial')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(carqte.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_simulate_dgp_hd_runs_and_loads_scipy_special(tmp_path):
    # The dgphd covariates are normal CDFs of correlated normals (scipy's ndtr).
    loaded = _scipy_modules_after([_small_simulate("hd", tmp_path / "hd.csv")])
    assert loaded[0] == [] and "scipy.special" in loaded[1]
    assert parse_table((tmp_path / "hd.csv").read_text())


def test_public_surface_is_pinned():
    assert sorted(carqte.__all__) == [
        "AdjustmentModel", "BootstrapDrawSet", "BootstrapDraws", "CarqteError",
        "DataValidationError", "Dataset", "DegenerateCellError", "DgpSpec",
        "InferenceResult", "LassoConfig", "METHODS", "NumericalError",
        "PotentialData", "QteEstimate", "QuantileGrid", "SCHEME_KINDS", "ScenarioResult",
        "ScenarioSpec", "SchemeSpec", "StrataStats", "adjust", "assign",
        "bootstrap", "bootstrap_se", "cached_true_qte", "data", "dgp", "difference_test",
        "draw_weights", "emit_table", "errors", "estimator",
        "fit_adjustment", "fit_ml", "generate", "harness", "load_csv",
        "pilot_quantiles", "pointwise_test", "qte",
        "randomization", "run_bootstrap", "run_scenario", "uniform_band",
    ]


def _module_names(text: str) -> list[str]:
    """The names a module binds at its top level by def, class or assignment."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_public_name_is_used_outside_the_tests():
    # A public name that only the tests and its own module use is a step of
    # an entry point, and goes private.  That holds for every name a module
    # of the package binds at its top level, not only for carqte.__all__.
    # Uses count in another module of the package, in bench/ or perfbench/,
    # or in README.md.
    root = Path(carqte.__file__).resolve().parents[2]
    package = Path(carqte.__file__).parent
    sources = {p: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    elsewhere = [p.read_text(encoding="utf-8") for d in ("bench", "perfbench")
                 for p in sorted((root / d).glob("*.py"))]
    elsewhere.append((root / "README.md").read_text(encoding="utf-8"))
    unused = []
    for home, text in sources.items():
        # __init__ re-exports every public name, so its imports are no use.
        texts = [t for p, t in sources.items() if p not in (home, package / "__init__.py")]
        for name in _module_names(text):
            used = re.compile(rf"\b{name}\b")
            if not name.startswith("_") and not any(used.search(t) for t in texts + elsewhere):
                unused.append(f"{home.stem}.{name}")
    assert unused == []


def _attribute_reads(tree: ast.AST, skip: tuple = ()) -> set[str]:
    """The names ``tree`` reads as ``obj.name`` or ``getattr(obj, "name")``,
    outside the subtrees ``skip``."""
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
        stack.extend(ast.iter_child_nodes(node))
    return reads


# The fit's own result: no pipeline step reads the coefficients, because
# ``prob`` holds every fitted value, but they are what each fitter computes
# and what its reference tests check.
_UNREAD_FIELDS = {"adjust.AdjustmentModel.coef"}


def test_every_public_dataclass_field_is_read_outside_the_tests():
    # A field that no code reads is surface that only the tests use.  A read
    # counts anywhere in the package, bench/ or perfbench/, the class's own
    # methods included (q1 and q0 are read through QteEstimate.qte), but not
    # in its own __post_init__, which only checks the field.
    root = Path(carqte.__file__).resolve().parents[2]
    package = Path(carqte.__file__).parent
    paths = [*sorted(package.glob("*.py")),
             *(p for d in ("bench", "perfbench") for p in sorted((root / d).glob("*.py")))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    unread = []
    for home in sorted(package.glob("*.py")):
        for cls in trees[home].body:
            if (not isinstance(cls, ast.ClassDef) or cls.name.startswith("_")
                    or not any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            checks = tuple(f for f in cls.body
                           if isinstance(f, ast.FunctionDef) and f.name == "__post_init__")
            reads = set().union(*(_attribute_reads(t, checks) for t in trees.values()))
            unread += [f"{home.stem}.{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and f.target.id not in reads]
    assert sorted(set(unread) - _UNREAD_FIELDS) == []
    assert set(unread) >= _UNREAD_FIELDS  # an exception that is read is no exception


def test_fitter_options_are_pinned():
    # A new fitter option or config field shows up here as a test diff.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    adjust = carqte.adjust
    assert params(adjust.fit_adjustment) == [
        "method", "dataset", "pilot", "grid", "lasso_config", "ml_model"]
    assert params(adjust._fit_lp) == ["dataset", "pilot", "grid"]
    assert params(adjust.fit_ml) == ["items", "grid", "method"]
    assert params(adjust._fit_lpml) == ["dataset", "pilot", "grid", "ml_model", "method"]
    assert params(adjust._fit_hd_lasso) == ["dataset", "pilot", "grid", "config"]
    assert params(adjust._penalty_level) == ["n_cell", "p_penalized", "config"]
    # A dataset carries its strata, and a result decides any null itself.
    assert params(carqte.qte) == ["dataset", "model", "grid"]
    assert params(carqte.pilot_quantiles) == ["dataset", "grid"]
    assert params(carqte.run_bootstrap) == [
        "dataset", "models", "grid", "B", "rng", "fixed_pi"]
    assert params(carqte.pointwise_test) == ["estimate", "draws_at_tau", "alpha"]
    assert params(carqte.difference_test) == [
        "estimate_1", "estimate_2", "draws_at_tau1", "draws_at_tau2", "alpha"]
    assert params(carqte.uniform_band) == ["estimates", "draws", "alpha"]
    fields = [f.name for f in dataclasses.fields(carqte.StrataStats)]
    assert fields == ["n", "pi_hat", "degenerate"]
    fields = [f.name for f in dataclasses.fields(carqte.InferenceResult)]
    assert fields == ["estimate", "se", "ci_lower", "ci_upper", "critical_value"]
    fields = [f.name for f in dataclasses.fields(adjust.LassoConfig)]
    assert fields == ["c", "loading_iterations"]
    fields = [f.name for f in dataclasses.fields(adjust.AdjustmentModel)]
    assert fields == ["method", "taus", "coef", "live", "prob", "support", "diagnostics"]
    # Wei's allocation function, the design's Z coefficient and the oracle
    # seed are constants: (1 - x) / 2, 4.0 and 0.
    assert [f.name for f in dataclasses.fields(carqte.SchemeSpec)] == ["kind", "pi", "bcd_lambda"]
    assert [f.name for f in dataclasses.fields(carqte.DgpSpec)] == ["kind", "n"]
    fields = [f.name for f in dataclasses.fields(carqte.ScenarioSpec)]
    assert fields == ["dgp", "scheme", "methods", "reps", "B", "taus", "delta", "alpha", "seed",
                      "fixed_pi", "mc_n", "mc_reps", "truth_cache", "workers", "lasso"]


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
    boot = carqte.run_bootstrap(ds, [carqte.adjust._fit_none(grid)], grid, 4,
                                np.random.default_rng(0))
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
    code = main(["simulate", "--dgp", "hd", "--reps", "2", "--B", "20", "--n", "80",
                 "--mc-n", "200", "--mc-reps", "2", "--workers", "1", "--truth-cache",
                 str(cache)])
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


def test_config_alone_can_give_the_input(experiment_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": experiment_csv, "B": 20, "taus": [0.5]}))
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(["estimate", "--input", experiment_csv, "--B", "20", "--taus", "0.5",
                 "--out", str(by_flag)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(by_config)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_an_input_from_neither_flag_nor_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"B": 20}))
    out = tmp_path / "r.json"
    for config in ([], ["--config", str(cfg)]):
        assert main(["estimate", *config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: carqte estimate")
        assert "the following arguments are required: --input" in err
        assert not out.exists()


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
        ({"diff": None}, "diff", None),  # null is the default of an option without one
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


@pytest.mark.parametrize("content", ["[1, 2]", '"B"', "null"])
def test_config_that_is_not_an_object_is_a_data_error(experiment_csv, tmp_path, capsys,
                                                      content):
    path = tmp_path / "cfg.json"
    path.write_text(content)
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--config", str(path),
                 "--out", str(out)])
    assert code == 3
    assert "config file must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_and_simulate_write_to_stdout_without_out(experiment_csv, tmp_path, capsys):
    # No --out, or --out -, writes the report or table to stdout, byte for
    # byte what --out writes to a file; simulate then writes no sidecar.
    estimate = ["estimate", "--input", experiment_csv, "--taus", "0.5", "--B", "20"]
    for argv in (estimate, [*_TINY_SIMULATE, "--methods", "na"]):
        path = tmp_path / "to-file"
        assert main([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        for out in ([], ["--out", "-"]):
            assert main([*argv, *out]) == 0
            assert capsys.readouterr().out == path.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.csv", "to-file",
                                                          "to-file.config.json"]


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


def _parser_options(command):
    parser = carqte.cli._command_parser(_build_parser(), command)
    return {a.dest for a in parser._actions if a.default != argparse.SUPPRESS}


_TINY_SIMULATE = ["simulate", "--n", "60", "--reps", "1", "--B", "2", "--mc-n", "1",
                  "--mc-reps", "1", "--taus", "0.25,0.5"]


def test_config_echo_holds_every_option_but_the_documented_ones(experiment_csv, tmp_path):
    # A new option is echoed unless it is added to these exclusions.
    out = tmp_path / "r.json"
    assert main(["estimate", "--input", experiment_csv, "--taus", "0.25,0.50", "--B", "20",
                 "--diff", "0.50,0.25", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == _parser_options("estimate") - {"config", "out"}
    assert config["taus"] == [0.25, 0.5] and config["diff"] == [0.5, 0.25]
    assert config["uniform"] is False and config["lasso_c"] == 1.1

    out = tmp_path / "sim.csv"
    assert main([*_TINY_SIMULATE, "--dgp", "2", "--methods", "na, lp,", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "sim.csv.config.json").read_text())["config"]
    assert set(config) == _parser_options("simulate") - {"config", "out", "workers",
                                                         "truth_cache"}
    assert config["dgp"] == "dgp2" and config["methods"] == ["na", "lp"]
    assert config["taus"] == [0.25, 0.5] and config["seed"] == 0


def test_options_that_change_results_change_the_config_echo(experiment_csv, tmp_path):
    reports = []
    for c in ("1.1", "3.0"):
        out = tmp_path / f"lasso-{c}.json"
        assert main(["estimate", "--input", experiment_csv, "--adjust", "lasso", "--taus", "0.5",
                     "--B", "20", "--lasso-c", c, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text())["config"])
    assert [r.pop("lasso_c") for r in reports] == [1.1, 3.0]
    assert reports[0] == reports[1]

    sidecars = []
    for target in ("0.4", "0.6"):
        out = tmp_path / f"sim-{target}.csv"
        assert main([*_TINY_SIMULATE, "--scheme", "sbr", "--target-pi", target,
                     "--out", str(out)]) == 0
        sidecars.append(json.loads(Path(f"{out}.config.json").read_text())["config"])
    assert [c.pop("target_pi") for c in sidecars] == [0.4, 0.6]
    assert sidecars[0] == sidecars[1]


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_simulate_workers_below_one_is_a_data_error(tmp_path, capsys, monkeypatch, workers, via):
    def no_oracle(spec):
        raise AssertionError("the oracle ran before --workers was checked")

    monkeypatch.setattr(carqte.harness, "scenario_truth", no_oracle)
    out = tmp_path / "sim.csv"
    argv = [*_TINY_SIMULATE, "--out", str(out)]
    if via == "flag":
        argv.append(f"--workers={workers}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": workers}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 3
    assert "workers >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pi, message", [
    ("fixed:abc", "cannot parse pi spec 'fixed:abc'"),
    ("foo", "--pi must be 'estimated' or 'fixed:<value>'"),
])
def test_unparsable_pi_is_a_data_error(experiment_csv, tmp_path, capsys, pi, message):
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--pi", pi, "--B", "20",
                 "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_uniform_band_on_a_one_tau_grid_is_a_data_error(experiment_csv, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["estimate", "--input", experiment_csv, "--taus", "0.5", "--uniform",
                 "--B", "20", "--out", str(out)])
    assert code == 3
    assert "uniform band needs a grid of at least two taus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    ("--n=0", "sample size must be at least 1"),
    ("--mc-n=0", "mc_n and mc_reps must be at least 1"),
])
def test_simulate_sizes_below_one_are_data_errors(tmp_path, capsys, option, message):
    out = tmp_path / "sim.csv"
    assert main([*_TINY_SIMULATE, option, "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_unknown_dgp_is_a_data_error(tmp_path, capsys):
    # DgpSpec owns the check of the design kind and its message.
    out = tmp_path / "sim.csv"
    assert main([*_TINY_SIMULATE, "--dgp", "3", "--out", str(out)]) == 3
    assert "carqte: unknown dgp kind '3'" in capsys.readouterr().err
    assert not out.exists()


def test_option_defaults_are_the_config_classes_defaults():
    # One owner per default: the options read the dataclass fields, and the
    # oracle's default size is the one simulate has always used.
    parser = _build_parser()
    sim = parser.parse_args(["simulate"])
    spec = {f.name: f.default for f in dataclasses.fields(carqte.ScenarioSpec)}
    names = ("mc_n", "mc_reps", "delta", "workers")
    assert [getattr(sim, k) for k in names] == [spec[k] for k in names] == [10_000, 300, 1.5, 1]
    assert (sim.target_pi, sim.bcd_lambda) == (SchemeSpec.pi, SchemeSpec.bcd_lambda)
    for args in (sim, parser.parse_args(["estimate", "--input", "x.csv"])):
        assert (args.lasso_c, args.lasso_iters) == (spec["lasso"].c,
                                                    spec["lasso"].loading_iterations)


def _overflow_csv(path, case, scale=1e200):
    """A file whose fits or report overflow.  ``covariate``: 80 rows, strata
    A and B, arms alternating, y and x2 standard normal and x1 of order
    ``scale``, at 1e200 so every logistic fit is NaN.  ``collinear``: the
    same with x2 = 1.0, a copy of the intercept, so the Hessians are
    singular too.  ``cell_sum``: the same layout with x1 = 1.7e308 U(0.9, 1),
    so a cell's sum of x1 overflows.  ``outcome``: 60 rows of one stratum,
    treated outcomes 1.7e308 U(0.9, 1) and control ones their negatives, so
    every QTE overflows."""
    if case == "outcome":
        rng = np.random.default_rng(0)
        u, x = 1.7e308 * rng.uniform(0.9, 1.0, 60), rng.standard_normal(60)
        rows = [f"{float(u[i] if i % 2 else -u[i])!r},{i % 2},A,{float(x[i])!r}"
                for i in range(60)]
        path.write_text("\n".join(["y,a,s,x1", *rows]) + "\n")
        return str(path)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(80)
    x1 = (1.7e308 * rng.uniform(0.9, 1.0, 80) if case == "cell_sum"
          else scale * rng.standard_normal(80))
    x2 = np.ones(80) if case == "collinear" else rng.standard_normal(80)
    rows = [f"{float(y[i])!r},{i % 2},{'A' if i < 40 else 'B'},{float(x1[i])!r},"
            f"{float(x2[i])!r}" for i in range(80)]
    path.write_text("\n".join(["y,a,s,x1,x2", *rows]) + "\n")
    return str(path)


@pytest.mark.parametrize("case, argv", [
    *[("covariate", ["--adjust", m]) for m in ("ml", "mlx", "np", "lasso")],
    *[("outcome", ["--adjust", m, "--diff", "0.75,0.25", "--uniform"]) for m in ("na", "lp", "ml")],
    *[("collinear", ["--adjust", m]) for m in ("ml", "lpml", "mlx", "lpmlx", "np", "lasso")],
    ("cell_sum", ["--adjust", "lp"]),
])
def test_non_finite_fits_and_reports_exit_4(tmp_path, case, argv):
    # In a subprocess: under pytest an overflow warning is an error, and
    # LAPACK writes its complaints straight to the stdout file descriptor.
    path, out = _overflow_csv(tmp_path / "overflow.csv", case), tmp_path / "r.json"
    env = {**os.environ, "PYTHONPATH": str(Path(carqte.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "carqte.cli", "estimate", "--input", path, "--B", "50", *argv,
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    method = argv[1]
    why = {"outcome": "non-finite",
           "cell_sum": "lp: demeaned regressors are not finite in stratum 'A', arm 1"}.get(
        case, f"{LOGIT_BASE.get(method, method)}: fitted values are not finite")
    assert "carqte: numerical failure: " in proc.stderr and why in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # the message explains the overflow
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("fails", [False, True])
def test_numpy_warnings_of_every_thread_show_only_when_the_run_succeeds(
        experiment_csv, tmp_path, monkeypatch, fails):
    # An overflow on the calling thread and one on a helper thread, as the
    # fit's and the bootstrap's lanes have: both are shown on exit 0 and
    # dropped on exit 4, while carqte's own warning is shown either way.
    fit_and_bootstrap = carqte.cli._fit_and_bootstrap

    def overflowing(*args):
        with ThreadPoolExecutor(1) as pool:
            pool.submit(np.multiply, np.float64(1e308), 10.0).result()
        np.multiply(np.float64(1e308), 10.0)
        warnings.warn("a carqte warning", UserWarning)
        if fails:
            raise carqte.NumericalError("the fit overflowed")
        return fit_and_bootstrap(*args)

    monkeypatch.setattr(carqte.cli, "_fit_and_bootstrap", overflowing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--input", experiment_csv, "--B", "20",
                     "--out", str(tmp_path / "r.json")])
    assert code == (4 if fails else 0)
    shown = [(w.category, str(w.message)) for w in caught]
    overflow = (RuntimeWarning, "overflow encountered in multiply")
    assert shown == [(UserWarning, "a carqte warning")] if fails else [
        overflow, overflow, (UserWarning, "a carqte warning")]


@pytest.mark.parametrize("method", ["ml", "mlx", "np"])
def test_a_logistic_fit_short_of_the_score_tolerance_is_listed_and_warns_once(
        tmp_path, method):
    # With x1 of order 1e20 no problem meets the score tolerance within the
    # Newton cap, though every coefficient stays finite: the run exits 0
    # and lists all 2 strata x 2 arms x 3 taus problems.
    path = _overflow_csv(tmp_path / "scaled.csv", "covariate", scale=1e20)
    ds, grid = carqte.load_csv(path), carqte.QuantileGrid.of([0.25, 0.5, 0.75])
    text = f"{method}: logistic fit did not reach score tolerance in 12 problem(s)"
    with pytest.warns(UserWarning, match=re.escape(text)):
        model = carqte.fit_adjustment(method, ds, carqte.pilot_quantiles(ds, grid), grid)
    assert model.diagnostics["unconverged"] == tuple(
        (a, s, ti) for s in (0, 1) for a in (1, 0) for ti in range(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--input", path, "--B", "50", "--adjust", method,
                     "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert [str(w.message) for w in caught] == [text]


@pytest.mark.parametrize("case, method, solves", [
    *[("covariate", m, 1) for m in ("ml", "mlx", "np")],
    ("covariate", "lasso", 12),
    ("cell_sum", "ml", 1),
])
def test_newton_fails_a_problem_at_its_first_non_finite_score_or_hessian(
        tmp_path, monkeypatch, capsys, case, method, solves):
    # With x1 of order 1e200 the first scores are finite and every Hessian
    # overflows; with x1 near the float maximum the first scores overflow.
    # Either way each batched solve evaluates its objective once, at
    # theta = 0, and stops: one solve for ml, mlx and np, one post-selection
    # refit per (cell, tau) for the lasso.  Iterating on took 201
    # evaluations per solve.
    from carqte import adjust

    objective, calls = adjust._batch_objective, []

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(adjust, "_batch_objective", counted)
    path, out = _overflow_csv(tmp_path / "overflow.csv", case), tmp_path / "r.json"
    with warnings.catch_warnings():  # the overflows of x1
        warnings.simplefilter("ignore")
        code = main(["estimate", "--input", path, "--B", "50", "--adjust", method,
                     "--out", str(out)])
    assert code == 4
    assert f"{method}: fitted values are not finite" in capsys.readouterr().err
    assert len(calls) == solves
    assert not out.exists()


def test_lp_refuses_a_cell_whose_regressor_sum_overflows(tmp_path, capsys):
    path, out = _overflow_csv(tmp_path / "overflow.csv", "cell_sum"), tmp_path / "r.json"
    with warnings.catch_warnings():  # the overflow of the cell's x1 sum
        warnings.simplefilter("ignore")
        code = main(["estimate", "--input", path, "--B", "50", "--adjust", "lp",
                     "--out", str(out)])
    assert code == 4
    assert "lp: demeaned regressors are not finite in stratum 'A', arm 1" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_lasso_stops_at_the_first_non_finite_kkt_residual(tmp_path, monkeypatch, capsys):
    # A NaN residual never meets the tolerance: each (cell, tau) problem
    # takes one outer step in one loading round, then _model refuses the fit.
    from carqte import adjust

    calls = {"cd": 0, "kkt": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adjust, "_l1_logit_cd", counted("cd", adjust._l1_logit_cd))
    monkeypatch.setattr(adjust, "_l1_kkt_residual", counted("kkt", adjust._l1_kkt_residual))
    path, out = _overflow_csv(tmp_path / "overflow.csv", "covariate"), tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:  # the overflows of x1 ~ 1e200 too
        warnings.simplefilter("always")
        code = main(["estimate", "--input", path, "--B", "50", "--adjust", "lasso",
                     "--out", str(out)])
    assert code == 4
    assert "lasso: fitted values are not finite" in capsys.readouterr().err
    assert {"lasso: penalized solve missed the KKT tolerance in 12 problem(s)",
            "lasso: logistic fit did not reach score tolerance in 12 problem(s)"} <= {
        str(w.message) for w in caught}
    assert calls == {"cd": 12, "kkt": 12}  # 2 strata x 2 arms x 3 taus
    assert not out.exists()


def test_simulate_unknown_method_usage_error():
    assert main(["simulate", "--methods", "na,banana", "--reps", "2"]) == 2


def test_usage_error_without_subcommand():
    assert main([]) == 2


@pytest.mark.parametrize("diff", ["0.5", "0.5,0.3", "a,b", "0.25,0.5,0.75", "0.5,0.5"])
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


# sha256 of the table written by the command below (numpy 2.4, OpenBLAS
# 0.3.31), re-recorded when the normal quantiles came to be computed by
# statistics.NormalDist (only mean_se moved then, by at most 4.4e-16), and
# when dgp1's truth became exact (bias in all 35 rows, power in 2).
# Workers 1 and 2 write the same bytes.
PAPER_TABLE_SHA256 = "803f3c3fc81c21bafe70e65ff97eed28c64d05c885727bb247bd3b3c5ff91f64"


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
# removed, so that the bytes of the whole report are pinned.  Re-recorded
# when the normal quantiles came to be computed by statistics.NormalDist and
# the logistic link by numpy; only standard errors, interval ends and band
# critical values moved then, each by at most 1.3e-15 relative.  A key "<method>-d4" runs the method on a
# 4-covariate file (dgphd, n=600, sbr, its first four covariates): at d=2
# there is one covariate pair, so only there can a slip in the order of the
# product or threshold columns show.
ESTIMATE_REPORT_SHA256 = {
    "lpmlx": "ad4eb0b245c9b644af61732f254aac690fffa6b82c60f9205340f955cfbcf298",
    "lpml": "aaa6820ff04b715a31f9fa4280b5ac3cb18c29cbb0193aab2409cdd1526e4698",
    "na": "b5ea0a123d5fc6162de3e210e883ef01338afd3c65cfd021bf7c247c89e6a41c",
    "lp": "a08dd52bd570b59fc27fcb699fea9d78b26489b6a7f4c18bbef2e7605f4767c2",
    "ml": "5326f6ec21c3b4e35ad7a5f612a44bb1fde4d5920a07012692a8a3031c25e965",
    "mlx": "0e525f53e193285e4c08490933389d67d0b4731a5eebec74b51a14630c208bfd",
    "np": "bb8deec4a11f3ad02036f26d65f69aed874d9751e0794fb93a9656ddd95d000a",
    "lasso": "2f1965fc7bab3dfe55aafa80d831d7e30be4fc6832a72426020e0799accc33b9",
    "mlx-d4": "3c6a16aeac2781360dfdac7770baa1795e15a9e2110cd05fa329b5a140c28310",
    "np-d4": "bd7b2d75daa8aa537c8d3476844397e0e8d1f5be00e24f9b662e8b15afd66cf0",
    "lasso-d4": "4031ab2abe1312442eb5f5df382049e3f0f83bd7f8f2aa0cb24bca6050f6a4e0",
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


def _run_estimate(argv, out):
    """The exit code of ``main(argv)`` and, on exit 0, its strict-JSON report.

    A band over a grid point whose draws do not spread warns.  That warning
    is allowed only with exit 0 and a zero among the band's SEs; any other
    warning is passed on as it came.
    """
    with warnings.catch_warnings(record=True) as caught:
        code = main(argv)
    band = [w for w in caught if "uniform band: zero bootstrap SE" in str(w.message)]
    for w in caught:
        if w not in band:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    report = _strict_json(out.read_text()) if code == 0 else None
    if band:
        assert code == 0 and 0.0 in report["uniform_band"]["se"]
    return code, report


# Two thirds of each arm's outcomes are 0, so every draw's 0.25 quantile is 0
# in both arms: the band below has a zero-SE grid point, and warns.
_BAND_WARNING_BODY = b"\n".join(
    b"%s,%d,u,0.1" % (y, i % 2)
    for i, y in enumerate([b"0"] * 16 + [b"3", b"7", b"2.25", b"1e2", b"0.5", b"4", b"-1", b"1"])
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bom=st.booleans(), body=_BODIES)
@example(bom=False, body=_BAND_WARNING_BODY)
def test_any_csv_body_ends_in_a_documented_exit(tmp_path, bom, body):
    # Arbitrary body bytes, invalid UTF-8 and NUL included, end in exit 0
    # with strict JSON, 3 (bad data) or 4 (numerical failure).
    path, out = tmp_path / "fuzz.csv", tmp_path / "fuzz.json"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + b"y,a,s,x1\n" + body)
    out.unlink(missing_ok=True)
    code, report = _run_estimate(["estimate", "--input", str(path), "--taus", "0.25,0.5",
                                  "--B", "20", "--uniform", "--out", str(out)], out)
    assert code in (0, 3, 4)
    if code == 0:
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
@example(opts=[("taus", "1e-300,0.5", False), ("uniform", True, False), ("B", "3", False)],
         removed_flag=False)  # a band with a zero-SE grid point
def test_any_estimate_argv_ends_in_a_documented_exit(experiment_csv, tmp_path, opts,
                                                     removed_flag):
    out = tmp_path / "fuzz.json"
    out.unlink(missing_ok=True)
    argv = _fuzz_argv(["estimate", "--input", experiment_csv, "--out", str(out)], opts,
                      tmp_path)
    code, report = _run_estimate(argv + (["--target-pi=0.3"] if removed_flag else []), out)
    assert code in (0, 2, 3, 4)
    if removed_flag:
        assert code == 2
    if code == 0:
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
