"""Command line entry points: ``estimate`` on a CSV and ``simulate``.

Exit codes: 0 success, 2 usage error, 3 data validation failure, 4 numerical
failure.  All outputs embed the resolved configuration and seed; identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
# perfbench/child.py wraps the names this module imports; fit_adjustment,
# run_bootstrap, the inference functions, index_strata and qte are imported
# for it only.
from .adjust import METHODS, LassoConfig, fit_adjustment  # noqa: F401
from .bootstrap import (  # noqa: F401
    _normal_critical_values, difference_test, pointwise_test, run_bootstrap, uniform_band,
)
from .data import QuantileGrid, _checked_fractions, index_strata, load_csv  # noqa: F401
from .dgp import DGP_KINDS, DgpSpec
from .errors import CarqteError, DataValidationError, NumericalError
from .estimator import pilot_quantiles, qte  # noqa: F401
from .harness import (
    ScenarioSpec, _fit_and_bootstrap, _wald_tests, default_workers, emit_table, run_scenario,
)
from .randomization import SCHEME_KINDS, SchemeSpec

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


class _UsageError(Exception):
    pass


def _parse_taus(raw) -> QuantileGrid:
    try:
        if isinstance(raw, (list, tuple)):
            return QuantileGrid.of(float(v) for v in raw)
        return QuantileGrid.of(float(v) for v in raw.split(",") if v.strip())
    except (TypeError, ValueError):
        raise DataValidationError(f"cannot parse quantile list {raw!r}") from None


def _parse_diff(raw, grid: QuantileGrid) -> tuple[float, float]:
    """The two grid taus of a difference test, from 't1,t2' or a config list."""
    parts = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    try:
        taus = tuple(float(v) for v in parts)
    except (TypeError, ValueError):
        taus = ()
    if len(taus) != 2 or any(t not in tuple(grid) for t in taus):
        raise DataValidationError(
            f"--diff needs two taus from the grid {list(grid)}, got {raw!r}"
        )
    return taus


def _check_finite(value: float, option: str) -> None:
    if not np.isfinite(value):
        raise DataValidationError(f"--{option} must be a finite number, got {value!r}")


def _parse_pi(raw: str) -> float | None:
    """None for 'estimated', the known treated fraction of 'fixed:<value>'."""
    if raw == "estimated":
        return None
    if raw.startswith("fixed:"):
        try:
            value = float(raw.split(":", 1)[1])
        except ValueError:
            raise DataValidationError(f"cannot parse pi spec {raw!r}") from None
        _checked_fractions(value, "fixed pi")
        return value
    raise DataValidationError("--pi must be 'estimated' or 'fixed:<value>'")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# Config keys that name argparse internals rather than options.
_RESERVED_CONFIG_KEYS = ("func", "command", "config")
# String options whose parsers also take a JSON list.
_LIST_OPTIONS = ("taus", "methods", "diff")


def _config_value(action: argparse.Action, key: str, value):
    """A config value converted the way argparse converts the option's text.

    Integer options take integral numbers only (``2.0`` but not ``2.5``),
    flags take booleans only, and no valued option takes a boolean.
    """
    bad = DataValidationError(f"config key {key!r}: invalid value {value!r}")
    if value is None:
        if action.default is None:
            return None
        raise bad
    if action.nargs == 0:  # store_true flag
        if not isinstance(value, bool):
            raise bad
        return value
    if isinstance(value, bool):
        raise bad
    if action.type in (int, float):
        if action.type is int and isinstance(value, float):
            if not value.is_integer():
                raise bad
            value = int(value)
        try:
            value = action.type(value)
        except (TypeError, ValueError):
            raise bad from None
    elif isinstance(value, list) and action.dest in _LIST_OPTIONS:
        return value
    elif isinstance(value, (int, float)):
        value = str(value)
    elif not isinstance(value, str):
        raise bad
    if action.choices is not None and value not in action.choices:
        raise bad
    return value


def _set_config_defaults(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Make the values of the JSON config file ``args.config`` the defaults
    of the subcommand ``args.command``."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataValidationError("config file must hold a JSON object")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices[args.command]
    options = {a.dest: a for a in command._actions if a.default != argparse.SUPPRESS}
    defaults = {}
    for key, value in cfg.items():
        name = key.replace("-", "_")
        if name in _RESERVED_CONFIG_KEYS:
            raise DataValidationError(f"config key {key!r} is reserved")
        if name in options:  # schema tolerance: unknown fields are ignored
            defaults[name] = _config_value(options[name], key, value)
    command.set_defaults(**defaults)


def _wald_row(res, null: float) -> dict:
    return {"estimate": res.estimate, "se": res.se, "ci": [res.ci_lower, res.ci_upper],
            "reject": res.rejects(null), "null": null}


def cmd_estimate(args: argparse.Namespace) -> int:
    grid = _parse_taus(args.taus)
    fixed_pi = _parse_pi(args.pi)
    alpha = args.alpha
    _normal_critical_values(alpha)  # alpha in (0, 1) with finite critical values
    _check_finite(args.null, "null")
    if args.seed < 0:
        raise DataValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    diff = _parse_diff(args.diff, grid) if args.diff else None
    if args.uniform and len(grid) < 2:
        raise DataValidationError("uniform band needs a grid of at least two taus")
    dataset = load_csv(args.input)
    pilot = pilot_quantiles(dataset, grid)
    lasso_cfg = LassoConfig(c=args.lasso_c, loading_iterations=args.lasso_iters)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    boot = _fit_and_bootstrap(dataset, pilot, (args.adjust,), grid, args.B, rng, fixed_pi,
                              lasso_cfg, {})
    pairs = [tuple(grid.index_of(t) for t in diff)] if diff is not None else []
    (results,) = _wald_tests(boot, alpha, pairs, args.uniform)
    report = {
        "version": __version__,
        "schema": 1,
        "command": "estimate",
        "config": {
            "input": args.input,
            "adjust": args.adjust,
            "taus": list(grid),
            "B": args.B,
            "alpha": alpha,
            "seed": args.seed,
            "pi": args.pi,
            "null": args.null,
        },
        "n": dataset.n,
        "n_strata": dataset.n_strata,
        "method": args.adjust,
        "B": args.B,
        "alpha": alpha,
        "seed": args.seed,
        "bootstrap_resampled": boot.n_resampled,
        "pointwise": [{"tau": tau, **_wald_row(res, args.null)}
                      for tau, res in zip(grid, results)],
    }
    if diff is not None:
        t1, t2 = diff
        report["difference"] = {"tau1": t1, "tau2": t2,
                                **_wald_row(results[len(grid)], args.null)}
    if args.uniform:
        band = results[-1]
        report["uniform_band"] = {
            "taus": list(grid),
            "estimate": [float(v) for v in band.estimate],
            "se": [float(v) for v in band.se],
            "lower": [float(v) for v in band.ci_lower],
            "upper": [float(v) for v in band.ci_upper],
            "critical_value": band.critical_value,
        }
    _dump_json(report, args.out)
    return _EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    grid = _parse_taus(args.taus)
    fixed_pi = _parse_pi(args.pi)
    alpha = args.alpha  # checked by ScenarioSpec
    _check_finite(args.delta, "delta")
    raw_methods = args.methods
    if isinstance(raw_methods, str):
        raw_methods = [m.strip() for m in raw_methods.split(",")]
    methods = tuple(m for m in raw_methods if m)
    for m in methods:
        if m not in METHODS:
            raise _UsageError(f"unknown method {m!r}; choose from {METHODS}")
    dgp_kind = {"1": "dgp1", "2": "dgp2", "hd": "dgphd"}.get(args.dgp, args.dgp)
    if dgp_kind not in DGP_KINDS:
        raise DataValidationError(f"unknown dgp {args.dgp!r}")
    spec = ScenarioSpec(
        dgp=DgpSpec(dgp_kind, args.n),
        scheme=SchemeSpec(args.scheme, pi=args.target_pi, bcd_lambda=args.bcd_lambda),
        methods=methods,
        reps=args.reps,
        B=args.B,
        taus=grid,
        delta=args.delta,
        alpha=alpha,
        seed=args.seed,
        fixed_pi=fixed_pi,
        mc_n=args.mc_n,
        mc_reps=args.mc_reps,
        truth_cache=args.truth_cache,
        workers=args.workers,
        lasso_c=args.lasso_c,
        lasso_iters=args.lasso_iters,
    )
    result = run_scenario(spec)
    table = emit_table(result)
    if args.out is None or args.out == "-":
        sys.stdout.write(table)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
        sidecar = {
            "version": __version__,
            "command": "simulate",
            "seed": args.seed,
            "config": {
                "dgp": dgp_kind,
                "scheme": args.scheme,
                "methods": list(methods),
                "n": args.n,
                "reps": args.reps,
                "B": args.B,
                "taus": list(grid),
                "delta": args.delta,
                "alpha": alpha,
                "pi": args.pi,
                "mc_n": args.mc_n,
                "mc_reps": args.mc_reps,
            },
            "truth": list(result.truth),
            "failures": result.failures,
        }
        _dump_json(sidecar, args.out + ".config.json")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carqte",
        description="Regression-adjusted QTE estimation and multiplier-bootstrap "
        "inference under covariate-adaptive randomization.",
        allow_abbrev=False,  # a prefix would change meaning when an option is added
    )
    parser.add_argument("--version", action="version", version=f"carqte {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate QTEs from a CSV experiment file",
                         allow_abbrev=False)
    est.add_argument("--input", required=True, help="CSV with columns y, a, s, x1..xd")
    est.add_argument("--adjust", default="na", choices=METHODS)
    est.add_argument("--taus", default="0.25,0.5,0.75")
    est.add_argument("--B", type=int, default=1000)
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--null", type=float, default=0.0, help="null QTE value to test")
    est.add_argument("--pi", default="estimated", help="'estimated' or 'fixed:<value>'")
    est.add_argument("--lasso-c", type=float, default=1.1, dest="lasso_c")
    est.add_argument("--lasso-iters", type=int, default=2, dest="lasso_iters")
    est.add_argument("--diff", default=None, help="two taus 't1,t2' for a difference test")
    est.add_argument("--uniform", action="store_true", help="emit a uniform band")
    est.add_argument("--config", default=None, help="JSON config file; flags win")
    est.add_argument("--out", default=None, help="report path (default stdout)")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a Monte Carlo scenario", allow_abbrev=False)
    sim.add_argument("--dgp", default="1", help="1, 2, or hd")
    sim.add_argument("--scheme", default="srs", choices=SCHEME_KINDS)
    sim.add_argument("--methods", default="na")
    sim.add_argument("--n", type=int, default=400)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--B", type=int, default=200)
    sim.add_argument("--taus", default="0.5")
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--delta", type=float, default=1.5)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--pi", default="estimated", help="'estimated' or 'fixed:<value>'")
    sim.add_argument("--target-pi", type=float, default=0.5, dest="target_pi")
    sim.add_argument("--bcd-lambda", type=float, default=0.75, dest="bcd_lambda")
    sim.add_argument("--lasso-c", type=float, default=1.1, dest="lasso_c")
    sim.add_argument("--lasso-iters", type=int, default=2, dest="lasso_iters")
    sim.add_argument("--mc-n", type=int, default=10_000, dest="mc_n")
    sim.add_argument("--mc-reps", type=int, default=300, dest="mc_reps")
    sim.add_argument("--truth-cache", default=None, dest="truth_cache")
    sim.add_argument("--workers", type=int, default=default_workers())
    sim.add_argument("--config", default=None, help="JSON config file; flags win")
    sim.add_argument("--out", default=None, help="results CSV path (default stdout)")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        if args.config:
            # Config values become defaults, so options typed on the command
            # line win when argv is parsed again.
            _set_config_defaults(args, parser)
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"carqte: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalError as exc:
        print(f"carqte: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (CarqteError, OSError) as exc:
        print(f"carqte: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
