"""Monte Carlo harness: size/power of the three tests across designs.

One scenario fixes a design, a randomization scheme, a sample size, and a
list of adjustment methods.  Every replication draws fresh potential data,
assigns treatment, fits each method on the shared draw, point-estimates and
bootstraps all methods together over one stream of weights, and tests
against the cached truth (size) and the truth shifted by ``delta`` (power).
Replication seeds derive from (master seed, replication index), so results
do not depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adjust import LOGIT_BASE, METHODS, LassoConfig, fit_adjustment
from .bootstrap import (
    _normal_critical_values, difference_test, pointwise_test, run_bootstrap, uniform_band,
)
from .data import Dataset, QuantileGrid, index_strata
from .dgp import DgpSpec, cached_true_qte, generate
from .errors import CarqteError, DataValidationError
from .estimator import pilot_quantiles, qte  # noqa: F401 - perfbench traces harness.qte
from .randomization import SchemeSpec, assign

_FAILURE_BUDGET = 0.01


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one Monte Carlo experiment.

    ``fixed_pi`` None estimates the treated fractions; a scalar or
    per-stratum value in (0, 1) fixes them (the naive variant).
    """

    dgp: DgpSpec
    scheme: SchemeSpec
    methods: tuple[str, ...]
    reps: int
    B: int
    taus: QuantileGrid
    delta: float = 1.5
    alpha: float = 0.05
    seed: int = 0
    fixed_pi: object = None
    mc_n: int = 10_000
    mc_reps: int = 1_000
    oracle_seed: int = 0
    truth_cache: str | None = None
    workers: int = 1
    lasso_c: float = 1.1
    lasso_iters: int = 2

    def __post_init__(self) -> None:
        if self.reps < 1 or self.B < 2:
            raise DataValidationError("need reps >= 1 and B >= 2")
        if self.seed < 0 or self.oracle_seed < 0:
            raise DataValidationError("seeds must be non-negative integers")
        _normal_critical_values(self.alpha)  # checks alpha
        for m in self.methods:
            if m not in METHODS:
                raise DataValidationError(f"unknown method {m!r}")
        LassoConfig(c=self.lasso_c, loading_iterations=self.lasso_iters)  # checks both

    @property
    def n(self) -> int:
        return self.dgp.n


@dataclass(frozen=True)
class ScenarioResult:
    """Aggregated rejection rates, biases, and bootstrap SEs per method/test."""

    spec: ScenarioSpec
    truth: tuple[float, ...]
    rows: dict
    failures: int

    def row(self, method: str, test: str) -> dict:
        return self.rows[(method, test)]


def _test_names(grid: QuantileGrid) -> list[str]:
    names = [f"pointwise@{tau:g}" for tau in grid]
    if len(grid) >= 2:
        taus = tuple(grid)
        names.append(f"diff({taus[-1]:g},{taus[0]:g})")
        names.append("uniform")
    return names


def _run_one_rep(spec: ScenarioSpec, truth: np.ndarray, rep: int) -> dict:
    """One replication; returns (method, test) -> (reject0, reject1, bias, se)."""
    latent = generate(
        spec.dgp, np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 0)))
    )
    a = assign(
        latent.s, spec.scheme,
        np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 1))),
    )
    dataset = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    stats = index_strata(dataset)
    grid = spec.taus
    taus = tuple(grid)
    pilot = pilot_quantiles(dataset, stats, grid)

    lasso_cfg = LassoConfig(c=spec.lasso_c, loading_iterations=spec.lasso_iters)
    # Logistic fits come first so that lpml/lpmlx reuse them, whatever the
    # order of the requested methods.
    models: dict = {}
    for method in sorted(spec.methods, key=lambda m: m in LOGIT_BASE):
        models[method] = fit_adjustment(
            method, dataset, stats, pilot, grid, lasso_config=lasso_cfg,
            ml_model=models.get(LOGIT_BASE.get(method)),
        )
    # One stream for all methods: every method sees identical bootstrap
    # weights, so method comparisons are paired.  The same solve gives the
    # point estimates.
    boot_rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 2)))
    boot = run_bootstrap(
        dataset, stats, [models[m] for m in spec.methods], grid, spec.B, boot_rng,
        fixed_pi=spec.fixed_pi,
    )
    # Each inference result is computed once and decides both the size null
    # (the truth) and the power null (the truth shifted by delta).
    out: dict = {}
    for method, draws in zip(spec.methods, boot):
        est = draws.point.qte
        for j, tau in enumerate(taus):
            res = pointwise_test(est[j], draws.draws[:, j], None, spec.alpha)
            out[(method, f"pointwise@{tau:g}")] = (
                float(res.rejects(truth[j])), float(res.rejects(truth[j] + spec.delta)),
                float(est[j] - truth[j]), res.se,
            )
        if len(taus) >= 2:
            dname = f"diff({taus[-1]:g},{taus[0]:g})"
            dtruth = truth[-1] - truth[0]
            d = difference_test(
                est[-1], est[0], draws.draws[:, -1], draws.draws[:, 0], None, spec.alpha,
            )
            out[(method, dname)] = (
                float(d.rejects(dtruth)), float(d.rejects(dtruth + spec.delta)),
                float((est[-1] - est[0]) - dtruth), d.se,
            )
            u = uniform_band(est, draws.draws, spec.alpha)
            out[(method, "uniform")] = (
                float(u.rejects(truth)), float(u.rejects(truth + spec.delta)),
                float(np.mean(est - truth)), float(np.mean(u.se)),
            )
    return out


def _rep_worker(args) -> tuple[int, dict | None, str | None]:
    spec, truth, rep = args
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return rep, _run_one_rep(spec, truth, rep), None
    except CarqteError as exc:
        return rep, None, f"rep {rep}: {exc}"


def scenario_truth(spec: ScenarioSpec) -> np.ndarray:
    """Oracle QTE truths for the scenario's design and grid."""
    return cached_true_qte(
        DgpSpec(spec.dgp.kind, spec.mc_n, spec.dgp.gamma),
        spec.taus,
        mc_n=spec.mc_n,
        mc_reps=spec.mc_reps,
        seed=spec.oracle_seed,
        cache_path=spec.truth_cache,
    )


def run_scenario(spec: ScenarioSpec, truth: np.ndarray | None = None) -> ScenarioResult:
    """Run all replications and aggregate rejection rates and moments.

    Per-replication failures are tolerated up to a 1% budget and excluded
    from the averages; beyond the budget the scenario raises.
    """
    if truth is None:
        truth = scenario_truth(spec)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != (len(spec.taus),):
        raise DataValidationError("truth vector must match the quantile grid")

    tasks = [(spec, truth, r) for r in range(spec.reps)]
    results: list[tuple[int, dict | None, str | None]] = []
    # A fork pool starts all its workers at once, so never ask for more than
    # there are replications or CPUs to run them.
    workers = min(spec.workers, spec.reps, _available_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rep_worker, tasks, chunksize=8))
    else:
        results = [_rep_worker(t) for t in tasks]
    results.sort(key=lambda item: item[0])

    messages = [msg for _, _, msg in results if msg is not None]
    if len(messages) > max(_FAILURE_BUDGET * spec.reps, 0.0):
        raise DataValidationError(
            f"{len(messages)} of {spec.reps} replications failed; first: {messages[0]}"
        )
    per_rep = [payload for _, payload, _ in results if payload is not None]
    if not per_rep:
        raise DataValidationError("every replication failed")

    names = _test_names(spec.taus)
    rows: dict = {}
    reps_used = len(per_rep)
    for method in spec.methods:
        for test in names:
            vals = np.array([rep[(method, test)] for rep in per_rep])
            size = float(vals[:, 0].mean())
            power = float(vals[:, 1].mean())
            rows[(method, test)] = {
                "method": method,
                "test": test,
                "size": size,
                "size_mcse": float(np.sqrt(size * (1.0 - size) / reps_used)),
                "power": power,
                "power_mcse": float(np.sqrt(power * (1.0 - power) / reps_used)),
                "bias": float(vals[:, 2].mean()),
                "mean_se": float(vals[:, 3].mean()),
                "reps": reps_used,
            }
    return ScenarioResult(
        spec=spec, truth=tuple(float(v) for v in truth), rows=rows,
        failures=len(messages),
    )


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = (
    "dgp", "scheme", "n", "B", "method", "test", "reps",
    "size", "size_mcse", "power", "power_mcse", "bias", "mean_se",
)


def _result_records(results) -> list[dict]:
    if isinstance(results, ScenarioResult):
        results = [results]
    records = []
    for res in results:
        for (method, test), row in sorted(res.rows.items()):
            records.append(
                {
                    "dgp": res.spec.dgp.kind,
                    "scheme": res.spec.scheme.kind,
                    "n": res.spec.n,
                    "B": res.spec.B,
                    "method": method,
                    "test": test,
                    "reps": row["reps"],
                    "size": row["size"],
                    "size_mcse": row["size_mcse"],
                    "power": row["power"],
                    "power_mcse": row["power_mcse"],
                    "bias": row["bias"],
                    "mean_se": row["mean_se"],
                }
            )
    return records


def emit_table(results, format: str = "csv") -> str:
    """Render scenario results as CSV (full precision) or aligned text."""
    records = _result_records(results)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        for rec in records:
            writer.writerow(
                [repr(rec[c]) if isinstance(rec[c], float) else rec[c] for c in _TABLE_COLUMNS]
            )
        return buf.getvalue()
    if format == "text":
        fmt = {
            "size": "{:.3f}", "size_mcse": "{:.3f}", "power": "{:.3f}",
            "power_mcse": "{:.3f}", "bias": "{:+.3f}", "mean_se": "{:.3f}",
        }
        cells = [
            [fmt.get(c, "{}").format(rec[c]) for c in _TABLE_COLUMNS] for rec in records
        ]
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
            for i, c in enumerate(_TABLE_COLUMNS)
        ]
        lines = ["  ".join(c.ljust(w) for c, w in zip(_TABLE_COLUMNS, widths)).rstrip()]
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise DataValidationError(f"unknown table format {format!r}")


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count from the CARQTE_WORKERS environment variable (default 1)."""
    raw = os.environ.get("CARQTE_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1
