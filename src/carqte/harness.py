"""Monte Carlo harness: size/power of the three tests across designs.

One scenario fixes a design, a randomization scheme, a sample size, and a
list of adjustment methods.  Every replication draws fresh potential data,
assigns treatment, fits each method on the shared draw, point-estimates and
bootstraps all methods together over one stream of weights, and tests
against the design's true QTE (size; exact for dgp1 and dgp2, a cached Monte
Carlo oracle for dgphd) and the truth shifted by ``delta`` (power)
through the Wald rule of ``carqte estimate``, ``bootstrap._wald_tests``.
Replications run in groups of consecutive indices that share each logistic
fit; seeds derive from (master seed, replication index) and groups from the
index alone, so results do not depend on the worker count.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adjust import LOGIT_BASE, LOGIT_METHODS, METHODS, LassoConfig, fit_adjustment, fit_ml
from .bootstrap import _draw_matrix, _normal_critical_values, _wald_tests, run_bootstrap
# perfbench traces these by name; the harness no longer calls them.
from .bootstrap import difference_test, pointwise_test, uniform_band  # noqa: F401
from .data import Dataset, QuantileGrid, _checked_fraction
from .data import index_strata  # noqa: F401 - perfbench traces it
from .dgp import DgpSpec, cached_true_qte, generate
from .errors import CarqteError, DataValidationError
from .estimator import pilot_quantiles, qte  # noqa: F401 - perfbench traces harness.qte
from .randomization import SchemeSpec, assign

_FAILURE_BUDGET = 0.01
# Replications per task: each logistic method is fitted once per group.
_REP_GROUP = 8


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one Monte Carlo experiment.

    ``fixed_pi`` None estimates the treated fractions; one number in
    (0, 1) fixes every stratum's (the naive variant), and anything else
    fails at construction.  ``mc_n`` and ``mc_reps`` size dgphd's Monte
    Carlo oracle and ``truth_cache`` names its cache; dgp1 and dgp2 have
    exact truths and use none of the three.  ``simulate`` takes its
    defaults here.
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
    fixed_pi: float | None = None
    mc_n: int = 10_000
    mc_reps: int = 300
    truth_cache: str | None = None
    workers: int = 1
    lasso: LassoConfig = LassoConfig()

    def __post_init__(self) -> None:
        if self.reps < 1 or self.B < 2 or self.workers < 1:
            raise DataValidationError("need reps >= 1, B >= 2 and workers >= 1")
        if self.seed < 0:
            raise DataValidationError("seeds must be non-negative integers")
        if self.mc_n < 1 or self.mc_reps < 1:
            raise DataValidationError("mc_n and mc_reps must be at least 1")
        _normal_critical_values(self.alpha)  # checks alpha
        for m in self.methods:
            if m not in METHODS:
                raise DataValidationError(f"unknown method {m!r}")
        if self.fixed_pi is not None:
            _checked_fraction(self.fixed_pi, "fixed pi")

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


def _test_names(grid: QuantileGrid) -> list[str]:
    names = [f"pointwise@{tau:g}" for tau in grid]
    if len(grid) >= 2:
        taus = tuple(grid)
        names.append(f"diff({taus[-1]:g},{taus[0]:g})")
        names.append("uniform")
    return names


def _prepare(spec: ScenarioSpec, rep: int) -> tuple:
    """Replication ``rep``'s data: the ``(dataset, pilot)`` fit item."""
    latent = generate(
        spec.dgp, np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 0)))
    )
    a = assign(
        latent.s, spec.scheme,
        np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 1))),
    )
    dataset = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    return dataset, pilot_quantiles(dataset, spec.taus)


# The pipeline of ``carqte estimate`` and of one Monte Carlo replication
# lives here, not in ``cli``: the benchmark's tracer (perfbench/child.py)
# wraps the names that ``carqte.cli`` and ``carqte.harness`` import, so the
# fits, the bootstrap and the band stay traced when called through this
# module's globals.


def _fit_and_bootstrap(dataset, pilot, methods, grid, B, rng, fixed_pi, lasso_cfg, models: dict):
    """Fit every method missing from ``models``, then bootstrap them all.

    lpml/lpmlx reuse the ml/mlx fit in ``models``; without one they fit
    their own base.  One stream for all methods: every method sees identical
    bootstrap weights, so method comparisons are paired.  The same solve
    gives the point estimates.
    """
    for method in methods:
        if method not in models:
            models[method] = fit_adjustment(
                method, dataset, pilot, grid, lasso_config=lasso_cfg,
                ml_model=models.get(LOGIT_BASE.get(method)),
            )
    return run_bootstrap(dataset, [models[m] for m in methods], grid, B, rng, fixed_pi=fixed_pi)


def _inference(spec: ScenarioSpec, truth: np.ndarray, boot) -> dict:
    """(method, test) -> (reject0, reject1, bias, se) from the methods' draws.

    Each result decides both the size null (the truth) and the power null
    (the truth shifted by delta).
    """
    two = len(spec.taus) >= 2
    pairs = [(len(spec.taus) - 1, 0)] if two else []
    nulls = [*truth, truth[-1] - truth[0], truth]
    out: dict = {}
    for method, results in zip(spec.methods, _wald_tests(boot, spec.alpha, pairs, two)):
        for name, res, null in zip(_test_names(spec.taus), results, nulls):
            out[(method, name)] = (
                float(res.rejects(null)), float(res.rejects(null + spec.delta)),
                float(np.mean(res.estimate - null)), float(np.mean(res.se)),
            )
    return out


def _run_group(args) -> list:
    """One group of replications; returns (rep, payload, message) per rep.

    Each logistic method is fitted once for the whole group.  A replication
    that fails leaves the group, and its group-mates go on.
    """
    spec, truth, reps = args
    items, failed, payloads = {}, {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in reps:
            try:
                items[rep] = _prepare(spec, rep)
            except CarqteError as exc:
                failed[rep] = exc
        models: dict = {rep: {} for rep in items}
        wanted = {LOGIT_BASE.get(m, m) for m in spec.methods}
        for method in (m for m in LOGIT_METHODS if m in wanted):
            live = [rep for rep in items if rep not in failed]
            for rep, fit in zip(live, fit_ml([items[r] for r in live], spec.taus, method=method)):
                if isinstance(fit, CarqteError):
                    failed[rep] = fit
                else:
                    models[rep][method] = fit
        # The other methods are fitted per replication, reusing these fits.
        for rep in [r for r in items if r not in failed]:
            rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(rep, 2)))
            try:
                boot = _fit_and_bootstrap(*items[rep], spec.methods, spec.taus, spec.B, rng,
                                          spec.fixed_pi, spec.lasso, models[rep])
                payloads[rep] = _inference(spec, truth, boot)
            except CarqteError as exc:
                failed[rep] = exc
    return [(rep, payloads.get(rep), f"rep {rep}: {failed[rep]}" if rep in failed else None)
            for rep in reps]


def scenario_truth(spec: ScenarioSpec) -> np.ndarray:
    """True QTEs for the scenario's design and grid (see :func:`cached_true_qte`)."""
    return cached_true_qte(
        spec.dgp,
        spec.taus,
        mc_n=spec.mc_n,
        mc_reps=spec.mc_reps,
        cache_path=spec.truth_cache,
    )


def run_scenario(spec: ScenarioSpec, truth: np.ndarray | None = None) -> ScenarioResult:
    """Run all replications and aggregate rejection rates and moments.

    Per-replication failures are tolerated up to a 1% budget and excluded
    from the averages; beyond the budget the scenario raises.
    """
    # A B too large to hold fails here, before the truth and any replication.
    _draw_matrix(len(spec.methods), spec.B, len(spec.taus))
    if truth is None:
        truth = scenario_truth(spec)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != (len(spec.taus),):
        raise DataValidationError("truth vector must match the quantile grid")

    # Groups are fixed by rep index, never by the worker that runs them.
    tasks = [
        (spec, truth, range(start, min(start + _REP_GROUP, spec.reps)))
        for start in range(0, spec.reps, _REP_GROUP)
    ]
    # A fork pool starts all its workers at once, so never ask for more than
    # there are groups or CPUs to run them.
    workers = min(spec.workers, len(tasks), _available_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_run_group, tasks))
    else:
        groups = [_run_group(t) for t in tasks]
    results = [item for group in groups for item in group]

    messages = [msg for _, _, msg in results if msg is not None]
    # The budget is below one, so this ends a scenario whose every replication failed.
    if len(messages) > _FAILURE_BUDGET * spec.reps:
        raise DataValidationError(
            f"{len(messages)} of {spec.reps} replications failed; first: {messages[0]}"
        )
    per_rep = [payload for _, payload, _ in results if payload is not None]

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


def _result_records(res: ScenarioResult) -> list[dict]:
    design = {"dgp": res.spec.dgp.kind, "scheme": res.spec.scheme.kind, "n": res.spec.n,
              "B": res.spec.B}
    return [{**design, **row} for _, row in sorted(res.rows.items())]


def emit_table(result: ScenarioResult) -> str:
    """Render one scenario result as CSV, floats at full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for rec in _result_records(result):
        writer.writerow(
            [repr(rec[c]) if isinstance(rec[c], float) else rec[c] for c in _TABLE_COLUMNS]
        )
    return buf.getvalue()


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
