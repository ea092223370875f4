"""carqte benchmark: batch workloads through ``carqte.cli.main``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate-large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

``BENCHMARK.json`` lists estimate-large and sim-paper; estimate-hd-lasso runs
on request (see README.md for why).

Every call runs in a fresh interpreter (``child.py``), one at a time from this
process: a closed loop with one client.  Inputs come from ``inputs.py`` and the
seed; the program sees only the generated CSV files or CLI arguments.  Each
call's output is checked, and a call that exits non-zero or fails any check
counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the calls alternate untraced/traced on the same input and the
line carries the per-layer metrics read from the traced calls' spans.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TAUS = (0.25, 0.5, 0.75)
SIM_METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np")
ALL_METHODS = SIM_METHODS + ("lasso",)
LAYERS = ("cli", "harness", "data", "estimator", "adjust", "bootstrap", "dgp", "randomization")
# A run ends within this many seconds of its start even if calls hang.
RUN_DEADLINE_S = 160.0
# An estimate must lie within this many bootstrap SEs of the Monte Carlo truth.
TRUTH_SES = 5.0
# BLAS threads in the child: fixed so runs do not depend on how busy the
# machine's other cores are.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: inputs.Design | None  # None: simulate, which reads no CSV
    adjust: str = "na"
    files: int = 1  # datasets per run; the call time is averaged over them
    reps: int = 10  # simulate replications per call
    n: int = 400  # simulate sample size
    B: int = 200


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "estimate-large",
            "200k-row CSV, lpmlx, B=200: CSV parsing and an n-bound bootstrap over a few large cells",
            inputs.Design("large", 200_000), adjust="lpmlx",
        ),
        Workload(
            "sim-paper",
            "paper Monte Carlo loop, 7 methods at n=400: overhead-bound bootstrap and 49 small fits per rep",
            None,
        ),
        Workload(
            "estimate-hd-lasso",
            "400 rows, 20 covariates, lasso: coordinate descent is ~99% of the call; data and bootstrap tiny",
            inputs.Design("hd", 400), adjust="lasso", files=6,
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs and calls
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One input of a run: the argument lists of its calls and its truth."""

    argv: list
    setup_argv: list | None
    report: Path
    sha256: str
    truth: np.ndarray | None = None
    reference: bytes | None = None  # first report, for the byte-identity check


def make_cases(w: Workload, seed: int, work: Path) -> list[Case]:
    taus = ",".join(repr(t) for t in TAUS)
    inference = ["--taus", taus, "--B", str(w.B), "--seed", str(seed)]
    if w.design is None:
        cache = work / "truth_cache.json"
        base = ["simulate", "--dgp", "1", "--scheme", "sbr", "--n", str(w.n),
                "--workers", "1", "--truth-cache", str(cache)] + inference
        argv = base + ["--methods", ",".join(SIM_METHODS), "--reps", str(w.reps),
                       "--out", str(work / "sim.csv")]
        # Set-up: the oracle truth on an empty cache (CLI defaults), which also
        # fills the cache the timed call reads.
        setup = base + ["--methods", "na", "--reps", "1", "--out", str(work / "setup.csv")]
        sha = hashlib.sha256(json.dumps(argv).encode()).hexdigest()
        return [Case(argv, setup, work / "sim.csv", sha)]
    truth = inputs.true_qte(w.design, TAUS, seed)
    cases = []
    for j in range(w.files):
        path = work / f"input{j}.csv"
        sha = inputs.generate_csv(w.design, seed, str(path), index=j)
        report = work / f"report{j}.json"
        argv = ["estimate", "--input", str(path), "--adjust", w.adjust, "--diff", "0.75,0.25",
                "--uniform", "--out", str(report)] + inference
        cases.append(Case(argv, None, report, sha, truth))
    return cases


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    env.pop("CARQTE_WORKERS", None)
    return env


def run_call(case: Case, trace: bool, work: Path, k: int, timeout: float) -> dict:
    """Run one call in a fresh interpreter; return its exit code and result."""
    for stale in (case.report, Path(f"{case.report}.config.json"), work / "truth_cache.json"):
        stale.unlink(missing_ok=True)
    spec = work / f"call{k}.json"
    result = work / f"call{k}.result.json"
    spec.write_text(json.dumps({"src": str(SRC), "trace": trace, "argv": case.argv,
                                "setup_argv": case.setup_argv, "result": str(result)}))
    with open(work / f"call{k}.log", "wb") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  cwd=work, env=child_env(), stdout=log, stderr=log,
                                  timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = -9
    out = {"rc": rc, "traced": trace}
    if result.exists():
        out.update(json.loads(result.read_text()))
    out["report"] = case.report.read_bytes() if case.report.exists() else None
    sidecar = Path(f"{case.report}.config.json")
    out["sidecar"] = sidecar.read_bytes() if sidecar.exists() else None
    out["log"] = (work / f"call{k}.log").read_bytes()[-2000:].decode(errors="replace")
    return out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(raw: bytes):
    return json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)


def _interval_problems(where: str, est, se, lo, hi) -> list[str]:
    vals = [est, se, lo, hi]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
        return [f"{where}: non-finite or missing value {vals}"]
    out = []
    if not lo <= est <= hi:
        out.append(f"{where}: interval [{lo}, {hi}] does not hold the estimate {est}")
    if not se > 0.0:
        out.append(f"{where}: se {se} is not positive")
    return out


def check_estimate(report: dict, w: Workload, truth) -> list[str]:
    problems = []
    if report.get("n") != w.design.n or report.get("B") != w.B:
        problems.append(f"report n/B {report.get('n')}/{report.get('B')} do not match the input")
    rows = report.get("pointwise", [])
    if [r.get("tau") for r in rows] != list(TAUS):
        return problems + [f"pointwise taus {[r.get('tau') for r in rows]} != {list(TAUS)}"]
    for j, r in enumerate(rows):
        ci = r.get("ci") or [None, None]
        p = _interval_problems(f"tau={r['tau']}", r.get("estimate"), r.get("se"), *ci)
        if not p and abs(r["estimate"] - truth[j]) > TRUTH_SES * r["se"]:
            p.append(f"tau={r['tau']}: estimate {r['estimate']:.4f} is more than "
                     f"{TRUTH_SES:g} SEs ({r['se']:.4f}) from the truth {truth[j]:.4f}")
        problems += p
    diff = report.get("difference") or {}
    problems += _interval_problems("difference", diff.get("estimate"), diff.get("se"),
                                   *(diff.get("ci") or [None, None]))
    band = report.get("uniform_band") or {}
    cols = [band.get(k) or [] for k in ("estimate", "se", "lower", "upper")]
    if any(len(c) != len(TAUS) for c in cols):
        problems.append("uniform band does not cover the grid")
    else:
        for j, (est, se, lo, hi) in enumerate(zip(*cols)):
            problems += _interval_problems(f"band tau={TAUS[j]}", est, se, lo, hi)
    return problems


def check_simulate(table: bytes, sidecar: bytes, w: Workload) -> list[str]:
    meta = strict_json(sidecar)
    rows = list(csv.DictReader(io.StringIO(table.decode("utf-8"))))
    expected = len(SIM_METHODS) * (len(TAUS) + 2)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} result rows, expected {expected}")
    failures = meta.get("failures")
    if not isinstance(failures, int) or failures < 0:
        return problems + [f"sidecar failures {failures!r} is not a count"]
    for r in rows:
        where = f"{r.get('method')}/{r.get('test')}"
        try:
            size, power, reps = float(r["size"]), float(r["power"]), int(r["reps"])
            finite = all(math.isfinite(float(r[c])) for c in ("bias", "mean_se",
                                                               "size_mcse", "power_mcse"))
        except (KeyError, TypeError, ValueError):
            problems.append(f"{where}: unreadable row {r}")
            continue
        if not (0.0 <= size <= 1.0 and 0.0 <= power <= 1.0):
            problems.append(f"{where}: size {size} or power {power} outside [0, 1]")
        if reps != w.reps - failures:
            problems.append(f"{where}: reps {reps} != {w.reps} requested - {failures} failed")
        if not finite:
            problems.append(f"{where}: non-finite column")
    return problems


def check_call(call: dict, case: Case, w: Workload, nproc: int) -> list[str]:
    """Everything wrong with one call's outcome; empty when it passed."""
    if call["rc"] != 0:
        return [f"exit code {call['rc']}: {call.get('log', '')[-300:]}"]
    if call.get("setup_rc", 0) != 0:
        return [f"set-up call exit code {call['setup_rc']}"]
    if call.get("blas_threads") is not None and call["blas_threads"] > nproc:
        return [f"BLAS uses {call['blas_threads']} threads on {nproc} cores"]
    if call["report"] is None:
        return ["no report written"]
    try:
        if w.design is None:
            if call["sidecar"] is None:
                return ["no sidecar written"]
            problems = check_simulate(call["report"], call["sidecar"], w)
        else:
            problems = check_estimate(strict_json(call["report"]), w, case.truth)
    except (ValueError, TypeError, AttributeError, KeyError) as exc:
        return [f"report does not parse: {exc!r}"]
    if case.reference is None:
        case.reference = call["report"]
    elif call["report"] != case.reference:
        problems.append("report differs from the first call on the same input")
    return problems


def tally(calls: list[dict], cases: list[Case], w: Workload, nproc: int):
    """Check every call in order; return (failed count, problem lines)."""
    failed, problems = 0, []
    for k, call in enumerate(calls):
        bad = check_call(call, cases[call["case"]], w, nproc)
        failed += bool(bad)
        problems += [f"call {k} (input {call['case']}): {p}" for p in bad]
    return failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def call_time(calls: list[dict], n_cases: int) -> float:
    """Mean over inputs of the median call time on each input."""
    per_case = [_median(c["call_s"] for c in calls if c["case"] == i) for i in range(n_cases)]
    return statistics.fmean(per_case)


def end_to_end(calls: list[dict], n_cases: int, failed: int) -> dict:
    ok = [c for c in calls if "call_s" in c]
    return {
        "setup_s": (_median(c["import_s"] + c.get("setup_call_s", 0.0) for c in ok), "s"),
        "call_s": (call_time(ok, n_cases) if ok else 0.0, "s"),
        "peak_rss_mb": (_median(c["maxrss_kb"] / 1024.0 for c in ok), "MB"),
        "success_frac": (1.0 - failed / len(calls), "ratio"),
    }


def _incl(call: dict, name: str) -> tuple[float, int]:
    total, count = call["trace"]["incl"].get(name, (0.0, 0))
    return total, count


def layer_metrics(call: dict, w: Workload) -> dict:
    """Per-layer numbers from one traced call."""
    m = {"cli.import_s": (call["import_s"], "s")}
    oracle = call.get("setup_trace", {}).get("incl", {}).get("scenario_truth", (0.0, 0))
    m["dgp.oracle_s"] = (oracle[0], "s")
    simple = {"data.load_csv_s": "load_csv", "data.index_strata_s": "index_strata",
              "estimator.pilot_s": "pilot_quantiles", "estimator.qte_s": "qte",
              "adjust.evaluate_all_s": "evaluate_all", "bootstrap.run_s": "run_bootstrap",
              "dgp.generate_s": "generate", "randomization.assign_s": "assign"}
    for metric, name in simple.items():
        m[metric] = (_incl(call, name)[0], "s")
    for method in ALL_METHODS:
        m[f"adjust.fit_s.{method}"] = (_incl(call, f"fit_adjustment:{method}")[0], "s")
    m["adjust.evaluate_all_calls"] = (_incl(call, "evaluate_all")[1], "count")
    run_s, runs = _incl(call, "run_bootstrap")
    replicates = runs * w.B
    draws = _incl(call, "draw_weights")[1]
    m["bootstrap.replicate_us"] = (run_s / replicates * 1e6 if replicates else 0.0, "us")
    m["bootstrap.draw_weights_calls"] = (draws, "count")
    m["bootstrap.accept_ratio"] = (replicates / draws if draws else 0.0, "ratio")
    m["bootstrap.inference_s"] = (sum(_incl(call, n)[0] for n in
                                      ("pointwise_test", "difference_test", "uniform_band")), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (call["trace"]["self"].get(layer, 0.0), "s")
    return m


def harness_failures(call: dict) -> int:
    try:
        return int(strict_json(call["sidecar"]).get("failures", 0)) if call["sidecar"] else 0
    except (ValueError, TypeError):
        return 0


def count_metrics(call: dict) -> dict:
    """Counts read from the program's returned objects; they repeat exactly."""
    counts = call.get("counts", {})
    return {
        "adjust.cells_degraded": (counts.get("cells_degraded", 0), "count"),
        "adjust.cells_separated": (counts.get("cells_separated", 0), "count"),
        "adjust.lasso_kkt_max": (call.get("kkt_max", 0.0), "ratio"),
        "adjust.lasso_support_mean": (call.get("support_mean", 0.0), "count"),
        "bootstrap.resampled": (counts.get("resampled", 0), "count"),
        "harness.failures": (harness_failures(call), "count"),
    }


def per_layer(calls: list[dict], w: Workload) -> dict:
    traced = [c for c in calls if c["traced"] and "trace" in c]
    untraced = {c["pair"]: c for c in calls if not c["traced"] and "call_s" in c}
    if not traced:
        return {}
    per_call = [layer_metrics(c, w) for c in traced]
    out = {k: (_median(pc[k][0] for pc in per_call), unit) for k, (_, unit) in per_call[0].items()}
    # Counts from the first input only: later inputs run only if time allows.
    first = next((c for c in traced if c["case"] == 0), traced[0])
    out.update(count_metrics(first))
    pairs = [(c["call_s"], untraced[c["pair"]]["call_s"]) for c in traced if c["pair"] in untraced]
    out["trace.call_s"] = (_median(t for t, _ in pairs), "s")
    out["trace.untraced_call_s"] = (_median(u for _, u in pairs), "s")
    out["trace.overhead_s"] = (_median(t - u for t, u in pairs), "s")
    out["trace.self_sum_s"] = (_median(sum(c["trace"]["self"].values()) for c in traced), "s")
    out["trace.spans"] = (_median(c["trace"]["spans"] for c in traced), "count")
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Generate the inputs, run calls for ``seconds``, check and reduce them."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cases = make_cases(w, seed, work)
        calls: list[dict] = []
        # Untraced: cycle through the inputs; each input runs at least once
        # and the first one twice, so every run checks byte-identity.
        # Traced: an untraced and a traced call per input, back to back.
        min_calls = 4 if trace else max(3, len(cases) + 1)
        start = time.perf_counter()
        k = 0
        while True:
            i = (k // 2 if trace else k) % len(cases)
            t0 = time.perf_counter()
            call = run_call(cases[i], trace and k % 2 == 1, work, k, deadline - t0)
            call.update(case=i, pair=k // 2, wall_s=time.perf_counter() - t0)
            calls.append(call)
            k += 1
            elapsed = time.perf_counter() - start
            if k >= min_calls and (not trace or k % 2 == 0) and elapsed + call["wall_s"] > seconds:
                break
            if time.perf_counter() + call["wall_s"] > deadline:
                break
        failed, problems = tally(calls, cases, w, env["nproc"])
        blas = sorted({c.get("blas_threads") for c in calls} - {None})
        return {"workload": w, "cases": cases, "calls": calls, "failed": failed,
                "problems": problems, "blas": blas, "elapsed": time.perf_counter() - start,
                "metrics": per_layer(calls, w) if trace else end_to_end(calls, len(cases), failed)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it


def summary_lines(res: dict, env: dict) -> list[str]:
    """Human-readable record of one run: environment, inputs, named metrics."""
    w, calls = res["workload"], res["calls"]
    lines = [f"# {w.name}: {w.why}",
             f"#   env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
             f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={res['blas']}",
             f"#   {len(calls)} calls in {res['elapsed']:.1f} s, each a fresh interpreter, "
             "one at a time (closed loop, 1 client)"]
    for j, case in enumerate(res["cases"]):
        lines.append(f"#   input {j} sha256={case.sha256}")
    times = sorted(c["call_s"] for c in calls if "call_s" in c and not c["traced"])
    named = dict(res["metrics"])
    if "call_s" in named:
        value = named["call_s"][0]
        if w.design is None:
            named["sim_rep_s"] = (value / w.reps, "s")
        else:
            named["estimate_s"] = (value, "s")
        named["fail_frac"] = (res["failed"] / len(calls), "ratio")
        lines.append(f"#   call times (s, sorted): {' '.join(f'{t:.3f}' for t in times)}; "
                     "with under 11 calls no percentile has 10 calls beyond it, so the "
                     "tail is the maximum")
    missing = sorted({m for c in calls for m in c.get("missing_wrappers", ())})
    if missing:
        lines.append(f"#   not traced (names no longer exist): {' '.join(missing)}")
    for name, (value, unit) in named.items():
        lines.append(f"#   {name:28s} {value:.6g} {unit}")
    lines += [f"#   FAIL {p}" for p in res["problems"][:10]]
    return lines


def result_line(results: list[dict], prefix: bool) -> dict:
    metrics = {}
    for res in results:
        for name, (value, unit) in res["metrics"].items():
            key = f"{res['workload'].name}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(len(r["calls"]) for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "carqte" / "cli.py").is_file():
        print(f"perfbench: no carqte sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
        print("\n".join(summary_lines(res, env)), flush=True)
        results.append(res)
    print(json.dumps(result_line(results, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
