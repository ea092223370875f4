"""Self-test of the benchmark: ``python3 -m pytest perfbench/test_perfbench.py``.

Runs each workload at a tiny size through the same code as the real
runs, and shows that tampered outputs are counted as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import inputs
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

TINY = {
    "estimate-large": replace(run.WORKLOADS["estimate-large"],
                              design=inputs.Design("large", 4000), B=20),
    "sim-paper": replace(run.WORKLOADS["sim-paper"], reps=2, B=20),
    "estimate-hd-lasso": replace(run.WORKLOADS["estimate-hd-lasso"],
                                 design=inputs.Design("hd", 200), B=20, files=2),
}


@pytest.fixture(scope="module")
def env():
    return run.environment()


@pytest.fixture(scope="module")
def tiny_runs(env):
    return {name: run.run_workload(w, seed=3, seconds=0, trace=False, env=env)
            for name, w in TINY.items()}


def test_benchmark_file_matches_workloads():
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == run.WORKLOADS[entry["name"]].why
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_passes_and_reports_every_metric(tiny_runs, name):
    res = tiny_runs[name]
    assert res["failed"] == 0, res["problems"]
    assert len(res["calls"]) >= 3
    assert list(res["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in res["metrics"].values())


@pytest.mark.parametrize("name", ["sim-paper", "estimate-large"])
def test_traced_run_reports_every_layer_metric(env, name):
    res = run.run_workload(TINY[name], seed=3, seconds=0, trace=True, env=env)
    assert res["failed"] == 0, res["problems"]
    assert sorted(res["metrics"]) == sorted(PER_LAYER)
    traced = [c for c in res["calls"] if c["traced"]]
    assert traced and all(not c["missing_wrappers"] for c in traced)
    # Self times partition the root span, which the call time holds plus the
    # root wrapper's own few microseconds.
    m = res["metrics"]
    assert m["trace.self_sum_s"][0] <= m["trace.call_s"][0]
    assert m["trace.self_sum_s"][0] == pytest.approx(m["trace.call_s"][0], abs=1e-3)


def _tampered(res, edit=None, rc=0):
    call = dict(res["calls"][0])
    call["rc"] = rc
    if edit is not None:
        call["report"] = edit(call["report"].decode()).encode()
    return call


def _invert_first_ci(text):
    report = json.loads(text)
    lo, hi = report["pointwise"][0]["ci"]
    report["pointwise"][0]["ci"] = [hi, lo]
    return json.dumps(report)


def _nan_first_estimate(text):
    report = json.loads(text)
    report["pointwise"][0]["estimate"] = float("nan")
    return json.dumps(report)  # writes the bare token NaN


@pytest.mark.parametrize("tamper, message", [
    (lambda res: _tampered(res, _nan_first_estimate), "does not parse"),
    (lambda res: _tampered(res, _invert_first_ci), "does not hold the estimate"),
    (lambda res: _tampered(res, rc=4), "exit code 4"),
])
def test_tampered_output_counts_as_failure(tiny_runs, env, tamper, message):
    res = tiny_runs["estimate-large"]
    w = TINY["estimate-large"]
    good = dict(res["calls"][0])
    calls = [good, tamper(res)]
    cases = [replace(res["cases"][0], reference=None)]
    failed, problems = run.tally(calls, cases, w, env["nproc"])
    assert failed == 1
    assert any(message in p for p in problems), problems
    assert run.end_to_end(calls, 1, failed)["success_frac"][0] == 0.5


def test_tampered_simulate_table_counts_as_failure(tiny_runs, env):
    res = tiny_runs["sim-paper"]
    call = dict(res["calls"][0])
    lines = call["report"].decode().splitlines()
    call["report"] = ("\n".join(lines[:-1]) + "\n").encode()  # one row missing
    cases = [replace(res["cases"][0], reference=None)]
    failed, problems = run.tally([call], cases, TINY["sim-paper"], env["nproc"])
    assert failed == 1
    assert any("result rows" in p for p in problems), problems


def test_inputs_repeat_for_a_seed(tmp_path):
    design = inputs.Design("hd", 50)
    a = inputs.generate_csv(design, 11, str(tmp_path / "a.csv"))
    b = inputs.generate_csv(design, 11, str(tmp_path / "b.csv"))
    c = inputs.generate_csv(design, 12, str(tmp_path / "c.csv"))
    assert a == b != c


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
