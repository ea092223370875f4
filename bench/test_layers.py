"""Self-test of the layer runs: ``python3 -m pytest bench/test_layers.py``.

Runs each layer at a tiny size through the same code as the real runs, and
one tiny alternating recording of a commit against itself.  The recording
runs the committed ``bench/layers.py`` of HEAD, so commit before running it.
It also checks the exact dgp1 and dgp2 truths against a large Monte Carlo
run, which takes too long for the package's tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess

import pytest

import layers
import record

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TINY = {"FIT_SIZES": (2000,), "BOOT_SIZES": (400,), "SIM_SIZES": (400,), "B": 20, "REPS": 2,
        "REPEATS": 2}
ROWS = {
    "fit": {f"n=2000 {case}": {"fit_s", "vmhwm_loaded_mb", "vmhwm_mb", "prob_sha256",
                               "input_sha256"}
            for case in ("mlx", "lpmlx", "lpml(ml)", "lpmlx(mlx)")},
    "bootstrap": {f"{label} n=400": {"replicate_us", "traced_peak_mb", "draws_sha256"}
                  for label in ("lpmlx", "7 methods")},
    "stages": {"sim-paper": {f"{stage}_s" for stage in ("prepare", "bootstrap", "inference",
                                                        "other", "call")}
               | {f"fit:{m}_s" for m in layers.SIM_METHODS},
               "truth": {"dgp1_s", "dgp2_s", "truth_sha256"}},
}


@pytest.fixture(scope="module")
def tiny_runs():
    """Each layer run twice at the tiny size; its two JSON lines."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in TINY.items():
            mp.setattr(layers, name, value)
        for var in BLAS_VARS:
            mp.setenv(var, "1")  # a run pins these; the context restores them
        return {layer: [run_layer(layer) for _ in range(2)] for layer in layers.LAYERS}


def run_layer(layer: str, *options: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert layers.main([layer, "--seed", "3", *options]) == 0
    (line,) = out.getvalue().splitlines()
    return json.loads(line)


@pytest.mark.parametrize("layer", list(ROWS))
def test_each_layer_prints_one_line_with_its_rows(tiny_runs, layer):
    doc = tiny_runs[layer][0]
    assert set(doc) == {"layer", "seed", "taus", "blas_threads", "repeats", "design", "rows"}
    assert (doc["layer"], doc["taus"], doc["blas_threads"]) == (layer, [0.25, 0.5, 0.75], "1")
    assert {label: set(row) for label, row in doc["rows"].items()} == ROWS[layer]
    assert all(value > 0 for row in doc["rows"].values() for key, value in row.items()
               if not key.endswith("_sha256"))


@pytest.mark.parametrize("layer", list(ROWS))
def test_two_runs_give_one_digest(tiny_runs, layer):
    first, second = ({label: {k: v for k, v in row.items() if k.endswith("_sha256")}
                      for label, row in doc["rows"].items()} for doc in tiny_runs[layer])
    assert first == second


@pytest.mark.parametrize("blas", ["1", "default"])
def test_a_fit_child_runs_on_the_runs_blas_threads_and_repeats(monkeypatch, blas):
    # Each child reports, after its row, the BLAS variables it ran under and
    # the repeats it timed.
    for name, value in TINY.items():
        monkeypatch.setattr(layers, name, value)
    monkeypatch.setattr(layers, "FIT_CASES", layers.FIT_CASES[3:])
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)  # restored after the test
    probe = (f"\nimport os; print(json.dumps([layers.REPEATS, *map(os.environ.get, "
             f"{BLAS_VARS!r})]), file=sys.stderr)")
    seen, run = [], subprocess.run

    def probed(argv, **kwargs):
        proc = run([*argv[:-2], argv[-2] + probe, argv[-1]], **kwargs)
        seen.append(json.loads(proc.stderr.splitlines()[-1]))
        return proc

    monkeypatch.setattr(subprocess, "run", probed)
    assert run_layer("fit", "--blas-threads", blas)["blas_threads"] == blas
    assert seen == [[2] + [None if blas == "default" else blas] * 3]


def test_repeats_that_differ_are_refused():
    results = iter(range(10))
    with pytest.raises(AssertionError, match="repeats gave different results"):
        layers.timed_repeats(lambda: next(results), lambda r: bytes([r]))


def test_an_a_a_recording_alternates_and_gives_equal_digests(tmp_path, monkeypatch):
    # The snapshot's own bench/layers.py runs, so its constants are shrunk
    # in the snapshot.
    unpack = record.snapshot

    def tiny_snapshot(rev, dest):
        sha = unpack(rev, dest)
        script = dest / "bench" / "layers.py"
        tiny = "".join(f"{name} = {value!r}\n" for name, value in TINY.items())
        text = script.read_text(encoding="utf-8")
        script.write_text(text.replace('\nif __name__ == "__main__":',
                                       f'\n{tiny}\nif __name__ == "__main__":'), encoding="utf-8")
        return sha

    monkeypatch.setattr(record, "snapshot", tiny_snapshot)
    out = tmp_path / "bench.json"
    assert record.main(["--pr", "0", "--parent", "HEAD", "--change", "HEAD", "--workload",
                        "bootstrap=2", "--seeds", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["parent"]["sha"] == doc["change"]["sha"]
    (entry,) = doc["runs"]
    assert entry["first_in_pair"] == ["parent", "change"]
    assert set(entry["rows"]) == set(ROWS["bootstrap"])
    for row in entry["rows"].values():
        assert row["digests_equal"] and list(row["digests"]) == ["draws_sha256"]
        assert set(row["metrics"]) == {"replicate_us", "traced_peak_mb"}


def test_a_row_of_one_side_is_recorded_without_a_comparison(monkeypatch):
    # The change adds a row the parent's layer does not print.
    seen = iter(range(100))

    def fake_run(tree, script, *args):
        k = next(seen)
        rows = {"old": {"call_s": 1.0 + k, "x_sha256": "a"}}
        if tree == "change-tree":
            rows["new"] = {"truth_s": 0.5 + k, "truth_sha256": "b"}
        return {"taus": [0.5], "blas_threads": "1", "repeats": 2, "design": {}, "rows": rows}

    monkeypatch.setattr(record, "run_once", fake_run)
    args = record.argparse.Namespace(taus="0.5", blas_threads="1")
    entry = record.record_layer(args, "stages", 2, 3, {"parent": "parent-tree",
                                                       "change": "change-tree"})
    old, new = entry["rows"]["old"], entry["rows"]["new"]
    assert old["digests_equal"] and set(old["metrics"]["call_s"]) >= {"parent", "change", "wins"}
    assert "only" not in old
    assert new["only"] == "change" and new["digests"] == {"truth_sha256": ["b"]}
    assert set(new["metrics"]) == {"truth_s"} and set(new["metrics"]["truth_s"]) == {"unit",
                                                                                     "change"}


@pytest.mark.parametrize("kind", ["dgp1", "dgp2"])
def test_exact_truth_lies_within_4_monte_carlo_ses(kind):
    # 20 independent oracle runs of 15 samples of 10k draws each: the
    # default oracle's 3M draws, with a standard error from their spread.
    import numpy as np

    from carqte.data import QuantileGrid
    from carqte.dgp import _EXACT_NODES, DgpSpec, _exact_true_qte, _true_qte_oracle

    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    runs = np.array([_true_qte_oracle(DgpSpec(kind, 10), grid, 10_000, 15,
                                      np.random.default_rng(seed)) for seed in range(20)])
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    exact = _exact_true_qte(kind, grid, _EXACT_NODES[kind])
    assert np.all(np.abs(exact - runs.mean(axis=0)) <= 4.0 * se)
