"""Self-test of the layer runs: ``python3 -m pytest bench/test_layers.py``.

Runs each layer at a tiny size through the same code as the real runs, and
one tiny alternating recording of a commit against itself.  The recording
runs the committed ``bench/layers.py`` of HEAD, so commit before running it.
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
               | {f"fit:{m}_s" for m in layers.SIM_METHODS}},
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
