"""Per-stage timings of the sim-paper Monte Carlo replication, in-process.

Usage (from the repository root)::

    python3 bench/stages.py --seed 11 --repeats 5 --out stages.json

The design is the benchmark's sim-paper call: dgp1 under stratified block
randomization, n=400, the seven low-dimensional methods, B=200 and taus
0.25/0.5/0.75, 10 replications on one worker.  The scenario runs through
``carqte.harness.run_scenario`` with the harness's own stage functions
wrapped by timers: ``prepare`` (generate, assign, strata, pilot),
``fit:<method>`` (a grouped ``fit_ml`` call, or a ``fit_adjustment`` call
of ``harness._fit_and_bootstrap``), ``bootstrap`` and ``inference``;
``other`` is the rest of the call.  The harness runs as it is: each
logistic method fitted once per group of ``harness._REP_GROUP``
replications, and every Wald standard error and band centre of a
replication from one quantile call.

For each stage the JSON holds, under ``stages.grouped``, the median and
quartiles over the repeats of the stage's total time in a call, plus
``fits`` (every ``fit:*`` stage) and ``call``.

numpy runs on one BLAS thread: the script sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy loads, as the
benchmark's children and ``bench/fit.py`` do, and records the count as
``design.blas_threads``.  To compare a parent commit with a change, run the
two in fresh processes, alternating (parent, change, parent, ...), and
compare the medians over those runs: run as two back-to-back blocks, the
two sides have read 24-27% apart on unchanged solve code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path

# Pinned before numpy loads: the BLAS reads these once, at import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carqte import harness  # noqa: E402
from carqte.data import QuantileGrid  # noqa: E402
from carqte.dgp import DgpSpec  # noqa: E402
from carqte.randomization import SchemeSpec  # noqa: E402

METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np")


def run_once(spec, truth) -> dict:
    """One scenario call; returns its per-stage seconds."""
    times: dict = defaultdict(float)
    originals = {name: getattr(harness, name) for name in
                 ("_prepare", "fit_ml", "fit_adjustment", "run_bootstrap", "_inference")}

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[label(args, kwargs)] += time.perf_counter() - t0
        return wrapper

    harness._prepare = timed(lambda a, k: "prepare", originals["_prepare"])
    harness.fit_ml = timed(lambda a, k: f"fit:{k['method']}", originals["fit_ml"])
    harness.fit_adjustment = timed(lambda a, k: f"fit:{a[0]}", originals["fit_adjustment"])
    harness.run_bootstrap = timed(lambda a, k: "bootstrap", originals["run_bootstrap"])
    harness._inference = timed(lambda a, k: "inference", originals["_inference"])
    try:
        t0 = time.perf_counter()
        harness.run_scenario(spec, truth)
        call = time.perf_counter() - t0
    finally:
        for name, value in originals.items():
            setattr(harness, name, value)
    times["fits"] = sum(v for k, v in times.items() if k.startswith("fit:"))
    times["other"] = call - sum(v for k, v in times.items() if k != "fits")
    times["call"] = call
    return dict(times)


def summary(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5: the record is a median")
    spec = harness.ScenarioSpec(
        dgp=DgpSpec("dgp1", 400), scheme=SchemeSpec("sbr"), methods=METHODS,
        reps=args.reps, B=200, taus=QuantileGrid.of([0.25, 0.5, 0.75]), seed=args.seed,
    )
    # The tests only compare against the truth, so a fixed vector stands in
    # for the oracle, whose cost is not a replication stage.
    truth = np.array([1.0, 1.5, 2.0])
    run_once(spec, truth)  # warm-up: imports, caches
    runs = [run_once(spec, truth) for _ in range(args.repeats)]
    import scipy

    doc = {
        "design": {"dgp": "dgp1", "scheme": "sbr", "n": 400, "methods": list(METHODS),
                   "B": 200, "taus": [0.25, 0.5, 0.75], "reps": args.reps,
                   "seed": args.seed, "rep_group": harness._REP_GROUP,
                   "blas_threads": BLAS_THREADS},
        "repeats": args.repeats,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "arch": platform.machine()},
        "stages": {"grouped": {stage: summary([r.get(stage, 0.0) for r in runs])
                               for stage in sorted(set().union(*runs))}},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    for stage, times in doc["stages"]["grouped"].items():
        print(f"{stage:>14}  {times['median']:8.4f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
