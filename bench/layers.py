"""Layer runs of the estimator: the fits, the bootstrap and the stages of a replication.

Usage (from the repository root)::

    python3 bench/layers.py fit --seed 3
    python3 bench/layers.py bootstrap --seed 3 --taus 0.1,0.12,0.14
    python3 bench/layers.py stages --seed 11 --blas-threads default

A run prints one JSON line: its settings, design and rows.  A row holds the
median of each timing over ``REPEATS`` calls after a warm-up call, memory
readings, and sha256 digests of the results, which must not change between
repeats or between commits that claim the same numbers.  A number is in the
unit its key ends in (``_s``, ``_us``, ``_mb``).  Before numpy loads, the run
pins ``--blas-threads`` BLAS threads (1 by default, as the benchmark's
children run; ``default`` leaves numpy's own count).  ``bench/record.py``
compares a parent with a change in alternating runs of these layers.

- fit: the benchmark's "large" design (``perfbench/inputs.py``: 5
  covariates, 8 strata) written to a CSV at each n of ``FIT_SIZES``.  Each of
  ``FIT_CASES`` runs in a fresh interpreter that loads the file, forms the
  pilot on the ``--taus`` grid and times ``fit_adjustment``: the whole mlx and
  lpmlx fits, and the lpml and lpmlx recombinations alone, handed an ml and an
  mlx model fitted before the timing.  Its row holds VmHWM (the peak resident
  set) after the load and the handed fit, and again after the last fit.
- bootstrap: dgp1 under stratified block randomization at each n of
  ``BOOT_SIZES``; ``run_bootstrap`` of B replicates on a ``lpmlx`` fit, and at
  each n of ``SIM_SIZES`` on the seven methods of the paper's simulation,
  which share one weight stream.  A row holds the time per replicate and the
  tracemalloc peak of one more call above what was allocated before it.
- stages: the benchmark's sim-paper call, ``run_scenario`` of dgp1 under sbr
  at n = 400, the seven methods, B replicates and REPS replications, with the
  harness's own names wrapped by timers: ``prepare``, ``fit:<method>`` (a
  grouped ``fit_ml`` or a ``fit_adjustment`` call), ``bootstrap`` and
  ``inference``; ``other`` is the rest of the ``call``.  Its ``truth`` row
  times ``harness.scenario_truth``, the scenario's true QTE on the
  ``--taus`` grid, for dgp1 and for dgp2, and digests the two truths.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

TAUS = "0.25,0.5,0.75"
REPEATS = 7
FIT_SIZES = (10_000, 200_000)
# (method, the logistic model handed to it as ``ml_model``, or None)
FIT_CASES = (("mlx", None), ("lpmlx", None), ("lpml", "ml"), ("lpmlx", "mlx"))
# A fit case's child: it inherits this run's BLAS pinning through os.environ
# and is handed its file, method, handed method (or None), grid and REPEATS.
CASE = ("import json, sys, layers\n"
        "path, method, base, taus, layers.REPEATS = json.loads(sys.argv[1])\n"
        "print(json.dumps(layers.fit_case(path, method, base, tuple(taus))))")
BOOT_SIZES = (400, 10_000, 200_000)
SIM_SIZES = (400, 10_000)
SIM_METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np")
B = 200
REPS = 10


def vmhwm_mb() -> float:
    """This process's peak resident set so far, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def timed_repeats(call, digest) -> tuple[float, str]:
    """The median seconds of ``REPEATS`` calls of ``call`` after a warm-up
    call, and the one sha256 of ``digest(result)`` every call gave."""
    seconds, digests = [], set()
    for _ in range(REPEATS + 1):
        t0 = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(digest(result)).hexdigest())
        del result  # so that two results never share the peak
    if len(digests) != 1:
        raise AssertionError("repeats gave different results")
    return statistics.median(seconds[1:]), digests.pop()


def fit_case(path: str, method: str, base: str, taus: tuple) -> dict:
    """One fit row, in a fresh interpreter; ``base`` is the method of the
    handed model, or None."""
    from carqte import QuantileGrid, fit_adjustment, load_csv, pilot_quantiles

    ds = load_csv(path)
    grid = QuantileGrid.of(taus)
    pilot = pilot_quantiles(ds, grid)
    ml_model = None if base is None else fit_adjustment(base, ds, pilot, grid)
    loaded_mb = vmhwm_mb()
    fit_s, prob = timed_repeats(lambda: fit_adjustment(method, ds, pilot, grid,
                                                       ml_model=ml_model),
                                lambda model: model.prob.tobytes())
    return {"fit_s": fit_s, "vmhwm_loaded_mb": loaded_mb, "vmhwm_mb": vmhwm_mb(),
            "prob_sha256": prob}


def fit(seed: int, taus: tuple) -> tuple[dict, dict]:
    import inputs

    rows = {}
    with tempfile.TemporaryDirectory(prefix="carqte-fit-") as tmp:
        for n in FIT_SIZES:
            path = str(Path(tmp) / f"large{n}.csv")
            digest = inputs.generate_csv(inputs.Design("large", n), seed, path)
            for method, base in FIT_CASES:
                case = json.dumps([path, method, base, taus, REPEATS])
                proc = subprocess.run([sys.executable, "-c", CASE, case], cwd=ROOT / "bench",
                                      capture_output=True, text=True, check=False)
                if proc.returncode != 0:
                    raise RuntimeError(f"{method} at n={n} exited {proc.returncode}: "
                                       f"{proc.stderr[-2000:]}")
                label = f"n={n} {method}" + (f"({base})" if base else "")
                rows[label] = {**json.loads(proc.stdout), "input_sha256": digest}
    return {"design": "large", "sizes": FIT_SIZES, "cases": FIT_CASES}, rows


def bootstrap(seed: int, taus: tuple) -> tuple[dict, dict]:
    import numpy as np

    from carqte import (
        Dataset, DgpSpec, QuantileGrid, SchemeSpec, assign, fit_adjustment, generate,
        pilot_quantiles, run_bootstrap,
    )

    grid = QuantileGrid.of(taus)
    rows = {}
    for n in BOOT_SIZES:
        latent = generate(DgpSpec("dgp1", n), np.random.default_rng(seed))
        a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(seed + 1))
        ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
        pilot = pilot_quantiles(ds, grid)
        for label, methods in (("lpmlx", ("lpmlx",)), ("7 methods", SIM_METHODS)):
            if len(methods) > 1 and n not in SIM_SIZES:
                continue
            models = [fit_adjustment(method, ds, pilot, grid) for method in methods]

            def call():
                return run_bootstrap(ds, models, grid, B, np.random.default_rng(seed + 2))

            seconds, draws = timed_repeats(call, lambda boot: b"".join(d.draws.tobytes()
                                                                        for d in boot))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                call()
                peak_mb = (tracemalloc.get_traced_memory()[1] - start) / 1e6
            finally:
                tracemalloc.stop()
            rows[f"{label} n={n}"] = {"replicate_us": seconds / B * 1e6,
                                      "traced_peak_mb": peak_mb, "draws_sha256": draws}
    return {"dgp": "dgp1", "scheme": "sbr", "sizes": BOOT_SIZES, "sim_sizes": SIM_SIZES,
            "sim_methods": SIM_METHODS, "B": B}, rows


def stages(seed: int, taus: tuple) -> tuple[dict, dict]:
    import numpy as np

    from carqte import DgpSpec, QuantileGrid, SchemeSpec, harness

    spec = harness.ScenarioSpec(dgp=DgpSpec("dgp1", 400), scheme=SchemeSpec("sbr"),
                                methods=SIM_METHODS, reps=REPS, B=B,
                                taus=QuantileGrid.of(taus), seed=seed)
    # The tests only compare against the truth, so a fixed vector stands in
    # for the true QTE, whose cost is not a replication stage (the truth row
    # below times it).
    truth = np.linspace(1.0, 2.0, len(taus))
    labels = {"_prepare": lambda a, k: "prepare", "fit_ml": lambda a, k: f"fit:{k['method']}",
              "fit_adjustment": lambda a, k: f"fit:{a[0]}",
              "run_bootstrap": lambda a, k: "bootstrap", "_inference": lambda a, k: "inference"}
    originals = {name: getattr(harness, name) for name in labels}
    times: dict = defaultdict(float)

    def timer(name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return originals[name](*args, **kwargs)
            finally:
                times[labels[name](args, kwargs)] += time.perf_counter() - t0
        return wrapper

    runs = []
    for name in labels:
        setattr(harness, name, timer(name))
    try:
        for k in range(REPEATS + 1):
            times.clear()
            t0 = time.perf_counter()
            harness.run_scenario(spec, truth)
            call = time.perf_counter() - t0
            times["other"] = call - sum(times.values())
            times["call"] = call
            if k:  # the first call is a warm-up
                runs.append(dict(times))
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
    row = {f"{stage}_s": statistics.median(r[stage] for r in runs) for stage in sorted(runs[0])}
    truth_row, truths = {}, b""
    for kind in ("dgp1", "dgp2"):
        design_spec = dataclasses.replace(spec, dgp=DgpSpec(kind, spec.n))
        truth_row[f"{kind}_s"], _ = timed_repeats(lambda: harness.scenario_truth(design_spec),
                                                  np.ndarray.tobytes)
        truths += harness.scenario_truth(design_spec).tobytes()
    truth_row["truth_sha256"] = hashlib.sha256(truths).hexdigest()
    return {"dgp": "dgp1", "scheme": "sbr", "n": 400, "methods": SIM_METHODS, "B": B,
            "reps": REPS, "rep_group": harness._REP_GROUP}, {"sim-paper": row,
                                                             "truth": truth_row}


LAYERS = {"fit": fit, "bootstrap": bootstrap, "stages": stages}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("layer", choices=LAYERS)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--taus", default=TAUS, help=f"comma-separated quantile grid ({TAUS})",
                    type=lambda text: tuple(float(t) for t in text.split(",")))
    ap.add_argument("--blas-threads", default="1",
                    help="BLAS threads of the run, or 'default' to leave them unset")
    args = ap.parse_args(argv)
    if args.blas_threads != "default":  # the BLAS reads these once, when numpy loads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = args.blas_threads
    design, rows = LAYERS[args.layer](args.seed, args.taus)
    print(json.dumps({"layer": args.layer, "seed": args.seed, "taus": args.taus,
                      "blas_threads": args.blas_threads, "repeats": REPEATS,
                      "design": design, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
