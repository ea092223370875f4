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
``other`` is the rest of the call.

Two layouts of the same work run alternately in each repeat:

* ``grouped``, the harness as it is: each logistic method fitted once per
  group of ``harness._REP_GROUP`` replications, and the pointwise and
  difference standard errors of a method from one quantile call;
* ``per_rep``, the layout before grouping: groups of one replication, and
  inference through ``pointwise_test``, ``difference_test`` and
  ``uniform_band``, one call per test.  Its inference results are checked
  against the harness's own, which must agree exactly.

For each layout and stage the JSON holds the median and quartiles over the
repeats of the stage's total time in a call, plus ``fits`` (every
``fit:*`` stage) and ``call``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carqte import harness  # noqa: E402
from carqte.bootstrap import difference_test, pointwise_test, uniform_band  # noqa: E402
from carqte.data import QuantileGrid  # noqa: E402
from carqte.dgp import DgpSpec  # noqa: E402
from carqte.randomization import SchemeSpec  # noqa: E402

METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np")


def per_test_inference(spec, truth, boot) -> dict:
    """The harness's inference through the public tests, one call per test."""
    taus = tuple(spec.taus)
    out: dict = {}
    for method, draws in zip(spec.methods, boot):
        est = draws.point.qte
        for j, tau in enumerate(taus):
            res = pointwise_test(est[j], draws.draws[:, j], None, spec.alpha)
            out[(method, f"pointwise@{tau:g}")] = (
                float(res.rejects(truth[j])), float(res.rejects(truth[j] + spec.delta)),
                float(est[j] - truth[j]), res.se,
            )
        dtruth = truth[-1] - truth[0]
        d = difference_test(est[-1], est[0], draws.draws[:, -1], draws.draws[:, 0], None,
                            spec.alpha)
        out[(method, f"diff({taus[-1]:g},{taus[0]:g})")] = (
            float(d.rejects(dtruth)), float(d.rejects(dtruth + spec.delta)),
            float((est[-1] - est[0]) - dtruth), d.se,
        )
        u = uniform_band(est, draws.draws, spec.alpha)
        out[(method, "uniform")] = (
            float(u.rejects(truth)), float(u.rejects(truth + spec.delta)),
            float(np.mean(est - truth)), float(np.mean(u.se)),
        )
    return out


def run_layout(spec, truth, layout: str) -> dict:
    """One scenario call under ``layout``; returns its per-stage seconds."""
    times: dict = defaultdict(float)
    originals = {name: getattr(harness, name) for name in
                 ("_prepare", "fit_ml", "fit_adjustment", "run_bootstrap", "_inference",
                  "_REP_GROUP")}

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[label(args, kwargs)] += time.perf_counter() - t0
        return wrapper

    def checked_inference(spec, truth, boot):
        out = timed(lambda a, k: "inference", per_test_inference)(spec, truth, boot)
        if timed(lambda a, k: "_check", originals["_inference"])(spec, truth, boot) != out:
            raise AssertionError("grouped and per-test inference disagree")
        return out

    harness._prepare = timed(lambda a, k: "prepare", originals["_prepare"])
    harness.fit_ml = timed(lambda a, k: f"fit:{k['method']}", originals["fit_ml"])
    harness.fit_adjustment = timed(lambda a, k: f"fit:{a[0]}", originals["fit_adjustment"])
    harness.run_bootstrap = timed(lambda a, k: "bootstrap", originals["run_bootstrap"])
    if layout == "per_rep":
        harness._REP_GROUP = 1
        harness._inference = checked_inference
    else:
        harness._inference = timed(lambda a, k: "inference", originals["_inference"])
    try:
        t0 = time.perf_counter()
        harness.run_scenario(spec, truth)
        call = time.perf_counter() - t0 - times.pop("_check", 0.0)
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
    layouts = ("grouped", "per_rep")
    runs: dict = {layout: [] for layout in layouts}
    run_layout(spec, truth, "grouped")  # warm-up: imports, caches
    for k in range(args.repeats):
        for layout in layouts if k % 2 == 0 else layouts[::-1]:
            runs[layout].append(run_layout(spec, truth, layout))
    import scipy

    doc = {
        "design": {"dgp": "dgp1", "scheme": "sbr", "n": 400, "methods": list(METHODS),
                   "B": 200, "taus": [0.25, 0.5, 0.75], "reps": args.reps,
                   "seed": args.seed, "rep_group": harness._REP_GROUP},
        "repeats": args.repeats,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "arch": platform.machine()},
        "stages": {layout: {stage: summary([r.get(stage, 0.0) for r in rs])
                            for stage in sorted(set().union(*rs))}
                   for layout, rs in runs.items()},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    for stage in sorted(doc["stages"]["grouped"]):
        g, p = (doc["stages"][layout][stage]["median"] for layout in ("grouped", "per_rep"))
        print(f"{stage:>14}  per_rep {p:8.4f} s  grouped {g:8.4f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
