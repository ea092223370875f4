"""In-process fit time and peak memory of the logistic adjustments on a large file.

Usage (from the repository root)::

    python3 bench/fit.py --seed 3 --repeats 7 --out fit.json

For each n in 10k and 200k the script writes the benchmark's "large" design
(``perfbench/inputs.py``: 5 covariates, 8 strata, blocks of 4 within
strata) to a temporary CSV.  For each case one fresh interpreter loads that
file, forms the pilot quantiles on the ``--taus`` grid (0.25/0.5/0.75 by
default) and times
``fit_adjustment`` ``--repeats`` times after a warm-up call; only the fit is
timed.  The cases are the whole mlx and lpmlx fits, and the lpml and lpmlx
recombinations alone: ``fit_adjustment("lpmlx", ..., ml_model=<mlx model>)``
with the mlx model fitted once before the timing, and the same for lpml on
ml, so that the recombination's time shows apart from the logistic solve's.
The child runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS at ``--blas-threads`` (1 by default; ``default`` leaves them
as they are) and reports its VmHWM, the peak resident set, once after
loading the file (and fitting the handed-over model) and once after the last
fit, so a fit that raises the peak shows.  The JSON holds, per (n, case),
the median and quartiles of the fit time, both VmHWM readings, and a sha256
of the fitted ``prob``, which must not change between repeats or between
two commits that claim the same fits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

SIZES = (10_000, 200_000)
# (method, the logistic model handed to it as ``ml_model``, or None)
CASES = (("mlx", None), ("lpmlx", None), ("lpml", "ml"), ("lpmlx", "mlx"))
TAUS = (0.25, 0.5, 0.75)


def vmhwm_mb() -> float:
    """This process's peak resident set so far, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024.0


def time_case(path: str, method: str, base: str | None, repeats: int, taus: tuple) -> dict:
    """Fit times of ``method`` on the file at ``path``, handed a fitted
    ``base`` model when ``base`` is given; runs in the child."""
    from carqte import QuantileGrid, fit_adjustment, load_csv, pilot_quantiles

    ds = load_csv(path)
    grid = QuantileGrid.of(taus)
    pilot = pilot_quantiles(ds, grid)
    ml_model = None if base is None else fit_adjustment(base, ds, pilot, grid)
    loaded_mb = vmhwm_mb()
    digests, seconds = set(), []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        model = fit_adjustment(method, ds, pilot, grid, ml_model=ml_model)
        elapsed = time.perf_counter() - t0
        digests.add(hashlib.sha256(model.prob.tobytes()).hexdigest())
        if k:  # the first call is a warm-up
            seconds.append(elapsed)
        del model
    if len(digests) != 1:
        raise AssertionError(f"{method}: repeats gave different fits")
    q1, med, q3 = np.percentile(seconds, [25, 50, 75])
    return {"fit_s": {"median": float(med), "q1": float(q1), "q3": float(q3)},
            "samples_s": seconds, "vmhwm_loaded_mb": loaded_mb, "vmhwm_mb": vmhwm_mb(),
            "prob_sha256": digests.pop()}


def run_child(path: str, method: str, base: str | None, repeats: int, blas_threads: str,
              taus: str) -> dict:
    env = dict(os.environ)
    if blas_threads != "default":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = blas_threads
    argv = [sys.executable, __file__, "--child", path, method, "--repeats", str(repeats),
            "--taus", taus]
    argv += [] if base is None else ["--ml-model", base]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{method} on {path} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--blas-threads", default="1",
                    help="BLAS threads of each child, or 'default' to leave them unset")
    ap.add_argument("--taus", default=",".join(map(repr, TAUS)),
                    help="comma-separated quantile grid (default 0.25,0.5,0.75)")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--child", nargs=2, metavar=("CSV", "METHOD"), help=argparse.SUPPRESS)
    ap.add_argument("--ml-model", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    taus = tuple(float(t) for t in args.taus.split(","))
    if args.child:
        print(json.dumps(time_case(*args.child, args.ml_model, args.repeats, taus)))
        return 0
    if args.repeats < 5:
        ap.error("--repeats must be at least 5: the record is a median")
    import scipy

    cases = []
    with tempfile.TemporaryDirectory(prefix="carqte-fit-") as tmp:
        for n in SIZES:
            path = str(Path(tmp) / f"large{n}.csv")
            sha = inputs.generate_csv(inputs.Design("large", n), args.seed, path)
            for method, base in CASES:
                row = run_child(path, method, base, args.repeats, args.blas_threads, args.taus)
                cases.append({"n": n, "method": method, "ml_model": base,
                              "input_sha256": sha, **row})
                r = row["fit_s"]
                name = method if base is None else f"{method}({base})"
                print(f"n={n:>7} {name:<11} {r['median']:8.4f} s  (q1 {r['q1']:.4f}, "
                      f"q3 {r['q3']:.4f})  VmHWM {row['vmhwm_loaded_mb']:.1f} -> "
                      f"{row['vmhwm_mb']:.1f} MB  prob {row['prob_sha256'][:12]}",
                      file=sys.stderr)
    doc = {
        "design": {"design": "large", "cases": [list(case) for case in CASES],
                   "taus": list(taus),
                   "seed": args.seed, "blas_threads": args.blas_threads},
        "repeats": args.repeats,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "arch": platform.machine(),
                    "nproc": len(os.sched_getaffinity(0))},
        "cases": cases,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
