"""In-process multiplier-bootstrap time and memory at three sample sizes.

Usage (from the repository root)::

    python3 bench/bootstrap.py --seed 3 --repeats 7 --out bootstrap.json
    python3 bench/bootstrap.py --taus 0.1,0.12,0.14 --repeats 5

For each n in 400, 10k and 200k the script draws one dgp1 dataset under
stratified block randomization, fits ``lpmlx`` on the ``--taus`` grid
(0.25/0.5/0.75 by default) and then times ``run_bootstrap`` on that model,
B=200, ``--repeats`` times with the same generator seed.  At n = 400 and
10k it also fits the seven methods of the paper's simulation (every method
but ``lasso``, as ``carqte simulate`` runs them) and times one
``run_bootstrap`` call over all seven, which share one weight stream.  Only
the bootstrap call is timed: the dataset, the pilot and the fits are built
once, outside the timed region, and the first call is a warm-up.  One more
call, untimed, runs under ``tracemalloc`` and gives the peak of the memory
it allocates above what was allocated before it.  The JSON holds, per row
(``sizes`` for lpmlx, ``sim_methods`` for the seven), the median and
quartiles of the time per replicate in microseconds, that traced peak in
MB, and a digest of the draws of every model, which must not change between
repeats or between two commits that claim the same draws.

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
import hashlib
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

# Pinned before numpy loads: the BLAS reads these once, at import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from carqte import (  # noqa: E402
    Dataset, DgpSpec, QuantileGrid, SchemeSpec, assign, fit_adjustment, generate,
    pilot_quantiles, run_bootstrap,
)

SIZES = (400, 10_000, 200_000)
SIM_SIZES = (400, 10_000)
B = 200
METHOD = "lpmlx"
SIM_METHODS = ("na", "lp", "ml", "lpml", "mlx", "lpmlx", "np")
TAUS = (0.25, 0.5, 0.75)


def time_size(n: int, seed: int, repeats: int, taus: tuple, methods: tuple) -> dict:
    """Per-replicate times and the traced peak of one bootstrap over the
    ``methods`` at sample size ``n``."""
    latent = generate(DgpSpec("dgp1", n), np.random.default_rng(seed))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(seed + 1))
    ds = Dataset.from_arrays(latent.observed(a), a, latent.s, latent.x)
    grid = QuantileGrid.of(taus)
    pilot = pilot_quantiles(ds, grid)
    models = [fit_adjustment(method, ds, pilot, grid) for method in methods]
    digests, per_rep_us = set(), []
    for k in range(repeats + 1):
        t0 = time.perf_counter()
        boot = run_bootstrap(ds, models, grid, B, np.random.default_rng(seed + 2))
        elapsed = time.perf_counter() - t0
        digests.add(hashlib.sha256(b"".join(d.draws.tobytes() for d in boot)).hexdigest())
        if k:  # the first call is a warm-up
            per_rep_us.append(elapsed / B * 1e6)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_bootstrap(ds, models, grid, B, np.random.default_rng(seed + 2))
        traced_peak_mb = (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()
    if len(digests) != 1:
        raise AssertionError(f"n={n}, {methods}: repeats gave different draws")
    q1, med, q3 = np.percentile(per_rep_us, [25, 50, 75])
    return {"n": n, "replicate_us": {"median": float(med), "q1": float(q1), "q3": float(q3)},
            "samples_us": per_rep_us, "traced_peak_mb": traced_peak_mb,
            "draws_sha256": digests.pop()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--taus", type=lambda text: tuple(float(t) for t in text.split(",")),
                    default=TAUS, help="comma-separated quantile grid (default 0.25,0.5,0.75)")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5: the record is a median")
    import scipy

    doc = {
        "design": {"dgp": "dgp1", "scheme": "sbr", "method": METHOD,
                   "sim_methods": list(SIM_METHODS), "B": B, "taus": list(args.taus),
                   "seed": args.seed, "blas_threads": BLAS_THREADS},
        "repeats": args.repeats,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "arch": platform.machine()},
        "sizes": [time_size(n, args.seed, args.repeats, args.taus, (METHOD,)) for n in SIZES],
        "sim_methods": [time_size(n, args.seed, args.repeats, args.taus, SIM_METHODS)
                        for n in SIM_SIZES],
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    for label, key in ((METHOD, "sizes"), ("7 methods", "sim_methods")):
        for row in doc[key]:
            r = row["replicate_us"]
            print(f"{label:>9}  n={row['n']:>7}  {r['median']:9.1f} us/replicate  "
                  f"(q1 {r['q1']:.1f}, q3 {r['q3']:.1f})  traced peak "
                  f"{row['traced_peak_mb']:.1f} MB", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
