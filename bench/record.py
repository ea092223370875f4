"""Record a parent/change comparison of the benchmark into ``BENCH_<pr>.json``.

Usage (from the repository root)::

    python3 bench/record.py --pr N --parent PARENT_REV --change CHANGE_REV \\
        --workload sim-paper=10 --workload estimate-large=5 --seeds 7,29 --seconds 45
    python3 bench/record.py --pr N --parent PARENT_REV --change CHANGE_REV \\
        --workload bootstrap=5 --workload fit=5 --seeds 3 --taus 0.1,0.12,0.14

A workload is one of perfbench's, run as ``perfbench/run.py --workload W
--seed S --seconds T --trace X``, or a layer of ``bench/layers.py`` (fit,
bootstrap, stages), run as ``bench/layers.py L --seed S --taus G
--blas-threads N``.  Each side runs the scripts of its own ``git archive``
snapshot, so uncommitted files never enter a measurement.

The machine's load drifts: run as two back-to-back blocks, the two sides of
unchanged code have read 24-27% apart.  So for each workload and seed the
sides run in pairs of fresh processes, one pair after another, the parent
first in even pairs and the change first in odd ones.  For every metric the
file holds each side's median and quartiles over the pairs and the change's
pairwise wins (ties count for neither side), with the direction and bound
``BENCHMARK.json`` gives (a layer's metrics are better lower, unbounded).  A
gain is shown when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  A layer row
lists every digest its runs gave; ``digests_equal`` says each had one value.
A row that only one side's layer prints (a row the change adds) is recorded
with that side's median and quartiles and ``only`` naming the side.
The file records the machine, versions, BLAS threads, shas and seeds; a new
run into it (same shas) replaces the entries of the same workload, seed,
trace, grid and BLAS threads.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

import layers

ROOT = Path(__file__).resolve().parent.parent
# A single perfbench run ends within 160 s; allow start-up on a busy machine.
RUN_TIMEOUT_S = 600.0
UNITS = {"_s": "s", "_us": "us", "_mb": "MB"}


def snapshot(rev: str, dest: Path) -> str:
    """Unpack the committed tree of ``rev`` into ``dest``; return its sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return sha


def run_once(tree: Path, script: str, *args) -> dict:
    """One run of ``script`` in ``tree``: its result line, plus, for a
    perfbench run, the BLAS threads it saw."""
    argv = [sys.executable, script, *map(str, args)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if "metrics" in result:
        blas = re.search(r"blas_threads=(\[[^\]]*\])", proc.stdout)
        result["blas_threads"] = json.loads(blas.group(1)) if blas else None
    return result


def alternate(pairs: int, run) -> tuple[dict, list]:
    """``pairs`` results of ``run(side)`` per side, one pair after another,
    with the parent first in even pairs; and which side went first in each."""
    runs, order = {"parent": [], "change": []}, []
    for k in range(pairs):
        sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        order.append(sides[0])
        for side in sides:
            t0 = time.perf_counter()
            runs[side].append(run(side))
            print(f"pair={k} {side}: {time.perf_counter() - t0:.1f} s", file=sys.stderr,
                  flush=True)
    return runs, order


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def compare(parent: list[float], change: list[float], better: str, bound) -> dict:
    """Per-metric summary of paired runs; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    ps, cs = quartiles(parent), quartiles(change)
    gap = sign * (ps["median"] - cs["median"])  # positive: the change is better
    out = {"parent": ps, "change": cs, "wins": wins, "losses": losses,
           "ties": len(parent) - wins - losses, "median_gain": gap,
           "parent_iqr": ps["q3"] - ps["q1"],
           "gain_shown": wins >= math.ceil(0.9 * len(parent)) and gap > ps["q3"] - ps["q1"]}
    if bound is not None and ps["median"] != 0.0:
        worse = -gap / abs(ps["median"])  # fraction by which the change is worse
        out.update(bound=bound, worse_frac=worse, within_bound=worse <= bound)
    return out


def summarise(values: dict, units: dict, directions: dict) -> dict:
    """``compare`` of every metric each run of both sides gave; ``values``
    holds one {metric: value} dict per run and side."""
    names = sorted(set.intersection(*(set(v) for runs in values.values() for v in runs)))
    out = {}
    for name in names:
        info = directions.get(name, {"better": "lower"})
        parent, change = ([v[name] for v in values[side]] for side in ("parent", "change"))
        out[name] = {"unit": units[name], "better": info["better"],
                     **compare(parent, change, info["better"], info.get("bound"))}
    return out


def record_perfbench(args, workload, pairs, seed, trees, directions) -> dict:
    runs, order = alternate(pairs, lambda side: run_once(
        trees[side], "perfbench/run.py", "--workload", workload, "--seed", seed,
        "--seconds", args.seconds, "--trace", args.trace))
    values = {side: [{name: m["value"] for name, m in r["metrics"].items()} for r in rs]
              for side, rs in runs.items()}
    units = {name: m["unit"] for rs in runs.values() for r in rs
             for name, m in r["metrics"].items()}
    return {
        "workload": workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "pairs": pairs, "first_in_pair": order,
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "blas_threads": sorted({t for rs in runs.values() for r in rs
                                for t in (r["blas_threads"] or [])}),
        "metrics": summarise(values, units, directions),
    }


def record_layer(args, layer, pairs, seed, trees) -> dict:
    runs, order = alternate(pairs, lambda side: run_once(
        trees[side], "bench/layers.py", layer, "--seed", seed, "--taus", args.taus,
        "--blas-threads", args.blas_threads))
    rows = {}
    for label in dict.fromkeys(label for rs in runs.values() for label in rs[0]["rows"]):
        per_run = {side: [r["rows"][label] for r in rs] for side, rs in runs.items()
                   if label in rs[0]["rows"]}
        every = [row for rs in per_run.values() for row in rs]
        digests = {key: sorted({row[key] for row in every})
                   for key in every[0] if key.endswith("_sha256")}
        values = {side: [{k: v for k, v in row.items() if k not in digests} for row in rs]
                  for side, rs in per_run.items()}
        units = {name: next(u for end, u in UNITS.items() if name.endswith(end))
                 for name in every[0] if name not in digests}
        rows[label] = {"digests": digests,
                       "digests_equal": all(len(d) == 1 for d in digests.values())}
        if len(values) == 2:
            rows[label]["metrics"] = summarise(values, units, {})
        else:
            ((side, rs),) = values.items()
            rows[label].update(only=side, metrics={
                name: {"unit": unit, side: quartiles([v[name] for v in rs])}
                for name, unit in units.items()})
    first = runs["parent"][0]
    return {"workload": layer, "seed": seed, "taus": first["taus"],
            "blas_threads": first["blas_threads"], "repeats": first["repeats"],
            "design": first["design"], "pairs": pairs, "first_in_pair": order, "rows": rows}


def entry_key(entry: dict) -> str:
    """What an entry measured: a new entry replaces an old one of the same key."""
    return json.dumps([entry.get(k) for k in ("workload", "seed", "trace", "taus",
                                                "blas_threads")])


def machine() -> dict:
    import scipy

    def proc_field(path: str, key: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith(key)),
                        "unknown")

    return {"cpu": proc_field("/proc/cpuinfo", "model name"),
            "nproc": len(os.sched_getaffinity(0)), "arch": platform.machine(),
            "mem_total_mb": int(proc_field("/proc/meminfo", "MemTotal").split()[0]) // 1024,
            "os": platform.system(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def workload_arg(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition("=")
    return name, int(pairs or 5)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--workload", required=True, action="append", type=workload_arg,
                    help="NAME=PAIRS, repeatable (PAIRS defaults to 5)")
    ap.add_argument("--seeds", required=True,
                    type=lambda s: [int(v) for v in s.split(",")])
    ap.add_argument("--seconds", type=float, default=45.0, help="perfbench runs only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="perfbench runs only")
    ap.add_argument("--taus", default=layers.TAUS, help="layer runs only")
    ap.add_argument("--blas-threads", default="1", help="layer runs only")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="carqte-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: snapshot(getattr(args, side), trees[side]) for side in trees}
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        if doc is not None and (doc["parent"]["sha"], doc["change"]["sha"]) != (
                shas["parent"], shas["change"]):
            print(f"{out} records other shas; choose another --out", file=sys.stderr)
            return 2
        entries = []
        for workload, pairs in args.workload:
            for seed in args.seeds:
                print(f"{workload} seed={seed}", file=sys.stderr, flush=True)
                entries.append(record_layer(args, workload, pairs, seed, trees)
                               if workload in layers.LAYERS else
                               record_perfbench(args, workload, pairs, seed, trees, directions))
    if doc is None:
        doc = {"pr": args.pr, "command": spec["command"], "machine": machine(),
               "parent": {"rev": args.parent, "sha": shas["parent"]},
               "change": {"rev": args.change, "sha": shas["change"]},
               "runs": []}
    keys = {entry_key(e) for e in entries}
    doc["runs"] = [e for e in doc["runs"] if entry_key(e) not in keys] + entries
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
