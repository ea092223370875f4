"""Record a parent/change comparison of the benchmark into ``BENCH_<pr>.json``.

Usage (from the repository root)::

    python3 bench/record.py --pr N --parent PARENT_REV --change CHANGE_REV \\
        --workload sim-paper=10 --workload estimate-large=5 --seeds 7,29 --seconds 45

Each side is a ``git archive`` snapshot of its commit, unpacked into a
temporary directory, so uncommitted files never enter a measurement.  For
every workload and seed the recorder runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace X`` in the two snapshots, one pair
after another, alternating which side runs first, and reads the metrics from
the last stdout line of each run.

For every metric it writes each side's values, median and quartiles, and
the pairwise wins of the change (ties count for neither side), using the
direction and bound ``BENCHMARK.json`` gives the metric.  A gain is shown
when the change wins at least nine tenths of the pairs and the medians differ
by more than the parent's interquartile range.  The file also records the
machine, the Python/numpy/scipy versions, the BLAS thread count the runs
reported, both shas and the seeds.  Running again with the same output file
adds or replaces the (workload, seed, trace) entries and keeps the others,
provided both shas match.
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_CMD = ["perfbench/run.py"]
# A single perfbench run ends within 160 s; allow start-up on a busy machine.
RUN_TIMEOUT_S = 600.0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def snapshot(rev: str, dest: Path) -> str:
    """Unpack the committed tree of ``rev`` into ``dest``; return its sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its result line plus the BLAS threads it saw."""
    argv = [sys.executable, *BENCH_CMD, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    blas = re.search(r"blas_threads=(\[[^\]]*\])", proc.stdout)
    result["blas_threads"] = json.loads(blas.group(1)) if blas else None
    return result


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


def record(args, spec: dict, trees: dict) -> list[dict]:
    directions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    entries = []
    for workload, pairs in args.workload:
        for seed in args.seeds:
            runs = {"parent": [], "change": []}
            order = []
            for k in range(pairs):
                sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                order.append(sides[0])
                for side in sides:
                    res = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    runs[side].append(res)
                    value = res["metrics"].get("call_s", res["metrics"].get("trace.call_s"))
                    print(f"{workload} seed={seed} pair={k} {side}: "
                          f"{value['value'] if value else '?'}", file=sys.stderr, flush=True)
            names = sorted(set().union(*(r["metrics"] for rs in runs.values() for r in rs)))
            metrics = {}
            for name in names:
                per_side = {side: [r["metrics"][name]["value"] for r in rs
                                   if name in r["metrics"]] for side, rs in runs.items()}
                if min(len(v) for v in per_side.values()) < pairs:
                    continue
                info = directions.get(name, {"better": "lower"})
                metrics[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"],
                                 "better": info["better"], **per_side,
                                 **compare(per_side["parent"], per_side["change"],
                                           info["better"], info.get("bound"))}
            entries.append({
                "workload": workload, "seed": seed, "trace": args.trace,
                "seconds": args.seconds, "pairs": pairs,
                "first_in_pair": order,
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "blas_threads": sorted({t for rs in runs.values() for r in rs
                                        for t in (r["blas_threads"] or [])}),
                "metrics": metrics,
            })
    return entries


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    mem_kb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next((int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal:")), None)
    except OSError:
        pass
    import scipy

    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "arch": platform.machine(),
            "mem_total_mb": mem_kb // 1024 if mem_kb else None, "os": platform.system(),
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
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="carqte-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: snapshot(getattr(args, side), trees[side]) for side in trees}
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
        if doc is not None and (doc["parent"]["sha"], doc["change"]["sha"]) != (
                shas["parent"], shas["change"]):
            print(f"{out} records other shas; choose another --out", file=sys.stderr)
            return 2
        entries = record(args, spec, trees)
    if doc is None:
        doc = {"pr": args.pr, "command": spec["command"], "machine": machine(),
               "parent": {"rev": args.parent, "sha": shas["parent"]},
               "change": {"rev": args.change, "sha": shas["change"]},
               "runs": []}
    keys = {(e["workload"], e["seed"], e["trace"]) for e in entries}
    doc["runs"] = [e for e in doc["runs"]
                   if (e["workload"], e["seed"], e["trace"]) not in keys] + entries
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
