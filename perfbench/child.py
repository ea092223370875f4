"""One benchmark call in a fresh interpreter: ``python3 child.py SPEC.json``.

The spec names the source tree to import, an optional set-up call and the
timed call (both argument lists for ``carqte.cli.main``), and whether to
trace.  The child times ``import carqte.cli``, runs the calls, and writes a
JSON result next to the spec.  It exits with the timed call's exit code.

Tracing wraps, from outside, the names that ``carqte.cli`` and
``carqte.harness`` import, plus ``AdjustmentModel.evaluate_all`` and
``carqte.bootstrap.draw_weights``.  Each wrapper records a span (name,
start, end, parent) in memory; the child reduces them to per-name totals and
per-module self times before it exits.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
import sys
import time

# Wrapped name -> module it belongs to.  Self time of a span is charged to
# this module; code that is not wrapped is charged to its nearest wrapped
# caller.
LAYER_OF = {
    "cli.main": "cli",
    "load_csv": "data",
    "index_strata": "data",
    "pilot_quantiles": "estimator",
    "qte": "estimator",
    "fit_adjustment": "adjust",
    "evaluate_all": "adjust",
    "run_bootstrap": "bootstrap",
    "draw_weights": "bootstrap",
    "pointwise_test": "bootstrap",
    "difference_test": "bootstrap",
    "uniform_band": "bootstrap",
    "run_scenario": "harness",
    "generate": "dgp",
    "scenario_truth": "dgp",
    "assign": "randomization",
}
LAYERS = ("cli", "harness", "data", "estimator", "adjust", "bootstrap", "dgp", "randomization")

_CLI_NAMES = ("load_csv", "index_strata", "pilot_quantiles", "fit_adjustment", "qte",
              "run_bootstrap", "pointwise_test", "difference_test", "uniform_band",
              "run_scenario")
_HARNESS_NAMES = ("index_strata", "pilot_quantiles", "fit_adjustment", "qte",
                  "run_bootstrap", "pointwise_test", "difference_test", "uniform_band",
                  "generate", "assign", "scenario_truth")


class Tracer:
    """In-memory span recorder plus counts read from returned objects."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self._stack: list[int] = []
        self.counts = {"cells_degraded": 0, "cells_separated": 0, "resampled": 0}
        self.kkt: list[float] = []
        self.support_sizes: list[int] = []
        self.missing: list[str] = []

    def span(self, name, fn, label=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            idx = len(self.spans)
            self.spans.append([span_name, 0, 0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def clear_counts(self) -> None:
        self.counts = dict.fromkeys(self.counts, 0)
        self.kkt.clear()
        self.support_sizes.clear()

    def _on_model(self, model) -> None:
        diag = getattr(model, "diagnostics", None) or {}
        self.counts["cells_degraded"] += len(diag.get("degraded", ()))
        self.counts["cells_separated"] += len(diag.get("separated", ()))
        self.kkt.extend(float(v) for v in (diag.get("kkt") or {}).values())
        support = getattr(model, "support", None) or {}
        self.support_sizes.extend(len(cols) for cols in support.values())

    def _on_draws(self, draws) -> None:
        self.counts["resampled"] += int(getattr(draws, "n_resampled", 0))

    def _patch(self, module, name, **kw) -> None:
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        setattr(module, name, self.span(name, fn, **kw))

    def install(self, carqte) -> None:
        hooks = {
            "fit_adjustment": {"label": lambda args: f"fit_adjustment:{args[0]}",
                               "on_return": self._on_model},
            "run_bootstrap": {"on_return": self._on_draws},
        }
        for module, names in ((carqte.cli, _CLI_NAMES), (carqte.harness, _HARNESS_NAMES)):
            for name in names:
                self._patch(module, name, **hooks.get(name, {}))
        self._patch(carqte.adjust.AdjustmentModel, "evaluate_all")
        self._patch(carqte.bootstrap, "draw_weights")

    def summary(self, first: int = 0) -> dict:
        """Per-name inclusive totals and per-layer self times of spans[first:]."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= first:
                child_ns[parent - first] += t1 - t0
        incl: dict = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (name, t0, t1, _) in enumerate(spans):
            tot = incl.setdefault(name, [0.0, 0])
            tot[0] += (t1 - t0) * 1e-9
            tot[1] += 1
            layer = LAYER_OF[name.split(":", 1)[0]]
            self_s[layer] += (t1 - t0 - child_ns[i]) * 1e-9
        return {"incl": incl, "self": self_s, "spans": len(spans)}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_kb() -> int:
    """High-water resident set of this interpreter's own address space.

    ``ru_maxrss`` is not used: on Linux it carries over the forking parent's
    peak across exec, so it would report the parent process's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import carqte.cli

    import_s = time.perf_counter() - t0
    result: dict = {"import_s": import_s, "blas_threads": blas_threads()}
    tracer = None
    if spec["trace"]:
        import carqte

        tracer = Tracer()
        tracer.install(carqte)
        result["missing_wrappers"] = tracer.missing
        main_fn = tracer.span("cli.main", carqte.cli.main)
    else:
        main_fn = carqte.cli.main

    if spec.get("setup_argv"):
        t0 = time.perf_counter()
        result["setup_rc"] = main_fn(spec["setup_argv"])
        result["setup_call_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["setup_trace"] = tracer.summary()
            tracer.clear_counts()
    first = len(tracer.spans) if tracer is not None else 0
    t0 = time.perf_counter()
    rc = main_fn(spec["argv"])
    result["call_s"] = time.perf_counter() - t0
    result["rc"] = rc
    if tracer is not None:
        result["trace"] = tracer.summary(first)
        result["counts"] = dict(tracer.counts)
        result["kkt_max"] = max(tracer.kkt) if tracer.kkt else 0.0
        sizes = tracer.support_sizes
        result["support_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
    result["maxrss_kb"] = peak_rss_kb()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return int(rc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
