"""Seeded input generator for the benchmark, written against numpy alone.

The designs here are the benchmark's own: nothing is imported from the
package under test, so a change to the program cannot change its inputs.
Each design draws potential outcomes under both arms, assigns treatment by
blocks within strata, and has a Monte Carlo truth for its quantile treatment
effect (QTE) computed from a much larger draw of the same design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def normal_cdf(w: np.ndarray) -> np.ndarray:
    """Standard normal CDF via Abramowitz & Stegun 7.1.26 (error < 1.5e-7).

    numpy has no erf; the approximation is part of the design, so inputs and
    truths use the same map.
    """
    x = np.abs(w) / np.sqrt(2.0)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741
                + t * (-1.453152027 + t * 1.061405429))))
    erf = 1.0 - poly * np.exp(-x * x)
    return 0.5 * (1.0 + np.sign(w) * erf)


@dataclass(frozen=True)
class Design:
    """A data generating process: sample size, covariates, strata."""

    kind: str  # "large" (5 covariates, 8 strata) or "hd" (20 covariates, 5 strata)
    n: int

    @property
    def n_strata(self) -> int:
        return 8 if self.kind == "large" else 5


def _potential(design: Design, n: int, rng: np.random.Generator):
    """Draw (z, x, y1, y0) for n units of the design."""
    if design.kind == "large":
        z = rng.standard_normal(n)
        x = rng.standard_normal((n, 5))
        x[:, 1] = 0.6 * x[:, 1] + 0.8 * z
        e1 = rng.standard_normal(n)
        e0 = rng.standard_normal(n)
        base = 1.0 + 2.0 * z + x[:, 0] - 0.5 * x[:, 2] + 0.25 * x[:, 3]
        y0 = base + e0
        y1 = base + 1.0 + x[:, 1] + 0.5 * x[:, 4] + (0.5 + np.abs(x[:, 0])) * e1
        return z, x, y1, y0
    if design.kind == "hd":
        z = (rng.beta(2.0, 2.0, size=n) - 0.5) * np.sqrt(20.0)
        idx = np.arange(20)
        chol = np.linalg.cholesky(0.5 ** np.abs(idx[:, None] - idx[None, :]))
        x = normal_cdf(rng.standard_normal((n, 20)) @ chol.T)
        beta = 4.0 / np.arange(1, 21, dtype=np.float64) ** 2
        base = 1.0 + 4.0 * z
        y1 = base + 1.0 + x @ beta + 2.0 * rng.standard_normal(n)
        y0 = base + rng.standard_normal(n)
        return z, x, y1, y0
    raise ValueError(f"unknown design {design.kind!r}")


def _strata(design: Design, z: np.ndarray) -> np.ndarray:
    """Equal-probability strata on z (cut points from the design, not the draw)."""
    k = design.n_strata
    if design.kind == "large":
        ref = np.random.default_rng(12345).standard_normal(400_000)
    else:
        ref = (np.random.default_rng(12345).beta(2.0, 2.0, 400_000) - 0.5) * np.sqrt(20.0)
    cuts = np.quantile(ref, np.arange(1, k) / k)
    return np.searchsorted(cuts, z)


def _assign_blocks(s: np.ndarray, rng: np.random.Generator, block: int = 4) -> np.ndarray:
    """Permuted blocks of ``block`` units, half treated, within each stratum."""
    a = np.zeros(s.size, dtype=np.int64)
    for code in np.unique(s):
        rows = np.flatnonzero(s == code)
        n_blocks = -(-rows.size // block)
        slots = np.full(n_blocks * block, -1)
        slots[: rows.size] = rows[rng.permutation(rows.size)]
        keys = rng.random((n_blocks, block))
        keys[(slots < 0).reshape(n_blocks, block)] = np.inf  # empty slots rank last
        rank = np.argsort(np.argsort(keys, axis=1), axis=1)
        filled = (slots >= 0).reshape(n_blocks, block).sum(axis=1)
        treated = (rank < (filled // 2)[:, None]).ravel()
        a[slots[treated]] = 1
    return a


def generate_csv(design: Design, seed: int, path: str, index: int = 0) -> str:
    """Write the ``index``-th experiment CSV (y, a, s, x1..xd); return its sha256."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))
    z, x, y1, y0 = _potential(design, design.n, rng)
    s = _strata(design, z)
    a = _assign_blocks(s, rng)
    y = np.where(a == 1, y1, y0)
    d = x.shape[1]
    header = ",".join(["y", "a", "s"] + [f"x{k + 1}" for k in range(d)])
    table = np.column_stack([y, a, s, x])
    fmt = ["%.17g", "%d", "%d"] + ["%.17g"] * d
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")
    return file_sha256(path)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def true_qte(design: Design, taus, seed: int) -> np.ndarray:
    """Monte Carlo QTE truth: quantile differences over many fresh units.

    The draw count keeps the Monte Carlo error well under a tenth of the
    estimator's standard error at the design's sample size.
    """
    draws = 2_000_000 if design.kind == "large" else 300_000
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    chunks1, chunks0 = [], []
    step = 250_000
    for start in range(0, draws, step):
        _, _, y1, y0 = _potential(design, min(step, draws - start), rng)
        chunks1.append(y1)
        chunks0.append(y0)
    y1 = np.concatenate(chunks1)
    y0 = np.concatenate(chunks0)
    return np.quantile(y1, taus) - np.quantile(y0, taus)
