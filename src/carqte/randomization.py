"""Covariate-adaptive treatment assignment schemes.

Implements the four standard designs used in the simulation harness: simple
random sampling (srs), Efron-style biased-coin design (bcd), Wei's adaptive
biased-coin design (wei), and stratified block randomization (sbr).  All
schemes are pure functions of (stratum sequence, spec, rng seed) and never
look at outcomes or covariates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import _checked_fraction, _dense_codes
from .errors import DataValidationError

SCHEME_KINDS = ("srs", "wei", "bcd", "sbr")


@dataclass(frozen=True)
class SchemeSpec:
    """Assignment scheme configuration.

    ``pi`` is the target treated fraction: one number for every stratum, or
    a mapping from stratum label to number; anything else fails here.
    ``bcd_lambda`` is the biased-coin push probability, in (0.5, 1].
    """

    kind: str
    pi: object = 0.5
    bcd_lambda: float = 0.75

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise DataValidationError(f"unknown scheme kind {self.kind!r}")
        # Checked here, before any caller spends work on the scheme.
        mapping = isinstance(self.pi, Mapping)
        for value in self.pi.values() if mapping else (self.pi,):
            _checked_fraction(value, "target fractions")
        if not (0.5 < self.bcd_lambda <= 1.0):
            raise DataValidationError("bcd lambda must lie in (0.5, 1]")
        # The sequential designs balance toward one half by construction:
        # their imbalance statistic is measured against pi = 1/2.
        if self.kind in ("wei", "bcd") and (mapping or self.pi != 0.5):
            raise DataValidationError(f"{self.kind} is defined for pi = 0.5 only")


def _targets_for(strata: np.ndarray, spec: SchemeSpec) -> tuple[np.ndarray, np.ndarray, list]:
    """(codes, target, labels): the dense stratum codes, each stratum's
    target fraction in code order, and the labels."""
    codes, labels = _dense_codes(np.asarray(strata).tolist())
    if not isinstance(spec.pi, Mapping):
        return codes, np.full(len(labels), float(spec.pi)), labels
    try:
        target = np.array([float(spec.pi[lab]) for lab in labels])
    except KeyError as exc:
        raise DataValidationError(f"target pi missing for stratum {exc.args[0]!r}") from None
    return codes, target, labels


def _assign_srs(strata, spec: SchemeSpec, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli(pi(s)) draws."""
    codes, target, _ = _targets_for(strata, spec)
    u = rng.uniform(size=codes.shape[0])
    return (u < target[codes]).astype(np.int64)


def _wei_probability(d_prev: float, n_prev: int) -> float:
    """Treatment probability for the next unit of a stratum under WEI.

    Wei's allocation function phi(x) = (1 - x) / 2 at the imbalance ratio
    x = 2 d_prev / n_prev, taken to be zero for a stratum with no history.
    """
    ratio = 0.0 if n_prev == 0 else 2.0 * d_prev / n_prev
    return (1.0 - ratio) / 2.0


def _bcd_probability(d_prev: float, lam: float) -> float:
    """Treatment probability for the next unit of a stratum under BCD."""
    if d_prev == 0.0:
        return 0.5
    return lam if d_prev < 0.0 else 1.0 - lam


def _assign_sequential(strata, spec: SchemeSpec, rng: np.random.Generator,
                       probability: Callable[[float, int], float]) -> np.ndarray:
    """Units in row order, each treated with ``probability(d, m)`` of its
    stratum's imbalance ``d`` (treated minus half its units) and its ``m``
    units so far.  All n uniforms are drawn up front."""
    codes, _, labels = _targets_for(strata, spec)
    n = codes.shape[0]
    u = rng.uniform(size=n)
    d = np.zeros(len(labels))
    m = np.zeros(len(labels), dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for k in range(n):
        s = codes[k]
        a = 1 if u[k] < probability(d[s], int(m[s])) else 0
        out[k] = a
        d[s] += a - 0.5
        m[s] += 1
    return out


def _assign_wei(strata, spec: SchemeSpec, rng: np.random.Generator) -> np.ndarray:
    """Wei's adaptive biased-coin design, processing units in row order."""
    return _assign_sequential(strata, spec, rng, _wei_probability)


def _assign_bcd(strata, spec: SchemeSpec, rng: np.random.Generator) -> np.ndarray:
    """Efron-style biased-coin design, processing units in row order."""
    lam = spec.bcd_lambda
    return _assign_sequential(strata, spec, rng, lambda d, _m: _bcd_probability(d, lam))


def _assign_sbr(strata, spec: SchemeSpec, rng: np.random.Generator) -> np.ndarray:
    """Stratified block randomization: exactly floor(pi(s) n(s)) treated."""
    codes, target, labels = _targets_for(strata, spec)
    out = np.zeros(codes.shape[0], dtype=np.int64)
    for s in range(len(labels)):
        rows = np.flatnonzero(codes == s)
        n_treat = int(np.floor(target[s] * rows.shape[0]))
        perm = rng.permutation(rows.shape[0])
        out[rows[perm[:n_treat]]] = 1
    return out


_ASSIGNERS = {
    "srs": _assign_srs,
    "wei": _assign_wei,
    "bcd": _assign_bcd,
    "sbr": _assign_sbr,
}


def assign(strata, spec: SchemeSpec, rng: np.random.Generator) -> np.ndarray:
    """Dispatch to the scheme named by ``spec.kind``."""
    return _ASSIGNERS[spec.kind](strata, spec, rng)
