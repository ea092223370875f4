"""Simulation designs and the brute-force oracle for true QTEs.

Three data generating processes are provided: two low-dimensional designs
with heteroskedastic noise (dgp1, dgp2) and one with twenty correlated
covariates (dgphd).  Each draws potential outcomes under both arms with
shared noise so an observed outcome can be reconstructed for any assignment.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import QuantileGrid
from .errors import DataValidationError

_DGP_KINDS = ("dgp1", "dgp2", "dgphd")

# Coefficient of Z in every design's outcomes.  The truth cache keys carry it.
_GAMMA = 4.0
_SQRT20 = np.sqrt(20.0)
_SQRT5 = np.sqrt(5.0)

# Stratum cut points on the support of Z, per design.
_CUTS = {
    "dgp1": np.array([-0.25 * _SQRT20, 0.0, 0.25 * _SQRT20, 0.5 * _SQRT20]),
    "dgp2": np.array([-1.0, 0.0, 1.0, 2.0]),
    "dgphd": np.array([-0.5 * _SQRT5, 0.0, 0.5 * _SQRT5, _SQRT5]),
}


@dataclass(frozen=True)
class DgpSpec:
    """Which design to draw from, and the sample size."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _DGP_KINDS:
            raise DataValidationError(f"unknown dgp kind {self.kind!r}")
        if self.n < 1:
            raise DataValidationError("sample size must be at least 1")


@dataclass(frozen=True)
class PotentialData:
    """Latent draw: both potential outcomes plus strata and covariates."""

    s: np.ndarray
    x: np.ndarray
    y1: np.ndarray
    y0: np.ndarray

    def observed(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        return self.y1 * a + self.y0 * (1.0 - a)


def _strata_from_z(z: np.ndarray, kind: str) -> np.ndarray:
    """Stratum label sum_j 1{z <= g_j} for the design's cut points."""
    cuts = _CUTS[kind]
    return (z[:, None] <= cuts[None, :]).sum(axis=1).astype(np.int64)


def _standardized_beta22(rng: np.random.Generator, n: int) -> np.ndarray:
    # Beta(2, 2) has mean 1/2 and variance 1/20.
    return (rng.beta(2.0, 2.0, size=n) - 0.5) * _SQRT20


def _dgp1_outcomes(z, x, eps1, eps2):
    """Potential outcomes of the first design given all latent draws."""
    x1, x2 = x[:, 0], x[:, 1]
    base = (1.0 + x2) + _GAMMA * z
    y1 = base + (1.0 + 3.0 * x1 + 3.0 * x2) + (0.25 + x1**2) * eps1
    y0 = base + eps2
    return y1, y0


def _dgp2_outcomes(z, x, eps1, eps2):
    """Potential outcomes of the second design given all latent draws."""
    x1, x2 = x[:, 0], x[:, 1]
    base = (1.0 + x1 + x2) + _GAMMA * z
    mu = 1.0 + x1 + x2 + 0.25 * (2.0 * x1 + 2.0 * x2) ** 2
    y1 = base + mu + 2.0 * (1.0 + z**2) * eps1
    y0 = base + (1.0 + z**2) * eps2
    return y1, y0


def _toeplitz_omega() -> np.ndarray:
    """The 20 x 20 correlation matrix of dgphd's covariates, entries 0.5^|i-j|."""
    idx = np.arange(20)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def _dgphd_outcomes(z, x, eps1, eps2):
    """Potential outcomes of the high-dimensional design."""
    k = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    beta = 4.0 / k**2
    base = 1.0 + _GAMMA * z
    y1 = base + (1.0 + x @ beta) + 2.0 * eps1
    y0 = base + eps2
    return y1, y0


def _draw(spec: DgpSpec, rng: np.random.Generator):
    """(z, x, y1, y0) of one sample of the named design, without strata."""
    n = spec.n
    if spec.kind == "dgp1":
        z = _standardized_beta22(rng, n)
        x = np.column_stack([rng.uniform(-2.0, 2.0, size=n), rng.standard_normal(n)])
        eps1 = rng.standard_normal(n)
        eps2 = rng.standard_normal(n)
        y1, y0 = _dgp1_outcomes(z, x, eps1, eps2)
    elif spec.kind == "dgp2":
        z = rng.uniform(-2.0, 2.0, size=n)
        x = np.column_stack([rng.uniform(-2.0, 2.0, size=n), rng.standard_normal(n)])
        # t(5) scaled to unit variance.
        eps1 = rng.standard_t(5, size=n) / _SQRT5
        eps2 = rng.standard_t(5, size=n) / _SQRT5
        y1, y0 = _dgp2_outcomes(z, x, eps1, eps2)
    else:
        from scipy.special import ndtr  # only this design needs scipy

        z = _standardized_beta22(rng, n)
        chol = np.linalg.cholesky(_toeplitz_omega())
        w = rng.standard_normal((n, 20)) @ chol.T
        x = ndtr(w)
        eps1 = rng.standard_normal(n)
        eps2 = rng.standard_normal(n)
        y1, y0 = _dgphd_outcomes(z, x, eps1, eps2)
    return z, x, y1, y0


def generate(spec: DgpSpec, rng: np.random.Generator) -> PotentialData:
    """Draw one latent sample of size ``spec.n`` from the named design."""
    z, x, y1, y0 = _draw(spec, rng)
    return PotentialData(s=_strata_from_z(z, spec.kind), x=x, y1=y1, y0=y0)


# ---------------------------------------------------------------------------
# True-QTE oracle
# ---------------------------------------------------------------------------


def _true_qte_oracle(
    spec: DgpSpec, grid: QuantileGrid, mc_n: int, mc_reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo truth for the QTE curve of a design, the step of
    :func:`cached_true_qte` that computes it.

    Draws ``mc_reps`` independent samples of size ``mc_n`` and averages the
    per-sample differences of marginal empirical quantiles.
    """
    if mc_n < 1 or mc_reps < 1:
        raise DataValidationError("mc_n and mc_reps must be at least 1")
    inner = DgpSpec(spec.kind, mc_n)
    taus = tuple(grid)
    acc = np.zeros(len(taus))
    for _ in range(mc_reps):
        _, _, y1, y0 = _draw(inner, rng)
        acc += np.quantile(y1, taus) - np.quantile(y0, taus)
    return acc / mc_reps


def _oracle_key(spec: DgpSpec, grid: QuantileGrid, mc_n: int, mc_reps: int) -> str:
    # The constants gamma and the oracle seed stay in the key, so that caches
    # written while they were parameters still hit.
    taus = ",".join(repr(t) for t in grid)
    return f"{spec.kind}|gamma={_GAMMA!r}|mc_n={mc_n}|mc_reps={mc_reps}|seed=0|taus={taus}"


def cached_true_qte(
    spec: DgpSpec,
    grid: QuantileGrid,
    mc_n: int,
    mc_reps: int,
    cache_path: str | None = None,
) -> np.ndarray:
    """Oracle truths at seed 0, with a small JSON sidecar cache keyed by all
    parameters.

    A cache file that is not a UTF-8 JSON object, or whose entry for these
    parameters is not one finite number per tau, raises DataValidationError
    and is left as it is.
    """
    key = _oracle_key(spec, grid, mc_n, mc_reps)
    cache: dict = {}
    if cache_path and os.path.exists(cache_path):
        cache = _read_truth_cache(cache_path)
        if key in cache:
            return _cached_truth(cache_path, cache[key], len(grid))
    truth = _true_qte_oracle(spec, grid, mc_n, mc_reps, np.random.default_rng(0))
    if cache_path:
        cache[key] = [float(v) for v in truth]
        tmp = f"{cache_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
        os.replace(tmp, cache_path)
    return truth


def _read_truth_cache(cache_path: str) -> dict:
    try:
        with open(cache_path, encoding="utf-8") as fh:
            cache = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"cannot read truth cache {cache_path}: {exc}") from None
    if not isinstance(cache, dict):
        raise DataValidationError(f"truth cache {cache_path} must hold a JSON object")
    return cache


def _cached_truth(cache_path: str, entry, n_taus: int) -> np.ndarray:
    try:
        truth = np.asarray(entry, dtype=np.float64)
    except (TypeError, ValueError):
        truth = np.empty(0)
    if truth.shape != (n_taus,) or not np.all(np.isfinite(truth)):
        raise DataValidationError(
            f"truth cache {cache_path}: entry is not {n_taus} finite numbers: {entry!r}"
        )
    return truth
