"""Simulation designs and their true QTEs.

Three data generating processes are provided: two low-dimensional designs
with heteroskedastic noise (dgp1, dgp2) and one with twenty correlated
covariates (dgphd).  Each draws potential outcomes under both arms with
shared noise so an observed outcome can be reconstructed for any assignment.

The true QTE of dgp1 and dgp2 is exact: each arm's marginal law is a mixture
of normal or t(5) laws over a product Gauss-Legendre rule, and Newton's
method inverts its CDF.  dgphd's truth comes from a Monte Carlo oracle with
a JSON cache.
"""

from __future__ import annotations

import json
import math
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
# Exact truths of dgp1 and dgp2
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per axis: (z, x1) for dgp1 and (z, v) for dgp2.
# Doubling both moves no truth on the grid 0.1, 0.15, ..., 0.9 by more than
# 1e-9 (tests/test_dgp.py).
_EXACT_NODES = {"dgp1": (24, 24), "dgp2": (64, 224)}
# dgp2 integrates v = x1 + x2 over [-_V_EDGE, _V_EDGE]; |v| > 10 needs
# |x2| > 8, whose probability 2*Phi(-8) ~ 1.2e-15 is below rounding.
_V_EDGE = 10.0
# A safeguard only: from the mixture's mean, Newton's method stops within 8
# steps for taus in [0.01, 0.99], 17 at 1e-6 and about 30 within 1e-300 of
# 0 or 1.
_MAX_STEPS = 100

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, elementwise from ``math.erfc`` (no scipy)."""
    return 0.5 * _erfc(-np.sqrt(0.5) * x).astype(np.float64)


def _normal_kernel(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF and density of N(0, 1) at ``u``."""
    return _ndtr(u), np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _normal_tail(p: np.ndarray) -> np.ndarray:
    """A k >= 0 with Phi(-k) <= p, from Phi(-k) <= exp(-k^2 / 2) / 2."""
    return np.sqrt(-2.0 * np.log(p))


def _t5_kernel(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CDF and density at ``u`` of t(5)/sqrt(5), the designs' unit-variance t.

    With theta = arctan(u): F = 1/2 + (theta + sin(theta) cos(theta)
    (1 + 2/3 cos^2(theta))) / pi, and f = 8 / (3 pi) cos^6(theta).
    """
    cos2 = 1.0 / (1.0 + u * u)
    cdf = 0.5 + (np.arctan(u) + u * cos2 * (1.0 + (2.0 / 3.0) * cos2)) / math.pi
    return cdf, (8.0 / (3.0 * math.pi)) * cos2**3


def _t5_tail(p: np.ndarray) -> np.ndarray:
    """A k >= 0 with F(-k) <= p for :func:`_t5_kernel`'s law: since
    f(u) <= 8 / (3 pi u^6), F(-k) <= 8 / (15 pi k^5)."""
    return (8.0 / (15.0 * math.pi)) ** 0.2 * p**-0.2  # no overflow at tiny p


def _mixture_quantiles(taus, loc, scale, weight, kernel, tail) -> np.ndarray:
    """Quantiles at ``taus`` of the law whose CDF is
    F(y) = sum_i weight_i G((y - loc_i) / scale_i), with G the ``kernel``'s.

    Newton's method, vectorised over tau from the mixture's mean, stays
    inside a bracket on which F crosses tau: the ``tail`` bounds of the
    components give it, every step narrows it, and a step that leaves it is
    replaced by bisection.  A tau stops moving once |F - tau| is within the
    rounding bound of the weighted sum, len(weight) * eps (the weights sum
    to one); closer to 0 or 1 than that, any such point is its quantile.
    """
    lo = loc.min() - scale.max() * tail(taus)
    hi = loc.max() + scale.max() * tail(1.0 - taus)
    inv = 1.0 / scale
    tol = weight.size * np.finfo(np.float64).eps
    y = np.clip(weight @ loc, lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero density bisects
        for _ in range(_MAX_STEPS):
            cdf, pdf = kernel((y[:, None] - loc) * inv)
            resid = cdf @ weight - taus
            done = np.abs(resid) <= tol
            if done.all():
                break
            lo = np.where(resid < 0.0, y, lo)
            hi = np.where(resid > 0.0, y, hi)
            step = y - resid / (pdf @ (weight * inv))
            step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
            y = np.where(done, y, step)
    return y


def _legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``n`` points on [a, b]."""
    # Imported here: ``import carqte.cli`` loads no module it does not use.
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def _exact_true_qte(kind: str, grid: QuantileGrid, nodes: tuple[int, int]) -> np.ndarray:
    """The QTE curve of dgp1 or dgp2, by quadrature over ``nodes`` per axis.

    dgp1: Z = (B - 1/2) sqrt(20) with B ~ Beta(2, 2), and x1 ~ U(-2, 2);
    Y(0) | z ~ N(1 + 4z, 2) and Y(1) | z, x1 ~ N(2 + 4z + 3 x1,
    16 + (0.25 + x1^2)^2), once x2 and the noise are integrated out.
    dgp2: Z ~ U(-2, 2), and x enters only through v = x1 + x2, whose density
    is (Phi(v + 2) - Phi(v - 2)) / 4; Y(0) | z, v = 1 + v + 4z + (1 + z^2) e
    and Y(1) | z, v = 2 + 2v + v^2 + 4z + 2 (1 + z^2) e', with e, e' ~ t(5)/sqrt(5).
    """
    n_z, n_x = nodes
    taus = np.asarray(grid.taus)
    if kind == "dgp1":
        b, w_b = _legendre(n_z, 0.0, 1.0)
        z = (b - 0.5) * _SQRT20
        w_z = w_b * 6.0 * b * (1.0 - b)  # the Beta(2, 2) density
        x1, w_x = _legendre(n_x, -2.0, 2.0)
        y0 = _mixture_quantiles(taus, 1.0 + _GAMMA * z, np.full(n_z, math.sqrt(2.0)), w_z,
                                _normal_kernel, _normal_tail)
        loc1 = (2.0 + _GAMMA * z[:, None] + 3.0 * x1).ravel()
        scale1 = np.tile(np.sqrt(16.0 + (0.25 + x1**2) ** 2), n_z)
        y1 = _mixture_quantiles(taus, loc1, scale1, np.outer(w_z, w_x / 4.0).ravel(),
                                _normal_kernel, _normal_tail)
        return y1 - y0
    z, w_z = _legendre(n_z, -2.0, 2.0)
    v, w_v = _legendre(n_x, -_V_EDGE, _V_EDGE)
    left = -np.abs(v)  # the density of v is even; its left tail has no cancellation
    weight = np.outer(w_z / 4.0, w_v * (_ndtr(left + 2.0) - _ndtr(left - 2.0)) / 4.0).ravel()
    z, v = np.repeat(z, n_x), np.tile(v, n_z)
    scale = 1.0 + z**2
    y0 = _mixture_quantiles(taus, 1.0 + v + _GAMMA * z, scale, weight, _t5_kernel, _t5_tail)
    y1 = _mixture_quantiles(taus, 2.0 + 2.0 * v + v**2 + _GAMMA * z, 2.0 * scale, weight,
                            _t5_kernel, _t5_tail)
    return y1 - y0


# ---------------------------------------------------------------------------
# Monte Carlo oracle, the truth of dgphd
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
    """True QTEs of the design on the grid.

    dgp1 and dgp2 get the exact truth (:func:`_exact_true_qte`); ``mc_n``,
    ``mc_reps`` and ``cache_path`` are not used, and no file is read or
    written.  dgphd gets the Monte Carlo oracle at seed 0, with a small JSON
    sidecar cache keyed by all parameters.  A cache file that is not a UTF-8
    JSON object, or whose entry for these parameters is not one finite
    number per tau, raises DataValidationError and is left as it is.
    """
    if spec.kind != "dgphd":
        return _exact_true_qte(spec.kind, grid, _EXACT_NODES[spec.kind])
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
