"""Metamorphic properties of the whole pipeline: fit, point solve, bootstrap.

Each test transforms a dataset in a way that leaves the estimator's answer
known in advance and compares every point estimate and bootstrap draw with
the untransformed run, bit for bit.  The designs are dgp1 and dgp2 under
stratified block randomization at n=400 with the taus 0.25/0.5/0.75 and
B=50, for every method, the lasso included; at much larger n a cell's
Newton chunk follows stratum order, so the bit-identities are pinned at this
n only.  The grid test runs the seven low-dimensional methods on a second,
denser grid.
"""

import numpy as np
import pytest

from carqte import Dataset, DgpSpec, QuantileGrid, SchemeSpec, assign, generate
from carqte.adjust import METHODS, LassoConfig
from carqte.estimator import pilot_quantiles
from carqte.harness import _fit_and_bootstrap

N = 400
GRID = QuantileGrid.of([0.25, 0.5, 0.75])


def _design(kind, seed):
    latent = generate(DgpSpec(kind, N), np.random.default_rng(seed))
    a = assign(latent.s, SchemeSpec("sbr"), np.random.default_rng(seed + 1))
    return latent.observed(a), a, latent.s, latent.x


def _run(y, a, s, x, methods=METHODS, grid=GRID):
    """Every method's point estimate and draws, from one pipeline call."""
    ds = Dataset.from_arrays(y, a, s, x)
    pilot = pilot_quantiles(ds, grid)
    boot = _fit_and_bootstrap(ds, pilot, methods, grid, 50,
                              np.random.default_rng(np.random.SeedSequence(9)), None,
                              LassoConfig(), {})
    return [(b.point.q1, b.point.q0, b.draws) for b in boot]


def _assert_same(got, want, scale=1.0, methods=METHODS):
    for method, g, w in zip(methods, got, want, strict=True):
        for g_arr, w_arr in zip(g, w, strict=True):
            assert np.array_equal(g_arr, scale * w_arr), method


@pytest.mark.parametrize("kind,seed", [("dgp1", 3), ("dgp2", 4)])
@pytest.mark.parametrize("scale", [2.0, 0.25])
def test_scaling_y_by_a_power_of_two_scales_every_estimate_and_draw(kind, seed, scale):
    # The labels 1{y <= pilot quantile} and so every fitted adjustment are
    # unchanged, and each solution is an observed outcome, scaled exactly.
    y, a, s, x = _design(kind, seed)
    _assert_same(_run(scale * y, a, s, x), _run(y, a, s, x), scale)


@pytest.mark.parametrize("kind,seed", [("dgp1", 5), ("dgp2", 6)])
def test_relabelling_the_strata_changes_no_estimate_or_draw(kind, seed):
    y, a, s, x = _design(kind, seed)
    labels = np.unique(s)
    relabel = dict(zip(labels, np.random.default_rng(seed).permutation(labels)))
    assert any(k != v for k, v in relabel.items())
    moved = np.array([relabel[v] for v in s])
    _assert_same(_run(y, a, moved, x), _run(y, a, s, x))


@pytest.mark.parametrize("kind,seed", [("dgp1", 7), ("dgp2", 8)])
def test_shuffling_the_rows_changes_no_estimate_or_draw(kind, seed):
    # The weights are drawn in the solver's arm-sorted layout, so with
    # tie-free outcomes each unit gets the same weight in any row order.
    y, a, s, x = _design(kind, seed)
    assert np.unique(y).size == N
    order = np.random.default_rng(seed).permutation(N)
    _assert_same(_run(y[order], a[order], s[order], x[order]), _run(y, a, s, x))


def test_a_taus_estimates_and_draws_do_not_depend_on_the_rest_of_the_grid():
    # Each (cell, tau) problem is fitted and solved on its own, and the
    # weights do not depend on the grid, so 0.25/0.5/0.75 give the same
    # columns alone as inside the 33 taus 0.1, 0.125, ..., 0.9.
    dense = QuantileGrid.of([round(0.1 + 0.025 * k, 3) for k in range(33)])
    cols = [dense.index_of(t) for t in GRID]
    methods = tuple(m for m in METHODS if m != "lasso")
    y, a, s, x = _design("dgp1", 3)
    wide = [(q1[cols], q0[cols], d[:, cols]) for q1, q0, d in _run(y, a, s, x, methods, dense)]
    _assert_same(wide, _run(y, a, s, x, methods), methods=methods)
