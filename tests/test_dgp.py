import hashlib
import json

import numpy as np
import pytest
from scipy.stats import norm

from carqte import (
    DataValidationError,
    DgpSpec,
    QuantileGrid,
    cached_true_qte,
    generate,
    true_qte_oracle,
)
from carqte.dgp import (
    _oracle_from_sampler,
    dgp1_outcomes,
    dgp2_outcomes,
    strata_from_z,
    toeplitz_omega,
)


def test_dgp1_noise_free_outcome():
    z = np.array([0.0])
    x = np.array([[0.0, 0.0]])
    eps = np.array([0.0])
    y1, y0 = dgp1_outcomes(z, x, eps, eps)
    assert y1[0] == 2.0
    assert y0[0] == 1.0


def test_dgp2_noise_free_outcome():
    y1, y0 = dgp2_outcomes(np.array([0.0]), np.array([[0.0, 0.0]]), np.array([0.0]), np.array([0.0]))
    assert y1[0] == 2.0
    assert y0[0] == 1.0


def test_stratum_rule_at_zero():
    assert strata_from_z(np.array([0.0]), "dgp1")[0] == 3


@pytest.mark.parametrize("kind", ["dgp1", "dgp2", "dgphd"])
def test_stratum_labels_in_range(kind):
    data = generate(DgpSpec(kind, 5000), np.random.default_rng(0))
    labels = set(np.unique(data.s).tolist())
    assert labels <= {0, 1, 2, 3, 4}
    assert len(labels) >= 3  # the designs realize several strata


@pytest.mark.parametrize("kind", ["dgp1", "dgp2", "dgphd"])
def test_generation_deterministic_and_coupled(kind):
    spec = DgpSpec(kind, 500)
    d1 = generate(spec, np.random.default_rng(123))
    d2 = generate(spec, np.random.default_rng(123))
    assert np.array_equal(d1.y1, d2.y1)
    assert np.array_equal(d1.y0, d2.y0)
    a = np.random.default_rng(1).integers(0, 2, 500)
    assert np.array_equal(d1.observed(a), d1.y1 * a + d1.y0 * (1 - a))


# sha256 of generate's z, s, x, y1 and y0 bytes, in that order, for n=50 at
# seed 9 (numpy 2.4, scipy 1.17).
PINNED_GENERATE = {
    "dgp1": "17c1d848ac5dccfa805465adaf85655c04a9feb16806fa585abce613a489e18b",
    "dgp2": "218d82a9ff5979b97159d42a250c4c5e3820b2e87f5fbfbfe501570245937a6c",
    "dgphd": "2301d963041ddfcc1463d0e60d95a61dd6c040e3be9dc7a3ae13ddb0774a34a0",
}


@pytest.mark.parametrize("kind", list(PINNED_GENERATE))
def test_generate_draws_are_pinned(kind):
    data = generate(DgpSpec(kind, 50), np.random.default_rng(9))
    digest = hashlib.sha256()
    for arr in (data.z, data.s, data.x, data.y1, data.y0):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == PINNED_GENERATE[kind]


def test_dgphd_toeplitz_correlation():
    data = generate(DgpSpec("dgphd", 100_000), np.random.default_rng(5))
    w = norm.ppf(data.x)  # invert the probability transform
    r = np.corrcoef(w[:, 0], w[:, 2])[0, 1]
    se = (1 - 0.25**2) / np.sqrt(w.shape[0])
    assert abs(r - 0.25) < 3 * se


def test_dgphd_covariates_are_norm_cdf_of_the_same_draws():
    n = 3000
    data = generate(DgpSpec("dgphd", n), np.random.default_rng(8))
    rng = np.random.default_rng(8)
    rng.beta(2.0, 2.0, size=n)  # z
    w = rng.standard_normal((n, 20)) @ np.linalg.cholesky(toeplitz_omega()).T
    assert np.array_equal(data.x, norm.cdf(w))


def test_toeplitz_omega_is_spd():
    omega = toeplitz_omega()
    assert np.array_equal(omega, omega.T)
    np.linalg.cholesky(omega)  # raises if not positive definite


def test_oracle_deterministic():
    spec = DgpSpec("dgp1", 500)
    grid = QuantileGrid.of([0.25, 0.5])
    a = true_qte_oracle(spec, grid, mc_n=500, mc_reps=2, rng=np.random.default_rng(9))
    b = true_qte_oracle(spec, grid, mc_n=500, mc_reps=2, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)


# Oracle truths recorded while the oracle still drew through ``generate``.
# The oracle must draw the same stream: cached truths are keyed on the seed.
PINNED_ORACLE = {
    "dgp1": [-0.5726797423406345, 0.952437697814912, 2.4431684228973687],
    "dgp2": [2.5788682551278086, 2.838902117267934, 3.5022611288581884],
    "dgphd": [4.025651516040924, 4.16505160180943, 4.445179658752668],
}


@pytest.mark.parametrize("kind", sorted(PINNED_ORACLE))
def test_oracle_truth_is_pinned(kind):
    grid = QuantileGrid.of([0.25, 0.5, 0.75])
    got = true_qte_oracle(DgpSpec(kind, 400), grid, mc_n=2000, mc_reps=5,
                          rng=np.random.default_rng(11))
    assert got.tolist() == PINNED_ORACLE[kind]


def test_oracle_constant_shift_recovers_shift():
    # Degenerate design: y1 = y0 + c with symmetric noise; median QTE is c.
    c = 2.5

    def sampler(rng):
        y0 = rng.normal(0.0, 1.0, 4000)
        return y0 + c, y0

    got = _oracle_from_sampler(sampler, (0.5,), 40, np.random.default_rng(4))
    assert got[0] == pytest.approx(c, abs=0.05)


def test_dgp1_median_qte_is_one():
    # Every term of both potential outcomes is symmetric, so the medians are
    # the intercepts 2 and 1.
    grid = QuantileGrid.of([0.5])
    got = true_qte_oracle(DgpSpec("dgp1", 4000), grid, mc_n=4000, mc_reps=60,
                          rng=np.random.default_rng(21))
    assert got[0] == pytest.approx(1.0, abs=0.05)


def test_cached_oracle_round_trip(tmp_path):
    cache = tmp_path / "truth.json"
    spec = DgpSpec("dgp1", 300)
    grid = QuantileGrid.of([0.5])
    first = cached_true_qte(spec, grid, mc_n=300, mc_reps=3, cache_path=str(cache))
    blob = json.loads(cache.read_text())
    [key] = blob.keys()
    # The key text of caches written when gamma and the seed were parameters.
    assert key == "dgp1|gamma=4.0|mc_n=300|mc_reps=3|seed=0|taus=0.5"
    blob[key] = [123.0]  # prove the next call is a cache hit
    cache.write_text(json.dumps(blob))
    second = cached_true_qte(spec, grid, mc_n=300, mc_reps=3, cache_path=str(cache))
    assert second[0] == 123.0
    assert first[0] != 123.0


@pytest.mark.parametrize(
    "content,match",
    [
        (b"{not json", "cannot read truth cache"),
        (b"[1,2]", "must hold a JSON object"),
        (b"\xff", "cannot read truth cache"),
    ],
)
def test_unreadable_truth_cache_is_a_data_error_and_kept(tmp_path, content, match):
    cache = tmp_path / "truth.json"
    cache.write_bytes(content)
    with pytest.raises(DataValidationError, match=match):
        cached_true_qte(DgpSpec("dgp1", 300), QuantileGrid.of([0.5]), mc_n=300,
                        mc_reps=3, cache_path=str(cache))
    assert cache.read_bytes() == content


@pytest.mark.parametrize("entry", ["abc", [1.0, 2.0], [None], [float("nan")], {"a": 1}])
def test_bad_truth_cache_entry_is_a_data_error(tmp_path, entry):
    cache = tmp_path / "truth.json"
    spec, grid = DgpSpec("dgp1", 300), QuantileGrid.of([0.5])
    cached_true_qte(spec, grid, mc_n=300, mc_reps=3, cache_path=str(cache))
    blob = json.loads(cache.read_text())
    [key] = blob.keys()
    blob[key] = entry
    cache.write_text(json.dumps(blob))
    before = cache.read_bytes()
    with pytest.raises(DataValidationError, match="truth cache"):
        cached_true_qte(spec, grid, mc_n=300, mc_reps=3, cache_path=str(cache))
    assert cache.read_bytes() == before
