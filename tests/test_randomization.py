import hashlib

import numpy as np
import pytest

from carqte import DataValidationError, SchemeSpec, assign
from carqte.randomization import _bcd_probability, _wei_probability


def _imbalance(a, s, stratum):
    mask = s == stratum
    return np.sum(a[mask] - 0.5)


@pytest.mark.parametrize("kind", ["srs", "wei", "bcd", "sbr"])
def test_same_seed_same_assignment(kind):
    spec = SchemeSpec(kind)
    strata = np.random.default_rng(5).integers(0, 3, 200)
    a1 = assign(strata, spec, np.random.default_rng(42))
    a2 = assign(strata, spec, np.random.default_rng(42))
    assert np.array_equal(a1, a2)
    assert a1.shape == strata.shape
    assert set(np.unique(a1)) <= {0, 1}


def test_srs_fraction_within_binomial_band():
    n = 100_000
    strata = np.zeros(n, dtype=int)
    a = assign(strata, SchemeSpec("srs"), np.random.default_rng(1))
    se = np.sqrt(0.25 / n)
    assert abs(a.mean() - 0.5) < 3 * se


def test_srs_per_stratum_targets():
    n = 40_000
    rng = np.random.default_rng(2)
    strata = rng.integers(1, 3, n)
    spec = SchemeSpec("srs", pi={1: 0.3, 2: 0.7})
    a = assign(strata, spec, rng)
    for lab, target in ((1, 0.3), (2, 0.7)):
        mask = strata == lab
        se = np.sqrt(target * (1 - target) / mask.sum())
        assert abs(a[mask].mean() - target) < 4 * se


def test_wei_first_unit_probability_is_half():
    assert _wei_probability(0.0, 0) == 0.5  # 0/0 ratio treated as zero


def test_wei_all_treated_history_forces_control():
    # ratio 1 under the allocation function (1 - x) / 2: next treated w.p. 0
    assert _wei_probability(5.0, 10) == 0.0


def test_wei_probability_symmetry_on_sampled_points():
    # phi(-x) = 1 - phi(x): an imbalance pushes as hard as its mirror image.
    for d in np.linspace(0, 5, 11):
        assert _wei_probability(-d, 10) == pytest.approx(1 - _wei_probability(d, 10))


def test_wei_imbalance_shrinks():
    spec = SchemeSpec("wei")
    rng = np.random.default_rng(11)
    ratios = []
    for seed in range(10):
        strata = np.random.default_rng(100 + seed).integers(0, 2, 2000)
        a = assign(strata, spec, np.random.default_rng(seed))
        for stratum in (0, 1):
            mask = strata == stratum
            ratios.append(abs(_imbalance(a, strata, stratum)) / mask.sum())
    assert np.mean(ratios) < 0.1


def test_bcd_probability_cases():
    assert _bcd_probability(0.0, 0.75) == 0.5
    assert _bcd_probability(-1.0, 0.75) == 0.75  # one excess control -> push to treat
    assert _bcd_probability(2.0, 0.75) == 0.25


def test_bcd_lambda_one_alternates_to_balance():
    spec = SchemeSpec("bcd", bcd_lambda=1.0)
    strata = np.zeros(1000, dtype=int)
    a = assign(strata, spec, np.random.default_rng(3))
    d = np.cumsum(a - 0.5)
    assert np.max(np.abs(d)) <= 0.5
    assert d[-1] == 0.0  # even stratum size balances exactly


def test_bcd_requires_even_target():
    with pytest.raises(DataValidationError):
        SchemeSpec("bcd", pi=0.4)
    with pytest.raises(DataValidationError):
        SchemeSpec("bcd", bcd_lambda=0.5)


def test_sbr_exact_counts():
    spec = SchemeSpec("sbr")
    strata = np.array([1] * 5 + [2] * 4)
    a = assign(strata, spec, np.random.default_rng(9))
    assert a[strata == 1].sum() == 2  # floor(0.5 * 5)
    assert a[strata == 2].sum() == 2
    assert _imbalance(a, strata, 2) == 0.0


def test_sbr_floor_identity_random_configs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(3, 200))
        k = int(rng.integers(1, 5))
        strata = rng.integers(0, k, n)
        pi = float(rng.uniform(0.2, 0.8))
        a = assign(strata, SchemeSpec("sbr", pi=pi), rng)
        for stratum in np.unique(strata):
            mask = strata == stratum
            assert a[mask].sum() == int(np.floor(pi * mask.sum()))
            assert abs(np.sum(a[mask] - pi)) < 1.0


@pytest.mark.parametrize("pi", [1.5, 0.0, 1.0, float("nan"), float("-inf"),
                                {1: 0.3, 2: 1.0}, {1: float("nan")}])
def test_target_outside_unit_interval_rejected_at_construction(pi):
    with pytest.raises(DataValidationError, match=r"strictly inside \(0, 1\)"):
        SchemeSpec("srs", pi=pi)


@pytest.mark.parametrize("pi", [[0.3, 0.7], (0.5,), np.array([0.3, 0.7]), np.array(0.5),
                                "0.5", {1: [0.3, 0.7]}])
def test_target_that_is_not_a_number_or_mapping_is_rejected_at_construction(pi):
    # A sequence would be matched to strata by sorted-label position; a
    # mapping names each stratum instead.
    with pytest.raises(DataValidationError, match="target fractions must be one number"):
        SchemeSpec("srs", pi=pi)


def test_target_mapping_missing_a_stratum_label_is_rejected():
    spec = SchemeSpec("srs", pi={"a": 0.5})
    with pytest.raises(DataValidationError, match="target pi missing for stratum 'b'"):
        assign(np.array(["a", "b", "a"]), spec, np.random.default_rng(0))


def test_unknown_scheme_rejected():
    with pytest.raises(DataValidationError):
        SchemeSpec("pocock")


@pytest.mark.parametrize("kind", ["srs", "wei", "bcd", "sbr"])
def test_nan_stratum_label_rejected(kind):
    with pytest.raises(DataValidationError, match="NaN"):
        assign(np.array([1.0, np.nan, 1.0]), SchemeSpec(kind), np.random.default_rng(0))


# sha256 of assign's int64 output on 300 units of three strata, labelled by
# ints, by strings in another sorted order, and by negative ints (numpy 2.4).
# A bcd key carries its lambda.  Only sbr walks the strata in label order,
# so only its str pin differs.
PINNED_ASSIGNMENTS = {
    "srs": "75e2024e92cbcf80e4d1f1952b3f39b4108c711c5b45a70b0c5bee0fe20ebfbc",
    "wei": "6b9749d51b58383b224926b382570223d4f55cf68a7d8d32901bf62b93edcafc",
    "bcd-0.75": "0303cd1809605babccfc0554bc9b54c5fc15e3ed8de3ad9c1b932486f05d952e",
    "bcd-1.0": "57efe50fdc57b974b5a4e243ffd378660533de7bf1fee423703a87c0045c19e9",
    "sbr": "bb5d18c040d334974d3d0672ae78fc554deb79d20d418b0379bfc6a22c24845c",
}
PINNED_SBR_STR = "6e39ec0928aba1ff3ffe996e22cf211d4726410919d3ff841384d1b27bc78512"


@pytest.mark.parametrize("scheme", list(PINNED_ASSIGNMENTS))
@pytest.mark.parametrize("labels", ["int", "str", "negative"])
def test_assignments_are_pinned(scheme, labels):
    codes = np.random.default_rng(7).integers(0, 3, 300)
    strata = {"int": codes + 1, "str": np.array(["b", "a", "c"])[codes],
              "negative": codes - 2}[labels]
    kind, _, lam = scheme.partition("-")
    a = assign(strata, SchemeSpec(kind, bcd_lambda=float(lam or 0.75)), np.random.default_rng(8))
    assert a.dtype == np.int64
    want = PINNED_SBR_STR if (kind, labels) == ("sbr", "str") else PINNED_ASSIGNMENTS[scheme]
    assert hashlib.sha256(a.tobytes()).hexdigest() == want
