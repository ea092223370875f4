import numpy as np
import pytest

from carqte import DataValidationError, SchemeSpec, assign
from carqte.randomization import (
    assign_bcd,
    assign_sbr,
    assign_srs,
    assign_wei,
    bcd_probability,
    default_phi,
    wei_probability,
)


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
    a = assign_srs(strata, SchemeSpec("srs"), np.random.default_rng(1))
    se = np.sqrt(0.25 / n)
    assert abs(a.mean() - 0.5) < 3 * se


def test_srs_per_stratum_targets():
    n = 40_000
    rng = np.random.default_rng(2)
    strata = rng.integers(1, 3, n)
    spec = SchemeSpec("srs", pi={1: 0.3, 2: 0.7})
    a = assign_srs(strata, spec, rng)
    for lab, target in ((1, 0.3), (2, 0.7)):
        mask = strata == lab
        se = np.sqrt(target * (1 - target) / mask.sum())
        assert abs(a[mask].mean() - target) < 4 * se


def test_wei_first_unit_probability_is_half():
    assert wei_probability(0.0, 0, default_phi) == 0.5  # 0/0 ratio treated as zero


def test_wei_all_treated_history_forces_control():
    # ratio 1 under the default allocation function: next treated w.p. 0
    assert wei_probability(5.0, 10, default_phi) == 0.0


def test_wei_phi_symmetry_on_sampled_points():
    for x in np.linspace(0, 1, 11):
        assert default_phi(-x) == pytest.approx(1 - default_phi(x))


def test_wei_imbalance_shrinks():
    spec = SchemeSpec("wei")
    rng = np.random.default_rng(11)
    ratios = []
    for seed in range(10):
        strata = np.random.default_rng(100 + seed).integers(0, 2, 2000)
        a = assign_wei(strata, spec, np.random.default_rng(seed))
        for stratum in (0, 1):
            mask = strata == stratum
            ratios.append(abs(_imbalance(a, strata, stratum)) / mask.sum())
    assert np.mean(ratios) < 0.1


def test_bcd_probability_cases():
    assert bcd_probability(0.0, 0.75) == 0.5
    assert bcd_probability(-1.0, 0.75) == 0.75  # one excess control -> push to treat
    assert bcd_probability(2.0, 0.75) == 0.25


def test_bcd_lambda_one_alternates_to_balance():
    spec = SchemeSpec("bcd", bcd_lambda=1.0)
    strata = np.zeros(1000, dtype=int)
    a = assign_bcd(strata, spec, np.random.default_rng(3))
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
    a = assign_sbr(strata, spec, np.random.default_rng(9))
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
        a = assign_sbr(strata, SchemeSpec("sbr", pi=pi), rng)
        for stratum in np.unique(strata):
            mask = strata == stratum
            assert a[mask].sum() == int(np.floor(pi * mask.sum()))
            assert abs(np.sum(a[mask] - pi)) < 1.0


@pytest.mark.parametrize("pi", [1.5, 0.0, 1.0, float("nan"), float("-inf"),
                                {1: 0.3, 2: 1.0}, {1: float("nan")}])
def test_target_outside_unit_interval_rejected_at_construction(pi):
    with pytest.raises(DataValidationError, match=r"strictly inside \(0, 1\)"):
        SchemeSpec("srs", pi=pi)


def test_unknown_scheme_rejected():
    with pytest.raises(DataValidationError):
        SchemeSpec("pocock")


def test_wei_rejects_invalid_allocation_function():
    with pytest.raises(DataValidationError):
        SchemeSpec("wei", phi=lambda x: (1 + x) / 2)  # increasing
    with pytest.raises(DataValidationError):
        SchemeSpec("wei", phi=lambda x: 0.4 - x / 4)  # asymmetric
    SchemeSpec("wei", phi=lambda x: (1 - x**3) / 2)  # valid alternative
