import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtimm import (
    Dataset,
    FitConfig,
    GapCurve,
    NumericalError,
    benchmark,
    crosstab_regions,
    gap_experiment,
    mspe,
)
from gtimm.tree import RegionAssignment

import gtimm.evaluate as ev

from conftest import match_regions, region_mismatches


def test_mspe_identical_is_zero():
    v = np.arange(5.0)
    assert mspe(v, v) == 0.0


def test_mspe_hand_computed():
    assert mspe(np.zeros(2), np.array([1.0, 3.0])) == pytest.approx(5.0)


def test_mspe_matches_fsum_accumulation(rng):
    y = rng.normal(size=500) * 1e6
    p = y + rng.normal(size=500)
    alt = math.fsum((a - b) ** 2 for a, b in zip(y, p)) / y.size
    assert mspe(y, p) == pytest.approx(alt, abs=1e-12 * max(1.0, alt))


def test_mspe_length_mismatch():
    with pytest.raises(ValueError):
        mspe(np.zeros(3), np.zeros(4))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mspe_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=40)
    p = rng.normal(size=40)
    perm = rng.permutation(40)
    assert mspe(y, p) == pytest.approx(mspe(y[perm], p[perm]), rel=1e-12)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _flat_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    g = np.concatenate([np.arange(1, 5), rng.integers(1, 5, n - 4)])
    y = X @ np.array([0.5, 0.05, -0.03])  # nearly flat, exactly linear, no noise
    return Dataset(y, X, g)


def test_benchmark_noiseless_single_region():
    d = _flat_dataset()
    cfg = FitConfig(max_leaves=1, max_epochs=30, seed=0)
    report = benchmark(d, cfg, 0.8, seed=0)
    assert all(v < 0.1 for v in report.mspe.values())
    assert report.mspe["gtimm"] < 1e-4
    assert report.mspe["lmm"] < 1e-4


def test_benchmark_deterministic(sim2000):
    d, _ = sim2000
    cfg = FitConfig(max_leaves=4, max_epochs=15, seed=5)
    r1 = benchmark(d, cfg, 0.8, seed=5)
    r2 = benchmark(d, cfg, 0.8, seed=5)
    assert r1.mspe == r2.mspe
    assert r1.n_train == r2.n_train


def test_benchmark_tiny_test_set_still_finite():
    d = _flat_dataset(n=1000, seed=3)
    cfg = FitConfig(max_leaves=1, max_epochs=5, seed=0)
    report = benchmark(d, cfg, 0.999, seed=0)
    assert all(np.isfinite(v) and v >= 0 for v in report.mspe.values())
    assert report.n_test >= 1


# ---------------------------------------------------------------------------
# gap experiment
# ---------------------------------------------------------------------------

def test_gap_validates_arguments():
    with pytest.raises(ValueError):
        gap_experiment([500, 1001], 4, 5, seed=0)  # not divisible by 4
    with pytest.raises(ValueError):
        gap_experiment([500], 4, 3, seed=0)  # too few replications
    with pytest.raises(ValueError):
        gap_experiment([], 4, 5, seed=0)


def test_gap_rejects_empty_sizes():
    """A training size below 4 or an empty test set fails before any fit."""
    for n_grid, test_n in (([0], 400), ([0, 400], 400), ([400], 0), ([400], -5)):
        with pytest.raises(ValueError, match="N must be|test_n"):
            gap_experiment(n_grid, 4, 5, seed=0, test_n=test_n)


def test_gap_smoke_decay():
    curve = gap_experiment([400, 3200], 4, 5, seed=1, test_n=800)
    assert curve.n_values == (400, 3200)
    assert curve.gap_mean[1] < curve.gap_mean[0]
    assert all(g >= 0 for g in curve.gap_mean)


def test_gap_failure_budget(monkeypatch):
    calls = {"n": 0}

    def flaky(n, m, rep, seed, test_n):
        calls["n"] += 1
        raise NumericalError("boom")

    monkeypatch.setattr(ev, "_gap_cell", flaky)
    with pytest.raises(NumericalError, match="failed"):
        gap_experiment([400], 4, 5, seed=0, test_n=400)


def test_gap_curve_validation():
    with pytest.raises(ValueError):
        GapCurve((500, 400), 4, (0.1, 0.2), (0.0, 0.0))
    with pytest.raises(ValueError):
        GapCurve((400, 800), 4, (-0.1, 0.2), (0.0, 0.0))


# ---------------------------------------------------------------------------
# crosstab and region matching
# ---------------------------------------------------------------------------

def test_crosstab_single_region_equals_group_counts():
    groups = np.array([1, 2, 2, 3, 3, 3])
    assign = RegionAssignment(np.ones(6, dtype=int), np.array([6]))
    out = crosstab_regions(assign, groups)
    assert out.tolist() == [[1, 2, 3]]


def test_crosstab_total_is_n(rng):
    region = rng.integers(1, 5, 200)
    counts = np.bincount(region, minlength=5)[1:]
    assign = RegionAssignment(region, counts)
    groups = rng.integers(1, 7, 200)
    out = crosstab_regions(assign, groups)
    assert out.sum() == 200
    assert out.shape == (4, 6)


def test_crosstab_matches_dict_tally(rng):
    region = rng.integers(1, 4, 150)
    assign = RegionAssignment(region, np.bincount(region, minlength=4)[1:])
    groups = rng.integers(1, 5, 150)
    out = crosstab_regions(assign, groups)
    tally = {}
    for r, g in zip(region, groups):
        tally[(r, g)] = tally.get((r, g), 0) + 1
    for (r, g), count in tally.items():
        assert out[r - 1, g - 1] == count


def test_match_regions_recovers_permutation(rng):
    true = rng.integers(1, 5, 400)
    perm = np.array([3, 1, 4, 2])
    pred = perm[true - 1]
    mapping = match_regions(pred, true)
    assert region_mismatches(pred, true) == 0
    noisy = pred.copy()
    noisy[:13] = ((noisy[:13]) % 4) + 1
    assert 0 < region_mismatches(noisy, true) <= 13
    assert mapping.shape == (4,)
