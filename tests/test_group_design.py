"""Group labels as the random-effect design.

A Dataset does its random-effect algebra on its labels: per-group sums for
Z' r, a lookup for Z b, and an elementwise BLUP.  The reference here is the
same algebra on the dense one-hot Z (``conftest.dense_*``): the q x q BLUP
solve, the moment update with n_g counted from Z's columns, and the
quasi-likelihood with Z @ b.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtimm.data
from gtimm import Dataset, FitConfig, fit_gtimm, fit_lmm, simulate_gtimm
from gtimm.data import one_hot
from gtimm.mixedmodel import (
    GtimmModel,
    blup,
    get_family,
    quasi_loglik,
    update_variance_components,
)
from gtimm.tree import RegionAssignment, assign_regions, fit_tree

from conftest import dense_blup, dense_quasi_loglik, dense_variance_update


def assert_close(a, b, rtol):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(b)), 1e-300)


def random_instance(fam_name, seed, n, q):
    """A Dataset over q groups with responses valid for the family; groups
    q-1 and q (and possibly others) hold no row."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2)) * 0.6])
    g = rng.integers(1, q - 1, n)
    beta = rng.normal(size=(3, 2)) * 0.4
    b = rng.normal(size=q) * 0.3
    region = np.where(X[:, 1] <= 0.0, 1, 2)
    mu = get_family(fam_name).inverse(np.einsum("ij,ji->i", X, beta[:, region - 1]) + b[g - 1])
    if fam_name == "gaussian":
        y = mu + rng.normal(size=n) * 0.5
    elif fam_name == "poisson":
        y = rng.poisson(mu).astype(float)
    else:
        y = rng.binomial(1, mu).astype(float)
    r = RegionAssignment(region, np.bincount(region, minlength=3)[1:])
    return Dataset(y, X, g, q=q), beta, b, r


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9),
       family=st.sampled_from(["gaussian", "poisson", "bernoulli"]))
@settings(max_examples=40, deadline=None)
def test_blup_grouped_matches_dense(seed, n, q, family):
    d, beta, _, r = random_instance(family, seed, n, q)
    out = blup(beta, d, r, 0.7, 1.3, family)
    assert_close(out, dense_blup(beta, d, r, 0.7, 1.3, family), 1e-12)
    assert out[-1] == 0.0 and out[-2] == 0.0  # empty groups shrink to zero


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9))
@settings(max_examples=40, deadline=None)
def test_variance_update_grouped_matches_dense(seed, n, q):
    d, beta, b, r = random_instance("gaussian", seed, n, q)
    got = update_variance_components(d, r, beta, b, 0.7, 1.3)
    want = dense_variance_update(d, r, beta, b, 0.7, 1.3)
    assert_close(np.array(got), np.array(want), 1e-12)
    assert np.array_equal(d.group_sizes, (one_hot(d.group_label, q) != 0).sum(axis=0))


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9),
       family=st.sampled_from(["gaussian", "poisson", "bernoulli"]))
@settings(max_examples=40, deadline=None)
def test_quasi_loglik_grouped_matches_dense(seed, n, q, family):
    d, beta, b, _ = random_instance(family, seed, n, q)
    tree = fit_tree(d, 3, min_leaf=2)
    r = assign_regions(tree, d.X)
    model = GtimmModel(beta[:, :1].repeat(tree.leaf_count, axis=1), b, 0.7, 1.3, tree, family)
    assert_close(quasi_loglik(model, d, r), dense_quasi_loglik(model, d, r), 1e-12)


@pytest.fixture(scope="module")
def sparse_groups():
    """400 rows of the four-cluster design over 12 groups, of which the
    last two hold no row."""
    d, _ = simulate_gtimm(400, seed=7, n_groups=10)
    return Dataset(d.y, d.X, d.group_label, q=12)


def test_fits_keep_empty_groups(sparse_groups):
    d = sparse_groups
    model = fit_gtimm(d, FitConfig(max_leaves=4, seed=3))
    lmm = fit_lmm(d)
    for b in (model.b_hat, lmm.b_tilde):
        assert b.shape == (12,)
        assert np.all(b[:10] != 0.0)
        # an empty group's BLUP is zero, and the ridge move shifts every
        # group by the same small mean: the empty groups stay equal and near 0
        assert b[10] == b[11]
        assert abs(b[10]) < 1e-4 * np.abs(b[:10]).max()


def test_fitting_never_builds_dense_z(monkeypatch):
    d, _ = simulate_gtimm(400, seed=1, n_groups=10)

    def no_dense(*args):
        raise AssertionError("a dense one-hot Z was built")

    monkeypatch.setattr(gtimm.data, "one_hot", no_dense)
    model = fit_gtimm(d, FitConfig(max_leaves="cv", cv_candidates=(1, 2, 4), seed=0))
    fit_lmm(d)
    assert model.selected_leaves in (1, 2, 4)
    assert "Z" not in vars(d)


def test_take_keeps_q_when_the_last_group_empties():
    g = np.array([1, 2, 3, 4, 1, 2, 3, 4, 2])
    X = np.column_stack([np.ones(g.size), np.arange(g.size, dtype=float)])
    d = Dataset(np.arange(g.size, dtype=float), X, g)
    sub = d.take(np.flatnonzero(g != 4))
    assert sub.q == 4
    assert sub.group_sizes.tolist() == [2, 3, 2, 0]
    assert np.array_equal(sub.Z, one_hot(sub.group_label, 4))
    assert sub.Z.shape == (7, 4) and not sub.Z[:, 3].any()
    assert sub.Z is sub.Z  # built once, then kept
