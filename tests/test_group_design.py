"""Group labels as the random-effect design.

A grouped Dataset does its random-effect algebra on its labels; a Dataset
given only an explicit ``Z`` (the ``--z-cols`` path) does it on the dense
matrix.  The dense path is the reference here: the same one-hot design,
given once as labels and once as a plain ``Z``, must give the same BLUP,
variance components, quasi-likelihood and fits.
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


def twin_designs(y, X, g, q):
    """The one-hot design of labels ``g`` over q groups, as labels and as a
    plain Z without labels."""
    return Dataset(y, X, None, g, q=q), Dataset(y, X, one_hot(g, q))


def assert_close(a, b, rtol):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(b)), 1e-300)


def random_twins(fam_name, seed, n, q):
    """Twin designs with responses valid for the family; groups q-1 and q
    (and possibly others) hold no row."""
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
    return twin_designs(y, X, g, q), beta, b, r


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9),
       family=st.sampled_from(["gaussian", "poisson", "bernoulli"]))
@settings(max_examples=40, deadline=None)
def test_blup_grouped_matches_dense(seed, n, q, family):
    (grouped, dense), beta, _, r = random_twins(family, seed, n, q)
    out = blup(beta, grouped, r, 0.7, 1.3, family)
    assert_close(out, blup(beta, dense, r, 0.7, 1.3, family), 1e-12)
    assert out[-1] == 0.0 and out[-2] == 0.0  # empty groups shrink to zero


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9))
@settings(max_examples=40, deadline=None)
def test_variance_update_grouped_matches_dense(seed, n, q):
    (grouped, dense), beta, b, r = random_twins("gaussian", seed, n, q)
    got = update_variance_components(grouped, r, beta, b, 0.7, 1.3)
    want = update_variance_components(dense, r, beta, b, 0.7, 1.3)
    assert_close(np.array(got), np.array(want), 1e-12)
    assert np.array_equal(grouped.group_sizes, dense.group_sizes)


@given(seed=st.integers(0, 10_000), n=st.integers(8, 80), q=st.integers(3, 9),
       family=st.sampled_from(["gaussian", "poisson", "bernoulli"]))
@settings(max_examples=40, deadline=None)
def test_quasi_loglik_grouped_matches_dense(seed, n, q, family):
    (grouped, dense), beta, b, _ = random_twins(family, seed, n, q)
    tree = fit_tree(grouped, 3, min_leaf=2)
    r = assign_regions(tree, grouped.X)
    model = GtimmModel(beta[:, :1].repeat(tree.leaf_count, axis=1), b, 0.7, 1.3, tree, family)
    assert_close(quasi_loglik(model, grouped, r), quasi_loglik(model, dense, r), 1e-12)


@pytest.fixture(scope="module")
def sparse_groups():
    """400 rows of the four-cluster design over 12 groups, of which the
    last two hold no row."""
    d, _ = simulate_gtimm(400, seed=7, n_groups=10)
    return twin_designs(d.y, d.X, d.group_label, 12)


def test_fits_grouped_match_dense(sparse_groups):
    grouped, dense = sparse_groups
    cfg = FitConfig(max_leaves=4, seed=3)
    a, b = fit_gtimm(grouped, cfg), fit_gtimm(dense, cfg)
    assert len(a.history) == len(b.history)
    assert_close(a.beta_star, b.beta_star, 1e-10)
    assert_close(a.b_hat, b.b_hat, 1e-10)
    assert_close(np.array([a.sigma_b2, a.sigma_eps2]), np.array([b.sigma_b2, b.sigma_eps2]),
                 1e-10)
    la, lb = fit_lmm(grouped), fit_lmm(dense)
    assert_close(la.beta, lb.beta, 1e-10)
    assert_close(la.b_tilde, lb.b_tilde, 1e-10)
    assert_close(np.array([la.sigma_b2, la.sigma_eps2]),
                 np.array([lb.sigma_b2, lb.sigma_eps2]), 1e-10)


def test_fitting_never_builds_dense_z(monkeypatch):
    d, _ = simulate_gtimm(400, seed=1, n_groups=10)

    def no_dense(*args):
        raise AssertionError("a dense one-hot Z was built")

    monkeypatch.setattr(gtimm.data, "one_hot", no_dense)
    model = fit_gtimm(d, FitConfig(max_leaves="cv", cv_candidates=(1, 2, 4), seed=0))
    fit_lmm(d)
    assert model.selected_leaves in (1, 2, 4)
    assert "Z" not in vars(d) and "ZtZ" not in vars(d)


def test_take_keeps_q_when_the_last_group_empties():
    g = np.array([1, 2, 3, 4, 1, 2, 3, 4, 2])
    X = np.column_stack([np.ones(g.size), np.arange(g.size, dtype=float)])
    d = Dataset(np.arange(g.size, dtype=float), X, one_hot(g, 4), g)
    sub = d.take(np.flatnonzero(g != 4))
    assert sub.q == 4
    assert sub.group_sizes.tolist() == [2, 3, 2, 0]
    assert np.array_equal(sub.Z, one_hot(sub.group_label, 4))
    assert sub.Z.shape == (7, 4) and not sub.Z[:, 3].any()
    assert sub.Z is sub.Z  # built once, then kept
