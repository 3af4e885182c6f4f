import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gtimm import Dataset, NumericalError
from gtimm.mixedmodel import (
    GtimmModel,
    blup,
    get_family,
    fixed_part_eta,
    quasi_loglik,
    quasi_score,
    region_score_sums,
    update_variance_components,
)
from gtimm.tree import RegionAssignment, RegressionTree, TreeNode

from conftest import kernel_gradient

TWO_LEAF_TREE = RegressionTree(
    (
        TreeNode(feature=1, threshold=0.0, left=1, right=2, n=0),
        TreeNode(region=1, n=0),
        TreeNode(region=2, n=0),
    ),
    2,
)
ONE_LEAF_TREE = RegressionTree((TreeNode(region=1, n=0),), 1)


def random_instance(fam_name, seed, n=20, p=3, q=4, m=2):
    """Random small model+data pair with responses valid for the family."""
    rng = np.random.default_rng(seed)
    fam = get_family(fam_name)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1)) * 0.6])
    g = rng.integers(1, q + 1, n)
    beta = rng.normal(size=(p, m)) * 0.4
    b_hat = rng.normal(size=q) * 0.2
    tree = TWO_LEAF_TREE if m == 2 else ONE_LEAF_TREE
    region = tree.route(X)
    eta = np.einsum("ij,ji->i", X, beta[:, region - 1]) + b_hat[g - 1]
    mu = fam.inverse(eta)
    if fam_name == "gaussian":
        y = mu + rng.normal(size=n) * 0.5
    elif fam_name == "poisson":
        y = rng.poisson(mu).astype(float)
    else:
        y = rng.binomial(1, mu).astype(float)
    d = Dataset(y, X, g, q=q)
    model = GtimmModel(beta, b_hat, 0.7, 1.1, tree, fam_name)
    assign = RegionAssignment(region, np.bincount(region, minlength=m + 1)[1:])
    return model, d, assign


# ---------------------------------------------------------------------------
# quasi-likelihood values
# ---------------------------------------------------------------------------

def test_gaussian_zero_residuals_zero_loglik():
    n = 10
    X = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
    beta = np.array([[1.0], [2.0]])
    y = X @ beta[:, 0]
    d = Dataset(y, X, np.ones(n, dtype=int))
    model = GtimmModel(beta, np.zeros(1), 1.0, 1.0, ONE_LEAF_TREE)
    r = RegionAssignment(np.ones(n, dtype=int), np.array([n]))
    assert quasi_loglik(model, d, r) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_single_observation_residual_two():
    X = np.array([[1.0]])
    d = Dataset(np.array([2.0]), X, np.ones(1, dtype=int))
    model = GtimmModel(np.array([[0.0]]), np.zeros(1), 1.0, 1.0, ONE_LEAF_TREE)
    r = RegionAssignment(np.array([1]), np.array([1]))
    assert quasi_loglik(model, d, r) == pytest.approx(-2.0)


@pytest.mark.parametrize("fam_name", ["gaussian", "poisson", "bernoulli"])
def test_quasi_integral_matches_quadrature(fam_name):
    """The closed forms must agree with numerical quadrature of the
    defining integral of (y - u) / v(u)."""
    fam = get_family(fam_name)
    rng = np.random.default_rng(8)
    for _ in range(20):
        if fam_name == "gaussian":
            y, mu = rng.normal(size=2) * 3
        elif fam_name == "poisson":
            y = float(rng.integers(0, 8))
            mu = float(rng.uniform(0.2, 6.0))
        else:
            y = float(rng.integers(0, 2))
            mu = float(rng.uniform(0.05, 0.95))
        closed = float(fam.quasi_integral(np.array([y]), np.array([mu]))[0])
        lo = y if fam_name != "poisson" or y > 0 else 1e-12
        numeric, _ = quad(lambda u: (y - u) / fam.variance(np.array([u]))[0], lo, mu,
                          points=None, limit=200)
        assert closed == pytest.approx(numeric, abs=1e-8)


def test_penalty_undefined_when_sigma_b2_zero_with_nonzero_b():
    model = GtimmModel(np.zeros((1, 1)), np.array([0.5]), 0.0, 1.0, ONE_LEAF_TREE)
    d = Dataset(np.array([1.0]), np.array([[1.0]]), np.ones(1, dtype=int))
    r = RegionAssignment(np.array([1]), np.array([1]))
    with pytest.raises(NumericalError, match="penalty"):
        quasi_loglik(model, d, r)


def test_gaussian_identity_exact_form():
    model, d, r = random_instance("gaussian", seed=77)
    resid = d.y - fixed_part_eta(model.beta_star, d.X, r.region) - d.Z @ model.b_hat
    expected = -0.5 * float(resid @ resid)
    expected -= 0.5 * float(model.b_hat @ model.b_hat) / model.sigma_b2
    assert quasi_loglik(model, d, r) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_zero_at_zero_residuals():
    n = 12
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    beta = np.array([[0.5], [1.5]])
    d = Dataset(X @ beta[:, 0], X, np.ones(n, dtype=int))
    model = GtimmModel(beta, np.zeros(1), 1.0, 1.0, ONE_LEAF_TREE)
    r = RegionAssignment(np.ones(n, dtype=int), np.array([n]))
    grad = kernel_gradient(model, d, r)
    assert np.max(np.abs(grad)) < 1e-12


def test_gradient_single_gaussian_observation():
    X = np.array([[1.0, 3.0, -2.0]])
    d = Dataset(np.array([4.0]), X, np.ones(1, dtype=int))
    model = GtimmModel(np.zeros((3, 1)), np.zeros(1), 1.0, 1.0, ONE_LEAF_TREE)
    r = RegionAssignment(np.array([1]), np.array([1]))
    grad = kernel_gradient(model, d, r)
    assert np.allclose(grad[:, 0], 4.0 * X[0])  # residual r times x


def test_gradient_empty_batch_is_zero():
    model, d, r = random_instance("gaussian", seed=5)
    rows = np.where(r.region == 2)[0]
    score = quasi_score(get_family("gaussian"), d.y[rows], np.zeros(rows.size))
    sums, counts = region_score_sums(d.X[rows], score, r.region[rows], 2)
    assert np.array_equal(sums[:, 0], np.zeros(d.p))
    assert counts.tolist() == [0, rows.size]


def test_score_is_zero_where_the_fit_is_saturated():
    # mu = h(eta) rounds to the response, so v(mu) = 0: the canonical-link
    # score y - mu is exactly 0 there, where (y - mu) / (v(mu) g'(mu)) is 0/0
    for fam_name, y, eta in (("bernoulli", 1.0, 40.0), ("poisson", 0.0, -800.0)):
        score = quasi_score(get_family(fam_name), np.array([y, y]), np.array([eta, 0.0]))
        assert score[0] == 0.0
        assert score[1] == y - get_family(fam_name).inverse(0.0)


@pytest.mark.parametrize("m", [1, 4])
def test_fixed_part_eta_matches_row_loop(m):
    """x_i' beta^(m_i), row by row, bit for bit.  On quarter-integer data every
    product and sum is exact, so any summation order gives the loop's value;
    on real-valued data each row takes exactly its entry of X @ beta_star.
    With four regions, region 3 has no rows."""
    rng = np.random.default_rng(21)
    n, p = 300, 4
    region = rng.choice([1, 2, 4], size=n) if m == 4 else np.ones(n, dtype=int)
    quarters = (rng.integers(-8, 9, size=(n, p)) / 4, rng.integers(-8, 9, size=(p, m)) / 4)
    reals = (rng.normal(size=(n, p)), rng.normal(size=(p, m)))
    X, beta = quarters
    rows = [X[i] @ beta[:, region[i] - 1] for i in range(n)]
    assert np.array_equal(fixed_part_eta(beta, X, region), rows)
    for X, beta in (quarters, reals):
        product = X @ beta
        rows = [product[i, region[i] - 1] for i in range(n)]
        assert np.array_equal(fixed_part_eta(beta, X, region), rows)


def test_kernels_match_per_region_products():
    # the scatter-add sums and the N x M eta gather against one product per
    # region; region 3 of 4 has no rows
    rng = np.random.default_rng(8)
    n, p = 5000, 3
    X = np.column_stack([np.ones(n), rng.normal(3.0, 2.0, size=(n, p - 1))])
    region = rng.choice([1, 2, 4], size=n)
    s = rng.normal(size=n)
    beta = rng.normal(size=(p, 4))
    sums, counts = region_score_sums(X, s, region, 4)
    eta = fixed_part_eta(beta, X, region)
    for k in range(4):
        rows = region == k + 1
        assert counts[k] == rows.sum()
        assert np.allclose(sums[:, k], X[rows].T @ s[rows], rtol=1e-12, atol=0.0)
        assert np.allclose(eta[rows], X[rows] @ beta[:, k], rtol=1e-12, atol=1e-12)
    assert np.array_equal(sums[:, 2], np.zeros(p))


@pytest.mark.parametrize("fam_name", ["gaussian", "poisson", "bernoulli"])
def test_gradient_matches_finite_differences(fam_name):
    for seed in range(10):
        model, d, r = random_instance(fam_name, seed=seed)
        grads = kernel_gradient(model, d, r)
        for region in (1, 2):
            grad = grads[:, region - 1]
            fd = np.zeros(d.p)
            for j in range(d.p):
                h = 1e-5 * (1.0 + abs(model.beta_star[j, region - 1]))
                bp = model.beta_star.copy()
                bp[j, region - 1] += h
                bm = model.beta_star.copy()
                bm[j, region - 1] -= h
                up = GtimmModel(bp, model.b_hat, model.sigma_b2, model.sigma_eps2,
                                model.tree, fam_name)
                dn = GtimmModel(bm, model.b_hat, model.sigma_b2, model.sigma_eps2,
                                model.tree, fam_name)
                fd[j] = (quasi_loglik(up, d, r) - quasi_loglik(dn, d, r)) / (2 * h)
            rel = np.max(np.abs(fd - grad)) / max(1e-8, np.max(np.abs(grad)))
            assert rel < 1e-5


# ---------------------------------------------------------------------------
# BLUP
# ---------------------------------------------------------------------------

def lmm_data(seed, n=120, q=5, sigma_b=1.0, sigma_e=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
    beta = rng.normal(size=3)
    b = rng.normal(0, sigma_b, q)
    y = X @ beta + b[g - 1] + rng.normal(0, sigma_e, n)
    return Dataset(y, X, g), beta


def test_blup_zero_for_exact_fit():
    d, beta = lmm_data(seed=0, sigma_b=0.0, sigma_e=1.0)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    exact = Dataset(d.X @ beta, d.X, d.group_label)
    out = blup(beta[:, None], exact, r, 1.0, 1.0)
    assert np.max(np.abs(out)) < 1e-12


def test_blup_zero_when_sigma_b2_zero():
    d, beta = lmm_data(seed=1)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    assert np.array_equal(blup(beta[:, None], d, r, 0.0, 1.0), np.zeros(d.q))


def test_blup_matches_onehot_shrinkage_closed_form():
    for seed in range(10):
        d, beta = lmm_data(seed=seed)
        r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
        rng = np.random.default_rng(seed + 1000)
        sb2, se2 = float(rng.uniform(0.1, 3)), float(rng.uniform(0.2, 2))
        out = blup(beta[:, None], d, r, sb2, se2)
        resid = d.y - d.X @ beta
        for g in range(1, d.q + 1):
            rows = d.group_label == g
            n_g = int(rows.sum())
            expected = (n_g * sb2) / (se2 + n_g * sb2) * resid[rows].mean()
            assert out[g - 1] == pytest.approx(expected, abs=1e-10)


def test_blup_approaches_group_means_as_sigma_b2_grows():
    d, beta = lmm_data(seed=4)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    resid = d.y - d.X @ beta
    group_means = np.array([resid[d.group_label == g].mean() for g in range(1, d.q + 1)])
    gaps = []
    for sb2 in (1.0, 10.0, 100.0, 1000.0):
        out = blup(beta[:, None], d, r, sb2, 1.0)
        gaps.append(np.max(np.abs(out - group_means)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))  # monotone approach
    assert gaps[-1] < 1e-2


@given(c=st.floats(-100, 100, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_blup_linear_in_residuals(c):
    d, beta = lmm_data(seed=9)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    base = blup(beta[:, None], d, r, 0.8, 1.2)
    scaled = Dataset(d.X @ beta + c * (d.y - d.X @ beta), d.X, d.group_label)
    out = blup(beta[:, None], scaled, r, 0.8, 1.2)
    assert np.allclose(out, c * base, atol=1e-9 * (1 + abs(c)))


def test_blup_maximizes_joint_loglik():
    d, beta = lmm_data(seed=6)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    sb2, se2 = 0.9, 1.3
    b_hat = blup(beta[:, None], d, r, sb2, se2)

    def joint(b):
        resid = d.y - d.X @ beta - d.Z @ b
        return -0.5 * float(resid @ resid) / se2 - 0.5 * float(b @ b) / sb2

    at_opt = joint(b_hat)
    rng = np.random.default_rng(7)
    for _ in range(25):
        delta = rng.normal(size=d.q)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert joint(b_hat + delta) <= at_opt


# ---------------------------------------------------------------------------
# variance components
# ---------------------------------------------------------------------------

def test_variance_update_degenerate_floors():
    d, beta = lmm_data(seed=2)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    exact = Dataset(d.X @ beta, d.X, d.group_label)
    sb2, se2 = update_variance_components(exact, r, beta[:, None], np.zeros(d.q),
                                          1.0, 1.0)
    assert sb2 == 0.0
    assert se2 == pytest.approx(1e-8)


def test_variance_update_dof_error():
    d, beta = lmm_data(seed=3, n=120)
    r = RegionAssignment(np.ones(d.n, dtype=int), np.array([d.n]))
    wide_beta = np.tile(beta[:, None], (1, 40))  # p*M = 120 >= N
    with pytest.raises(NumericalError, match="N=120"):
        update_variance_components(d, r, wide_beta, np.zeros(d.q), 1.0, 1.0)


def _iterate_truth_updates(d, truth, iters=40):
    """BLUP/variance fixed point holding the true fixed part."""
    r = RegionAssignment(truth.region_true, np.bincount(truth.region_true)[1:])
    sb2, se2 = 1.0, 1.0
    b_hat = np.zeros(d.q)
    for _ in range(iters):
        b_hat = blup(truth.beta_star_true, d, r, sb2, se2)
        sb2, se2 = update_variance_components(d, r, truth.beta_star_true, b_hat,
                                              sb2, se2)
    return sb2, se2


def test_variance_recovery_on_cluster_generator():
    from gtimm import simulate_gtimm

    estimates = []
    for seed in range(20):
        d, truth = simulate_gtimm(2000, seed=seed, sigma_b2=2.0, sigma_eps2=1.0)
        estimates.append(_iterate_truth_updates(d, truth))
    sb2_med = float(np.median([e[0] for e in estimates]))
    se2_med = float(np.median([e[1] for e in estimates]))
    assert 2.0 * 0.7 <= sb2_med <= 2.0 * 1.3
    assert 1.0 * 0.7 <= se2_med <= 1.0 * 1.3


def test_variance_update_scale_equivariance():
    from gtimm import simulate_gtimm

    ratios = []
    for seed in range(8):
        d1, t1 = simulate_gtimm(2000, seed=seed, sigma_b2=1.0, sigma_eps2=1.0)
        d4, t4 = simulate_gtimm(2000, seed=seed, sigma_b2=1.0, sigma_eps2=4.0)
        _, se2_1 = _iterate_truth_updates(d1, t1)
        _, se2_4 = _iterate_truth_updates(d4, t4)
        ratios.append(se2_4 / se2_1)
    assert np.median(ratios) == pytest.approx(4.0, rel=0.15)
