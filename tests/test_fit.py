import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtimm import (
    DataError,
    Dataset,
    FitConfig,
    IllPosedRegionError,
    NumericalError,
    fit_gtimm,
    predict,
    quasi_loglik,
    simulate_gtimm,
)
from gtimm.fit import (
    PATIENCE,
    SgdState,
    _affine_pass,
    _batch_pass,
    _epoch_start,
    _random_term,
    _region_ols,
    region_preconditioners,
    sgd_epoch,
)
from gtimm.mixedmodel import (
    GtimmModel,
    blup,
    fixed_part_eta,
    get_family,
    quasi_score,
    region_score_sums,
    update_variance_components,
)
from gtimm.tree import RegionAssignment, assign_regions, fit_tree

from conftest import match_regions, ols_solve, recovery_deviations


def single_region_data(n=120, seed=0, noise=0.0, q=3):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    beta = np.array([1.0, 2.0, -0.5])
    g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
    y = X @ beta + noise * rng.normal(size=n)
    return Dataset(y, X, g), beta


def test_noiseless_single_region_recovers_ols():
    d, beta = single_region_data()
    model = fit_gtimm(d, FitConfig(max_leaves=1, max_epochs=50, seed=0))
    assert np.max(np.abs(model.beta_star[:, 0] - beta)) < 1e-3
    assert np.max(np.abs(model.b_hat)) < 1e-3


def test_fixed_seed_cluster_recovery_matches_reported_accuracy():
    # one representative draw, judged as in the acceptance suite: within 0.25
    # of the truth in the identified coordinates and of the exact optimum of
    # the fit's own objective in the raw coefficients; the fit must also have
    # stalled, at the ridge point the penalty picks (group effects averaging 0)
    d, truth = simulate_gtimm(2000, seed=104)
    model = fit_gtimm(d, FitConfig(max_leaves=4, seed=104, max_epochs=150))
    dev_truth, dev_optimum = recovery_deviations(model, d, truth)
    assert dev_truth <= 0.25
    assert dev_optimum <= 0.25
    assert len(model.history) - 1 < 150
    assert abs(model.b_hat.mean()) < 1e-12


def test_zero_epochs_returns_initializer():
    d, _ = single_region_data(noise=0.5)
    model = fit_gtimm(d, FitConfig(max_leaves=1, max_epochs=0, seed=0))
    expected = ols_solve(d.X, d.y)
    assert np.allclose(model.beta_star[:, 0], expected, atol=1e-12)
    assert np.array_equal(model.b_hat, np.zeros(d.q))
    assert len(model.history) == 1


def test_returned_model_not_worse_than_initializer(sim2000):
    d, _ = sim2000
    cfg = FitConfig(max_leaves=4, max_epochs=40, seed=3)
    fitted = fit_gtimm(d, cfg)
    init = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=0, seed=3))
    r = assign_regions(fitted.tree, d.X)
    assert quasi_loglik(fitted, d, r) >= quasi_loglik(init, d, r)


def row_alternate(d, tree, r, cfg):
    """The fitting loop on the row functions alone: the region OLS start,
    then sgd_epoch, blup, the ridge move, update_variance_components and
    quasi_loglik every epoch, until the stall rule fires.  The final model
    with its quasi-likelihood history."""
    precond = region_preconditioners(d.X, r)
    beta = _region_ols(d, r, precond, d.y)
    resid0 = d.y - fixed_part_eta(beta, d.X, r.region)
    state = SgdState(beta, np.zeros(d.q), 1.0, max(float(np.var(resid0, ddof=1)), 1e-8))

    def model_at(s):
        return GtimmModel(s.beta_star, s.b_hat, s.sigma_b2, s.sigma_eps2, tree, cfg.family)

    history, stall = [quasi_loglik(model_at(state), d, r)], 0
    while len(history) <= cfg.max_epochs and stall < PATIENCE:
        state = sgd_epoch(state, d, r, cfg, precond)
        b_hat = blup(state.beta_star, d, r, state.sigma_b2, state.sigma_eps2, cfg.family)
        shift = float(b_hat.mean())
        beta = state.beta_star.copy()
        beta[0] += shift
        b_hat = b_hat - shift
        sb2, se2 = update_variance_components(d, r, beta, b_hat, state.sigma_b2,
                                              state.sigma_eps2)
        state = replace(state, beta_star=beta, b_hat=b_hat, sigma_b2=sb2, sigma_eps2=se2)
        history.append(quasi_loglik(model_at(state), d, r))
        rel = abs(history[-1] - history[-2]) / (1.0 + abs(history[-2]))
        stall = stall + 1 if rel < cfg.rel_tol else 0
    return model_at(state), history


def bernoulli_probe(seed):
    """2000 rows in 10 groups: x ~ N(0, I_2), b_g ~ N(0, 0.49) and a
    Bernoulli response at logit 0.3 + 0.1 x1 - 0.1 x2 + b_g."""
    rng = np.random.default_rng(seed)
    g = rng.integers(1, 11, 2000)
    x = rng.normal(size=(2000, 2))
    b = rng.normal(0.0, 0.7, 10)
    eta = 0.3 + 0.1 * x[:, 0] - 0.1 * x[:, 1] + b[g - 1]
    y = rng.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return Dataset(y, np.column_stack([np.ones(2000), x]), g)


@pytest.mark.parametrize("seed", range(6))
def test_bernoulli_fit_is_the_row_loop(seed):
    # a non-Gaussian fit stops by the stall rule and is, bit for bit, the
    # loop over the row functions
    d = bernoulli_probe(seed)
    cfg = FitConfig(max_leaves=1, family="bernoulli", seed=seed)
    model = fit_gtimm(d, cfg)
    assert len(model.history) - 1 < cfg.max_epochs
    assert all(np.isfinite([h.quasi_loglik, h.sigma_b2, h.sigma_eps2]).all()
               for h in model.history)
    want, history = row_alternate(d, model.tree, assign_regions(model.tree, d.X), cfg)
    assert [h.quasi_loglik for h in model.history] == history
    for got, ref in ((model.beta_star, want.beta_star), (model.b_hat, want.b_hat),
                     (np.array([model.sigma_b2, model.sigma_eps2]),
                      np.array([want.sigma_b2, want.sigma_eps2]))):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cfg", [
    FitConfig(max_leaves=4, seed=0),
    FitConfig(max_leaves=1, batch_size=2000, learning_rate=1.0),  # the LMM's exact step
])
def test_gaussian_history_ends_at_the_row_quasi_loglik(sim2000, cfg):
    # a Gaussian fit monitors the quasi-likelihood from its moments; the
    # last value is the row function's at the returned model
    d, _ = sim2000
    model = fit_gtimm(d, cfg)
    want = quasi_loglik(model, d, assign_regions(model.tree, d.X))
    assert abs(model.history[-1].quasi_loglik - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# sgd_epoch
# ---------------------------------------------------------------------------

def _state_for(d, m_leaves, seed):
    tree = fit_tree(d, m_leaves)
    r = assign_regions(tree, d.X)
    beta = np.column_stack([
        ols_solve(d.X[r.region == m], d.y[r.region == m])
        for m in range(1, tree.leaf_count + 1)
    ])
    return tree, r, SgdState(beta, np.zeros(d.q), 1.0, 1.0)


def test_region_kernels_match_per_region_loop():
    # region 3 of 4 has no rows, and x2 is constant in region 2, where the
    # least-squares solution is the minimum-norm one
    rng = np.random.default_rng(3)
    n = 600
    region = rng.choice([1, 2, 4], size=n)
    X = np.column_stack([np.ones(n), rng.normal(3.0, 2.0, size=(n, 2))])
    X[region == 2, 2] = 1.5
    r = RegionAssignment(region, np.bincount(region, minlength=5)[1:])
    d = Dataset(X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n), X,
                rng.integers(1, 4, n))
    precond = region_preconditioners(X, r)
    beta = _region_ols(d, r, precond, d.y)
    for k in (0, 1, 3):
        Xk, yk = X[region == k + 1], d.y[region == k + 1]
        expected = np.linalg.pinv(Xk.T @ Xk / len(Xk), hermitian=True)
        assert np.allclose(precond[k], expected, rtol=1e-9, atol=1e-12)
        assert np.allclose(beta[:, k], np.linalg.lstsq(Xk, yk, rcond=None)[0], rtol=1e-9)
    assert np.array_equal(precond[2], np.zeros((3, 3)))
    assert np.array_equal(beta[:, 2], np.zeros(3))


def test_sgd_epoch_zero_learning_rate_is_identity(sim2000):
    d, _ = sim2000
    _, r, state = _state_for(d, 4, seed=0)
    cfg = FitConfig(max_leaves=4, learning_rate=0.0, seed=0)
    out = sgd_epoch(state, d, r, cfg, region_preconditioners(d.X, r))
    assert np.array_equal(out.beta_star, state.beta_star)
    assert out.epoch == 1


@pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli"])
def test_sgd_epoch_full_batch_equals_manual_gradient_step(family):
    # one full batch is beta + lr P_m (sum_{i in m} x_i s_i / n_m) per region,
    # the same for any batch of at least N rows and any seed
    d, _ = single_region_data(n=60, noise=1.0, seed=4)
    fam = get_family(family)
    if family != "gaussian":
        rng = np.random.default_rng(4)
        mu = fam.inverse(0.3 * d.y)
        y = rng.poisson(mu) if family == "poisson" else rng.binomial(1, mu)
        d = Dataset(y.astype(float), d.X, d.group_label)
    _, r, _ = _state_for(d, 2, seed=0)
    assert r.n_regions == 2
    state = SgdState(np.zeros((3, 2)), np.array([0.2, -0.1, 0.3]), 1.0, 1.0)
    precond = region_preconditioners(d.X, r)
    outs = [sgd_epoch(state, d, r, FitConfig(max_leaves=2, learning_rate=0.05, batch_size=b,
                                             seed=seed, family=family), precond).beta_star
            for b in (d.n, 2 * d.n) for seed in (9, 10)]
    assert all(np.array_equal(out, outs[0]) for out in outs[1:])
    score = quasi_score(fam, d.y, d.zb(state.b_hat))  # the fixed part is 0
    sums, counts = region_score_sums(d.X, score, r.region, 2)
    for k in range(2):
        X = d.X[r.region == k + 1]
        manual = 0.05 * np.linalg.solve(X.T @ X / counts[k], sums[:, k] / counts[k])
        assert np.allclose(outs[0][:, k], manual, rtol=1e-12, atol=1e-14)


def test_sgd_trajectory_bitwise_deterministic(sim2000):
    d, _ = sim2000
    _, r, state0 = _state_for(d, 4, seed=0)
    cfg = FitConfig(max_leaves=4, seed=11)
    precond = region_preconditioners(d.X, r)
    runs = []
    for _ in range(2):
        state = state0
        traj = []
        for _ in range(5):
            state = sgd_epoch(state, d, r, cfg, precond)
            traj.append(state.beta_star.copy())
        runs.append(traj)
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def _assert_diverges(d, family):
    _, r, state = _state_for(d, 4, seed=0)
    cfg = FitConfig(max_leaves=4, learning_rate=1e6, seed=0, family=family)
    with pytest.raises(NumericalError, match="diverged"):
        sgd_epoch(state, d, r, cfg, region_preconditioners(d.X, r))


def test_sgd_divergence_raises(sim2000):
    _assert_diverges(sim2000[0], "gaussian")  # the affine pass


def test_sgd_divergence_raises_in_batch_loop(sim2000):
    d, _ = sim2000
    y = np.random.default_rng(0).poisson(np.exp(0.1 * np.clip(d.y, -20, 20)))
    _assert_diverges(Dataset(y.astype(float), d.X, d.group_label), "poisson")


@pytest.mark.parametrize("m_leaves, batch_size, grouped", [
    (4, 8, True),
    (1, 32, True),
    (4, 32, False),  # one group: Z is the all-ones column
])
def test_gaussian_affine_epoch_equals_batch_loop(m_leaves, batch_size, grouped):
    # the identity-link epoch as composed affine maps is the batch loop's
    # iterate up to rounding, over 20 chained epochs at a nonzero b_hat
    d, _ = simulate_gtimm(1004, seed=21)  # 1004 is not a multiple of either batch size
    rng = np.random.default_rng(21)
    if not grouped:
        d = Dataset(d.y, d.X, np.ones(d.n, dtype=int))
    _, r, state = _state_for(d, m_leaves, seed=0)
    assert r.n_regions == m_leaves
    state = replace(state, b_hat=rng.normal(size=d.q))
    cfg = FitConfig(max_leaves=m_leaves, batch_size=batch_size, seed=21)
    precond = region_preconditioners(d.X, r)
    beta0, missed = state.beta_star, False
    for _ in range(20):
        start = _epoch_start(state, d, r, cfg)
        batch = np.empty(d.n, dtype=int)
        batch[start.order] = np.arange(d.n) // batch_size
        cells = np.bincount(batch * m_leaves + r.region - 1,
                            minlength=(batch.max() + 1) * m_leaves)
        missed |= bool(np.any(cells == 0))
        oracle = _batch_pass(state, d, r, cfg, precond, start)
        affine = _affine_pass(state, d, r, cfg, precond, start)
        assert np.allclose(affine, oracle, rtol=1e-12, atol=0.0)
        state = sgd_epoch(state, d, r, cfg, precond)
        assert np.array_equal(state.beta_star, affine)
    assert missed == (m_leaves > 1)
    assert np.abs(state.beta_star - beta0).max() > 1e-3


# ---------------------------------------------------------------------------
# minimum region size
# ---------------------------------------------------------------------------

def test_fit_grows_requested_regions_above_min_region_fraction():
    # 570 points in two clusters plus a 30-point outlier cluster (5% of 600):
    # the outlier cluster cannot be a region of its own, so the tree must
    # find a third region that holds at least 8% of the rows
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.normal(-2, 0.3, 285), rng.normal(2, 0.3, 285),
                        rng.normal(40, 0.3, 30)])
    y = np.concatenate([np.zeros(285), np.full(285, 5.0), np.full(30, 30.0)])
    X = np.column_stack([np.ones(600), x])
    g = rng.integers(1, 3, 600)
    d = Dataset(y + rng.normal(0, 0.1, 600), X, g)
    cfg = FitConfig(max_leaves=3, max_epochs=5, seed=0, min_region_fraction=0.08)
    model = fit_gtimm(d, cfg)
    counts = assign_regions(model.tree, d.X).counts
    assert model.tree.leaf_count == 3
    assert np.all(counts >= 48)


def test_fit_enforces_min_region_fraction(sim2000):
    d, _ = sim2000
    cfg = FitConfig(max_leaves=4, max_epochs=5, seed=0, min_region_fraction=0.05)
    model = fit_gtimm(d, cfg)
    counts = assign_regions(model.tree, d.X).counts
    assert np.all(counts >= max(d.p, 0.05 * d.n))


def test_fit_ill_posed_region_error():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    y = np.where(X[:, 1] > 2.0, 50.0, 0.0) + rng.normal(size=40) * 0.01
    if not np.any(X[:, 1] > 2.0):  # ensure at least two tiny-leaf points
        X[:2, 1] = 2.5
        y[:2] = 50.0
    d = Dataset(y, X, np.ones(40, dtype=int))
    cfg = FitConfig(max_leaves=4, min_leaf=1, min_region_fraction=0.01,
                    max_epochs=1, seed=0)
    with pytest.raises(IllPosedRegionError):
        fit_gtimm(d, cfg)


@pytest.mark.parametrize("family, bad", [("poisson", -1.0), ("bernoulli", -0.5),
                                         ("bernoulli", 2.0)])
def test_response_outside_family_range_is_data_error(family, bad):
    d, _ = single_region_data()
    y = np.zeros(d.n)
    y[5] = bad
    with pytest.raises(DataError, match=family):
        fit_gtimm(Dataset(y, d.X, d.group_label), FitConfig(max_leaves=1, family=family))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_interpolates_noiseless_training_data():
    d, _ = single_region_data()
    model = fit_gtimm(d, FitConfig(max_leaves=1, max_epochs=50, seed=0))
    pred = predict(model, d.X, d.Z)
    assert np.max(np.abs(pred - d.y)) < 1e-6


def test_predict_zero_model_gives_zeros(sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=0, seed=0))
    model.beta_star = np.zeros_like(model.beta_star)
    model.b_hat = np.zeros_like(model.b_hat)
    assert np.array_equal(predict(model, d.X, d.Z), np.zeros(d.n))


def test_predict_matches_linear_predictor_composition(sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=10, seed=0))
    pred = predict(model, d.X[:50], d.Z[:50])
    h = get_family(model.family).inverse
    regions = model.tree.route(d.X[:50])
    for i in range(50):
        # x_i' beta^(m_i) + b_hat of the row's group
        eta = d.X[i] @ model.beta_star[:, regions[i] - 1] + model.b_hat[d.group_label[i] - 1]
        assert pred[i] == pytest.approx(h(eta), rel=1e-12)


def test_predict_without_random_term(sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=10, seed=0))
    marginal = predict(model, d.X, include_random=False)
    full = predict(model, d.X, d.Z, include_random=True)
    assert np.allclose(full - marginal, d.Z @ model.b_hat, atol=1e-12)


def test_predict_warns_on_unseen_group(sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=5, seed=0))
    Z = d.Z[:4].copy()
    Z[2] = 0.0  # unseen group encoding
    with pytest.warns(UserWarning, match=r"^1 row\(s\) have an all-zero"):
        pred = predict(model, d.X[:4], Z)
    eta = fixed_part_eta(model.beta_star, d.X[:4], model.tree.route(d.X[:4]))
    assert pred.tobytes() == (eta + Z @ model.b_hat).tobytes()
    with pytest.raises(ValueError, match=r"Z must be 4 x 10, got \(4, 9\)"):
        predict(model, d.X[:4], Z[:, 1:])


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.nan, np.inf, -np.inf])


def _dead_rows(b, Z, n):
    """The random term and the count in its unseen-group warning (0 if none)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zb = _random_term(b, Z, n)
    # inf * 0 in the product adds numpy's own RuntimeWarning, as Z @ b_hat does
    counts = [int(m.group(1)) for w in caught
              if (m := re.match(r"(\d+) row\(s\) have an all-zero", str(w.message)))]
    assert len(counts) <= 1
    return zb, sum(counts)


@given(data=st.data(), n=st.integers(1, 12), q=st.integers(1, 4), zero_b=st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_term_finds_the_rows_a_full_scan_finds(data, n, q, zero_b):
    # all-zero rows, -0.0, rows that cancel against b_hat, zeros in b_hat, NaN
    # and inf in Z: the dead rows are those of ~Z.any(axis=1), and bit for bit
    # the random term is Z @ b_hat
    b = np.zeros(q) if zero_b else np.array(data.draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]), min_size=q, max_size=q)))
    cancel = np.zeros(q)
    cancel[:2] = (b[1], -b[0]) if q > 1 else 0.0  # z' b_hat = b1 b0 - b0 b1 = 0
    drawn = data.draw(st.lists(st.lists(_ENTRIES, min_size=q, max_size=q),
                               min_size=n, max_size=n))
    Z = np.vstack([np.zeros(q), np.full(q, -0.0), cancel, drawn])
    zb, dead = _dead_rows(b, Z, len(Z))
    per_row = [_dead_rows(b, z[None], 1)[1] for z in Z]
    expected = ~Z.any(axis=1)
    assert dead == int(expected.sum())
    assert np.array_equal(np.array(per_row, dtype=bool), expected)
    with np.errstate(invalid="ignore"):  # inf * 0
        assert zb.tobytes() == (Z @ b).tobytes()


def test_history_logged_per_epoch(sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=7, seed=0))
    epochs = [h.epoch for h in model.history]
    assert epochs == list(range(8))  # init + 7 epochs
    assert all(np.isfinite(h.quasi_loglik) for h in model.history)


def test_doubling_n_does_not_increase_median_error():
    def median_err(n):
        errs = []
        for seed in range(10):
            d, truth = simulate_gtimm(n, seed=seed)
            model = fit_gtimm(d, FitConfig(max_leaves=4, seed=seed, max_epochs=120))
            mapping = match_regions(model.tree.route(d.X), truth.region_true)
            aligned = model.beta_star[:, np.argsort(mapping)]
            errs.append(float(np.mean(np.abs(aligned - truth.beta_star_true))))
        return float(np.median(errs))

    assert median_err(2000) <= median_err(1000)
