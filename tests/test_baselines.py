import numpy as np
import pytest

from gtimm import (
    Dataset,
    FitConfig,
    fit_forest,
    fit_gtimm,
    fit_lmm,
    fit_tree,
    mspe,
    predict,
    predict_baseline,
    simulate_common_effects,
    simulate_gtimm,
)
from gtimm import baselines
from gtimm.data import train_test_split_grouped

from conftest import mme_solution


def linear_grouped_data(n=300, seed=0, sigma_b=0.8, sigma_e=0.6, q=5):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    beta = np.array([0.5, 1.2, -0.7])
    g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
    Z = np.zeros((n, q))
    Z[np.arange(n), g - 1] = 1.0
    b = rng.normal(0, sigma_b, q)
    y = X @ beta + b[g - 1] + rng.normal(0, sigma_e, n)
    return Dataset(y, X, Z, g), beta


def test_lmm_noiseless_recovery():
    d, beta = linear_grouped_data(sigma_b=0.0, sigma_e=0.0)
    model = fit_lmm(d)
    assert np.max(np.abs(model.beta - beta)) < 1e-6
    assert np.max(np.abs(model.b_tilde)) < 1e-6


def test_lmm_equals_single_region_fit():
    d, _ = linear_grouped_data(seed=2)
    lmm = fit_lmm(d)
    cfg = FitConfig(max_leaves=1, batch_size=d.n, learning_rate=0.5,
                    max_epochs=4000, rel_tol=1e-14, seed=0)
    gt = fit_gtimm(d, cfg)
    assert np.max(np.abs(gt.beta_star[:, 0] - lmm.beta)) < 1e-4
    pred_g = predict(gt, d.X, d.Z)
    pred_l = predict_baseline(lmm, d.X, d.Z)
    assert abs(mspe(d.y, pred_g) - mspe(d.y, pred_l)) < 1e-4


@pytest.mark.parametrize("n", [500, 2000, 8000])
def test_lmm_reaches_henderson_solution(n):
    """fit_lmm stops at the M=1 solution of Henderson's equations for its own
    variance components, in both the coefficients and the random effect."""
    for rep in range(5):
        d, _ = simulate_common_effects(n, seed=[n, rep])
        lmm = fit_lmm(d)
        beta, b = mme_solution(d, np.ones(d.n, dtype=int), lmm.sigma_b2, lmm.sigma_eps2)
        assert np.max(np.abs(lmm.beta - beta[:, 0])) < 1e-6
        assert np.max(np.abs(lmm.b_tilde - b)) < 1e-6


def test_lmm_fails_badly_on_cluster_data(sim2000):
    d, _ = sim2000
    train_idx, test_idx = train_test_split_grouped(d, 0.8, seed=0)
    train, test = d.take(train_idx), d.take(test_idx)
    model = fit_lmm(train)
    err = mspe(test.y, predict_baseline(model, test.X, test.Z))
    assert err > 50


def test_forest_degenerate_equals_single_tree(sim2000):
    d, _ = sim2000
    forest = fit_forest(d, n_trees=1, max_leaves=8, seed=0, bootstrap=False,
                        feature_subsample=False, min_leaf=10)
    tree = fit_tree(d, max_leaves=8, min_leaf=10)
    assert np.array_equal(predict_baseline(forest, d.X), predict_baseline(tree, d.X))


def test_forest_prediction_is_member_average(sim2000):
    d, _ = sim2000
    forest = fit_forest(d.take(np.arange(500)), n_trees=7, max_leaves=8, seed=1)
    X = d.X[500:600]
    members = np.stack([predict_baseline(t, X) for t in forest.trees])
    assert np.allclose(predict_baseline(forest, X), members.mean(axis=0), atol=1e-12)


def test_forest_of_identical_trees_equals_any_member(sim2000):
    d, _ = sim2000
    forest = fit_forest(d, n_trees=3, max_leaves=6, seed=2, bootstrap=False,
                        feature_subsample=False)
    X = d.X[:200]
    assert np.allclose(predict_baseline(forest, X),
                       predict_baseline(forest.trees[0], X), atol=1e-12)


def test_forest_trees_do_not_depend_on_count_block_or_repeat(monkeypatch):
    """Tree i of a forest depends on (seed, i) alone: a longer forest starts
    with the same trees, a repeated call gives them again, and so does
    another lockstep block size.  The design has tied values and five
    predictors, so nodes draw feature subsets."""
    rng = np.random.default_rng(8)
    n = 150
    X = np.column_stack([np.ones(n), np.round(rng.normal(size=(n, 5)), 1)])
    g = np.concatenate([[1, 2, 3], rng.integers(1, 4, n - 3)])
    Z = np.zeros((n, 3))
    Z[np.arange(n), g - 1] = 1.0
    y = np.where(X[:, 1] > 0, 2.0, -1.0) + X[:, 3] + rng.normal(0, 0.5, n)
    d = Dataset(y, X, Z, g)
    for seed in (0, 5):
        ten = fit_forest(d, n_trees=10, max_leaves=12, seed=seed)
        assert ten.trees[:4] == fit_forest(d, n_trees=4, max_leaves=12, seed=seed).trees
        assert fit_forest(d, n_trees=10, max_leaves=12, seed=seed).trees == ten.trees
        with monkeypatch.context() as m:
            m.setattr(baselines, "_FOREST_BLOCK", 3)
            assert fit_forest(d, n_trees=10, max_leaves=12, seed=seed).trees == ten.trees
        assert len({t.nodes for t in ten.trees}) > 1


def test_forest_beats_single_tree_on_cluster_generator():
    wins = 0
    rf_errs, tree_errs = [], []
    for seed in range(20):
        d, _ = simulate_gtimm(800, seed=seed)
        train_idx, test_idx = train_test_split_grouped(d, 0.8, seed=seed)
        train, test = d.take(train_idx), d.take(test_idx)
        forest = fit_forest(train, n_trees=40, max_leaves=32, seed=seed, min_leaf=5)
        tree = fit_tree(train, max_leaves=4)
        rf = mspe(test.y, predict_baseline(forest, test.X))
        single = mspe(test.y, predict_baseline(tree, test.X))
        rf_errs.append(rf)
        tree_errs.append(single)
        wins += rf <= single
    assert np.median(rf_errs) <= np.median(tree_errs)
    assert wins >= 15


def test_predict_baseline_trivial_cases(sim2000):
    d, _ = sim2000
    from gtimm.baselines import LmmModel

    zero = LmmModel(np.zeros(d.p), np.zeros(d.q), 1.0, 1.0)
    assert np.array_equal(predict_baseline(zero, d.X, d.Z), np.zeros(d.n))
    stump = fit_tree(d.take(np.arange(100)), max_leaves=1)
    pred = predict_baseline(stump, d.X)
    assert np.all(pred == pred[0])


def test_predict_baseline_rejects_unknown_type():
    with pytest.raises(TypeError):
        predict_baseline(object(), np.ones((2, 2)))


def test_lmm_gap_shrinks_with_n_on_common_data():
    gaps = {}
    for n in (400, 3200):
        diffs = []
        for rep in range(5):
            d, _ = simulate_common_effects(n + 800, seed=[n, rep])
            train, test = d.take(np.arange(n)), d.take(np.arange(n, n + 800))
            cfg = FitConfig(max_leaves=4, batch_size=n, learning_rate=0.2,
                            max_epochs=800, rel_tol=1e-12, seed=rep)
            gt = fit_gtimm(train, cfg)
            lmm = fit_lmm(train)
            diffs.append(abs(
                mspe(test.y, predict(gt, test.X, test.Z))
                - mspe(test.y, predict_baseline(lmm, test.X, test.Z))
            ))
        gaps[n] = np.mean(diffs)
    assert gaps[3200] < gaps[400]
