import numpy as np
import pytest

from gtimm import (
    Dataset,
    FitConfig,
    IllPosedRegionError,
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
from gtimm.errors import GtimmError
from gtimm.tree import _grow

from conftest import member_predictions, mme_solution


def linear_grouped_data(n=300, seed=0, sigma_b=0.8, sigma_e=0.6, q=5):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    beta = np.array([0.5, 1.2, -0.7])
    g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
    b = rng.normal(0, sigma_b, q)
    y = X @ beta + b[g - 1] + rng.normal(0, sigma_e, n)
    return Dataset(y, X, g), beta


def test_lmm_noiseless_recovery():
    d, beta = linear_grouped_data(sigma_b=0.0, sigma_e=0.0)
    model = fit_lmm(d)
    assert np.max(np.abs(model.beta - beta)) < 1e-6
    assert np.max(np.abs(model.b_tilde)) < 1e-6


def test_lmm_equals_single_region_fit():
    # also on a collinear design (a third column 3 * x1), where both fits must
    # pick the same one of the coefficient vectors that fit equally well
    d, _ = linear_grouped_data(seed=2)
    collinear = Dataset(d.y, np.column_stack([d.X, 3.0 * d.X[:, 1]]), d.group_label)
    for d in (d, collinear):
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


def test_lmm_applies_the_fit_checks():
    # fit_lmm is the one-leaf fit, so it checks the data as fit_gtimm does
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(8), rng.normal(size=(8, 4))])
    d = Dataset(rng.normal(size=8), X, np.arange(8) % 2 + 1)
    with pytest.raises(IllPosedRegionError, match="p=5"):
        fit_lmm(d.take(np.arange(3)))
    with pytest.warns(UserWarning, match="fewer than 5"):
        assert np.all(np.isfinite(fit_lmm(d).beta))


def test_lmm_fails_badly_on_cluster_data(sim2000):
    d, _ = sim2000
    train_idx, test_idx = train_test_split_grouped(d, 0.8, seed=0)
    train, test = d.take(train_idx), d.take(test_idx)
    model = fit_lmm(train)
    err = mspe(test.y, predict_baseline(model, test.X, test.Z))
    assert err > 50


def single_tree(d, max_leaves, min_leaf=10):
    """The single-tree baseline: a forest of one tree, without bootstrap or
    feature subsampling."""
    return fit_forest(d, n_trees=1, max_leaves=max_leaves, bootstrap=False,
                      feature_subsample=False, min_leaf=min_leaf)


def test_forest_degenerate_equals_single_tree(sim2000):
    """A forest of one tree without bootstrap or feature subsampling grows the
    tree ``fit_tree`` grows, bit for bit, and predicts each region's mean
    response."""
    d, _ = sim2000
    forest, tree = single_tree(d, 8).trees, _grow(d.X, d.y, [np.arange(d.n)], 8, 10,
                                                    np.arange(1, d.p))
    for field in ("feature", "threshold", "left", "n", "mean", "count", "depth"):
        np.testing.assert_array_equal(getattr(forest, field), getattr(tree, field), field)
    region = fit_tree(d, max_leaves=8, min_leaf=10).route(d.X)
    means = np.bincount(region, d.y)[1:] / np.bincount(region)[1:]
    np.testing.assert_allclose(predict_baseline(single_tree(d, 8), d.X), means[region - 1],
                               rtol=1e-12, atol=0)


def test_forest_prediction_is_member_average(sim2000, monkeypatch):
    """The forest predicts the members' mean, added in tree order, bit for
    bit, whatever the routing block; also for single-leaf members.  Each
    member's root threshold is a row's value, which must route left."""
    d, _ = sim2000
    for n_trees, max_leaves in ((7, 8), (5, 1)):
        forest = fit_forest(d.take(np.arange(500)), n_trees=n_trees, max_leaves=max_leaves,
                            seed=1)
        X = d.X[500:600].copy()
        for t in range(n_trees):
            if forest.trees.feature[t, 0] >= 0:
                X[t, forest.trees.feature[t, 0]] = forest.trees.threshold[t, 0]
        expected = np.zeros(X.shape[0])
        for member in member_predictions(forest, X):
            expected += member
        expected /= n_trees
        assert np.array_equal(predict_baseline(forest, X), expected)
        with monkeypatch.context() as m:
            m.setattr(baselines, "_FOREST_BLOCK", 3)
            assert np.array_equal(predict_baseline(forest, X), expected)


def test_forest_prediction_checks_columns(sim2000):
    d, _ = sim2000
    forest = fit_forest(d.take(np.arange(200)), n_trees=3, max_leaves=4, seed=0)
    assert predict_baseline(forest, d.X[:0]).shape == (0,)
    with pytest.raises(GtimmError, match="feature column"):
        predict_baseline(forest, d.X[:5, :1])


def test_forest_rejects_bad_leaf_arguments(sim2000):
    d = sim2000[0].take(np.arange(100))
    with pytest.raises(ValueError, match="max_leaves"):
        fit_forest(d, n_trees=2, max_leaves=0)
    with pytest.raises(ValueError, match="min_leaf"):
        fit_forest(d, n_trees=2, min_leaf=0)


def test_forest_of_identical_trees_equals_any_member(sim2000):
    d, _ = sim2000
    forest = fit_forest(d, n_trees=3, max_leaves=6, seed=2, bootstrap=False,
                        feature_subsample=False)
    X = d.X[:200]
    assert np.allclose(predict_baseline(forest, X), member_predictions(forest, X)[0],
                       atol=1e-12)


def test_forest_trees_do_not_depend_on_count_block_or_repeat(monkeypatch):
    """Tree i of a forest depends on (seed, i) alone: a longer forest starts
    with the same trees, a repeated call gives them again, and so does
    another lockstep block size.  The design has tied values and five
    predictors, so nodes draw feature subsets."""
    rng = np.random.default_rng(8)
    n = 150
    X = np.column_stack([np.ones(n), np.round(rng.normal(size=(n, 5)), 1)])
    g = np.concatenate([[1, 2, 3], rng.integers(1, 4, n - 3)])
    y = np.where(X[:, 1] > 0, 2.0, -1.0) + X[:, 3] + rng.normal(0, 0.5, n)
    d = Dataset(y, X, g)

    def same(a, b, count):
        return all(np.array_equal(u[:count], v, equal_nan=True)
                   for u, v in zip(a.trees, b.trees))

    for seed in (0, 5):
        ten = fit_forest(d, n_trees=10, max_leaves=12, seed=seed)
        assert same(ten, fit_forest(d, n_trees=4, max_leaves=12, seed=seed), 4)
        assert same(fit_forest(d, n_trees=10, max_leaves=12, seed=seed), ten, 10)
        with monkeypatch.context() as m:
            m.setattr(baselines, "_FOREST_BLOCK", 3)
            assert same(fit_forest(d, n_trees=10, max_leaves=12, seed=seed), ten, 10)
        assert len({row.tobytes() for row in ten.trees.threshold}) > 1


def test_forest_beats_single_tree_on_cluster_generator():
    wins = 0
    rf_errs, tree_errs = [], []
    for seed in range(20):
        d, _ = simulate_gtimm(800, seed=seed)
        train_idx, test_idx = train_test_split_grouped(d, 0.8, seed=seed)
        train, test = d.take(train_idx), d.take(test_idx)
        forest = fit_forest(train, n_trees=40, max_leaves=32, seed=seed, min_leaf=5)
        tree = single_tree(train, max_leaves=4)
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
    stump = single_tree(d.take(np.arange(100)), max_leaves=1)
    pred = predict_baseline(stump, d.X)
    assert np.all(pred == pred[0])


def test_predict_baseline_lmm_checks_z_as_predict_does(sim2000):
    d, _ = sim2000
    lmm = fit_lmm(d)
    Z = d.Z[:4].copy()
    Z[2] = 0.0  # unseen group encoding
    with pytest.warns(UserWarning, match=r"^1 row\(s\) have an all-zero"):
        pred = predict_baseline(lmm, d.X[:4], Z)
    assert pred.tobytes() == (d.X[:4] @ lmm.beta + Z @ lmm.b_tilde).tobytes()
    with pytest.raises(ValueError, match=r"Z must be 4 x 10, got \(4, 9\)"):
        predict_baseline(lmm, d.X[:4], Z[:, 1:])


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
