import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtimm import (Dataset, ForestModel, assign_regions, fit_forest, fit_tree, predict_baseline,
                   select_leaves_cv, simulate_gtimm)
from gtimm import tree as tree_module
from gtimm.data import group_stratified_folds
from gtimm.errors import GtimmError
from gtimm.tree import (GrownTrees, RegressionTree, TreeNode, _finalize, _grow, _leaf_nodes,
                        _partition, _split_batch, cv_leaf_scores, tree_from_lines, tree_to_lines)

from conftest import (descended_leaves, descent, member_predictions, ols_solve, reference_grow,
                      region_mismatches)


def dataset_from_xy(x, y, q=2, seed=0):
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    X = np.column_stack([np.ones(x.shape[0]), x])
    g = np.concatenate([[1, 2], rng.integers(1, q + 1, x.shape[0] - 2)])
    return Dataset(np.asarray(y, dtype=float), X, g, q=q)


def brute_force_best_split(X, y, min_leaf):
    """Exhaustive split search over all midpoints of every column of X, in
    exact arithmetic.  Returns (gain, feature, threshold) of the largest
    SSE reduction, ties to the lowest feature and then the smallest
    threshold, or None when no split leaves both children ``min_leaf`` rows
    and strictly reduces the SSE."""

    def sse(v):
        v = [Fraction(float(a)) for a in v]
        return sum(a * a for a in v) - sum(v) ** 2 / len(v)

    best = None
    for f in range(X.shape[1]):
        xs = np.unique(X[:, f])
        for lo, hi in zip(xs[:-1], xs[1:]):
            left = X[:, f] <= lo
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            gain = sse(y) - sse(y[left]) - sse(y[~left])
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, f, 0.5 * (lo + hi))
    return best


def test_step_function_split_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-3, -0.1, 50), rng.uniform(0.1, 3, 50)])
    y = np.where(x < 0, 0.0, 10.0)
    d = dataset_from_xy(x[:, None], y)
    tree = fit_tree(d, max_leaves=2, min_leaf=5)
    assert tree.leaf_count == 2
    split = next(nd for nd in tree.nodes if nd.feature >= 0)
    assert split.feature == 1
    _, _, oracle_thr = brute_force_best_split(x[:, None], y, min_leaf=5)
    assert split.threshold == pytest.approx(oracle_thr, abs=1e-12)
    assert max(x[x < 0]) < split.threshold < min(x[x >= 0])


@st.composite
def split_batches(draw):
    """Small integer designs with repeated values and constant columns, a
    few segments of rows (drawn with repeats, as a bootstrap draws them),
    and a minimum leaf size."""
    n, n_feat = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                               min_size=n_feat, max_size=n_feat)), dtype=float).T
    for f in range(n_feat):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, f] = X[0, f]
    y = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    segments = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=14),
                             min_size=1, max_size=4))
    allowed = None
    if draw(st.booleans()):  # forest mode: each segment may split on some features only
        allowed = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n_feat,
                                                  max_size=n_feat),
                                         min_size=len(segments), max_size=len(segments))))
    return X, y, [np.array(rows) for rows in segments], draw(st.integers(1, 5)), allowed


@given(batch=split_batches())
@settings(max_examples=300, deadline=None)
def test_split_kernel_matches_exhaustive_search(batch):
    """Every segment's pick equals the exhaustive search on its own rows: the
    same gain (1e-9 relative), exact ties to the lowest feature and then the
    smallest threshold, no child below min_leaf, and no split when none
    strictly reduces the SSE.  Scored alone, a segment gets the same pick
    bit for bit: the other segments of a batch never enter its sums.

    Partitioning the segments that split gives, in every feature row, the
    rows that go left and then the rest, each in the segment's presorted
    order, and the same children alone as in the batch."""
    X, y, segments, min_leaf, allowed = batch
    cols = X.T.copy()
    sizes = np.array([rows.size for rows in segments])
    head = np.cumsum(sizes) - sizes
    lists = np.concatenate([[rows[np.argsort(X[rows, f], kind="stable")]
                             for f in range(X.shape[1])] for rows in segments],
                           axis=1).astype(np.int32)
    feature, gain, threshold = _split_batch(cols, y, lists, sizes, min_leaf, allowed)
    picks = np.column_stack([feature, gain, threshold])
    own = [lists[:, a:a + size] for a, size in zip(head, sizes)]
    for s, rows in enumerate(segments):
        alone = _split_batch(cols, y, own[s], sizes[s:s + 1],
                             min_leaf, None if allowed is None else allowed[s:s + 1])
        assert np.array_equal(np.column_stack(alone)[0], picks[s], equal_nan=True)
        candidates = np.arange(X.shape[1]) if allowed is None else np.flatnonzero(allowed[s])
        oracle = brute_force_best_split(X[np.ix_(rows, candidates)], y[rows], min_leaf)
        if oracle is None:
            assert feature[s] == -1
            continue
        assert (feature[s], threshold[s]) == (candidates[oracle[1]], oracle[2])
        assert gain[s] == pytest.approx(float(oracle[0]), rel=1e-9)
        left = int(np.sum(X[rows, feature[s]] <= threshold[s]))
        assert min(left, rows.size - left) >= min_leaf

    split = np.flatnonzero(feature >= 0)
    if split.size == 0:
        return
    children, child_sizes = _partition(cols, np.concatenate([own[s] for s in split], axis=1),
                                       sizes[split], feature[split], threshold[split])
    c_head = np.cumsum(child_sizes) - child_sizes
    for i, s in enumerate(split):
        goes_left = X[own[s], feature[s]] <= threshold[s]  # (F, size), by feature row
        expected = np.array([np.concatenate([row[go], row[~go]])
                             for row, go in zip(own[s], goes_left)])
        n_left = int(goes_left[0].sum())
        assert child_sizes[2 * i:2 * i + 2].tolist() == [n_left, sizes[s] - n_left]
        assert np.array_equal(children[:, c_head[2 * i]:c_head[2 * i] + sizes[s]], expected)
        alone, alone_sizes = _partition(cols, own[s], sizes[s:s + 1], feature[s:s + 1],
                                        threshold[s:s + 1])
        assert np.array_equal(alone, expected)
        assert np.array_equal(alone_sizes, child_sizes[2 * i:2 * i + 2])


@st.composite
def growths(draw):
    """Small designs with tied values, a few trees grown from the same rows
    or from bootstrap draws, all leaf budgets from 1, minimum leaf sizes up
    to past n/2, a constant, 0/1 (exact gain ties) or real-valued response,
    feature subsampling,
    and two lockstep block sizes (all trees at once, or a drawn one)."""
    n, n_feat = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.integers(0, 4, size=(n, n_feat)).astype(float)
    y = draw(st.sampled_from([np.full(n, 0.3), rng.integers(0, 2, n) * 1.0, rng.normal(size=n)]))
    n_trees = draw(st.integers(1, 5))
    bootstrap = draw(st.booleans())
    roots = [rng.integers(0, n, n) if bootstrap else np.arange(n) for _ in range(n_trees)]
    features = np.arange(draw(st.integers(0, 1)), n_feat)  # may leave no candidate
    mtry = draw(st.one_of(st.none(), st.integers(1, max(1, features.size))))
    min_leaf = draw(st.one_of(st.integers(1, 3), st.integers(max(1, n // 2 - 1), n // 2 + 1)))
    return (X, y, roots, draw(st.integers(1, 8)), min_leaf, features, mtry,
            draw(st.integers(1, n_trees)), draw(st.sampled_from([8, 64, 4096])))


def bootstrap_forest_case():
    """Four bootstrap trees on 24 rows, 2 of 4 features per node, grown in
    blocks of 3: the up-front feature draws of forest growth."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 5, size=(24, 4)).astype(float)
    roots = [rng.integers(0, 24, 24) for _ in range(4)]
    return X, rng.normal(size=24), roots, 6, 1, np.arange(4), 2, 3, 64


@given(case=growths())
@example(case=(np.arange(20.0)[:, None], np.repeat([0.0, 1.0, 100.0, 101.0], 5),
               [np.arange(20)] * 2, 4, 2, np.arange(1), None, 1, 4096))  # equal gains
@example(case=bootstrap_forest_case())
@settings(max_examples=300, deadline=None)
def test_growth_matches_reference_grower(case):
    """The array-state growth matches the heap-and-dict reference node for
    node: the split feature, threshold and children, every node's row
    count, and every leaf mean bit for bit.  This holds whatever the
    lockstep block and the kernel's batch bound (``_BATCH``, from 8 row ids,
    which splits nearly every step into several calls)."""
    X, y, roots, max_leaves, min_leaf, features, mtry, block, batch = case

    def rngs():
        return [np.random.default_rng([7, t]) for t in range(len(roots))]

    expected = reference_grow(X, y, roots, max_leaves, min_leaf, features, rngs(), mtry)
    for size in {len(roots), block}:
        gens = rngs()
        with mock.patch.object(tree_module, "_BATCH", batch):
            blocks = [_grow(X, y, roots[a:a + size], max_leaves, min_leaf, features,
                            gens[a:a + size], mtry) for a in range(0, len(roots), size)]
        grown = GrownTrees(*map(np.concatenate, zip(*blocks)))
        for t, nodes in enumerate(expected):
            assert grown.count[t] == len(nodes)
            for k, nd in enumerate(nodes):
                assert grown.n[t, k] == nd["n"]
                if "feature" in nd:
                    assert (grown.feature[t, k], grown.threshold[t, k]) == (nd["feature"],
                                                                            nd["threshold"])
                    assert (grown.left[t, k], grown.left[t, k] + 1) == (nd["left"], nd["right"])
                    assert np.isnan(grown.mean[t, k])
                else:
                    assert (grown.feature[t, k], grown.left[t, k]) == (-1, -1)
                    assert np.isnan(grown.threshold[t, k])
                    assert repr(float(grown.mean[t, k])) == repr(nd["mean"])


@given(case=growths())
@settings(max_examples=200, deadline=None)
def test_routers_match_row_by_row_descent(case):
    """The one router sends every row to the leaf that a row-by-row descent
    (``conftest.descent``) reaches, in every tree of a growth, the forest's
    lockstep growth included: :func:`_leaf_nodes`, the region
    :meth:`RegressionTree.route` gives for each frozen tree, and the forest's
    prediction, bit for bit.  The rows are the training rows, a probe at every
    split threshold, on a row that reaches that split (it must go left), and
    rows with NaN (which goes right) and +-inf in each column."""
    X, y, roots, max_leaves, min_leaf, features, mtry, _, _ = case
    rngs = [np.random.default_rng([7, t]) for t in range(len(roots))]
    grown = _grow(X, y, roots, max_leaves, min_leaf, features, rngs, mtry)
    probes = []
    for t, k in zip(*np.nonzero(grown.feature >= 0)):
        walk = grown.feature[t], grown.threshold[t], grown.left[t]
        probe = next(x for x in X if k in descent(*walk, x)).copy()
        probe[grown.feature[t, k]] = grown.threshold[t, k]
        probes.append(probe)
    p = X.shape[1]
    odd = np.repeat(X[:2], 3 * p, axis=0)  # each column of two rows at NaN, +inf, -inf
    column = np.tile(np.repeat(np.arange(p), 3), 2)
    odd[np.arange(6 * p), column] = [np.nan, np.inf, -np.inf] * (2 * p)
    rows = np.vstack([X, *probes, odd])
    expected = descended_leaves(grown, rows)
    assert np.array_equal(
        _leaf_nodes(grown.feature, grown.threshold, grown.left, grown.depth, rows), expected)
    for t in range(len(roots)):
        tree = _finalize(GrownTrees(*(a[t:t + 1] for a in grown)))
        region = np.array([nd.region for nd in tree.nodes])  # 0 for a split node
        assert np.array_equal(tree.route(rows), region[expected[t]])
    forest = ForestModel(grown)
    mean = np.zeros(rows.shape[0])
    for member in member_predictions(forest, rows):
        mean += member
    assert np.array_equal(predict_baseline(forest, rows), mean / len(roots))


def test_permuted_stack_equals_successive_permutations():
    """Forest growth draws a tree's feature subsets as one permuted stack of
    ``arange(F)`` rows: row k must be the k-th ``permutation(F)`` of the
    same stream, and the stream must be left where those calls leave it."""
    for n_feat in (2, 3, 5, 8):
        for rows in (1, 2, 7, 63):
            for seed in range(5):
                stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
                stack = stacked.permuted(np.tile(np.arange(n_feat), (rows, 1)), axis=1)
                assert np.array_equal(stack, [single.permutation(n_feat) for _ in range(rows)])
                assert stacked.bit_generator.state == single.bit_generator.state


def test_equal_gains_split_the_older_node_first():
    # the root's children, {0, 1} and {100, 101} five times each, gain
    # exactly alike from their next splits
    x = np.arange(20.0)
    y = np.repeat([0.0, 1.0, 100.0, 101.0], 5)
    tree = fit_tree(dataset_from_xy(x[:, None], y), 3, min_leaf=2)
    assert (tree.nodes[1].feature, tree.nodes[1].threshold) == (1, 4.5)
    assert tree.nodes[2].feature == -1 and tree.nodes[2].region == 3


def test_constant_response_single_leaf():
    rng = np.random.default_rng(1)
    d = dataset_from_xy(rng.normal(size=(80, 2)), np.full(80, 3.5))
    assert fit_tree(d, max_leaves=8, min_leaf=2).leaf_count == 1
    grown = _grow(d.X, d.y, [np.arange(d.n)], 8, 2, np.arange(1, d.p))
    assert grown.count.tolist() == [1] and grown.mean[0, 0] == pytest.approx(3.5)


def test_four_cluster_recovery(sim2000):
    d, truth = sim2000
    tree = fit_tree(d, max_leaves=4)
    assign = assign_regions(tree, d.X)
    assert tree.leaf_count == 4
    assert region_mismatches(assign.region, truth.region_true) <= 20  # of 2000


def test_single_leaf_assigns_everything_to_region_one():
    rng = np.random.default_rng(2)
    d = dataset_from_xy(rng.normal(size=(30, 2)), rng.normal(size=30))
    tree = fit_tree(d, max_leaves=1)
    assign = assign_regions(tree, d.X)
    assert np.all(assign.region == 1)
    assert assign.counts.tolist() == [30]


def test_threshold_tie_routes_left():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    d = dataset_from_xy(x[:, None], y)
    tree = fit_tree(d, max_leaves=2, min_leaf=1)
    split = next(nd for nd in tree.nodes if nd.feature >= 0)
    probe = np.array([[1.0, split.threshold]])
    region = tree.route(probe)[0]
    left_leaf = tree.nodes[split.left]
    assert region == left_leaf.region


def test_rerouting_training_data_matches_fit(sim2000):
    d, _ = sim2000
    grown = _grow(d.X, d.y, [np.arange(d.n)], 4, 10, np.arange(1, d.p))
    tree = _finalize(grown)
    assign = assign_regions(tree, d.X)
    # leaf bookkeeping recorded during growth must agree with re-routing
    for k, nd in enumerate(tree.nodes):
        if nd.feature < 0:
            rows = assign.region == nd.region
            assert int(rows.sum()) == nd.n
            assert d.y[rows].mean() == pytest.approx(grown.mean[0, k], rel=1e-12)


def test_min_leaf_respected(sim2000):
    d, _ = sim2000
    tree = fit_tree(d, max_leaves=8, min_leaf=25)
    for nd in tree.nodes:
        if nd.feature < 0:
            assert nd.n >= 25


def test_small_n_returns_single_leaf():
    rng = np.random.default_rng(3)
    d = dataset_from_xy(rng.normal(size=(9, 1)), rng.normal(size=9))
    tree = fit_tree(d, max_leaves=4, min_leaf=5)  # N < 2 * min_leaf
    assert tree.leaf_count == 1


def test_bad_arguments():
    rng = np.random.default_rng(4)
    d = dataset_from_xy(rng.normal(size=(20, 1)), rng.normal(size=20))
    with pytest.raises(ValueError):
        fit_tree(d, max_leaves=0)
    with pytest.raises(ValueError):
        fit_tree(d, max_leaves=2, min_leaf=0)


def test_duplicate_feature_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(5)
    x1 = rng.normal(size=60)
    y = np.where(x1 < 0, -5.0, 5.0)
    X = np.column_stack([x1, x1.copy()])  # identical predictors
    d = dataset_from_xy(X, y)
    tree = fit_tree(d, max_leaves=2, min_leaf=5)
    split = next(nd for nd in tree.nodes if nd.feature >= 0)
    assert split.feature == 1  # first predictor column wins the tie


def test_sse_nonincreasing_in_leaves(sim2000):
    d, _ = sim2000
    sse = []
    for m in range(1, 9):
        tree = fit_tree(d, max_leaves=m)
        assign = assign_regions(tree, d.X)
        total = 0.0
        for nd in tree.nodes:
            if nd.feature < 0:
                rows = assign.region == nd.region
                total += float(np.sum((d.y[rows] - d.y[rows].mean()) ** 2))
        sse.append(total)
    assert all(b <= a + 1e-9 for a, b in zip(sse, sse[1:]))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_routing_total_function(seed):
    rng = np.random.default_rng(seed)
    d = dataset_from_xy(rng.normal(size=(40, 2)), rng.normal(size=40))
    tree = fit_tree(d, max_leaves=rng.integers(1, 6), min_leaf=3)
    fresh = rng.normal(size=(25, 3)) * 10
    fresh[:, 0] = 1.0
    region = tree.route(fresh)
    assert region.shape == (25,)
    assert np.all((region >= 1) & (region <= tree.leaf_count))


def test_route_feature_out_of_bounds(sim2000):
    d, _ = sim2000
    tree = fit_tree(d, max_leaves=4)
    with pytest.raises(GtimmError, match="feature column"):
        tree.route(np.ones((5, 1)))


# ---------------------------------------------------------------------------
# cross-validated leaf selection
# ---------------------------------------------------------------------------

def test_cv_single_candidate_returned(sim2000):
    d, _ = sim2000
    assert select_leaves_cv(d, folds=5, candidates=[3], seed=0) == 3


def test_cv_pure_noise_prefers_one_leaf():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = dataset_from_xy(rng.normal(size=(200, 2)), rng.normal(size=200), q=4,
                            seed=seed)
        hits += select_leaves_cv(d, folds=5, candidates=[1, 2, 4], seed=seed) == 1
    assert hits >= 11  # majority over 20 seeds


def test_cv_selects_four_on_cluster_data(sim2000):
    d, _ = sim2000
    assert select_leaves_cv(d, folds=5, candidates=range(1, 9), seed=0) == 4


def test_cv_validates_arguments(sim2000):
    d, _ = sim2000
    with pytest.raises(ValueError):
        select_leaves_cv(d, folds=1, candidates=[2], seed=0)
    with pytest.raises(ValueError):
        select_leaves_cv(d, folds=5, candidates=[], seed=0)
    with pytest.raises(ValueError):
        select_leaves_cv(d, folds=5, candidates=[0, 2], seed=0)


def test_cv_folds_at_most_n():
    """More folds than rows is a usage error naming both numbers; N folds
    leave every fold one row, through the unstratified fallback."""
    d, _ = simulate_gtimm(40, seed=4)
    with pytest.raises(ValueError, match=r"folds \(41\) .* observations \(40\)"):
        cv_leaf_scores(d, 41, [1, 2], seed=0)
    with pytest.warns(UserWarning, match="unstratified"):
        scores = cv_leaf_scores(d, 40, [1, 2], seed=0, min_leaf=2)
    assert all(v.shape == (40,) and np.all(np.isfinite(v)) for v in scores.values())


def test_cv_scores_shape(sim2000):
    d, _ = sim2000
    scores = cv_leaf_scores(d, 4, [1, 4], seed=2)
    assert set(scores) == {1, 4}
    assert all(v.shape == (4,) for v in scores.values())
    assert scores[4].mean() < scores[1].mean()


def oracle_cv_scores(d, folds, candidates, seed, min_leaf, solve):
    """Per-fold scores by the definition: for every fold and candidate m,
    the tree ``fit_tree`` grows to m leaves on the training rows, one
    least-squares fit per leaf by ``solve``, and the test rows' mean squared
    error."""
    fold_of = group_stratified_folds(d.group_label, d.n, folds, seed)
    out = {m: np.empty(folds) for m in candidates}
    for k in range(folds):
        train, test = d.take(np.flatnonzero(fold_of != k)), d.take(np.flatnonzero(fold_of == k))
        for m in candidates:
            tree = fit_tree(train, m, min_leaf)
            r_train, r_test = tree.route(train.X), tree.route(test.X)
            pred = np.empty(test.n)
            for leaf in range(1, tree.leaf_count + 1):
                beta = solve(train.X[r_train == leaf], train.y[r_train == leaf])
                pred[r_test == leaf] = test.X[r_test == leaf] @ beta
            out[m][k] = np.mean((test.y - pred) ** 2)
    return out


@pytest.mark.parametrize("seed, min_leaf", [(0, 10), (1, 10), (2, 3), (3, 150)])
def test_cv_scores_match_per_candidate_oracle(seed, min_leaf):
    """Scores from one growth, routing and solve per fold equal a fresh
    tree and per-leaf normal equations for every candidate; with
    ``min_leaf=150`` growth stops before the largest candidates."""
    d, _ = simulate_gtimm(800, seed=seed)
    candidates = [1, 2, 3, 5, 8]
    got = cv_leaf_scores(d, 4, candidates, seed, min_leaf)
    expected = oracle_cv_scores(d, 4, candidates, seed, min_leaf, ols_solve)
    for m in candidates:
        np.testing.assert_allclose(got[m], expected[m], rtol=1e-9, atol=0)


def test_cv_scores_min_norm_on_rank_deficient_leaf():
    """x2 is constant (2.0) where x1 <= 0, so the leaf holding those rows has
    collinear columns; its fit is the minimum-norm least squares.  (Normal
    equations with a 1e-8 ridge land about 6e-8 away here.)"""
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-0.1, 0.1, 400)
    x2 = np.where(x1 <= 0, 2.0, rng.normal(size=400))
    y = np.where(x1 <= 0, 0.0, 5.0 + x2) + 10.0 * x1 + rng.normal(scale=0.1, size=400)
    d = dataset_from_xy(np.column_stack([x1, x2]), y, q=4)
    region = fit_tree(d, 2).route(d.X)
    assert set(region[x1 <= 0]).isdisjoint(region[x1 > 0])  # the leaf is x1 <= 0
    candidates = [1, 2, 3, 4]
    got = cv_leaf_scores(d, 5, candidates, seed=3)
    expected = oracle_cv_scores(d, 5, candidates, 3, 10,
                                lambda X, y: np.linalg.lstsq(X, y, rcond=None)[0])
    for m in candidates:
        np.testing.assert_allclose(got[m], expected[m], rtol=1e-9, atol=0)


@pytest.mark.parametrize("case", ["fold-constant", "unstratified", "sim2000"])
def test_cv_block_grows_each_fold_as_its_own_tree(case, sim2000, monkeypatch):
    """One ``_grow`` call, rooted at the folds' training row ids of ``d``,
    and one ``_leaf_nodes`` call, with no Dataset per fold; each fold's tree
    of the block equals ``_grow`` on that fold's own ``d.take(train)``, node
    for node, thresholds and leaf means bit for bit."""
    seed, folds, min_leaf = 3, 5, 4
    if case == "fold-constant":  # a last column that is 0 on every row but fold 0's
        d, _ = simulate_gtimm(300, seed)
        fold_of = group_stratified_folds(d.group_label, d.n, folds, seed)
        extra = np.random.default_rng(seed).normal(scale=5.0, size=d.n) * (fold_of == 0)
        d = d._with_yx(d.y, np.column_stack([d.X, extra]))
    elif case == "unstratified":  # 30 groups of about 4 rows: fewer than 5 folds
        d, _ = simulate_gtimm(120, seed, n_groups=30)
    else:
        d = sim2000[0]
    calls = {"_grow": [], "_leaf_nodes": []}
    for name in calls:
        def spy(*args, _fn=getattr(tree_module, name), _calls=calls[name]):
            _calls.append((args, _fn(*args)))
            return _calls[-1][1]
        monkeypatch.setattr(tree_module, name, spy)
    monkeypatch.setattr(Dataset, "take", lambda self, idx: pytest.fail("a Dataset per fold"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fold_of = group_stratified_folds(d.group_label, d.n, folds, seed)
        cv_leaf_scores(d, folds, range(1, 9), seed, min_leaf)
    monkeypatch.undo()
    assert any("unstratified" in str(w.message) for w in caught) == (case == "unstratified")
    assert len(calls["_grow"]) == 1 and len(calls["_leaf_nodes"]) == 1
    (X, y, roots, max_leaves, leaf_floor, features), block = calls["_grow"][0]
    assert X is d.X and y is d.y and (max_leaves, leaf_floor) == (8, min_leaf)
    assert features.tolist() == list(range(1, d.p))
    assert [r.tolist() for r in roots] == [np.flatnonzero(fold_of != k).tolist()
                                          for k in range(folds)]
    assert calls["_leaf_nodes"][0][0][-1] is d.X
    for k in range(folds):
        train = d.take(np.flatnonzero(fold_of != k))
        own = _grow(train.X, train.y, [np.arange(train.n)], 8, min_leaf, np.arange(1, d.p))
        for field in ("feature", "left", "n", "count", "depth"):
            np.testing.assert_array_equal(getattr(block, field)[k], getattr(own, field)[0])
        for field in ("threshold", "mean"):
            assert getattr(block, field)[k].tobytes() == getattr(own, field)[0].tobytes()
    assert block.count.min() > 1
    if case == "fold-constant":  # constant on fold 0's training rows only
        assert np.ptp(d.X[fold_of != 0, 3]) == 0 < np.ptp(d.X[:, 3])
        assert 3 not in block.feature[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_constant_column_grows_the_same_trees(seed):
    """A constant last column never splits: ``fit_tree`` and a forest
    without feature subsampling grow the same trees with and without it."""
    d, _ = simulate_gtimm(600, seed)
    wide = d._with_yx(d.y, np.column_stack([d.X, np.full(d.n, 2.5)]))
    assert fit_tree(wide, 8, 5).nodes == fit_tree(d, 8, 5).nodes
    a, b = (fit_forest(data, 6, 8, seed=seed, feature_subsample=False).trees
            for data in (d, wide))
    for field in GrownTrees._fields:
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_leaves_compare_equal_whatever_nan_they_hold():
    """Trees that differ only in which NaN a leaf was built with are equal;
    split thresholds still compare exactly."""
    split = TreeNode(feature=1, threshold=0.5, left=1, right=2)
    tree = RegressionTree((split, TreeNode(region=1), TreeNode(region=2)), 2)
    assert tree == RegressionTree((split, TreeNode(region=1, threshold=np.nan),
                                   TreeNode(region=2, threshold=float("nan"))), 2)
    moved = TreeNode(feature=1, threshold=np.nextafter(0.5, 1.0), left=1, right=2)
    assert tree != RegressionTree((moved, TreeNode(region=1), TreeNode(region=2)), 2)


def test_tree_text_round_trip(sim2000):
    d, _ = sim2000
    tree = fit_tree(d, max_leaves=5)
    back = tree_from_lines(tree_to_lines(tree))
    assert back.leaf_count == tree.leaf_count
    assert np.array_equal(back.route(d.X), tree.route(d.X))
    # the file keeps the routing and node sizes, every node field
    assert back.nodes == tree.nodes
