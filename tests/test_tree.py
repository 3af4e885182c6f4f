from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtimm import Dataset, assign_regions, fit_tree, select_leaves_cv
from gtimm.errors import GtimmError
from gtimm.tree import _spans, _split_batch, cv_leaf_scores, tree_from_lines, tree_to_lines

from conftest import region_mismatches


def dataset_from_xy(x, y, q=2, seed=0):
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    X = np.column_stack([np.ones(x.shape[0]), x])
    g = np.concatenate([[1, 2], rng.integers(1, q + 1, x.shape[0] - 2)])
    Z = np.zeros((x.shape[0], q))
    Z[np.arange(x.shape[0]), g - 1] = 1.0
    return Dataset(np.asarray(y, dtype=float), X, Z, g)


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
    bit for bit: the other segments of a batch never enter its sums."""
    X, y, segments, min_leaf, allowed = batch
    sizes = np.array([rows.size for rows in segments])
    span, head = _spans(sizes)
    lists = np.zeros((X.shape[1], span.sum()), dtype=np.int32)
    for rows, at in zip(segments, head):
        for f in range(X.shape[1]):
            lists[f, at:at + rows.size] = rows[np.argsort(X[rows, f], kind="stable")]
    feature, n_left, gain, threshold = _split_batch(X.T.copy(), y, lists, sizes, min_leaf,
                                                    allowed)
    picks = np.column_stack([feature, n_left, gain, threshold])
    for s, rows in enumerate(segments):
        alone = _split_batch(X.T.copy(), y, lists[:, head[s]:head[s] + span[s]], sizes[s:s + 1],
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
        assert n_left[s] == left and min(left, rows.size - left) >= min_leaf


def test_constant_response_single_leaf():
    rng = np.random.default_rng(1)
    d = dataset_from_xy(rng.normal(size=(80, 2)), np.full(80, 3.5))
    tree = fit_tree(d, max_leaves=8, min_leaf=2)
    assert tree.leaf_count == 1
    assert tree.nodes[0].leaf_mean == pytest.approx(3.5)


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
    tree = fit_tree(d, max_leaves=4)
    assign = assign_regions(tree, d.X)
    # leaf bookkeeping recorded during growth must agree with re-routing
    for nd in tree.nodes:
        if nd.feature < 0:
            rows = assign.region == nd.region
            assert int(rows.sum()) == nd.n
            assert d.y[rows].mean() == pytest.approx(nd.leaf_mean, rel=1e-12)


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


def test_cv_scores_shape(sim2000):
    d, _ = sim2000
    scores = cv_leaf_scores(d, 4, [1, 4], seed=2)
    assert set(scores) == {1, 4}
    assert all(v.shape == (4,) for v in scores.values())
    assert scores[4].mean() < scores[1].mean()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tree_text_round_trip(sim2000):
    d, _ = sim2000
    tree = fit_tree(d, max_leaves=5)
    back = tree_from_lines(tree_to_lines(tree))
    assert back.leaf_count == tree.leaf_count
    assert np.array_equal(back.route(d.X), tree.route(d.X))
    for a, b in zip(tree.nodes, back.nodes):
        assert a == b
