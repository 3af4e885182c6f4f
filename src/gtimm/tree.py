"""CART-style regression trees: the region partition, the members of the
forest baseline, and the trees of cross-validation.

Growth is greedy best-first: at every step the leaf whose best axis-aligned
split most reduces total within-leaf squared error is split, until the leaf
budget is reached or no split helps.  Split points are searched exactly over
midpoints of consecutive distinct values of columns 1..p-1 of X (column 0 is
the intercept; a constant column never splits).  Routing is deterministic:
a feature value less than or equal to the threshold goes left.

One kernel, :func:`_split_batch`, searches splits: it scores a batch of
segments (the rows of pending nodes) in a few numpy passes over all
candidate features at once.  A node keeps its rows once per feature,
sorted by that feature; these are the presorted attribute lists of SLIQ
(Mehta, Agrawal & Rissanen 1996) and SPRINT (Shafer et al. 1996).  A batch
stores its segments back to back.  Only X is sorted: a root filters that
order to its row ids, and children inherit their lists by a stable
partition of the parent's.  :func:`_grow` grows one tree per root in
lockstep (a forest's bootstrap samples, every cross-validation fold, or
:func:`fit_tree`'s one tree), each step splitting one node per tree and
scoring every new child in one kernel call.  Sums run per segment, so a
tree's splits never depend on the trees grown beside it.  A forest tree
draws all its nodes' feature subsets up front, one permuted stack per tree.
Growth keeps its state in arrays with one row per tree and one column per
node (:class:`GrownTrees`): each step pops every tree's best pending node
by an argmax over its pending gains, and every node's lists are a
contiguous range of one buffer, which its children split in place.

Terminal nodes are numbered 1..M in left-to-right order, giving the region
index that selects which fixed-effect coefficient vector applies.  The
minimum leaf size is a stopping rule of growth (Breiman et al. 1984): no
split is made that would leave a child with fewer rows.

One function, :func:`_leaf_nodes`, routes every tree, a level per pass: a
frozen :class:`RegressionTree` (the GTIMM tree), the forest's members (the
single-tree baseline is a forest of one) and cross-validation's block, whose
nodes' least squares come from the fit's kernel, :func:`_cell_grams` and a
pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, group_stratified_folds
from .errors import GtimmError

_GAIN_EPS = 1e-12
_BATCH = 4096  # most row ids per feature one kernel call scores; bounds its temporaries


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1  # X column index; -1 marks a leaf
    threshold: float = float("nan")
    left: int = -1
    right: int = -1
    region: int = 0  # 1..M for leaves, 0 for internal nodes
    n: int = 0

    def __post_init__(self):  # every leaf holds the one default NaN, so equal leaves compare equal
        if self.feature < 0:
            object.__setattr__(self, "threshold", TreeNode.threshold)


@dataclass(frozen=True)
class RegressionTree:
    nodes: tuple[TreeNode, ...]
    leaf_count: int
    # _leaf_nodes' arguments for this tree, and each node's region
    _walk: tuple = field(init=False, repr=False, compare=False)
    _region: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        regions = sorted(nd.region for nd in self.nodes if nd.feature < 0)
        if not self.nodes or regions != list(range(1, self.leaf_count + 1)):
            raise GtimmError("leaf regions must be a bijection with {1..M}")
        # one tree rooted at node 0: children follow their parent, and every
        # other node has exactly one parent
        parents, level = [0] * len(self.nodes), [0] * len(self.nodes)
        for i, nd in enumerate(self.nodes):
            if nd.feature >= 0:
                for child in (nd.left, nd.right):
                    if not i < child < len(self.nodes):
                        raise GtimmError(f"node {i} has child {child} out of order or range")
                    parents[child] += 1
                    level[child] = level[i] + 1
        if any(count != 1 for count in parents[1:]):
            raise GtimmError("every node but the root must have exactly one parent")
        order = [0]  # the walk's ids, breadth-first: split k's children are 2k+1, 2k+2
        for i in order:  # grows as it is read; older model files list nodes in preorder
            if self.nodes[i].feature >= 0:
                order += [self.nodes[i].left, self.nodes[i].right]
        feature, threshold, region = (np.array([getattr(self.nodes[i], a) for i in order])
                                      for a in ("feature", "threshold", "region"))
        left = np.where(feature >= 0, 2 * np.cumsum(feature >= 0) - 1, -1)
        object.__setattr__(self, "_walk", (feature[None], threshold[None], left[None], max(level)))
        object.__setattr__(self, "_region", region)

    def route(self, X: np.ndarray) -> np.ndarray:
        """Region index (1..M) for every row of X."""
        return self._region.take(_leaf_nodes(*self._walk, np.asarray(X, dtype=float))[0])


@dataclass(frozen=True)
class RegionAssignment:
    region: np.ndarray  # (N,) in {1..M}
    counts: np.ndarray  # (M,)

    def __post_init__(self):
        region = np.asarray(self.region, dtype=int)
        counts = np.asarray(self.counts, dtype=int)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != region.shape[0]:
            raise GtimmError("region counts must sum to N")

    @property
    def n_regions(self) -> int:
        return self.counts.shape[0]


def _split_batch(cols, y, lists, sizes, min_leaf, allowed=None):
    """Best split of every segment of a batch: the split search kernel.

    ``cols`` (F, n) holds the candidate features by row id.  ``lists``
    (F, sizes.sum()) holds the segments' row ids back to back; within a
    segment, row k is sorted by ``cols[k]``.  ``allowed`` (S, F), when
    given, marks the features each segment may split on.

    Returns per segment ``(feature, gain, threshold)``.  A gain is the SSE
    reduction, from prefix sums of the response centered within the
    segment.  Per-segment values reach the entries by ``np.repeat``, but
    each segment keeps its own scan, so its gains depend on its own rows
    alone, never on its batch.  ``feature`` is -1 where no split leaves
    both children ``min_leaf`` rows and gains more than
    ``_GAIN_EPS * max(1, SSE)``.  Gains within that margin of the best are
    ties; ties go to the lowest feature, then to the smallest threshold.
    """
    n_seg, (n_feat, total) = sizes.size, lists.shape
    head = np.cumsum(sizes) - sizes
    size = np.repeat(sizes.astype(float), sizes)  # counts as floats: exact, and faster to divide
    n_left = np.arange(1.0, total + 1) - np.repeat(head, sizes)
    n_right = size - n_left
    # gain = (left sum - sum * n_left / size)^2 * size / (n_left * n_right)
    frac = n_left / size
    scale = np.where((n_left >= min_leaf) & (n_right >= min_leaf),
                     size / np.maximum(n_left * n_right, 1.0), 0.0)
    y0 = y.take(lists[0])
    mean = np.repeat(np.add.reduceat(y0, head) / sizes, sizes)
    centered = y0 - mean
    sse = np.add.reduceat(centered * centered, head)
    tol = _GAIN_EPS * np.maximum(1.0, sse)

    v = cols.take(lists + (np.arange(n_feat) * cols.shape[1])[:, None])
    # a segment's last entry meets the next segment's first here; its scale is 0
    distinct = np.zeros(v.shape, dtype=bool)
    np.not_equal(v[:, :-1], v[:, 1:], out=distinct[:, :-1])
    if allowed is not None:
        distinct &= np.repeat(allowed.T, sizes, axis=1)
    gain = y.take(lists)
    gain -= mean
    for a, b in zip(head.tolist(), (head + sizes).tolist()):
        np.add.accumulate(gain[:, a:b], axis=1, out=gain[:, a:b])
    gain -= np.repeat(gain[:, head + sizes - 1], sizes, axis=1) * frac
    np.square(gain, out=gain)
    gain *= scale
    gain *= distinct
    top = np.maximum.reduceat(gain, head, axis=1)  # (F, S)
    tied = gain >= np.repeat(top - tol, sizes, axis=1)
    rank = total - np.arange(total)  # falls along the batch
    pos = total - np.maximum.reduceat(tied * rank, head, axis=1)
    best = top.max(axis=0)
    pick = np.argmax(top >= best - tol, axis=0)  # the lowest tied feature
    at = np.arange(n_seg)
    pos, gain = pos[pick, at], top[pick, at]
    feature = np.where(best > tol, pick, -1)

    threshold = np.full(n_seg, np.nan)
    split = feature >= 0
    f, p = feature[split], pos[split]
    lo, hi = cols[f, lists[f, p]], cols[f, lists[f, p + 1]]
    mid = 0.5 * (lo + hi)
    threshold[split] = np.where(mid < hi, mid, lo)  # a midpoint rounded up to hi would send hi left
    return feature, gain, threshold


def _partition(cols, lists, sizes, feature, threshold):
    """Split every segment of a batch in two, stably in every row of
    ``lists``: rows with ``cols[feature] <= threshold`` (the segment's)
    first.  Returns the children's lists, back to back (left, right,
    segment by segment), and their sizes.  A stable partition by
    per-segment left counts, with no sort: each row keeps its left entries,
    then its right ones, and one index, shared by all rows since a
    segment's left count is the same in each, moves every child into place."""
    head = np.cumsum(sizes) - sizes
    left = (cols.take(np.repeat(feature * cols.shape[1], sizes) + lists)
            <= np.repeat(threshold, sizes))
    n_left = np.add.reduceat(left[0], head)
    kept = np.concatenate([lists[left].reshape(lists.shape[0], -1),
                           lists[~left].reshape(lists.shape[0], -1)], axis=1)
    before = np.cumsum(n_left) - n_left  # left entries of earlier segments
    src = np.column_stack([before, n_left.sum() + head - before]).ravel()  # children in kept
    child_sizes = np.column_stack([n_left, sizes - n_left]).ravel()
    shift = np.repeat(src - (np.cumsum(child_sizes) - child_sizes), child_sizes)
    return kept.take(shift + np.arange(lists.shape[1]), axis=1), child_sizes


def _chunks(sizes):
    """Consecutive runs of segments whose sizes total at most _BATCH
    entries (or one segment, when it alone is larger)."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total and total + size > _BATCH:
            yield start, i
            start, total = i, 0
        total += size
    yield start, len(sizes)


class GrownTrees(NamedTuple):
    """Trees of one growth as node arrays, row t for tree t and column k
    for its node k.  A split node's children are ``left`` and ``left + 1``;
    slots past a tree's ``count`` nodes are unused."""

    feature: np.ndarray  # (T, K) X column a split node tests; -1 for a leaf
    threshold: np.ndarray  # (T, K) NaN for a leaf
    left: np.ndarray  # (T, K) -1 for a leaf
    n: np.ndarray  # (T, K) rows of a node
    mean: np.ndarray  # (T, K) a leaf's mean response; NaN for a split node
    count: np.ndarray  # (T,) nodes of each tree
    depth: np.ndarray  # (T,) levels below each root: the passes of its routing


def _grow(X, y, roots, max_leaves, min_leaf, features, rngs=None, mtry=None) -> GrownTrees:
    """Best-first growth of one tree per root, all in lockstep.

    ``roots[t]`` holds tree t's row ids of X; a bootstrap sample repeats
    some.  ``features`` are the candidate columns.  With ``mtry`` and one
    generator per tree in ``rngs``, node k may split on ``mtry`` of them,
    row k of one permuted stack a tree draws up front (forest mode): the
    same draws as one permutation per node in creation order.

    The state is a few (trees, 2*max_leaves-1) arrays, one column per node,
    and one int32 buffer that holds every tree's presorted lists.  A node
    owns a contiguous range of the buffer, and its children split that
    range, left child first.  Each step pops, for every unfinished tree,
    the argmax of its pending gains (-inf where no split is pending), so
    equal gains pop the lowest node id: the older node.  The popped ranges
    are gathered through one index (a slice when a batch holds one range),
    partitioned by :func:`_partition` and written back, and the new
    children are scored with :func:`_split_batch`, at most ``_BATCH`` row
    ids per call.  The k-th pop (from 0) makes nodes 2k+1 and 2k+2, so the
    first 2m-1 nodes are the tree grown to m leaves.

    Leaf means are taken after growth.  No split moves a leaf's range, so
    it still holds the leaf's rows in the order of its parent's split
    feature; they are summed in that order, as rows of one array per leaf
    size, and a root leaf takes the mean over ``roots[t]``.
    """
    if max_leaves < 1:
        raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    n_trees, n_feat = len(roots), features.size
    width = 2 * max_leaves - 1  # nodes of a tree with max_leaves leaves
    feature = np.full((n_trees, width), -1)
    threshold = np.full((n_trees, width), np.nan)
    left = np.full((n_trees, width), -1)
    n = np.zeros((n_trees, width), dtype=int)
    n[:, 0] = [rows.size for rows in roots]
    mean = np.full((n_trees, width), np.nan)
    count = np.ones(n_trees, dtype=int)
    level = np.zeros_like(n)  # of each node
    if max_leaves <= 1 or n_feat == 0:
        mean[:, 0] = [y[rows].mean() for rows in roots]
        return GrownTrees(feature, threshold, left, n, mean, count, level[:, 0])
    start = np.zeros_like(n)  # a node's range in the buffer
    start[:, 0] = np.cumsum(n[:, 0]) - n[:, 0]
    best = np.zeros_like(n)  # the row of cols of a node's best split
    via = np.zeros_like(n)  # the parent's split feature: a node's summing order
    gain = np.full((n_trees, width), -np.inf)  # of the pending splits
    cols = np.ascontiguousarray(X[:, features].T)
    buf = np.empty((n_feat, n[:, 0].sum()), dtype=np.int32)

    allow = None  # (trees, nodes, features): the features node k of tree t may split on
    if mtry is not None and mtry < n_feat:
        allow = np.zeros((n_trees, width, n_feat), dtype=bool)
        draws = [rng.permuted(np.tile(np.arange(n_feat), (width, 1)), axis=1) for rng in rngs]
        np.put_along_axis(allow, np.array(draws)[:, :, :mtry], True, axis=2)

    def score(lists, sizes, t, k):
        """Queue the best splits of new nodes k of trees t."""
        f, g, thr = _split_batch(cols, y, lists, sizes, min_leaf,
                                 None if allow is None else allow[t, k])
        best[t, k], threshold[t, k], gain[t, k] = f, thr, np.where(f >= 0, g, -np.inf)

    # the only sort: a root's list repeats each row of X's order by its count
    order = np.argsort(cols, axis=1, kind="stable").astype(np.int32)
    for a, b in _chunks(n[:, 0]):
        for t in range(a, b):
            counts = np.bincount(roots[t], minlength=X.shape[0])
            buf[:, start[t, 0]:start[t, 0] + n[t, 0]] = [np.repeat(o, counts[o]) for o in order]
        score(buf[:, start[a, 0]:start[b - 1, 0] + n[b - 1, 0]], n[a:b, 0],
              np.arange(a, b), np.zeros(b - a, dtype=int))
    while True:
        t = np.flatnonzero((count < width) & (gain.max(axis=1) > -np.inf))
        if t.size == 0:
            break
        k = gain[t].argmax(axis=1)
        gain[t, k] = -np.inf
        f, at, size = best[t, k], start[t, k], n[t, k]
        feature[t, k] = features[f]
        left[t, k] = count[t]
        count[t] += 2
        unfinished = count[t] < width
        kid_t, kid = np.repeat(t, 2), np.repeat(left[t, k], 2)
        kid[1::2] += 1
        via[kid_t, kid] = np.repeat(f, 2)
        level[kid_t, kid] = np.repeat(level[t, k] + 1, 2)
        for a, b in _chunks(size):
            shift = at[a:b] - (np.cumsum(size[a:b]) - size[a:b])  # batch to buffer position
            span = (slice(at[a], at[a] + size[a]) if b - a == 1 else  # one range: no index
                    np.repeat(shift, size[a:b]) + np.arange(size[a:b].sum()))
            # take: 2-D fancy indexing is several times slower
            lists = buf[:, span] if b - a == 1 else buf.take(span, axis=1)
            lists, sizes = _partition(cols, lists, size[a:b], f[a:b], threshold[t[a:b], k[a:b]])
            for row, part in zip(buf, lists):
                row[span] = part
            c = slice(2 * a, 2 * b)
            n[kid_t[c], kid[c]] = sizes
            start[kid_t[c], kid[c]] = np.cumsum(sizes) - sizes + np.repeat(shift, 2)
            if unfinished[a:b].any():
                score(lists, sizes, kid_t[c], kid[c])

    t, k = np.nonzero((left < 0) & (np.arange(width) < count[:, None]))
    at, m = via[t, k] * buf.shape[1] + start[t, k], n[t, k]  # leaf ranges in the flat buffer
    for size in np.unique(m).tolist():  # a row of a 2-D sum adds up as a 1-D sum does
        s = m == size
        mean[t[s], k[s]] = y.take(buf.take(at[s][:, None] + np.arange(size))).sum(axis=1) / size
    mean[t[k == 0], 0] = [y[roots[i]].mean() for i in t[k == 0].tolist()]
    threshold[left < 0] = np.nan
    return GrownTrees(feature, threshold, left, n, mean, count, level.max(axis=1))


def _leaf_nodes(feature, threshold, left, depth, X: np.ndarray) -> np.ndarray:
    """(T, N) id of the leaf every row of X reaches in each of T trees, given
    as (T, K) node arrays (children ``left`` and ``left + 1``, ``feature`` < 0
    at a leaf) and (T,) depths.  Each pass moves every (tree, row) pair one
    level down, to ``right - (x[feature] <= threshold)``, for exactly the
    deepest tree's depth: a leaf is its own right child with a NaN threshold,
    which x (NaN too) never passes.  The first pass reads each root's column
    of X, the others X row-major through one flat index."""
    (n_trees, width), (n_rows, p) = feature.shape, X.shape
    if feature.max() >= p:
        raise GtimmError(f"tree references feature column {feature.max()}, X has {p}")
    split = feature >= 0
    root = np.arange(0, n_trees * width, width)[:, None]  # in the flat node arrays
    right = (np.where(split, left + 1, np.arange(width)) + root).ravel()
    col = np.where(split, feature, 0).ravel()
    thr = np.where(split, threshold, np.nan).ravel()
    # take: faster than fancy indexing for these gathers
    node = right.take(root) - (X.T[col.take(root[:, 0])] <= thr.take(root))
    x, at = np.ravel(X), np.arange(0, n_rows * p, p)  # where each row starts in x
    for _ in range(int(np.max(depth)) - 1):
        node = right.take(node) - (x.take(col.take(node) + at) <= thr.take(node))
    return node - root


def _finalize(grown: GrownTrees) -> RegressionTree:
    """Freeze the first tree of a growth; leaves numbered 1..M by
    left-to-right traversal."""
    feature, threshold, left, n = (a[0].tolist() for a in grown[:4])
    out: list[TreeNode | None] = [None] * int(grown.count[0])
    region = 0

    def visit(k):
        nonlocal region
        if feature[k] < 0:
            region += 1
            out[k] = TreeNode(region=region, n=n[k])
            return
        out[k] = TreeNode(feature=feature[k], threshold=threshold[k], left=left[k],
                          right=left[k] + 1, n=n[k])
        visit(left[k])
        visit(left[k] + 1)

    visit(0)
    return RegressionTree(tuple(out), region)


def fit_tree(d: Dataset, max_leaves: int, min_leaf: int = 10) -> RegressionTree:
    """Grow a regression tree on y against columns 1..p-1 of X; a constant
    column never splits.  Stops at ``max_leaves`` leaves or when no split
    reduces the total SSE.  Every leaf holds at least ``min_leaf``
    observations; when N < 2*min_leaf the single-leaf tree is returned.
    """
    return _finalize(_grow(d.X, d.y, [np.arange(d.n)], max_leaves, min_leaf, np.arange(1, d.p)))


def assign_regions(tree: RegressionTree, X: np.ndarray) -> RegionAssignment:
    """Route every row of X to its terminal-node region."""
    region = tree.route(X)
    counts = np.bincount(region, minlength=tree.leaf_count + 1)[1:]
    return RegionAssignment(region, counts)


def _cell_grams(X: np.ndarray, key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, p, p) mean Gram matrices of the rows of X in each cell of
    ``key`` (0-based cell ids), and the (size,) row counts; an empty cell
    gets a zero matrix.  Each entry is one weighted ``np.bincount``."""
    p = X.shape[1]
    counts = np.bincount(key, minlength=size)
    gram = np.empty((size, p, p))
    for a in range(p):
        for b in range(a, p):
            gram[:, a, b] = gram[:, b, a] = np.bincount(key, X[:, a] * X[:, b], minlength=size)
    return gram / np.maximum(counts, 1)[:, None, None], counts


def cv_leaf_scores(
    d: Dataset,
    folds: int,
    candidates,
    seed,
    min_leaf: int = 10,
) -> dict[int, np.ndarray]:
    """Per-fold out-of-fold errors of per-leaf linear fits, per candidate.

    Folds are group-stratified so every fold contains every random-effect
    group (falls back to unstratified folds with a warning when a group is
    smaller than the fold count).  Best-first growth is nested, so one
    lockstep block grows every fold's tree to the largest candidate from the
    fold's training row ids of ``d``, and one routing of ``d.X`` gives every
    row its leaf in each.  Every node's Gram matrix of [x y] adds up its
    leaves' (children have larger ids than parents), and its fit is the
    fit's own minimum-norm least squares, P times the mean of x y.
    Candidate m's tree is the first 2m-1 nodes, so a row's leaf there is
    its deepest ancestor below 2m-1.
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if any(c < 1 for c in candidates):
        raise ValueError("every candidate must be >= 1")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if folds > d.n:
        raise ValueError(f"folds ({folds}) must not exceed the number of observations ({d.n})")
    fold_of = group_stratified_folds(d.group_label, d.n, folds, seed)
    trains = [np.flatnonzero(fold_of != k) for k in range(folds)]
    grown = _grow(d.X, d.y, trains, candidates[-1], min_leaf, np.arange(1, d.p))
    nodes = _leaf_nodes(*grown[:3], grown.depth, d.X)  # (folds, N)
    xy = np.column_stack([d.X, d.y])
    errs = np.empty((len(candidates), folds))
    for k, train in enumerate(trains):
        count, left = int(grown.count[k]), grown.left[k]
        inner = np.flatnonzero(left[:count] >= 0)
        gram, n = _cell_grams(xy[train], nodes[k, train], count)
        sums = gram * n[:, None, None]
        for i in inner[::-1].tolist():  # children before parents
            sums[i] = sums[left[i]] + sums[left[i] + 1]
            n[i] = n[left[i]] + n[left[i] + 1]
        mean = sums / n[:, None, None]
        beta = np.linalg.pinv(mean[:, :-1, :-1], hermitian=True) @ mean[:, :-1, -1:]
        test = np.flatnonzero(fold_of == k)
        node, X, y = nodes[k, test], d.X[test], d.y[test]
        for j, m in enumerate(candidates):
            leaf = np.arange(count)  # each node's leaf in candidate m's tree
            for i in inner.tolist():  # parents before children
                if left[i] >= 2 * m - 1:
                    leaf[left[i]:left[i] + 2] = leaf[i]
            pred = (X * beta[leaf[node], :, 0]).sum(axis=1)
            errs[j, k] = np.mean((y - pred) ** 2)
    return dict(zip(candidates, errs))


def select_leaves_cv(
    d: Dataset,
    folds: int,
    candidates,
    seed,
    min_leaf: int = 10,
) -> int:
    """Choose the number of terminal nodes by k-fold cross-validation.

    Each candidate tree is scored by the out-of-fold squared error of its
    per-leaf linear fits (the fixed-effect structure the tree will carry),
    and the smallest candidate within one standard error of the best score
    is returned; exact ties also break toward fewer leaves.
    """
    return one_se_rule(cv_leaf_scores(d, folds, candidates, seed, min_leaf))


def one_se_rule(fold_errors: dict[int, np.ndarray]) -> int:
    """Smallest candidate whose mean fold error is within one standard error
    of the best mean; exact ties also break toward fewer leaves."""
    means = {m: float(v.mean()) for m, v in fold_errors.items()}
    best = min(fold_errors, key=lambda m: (means[m], m))
    se = float(fold_errors[best].std(ddof=1) / np.sqrt(fold_errors[best].size))
    threshold = means[best] + se
    return min(m for m in fold_errors if means[m] <= threshold)


def tree_to_lines(tree: RegressionTree) -> list[str]:
    """One line per node: the routing and node sizes, without leaf means."""
    lines = []
    for i, nd in enumerate(tree.nodes):
        if nd.feature < 0:
            lines.append(f"node {i} leaf region={nd.region} n={nd.n}")
        else:
            lines.append(
                f"node {i} split feature={nd.feature} threshold={nd.threshold!r} "
                f"left={nd.left} right={nd.right} n={nd.n}"
            )
    return lines


def tree_from_lines(lines) -> RegressionTree:
    """Inverse of :func:`tree_to_lines`; a leaf ``mean=`` is ignored."""
    nodes = []
    leaf_count = 0
    for line in lines:
        parts = line.split()
        if len(parts) < 3 or parts[0] != "node":
            raise GtimmError(f"bad tree line: {line!r}")
        kv = dict(part.split("=", 1) for part in parts[3:])
        if parts[2] == "leaf":
            leaf_count += 1
            nodes.append(TreeNode(region=int(kv["region"]), n=int(kv["n"])))
        elif parts[2] == "split":
            if not np.isfinite(float(kv["threshold"])):
                raise GtimmError(f"non-finite threshold in tree line: {line!r}")
            nodes.append(TreeNode(feature=int(kv["feature"]), threshold=float(kv["threshold"]),
                                  left=int(kv["left"]), right=int(kv["right"]), n=int(kv["n"])))
        else:
            raise GtimmError(f"unknown node kind in: {line!r}")
    return RegressionTree(tuple(nodes), leaf_count)
