"""CART-style regression trees: the region partition, and the members of
the forest baseline.

Growth is greedy best-first: at every step the leaf whose best axis-aligned
split most reduces total within-leaf squared error is split, until the leaf
budget is reached or no split helps.  Split points are searched exactly over
midpoints of consecutive distinct feature values.  Routing is deterministic:
a feature value less than or equal to the threshold goes left.

One kernel, :func:`_split_batch`, searches splits: it scores a batch of
segments (the rows of pending nodes) in a few numpy passes over all
candidate features at once.  A node keeps its rows once per feature,
sorted by that feature; these are the presorted attribute lists of SLIQ
(Mehta, Agrawal & Rissanen 1996) and SPRINT (Shafer et al. 1996).  Only
the root is sorted: children inherit their lists by a stable partition of
the parent's.  :func:`_grow` grows several trees in lockstep, each step
splitting one node per tree and scoring every new child in one kernel
call; a single tree is the case of one.  Sums run per segment, so a tree's
splits never depend on the trees grown beside it.

Terminal nodes are numbered 1..M in left-to-right order, giving the region
index that selects which fixed-effect coefficient vector applies.  The
minimum leaf size is a stopping rule of growth (Breiman et al. 1984): no
split is made that would leave a child with fewer rows, so no leaf has to
be repaired after growth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .data import Dataset, group_stratified_folds
from .errors import GtimmError, NumericalError

_GAIN_EPS = 1e-12
_ROW = 16  # entries per row of a batch's layout
_BATCH = 4096  # most row ids per feature one kernel call scores; bounds its temporaries


def ols_solve(X: np.ndarray, y: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    """Least squares via normal equations, ridge-damped if singular."""
    XtX = X.T @ X
    Xty = X.T @ y
    try:
        beta = np.linalg.solve(XtX, Xty)
        if np.all(np.isfinite(beta)):
            return beta
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(XtX + ridge * np.eye(X.shape[1]), Xty)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("normal equations singular even after ridge damping") from exc


@dataclass(frozen=True)
class TreeNode:
    feature: int = -1  # X column index; -1 marks a leaf
    threshold: float = float("nan")
    left: int = -1
    right: int = -1
    region: int = 0  # 1..M for leaves, 0 for internal nodes
    leaf_mean: float = float("nan")
    n: int = 0


@dataclass(frozen=True)
class RegressionTree:
    nodes: tuple[TreeNode, ...]
    leaf_count: int

    def __post_init__(self):
        regions = sorted(nd.region for nd in self.nodes if nd.feature < 0)
        if not self.nodes or regions != list(range(1, self.leaf_count + 1)):
            raise GtimmError("leaf regions must be a bijection with {1..M}")
        # one tree rooted at node 0: children follow their parent, and every
        # other node has exactly one parent
        parents = [0] * len(self.nodes)
        for i, nd in enumerate(self.nodes):
            if nd.feature >= 0:
                for child in (nd.left, nd.right):
                    if not i < child < len(self.nodes):
                        raise GtimmError(f"node {i} has child {child} out of order or range")
                    parents[child] += 1
        if any(count != 1 for count in parents[1:]):
            raise GtimmError("every node but the root must have exactly one parent")

    def route(self, X: np.ndarray) -> np.ndarray:
        """Region index (1..M) for every row of X."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0], dtype=int)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node_id, rows = stack.pop()
            nd = self.nodes[node_id]
            if nd.feature < 0:
                out[rows] = nd.region
                continue
            if nd.feature >= X.shape[1]:
                raise GtimmError(
                    f"tree references feature column {nd.feature}, X has {X.shape[1]}"
                )
            mask = X[rows, nd.feature] <= nd.threshold
            stack.append((nd.left, rows[mask]))
            stack.append((nd.right, rows[~mask]))
        return out

    def leaf_means(self) -> np.ndarray:
        """Leaf means ordered by region index."""
        means = np.empty(self.leaf_count)
        for nd in self.nodes:
            if nd.feature < 0:
                means[nd.region - 1] = nd.leaf_mean
        return means


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


def _spans(sizes):
    """Padded length and start of every segment of a batch's layout: a
    segment takes whole rows of ``_ROW`` entries, its rows first, then
    padding."""
    span = -(-sizes // _ROW) * _ROW
    return span, np.cumsum(span) - span


def _layout(sizes):
    """Grid view of a batch's layout: segment s fills rows ``first[s]:
    first[s] + rows[s]`` of an (R, _ROW) grid, and ``offset`` (R, _ROW)
    counts the entries ahead of each cell in its segment."""
    span, head = _spans(sizes)
    rows, first = span // _ROW, head // _ROW
    row_seg = np.repeat(np.arange(sizes.size), rows)
    offset = (np.arange(row_seg.size) - first[row_seg])[:, None] * _ROW + np.arange(_ROW)
    return rows, first, row_seg, offset


def _split_batch(cols, y, lists, sizes, min_leaf, allowed=None):
    """Best split of every segment of a batch: the split search kernel.

    ``cols`` (F, n) holds the candidate features by row id.  ``lists``
    (F, R * _ROW) holds row ids in the :func:`_layout` of ``sizes``; within
    a segment, row k is sorted by ``cols[k]``.  ``allowed`` (S, F), when
    given, marks the features each segment may split on.

    Returns per segment ``(feature, n_left, gain, threshold)``: the left
    child takes the first ``n_left`` rows of ``lists[feature]``.  A gain is
    the SSE reduction, from prefix sums of the response centered within
    the segment; the sums run along grid rows, each offset by the sums of
    its segment's earlier rows, so a segment's gains depend on its own rows
    alone.  ``feature`` is -1 where no split leaves both children
    ``min_leaf`` rows and gains more than ``_GAIN_EPS * max(1, SSE)``.
    Gains within that margin of the best are ties; ties go to the lowest
    feature, then to the smallest threshold.
    """
    n_seg, n_feat = sizes.size, cols.shape[0]
    rows, first, row_seg, offset = _layout(sizes)
    size = sizes[row_seg][:, None]
    n_left = offset + 1
    n_right = size - n_left
    # gain = (left sum - sum * n_left / size)^2 * size / (n_left * n_right)
    frac = n_left / size
    scale = np.where((n_left >= min_leaf) & (n_right >= min_leaf),
                     size / np.maximum(n_left * n_right, 1), 0.0)
    real = n_right >= 0
    head = first * _ROW
    y0 = np.where(real, y.take(lists[0]).reshape(-1, _ROW), 0.0)
    mean = (np.add.reduceat(y0.sum(axis=1), first) / sizes)[row_seg][:, None]
    centered = np.where(real, y0 - mean, 0.0)
    sse = np.add.reduceat((centered * centered).sum(axis=1), first)
    tol = _GAIN_EPS * np.maximum(1.0, sse)

    v = cols.take(lists + (np.arange(n_feat) * cols.shape[1])[:, None])
    distinct = np.zeros(v.shape, dtype=bool)
    np.not_equal(v[:, :-1], v[:, 1:], out=distinct[:, :-1])
    if allowed is not None:
        distinct &= np.repeat(allowed.T, rows * _ROW, axis=1)
    sums = y.take(lists).reshape(n_feat, -1, _ROW)
    sums -= mean
    sums.cumsum(axis=2, out=sums)
    width = int(rows.max()) + 1
    slot = row_seg * width + np.arange(row_seg.size) - first[row_seg]
    before = np.zeros((n_feat, n_seg * width))
    before[:, slot + 1] = sums[:, :, -1]
    sums += before.reshape(n_feat, n_seg, width).cumsum(axis=2).reshape(n_feat, -1)[:, slot, None]
    total = sums.reshape(n_feat, -1)[:, head + sizes - 1]
    sums -= total[:, row_seg, None] * frac
    np.square(sums, out=sums)
    sums *= scale
    gain = sums.reshape(n_feat, -1)
    gain *= distinct
    top = np.maximum.reduceat(gain, head, axis=1)  # (F, S)
    tied = gain.reshape(n_feat, -1, _ROW) >= (top - tol)[:, row_seg, None]
    rank = gain.shape[1] - np.arange(gain.shape[1])  # falls along the batch
    pos = gain.shape[1] - np.maximum.reduceat(tied.reshape(n_feat, -1) * rank, head, axis=1)
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
    return feature, np.where(split, pos - head + 1, 0), gain, threshold


def _partition(cols, lists, sizes, feature, threshold):
    """Split every segment of a batch in two, stably in every row of
    ``lists``: rows with ``cols[feature] <= threshold`` (the segment's)
    first.  Returns the children's lists, in the :func:`_layout` of their
    sizes (left, right, segment by segment), and those sizes."""
    n_feat = lists.shape[0]
    _, first, row_seg, offset = _layout(sizes)
    real = offset < sizes[row_seg][:, None]
    at = (feature * cols.shape[1])[row_seg][:, None]  # the split column in cols.ravel()
    left = (cols.take(at + lists.reshape(n_feat, -1, _ROW)) <= threshold[row_seg][:, None]) & real
    head = first * _ROW
    n_left = np.add.reduceat(left[0].ravel(), head)
    child_sizes = np.column_stack([n_left, sizes - n_left]).ravel()
    span, c_head = _spans(child_sizes)
    ahead = np.cumsum(left.reshape(n_feat, -1), axis=1) - left.reshape(n_feat, -1)
    rank = ahead.reshape(left.shape) - ahead[:, head][:, row_seg, None]  # left rows ahead in the segment
    dest = np.where(left, c_head[0::2][row_seg][:, None] + rank,
                    c_head[1::2][row_seg][:, None] + offset - rank)
    dest[:, ~real] = span.sum()  # padding lands in a spare last slot
    out = np.zeros((n_feat, span.sum() + 1), dtype=lists.dtype)
    out[np.arange(n_feat)[:, None], dest.reshape(n_feat, -1)] = lists
    return out[:, :-1], child_sizes


def _chunks(spans):
    """Consecutive runs of segments whose spans total at most _BATCH
    entries (or one segment, when it alone is larger)."""
    start, total = 0, 0
    for i, span in enumerate(spans):
        if total and total + span > _BATCH:
            yield start, i
            start, total = i, 0
        total += span
    yield start, len(spans)


def _grow(X, y, roots, max_leaves, min_leaf, features, rngs=None, mtry=None):
    """Best-first growth of one tree per root, all in lockstep.

    ``roots[t]`` holds tree t's row ids of X; a bootstrap sample repeats
    some.  ``features`` are the candidate columns.  With ``mtry`` and one
    generator per tree in ``rngs``, every node draws ``mtry`` of them
    (forest mode), one permutation per node in creation order.  Each step
    pops the best pending node of every unfinished tree, partitions the
    popped nodes' presorted lists, and scores the new children with
    :func:`_split_batch`, at most ``_BATCH`` entries per call.

    Returns one node list per tree.  Every node carries its row count "n"
    and mean response "mean"; a split node also "feature", "threshold",
    "left" and "right".  The k-th pop (from 0) makes nodes 2k+1 and 2k+2,
    so the first 2m-1 nodes are the tree grown to m leaves.
    """
    n_feat = features.size
    trees = [[{"n": rows.size, "mean": float(y[rows].mean())}] for rows in roots]
    if max_leaves <= 1 or n_feat == 0:
        return trees
    cols = np.ascontiguousarray(X[:, features].T)
    order = np.argsort(cols, axis=1, kind="stable").astype(np.int32)
    heaps = [[] for _ in roots]
    seq = [0] * len(roots)  # per-tree push count: equal gains pop oldest first
    leaves = [1] * len(roots)

    def score(lists, sizes, pending):
        """Score a batch of new nodes; queue those that can split."""
        allow = None
        if mtry is not None and mtry < n_feat:
            allow = np.zeros((len(pending), n_feat), dtype=bool)
            for s, (t, _) in enumerate(pending):
                allow[s, rngs[t].permutation(n_feat)[:mtry]] = True
        feature, _, gain, threshold = _split_batch(cols, y, lists, sizes, min_leaf, allow)
        span, head = _spans(sizes)
        for s in np.flatnonzero(feature >= 0):
            t, node_id = pending[s]
            rows = lists[:, head[s]:head[s] + span[s]].copy()
            trees[t][node_id]["split"] = (rows, int(feature[s]), float(threshold[s]))
            seq[t] += 1
            heapq.heappush(heaps[t], (-gain[s], seq[t], node_id))

    # the only sort: a root's list repeats each row of X's order by its count
    sizes = np.array([rows.size for rows in roots])
    span, head = _spans(sizes)
    for a, b in _chunks(span):
        lists = np.zeros((n_feat, span[a:b].sum()), dtype=np.int32)
        for rows, at in zip(roots[a:b], head[a:b] - head[a]):
            count = np.bincount(rows, minlength=X.shape[0])
            for k, o in enumerate(order):
                lists[k, at:at + rows.size] = np.repeat(o, count[o])
        score(lists, sizes[a:b], [(t, 0) for t in range(a, b)])
    while True:
        popped = [(t, heapq.heappop(heaps[t])[2]) for t in range(len(roots))
                  if leaves[t] < max_leaves and heaps[t]]
        if not popped:
            return trees
        splits = [trees[t][node_id].pop("split") for t, node_id in popped]
        for a, b in _chunks([rows.shape[1] for rows, _, _ in splits]):
            lists, sizes = _partition(
                cols, np.concatenate([rows for rows, _, _ in splits[a:b]], axis=1),
                np.array([trees[t][node_id]["n"] for t, node_id in popped[a:b]]),
                np.array([k for _, k, _ in splits[a:b]]),
                np.array([thr for _, _, thr in splits[a:b]]))
            _, head = _spans(sizes)
            pending = []
            for (t, node_id), (_, k, thr) in zip(popped[a:b], splits[a:b]):
                nodes = trees[t]
                nodes[node_id].update(feature=int(features[k]), threshold=thr,
                                      left=len(nodes), right=len(nodes) + 1)
                for c in (len(pending), len(pending) + 1):
                    # a child's rows are summed in the order of the split feature
                    rows = lists[k, head[c]:head[c] + sizes[c]]
                    pending.append((t, len(nodes)))
                    nodes.append({"n": int(sizes[c]), "mean": float(y[rows].sum() / sizes[c])})
                leaves[t] += 1
            if any(leaves[t] < max_leaves for t, _ in popped[a:b]):
                score(lists, sizes, pending)


def _finalize(nodes) -> RegressionTree:
    """Freeze grown nodes; leaves numbered 1..M by left-to-right traversal.

    A node whose children lie beyond the list is a leaf, so ``nodes[:2m-1]``
    of a best-first growth freezes the tree of its first m-1 splits."""
    out: list[TreeNode | None] = [None] * len(nodes)
    region = 0

    def visit(node_id):
        nonlocal region
        nd = nodes[node_id]
        if "feature" not in nd or nd["left"] >= len(nodes):
            region += 1
            out[node_id] = TreeNode(region=region, leaf_mean=nd["mean"], n=nd["n"])
            return
        out[node_id] = TreeNode(feature=nd["feature"], threshold=nd["threshold"],
                                left=nd["left"], right=nd["right"], n=nd["n"])
        visit(nd["left"])
        visit(nd["right"])

    visit(0)
    return RegressionTree(tuple(out), region)


def _grow_tree(d: Dataset, max_leaves: int, min_leaf: int):
    """One best-first growth on the columns of X that are not constant:
    a constant column (the intercept) can never split."""
    if max_leaves < 1:
        raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    features = np.flatnonzero(d.X.max(axis=0) > d.X.min(axis=0))
    return _grow(d.X, d.y, [np.arange(d.n)], max_leaves, min_leaf, features)[0]


def fit_tree(d: Dataset, max_leaves: int, min_leaf: int = 10) -> RegressionTree:
    """Grow a regression tree on y against the non-constant columns of X.

    Stops at ``max_leaves`` leaves or when no split reduces the total SSE.
    Every leaf holds at least ``min_leaf`` observations; when N < 2*min_leaf
    the single-leaf tree is returned.
    """
    return _finalize(_grow_tree(d, max_leaves, min_leaf))


def assign_regions(tree: RegressionTree, X: np.ndarray) -> RegionAssignment:
    """Route every row of X to its terminal-node region."""
    region = tree.route(X)
    counts = np.bincount(region, minlength=tree.leaf_count + 1)[1:]
    return RegionAssignment(region, counts)


def _leaf_linear_oof_error(train: Dataset, test: Dataset, tree: RegressionTree) -> float:
    """Mean squared out-of-fold error of per-leaf linear fits."""
    r_train = tree.route(train.X)
    r_test = tree.route(test.X)
    pred = np.zeros(test.n)
    for m in range(1, tree.leaf_count + 1):
        tr = r_train == m
        te = r_test == m
        if not te.any():
            continue
        beta = ols_solve(train.X[tr], train.y[tr])
        pred[te] = test.X[te] @ beta
    return float(np.mean((test.y - pred) ** 2))


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
    smaller than the fold count).  Best-first growth is nested, so each
    fold grows one tree, to the largest candidate, and candidate m is
    scored on its first m-1 splits.
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if any(c < 1 for c in candidates):
        raise ValueError("every candidate must be >= 1")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    fold_of = group_stratified_folds(d.group_label, d.n, folds, seed)
    errs = np.empty((len(candidates), folds))
    for k in range(folds):
        train = d.take(np.where(fold_of != k)[0])
        test = d.take(np.where(fold_of == k)[0])
        nodes = _grow_tree(train, candidates[-1], min_leaf)
        for j, m in enumerate(candidates):
            tree = _finalize(nodes[:2 * m - 1])
            errs[j, k] = _leaf_linear_oof_error(train, test, tree)
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
    """Human-readable one-node-per-line serialization."""
    lines = []
    for i, nd in enumerate(tree.nodes):
        if nd.feature < 0:
            lines.append(f"node {i} leaf region={nd.region} mean={nd.leaf_mean!r} n={nd.n}")
        else:
            lines.append(
                f"node {i} split feature={nd.feature} threshold={nd.threshold!r} "
                f"left={nd.left} right={nd.right} n={nd.n}"
            )
    return lines


def tree_from_lines(lines) -> RegressionTree:
    nodes = []
    leaf_count = 0
    for line in lines:
        parts = line.split()
        if len(parts) < 3 or parts[0] != "node":
            raise GtimmError(f"bad tree line: {line!r}")
        kv = dict(part.split("=", 1) for part in parts[3:])
        if parts[2] == "leaf":
            leaf_count += 1
            nodes.append(TreeNode(region=int(kv["region"]), leaf_mean=float(kv["mean"]),
                                  n=int(kv["n"])))
        elif parts[2] == "split":
            nodes.append(TreeNode(feature=int(kv["feature"]), threshold=float(kv["threshold"]),
                                  left=int(kv["left"]), right=int(kv["right"]), n=int(kv["n"])))
        else:
            raise GtimmError(f"unknown node kind in: {line!r}")
    return RegressionTree(tuple(nodes), leaf_count)
