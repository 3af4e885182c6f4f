"""CART-style regression tree producing the region partition.

Growth is greedy best-first: at every step the leaf whose best axis-aligned
split most reduces total within-leaf squared error is split, until the leaf
budget is reached or no split helps.  Split points are searched exactly over
midpoints of consecutive distinct feature values.  Routing is deterministic:
a feature value less than or equal to the threshold goes left.

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
        if regions != list(range(1, self.leaf_count + 1)):
            raise GtimmError("leaf regions must be a bijection with {1..M}")

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


def _best_split(X, y, idx, min_leaf, features):
    """Best (gain, feature, threshold, left_local, right_local) for one leaf.

    Returns None when no split strictly reduces the leaf SSE.  The response
    is centered within the node so constant leaves yield exactly zero gain.
    Ties prefer the lowest feature index, then the smallest threshold.
    """
    n = idx.size
    if n < 2 * min_leaf:
        return None
    yc = y[idx] - y[idx].mean()
    sse_parent = float(yc @ yc)
    best = None
    for f in features:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = yc[order]
        cums = np.cumsum(ys)
        cumsq = float(ys @ ys)
        n_left = np.arange(1, n)
        valid = (vs[1:] != vs[:-1]) & (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        s_left = cums[:-1]
        s_right = cums[-1] - s_left
        sse_after = cumsq - s_left**2 / n_left - s_right**2 / (n - n_left)
        sse_after[~valid] = np.inf
        j = int(np.argmin(sse_after))  # first minimum -> smallest threshold
        gain = sse_parent - float(sse_after[j])
        if gain <= _GAIN_EPS * max(1.0, sse_parent):
            continue
        if best is None or gain > best[0]:
            threshold = 0.5 * (vs[j] + vs[j + 1])
            best = (gain, f, threshold, order[: j + 1], order[j + 1 :])
    return best


def _grow(X, y, max_leaves, min_leaf, rng=None, mtry=None, features=None):
    """Best-first growth; returns the raw node list (leaves carry row sets).

    ``features`` restricts the candidate columns; ``mtry`` with an ``rng``
    samples that many of them independently at every split (forest mode).
    """
    n, p = X.shape
    if features is None:
        features = np.arange(p)

    def candidate(idx):
        feats = features
        if mtry is not None and mtry < features.size:
            feats = np.sort(rng.permutation(features)[:mtry])
        return _best_split(X, y, idx, min_leaf, feats)

    nodes = [{"idx": np.arange(n)}]
    if max_leaves <= 1:
        return nodes
    leaves = 1
    heap = []  # (-gain, seq, node_id, split); seq keeps pops deterministic
    seq = 0
    split = candidate(nodes[0]["idx"])
    if split is not None:
        heapq.heappush(heap, (-split[0], seq, 0, split))
    while leaves < max_leaves and heap:
        _, _, node_id, split = heapq.heappop(heap)
        _, f, threshold, left_local, right_local = split
        idx = nodes[node_id]["idx"]
        nodes[node_id] = {"feature": int(f), "threshold": float(threshold),
                          "left": len(nodes), "right": len(nodes) + 1, "n": idx.size}
        for child_idx in (idx[left_local], idx[right_local]):
            child_id = len(nodes)
            nodes.append({"idx": child_idx})
            child_split = candidate(child_idx)
            if child_split is not None:
                seq += 1
                heapq.heappush(heap, (-child_split[0], seq, child_id, child_split))
        leaves += 1
    return nodes


def _finalize(nodes, y) -> RegressionTree:
    """Freeze grown nodes; leaves numbered 1..M by left-to-right traversal."""
    out: list[TreeNode | None] = [None] * len(nodes)
    region = 0

    def visit(node_id):
        nonlocal region
        nd = nodes[node_id]
        if "idx" in nd:
            region += 1
            idx = nd["idx"]
            out[node_id] = TreeNode(region=region, leaf_mean=float(y[idx].mean()), n=idx.size)
            return
        out[node_id] = TreeNode(feature=nd["feature"], threshold=nd["threshold"],
                                left=nd["left"], right=nd["right"], n=nd["n"])
        visit(nd["left"])
        visit(nd["right"])

    visit(0)
    return RegressionTree(tuple(out), region)


def fit_tree(d: Dataset, max_leaves: int, min_leaf: int = 10) -> RegressionTree:
    """Grow a regression tree on y against the non-intercept columns of X.

    Stops at ``max_leaves`` leaves or when no split reduces the total SSE.
    Every leaf holds at least ``min_leaf`` observations; when N < 2*min_leaf
    the single-leaf tree is returned.  Constant columns (the intercept) can
    never produce a valid split and are skipped naturally.
    """
    if max_leaves < 1:
        raise ValueError(f"max_leaves must be >= 1, got {max_leaves}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    nodes = _grow(d.X, d.y, max_leaves, min_leaf)
    return _finalize(nodes, d.y)


def assign_regions(tree: RegressionTree, X: np.ndarray) -> RegionAssignment:
    """Route every row of X to its terminal-node region."""
    region = tree.route(X)
    counts = np.bincount(region, minlength=tree.leaf_count + 1)[1:]
    return RegionAssignment(region, counts)


def _leaf_linear_oof_error(train: Dataset, test: Dataset, max_leaves: int, min_leaf: int) -> float:
    """Mean squared out-of-fold error of per-leaf linear fits."""
    tree = fit_tree(train, max_leaves, min_leaf)
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
    smaller than the fold count).
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
        for j, m in enumerate(candidates):
            errs[j, k] = _leaf_linear_oof_error(train, test, m, min_leaf)
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
