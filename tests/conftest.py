import heapq
from itertools import permutations

import numpy as np
import pytest

from gtimm import FitConfig, NumericalError, fit_gtimm, simulate_gtimm
from gtimm.data import REGION_CENTERS, one_hot
from gtimm.mixedmodel import (SIGMA_B2_DEAD, SIGMA_EPS2_FLOOR, fixed_part_eta, get_family,
                              quasi_score, region_score_sums)
from gtimm.tree import _chunks, _partition, _split_batch, assign_regions


@pytest.fixture(scope="session")
def sim2000():
    return simulate_gtimm(2000, seed=0)


@pytest.fixture(scope="session")
def fitted_sim(sim2000):
    d, truth = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, seed=0, max_epochs=120))
    return d, truth, model


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def ols_solve(X, y, ridge=1e-8):
    """Least squares via normal equations, ridge-damped if singular: an
    oracle independent of the package's pseudo-inverse kernel."""
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


def descent(feature, threshold, left, x):
    """The nodes one row visits in one tree, root to leaf, one node at a
    time: ``x[feature] <= threshold`` goes to the left child ``left``, and
    anything else (NaN included) to ``left + 1``."""
    path = [0]
    while feature[path[-1]] >= 0:
        k = path[-1]
        path.append(left[k] + (not x[feature[k]] <= threshold[k]))
    return path


def descended_leaves(trees, X):
    """(T, N) leaf node id of every row of X in every tree of a growth, by
    :func:`descent`: an oracle independent of the package's router."""
    return np.array([[descent(f, thr, lft, x)[-1] for x in X] for f, thr, lft
                     in zip(trees.feature, trees.threshold, trees.left)],
                    dtype=int).reshape(trees.feature.shape[0], X.shape[0])


def member_predictions(forest, X):
    """Each forest member's leaf mean at each row, routed by :func:`descent`."""
    return np.take_along_axis(forest.trees.mean, descended_leaves(forest.trees, X), axis=1)


def kernel_gradient(model, d, r):
    """Quasi-likelihood gradient by region, (p x M), through the kernel the
    SGD step uses: region sums of x_i times the quasi-score at the model."""
    eta = fixed_part_eta(model.beta_star, d.X, r.region) + d.zb(model.b_hat)
    score = quasi_score(get_family(model.family), d.y, eta)
    return region_score_sums(d.X, score, r.region, r.n_regions)[0]


def mme_solution(d, region, sigma_b2, sigma_eps2):
    """Exact maximizer of -|y - X beta^(m) - Z b|^2 / (2 sigma_eps2) -
    b'b / (2 sigma_b2) for 1-based ``region`` labels, by a dense solve of
    Henderson's mixed-model equations.  Returns (beta p x M, b)."""
    n, p = d.X.shape
    m = int(region.max())
    W = np.zeros((n, p * m + d.q))
    for k in range(m):
        rows = region == k + 1
        W[rows, k * p:(k + 1) * p] = d.X[rows]
    W[:, p * m:] = d.Z
    lhs = W.T @ W
    lhs[p * m:, p * m:] += np.eye(d.q) * sigma_eps2 / sigma_b2
    theta = np.linalg.solve(lhs, W.T @ d.y)
    return theta[:p * m].reshape(m, p).T, theta[p * m:]


def dense_blup(beta, d, r, sigma_b2, sigma_eps2, family="gaussian"):
    """The BLUP by a dense solve of the q x q system (Z'Z / sigma_eps2 +
    I / sigma_b2) b = Z' e / sigma_eps2 on the one-hot Z, with e the working
    residual at the fixed part: the reference for the elementwise BLUP."""
    fam = get_family(family)
    Z = one_hot(d.group_label, d.q)
    mu = fam.inverse(fixed_part_eta(beta, d.X, r.region))
    resid = (d.y - mu) / fam.variance(mu)
    lhs = Z.T @ Z / sigma_eps2 + np.eye(d.q) / sigma_b2
    return np.linalg.solve(lhs, Z.T @ resid / sigma_eps2)


def dense_variance_update(d, r, beta, b, sigma_b2_prev, sigma_eps2_prev):
    """The method-of-moments variance update on the one-hot Z, with n_g the
    nonzero count of column g: the reference for the update on labels."""
    Z = one_hot(d.group_label, d.q)
    resid = d.y - fixed_part_eta(beta, d.X, r.region) - Z @ b
    sigma_eps2 = max(float(resid @ resid) / (d.n - d.p * beta.shape[1]), SIGMA_EPS2_FLOOR)
    mean_b2 = float(np.mean(b ** 2))
    if sigma_b2_prev <= SIGMA_B2_DEAD or mean_b2 == 0.0:
        return 0.0, sigma_eps2
    n_g = (Z != 0).sum(axis=0)
    n_g = n_g[n_g > 0]
    inflate = (sigma_eps2_prev + n_g * sigma_b2_prev) / (n_g * sigma_b2_prev)
    return max(mean_b2 * float(np.mean(inflate)), 0.0), sigma_eps2


def dense_quasi_loglik(model, d, r):
    """The quasi-likelihood with the random term as Z @ b on the one-hot Z."""
    fam = get_family(model.family)
    eta = (fixed_part_eta(model.beta_star, d.X, r.region)
           + one_hot(d.group_label, d.q) @ model.b_hat)
    penalty = 0.5 * float(model.b_hat @ model.b_hat) / model.sigma_b2
    return float(np.sum(fam.quasi_integral(d.y, fam.inverse(eta)))) - penalty


def identified_coefficients(beta, b, d, region_true):
    """The 12 coefficients of the four-cluster design in the coordinates the
    data identify: region m's level at its cluster centre c_m plus its mean
    realised group effect, beta_0 + c_m' beta_1: + mean_{i in m} z_i' b,
    for m = 1..4, then the 8 slopes.  ``beta`` is aligned to the true
    regions (column m-1 is region m)."""
    zb = d.Z @ b
    levels = [beta[0, k] + REGION_CENTERS[k] @ beta[1:, k] + zb[region_true == k + 1].mean()
              for k in range(4)]
    return np.concatenate([levels, beta[1:].ravel()])


def recovery_deviations(model, d, truth):
    """Max deviations of a four-cluster fit: (identified coordinates against
    the truth, raw coefficients against the exact optimum of the fit's own
    objective on its tree at its variance components)."""
    aligned = model.beta_star[:, np.argsort(match_regions(model.tree.route(d.X),
                                                          truth.region_true))]
    fitted = identified_coefficients(aligned, model.b_hat, d, truth.region_true)
    true = identified_coefficients(truth.beta_star_true, truth.b_true, d,
                                   truth.region_true)
    optimum, _ = mme_solution(d, assign_regions(model.tree, d.X).region,
                              model.sigma_b2, model.sigma_eps2)
    return (float(np.abs(fitted - true).max()),
            float(np.abs(model.beta_star - optimum).max()))


def match_regions(pred: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Map predicted region labels onto true ones, maximizing agreement.

    Returns ``mapping`` with ``mapping[m - 1]`` the true label assigned to
    predicted region m.  Label sets of equal size up to 8 are matched
    exactly by brute force; otherwise greedily from the confusion matrix.
    """
    pred = np.asarray(pred, dtype=int)
    true = np.asarray(true, dtype=int)
    pred_labels = np.unique(pred)
    true_labels = np.unique(true)
    m = int(pred.max())
    confusion = np.zeros((pred_labels.size, true_labels.size), dtype=int)
    p_index = {int(v): i for i, v in enumerate(pred_labels)}
    t_index = {int(v): i for i, v in enumerate(true_labels)}
    for a, b in zip(pred, true):
        confusion[p_index[int(a)], t_index[int(b)]] += 1
    mapping = np.zeros(m, dtype=int)
    if pred_labels.size == true_labels.size and pred_labels.size <= 8:
        best_perm, best_score = None, -1
        for perm in permutations(range(true_labels.size)):
            score = sum(confusion[i, perm[i]] for i in range(pred_labels.size))
            if score > best_score:
                best_perm, best_score = perm, score
        for i, v in enumerate(pred_labels):
            mapping[int(v) - 1] = int(true_labels[best_perm[i]])
    else:
        taken = set()
        order = np.argsort(-confusion.max(axis=1))
        for i in order:
            choices = np.argsort(-confusion[i])
            pick = next((c for c in choices if c not in taken), choices[0])
            taken.add(pick)
            mapping[int(pred_labels[i]) - 1] = int(true_labels[pick])
    return mapping


def region_mismatches(pred: np.ndarray, true: np.ndarray) -> int:
    """Disagreements after the best label permutation."""
    mapping = match_regions(pred, true)
    return int(np.sum(mapping[np.asarray(pred, dtype=int) - 1] != np.asarray(true, dtype=int)))


def reference_grow(X, y, roots, max_leaves, min_leaf, features, rngs=None, mtry=None):
    """Best-first growth with one heap and one node dict per tree: the
    reference for ``tree._grow``, driven by the same split kernel.

    Each step pops every unfinished tree's best node (heap key
    ``(-gain, node_id)``: equal gains pop the older node), partitions the
    popped nodes' lists and scores the new children.  A splittable node
    keeps a copy of its lists; a child's mean sums its rows in the order of
    its parent's split feature.  Returns one node list per tree: "n" and
    "mean" for every node, and "feature", "threshold", "left" and "right"
    for a split node."""
    n_feat = features.size
    trees = [[{"n": rows.size, "mean": float(y[rows].mean())}] for rows in roots]
    if max_leaves <= 1 or n_feat == 0:
        return trees
    cols = np.ascontiguousarray(X[:, features].T)
    order = np.argsort(cols, axis=1, kind="stable").astype(np.int32)
    heaps = [[] for _ in roots]
    full = 2 * max_leaves - 1

    def score(lists, sizes, pending):
        allow = None
        if mtry is not None and mtry < n_feat:
            allow = np.zeros((len(pending), n_feat), dtype=bool)
            for s, (t, _) in enumerate(pending):
                allow[s, rngs[t].permutation(n_feat)[:mtry]] = True
        feature, gain, threshold = _split_batch(cols, y, lists, sizes, min_leaf, allow)
        head = np.cumsum(sizes) - sizes
        for s in np.flatnonzero(feature >= 0):
            t, node_id = pending[s]
            rows = lists[:, head[s]:head[s] + sizes[s]].copy()
            trees[t][node_id]["split"] = (rows, int(feature[s]), float(threshold[s]))
            heapq.heappush(heaps[t], (-gain[s], node_id))

    sizes = np.array([rows.size for rows in roots])
    for a, b in _chunks(sizes):
        counts = (np.bincount(rows, minlength=X.shape[0]) for rows in roots[a:b])
        lists = np.concatenate([[np.repeat(o, c[o]) for o in order] for c in counts], axis=1)
        score(lists, sizes[a:b], [(t, 0) for t in range(a, b)])
    while True:
        popped = [(t, heapq.heappop(heaps[t])[1]) for t in range(len(roots))
                  if len(trees[t]) < full and heaps[t]]
        if not popped:
            return trees
        splits = [trees[t][node_id].pop("split") for t, node_id in popped]
        popped_sizes = np.array([parent.shape[1] for parent, _, _ in splits])
        for a, b in _chunks(popped_sizes):
            parents, ks, thrs = zip(*splits[a:b])
            lists, sizes = _partition(cols, np.concatenate(parents, axis=1), popped_sizes[a:b],
                                      np.array(ks), np.array(thrs))
            head = np.cumsum(sizes) - sizes
            pending = []
            for (t, node_id), k, thr in zip(popped[a:b], ks, thrs):
                nodes = trees[t]
                nodes[node_id].update(feature=int(features[k]), threshold=thr,
                                      left=len(nodes), right=len(nodes) + 1)
                for c in (len(pending), len(pending) + 1):
                    rows = lists[k, head[c]:head[c] + sizes[c]]
                    pending.append((t, len(nodes)))
                    nodes.append({"n": int(sizes[c]), "mean": float(y[rows].sum() / sizes[c])})
            if any(len(trees[t]) < full for t, _ in popped[a:b]):
                score(lists, sizes, pending)
