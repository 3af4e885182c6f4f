"""Comparison models: global linear mixed model, single regression tree,
and a bagged random forest.

The LMM is fit by the same alternating scheme as the main model restricted
to a single region (exact OLS step, BLUP, variance update, repeated to
convergence), so the two coincide when the tree has one leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .mixedmodel import blup, update_variance_components
from .tree import RegionAssignment, RegressionTree, _finalize, _grow, ols_solve


@dataclass
class LmmModel:
    beta: np.ndarray  # (p,)
    b_tilde: np.ndarray  # (q,)
    sigma_b2: float
    sigma_eps2: float

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.b_tilde = np.asarray(self.b_tilde, dtype=float)
        if not (np.all(np.isfinite(self.beta)) and np.all(np.isfinite(self.b_tilde))):
            raise NumericalError("LMM parameters must be finite")


@dataclass
class ForestModel:
    trees: list[RegressionTree] = field(default_factory=list)
    n_trees: int = 0
    max_leaves: int = 32
    bootstrap: bool = True
    feature_subsample: bool = True
    seed: int = 0


def _single_region(n: int) -> RegionAssignment:
    return RegionAssignment(np.ones(n, dtype=int), np.array([n]))


def fit_lmm(d: Dataset, max_iter: int = 500, rel_tol: float = 1e-12,
            patience: int = 3) -> LmmModel:
    """Global linear mixed model by alternating OLS / BLUP / variance updates.

    Starts from the plain OLS coefficients and iterates the exact
    coordinate updates until the penalized objective stalls, which makes it
    the M=1 fixed point of the tree-informed fit.
    """
    r = _single_region(d.n)
    beta = ols_solve(d.X, d.y)
    b_tilde = np.zeros(d.q)
    sigma_b2 = 1.0
    resid0 = d.y - d.X @ beta
    sigma_eps2 = max(float(np.var(resid0, ddof=1)) if d.n > 1 else 1.0, 1e-8)
    prev_obj, stall = None, 0
    for _ in range(max_iter):
        beta = ols_solve(d.X, d.y - d.zb(b_tilde))
        bs = beta[:, None]
        b_tilde = blup(bs, d, r, sigma_b2, sigma_eps2)
        sigma_b2, sigma_eps2 = update_variance_components(d, r, bs, b_tilde,
                                                          sigma_b2, sigma_eps2)
        resid = d.y - d.X @ beta - d.zb(b_tilde)
        obj = -0.5 * float(resid @ resid)
        if sigma_b2 > 0:
            obj -= 0.5 * float(b_tilde @ b_tilde) / sigma_b2
        if prev_obj is not None:
            rel = abs(obj - prev_obj) / (1.0 + abs(prev_obj))
            stall = stall + 1 if rel < rel_tol else 0
            if stall >= patience:
                break
        prev_obj = obj
    return LmmModel(beta, b_tilde, sigma_b2, sigma_eps2)


def fit_forest(d: Dataset, n_trees: int = 200, max_leaves: int = 32, seed: int = 0,
               bootstrap: bool = True, feature_subsample: bool = True,
               min_leaf: int = 5) -> ForestModel:
    """Bagged regression trees with per-split feature subsampling.

    Each tree sees a bootstrap resample of the rows and, at every split,
    ceil(sqrt(p-1)) candidate features.  Per-tree RNG streams derive from
    (seed, tree index), so results are reproducible and order-independent.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    # sample among the true predictors only; the intercept column can never split
    predictors = np.arange(1, d.p) if d.p > 1 else np.arange(d.p)
    mtry = math.ceil(math.sqrt(predictors.size)) if feature_subsample else None
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng([seed, i])
        rows = rng.integers(0, d.n, d.n) if bootstrap else np.arange(d.n)
        nodes = _grow(d.X[rows], d.y[rows], max_leaves, min_leaf,
                      rng=rng, mtry=mtry, features=predictors)
        trees.append(_finalize(nodes, d.y[rows]))
    return ForestModel(trees, n_trees, max_leaves, bootstrap, feature_subsample, seed)


def predict_baseline(model, X: np.ndarray, Z: np.ndarray | None = None,
                     include_random: bool = True) -> np.ndarray:
    """Predictions for any baseline model; trees and forests ignore Z."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, LmmModel):
        pred = X @ model.beta
        if include_random:
            if Z is None:
                raise ValueError("LMM prediction with include_random=True requires Z")
            pred = pred + np.asarray(Z, dtype=float) @ model.b_tilde
        return pred
    if isinstance(model, RegressionTree):
        return model.leaf_means()[model.route(X) - 1]
    if isinstance(model, ForestModel):
        acc = np.zeros(X.shape[0])
        for t in model.trees:
            acc += t.leaf_means()[t.route(X) - 1]
        return acc / len(model.trees)
    raise TypeError(f"unsupported baseline model type {type(model).__name__}")
