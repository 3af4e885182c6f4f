"""Comparison models: global linear mixed model, single regression tree,
and a bagged random forest.

The LMM is the one-region, exact-step case of the main model's fitting
loop: the same alternation with per-region OLS in place of the SGD epoch,
and the same ridge move and stop rule, so the two coincide when the tree
has one leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .fit import FitConfig, _alternate, _ols_step
from .tree import RegressionTree, _finalize, _grow, assign_regions, fit_tree


# Trees grown in lockstep.  A block's nodes and presorted lists live together,
# so the size is chosen from measured peak memory: 8 trees on 1,600 rows keep
# the benchmark's peak RSS at the one-tree-at-a-time level.
_FOREST_BLOCK = 8


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
    trees: list[RegressionTree]


def fit_lmm(d: Dataset) -> LmmModel:
    """Global linear mixed model: the tree-informed fit's loop on one region
    with the exact OLS step, its ridge move and its stop rule at the
    ``FitConfig()`` defaults.  It stops at the solution of Henderson's
    mixed-model equations for its own variance components."""
    tree = fit_tree(d, max_leaves=1)
    model = _alternate(d, tree, assign_regions(tree, d.X), FitConfig(), _ols_step)
    return LmmModel(model.beta_star[:, 0], model.b_hat, model.sigma_b2, model.sigma_eps2)


def fit_forest(d: Dataset, n_trees: int = 200, max_leaves: int = 32, seed: int = 0,
               bootstrap: bool = True, feature_subsample: bool = True,
               min_leaf: int = 5) -> ForestModel:
    """Bagged regression trees with per-split feature subsampling.

    Each tree sees a bootstrap resample of the rows and, at every split,
    ceil(sqrt(p-1)) candidate features.  Per-tree RNG streams derive from
    (seed, tree index), so results are reproducible and order-independent.

    Trees grow in lockstep blocks of ``_FOREST_BLOCK``: each step splits one
    node of every tree in the block and scores all new children in one
    split-kernel call (see :mod:`gtimm.tree`).  A tree is grown from row ids
    into ``d``, never from a copy of its resample, and its splits depend on
    its own stream and rows only, not on its block.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    # sample among the true predictors only; the intercept column can never split
    predictors = np.arange(1, d.p) if d.p > 1 else np.arange(d.p)
    mtry = math.ceil(math.sqrt(predictors.size)) if feature_subsample else None
    trees = []
    for first in range(0, n_trees, _FOREST_BLOCK):
        rngs = [np.random.default_rng([seed, i])
                for i in range(first, min(first + _FOREST_BLOCK, n_trees))]
        roots = [rng.integers(0, d.n, d.n) if bootstrap else np.arange(d.n) for rng in rngs]
        grown = _grow(d.X, d.y, roots, max_leaves, min_leaf, predictors, rngs, mtry)
        trees += [_finalize(nodes) for nodes in grown]
    return ForestModel(trees)


def predict_baseline(model, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Predictions for any baseline model; the LMM adds Z b_tilde, and trees
    and forests ignore Z."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, LmmModel):
        if Z is None:
            raise ValueError("LMM prediction requires Z")
        return X @ model.beta + np.asarray(Z, dtype=float) @ model.b_tilde
    if isinstance(model, RegressionTree):
        return model.leaf_means()[model.route(X) - 1]
    if isinstance(model, ForestModel):
        acc = np.zeros(X.shape[0])
        for t in model.trees:
            acc += t.leaf_means()[t.route(X) - 1]
        return acc / len(model.trees)
    raise TypeError(f"unsupported baseline model type {type(model).__name__}")
