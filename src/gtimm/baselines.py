"""Comparison models: global linear mixed model and a bagged random forest,
whose one-tree case without bootstrap or feature subsampling is CART itself.

The LMM is the main model's fit with one leaf, one full batch and learning
rate 1, whose epoch is the exact OLS step at the current random effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .fit import FitConfig, _random_term, fit_gtimm
from .tree import GrownTrees, _grow, _leaf_nodes


# Trees grown, and routed, together.  Measured on 1,600 rows (a forest's
# tracemalloc peak; ru_maxrss after four forests with predictions; fit time,
# the sizes alternating in one process): 8 trees 1.4 MB, 40.1 MB, 0.62 s;
# 32 trees 2.1 MB, 40.3 MB, 0.46 s; 64 trees 3.0 MB, 41.2 MB, 0.39 s; 200
# trees 6.7 MB, 45.2 MB, 0.43 s.  Past 32 a block costs about 1 MB of RSS
# per 32 trees for at most about 15% of the time.
_FOREST_BLOCK = 32


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
    trees: GrownTrees  # the members' node arrays, row i for tree i


def fit_lmm(d: Dataset) -> LmmModel:
    """Global linear mixed model: ``fit_gtimm`` with one leaf, one full batch
    and learning rate 1, whose epoch is the exact OLS step, at the other
    ``FitConfig()`` defaults.  It stops at the solution of Henderson's
    mixed-model equations for its own variance components, with the
    minimum-norm coefficients when X is rank deficient.  Fewer than p rows
    raise :class:`~gtimm.errors.IllPosedRegionError`; fewer than 5p warn."""
    model = fit_gtimm(d, FitConfig(max_leaves=1, batch_size=d.n, learning_rate=1.0))
    return LmmModel(model.beta_star[:, 0], model.b_hat, model.sigma_b2, model.sigma_eps2)


def fit_forest(d: Dataset, n_trees: int = 200, max_leaves: int = 32, seed: int = 0,
               bootstrap: bool = True, feature_subsample: bool = True,
               min_leaf: int = 5) -> ForestModel:
    """Bagged regression trees with per-split feature subsampling.

    Each tree sees a bootstrap resample of the rows and, at every split,
    ceil(sqrt(p-1)) candidate features.  Per-tree RNG streams derive from
    (seed, tree index), so results are reproducible and order-independent.
    With ``n_trees=1``, ``bootstrap=False`` and ``feature_subsample=False`` it
    is the single-tree baseline: ``fit_tree``'s tree, predicting leaf means.

    Trees grow in lockstep blocks of ``_FOREST_BLOCK``: each step splits one
    node of every tree in the block and scores all new children in one
    split-kernel call (see :mod:`gtimm.tree`).  A tree is grown from row ids
    into ``d``, never from a copy of its resample, and its splits depend on
    its own stream and rows only, not on its block.  The members are kept
    as stacked node arrays (:class:`gtimm.tree.GrownTrees`), not as
    :class:`gtimm.tree.RegressionTree` objects.  On 1,600 rows a 32-tree block peaks
    at 2.1 MB under tracemalloc, against 1.4 MB for 8 trees, and grows the
    forest in 0.46 s against 0.62 s.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    # columns 1..p-1, the predictors every growth tries (column 0 is the intercept)
    predictors = np.arange(1, d.p)
    mtry = math.ceil(math.sqrt(predictors.size)) if feature_subsample else None
    blocks = []
    for first in range(0, n_trees, _FOREST_BLOCK):
        rngs = [np.random.default_rng([seed, i])
                for i in range(first, min(first + _FOREST_BLOCK, n_trees))]
        roots = [rng.integers(0, d.n, d.n) if bootstrap else np.arange(d.n) for rng in rngs]
        blocks.append(_grow(d.X, d.y, roots, max_leaves, min_leaf, predictors, rngs, mtry))
    return ForestModel(GrownTrees(*map(np.concatenate, zip(*blocks))))


def _forest_mean(trees: GrownTrees, X: np.ndarray) -> np.ndarray:
    """Mean of the members' leaf means at every row of X: blocks of
    ``_FOREST_BLOCK`` trees routed together by :func:`gtimm.tree._leaf_nodes`,
    the one router of every tree, members added in tree order."""
    acc = np.zeros(X.shape[0])
    for first in range(0, trees.feature.shape[0], _FOREST_BLOCK):
        block = GrownTrees(*(a[first:first + _FOREST_BLOCK] for a in trees))
        for mean, node in zip(block.mean, _leaf_nodes(*block[:3], block.depth, X)):
            acc += mean[node]
    return acc / trees.feature.shape[0]


def predict_baseline(model, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Predictions for any baseline model; the LMM adds Z b_tilde, checked and
    warned about as in :func:`gtimm.fit.predict`, and the forest (the single
    tree too) ignores Z."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, LmmModel):
        if Z is None:
            raise ValueError("LMM prediction requires Z")
        return X @ model.beta + _random_term(model.b_tilde, Z, X.shape[0])
    if isinstance(model, ForestModel):
        return _forest_mean(model.trees, X)
    raise TypeError(f"unsupported baseline model type {type(model).__name__}")
