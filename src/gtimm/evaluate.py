"""Prediction-error evaluation: MSPE, the train/test benchmark against the
baselines, the MSPE-gap scaling experiment, and region/group crosstabs.

The gap experiment generates data whose coefficients are identical across
regions, so the tree-partitioned model and the global linear mixed model
estimate the same truth; their test-MSPE difference then isolates the cost
of the extra per-region parameters, which shrinks like M/N as the sample
grows.  Each cell fits with the default training settings and a fixed leaf
count.  The LMM is the one-region, exact-step case of the same fitting
loop, with its ridge move and stop rule, so the single-leaf control lands
on the LMM's fixed point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import fit_forest, fit_lmm, predict_baseline
from .data import Dataset, simulate_common_effects, train_test_split_grouped
from .errors import GtimmError, NumericalError
from .fit import FitConfig, fit_gtimm, predict
from .tree import RegionAssignment


def mspe(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared prediction error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size < 1:
        raise ValueError(
            f"y_true and y_pred must be equal-length vectors, got {y_true.shape} and {y_pred.shape}"
        )
    return float(np.mean((y_true - y_pred) ** 2))


@dataclass(frozen=True)
class MspeReport:
    """Named test MSPEs from one benchmark run."""

    mspe: dict  # model name -> test MSPE, insertion-ordered
    train_fraction: float
    seed: int
    n_train: int
    n_test: int

    def __post_init__(self):
        if any(v < 0 for v in self.mspe.values()):
            raise ValueError("MSPE values must be >= 0")


def benchmark(d: Dataset, cfg: FitConfig, train_fraction: float = 0.8,
              seed: int = 0) -> MspeReport:
    """Fit all four models on a group-stratified split, report test MSPE.

    The mixed models predict with the random effect included (stratification
    keeps every group in both splits); the tree and forest ignore groups.
    The single tree is a forest of one, without bootstrap or feature
    subsampling, with the fitted model's leaf count; the forest takes its
    fixed defaults (200 trees, 32 leaves).
    """
    train_idx, test_idx = train_test_split_grouped(d, train_fraction, seed)
    train, test = d.take(train_idx), d.take(test_idx)

    gtimm_model = fit_gtimm(train, cfg)
    pred_gtimm = predict(gtimm_model, test.X, test.Z, include_random=True)

    lmm_model = fit_lmm(train)
    pred_lmm = predict_baseline(lmm_model, test.X, test.Z)

    tree_model = fit_forest(train, n_trees=1, max_leaves=gtimm_model.tree.leaf_count,
                            bootstrap=False, feature_subsample=False, min_leaf=cfg.min_leaf)
    pred_tree = predict_baseline(tree_model, test.X)

    forest_model = fit_forest(train, seed=seed)
    pred_forest = predict_baseline(forest_model, test.X)

    report = {
        "gtimm": mspe(test.y, pred_gtimm),
        "lmm": mspe(test.y, pred_lmm),
        "forest": mspe(test.y, pred_forest),
        "tree": mspe(test.y, pred_tree),
    }
    return MspeReport(report, train_fraction, seed, train.n, test.n)


@dataclass(frozen=True)
class GapCurve:
    """Per-N mean and spread of |MSPE_tree-informed - MSPE_LMM|."""

    n_values: tuple
    m: int
    gap_mean: tuple
    gap_std: tuple
    failures: int = 0

    def __post_init__(self):
        n = np.asarray(self.n_values)
        if np.any(np.diff(n) <= 0):
            raise ValueError("N grid must be strictly increasing")
        if any(g < 0 for g in self.gap_mean):
            raise ValueError("gaps must be >= 0")


def _gap_cell(n: int, m: int, rep: int, seed: int, test_n: int) -> float:
    d, _ = simulate_common_effects(n + test_n, seed=[seed, n, rep])
    train = d.take(np.arange(n))
    test = d.take(np.arange(n, n + test_n))
    cell_seed = int(np.random.default_rng([seed, n, rep, 1]).integers(2**31))
    model = fit_gtimm(train, FitConfig(max_leaves=m, seed=cell_seed))
    pred_g = predict(model, test.X, test.Z, include_random=True)
    lmm = fit_lmm(train)
    pred_l = predict_baseline(lmm, test.X, test.Z)
    return abs(mspe(test.y, pred_g) - mspe(test.y, pred_l))


def gap_experiment(n_grid, m: int, replications: int, seed: int,
                   test_n: int = 2000) -> GapCurve:
    """Measure the test-MSPE gap between the tree-informed model (fixed M
    leaves) and the LMM on common-coefficient data, over a grid of training
    sizes.

    Cells run one after another, each seeded on its own; failed fits are
    excluded with a warning, and more than 20% failures at any N aborts the
    experiment.
    """
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid:
        raise ValueError("n_grid must be non-empty")
    for n in n_grid:
        if n < 4 or n % 4 != 0:
            raise ValueError(f"every N must be a positive multiple of 4, got {n}")
    if replications < 5:
        raise ValueError("replications must be >= 5")
    if test_n < 1:
        raise ValueError(f"test_n must be >= 1, got {test_n}")

    means, stds, failures = [], [], 0
    for n in n_grid:
        ok = []
        for rep in range(replications):
            try:
                ok.append(_gap_cell(n, m, rep, seed, test_n))
            except GtimmError:
                pass
        n_fail = replications - len(ok)
        failures += n_fail
        if n_fail > 0.2 * replications:
            raise NumericalError(
                f"gap experiment: {n_fail}/{replications} fits failed at N={n}"
            )
        if n_fail:
            warnings.warn(f"excluded {n_fail} failed fit(s) at N={n}", stacklevel=2)
        means.append(float(np.mean(ok)))
        stds.append(float(np.std(ok, ddof=1)))
    return GapCurve(tuple(n_grid), m, tuple(means), tuple(stds), failures)


def crosstab_regions(assign: RegionAssignment, groups: np.ndarray) -> np.ndarray:
    """M x G contingency counts of region index against group label.

    Group columns follow the sorted unique labels of ``groups``.
    """
    groups = np.asarray(groups)
    if groups.shape[0] != assign.region.shape[0]:
        raise ValueError("assignment and group labels must have equal length")
    labels, col = np.unique(groups, return_inverse=True)
    cell = (assign.region - 1) * labels.size + col
    return np.bincount(cell, minlength=assign.n_regions * labels.size).reshape(
        assign.n_regions, labels.size)
