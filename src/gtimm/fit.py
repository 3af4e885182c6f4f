"""End-to-end training: tree partition (grown by :mod:`gtimm.tree` with a
minimum region size), per-region initialization, mini-batch ascent on the
quasi-likelihood with a closed-form BLUP refresh each epoch, and prediction
for fitted models.

One loop, :func:`_alternate`, with one fixed-part step, :func:`sgd_epoch`,
runs every fit.  The LMM baseline is its one-leaf case at one full batch and
learning rate 1, whose epoch is the exact step: P_m, the preconditioner
below, times the region mean of x_i (y_i - z_i' b_hat), each region's
minimum-norm least-squares fit at the current random effect.

The random effect is deliberately not updated by gradient steps: given the
fixed part it has an exact maximizer, so each epoch alternates stochastic
coefficient updates with the closed-form BLUP and a variance-component
update.  Three choices make this alternation converge to the maximizer of
the objective it reports rather than wander around it:

* Each region's step is preconditioned by ``(X_m' X_m / n_m)^+``, the
  inverse of the region's mean predictor Gram matrix, so predictors far
  from the origin (clusters at +-5 leave the intercept almost collinear with
  the slopes) do not make the step ill-conditioned, and the stable
  learning-rate range does not depend on the predictors' location or scale.
* The mini-batch gradient carries a control variate (stochastic variance-
  reduced gradient, Johnson & Zhang 2013): the batch gradient at the
  current coefficients minus the batch gradient at the epoch's starting
  coefficients, plus the full-data gradient there.  It has the same
  expectation as the plain batch gradient but its noise vanishes as the
  coefficients settle, so a constant learning rate reaches the optimum
  instead of a noise floor, and the stall rule can fire.
* Column 0 of X is the intercept and Z is one-hot, so shifting every
  region's intercept by +delta and every group effect by -delta leaves
  every fitted value unchanged; only the penalty tells the points of this
  ridge apart, and it is maximized where the group effects average zero.
  After every BLUP refresh the fit moves to that point exactly, because the
  alternation itself drifts along the ridge far too slowly to get there.

:func:`sgd_epoch` says how one epoch's batches are computed for each link.

For the identity link every full-data quantity of an epoch (the snapshot
gradient grad0, the BLUP, the residual SSE of the variance update and the
quasi-likelihood) is a quadratic form in (beta, b_hat).  A Gaussian fit
therefore reads its N rows into per-(group, region) moments once
(:class:`~gtimm.mixedmodel.GaussianMoments`) and runs its epochs from
those: only the batch order and the batch Gram matrices of the mini-batch
pass still read rows, and a full-batch epoch costs O(M p (q + p)), not
O(N).  The other links evaluate the row functions every epoch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DataError, IllPosedRegionError, NumericalError
from .mixedmodel import (
    GaussianMoments,
    GtimmModel,
    blup,
    fixed_part_eta,
    get_family,
    quasi_loglik,
    quasi_score,
    region_score_sums,
    update_variance_components,
)
from .tree import (
    RegionAssignment,
    RegressionTree,
    _cell_grams,
    assign_regions,
    fit_tree,
    select_leaves_cv,
)

DEFAULT_CV_CANDIDATES = (1, 2, 3, 4, 5, 6, 7, 8)
PATIENCE = 3  # consecutive small-improvement epochs before stopping


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters of the training loop.

    ``max_leaves`` is either a leaf count or the string ``"cv"`` to pick one
    by k-fold cross-validation over ``cv_candidates``.  ``rel_tol`` bounds
    the relative change of the full-data quasi-likelihood,
    |delta| / (1 + |previous|), below which an epoch counts as stalled.

    ``min_leaf`` and ``min_region_fraction`` are floors of tree growth: no
    split is made that leaves a region with fewer than ``min_leaf`` rows or
    fewer than ``min_region_fraction`` of the N rows.
    """

    learning_rate: float = 0.01
    batch_size: int = 32
    max_epochs: int = 500
    rel_tol: float = 1e-6
    max_leaves: int | str = "cv"
    cv_folds: int = 5
    cv_candidates: tuple[int, ...] = DEFAULT_CV_CANDIDATES
    seed: int = 0
    min_region_fraction: float = 0.05
    min_leaf: int = 10
    family: str = "gaussian"

    def __post_init__(self):
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise ValueError("batch_size must be >= 1 and max_epochs >= 0")
        if not 0.0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if not 0.0 < self.min_region_fraction <= 0.5:
            raise ValueError("min_region_fraction must be in (0, 0.5]")
        if isinstance(self.max_leaves, str):
            if self.max_leaves != "cv":
                raise ValueError(f"max_leaves must be a count or 'cv', got {self.max_leaves!r}")
            if self.cv_folds < 2:
                raise ValueError("cv_folds must be >= 2 when max_leaves='cv'")
        elif self.max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        get_family(self.family)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    quasi_loglik: float
    sigma_b2: float
    sigma_eps2: float


@dataclass(frozen=True)
class SgdState:
    """Parameters carried across epochs; ``epoch`` counts completed passes."""

    beta_star: np.ndarray
    b_hat: np.ndarray
    sigma_b2: float
    sigma_eps2: float
    epoch: int = 0


def region_preconditioners(X: np.ndarray, r: RegionAssignment) -> np.ndarray:
    """(M, p, p) stack of P_m = (X_m' X_m / n_m)^+, one per region.

    The pseudo-inverse leaves directions in which a region's predictors do
    not vary (a column constant within the region, or one collinear with
    others) without any step; the gradient has no component there either.
    """
    gram, _ = _cell_grams(X, r.region - 1, r.n_regions)
    return np.linalg.pinv(gram, hermitian=True)


@dataclass(frozen=True)
class _EpochStart:
    """What one epoch's passes share: the batch order (None for a full
    batch), z_i' b_hat, and the scores s_i(beta0) with their region means
    of x_i s_i (p x M).  Only the batch loop reads zb and score0; an epoch
    started from moments has neither."""

    order: np.ndarray | None
    zb: np.ndarray | None
    score0: np.ndarray | None
    grad0: np.ndarray


def _batch_order(state: SgdState, d: Dataset, cfg: FitConfig) -> np.ndarray | None:
    """The epoch's seeded batch order; none is drawn for a batch of at
    least N rows."""
    return (None if cfg.batch_size >= d.n
            else np.random.default_rng([cfg.seed, state.epoch]).permutation(d.n))


def _epoch_start(state: SgdState, d: Dataset, r: RegionAssignment,
                 cfg: FitConfig) -> _EpochStart:
    """The epoch's seeded batch order and its scores at beta0; raises
    :class:`NumericalError` when a score is non-finite."""
    zb = d.zb(state.b_hat)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = fixed_part_eta(state.beta_star, d.X, r.region) + zb
        score0 = quasi_score(get_family(cfg.family), d.y, eta)
    if not np.all(np.isfinite(score0)):
        raise NumericalError(f"SGD diverged: non-finite score entering epoch {state.epoch}")
    sums0, counts0 = region_score_sums(d.X, score0, r.region, r.n_regions)
    return _EpochStart(_batch_order(state, d, cfg), zb, score0, sums0 / np.maximum(counts0, 1))


def _moment_start(state: SgdState, d: Dataset, cfg: FitConfig, mom: GaussianMoments,
                  counts: np.ndarray) -> _EpochStart:
    """:func:`_epoch_start` for the identity link, with grad0 from the
    moments instead of the rows; the affine pass and the full step need no
    per-row scores."""
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = mom.score_sums(state.beta_star, state.b_hat) / np.maximum(counts, 1)
    if not np.all(np.isfinite(grad0)):
        raise NumericalError(f"SGD diverged: non-finite score entering epoch {state.epoch}")
    return _EpochStart(_batch_order(state, d, cfg), None, None, grad0)


def _batch_pass(state: SgdState, d: Dataset, r: RegionAssignment, cfg: FitConfig,
                precond: np.ndarray, start: _EpochStart) -> np.ndarray:
    """The epoch's batches one at a time, each from the scores at the current
    coefficients: the general definition, for any link."""
    fam = get_family(cfg.family)
    beta = state.beta_star.copy()
    for first in range(0, d.n, cfg.batch_size):
        idx = start.order[first : first + cfg.batch_size]
        eta = fixed_part_eta(beta, d.X[idx], r.region[idx]) + start.zb[idx]
        delta = quasi_score(fam, d.y[idx], eta) - start.score0[idx]
        sums, counts = region_score_sums(d.X[idx], delta, r.region[idx], r.n_regions)
        for k in np.flatnonzero(counts):
            grad = sums[:, k] / counts[k] + start.grad0[:, k]
            beta[:, k] += cfg.learning_rate * (precond[k] @ grad)
    return beta


def _affine_pass(state: SgdState, d: Dataset, r: RegionAssignment, cfg: FitConfig,
                 precond: np.ndarray, start: _EpochStart) -> np.ndarray:
    """The identity-link epoch as one composition of per-batch affine maps
    (see :func:`sgd_epoch`)."""
    n, p = d.X.shape
    m = r.n_regions
    batch = np.empty(n, dtype=np.intp)
    batch[start.order] = np.arange(n) // cfg.batch_size
    key = batch * m + (r.region - 1)  # (batch, region) cell of every row
    gram, counts = _cell_grams(d.X, key, -(-n // cfg.batch_size) * m)
    gram, counts = gram.reshape(-1, m, p, p), counts.reshape(-1, m, 1, 1)
    lr = cfg.learning_rate
    # batch k's map in region m is u -> maps[k, m] @ u + shifts[k, m]; a
    # region the batch misses gets the identity and no shift
    maps = np.eye(p) - lr * (precond @ gram)
    shifts = (lr * (precond @ start.grad0.T[:, :, None])) * (counts > 0)
    # compose neighbouring maps (the earlier one applied first) until one is left
    while len(maps) > 1:
        h = len(maps) // 2
        later = maps[1 : 2 * h : 2]
        shifts = np.concatenate([later @ shifts[0 : 2 * h : 2] + shifts[1 : 2 * h : 2],
                                 shifts[2 * h :]])
        maps = np.concatenate([later @ maps[0 : 2 * h : 2], maps[2 * h :]])
    return state.beta_star + shifts[0, :, :, 0].T  # u starts at 0


def _full_step(state: SgdState, d: Dataset, r: RegionAssignment, cfg: FitConfig,
               precond: np.ndarray, start: _EpochStart) -> np.ndarray:
    """One batch of all N rows, for any link: beta0 + lr P_m grad0_m, since
    its control-variate correction is zero."""
    step = cfg.learning_rate * (precond @ start.grad0.T[:, :, None])
    return state.beta_star + step[:, :, 0].T


def sgd_epoch(state: SgdState, d: Dataset, r: RegionAssignment, cfg: FitConfig,
              precond: np.ndarray) -> SgdState:
    """One shuffled pass of preconditioned, variance-reduced mini-batch ascent
    on the region coefficients.

    With s_i(beta) the per-observation score of
    :func:`~gtimm.mixedmodel.quasi_score`, beta0 the coefficients at the
    start of the epoch and B_m the batch members in region m, each batch
    moves region m by

        lr * P_m [ mean_{i in B_m} x_i (s_i(beta) - s_i(beta0))
                   + mean_{i in region m} x_i s_i(beta0) ],

    with P_m = ``precond[m - 1]`` from :func:`region_preconditioners`; X and
    the regions do not change during a fit, so the caller computes it once.
    The region means come from the one gradient kernel
    :func:`~gtimm.mixedmodel.region_score_sums` (region sums of x_i s_i
    divided by their row counts), and so do the batch means of the batch
    loop.  A single full batch is therefore exactly one preconditioned
    full-gradient step; a batch of at least N rows runs as that step
    (:func:`_full_step`), with no batch order drawn.

    For the identity link s_i(beta) - s_i(beta0) = -x_i' u_m with
    u_m = beta_m - beta0_m, so the batch term is -G_km u_m / n_km, with G_km
    the Gram matrix of the n_km rows of batch k in region m.  Each batch is
    then the affine map

        u_m <- (I - lr P_m G_km / n_km) u_m + lr P_m grad0_m   (n_km > 0)

    and the Gaussian pass (:func:`_affine_pass`) builds every G_km at once
    with the weighted ``np.bincount`` kernel that also forms the regions'
    Gram matrices for P_m, and composes the maps pairwise, from u = 0,
    without a score per batch.  This is the same iterate in exact
    arithmetic; it differs from the batch loop (:func:`_batch_pass`, which
    the other links run) by rounding only.

    This function reads grad0 from the rows and is the definition;
    :func:`_alternate` runs a Gaussian fit's epochs from its
    :class:`~gtimm.mixedmodel.GaussianMoments` instead, with the same
    passes.

    Deterministic given (cfg.seed, state.epoch).  b_hat and the variance
    components are left untouched; the caller refreshes them.  A non-finite
    update retries the whole epoch once at half the learning rate, then
    raises :class:`NumericalError`.
    """
    return _run_epoch(state, d, r, cfg, precond, _epoch_start(state, d, r, cfg))


def _run_epoch(state: SgdState, d: Dataset, r: RegionAssignment, cfg: FitConfig,
               precond: np.ndarray, start: _EpochStart) -> SgdState:
    """The passes of :func:`sgd_epoch` from a given epoch start."""
    one_pass = (_full_step if cfg.batch_size >= d.n
                else _affine_pass if cfg.family == "gaussian" else _batch_pass)
    # overflow is expected and handled (a non-finite value anywhere in a pass
    # reaches its result, checked below), so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        beta = one_pass(state, d, r, cfg, precond, start)
        if not np.all(np.isfinite(beta)):
            half = replace(cfg, learning_rate=cfg.learning_rate / 2.0)
            beta = one_pass(state, d, r, half, precond, start)
    if not np.all(np.isfinite(beta)):
        raise NumericalError(
            f"SGD diverged in epoch {state.epoch} even after halving the learning rate"
        )
    return replace(state, beta_star=beta, epoch=state.epoch + 1)


def _region_ols(d: Dataset, r: RegionAssignment, precond: np.ndarray,
                target: np.ndarray) -> np.ndarray:
    """p x M minimum-norm OLS of ``target`` on X per region: P_m times the
    region mean of x_i target_i."""
    sums, counts = region_score_sums(d.X, target, r.region, r.n_regions)
    return (precond @ (sums / np.maximum(counts, 1)).T[:, :, None])[:, :, 0].T


def _alternate(d: Dataset, tree: RegressionTree, r: RegionAssignment,
               cfg: FitConfig) -> GtimmModel:
    """From the OLS fit at b_hat = 0 (sigma_b2 = 1, sigma_eps2 from its
    residual), repeat the epoch of :func:`sgd_epoch`, BLUP, ridge move and
    variance update until the quasi-likelihood stalls for ``PATIENCE``
    epochs or ``cfg.max_epochs`` is reached; the final iterate, with its
    history.  One :func:`~gtimm.tree._cell_grams` call gives every P_m.
    With one region, one full batch and lr = 1 this is the LMM baseline
    (:func:`gtimm.baselines.fit_lmm`).

    The Gaussian objective is quadratic in (beta, b_hat), so a Gaussian fit
    builds its :class:`~gtimm.mixedmodel.GaussianMoments` once, around the
    OLS start, and takes each epoch's grad0, BLUP, variance update and
    quasi-likelihood from them: its epochs read N rows only for the batch
    order and the batch Gram matrices of :func:`_affine_pass`, and a
    full-batch epoch reads none.  The other families run the row functions
    :func:`sgd_epoch`, :func:`~gtimm.mixedmodel.blup`,
    :func:`~gtimm.mixedmodel.update_variance_components` and
    :func:`~gtimm.mixedmodel.quasi_loglik`."""
    gram, counts = _cell_grams(d.X, r.region - 1, r.n_regions)
    precond = np.linalg.pinv(gram, hermitian=True)  # as region_preconditioners
    beta = _region_ols(d, r, precond, d.y)
    resid0 = d.y - fixed_part_eta(beta, d.X, r.region)
    state = SgdState(beta, np.zeros(d.q), 1.0,
                     max(float(np.var(resid0, ddof=1)) if d.n > 1 else 1.0, 1e-8))
    mom = (GaussianMoments.build(d, r, beta, resid0, gram * counts[:, None, None])
           if cfg.family == "gaussian" else None)

    def model_at(s: SgdState) -> GtimmModel:
        return GtimmModel(s.beta_star, s.b_hat, s.sigma_b2, s.sigma_eps2, tree, cfg.family)

    ql = (quasi_loglik(model_at(state), d, r) if mom is None
          else mom.quasi_loglik(mom.e0e0, state.b_hat, state.sigma_b2))
    history = [EpochRecord(0, ql, state.sigma_b2, state.sigma_eps2)]
    prev_ql, stall = ql, 0

    for epoch in range(1, cfg.max_epochs + 1):
        sb2, se2 = state.sigma_b2, state.sigma_eps2
        if mom is None:
            state = sgd_epoch(state, d, r, cfg, precond)
            b_hat = blup(state.beta_star, d, r, sb2, se2, cfg.family)
        else:
            state = _run_epoch(state, d, r, cfg, precond,
                               _moment_start(state, d, cfg, mom, counts))
            b_hat = mom.blup(state.beta_star, sb2, se2)
        shift = float(b_hat.mean())
        beta = state.beta_star.copy()
        beta[0] += shift
        b_hat = b_hat - shift
        if mom is None:
            sb2, se2 = update_variance_components(d, r, beta, b_hat, sb2, se2)
        else:
            sse = mom.sse(beta, b_hat)  # one SSE for sigma_eps2 and the quasi-likelihood
            sb2, se2 = mom.variance_components(sse, b_hat, sb2, se2)
        state = replace(state, beta_star=beta, b_hat=b_hat, sigma_b2=sb2, sigma_eps2=se2)
        ql = (quasi_loglik(model_at(state), d, r) if mom is None
              else mom.quasi_loglik(sse, b_hat, sb2))
        history.append(EpochRecord(epoch, ql, state.sigma_b2, state.sigma_eps2))
        rel = abs(ql - prev_ql) / (1.0 + abs(prev_ql))
        stall = stall + 1 if rel < cfg.rel_tol else 0
        prev_ql = ql
        if stall >= PATIENCE:
            break

    model = model_at(state)
    model.history = history
    return model


def fit_gtimm(d: Dataset, cfg: FitConfig) -> GtimmModel:
    """Train a tree-informed mixed model.

    Pipeline: choose the leaf count (fixed or by CV), grow the tree with
    every region holding at least max(``min_leaf``, ``min_region_fraction``
    * N) rows, then run :func:`_alternate`: per-region OLS start, then
    :func:`sgd_epoch` epochs, each followed by a BLUP refresh, the ridge move
    (see the module docstring) and a variance update, until the
    quasi-likelihood stalls for three epochs or ``max_epochs`` is reached.

    The final iterate is returned, with the per-epoch history attached.  A
    stalled fit's final iterate is the fixed point of the alternation: its
    coefficients and random effect jointly maximize the penalized objective
    the BLUP solves, at its own variance components (for the Gaussian
    family, the solution of Henderson's mixed-model equations).  Earlier
    iterates are not candidates: their quasi-likelihoods are computed under
    other variance components and do not rank them.  ``max_epochs=0``
    returns the initializer.  Responses outside the family's range raise
    :class:`DataError` before any fitting.
    """
    lo, hi = get_family(cfg.family).y_range
    if np.any((d.y < lo) | (d.y > hi)):
        raise DataError(f"family {cfg.family!r} needs every response in [{lo:g}, {hi:g}]; "
                        f"got values in [{d.y.min():g}, {d.y.max():g}]")
    if cfg.max_leaves == "cv":
        m_leaves = select_leaves_cv(d, cfg.cv_folds, cfg.cv_candidates, cfg.seed,
                                    min_leaf=cfg.min_leaf)
    else:
        m_leaves = int(cfg.max_leaves)
    # an integer count c satisfies c >= frac * N exactly when c >= ceil(frac * N)
    min_rows = max(cfg.min_leaf, math.ceil(cfg.min_region_fraction * d.n))
    tree = fit_tree(d, m_leaves, min_rows)
    r = assign_regions(tree, d.X)
    if np.any(r.counts < d.p):
        raise IllPosedRegionError(
            f"a region holds fewer than p={d.p} observations; "
            "lower max_leaves or raise min_leaf"
        )
    thin = int(np.sum(r.counts < 5 * d.p))
    if thin:
        warnings.warn(
            f"{thin} region(s) hold fewer than 5*p={5 * d.p} observations; "
            "their coefficient estimates may be unstable",
            stacklevel=2,
        )

    model = _alternate(d, tree, r, cfg)
    model.selected_leaves = m_leaves
    return model


def _random_term(b_hat: np.ndarray, Z, n: int) -> np.ndarray:
    """z' b_hat for each of the n rows of Z, the random term of both mixed
    models, after checking Z's shape.  All-zero rows (unseen groups) are
    counted in one warning.  A finite b_hat gives them z' b_hat = +-0, so Z
    is scanned for them only when some row has z' b_hat = 0; the scan reads
    Z in place.
    """
    Z = np.asarray(Z, dtype=float)
    q = b_hat.shape[0]
    if Z.shape != (n, q):
        raise ValueError(f"Z must be {n} x {q}, got {Z.shape}")
    zb = Z @ b_hat
    dead = int(np.count_nonzero(~Z.any(axis=1))) if (zb == 0.0).any() else 0
    if dead:
        warnings.warn(
            f"{dead} row(s) have an all-zero random-effect encoding; "
            "their random term contributes 0",
            stacklevel=3,
        )
    return zb


def predict(model: GtimmModel, X: np.ndarray, Z: np.ndarray | None = None,
            include_random: bool = True) -> np.ndarray:
    """Route rows through the tree and evaluate h(x' beta^(m) + z' b_hat).

    With ``include_random`` the random term z' b_hat is added; rows whose Z
    encoding is all zero (unseen groups) contribute 0 there and a warning
    counts them.  Without it, predictions are marginal (fixed part only).

    Z is read once, by the product z' b_hat, unless some row has
    z' b_hat = 0: b_hat is finite, so an all-zero row always gives 0, and
    only then is Z scanned for all-zero rows.
    """
    X = np.asarray(X, dtype=float)
    region = model.tree.route(X)
    eta = fixed_part_eta(model.beta_star, X, region)
    if include_random:
        if Z is None:
            raise ValueError("include_random=True requires Z")
        eta = eta + _random_term(model.b_hat, Z, X.shape[0])
    return get_family(model.family).inverse(eta)
