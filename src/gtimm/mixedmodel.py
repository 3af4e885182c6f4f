"""Link families, the quasi-likelihood objective, its coefficient gradient,
the closed-form BLUP for the random effect, and variance-component updates.

The objective for coefficients ``beta_star`` (p x M, one column per region)
at a fixed random-effect vector ``b`` is

    ql = sum_i  I(y_i, mu_i)  -  0.5 * b' b / sigma_b2,

where ``I(y, mu)`` is the quasi-likelihood integral of ``(y - u) / v(u)``
from y to mu, evaluated in closed form per family, and
``mu_i = h(x_i' beta^{(m_i)} + b_{g_i})`` with g_i the group of row i.  For
the Gaussian identity family the integral is ``-(y - mu)^2 / 2``, so ql
reduces to the penalized least-squares criterion.  Its gradient with respect to region m's
coefficients is the sum of ``x_i s_i`` over the region's rows, with ``s_i``
from :func:`quasi_score`; :func:`region_score_sums` is the one place that
sum is formed.  Every family uses its canonical link (identity, log,
logit), for which v(mu) g'(mu) = 1, so the score is ``s_i = y_i - mu_i``
(McCullagh & Nelder 1989).

The random effect is never fit by gradient steps: given the fixed part it
has the exact maximizer

    b_hat = Sigma_b Z' (Sigma_eps + Z Sigma_b Z')^{-1} (y - fixed),

with ``Z`` the one-hot encoding of the groups.  It equals the solution of
the q x q system ``(Z' Z / sigma_eps2 + I / sigma_b2) b_hat = Z' r /
sigma_eps2``, and ``Z' Z = diag(n_g)`` makes that system diagonal: the
BLUP is elementwise, ``b_g = (Z' r)_g / sigma_eps2 / (n_g / sigma_eps2 +
1 / sigma_b2)``, with ``Z' r`` the per-group sums of r, so neither an
N x N nor an N x q matrix is formed.  Variance components use a
method-of-moments update (the source model treats them as known, so this
scheme is this package's own choice).

For the Gaussian family these row sums are quadratic forms in (beta, b):
:class:`GaussianMoments` evaluates the gradient sums, the BLUP, the
variance update and the quasi-likelihood from per-(group, region) moments
formed once, and the row functions here are their definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .tree import RegionAssignment, RegressionTree

SIGMA_EPS2_FLOOR = 1e-8
SIGMA_B2_DEAD = 1e-12  # below this the random effect is treated as absent


def _xlogy(x, y):
    """x * log(y) with the 0 * log(0) = 0 convention."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    nz = x != 0
    out[nz] = x[nz] * np.log(y[nz])
    return out


@dataclass(frozen=True)
class LinkFamily:
    """A GLM family with its canonical link g, so v(mu) g'(mu) = 1: inverse
    link h, variance function v, the closed-form quasi-likelihood integral,
    and the closed interval of responses the family admits."""

    name: str
    inverse: Callable
    variance: Callable
    quasi_integral: Callable  # I(y, mu) = int_y^mu (y - u) / v(u) du
    y_range: tuple[float, float] = (-np.inf, np.inf)


def _gauss_integral(y, mu):
    return -0.5 * (y - mu) ** 2


def _poisson_integral(y, mu):
    # int_y^mu (y - u)/u du = y log(mu/y) - (mu - y), with y log y -> 0 at 0
    return _xlogy(y, mu) - _xlogy(y, y) - (mu - y)


def _bernoulli_integral(y, mu):
    return (
        _xlogy(y, mu)
        + _xlogy(1.0 - y, 1.0 - mu)
        - _xlogy(y, y)
        - _xlogy(1.0 - y, 1.0 - y)
    )


def _expit(eta):
    return 1.0 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))


GAUSSIAN = LinkFamily(
    "gaussian",
    inverse=lambda eta: eta,
    variance=lambda mu: np.ones_like(np.asarray(mu, dtype=float)),
    quasi_integral=_gauss_integral,
)

POISSON = LinkFamily(
    "poisson",
    inverse=np.exp,
    variance=lambda mu: np.asarray(mu, dtype=float),
    quasi_integral=_poisson_integral,
    y_range=(0.0, np.inf),
)

BERNOULLI = LinkFamily(
    "bernoulli",
    inverse=_expit,
    variance=lambda mu: np.asarray(mu) * (1.0 - np.asarray(mu)),
    quasi_integral=_bernoulli_integral,
    y_range=(0.0, 1.0),
)

FAMILIES = {f.name: f for f in (GAUSSIAN, POISSON, BERNOULLI)}


def get_family(name: str) -> LinkFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None


@dataclass
class GtimmModel:
    """Fitted tree-informed mixed model."""

    beta_star: np.ndarray  # (p, M); column m-1 = coefficients of region m
    b_hat: np.ndarray  # (q,)
    sigma_b2: float
    sigma_eps2: float
    tree: RegressionTree
    family: str = "gaussian"
    history: list = field(default_factory=list, repr=False, compare=False)
    selected_leaves: int | None = field(default=None, compare=False)

    def __post_init__(self):
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        self.b_hat = np.asarray(self.b_hat, dtype=float)
        if self.beta_star.ndim != 2:
            raise ValueError("beta_star must be p x M")
        if self.beta_star.shape[1] != self.tree.leaf_count:
            raise ValueError(
                f"beta_star has {self.beta_star.shape[1]} columns, "
                f"tree has {self.tree.leaf_count} leaves"
            )
        if not (np.all(np.isfinite(self.beta_star)) and np.all(np.isfinite(self.b_hat))):
            raise ValueError("model parameters must be finite")
        get_family(self.family)


def fixed_part_eta(beta_star: np.ndarray, X: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Row-wise x_i' beta^{(m_i)} for 1-based region indices: every row's
    linear predictor under every region (one N x M product), then each row's
    own region's entry, taken through its flat index."""
    eta = X @ beta_star
    n_regions = eta.shape[1]
    if n_regions == 1:
        return eta[:, 0]
    return eta.take(np.arange(0, eta.size, n_regions) + (region - 1))


def _penalty(b_hat: np.ndarray, sigma_b2: float) -> float:
    if sigma_b2 <= 0:
        if np.any(b_hat != 0.0):
            raise NumericalError("penalty undefined: sigma_b2 = 0 with nonzero b_hat")
        return 0.0
    return 0.5 * float(b_hat @ b_hat) / sigma_b2


def quasi_loglik(model: GtimmModel, d: Dataset, r: RegionAssignment) -> float:
    """Laplace-approximated log quasi-likelihood at the model's parameters."""
    fam = get_family(model.family)
    eta = fixed_part_eta(model.beta_star, d.X, r.region) + d.zb(model.b_hat)
    mu = fam.inverse(eta)
    return float(np.sum(fam.quasi_integral(d.y, mu))) - _penalty(model.b_hat, model.sigma_b2)


def quasi_score(fam: LinkFamily, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Per-observation score (y - mu) / (v(mu) g'(mu)) at mu = h(eta), which
    is y - mu under the family's canonical link."""
    return y - fam.inverse(eta)


def region_score_sums(
    X: np.ndarray, s: np.ndarray, region: np.ndarray, n_regions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-region sums of x_i s_i as a (p, n_regions) array, and the row
    count of each region, for 1-based region indices.

    With ``s = quasi_score(fam, y, eta)`` column m-1 of the sums is the
    gradient of the quasi-likelihood over these rows with respect to
    beta^{(m)}; a region without rows gets a zero column and count 0.
    Each row of the sums is one weighted ``np.bincount`` (a scatter-add of
    x_ij s_i by region).
    """
    counts = np.bincount(region, minlength=n_regions + 1)[1:]
    sums = np.array([np.bincount(region, X[:, j] * s, minlength=n_regions + 1)[1:]
                     for j in range(X.shape[1])])
    return sums, counts


def blup(
    beta_star: np.ndarray,
    d: Dataset,
    r: RegionAssignment,
    sigma_b2: float,
    sigma_eps2: float,
    family: str = "gaussian",
) -> np.ndarray:
    """Closed-form best linear unbiased predictor of the random effect.

    Solves the q x q system (Z'Z/sigma_eps2 + I/sigma_b2) b = Z' e /
    sigma_eps2, equivalent to Sigma_b Z' (Sigma_eps + Z Sigma_b Z')^{-1} e;
    Z'Z = diag(n_g), so the solve is elementwise.  e is the working
    residual (y - mu) g'(mu) = (y - mu) / v(mu) at mu = h(fixed part),
    y - fixed part for the identity link.  Returns the
    zero vector when sigma_b2 = 0.
    """
    if sigma_eps2 <= 0:
        raise ValueError("sigma_eps2 must be > 0")
    if sigma_b2 <= SIGMA_B2_DEAD:
        return np.zeros(d.q)
    fam = get_family(family)
    mu = fam.inverse(fixed_part_eta(np.asarray(beta_star, dtype=float), d.X, r.region))
    resid = (d.y - mu) / fam.variance(mu)
    return _blup_solve(d.ztr(resid), d.group_sizes, sigma_b2, sigma_eps2)


def _blup_solve(zte: np.ndarray, n_g: np.ndarray, sigma_b2: float,
                sigma_eps2: float) -> np.ndarray:
    """The diagonal BLUP system solved elementwise from Z' e and n_g."""
    out = (zte / sigma_eps2) / (n_g / sigma_eps2 + 1.0 / sigma_b2)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite BLUP solution")
    return out


def update_variance_components(
    d: Dataset,
    r: RegionAssignment,
    beta_star: np.ndarray,
    b_hat: np.ndarray,
    sigma_b2_prev: float,
    sigma_eps2_prev: float,
) -> tuple[float, float]:
    """Method-of-moments update of (sigma_b2, sigma_eps2).

    sigma_eps2 is the full-model residual SSE over N - p*M (floored at
    1e-8).  sigma_b2 re-inflates the mean squared BLUP by the average
    inverse shrinkage factor (sigma_eps2 + n_g sigma_b2) / (n_g sigma_b2)
    evaluated at the previous iterate; once the previous sigma_b2 hits
    zero the random effect stays dead.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    dof = _residual_dof(d.n, d.p * beta_star.shape[1])
    resid = d.y - fixed_part_eta(beta_star, d.X, r.region) - d.zb(b_hat)
    return _variance_components(float(resid @ resid), dof, b_hat, d.group_sizes,
                                sigma_b2_prev, sigma_eps2_prev)


def _residual_dof(n: int, n_params: int) -> int:
    if n <= n_params:
        raise NumericalError(
            f"cannot estimate sigma_eps2: N={n} <= p*M={n_params} parameters"
        )
    return n - n_params


def _variance_components(sse: float, dof: int, b_hat: np.ndarray, n_g: np.ndarray,
                         sigma_b2_prev: float, sigma_eps2_prev: float) -> tuple[float, float]:
    """The moment update of :func:`update_variance_components` from the
    residual sum of squares and the group sizes."""
    sigma_eps2 = max(sse / dof, SIGMA_EPS2_FLOOR)
    if sigma_b2_prev <= SIGMA_B2_DEAD:
        return 0.0, sigma_eps2
    mean_b2 = float(np.mean(b_hat**2))
    if mean_b2 == 0.0:
        return 0.0, sigma_eps2
    present = n_g > 0
    inflate = (sigma_eps2_prev + n_g[present] * sigma_b2_prev) / (n_g[present] * sigma_b2_prev)
    sigma_b2 = max(mean_b2 * float(np.mean(inflate)), 0.0)
    return sigma_b2, sigma_eps2


@dataclass(frozen=True)
class GaussianMoments:
    """Sufficient statistics of the identity-link objective on fixed rows and
    regions, taken around reference coefficients beta0 with residual
    e0 = y - x' beta0:

    * ``cell_sums`` S (q, M, p): the sums of x_i over each (group, region) cell;
    * ``gram`` G (M, p, p): the region Gram sums X_m' X_m;
    * ``xe0`` (p, M): X_m' e0; ``ze0`` (q,): Z' e0; ``e0e0``: e0' e0;
    * ``n_g`` (q,): the group sizes.

    With delta = beta - beta0, every row sum the Gaussian fit needs at
    (beta, b) is a quadratic form in these,

        X_m' (y - eta)  = X_m' e0 - G_m delta_m - S[:, m]' b
        Z' (y - X beta) = Z' e0 - sum_m S[:, m] delta_m
        SSE = e0' e0 - 2 sum_m delta_m' X_m' e0 - 2 b' Z' e0
              + sum_m delta_m' G_m delta_m + 2 sum_{g,m} b_g S[g, m]' delta_m
              + sum_g n_g b_g^2,

    so the BLUP, the variance update and the quasi-likelihood read a
    q x M x p table instead of N rows.  Expanding around a fit beta0 rather
    than around 0 keeps every term near the size of the residual: the y' y
    expansion cancels badly once y sits far from 0.  The row functions
    :func:`region_score_sums`, :func:`blup`, :func:`update_variance_components`
    and :func:`quasi_loglik` are the definitions these agree with up to
    rounding.
    """

    beta0: np.ndarray
    cell_sums: np.ndarray
    gram: np.ndarray
    xe0: np.ndarray
    ze0: np.ndarray
    e0e0: float
    n_g: np.ndarray
    n: int

    @classmethod
    def build(cls, d: Dataset, r: RegionAssignment, beta0: np.ndarray, e0: np.ndarray,
              gram: np.ndarray) -> "GaussianMoments":
        """The moments of ``d`` on regions ``r`` around ``beta0``, given its
        residual ``e0`` and the region Gram sums ``gram``: one weighted
        ``np.bincount`` per column of X for S and one for X_m' e0."""
        m, p = r.n_regions, d.p
        key = (d.group_label - 1) * m + (r.region - 1)
        cell_sums = np.stack([np.bincount(key, d.X[:, j], minlength=d.q * m)
                              for j in range(p)], axis=-1).reshape(d.q, m, p)
        xe0, _ = region_score_sums(d.X, e0, r.region, m)
        return cls(np.asarray(beta0, dtype=float), cell_sums, gram, xe0, d.ztr(e0),
                   float(e0 @ e0), d.group_sizes, d.n)

    def _gram_delta(self, delta: np.ndarray) -> np.ndarray:
        return np.einsum("mij,jm->im", self.gram, delta)  # column m: G_m delta_m

    def _cell_delta(self, delta: np.ndarray) -> np.ndarray:
        return np.einsum("gmj,jm->g", self.cell_sums, delta)  # sum_m S[g, m]' delta_m

    def score_sums(self, beta_star: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(p, M) region sums of x_i (y_i - x_i' beta^(m) - b_g): the sums of
        :func:`region_score_sums` at the Gaussian score."""
        delta = beta_star - self.beta0
        return (self.xe0 - self._gram_delta(delta)
                - np.einsum("gmj,g->jm", self.cell_sums, b))

    def blup(self, beta_star: np.ndarray, sigma_b2: float, sigma_eps2: float) -> np.ndarray:
        """:func:`blup` for the Gaussian family."""
        if sigma_eps2 <= 0:
            raise ValueError("sigma_eps2 must be > 0")
        if sigma_b2 <= SIGMA_B2_DEAD:
            return np.zeros(self.n_g.shape[0])
        zte = self.ze0 - self._cell_delta(beta_star - self.beta0)
        return _blup_solve(zte, self.n_g, sigma_b2, sigma_eps2)

    def sse(self, beta_star: np.ndarray, b: np.ndarray) -> float:
        """Residual sum of squares of y - x' beta^(m) - b_g."""
        delta = beta_star - self.beta0
        return float(self.e0e0 - 2.0 * np.sum(delta * self.xe0) - 2.0 * (b @ self.ze0)
                     + np.sum(delta * self._gram_delta(delta))
                     + 2.0 * (b @ self._cell_delta(delta)) + self.n_g @ (b * b))

    def variance_components(self, sse: float, b_hat: np.ndarray, sigma_b2_prev: float,
                            sigma_eps2_prev: float) -> tuple[float, float]:
        """:func:`update_variance_components` from the SSE at (beta, b_hat)."""
        m, p, _ = self.gram.shape
        return _variance_components(sse, _residual_dof(self.n, p * m), b_hat, self.n_g,
                                    sigma_b2_prev, sigma_eps2_prev)

    @staticmethod
    def quasi_loglik(sse: float, b: np.ndarray, sigma_b2: float) -> float:
        """:func:`quasi_loglik` for the Gaussian family from the SSE at (beta, b)."""
        return -0.5 * sse - _penalty(b, sigma_b2)
