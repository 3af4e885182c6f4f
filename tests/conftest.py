import numpy as np
import pytest

from gtimm import FitConfig, fit_gtimm, simulate_gtimm
from gtimm.data import REGION_CENTERS
from gtimm.evaluate import match_regions
from gtimm.mixedmodel import fixed_part_eta, get_family, quasi_score, region_score_sums
from gtimm.tree import assign_regions


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
