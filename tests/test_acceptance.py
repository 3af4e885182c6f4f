"""Acceptance suite.

Each test prints one PASS/FAIL line with the measured quantities, then
asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see every
line.  These pin the artifact's headline behaviors: coefficient recovery,
MSPE ordering, region recovery, CV leaf selection, the MSPE-gap decay,
gradient and BLUP correctness, the single-region/LMM equivalence, CLI
determinism, and the end-to-end pipeline on the bundled country-style
fixture.
"""

import filecmp
import time
from pathlib import Path

import numpy as np

from gtimm import (
    CsvSchema,
    Dataset,
    FitConfig,
    benchmark,
    crosstab_regions,
    fit_gtimm,
    fit_lmm,
    fit_tree,
    gap_experiment,
    load_csv,
    mspe,
    predict,
    predict_baseline,
    select_leaves_cv,
    simulate_gtimm,
    standardize,
)
from gtimm.cli import main
from gtimm.mixedmodel import (
    GtimmModel,
    blup,
    get_family,
    quasi_loglik,
)
from gtimm.tree import RegionAssignment, RegressionTree, TreeNode, assign_regions

from conftest import kernel_gradient, recovery_deviations, region_mismatches

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "gdp_synthetic.csv"


def report(num, name, ok, detail):
    print(f"\n[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_coefficient_recovery():
    """12 region coefficients within +-0.25 in >= 9 of 10 seeds, each fit
    under 60 s.  A seed passes when (a) the coefficients are within 0.25 of
    the truth in the coordinates the design identifies (the 8 slopes, and
    each region's level at its cluster centre including its realised group
    effects) and (b) all 12 raw coefficients are within 0.25 of the exact
    optimum of the fit's own objective (Henderson's equations on the fit's
    tree at its variance components).

    Raw intercepts are not compared with the truth: each one extrapolates
    from a cluster about 7 sd away back to the origin (standard error about
    0.32) and absorbs the sample mean of the 10 group effects (sd about
    0.45), which the data cannot tell apart from the intercepts.  Even the
    exact optimum with the true regions and variances meets a 0.25 bound on
    the raw coefficients in about 3% of seeds.
    """
    passes, devs_truth, devs_optimum, slowest = 0, [], [], 0.0
    for seed in range(10):
        d, truth = simulate_gtimm(2000, seed=seed, sigma_b2=2.0, sigma_eps2=1.0)
        t0 = time.time()
        model = fit_gtimm(d, FitConfig(max_leaves=4, seed=seed))
        slowest = max(slowest, time.time() - t0)
        dev_truth, dev_optimum = recovery_deviations(model, d, truth)
        devs_truth.append(round(dev_truth, 3))
        devs_optimum.append(round(dev_optimum, 4))
        passes += dev_truth <= 0.25 and dev_optimum <= 0.25
    ok = passes >= 9 and slowest < 60.0
    report(1, "coefficient recovery", ok,
           f"{passes}/10 seeds within 0.25; per-seed max dev vs truth (identified) "
           f"{devs_truth}; vs exact optimum {devs_optimum}; slowest fit {slowest:.1f}s")
    assert slowest < 60.0
    assert passes >= 9, (
        f"only {passes}/10 seeds had all 12 coefficients within 0.25 "
        f"(vs truth, identified: {devs_truth}; vs exact optimum: {devs_optimum})"
    )


def test_02_mspe_ordering():
    """GTIMM < RF < Tree, LMM > 50, GTIMM in [0.9, 2.5] on an 80/20 split."""
    d, _ = simulate_gtimm(2000, seed=0, sigma_b2=2.0, sigma_eps2=1.0)
    rep = benchmark(d, FitConfig(max_leaves=4, seed=0), 0.8, seed=0).mspe
    ok = (rep["gtimm"] < rep["forest"] < rep["tree"] and rep["lmm"] > 50
          and 0.9 <= rep["gtimm"] <= 2.5)
    report(2, "MSPE ordering", ok,
           "  ".join(f"{k}={v:.3f}" for k, v in rep.items()))
    assert rep["gtimm"] < rep["forest"] < rep["tree"]
    assert rep["lmm"] > 50
    assert 0.9 <= rep["gtimm"] <= 2.5


def test_03_region_recovery():
    """4-leaf tree misassigns <= 1% of 2000 points, median over 20 seeds."""
    mism = []
    for seed in range(20):
        d, truth = simulate_gtimm(2000, seed=seed)
        tree = fit_tree(d, max_leaves=4)
        mism.append(region_mismatches(tree.route(d.X), truth.region_true))
    med = float(np.median(mism))
    ok = med <= 20
    report(3, "region recovery", ok, f"median mismatches {med:.0f}/2000, per-seed {mism}")
    assert med <= 20


def test_04_cv_leaf_selection():
    """5-fold CV over candidates 1..8 returns 4 in >= 8 of 10 seeds."""
    picks = []
    for seed in range(10):
        d, _ = simulate_gtimm(2000, seed=seed)
        picks.append(select_leaves_cv(d, folds=5, candidates=range(1, 9), seed=seed))
    fours = sum(p == 4 for p in picks)
    ok = fours >= 8
    report(4, "CV leaf selection", ok, f"{fours}/10 picked 4; picks {picks}")
    assert fours >= 8


def test_05_gap_scaling_trend():
    """Gap decays over the N grid; log-log slope negative; M=1 control < 1e-3."""
    grid = [500, 1000, 2000, 4000, 8000]
    t0 = time.time()
    curve = gap_experiment(grid, m=4, replications=20, seed=11)
    control = gap_experiment(grid, m=1, replications=20, seed=11)
    elapsed = time.time() - t0
    slope = float(np.polyfit(np.log(curve.n_values), np.log(curve.gap_mean), 1)[0])
    ctrl_max = max(control.gap_mean)
    ok = (curve.gap_mean[-1] < curve.gap_mean[0] and slope < 0
          and ctrl_max < 1e-3 and elapsed < 600)
    report(5, "MSPE-gap scaling", ok,
           f"gaps {[f'{g:.4f}' for g in curve.gap_mean]}, slope {slope:.2f}, "
           f"M=1 max {ctrl_max:.1e}, {elapsed:.0f}s")
    assert curve.gap_mean[-1] < curve.gap_mean[0]
    assert slope < 0
    assert ctrl_max < 1e-3
    assert elapsed < 600


TWO_LEAF_TREE = RegressionTree(
    (
        TreeNode(feature=1, threshold=0.0, left=1, right=2, n=0),
        TreeNode(region=1, leaf_mean=0.0, n=0),
        TreeNode(region=2, leaf_mean=0.0, n=0),
    ),
    2,
)


def _random_instance(fam_name, seed):
    rng = np.random.default_rng(seed)
    n, p, q = 20, 3, 4
    fam = get_family(fam_name)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1)) * 0.6])
    g = rng.integers(1, q + 1, n)
    Z = np.zeros((n, q))
    Z[np.arange(n), g - 1] = 1.0
    beta = rng.normal(size=(p, 2)) * 0.4
    b_hat = rng.normal(size=q) * 0.2
    region = TWO_LEAF_TREE.route(X)
    mu = fam.inverse(np.einsum("ij,ji->i", X, beta[:, region - 1]) + Z @ b_hat)
    if fam_name == "gaussian":
        y = mu + rng.normal(size=n) * 0.5
    elif fam_name == "poisson":
        y = rng.poisson(mu).astype(float)
    else:
        y = rng.binomial(1, mu).astype(float)
    d = Dataset(y, X, Z, g)
    model = GtimmModel(beta, b_hat, 0.7, 1.1, TWO_LEAF_TREE, fam_name)
    assign = RegionAssignment(region, np.bincount(region, minlength=3)[1:])
    return model, d, assign


def test_06_gradient_correctness():
    """The gradient the SGD step forms (region_score_sums of the quasi-score)
    matches central finite differences to 1e-5 relative error, 50 random
    instances per family."""
    worst = {}
    for fam_name in ("gaussian", "poisson", "bernoulli"):
        worst_rel = 0.0
        for seed in range(50):
            model, d, assign = _random_instance(fam_name, seed)
            grads = kernel_gradient(model, d, assign)
            for region in (1, 2):
                grad = grads[:, region - 1]
                fd = np.zeros(d.p)
                for j in range(d.p):
                    h = 1e-5 * (1.0 + abs(model.beta_star[j, region - 1]))
                    up = model.beta_star.copy()
                    up[j, region - 1] += h
                    dn = model.beta_star.copy()
                    dn[j, region - 1] -= h
                    mu_up = GtimmModel(up, model.b_hat, model.sigma_b2,
                                       model.sigma_eps2, model.tree, fam_name)
                    mu_dn = GtimmModel(dn, model.b_hat, model.sigma_b2,
                                       model.sigma_eps2, model.tree, fam_name)
                    fd[j] = (quasi_loglik(mu_up, d, assign)
                             - quasi_loglik(mu_dn, d, assign)) / (2 * h)
                rel = float(np.max(np.abs(fd - grad)) / max(1e-8, np.max(np.abs(grad))))
                worst_rel = max(worst_rel, rel)
        worst[fam_name] = worst_rel
    ok = all(v < 1e-5 for v in worst.values())
    report(6, "gradient vs finite differences", ok,
           "  ".join(f"{k} worst rel {v:.1e}" for k, v in worst.items()))
    for fam_name, v in worst.items():
        assert v < 1e-5, fam_name


def test_07_blup_oracle():
    """Matrix BLUP equals the one-hot shrinkage closed form to 1e-10 on 50
    homoscedastic instances; exact zeros for zero residuals or sigma_b2=0."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n, q = 150, 6
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
        Z = np.zeros((n, q))
        Z[np.arange(n), g - 1] = 1.0
        beta = rng.normal(size=3)
        y = X @ beta + rng.normal(0, 1.0, n) + rng.normal(0, 1.0, q)[g - 1]
        d = Dataset(y, X, Z, g)
        assign = RegionAssignment(np.ones(n, dtype=int), np.array([n]))
        sb2 = float(rng.uniform(0.05, 4.0))
        se2 = float(rng.uniform(0.1, 3.0))
        out = blup(beta[:, None], d, assign, sb2, se2)
        resid = y - X @ beta
        closed = np.array([
            (np.sum(g == k) * sb2) / (se2 + np.sum(g == k) * sb2)
            * resid[g == k].mean() for k in range(1, q + 1)
        ])
        worst = max(worst, float(np.max(np.abs(out - closed))))
        # exact-zero contracts: zero residuals (built through the same fixed-
        # part evaluation blup uses) and sigma_b2=0 both give exactly 0
        from gtimm.mixedmodel import fixed_part_eta

        exact = Dataset(fixed_part_eta(beta[:, None], X, assign.region), X, Z, g)
        assert np.array_equal(blup(beta[:, None], exact, assign, sb2, se2),
                              np.zeros(q))
        assert np.array_equal(blup(beta[:, None], d, assign, 0.0, se2), np.zeros(q))
    ok = worst < 1e-10
    report(7, "BLUP shrinkage oracle", ok, f"worst |matrix - closed form| {worst:.1e}")
    assert worst < 1e-10


def test_08_single_region_equivalence():
    """fit with one leaf matches the LMM to 1e-4 in coefficients and test MSPE
    on 10 random datasets."""
    worst_coef, worst_mspe = 0.0, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, q = 500, 5
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        g = np.concatenate([np.arange(1, q + 1), rng.integers(1, q + 1, n - q)])
        Z = np.zeros((n, q))
        Z[np.arange(n), g - 1] = 1.0
        b = rng.normal(0, 0.8, q)
        beta = rng.normal(size=3)
        y = X @ beta + b[g - 1] + rng.normal(0, 0.7, n)
        d = Dataset(y, X, Z, g)
        train, test = d.take(np.arange(400)), d.take(np.arange(400, n))
        cfg = FitConfig(max_leaves=1, batch_size=400, learning_rate=0.5,
                        max_epochs=3000, rel_tol=1e-300, seed=seed)
        gt = fit_gtimm(train, cfg)
        lm = fit_lmm(train)
        worst_coef = max(worst_coef, float(np.max(np.abs(gt.beta_star[:, 0] - lm.beta))))
        m_g = mspe(test.y, predict(gt, test.X, test.Z))
        m_l = mspe(test.y, predict_baseline(lm, test.X, test.Z))
        worst_mspe = max(worst_mspe, abs(m_g - m_l))
    ok = worst_coef < 1e-4 and worst_mspe < 1e-4
    report(8, "single-region / LMM equivalence", ok,
           f"worst coef diff {worst_coef:.1e}, worst MSPE diff {worst_mspe:.1e}")
    assert worst_coef < 1e-4
    assert worst_mspe < 1e-4


def _run_all_subcommands(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    sim = out / "sim"
    fit = out / "fit"
    args = [
        ["simulate", "--n", "400", "--seed", "3", "--out", str(sim)],
        ["fit", "--data", str(sim / "sim.csv"), "--max-leaves", "4",
         "--max-epochs", "20", "--seed", "3", "--emit-regions", "--out", str(fit)],
        ["predict", "--model", str(fit / "model.txt"),
         "--data", str(sim / "sim.csv"), "--out", str(out / "pred")],
        ["benchmark", "--data", str(sim / "sim.csv"), "--max-leaves", "4",
         "--max-epochs", "10", "--seed", "3", "--out", str(out / "bench")],
        ["cv-leaves", "--data", str(sim / "sim.csv"), "--candidates", "1-4",
         "--folds", "4", "--seed", "3", "--out", str(out / "cv")],
        ["gap-scaling", "--n-grid", "400,800", "--m", "1", "--replications", "5",
         "--test-n", "400", "--seed", "3", "--out", str(out / "gap")],
        ["crosstab", "--model", str(fit / "model.txt"),
         "--data", str(sim / "sim.csv"), "--out", str(out / "ct")],
    ]
    for argv in args:
        assert main(argv + ["--quiet"]) == 0, argv


def test_09_cli_determinism(tmp_path, capsys):
    """Every subcommand writes byte-identical files across two seeded runs."""
    a, b = tmp_path / "run1", tmp_path / "run2"
    _run_all_subcommands(a)
    _run_all_subcommands(b)
    capsys.readouterr()
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b and len(files_a) >= 10
    diffs = [str(rel) for rel in files_a
             if not filecmp.cmp(a / rel, b / rel, shallow=False)]
    ok = not diffs
    report(9, "CLI determinism", ok,
           f"{len(files_a)} files compared" + (f"; diffs: {diffs}" if diffs else ""))
    assert not diffs


def test_10_country_fixture_pipeline():
    """standardize -> 5-fold CV -> 4-leaf fit -> crosstab -> benchmark runs
    end-to-end on the bundled 97-row country-style CSV."""
    schema = CsvSchema(
        "gdp",
        ("fdi_inflows", "fdi_outflows", "trade", "unemployment", "inflation"),
        group_col="region",
    )
    d = load_csv(FIXTURE, schema)
    assert d.n == 97 and d.q == 4
    ds, params = standardize(d)
    assert np.all(params.x_sd > 0)
    chosen = select_leaves_cv(ds, folds=5, candidates=range(1, 7), seed=0)
    cfg = FitConfig(max_leaves=4, seed=0, max_epochs=200)
    model = fit_gtimm(ds, cfg)
    counts = crosstab_regions(assign_regions(model.tree, ds.X), ds.group_label)
    rep = benchmark(ds, cfg, 0.8, seed=0).mspe
    ok = (counts.sum() == 97 and all(np.isfinite(v) for v in rep.values())
          and model.tree.leaf_count >= 2)
    report("WB", "country-fixture pipeline", ok,
           f"cv chose {chosen}, fit {model.tree.leaf_count} leaves, "
           f"benchmark {({k: round(v, 3) for k, v in rep.items()})}")
    assert counts.sum() == 97
    assert all(np.isfinite(v) and v >= 0 for v in rep.values())
    assert model.tree.leaf_count >= 2
