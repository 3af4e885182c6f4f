"""The three workloads.  Each builds its inputs from the seed (``setup``)
and runs rounds of identical operations (``run_round``), recording timing
samples and checking every output against ``reference``.

A round appends samples to lists keyed by end-to-end metric:

* ``fit_s``: seconds to the fitted GTIMM model(s);
* ``compare_s``: seconds of the comparison the paper reports;
* ``predict_rows_per_s``: held-out rows predicted per second over a batch
  of calls (``PREDICT_REPEATS`` per round, so one sample is far above
  timer noise);
* ``test_mspe``: GTIMM's test MSPE, computed here from its predictions.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

import reference as ref

TOL_MME = 1e-2  # largest |coefficient - Henderson solution| accepted
TOL_PRED = 1e-9  # largest relative |prediction - x'beta^(m) - b_g| accepted
CONTROL_GAP = 1e-3  # largest M=1 control gap accepted
GDP_X = ("fdi_inflows", "fdi_outflows", "trade", "unemployment", "inflation")


class Tally:
    """Operations attempted and failed.  An operation fails when a check on
    its output fails or when it raises; a raise fails every operation of
    the round not yet checked."""

    def __init__(self, log):
        self.attempted = self.failed = 0
        self._log, self._logged = log, set()
        self._left = 0
        self.largest = {}

    def log(self, message):
        if message not in self._logged:  # a fault repeats every round; say it once
            self._logged.add(message)
            self._log(message)

    def begin_round(self, n_ops):
        self._left = n_ops

    def check(self, ok, what):
        self.attempted += 1
        self._left -= 1
        if not ok:
            self.failed += 1
            self.log(f"check failed: {what}")
        return ok

    def note(self, what, value):
        """Keep the largest value of a checked quantity, for the run's log."""
        self.largest[what] = max(value, self.largest.get(what, value))

    def within(self, what, value, tol):
        self.note(what, value)
        return value <= tol

    def abort_round(self, exc):
        self.log(f"round raised {type(exc).__name__}: {exc}")
        self.attempted += self._left
        self.failed += self._left
        self._left = 0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fit_key(model):
    """Everything a fit returns that a repeat must reproduce bit for bit."""
    return (model.beta_star.tobytes(), model.b_hat.tobytes(), model.sigma_b2, model.sigma_eps2)


def _lmm_key(lmm):
    return (lmm.beta.tobytes(), lmm.b_tilde.tobytes(), lmm.sigma_b2, lmm.sigma_eps2)


def _split(gtimm, d, train_fraction, seed):
    """(train, test) Datasets by gtimm's group-stratified split."""
    train_idx, test_idx = gtimm.data.train_test_split_grouped(d, train_fraction, seed)
    return d.take(train_idx), d.take(test_idx)


class PaperCli:
    """The paper's simulation study (four independent draws) and its GDP
    application through the CLI: fit --max-leaves cv, predict and
    benchmark --max-leaves cv on each data set."""

    name = "paper-cli"
    SIMS = 4
    ops_per_round = 3 * (SIMS + 1)
    PREDICT_REPEATS = 10

    def __init__(self, gtimm, root):
        self.gtimm = gtimm
        self.gdp = root / "data" / "gdp_synthetic.csv"
        self._first = {}  # output file of a data set -> digest in round one

    def setup(self, seed, workdir):
        """Each draw: gtimm's four-cluster simulation of 4000 rows, split in
        half by its group-stratified split, written by its CSV writer."""
        test_y = []
        for k in range(self.SIMS):
            sim = workdir / f"sim{k + 1}"
            sim.mkdir(parents=True)
            d, _ = self.gtimm.simulate_gtimm(4000, [seed, k])
            train, test = _split(self.gtimm, d, 0.5, [seed, k])
            self.gtimm.write_csv(sim / "train.csv", train)
            self.gtimm.write_csv(sim / "test.csv", test)
            test_y.append(test.y)
        return {"dir": workdir, "seed": seed, "test_y": test_y}

    def _cli(self, *argv):
        code = self.gtimm.cli.main([*argv, "--quiet"])
        if code != 0:
            raise RuntimeError(f"gtimm {argv[0]} exited {code}")

    def run_round(self, inp, tally, samples):
        d, seed = inp["dir"], str(inp["seed"])
        data_sets = [(f"sim{k + 1}", ("--data", str(d / f"sim{k + 1}" / "train.csv")),
                      d / f"sim{k + 1}" / "test.csv") for k in range(self.SIMS)]
        data_sets.append(("gdp", ("--data", str(self.gdp), "--y-col", "gdp", "--x-cols",
                                  ",".join(GDP_X), "--group-col", "region", "--standardize"),
                          self.gdp))
        times = {"fit_s": 0.0, "compare_s": 0.0, "predict_s": 0.0, "predict_rows": 0}
        mspes = []
        for tag, data_args, pred_data in data_sets:
            out = d / tag
            _, t = _timed(self._cli, "fit", *data_args, "--max-leaves", "cv", "--seed", seed,
                          "--out", str(out / "fit"))
            times["fit_s"] += t
            model_txt = out / "fit" / "model.txt"
            tally.check(self._check_fit(model_txt, tag, Path(data_args[1]), tally), f"{tag} fit")
            digests = set()
            for _ in range(self.PREDICT_REPEATS):
                _, t = _timed(self._cli, "predict", "--model", str(model_txt),
                              "--data", str(pred_data), "--out", str(out / "pred"))
                times["predict_s"] += t
                digests.add(_digest(out / "pred" / "pred.csv"))
            pred = ref.columns(out / "pred" / "pred.csv", ["prediction"])[:, 0]
            times["predict_rows"] += self.PREDICT_REPEATS * pred.size
            tally.check(self._check_predict(tag, model_txt, pred_data, pred, digests, tally),
                        f"{tag} predict")
            if tag != "gdp":
                mspes.append(ref.mspe(inp["test_y"][len(mspes)], pred))
            _, t = _timed(self._cli, "benchmark", *data_args, "--max-leaves", "cv",
                          "--seed", seed, "--out", str(out / "bench"))
            times["compare_s"] += t
            tally.check(self._check_benchmark(tag, out / "bench", tally), f"{tag} benchmark")
        samples["fit_s"].append(times["fit_s"])
        samples["compare_s"].append(times["compare_s"])
        samples["predict_rows_per_s"].append(times["predict_rows"] / times["predict_s"])
        samples["test_mspe"].append(float(np.mean(mspes)))

    @staticmethod
    def _design(tag, path):
        """(X, y, group labels) of a CSV as the workload's fits read it."""
        if tag == "gdp":
            M = ref.columns(path, ("gdp",) + GDP_X)
            X = np.column_stack([np.ones(len(M)), M[:, 1:]])
            return X, M[:, 0], ref.labels(path, "region")
        M = ref.columns(path, ("y", "x1", "x2"))
        return np.column_stack([np.ones(len(M)), M[:, 1:]]), M[:, 0], ref.labels(path, "group")

    def _check_fit(self, model_txt, tag, data_path, tally):
        """The saved model is the Henderson solution on its own regions at its
        own variance components, and is byte-identical to round one's."""
        mf = ref.read_model_file(model_txt)
        X, y, lab = self._design(tag, data_path)
        ok = True
        if mf["standardization"] is not None:
            X, y, computed = ref.standardize(X, y)
            ok = ref.max_rel_diff(np.hstack(mf["standardization"]), np.hstack(computed)) < 1e-12
        code = {name: k for k, name in enumerate(mf["groups"])}
        g = np.array([code[v] for v in lab])
        gap = ref.mme_gap(mf["beta"], mf["b"], X, y, g, mf["nodes"], mf["sigma_b2"],
                          mf["sigma_eps2"])
        return (ok and tally.within(f"{tag} fit: distance to the Henderson solution", gap, TOL_MME)
                and self._same_as_first(f"{tag}/model.txt", _digest(model_txt)))

    def _same_as_first(self, name, digest):
        return self._first.setdefault(name, digest) == digest

    def _check_predict(self, tag, model_txt, data_path, got, digests, tally):
        """pred.csv is x'beta^(m) + b_g (mapped back to the raw scale when the
        model is standardized), identical on every call and every round."""
        mf = ref.read_model_file(model_txt)
        X, _, lab = self._design(tag, data_path)
        std = mf["standardization"]
        if std is not None:
            X = X.copy()
            X[:, 1:] = (X[:, 1:] - std[0]) / std[1]
        code = {name: k for k, name in enumerate(mf["groups"])}
        g = np.array([code.get(v, -1) for v in lab])
        expect = ref.predict(mf["beta"], mf["b"], X, g, mf["nodes"])
        if std is not None:
            expect = expect * std[3] + std[2]
        return (got.shape == expect.shape and len(digests) == 1
                and self._same_as_first(f"{tag}/pred.csv", digests.pop())
                and tally.within(f"{tag} predict: relative distance to x'beta + b",
                                 ref.max_rel_diff(got, expect), TOL_PRED))

    @staticmethod
    def _check_benchmark(tag, out, tally):
        """Four-cluster data: gtimm < forest < tree < lmm.  GDP: gtimm < lmm."""
        header, rows = ref.read_csv(out / "benchmark.csv")
        m = {name: float(v) for name, v in rows}
        tally.note(f"{tag} benchmark: gtimm's test MSPE over lmm's", m["gtimm"] / m["lmm"])
        if tag == "gdp":
            return m["gtimm"] < m["lmm"]
        return m["gtimm"] < m["forest"] < m["tree"] < m["lmm"]


class ManyGroups:
    """Four-cluster data at 20000 training rows and 500 groups through the
    library: fit_gtimm (leaf count by CV) against fit_lmm."""

    name = "many-groups"
    ops_per_round = 5
    PREDICT_REPEATS = 100
    N_TRAIN, N_TEST, GROUPS = 20000, 5000, 500

    def __init__(self, gtimm, root):
        self.gtimm = gtimm
        self._first = None

    def setup(self, seed, workdir):
        d, _ = self.gtimm.simulate_gtimm(self.N_TRAIN + self.N_TEST, seed, n_groups=self.GROUPS)
        train, test = _split(self.gtimm, d, self.N_TRAIN / d.n, seed)
        return {"seed": seed, "train": train, "test": test,
                "g_train": train.group_label - 1, "g_test": test.group_label - 1}

    def run_round(self, inp, tally, samples):
        gt, train, test = self.gtimm, inp["train"], inp["test"]
        model, t_fit = _timed(gt.fit_gtimm, train, gt.FitConfig(max_leaves="cv", seed=inp["seed"]))
        t0 = time.perf_counter()
        lmm = gt.fit_lmm(train)
        pred = gt.predict(model, test.X, test.Z)
        pred_lmm = gt.predict_baseline(lmm, test.X, test.Z)
        t_compare = time.perf_counter() - t0
        t0 = time.perf_counter()
        same = all([np.array_equal(gt.predict(model, test.X, test.Z), pred)
                    for _ in range(self.PREDICT_REPEATS)])
        t_pred = time.perf_counter() - t0

        nodes = ref.nodes_of(model.tree)
        key = (_fit_key(model), _lmm_key(lmm), pred.tobytes(), pred_lmm.tobytes())
        self._first = self._first or key
        gap = ref.mme_gap(model.beta_star, model.b_hat, train.X, train.y, inp["g_train"], nodes,
                          model.sigma_b2, model.sigma_eps2)
        tally.check(tally.within("fit_gtimm: distance to the Henderson solution", gap, TOL_MME)
                    and key[0] == self._first[0], "fit_gtimm")
        gap = ref.mme_gap(lmm.beta[:, None], lmm.b_tilde, train.X, train.y, inp["g_train"],
                          [(-1, 0.0, -1, -1, 1)], lmm.sigma_b2, lmm.sigma_eps2)
        tally.check(tally.within("fit_lmm: distance to the M=1 Henderson solution", gap, TOL_MME)
                    and key[1] == self._first[1], "fit_lmm")
        diff = ref.max_rel_diff(pred, ref.predict(model.beta_star, model.b_hat, test.X,
                                                  inp["g_test"], nodes))
        tally.check(tally.within("predict: relative distance to x'beta + b", diff, TOL_PRED)
                    and key[2] == self._first[2] and same,
                    "predict")
        diff = ref.max_rel_diff(pred_lmm, ref.predict(lmm.beta[:, None], lmm.b_tilde, test.X,
                                                      inp["g_test"]))
        tally.check(tally.within("predict_baseline: relative distance to x'beta + b", diff,
                                 TOL_PRED) and key[3] == self._first[3], "predict_baseline")
        test_mspe = ref.mspe(test.y, pred)
        tally.note("test MSPE of gtimm over lmm's", test_mspe / ref.mspe(test.y, pred_lmm))
        tally.check(test_mspe < ref.mspe(test.y, pred_lmm), "gtimm test MSPE below lmm")
        samples["fit_s"].append(t_fit)
        samples["compare_s"].append(t_compare)
        samples["predict_rows_per_s"].append(self.PREDICT_REPEATS * test.n / t_pred)
        samples["test_mspe"].append(test_mspe)


class GapScaling:
    """The MSPE-gap experiment on common-coefficient data (M=4 over N in
    {500, 2000, 8000}, 10 replications, and its M=1 control at N=2000), plus
    one more N=8000 cell fitted with FitConfig(max_leaves=4), three times a
    round."""

    name = "gap-scaling"
    ops_per_round = 4
    PREDICT_REPEATS = 300
    GRID, REPS = (500, 2000, 8000), 10

    def __init__(self, gtimm, root):
        self.gtimm = gtimm
        self._first = None

    def setup(self, seed, workdir):
        d, _ = self.gtimm.simulate_common_effects(16000, seed)
        train, test = _split(self.gtimm, d, 0.5, seed)
        return {"seed": seed, "train": train, "test": test,
                "g_train": train.group_label - 1, "g_test": test.group_label - 1}

    def run_round(self, inp, tally, samples):
        gt, train, test, seed = self.gtimm, inp["train"], inp["test"], inp["seed"]
        blocks = [self._fit_and_predict(inp, samples)]
        t0 = time.perf_counter()
        curve = gt.gap_experiment(self.GRID, m=4, replications=self.REPS, seed=seed)
        t_compare = time.perf_counter() - t0
        blocks.append(self._fit_and_predict(inp, samples))
        t0 = time.perf_counter()
        control = gt.gap_experiment([2000], m=1, replications=self.REPS, seed=seed)
        samples["compare_s"].append(t_compare + time.perf_counter() - t0)
        blocks.append(self._fit_and_predict(inp, samples))

        model, pred, same = blocks[0]
        fits_same = all(_fit_key(m) == _fit_key(model) for m, _, _ in blocks[1:])
        same = same and all(np.array_equal(p, pred) and ok for _, p, ok in blocks[1:])
        key = (curve.gap_mean, control.gap_mean, _fit_key(model), pred.tobytes())
        self._first = self._first or key
        tally.note("M=4 gap at N=8000 over the gap at N=500",
                   curve.gap_mean[-1] / curve.gap_mean[0])
        tally.check(curve.failures == 0 and curve.gap_mean[-1] < curve.gap_mean[0]
                    and key[0] == self._first[0], "M=4 gap shrinks from N=500 to N=8000")
        tally.check(control.failures == 0
                    and tally.within("M=1 control gap", control.gap_mean[0], CONTROL_GAP)
                    and key[1] == self._first[1], "M=1 control gap")
        nodes = ref.nodes_of(model.tree)
        gap = ref.mme_gap(model.beta_star, model.b_hat, train.X, train.y, inp["g_train"], nodes,
                          model.sigma_b2, model.sigma_eps2)
        tally.check(tally.within("N=8000 fit: distance to the Henderson solution", gap, TOL_MME)
                    and fits_same and key[2] == self._first[2], "N=8000 fit")
        diff = ref.max_rel_diff(pred, ref.predict(model.beta_star, model.b_hat, test.X,
                                                  inp["g_test"], nodes))
        tally.check(tally.within("N=8000 predict: relative distance to x'beta + b", diff, TOL_PRED)
                    and key[3] == self._first[3] and same, "N=8000 predict")
        samples["test_mspe"].append(ref.mspe(test.y, pred))

    def _fit_and_predict(self, inp, samples):
        """One timed N=8000 fit and a third of the round's predict calls.  A
        round runs three of these between its gap experiments, so these
        short timings sample the whole round."""
        gt, test = self.gtimm, inp["test"]
        model, t_fit = _timed(gt.fit_gtimm, inp["train"],
                              gt.FitConfig(max_leaves=4, seed=inp["seed"]))
        calls = self.PREDICT_REPEATS // 3
        t0 = time.perf_counter()
        pred = gt.predict(model, test.X, test.Z)
        same = all([np.array_equal(gt.predict(model, test.X, test.Z), pred)
                    for _ in range(calls - 1)])
        t_pred = time.perf_counter() - t0
        samples["fit_s"].append(t_fit)
        samples["predict_rows_per_s"].append(calls * test.n / t_pred)
        return model, pred, same


WORKLOADS = {w.name: w for w in (PaperCli, ManyGroups, GapScaling)}
