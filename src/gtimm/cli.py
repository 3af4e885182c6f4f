"""Command-line entry point.

Subcommands: simulate, fit, predict, benchmark, cv-leaves, gap-scaling,
crosstab.  All randomness flows from --seed, every output is plain CSV or
text, and identical invocations on the same machine with the same BLAS
thread count produce byte-identical files.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.  A warning prints as one
``gtimm: warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import data as dt
from .errors import DataError, GtimmError, NumericalError
from .evaluate import benchmark, crosstab_regions, gap_experiment
from .fit import FitConfig, fit_gtimm, predict
from .modelio import ModelFile, load_model, save_model
from .tree import assign_regions, cv_leaf_scores, one_se_rule


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool uses 1.  Help output
    shows every flag's default."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _parse_candidates(spec: str):
    out = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(v) for v in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"reversed range {part!r} in leaf candidates {spec!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError(f"no leaf candidates in {spec!r}")
    return tuple(out)


def _parse_max_leaves(value: str):
    return value if value == "cv" else int(value)


# FitConfig fields settable from a config file or a flag, each with the
# parser of its text form
_CONFIG_KEYS = {
    "learning_rate": float,
    "batch_size": int,
    "max_epochs": int,
    "rel_tol": float,
    "max_leaves": _parse_max_leaves,
    "cv_folds": int,
    "cv_candidates": _parse_candidates,
    "seed": int,
    "min_region_fraction": float,
    "min_leaf": int,
    "family": str,
}


def _read_config_file(path) -> dict:
    """A value that does not parse for its key is a data error; FitConfig
    checks the parsed values' ranges as it does for flags."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file: {exc}") from None
    for i, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}:{i}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise DataError(f"{path}:{i}: bad value for {key!r}: {exc}") from exc
    return values


def _seed_of(args) -> int:
    return getattr(args, "seed", 0)


def _build_fit_config(args) -> FitConfig:
    """Defaults < config file < explicit flags (flags win).  A flag's value
    goes through its key's parser, as a config file's does."""
    values: dict = {}
    if args.config is not None:
        values.update(_read_config_file(args.config))
    for key, parse in _CONFIG_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = parse(flag)
    return FitConfig(**values)


def _split_cols(spec: str) -> tuple[str, ...]:
    """Column names from a comma-separated list, stripped, empty ones dropped."""
    return tuple(c.strip() for c in spec.split(",") if c.strip())


def _schema_from_args(args) -> dt.CsvSchema:
    return dt.CsvSchema(args.y_col, _split_cols(args.x_cols), args.group_col)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    d, truth = dt.simulate_gtimm(args.n, _seed_of(args), args.sigma_b2, args.sigma_eps2,
                                 args.groups)
    dt.write_table(out / "sim.csv", ["y", "x1", "x2", "group", "region_true"],
                   [d.y, d.X[:, 1], d.X[:, 2], d.group_label, truth.region_true])
    p, m = truth.beta_star_true.shape
    truth_rows = [("beta_star", i, j + 1, truth.beta_star_true[i, j])
                  for i in range(p) for j in range(m)]
    truth_rows += [("b_true", g, 0, b) for g, b in enumerate(truth.b_true, start=1)]
    truth_rows += [("sigma_b2", 0, 0, truth.sigma_b2), ("sigma_eps2", 0, 0, truth.sigma_eps2)]
    dt.write_table(out / "sim_truth.csv", ["name", "i", "j", "value"], zip(*truth_rows))
    _say(args, f"wrote {out / 'sim.csv'} ({d.n} rows) and {out / 'sim_truth.csv'}")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args)
    schema = _schema_from_args(args)
    d = dt.load_csv(args.data, schema)
    std = None
    if args.standardize:
        d, std = dt.standardize(d)
    cfg = _build_fit_config(args)
    model = fit_gtimm(d, cfg)
    save_model(out / "model.txt", model, x_cols=schema.x_cols, group_col=schema.group_col,
               group_names=d.group_names, standardization=std)
    log_cols = ["epoch", "quasi_loglik", "sigma_b2", "sigma_eps2"]
    dt.write_table(out / "train_log.csv", log_cols,
                   [[getattr(h, c) for h in model.history] for c in log_cols])
    how = (f"selected by {cfg.cv_folds}-fold cross-validation"
           if cfg.max_leaves == "cv" else "fixed by --max-leaves")
    _say(args, f"fit with {model.tree.leaf_count} leaves ({how}); "
               f"wrote {out / 'model.txt'} and {out / 'train_log.csv'}")
    if args.emit_regions:
        # region_true is read in the response's place
        des = dt.read_design(*dt.read_table(args.data), schema.x_cols, y_col="region_true")
        X, region_true = des.X, des.y.astype(int)
        region_tree = model.tree.route(X if std is None else std.scale_x(X))
        dt.write_table(out / "regions.csv", [*schema.x_cols, "region_true", "region_tree"],
                       [*X[:, 1:].T, region_true, region_tree])
        _say(args, f"wrote {out / 'regions.csv'}")
    return 0


def _x_cols(mf: ModelFile, args) -> tuple[str, ...]:
    if args.x_cols:
        return _split_cols(args.x_cols)
    if mf.x_cols is None:
        raise DataError("model file stores no x_cols; pass --x-cols")
    return mf.x_cols


def cmd_predict(args) -> int:
    out = _out_dir(args)
    mf = load_model(args.model)
    header, rows = dt.read_table(args.data)
    # the group column is read when the file has it; else every row's Z is 0
    group_col = args.group_col or mf.group_col
    grouped = bool(mf.group_names) and group_col in header
    des = dt.read_design(header, rows, _x_cols(mf, args), group_col=group_col if grouped else None,
                         group_names=mf.group_names, standardization=mf.standardization)
    label = des.group_label if grouped else np.zeros(len(rows), dtype=int)
    pred = predict(mf.model, des.X, dt.one_hot(label, mf.model.b_hat.size),
                   include_random=args.include_random)
    if mf.standardization is not None:
        pred = dt.destandardize_y(pred, mf.standardization)
    dt.write_table(out / "pred.csv", ["prediction"], [pred])
    _say(args, f"wrote {out / 'pred.csv'} ({len(pred)} rows)")
    return 0


def cmd_benchmark(args) -> int:
    out = _out_dir(args)
    d = dt.load_csv(args.data, _schema_from_args(args))
    if args.standardize:
        d, _ = dt.standardize(d)
    cfg = _build_fit_config(args)
    report = benchmark(d, cfg, args.train_fraction, cfg.seed)
    dt.write_table(out / "benchmark.csv", ["model", "mspe"],
                   [list(report.mspe), list(report.mspe.values())])
    _say(args, "test MSPE: " + "  ".join(f"{k}={v:.4f}" for k, v in report.mspe.items()))
    return 0


def cmd_cv_leaves(args) -> int:
    out = _out_dir(args)
    d = dt.load_csv(args.data, _schema_from_args(args))
    if args.standardize:
        d, _ = dt.standardize(d)
    candidates = _parse_candidates(args.candidates)
    scores = cv_leaf_scores(d, args.folds, candidates, _seed_of(args), args.min_leaf)
    means = {m: float(v.mean()) for m, v in scores.items()}
    dt.write_table(out / "cv_leaves.csv", ["candidate", "mean_oof_mse"],
                   [sorted(means), [means[m] for m in sorted(means)]])
    _say(args, f"wrote {out / 'cv_leaves.csv'}; candidate scores {sorted(means)}")
    print(one_se_rule(scores))
    return 0


def cmd_gap_scaling(args) -> int:
    out = _out_dir(args)
    n_grid = [int(v) for v in args.n_grid.split(",")]
    curve = gap_experiment(n_grid, args.m, args.replications, _seed_of(args),
                           test_n=args.test_n)
    dt.write_table(out / "gap.csv", ["N", "M", "gap_mean", "gap_std"],
                   [curve.n_values, [curve.m] * len(curve.n_values), curve.gap_mean,
                    curve.gap_std])
    slope = ""
    if len(curve.n_values) >= 2:
        fit = np.polyfit(np.log(curve.n_values), np.log(curve.gap_mean), 1)
        slope = f"; log-log slope of the gap against N {fit[0]:.3f}"
    _say(args, f"wrote {out / 'gap.csv'}{slope}")
    return 0


def cmd_crosstab(args) -> int:
    out = _out_dir(args)
    mf = load_model(args.model)
    header, rows = dt.read_table(args.data)
    group_col = args.group_col or mf.group_col
    if not group_col or group_col not in header:
        raise DataError("crosstab needs a group column")
    des = dt.read_design(header, rows, _x_cols(mf, args), group_col=group_col,
                         group_names=mf.group_names, standardization=mf.standardization)
    groups = np.array(des.groups)
    assign = assign_regions(mf.model.tree, des.X)
    counts = crosstab_regions(assign, groups)
    labels = sorted(set(groups.tolist()))
    nodes, n_labels = counts.shape
    dt.write_table(out / "crosstab.csv", ["node", "group", "count"],
                   [np.repeat(np.arange(1, nodes + 1), n_labels), labels * nodes, counts.ravel()])
    _say(args, f"wrote {out / 'crosstab.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_seed(sp) -> None:
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="RNG seed (default: 0)")


def _add_common(sp) -> None:
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--quiet", action="store_true", help="suppress progress output")


def _add_schema(sp) -> None:
    sp.add_argument("--data", required=True, help="input CSV with a header row")
    sp.add_argument("--y-col", default="y", help="response column")
    sp.add_argument("--x-cols", default="x1,x2", help="comma-separated predictor columns")
    sp.add_argument("--group-col", default="group", help="group column for the random effect")
    sp.add_argument("--standardize", action="store_true",
                    help="standardize y and predictors before fitting")


def _add_fit_flags(sp) -> None:
    sp.add_argument("--config", default=None,
                    help="key=value config file; explicit flags override it, and its "
                         "seed applies when --seed is absent")
    sp.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    sp.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    sp.add_argument("--max-epochs", type=int, default=None, dest="max_epochs")
    sp.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    sp.add_argument("--max-leaves", default=None, dest="max_leaves",
                    help="terminal node count, or 'cv' to select by cross-validation")
    sp.add_argument("--cv-folds", type=int, default=None, dest="cv_folds")
    sp.add_argument("--cv-candidates", default=None, dest="cv_candidates",
                    help="leaf candidates for cv, e.g. '1-8' or '2,4,6'")
    sp.add_argument("--min-region-fraction", type=float, default=None,
                    dest="min_region_fraction")
    sp.add_argument("--min-leaf", type=int, default=None, dest="min_leaf")
    sp.add_argument("--family", default=None, choices=["gaussian", "poisson", "bernoulli"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gtimm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("simulate", help="write the four-cluster simulation to CSV")
    _add_seed(sp)
    _add_common(sp)
    sp.add_argument("--n", type=int, default=2000, help="total observations")
    sp.add_argument("--sigma-b2", type=float, default=2.0, dest="sigma_b2")
    sp.add_argument("--sigma-eps2", type=float, default=1.0, dest="sigma_eps2")
    sp.add_argument("--groups", type=int, default=10, help="random-effect groups")

    sp = sub.add_parser("fit", help="fit the tree-informed mixed model")
    _add_seed(sp)
    _add_common(sp)
    _add_schema(sp)
    _add_fit_flags(sp)
    sp.add_argument("--emit-regions", action="store_true",
                    help="also write regions.csv (needs region_true in the data)")

    sp = sub.add_parser("predict", help="predict from a saved model file")
    _add_common(sp)
    sp.add_argument("--model", required=True, help="model file from fit")
    sp.add_argument("--data", required=True, help="input CSV")
    sp.add_argument("--x-cols", default=None)
    sp.add_argument("--group-col", default=None)
    sp.add_argument("--include-random", action=argparse.BooleanOptionalAction,
                    default=True, help="add the group random effect")

    sp = sub.add_parser("benchmark", help="train/test MSPE of all models")
    _add_seed(sp)
    _add_common(sp)
    _add_schema(sp)
    _add_fit_flags(sp)
    sp.add_argument("--train-fraction", type=float, default=0.8, dest="train_fraction")

    sp = sub.add_parser("cv-leaves", help="cross-validate the number of terminal nodes")
    _add_seed(sp)
    _add_common(sp)
    _add_schema(sp)
    sp.add_argument("--candidates", default="1-8", help="e.g. '1-8' or '2,4,6'")
    sp.add_argument("--folds", type=int, default=5)
    sp.add_argument("--min-leaf", type=int, default=10, dest="min_leaf")

    sp = sub.add_parser("gap-scaling", help="MSPE-gap decay experiment over N")
    _add_seed(sp)
    _add_common(sp)
    sp.add_argument("--n-grid", default="500,1000,2000,4000,8000", dest="n_grid")
    sp.add_argument("--m", type=int, default=4, help="leaf count of the tree arm")
    sp.add_argument("--replications", type=int, default=20)
    sp.add_argument("--test-n", type=int, default=2000, dest="test_n")

    sp = sub.add_parser("crosstab", help="region-by-group contingency table")
    _add_common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--x-cols", default=None)
    sp.add_argument("--group-col", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: building one costs more
    than a small ``predict``, and ``parse_args`` does not change it (every
    default is a constant, and ``--seed`` has none).  It names the command
    but holds no function: ``main`` looks ``cmd_<command>`` up when it runs,
    so a later rebinding of it (a test double, a tracer) is the one called."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # restores the caller's showwarning
            warnings.showwarning = lambda msg, *_: print(f"gtimm: warning: {msg}",
                                                         file=sys.stderr)
            return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except NumericalError as exc:
        print(f"gtimm: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GtimmError as exc:
        print(f"gtimm: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory for a file, an --out that is a file
        print(f"gtimm: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"gtimm: usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
