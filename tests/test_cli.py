import filecmp
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtimm
from gtimm import CsvSchema, load_csv, load_model, mspe, select_leaves_cv
from gtimm.cli import _build_fit_config, build_parser, main

from conftest import region_mismatches

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "gdp_synthetic.csv"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_sim")
    assert main(["simulate", "--n", "2000", "--seed", "7", "--out", str(out),
                 "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def model_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_fit")
    code = main(["fit", "--data", str(sim_dir / "sim.csv"), "--y-col", "y",
                 "--x-cols", "x1,x2", "--group-col", "group",
                 "--max-leaves", "4", "--max-epochs", "40",
                 "--seed", "7", "--out", str(out), "--quiet"])
    assert code == 0
    return out


def test_simulate_outputs(sim_dir):
    sim = (sim_dir / "sim.csv").read_text().splitlines()
    assert sim[0] == "y,x1,x2,group,region_true"
    assert len(sim) == 2001
    truth = (sim_dir / "sim_truth.csv").read_text().splitlines()
    assert truth[0] == "name,i,j,value"
    assert any(line.startswith("sigma_b2") for line in truth)


def test_fit_outputs(model_dir):
    mf = load_model(model_dir / "model.txt")
    assert mf.model.tree.leaf_count == 4
    log = (model_dir / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,quasi_loglik,sigma_b2,sigma_eps2"
    rows = [line.split(",") for line in log[1:]]
    epochs = [int(row[0]) for row in rows]
    assert epochs == list(range(len(rows)))  # init + one line per epoch run
    assert 1 <= epochs[-1] <= 40
    if epochs[-1] < 40:  # stopped early: the last three epochs stalled
        ql = [float(row[1]) for row in rows[-4:]]
        assert all(abs(b - a) / (1.0 + abs(a)) < 1e-6 for a, b in zip(ql, ql[1:]))


def test_predict_pipeline(sim_dir, model_dir, tmp_path):
    code = main(["predict", "--model", str(model_dir / "model.txt"),
                 "--data", str(sim_dir / "sim.csv"), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    lines = (tmp_path / "pred.csv").read_text().splitlines()
    assert lines[0] == "prediction"
    pred = np.array([float(v) for v in lines[1:]])
    y = np.array([float(row.split(",")[0])
                  for row in (sim_dir / "sim.csv").read_text().splitlines()[1:]])
    err = mspe(y, pred)
    assert np.isfinite(err) and err >= 0
    assert err < 3.0  # in-sample predictions on the generating data


def test_fit_cv_selects_four_and_reports(sim_dir, tmp_path, capsys):
    code = main(["fit", "--data", str(sim_dir / "sim.csv"),
                 "--max-leaves", "cv", "--max-epochs", "10",
                 "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "4 leaves" in out and "cross-validation" in out
    assert load_model(tmp_path / "model.txt").model.tree.leaf_count == 4


def test_cv_leaves_command(sim_dir, tmp_path, capsys):
    code = main(["cv-leaves", "--data", str(sim_dir / "sim.csv"),
                 "--candidates", "1-8", "--folds", "5", "--seed", "7",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    d = load_csv(sim_dir / "sim.csv", CsvSchema("y", ("x1", "x2"), group_col="group"))
    chosen = select_leaves_cv(d, folds=5, candidates=range(1, 9), seed=7)
    assert capsys.readouterr().out.strip() == str(chosen) == "4"
    lines = (tmp_path / "cv_leaves.csv").read_text().splitlines()
    assert lines[0] == "candidate,mean_oof_mse"
    assert len(lines) == 9


def test_emit_regions(sim_dir, tmp_path):
    code = main(["fit", "--data", str(sim_dir / "sim.csv"), "--max-leaves", "4",
                 "--max-epochs", "5", "--seed", "7", "--emit-regions",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    lines = (tmp_path / "regions.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,region_true,region_tree"
    assert len(lines) == 2001
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    mismatches = region_mismatches(rows[:, 3].astype(int), rows[:, 2].astype(int))
    assert mismatches <= 20  # 1% of 2000
    # the predictor columns follow --x-cols, by name and in order
    sim = np.loadtxt(sim_dir / "sim.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    for x_cols, columns in (("x1", sim[:, :1]), ("x2,x1", sim[:, ::-1])):
        out = tmp_path / x_cols
        assert main(["fit", "--data", str(sim_dir / "sim.csv"), "--x-cols", x_cols,
                     "--max-leaves", "2", "--max-epochs", "2", "--emit-regions",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "regions.csv").read_text().splitlines()
        assert lines[0] == f"{x_cols},region_true,region_tree"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, :-2], columns)


def test_crosstab_command(sim_dir, model_dir, tmp_path):
    code = main(["crosstab", "--model", str(model_dir / "model.txt"),
                 "--data", str(sim_dir / "sim.csv"), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    lines = (tmp_path / "crosstab.csv").read_text().splitlines()
    assert lines[0] == "node,group,count"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 2000
    assert len(lines) == 1 + 4 * 10


def test_benchmark_command(sim_dir, tmp_path):
    code = main(["benchmark", "--data", str(sim_dir / "sim.csv"),
                 "--max-leaves", "4", "--max-epochs", "30",
                 "--train-fraction", "0.8", "--seed", "7",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    lines = (tmp_path / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "model,mspe"
    report = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert set(report) == {"gtimm", "lmm", "forest", "tree"}
    assert report["gtimm"] < report["forest"] < report["tree"] < report["lmm"]


def test_gap_scaling_schema(tmp_path):
    code = main(["gap-scaling", "--n-grid", "400,800", "--m", "1",
                 "--replications", "5", "--test-n", "400", "--seed", "5",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 0
    lines = (tmp_path / "gap.csv").read_text().splitlines()
    assert lines[0] == "N,M,gap_mean,gap_std"
    assert len(lines) == 3


@pytest.mark.parametrize("argv", [["gap-scaling", "--test-n", "0"],
                                  ["gap-scaling", "--n-grid", "0"],
                                  ["simulate", "--groups", "0"]])
def test_empty_sizes_are_usage_errors(argv, tmp_path, capsys):
    code = main([*argv, "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("gtimm: usage error:"), err


def test_standardized_fit_and_predict_on_fixture(tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    code = main(["fit", "--data", str(FIXTURE), "--y-col", "gdp",
                 "--x-cols", "fdi_inflows,fdi_outflows,trade,unemployment,inflation",
                 "--group-col", "region", "--standardize", "--max-leaves", "4",
                 "--max-epochs", "60", "--seed", "0", "--out", str(fit_dir),
                 "--quiet"])
    assert code == 0
    # the 97-row fit has thin regions: one readable line, no source location
    assert capsys.readouterr().err.splitlines() == [
        "gtimm: warning: 4 region(s) hold fewer than 5*p=30 observations; "
        "their coefficient estimates may be unstable"]
    pred_dir = tmp_path / "pred"
    code = main(["predict", "--model", str(fit_dir / "model.txt"),
                 "--data", str(FIXTURE), "--out", str(pred_dir), "--quiet"])
    assert code == 0
    pred = np.array([float(v) for v in
                     (pred_dir / "pred.csv").read_text().splitlines()[1:]])
    y = np.array([float(row.split(",")[0])
                  for row in FIXTURE.read_text().splitlines()[1:]])
    # predictions come back on the raw gdp scale
    assert mspe(y, pred) < np.var(y)


def test_more_folds_than_rows_is_a_usage_error(tmp_path, capsys):
    # the 97-row fixture cannot be cut into 200 folds
    data = ["--data", str(FIXTURE), "--y-col", "gdp", "--x-cols",
            "fdi_inflows,fdi_outflows,trade,unemployment,inflation", "--group-col", "region"]
    for argv in (["cv-leaves", *data, "--folds", "200"],
                 ["fit", *data, "--max-leaves", "cv", "--cv-folds", "200"]):
        code = main([*argv, "--out", str(tmp_path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("gtimm: usage error:") and "200" in err and "97" in err, err


def test_fit_response_outside_family_range_exits_2(tmp_path, capsys):
    # standardized gdp takes negative values, which no Poisson count can
    code = main(["fit", "--data", str(FIXTURE), "--y-col", "gdp",
                 "--x-cols", "fdi_inflows,fdi_outflows,trade,unemployment,inflation",
                 "--group-col", "region", "--standardize", "--family", "poisson",
                 "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("gtimm: data error: family 'poisson'"), err
    assert not (tmp_path / "model.txt").exists()


def test_config_file_precedence(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("learning_rate=0.5\nmax_epochs=3\nbatch_size=16\nseed=9\n")
    parser = build_parser()
    args = parser.parse_args(["fit", "--data", "x.csv", "--config", str(cfg_path),
                              "--learning-rate", "0.01", "--seed", "4"])
    cfg = _build_fit_config(args)
    assert cfg.learning_rate == 0.01  # flag wins
    assert cfg.max_epochs == 3  # config wins over default
    assert cfg.batch_size == 16
    assert cfg.seed == 4  # explicit flag beats config
    args = parser.parse_args(["fit", "--data", "x.csv", "--config", str(cfg_path)])
    assert _build_fit_config(args).seed == 9  # config applies when flag absent


def test_successive_main_calls_keep_seed_precedence(sim_dir, tmp_path, monkeypatch):
    # main reuses one parser; a --seed given to one call must not reach the next
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=9\n")
    seeds = []

    def record(d, cfg):
        seeds.append(cfg.seed)
        raise gtimm.NumericalError("stop before fitting")

    monkeypatch.setattr(gtimm.cli, "fit_gtimm", record)
    fit = ["fit", "--data", str(sim_dir / "sim.csv"), "--out", str(tmp_path), "--quiet"]
    assert main([*fit, "--config", str(cfg_path), "--seed", "4"]) == 3
    assert main([*fit, "--config", str(cfg_path)]) == 3
    assert main([*fit, "--seed", "5"]) == 3
    assert main(fit) == 3
    assert seeds == [4, 9, 5, 0]


def test_main_calls_the_command_bound_when_it_runs(sim_dir, model_dir, tmp_path,
                                                   monkeypatch):
    # the parser outlives a main call; a cmd_* rebound after it still runs
    predict = ["predict", "--model", str(model_dir / "model.txt"),
               "--data", str(sim_dir / "sim.csv"), "--out", str(tmp_path), "--quiet"]
    assert main(predict) == 0
    calls = []
    monkeypatch.setattr(gtimm.cli, "cmd_predict", lambda args: calls.append(args) or 7)
    monkeypatch.setattr(gtimm.cli, "cmd_cv_leaves", lambda args: calls.append(args) or 8)
    assert main(predict) == 7
    assert main(["cv-leaves", "--data", str(sim_dir / "sim.csv"), "--quiet"]) == 8
    assert [args.command for args in calls] == ["predict", "cv-leaves"]


def test_exit_codes(sim_dir, model_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", "x.csv", "--bogus-flag"])
    assert exc.value.code == 1
    assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path), "--quiet"]) == 2
    capsys.readouterr()
    # non-finite hyperparameters are usage errors, from a flag or a config file
    nan_config = tmp_path / "nan.cfg"
    nan_config.write_text("rel_tol=nan\n")
    zero_config = tmp_path / "zero.cfg"
    zero_config.write_text("batch_size=0\n")
    for extra in (["--rel-tol", "nan"], ["--learning-rate", "nan"],
                  ["--learning-rate", "inf"], ["--config", str(nan_config)],
                  ["--batch-size", "0"], ["--config", str(zero_config)]):
        code = main(["fit", "--data", str(sim_dir / "sim.csv"), *extra,
                     "--out", str(tmp_path / "nonfinite"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("gtimm: usage error:"), err
    # a config line that does not parse for its key is a data error naming
    # the file, the line and the key
    for line in ("batch_size=abc", "max_leaves=many", "cv_candidates=2-x",
                 "cv_candidates=,", "cv_candidates=2,8-4", "seed=1.5", "batch_size"):
        bad_config = tmp_path / "bad.cfg"
        bad_config.write_text(f"max_epochs=3\n{line}\n")
        code = main(["fit", "--data", str(sim_dir / "sim.csv"), "--config", str(bad_config),
                     "--out", str(tmp_path / "badcfg"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"gtimm: data error: {bad_config}:2:"), err
        assert line.split("=")[0] in err, err
    # cv-leaves rejects a minimum leaf size below 1 as fit does
    code = main(["cv-leaves", "--data", str(sim_dir / "sim.csv"), "--min-leaf", "0",
                 "--out", str(tmp_path / "cv"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("gtimm: usage error:"), err
    # a reversed candidate range is a usage error naming it, not a dropped range
    code = main(["cv-leaves", "--data", str(sim_dir / "sim.csv"), "--candidates", "2,8-4",
                 "--out", str(tmp_path / "cv"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1 and "'8-4'" in err, err
    # a column named in two roles is a data error naming the column
    for sub in ("fit", "benchmark", "cv-leaves"):
        for roles, twice in ((["--x-cols", "y,x1"], "y"), (["--x-cols", "x1,x2,x1"], "x1"),
                             (["--group-col", "x1"], "x1"), (["--group-col", "y"], "y")):
            code = main([sub, "--data", str(sim_dir / "sim.csv"), *roles,
                         "--out", str(tmp_path / "roles"), "--quiet"])
            err = capsys.readouterr().err
            assert code == 2, (sub, roles, err)
            assert err.startswith("gtimm: data error:") and f"'{twice}'" in err, err
    # explicit random-effect columns are gone: the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_dir / "sim.csv"), "--z-cols", "z1,z2",
              "--out", str(tmp_path), "--quiet"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --z-cols" in capsys.readouterr().err

    def data_error(sub, model, data, names):
        code = main([sub, "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("gtimm: data error:") and err.count("\n") == 1, err
        assert all(name in err for name in names), err

    # a truncated model file and an unparsable number in one
    text = (model_dir / "model.txt").read_text()
    truncated, corrupt = tmp_path / "truncated.txt", tmp_path / "corrupt.txt"
    truncated.write_text(text[:120])
    corrupt.write_text(text.replace("sigma_b2=", "sigma_b2=abc", 1))
    data_error("predict", truncated, sim_dir / "sim.csv", ["beta_star"])
    data_error("predict", corrupt, sim_dir / "sim.csv", ["abc"])
    # a split threshold that is not finite
    for key, value in (("threshold", "nan"), ("threshold", "inf")):
        nonfinite = tmp_path / f"{key}_{value}.txt"
        nonfinite.write_text(re.sub(f"{key}=[^ ]+", f"{key}={value}", text, count=1))
        data_error("predict", nonfinite, sim_dir / "sim.csv", [f"non-finite {key}"])
    # a model file holds only a fitted GTIMM
    lmm = tmp_path / "lmm.txt"
    lmm.write_text(text.replace("kind=gtimm", "kind=lmm", 1))
    for sub in ("predict", "crosstab"):
        data_error(sub, lmm, sim_dir / "sim.csv", ["kind 'lmm'"])
    # a model file with explicit random-effect columns names their removal
    z_cols = tmp_path / "z_cols.txt"
    z_cols.write_text(text.replace("[schema]\n", "[schema]\nz_cols=z1,z2\n", 1))
    for sub in ("predict", "crosstab"):
        data_error(sub, z_cols, sim_dir / "sim.csv", ["z_cols", "removed"])
    # a group named twice would give one group's rows another's effect
    twice = tmp_path / "twice.txt"
    twice.write_text(re.sub(r"\[groups\]\n(.*)\n.*\n", r"[groups]\n\1\n\1\n", text, count=1))
    data_error("predict", twice, sim_dir / "sim.csv", ["[groups]", "more than once"])
    # a ragged row in the prediction input, cut short of x2 and group
    lines = (sim_dir / "sim.csv").read_text().splitlines()
    ragged = tmp_path / "ragged.csv"
    short = ",".join(lines[2].split(",")[:2])
    ragged.write_text("\n".join(lines[:2] + [short] + lines[3:]) + "\n")
    for sub in ("predict", "crosstab"):
        data_error(sub, model_dir / "model.txt", ragged, ["row 2"])
    # a blank group cell is a missing value, for fit as for predict and crosstab
    blank = tmp_path / "blank.csv"
    blank.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 2)[0] + ",,1"] + lines[3:])
                     + "\n")
    for sub in ("predict", "crosstab"):
        data_error(sub, model_dir / "model.txt", blank, ["row 2, column 'group': missing value"])
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("y,x1,group\n1.0,0.5,A\n2.0,1.5,\n3.0,2.5,B\n4.0,3.5,A\n")
    code = main(["fit", "--data", str(tiny), "--x-cols", "x1", "--max-leaves", "1",
                 "--out", str(tmp_path / "tiny"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == "gtimm: data error: row 2, column 'group': missing value\n", err
    # a directory where a file is read, or a file where --out is made
    a_file = tmp_path / "a_file"
    a_file.write_text("x\n")
    for argv in (["fit", "--data", str(tmp_path)],
                 ["fit", "--data", str(sim_dir / "sim.csv"), "--config", str(tmp_path)],
                 ["predict", "--model", str(tmp_path), "--data", str(sim_dir / "sim.csv")],
                 ["fit", "--data", str(sim_dir / "sim.csv"), "--max-epochs", "2",
                  "--out", str(a_file)]):
        code = main([*argv, *(["--out", str(tmp_path / "os")] if "--out" not in argv else []),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("gtimm: data error:") and err.count("\n") == 1, err
    # predict and crosstab read no response column, so they take no --y-col
    for sub in ("predict", "crosstab"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--model", str(model_dir / "model.txt"), "--data",
                  str(sim_dir / "sim.csv"), "--y-col", "no_such_column",
                  "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --y-col" in capsys.readouterr().err
    # predict and crosstab draw no random numbers, so they take no --seed
    for sub in ("predict", "crosstab"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--model", str(model_dir / "model.txt"), "--data",
                  str(sim_dir / "sim.csv"), "--seed", "5", "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
    # only fit and benchmark read a config file, so only they take --config
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(nan_config), "--out", str(tmp_path), "--quiet"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["simulate", "fit", "predict", "benchmark",
                                 "cv-leaves", "gap-scaling", "crosstab"])
def test_help_exits_zero_and_shows_defaults(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default" in out and "--out" in out
    assert ("--seed" in out) == (sub not in ("predict", "crosstab"))
    assert ") (default:" not in out  # argparse appends each default once


def test_x_cols_with_spaces_in_fit_and_predict(sim_dir, tmp_path):
    # every subcommand strips the names in --x-cols
    fit_dir, pred_dir = tmp_path / "fit", tmp_path / "pred"
    assert main(["fit", "--data", str(sim_dir / "sim.csv"), "--x-cols", "x1, x2",
                 "--max-leaves", "2", "--max-epochs", "3", "--out", str(fit_dir),
                 "--quiet"]) == 0
    assert load_model(fit_dir / "model.txt").x_cols == ("x1", "x2")
    for sub, out in (("predict", "pred.csv"), ("crosstab", "crosstab.csv")):
        assert main([sub, "--model", str(fit_dir / "model.txt"), "--data",
                     str(sim_dir / "sim.csv"), "--x-cols", "x1, x2",
                     "--out", str(pred_dir), "--quiet"]) == 0
        assert (pred_dir / out).exists()


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--n", "400", "--seed", "3", "--out", str(out),
                     "--quiet"]) == 0
    assert filecmp.cmp(a / "sim.csv", b / "sim.csv", shallow=False)
    assert filecmp.cmp(a / "sim_truth.csv", b / "sim_truth.csv", shallow=False)


def test_python_dash_m_runs_the_cli():
    # __main__.py, in a fresh interpreter that finds this gtimm
    env = dict(os.environ, PYTHONPATH=str(Path(gtimm.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "gtimm", "--help"], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gtimm")
