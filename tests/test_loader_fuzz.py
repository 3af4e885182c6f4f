"""Fuzzing the three text inputs: a model file, a CSV and a ``--config``
file, each mutated from a valid one.

A mutated file either loads or fails with a :class:`GtimmError` from its
loader, and the CLI ends with an exit code and a one-line message, never a
traceback: a malformed model file or CSV exits 2, as does a config line
that does not parse; a config value that parses but is out of range is a
usage error (exit 1), and a fit that fails numerically exits 3.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gtimm import CsvSchema, GtimmError, load_csv, load_model, simulate_gtimm, write_csv
from gtimm.cli import _read_config_file, main

# fragments a mutation may insert: separators, section and key syntax,
# numbers a float parser treats specially, and bytes that are not UTF-8
FRAGMENTS = [b"", b"0", b"1", b"-1", b"9", b".", b"=", b",", b" ", b"\n", b"[", b"]",
             b"#", b"nan", b"inf", b"-inf", b"1e999", b"e", b"x", b"\xff", b"\x00",
             b"node", b"leaf", b"split", b"left=", b"right=", b"region=", b"feature=",
             b"[tree]", b"[b_hat]", b"[beta_star]", b"[groups]", b"[schema]",
             b"[standardization]", b"kind=gtimm", b"max_leaves=", b"cv", b"gaussian"]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small CSV, the standardized model fitted on it, and a config file."""
    root = tmp_path_factory.mktemp("fuzz")
    d, _ = simulate_gtimm(80, seed=4)
    write_csv(root / "data.csv", d)
    assert main(["fit", "--data", str(root / "data.csv"), "--max-leaves", "2",
                 "--max-epochs", "3", "--standardize", "--seed", "0",
                 "--out", str(root / "fit"), "--quiet"]) == 0
    (root / "fit.cfg").write_text("# fit settings\nmax_leaves=cv\ncv_candidates=1-3\n"
                                  "cv_folds=3\nlearning_rate=0.05\nbatch_size=16\n"
                                  "min_leaf=5\nmin_region_fraction=0.05\nseed=2\n"
                                  "family=gaussian\nrel_tol=1e-6\n")
    return root


@st.composite
def mutations(draw, text: bytes) -> bytes:
    """One to four edits of ``text``: a byte span deleted, replaced or
    inserted, or a whole line dropped, repeated or swapped with another."""
    out = bytearray(text)
    for _ in range(draw(st.integers(1, 4))):
        lines = bytes(out).split(b"\n")
        kind = draw(st.sampled_from(["delete", "replace", "insert", "drop", "repeat", "swap"]))
        if kind in ("delete", "replace", "insert"):
            at = draw(st.integers(0, len(out)))
            end = at if kind == "insert" else min(len(out), at + draw(st.integers(1, 8)))
            out[at:end] = b"" if kind == "delete" else draw(st.sampled_from(FRAGMENTS))
            continue
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        out = bytearray(b"\n".join(lines))
    return bytes(out)


def _cli(capsys, *argv) -> int:
    code = main([*map(str, argv), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 0 or err.startswith("gtimm: "), err
    return code


@SETTINGS
@given(data=st.data())
def test_mutated_model_file_fails_with_a_data_error(valid, tmp_path, capsys, data):
    path = tmp_path / "model.txt"
    path.write_bytes(data.draw(mutations((valid / "fit" / "model.txt").read_bytes())))
    try:
        load_model(path)
        loads = True
    except GtimmError:
        loads = False
    code = _cli(capsys, "predict", "--model", path, "--data", valid / "data.csv",
                "--out", tmp_path / "pred")
    assert code in ((0, 2) if loads else (2,))


@SETTINGS
@given(data=st.data())
def test_mutated_csv_fails_with_a_data_error(valid, tmp_path, capsys, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data.draw(mutations((valid / "data.csv").read_bytes())))
    try:
        load_csv(path, CsvSchema("y", ("x1", "x2"), group_col="group"))
    except GtimmError:
        pass
    code = _cli(capsys, "predict", "--model", valid / "fit" / "model.txt", "--data", path,
                "--out", tmp_path / "pred")
    assert code in (0, 2)


@SETTINGS
@given(data=st.data())
def test_mutated_config_fails_with_a_typed_error(valid, tmp_path, capsys, data):
    path = tmp_path / "fit.cfg"
    path.write_bytes(data.draw(mutations((valid / "fit.cfg").read_bytes())))
    try:
        _read_config_file(path)
        parses = True
    except GtimmError:
        parses = False
    # the flag caps the work whatever the file asks for; flags override it
    code = _cli(capsys, "fit", "--data", valid / "data.csv", "--config", path,
                "--max-epochs", "2", "--out", tmp_path / "fit")
    assert code in ((0, 1, 2, 3) if parses else (2,))
