import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtimm import (
    CsvSchema,
    DataError,
    Dataset,
    ParseError,
    SchemaError,
    destandardize_y,
    load_csv,
    simulate_common_effects,
    simulate_gtimm,
    standardize,
    write_csv,
)
from gtimm.data import (
    REGION_COEFFS,
    _parse_cell,
    group_stratified_folds,
    read_design,
    train_test_split_grouped,
    write_table,
)


def make_dataset(n=30, p=3, q=4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    g = rng.integers(1, q + 1, n)
    y = rng.normal(size=n)
    return Dataset(y, X, g, q=q)


# ---------------------------------------------------------------------------
# regional means of the four-cluster generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x1, x2, region, expected", [
    (0.0, 0.0, 1, 2.0),
    (1.0, 1.0, 3, 0.0),
    (0.0, 0.0, 4, -2.0),
    (1.0, 1.0, 1, 4.0),
])
def test_regional_mean_values(x1, x2, region, expected):
    c = REGION_COEFFS[region - 1]
    assert c[0] + c[1] * x1 + c[2] * x2 == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# simulation generator
# ---------------------------------------------------------------------------

def test_simulate_region_counts(sim2000):
    d, truth = sim2000
    counts = np.bincount(truth.region_true, minlength=5)[1:]
    assert counts.tolist() == [500, 500, 500, 500]
    assert d.n == 2000 and d.p == 3 and d.q == 10


def test_simulate_deterministic():
    d1, t1 = simulate_gtimm(400, seed=42)
    d2, t2 = simulate_gtimm(400, seed=42)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Z, d2.Z)
    assert np.array_equal(t1.b_true, t2.b_true)


def test_simulate_noiseless_limit():
    d, truth = simulate_gtimm(200, seed=3, sigma_b2=0.0, sigma_eps2=1e-30)
    c = REGION_COEFFS[truth.region_true - 1]
    expected = c[:, 0] + c[:, 1] * d.X[:, 1] + c[:, 2] * d.X[:, 2]
    assert np.max(np.abs(d.y - expected)) < 1e-10


def test_simulate_rejects_bad_n():
    with pytest.raises(ValueError):
        simulate_gtimm(2001, seed=0)
    for simulate in (simulate_gtimm, simulate_common_effects):
        with pytest.raises(ValueError, match="n_groups must be >= 1"):
            simulate(400, seed=0, n_groups=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_simulate_cluster_means_near_centers(seed):
    from gtimm.data import REGION_CENTERS

    d, truth = simulate_gtimm(2000, seed=seed)
    for m in range(1, 5):
        rows = truth.region_true == m
        centroid = d.X[rows, 1:].mean(axis=0)
        assert np.max(np.abs(centroid - REGION_CENTERS[m - 1])) < 0.2


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_hand_computed():
    X = np.column_stack([np.ones(3), np.array([1.0, 2.0, 3.0])])
    d = Dataset(np.array([10.0, 20.0, 30.0]), X, np.ones(3, dtype=int))
    ds, params = standardize(d)
    assert np.allclose(ds.X[:, 1], [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(ds.y, [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.all(ds.X[:, 0] == 1.0)
    assert np.array_equal(ds.Z, d.Z)
    assert params.x_sd[0] == pytest.approx(1.0)
    assert params.y_sd == pytest.approx(10.0)


def test_standardize_idempotent_within_tolerance():
    d = make_dataset(seed=5)
    ds, _ = standardize(d)
    ds2, _ = standardize(ds)
    assert np.max(np.abs(ds2.X - ds.X)) < 1e-12
    assert np.max(np.abs(ds2.y - ds.y)) < 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_destandardize_inverts(seed):
    d = make_dataset(n=25, seed=seed)
    ds, params = standardize(d)
    assert np.array_equal(ds.X[:, 0], d.X[:, 0])
    back_x = ds.X[:, 1:] * params.x_sd + params.x_mean
    assert np.max(np.abs(back_x - d.X[:, 1:])) < 1e-10
    assert np.max(np.abs(destandardize_y(ds.y, params) - d.y)) < 1e-10


def test_standardize_zero_variance_names_column():
    X = np.column_stack([np.ones(4), np.full(4, 7.0), np.arange(4.0)])
    d = Dataset(np.arange(4.0), X, np.ones(4, dtype=int))
    with pytest.raises(DataError, match="column 1"):
        standardize(d)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_load_csv_group_expansion(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,0.5,A\n2.0,1.5,B\n3.0,2.5,A\n")
    d = load_csv(path, CsvSchema("y", ("x1",), group_col="group"))
    assert d.n == 3 and d.p == 2 and d.q == 2
    assert d.group_label.tolist() == [1, 2, 1]
    assert d.Z.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert d.group_names == ("A", "B")


def test_load_csv_nan_is_parse_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,0.5,A\nNaN,1.5,B\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path, CsvSchema("y", ("x1",), group_col="group"))


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,0.5,A\n")
    with pytest.raises(SchemaError, match="x9"):
        load_csv(path, CsvSchema("y", ("x9",), group_col="group"))


def test_load_csv_single_group_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,0.5,A\n2.0,1.5,A\n")
    with pytest.raises(DataError, match="distinct"):
        load_csv(path, CsvSchema("y", ("x1",), group_col="group"))


def test_load_csv_missing_value_reports_position(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,,A\n2.0,1.5,B\n")
    with pytest.raises(ParseError, match="row 1, column 'x1'"):
        load_csv(path, CsvSchema("y", ("x1",), group_col="group"))


def test_load_csv_blank_group_cell_is_a_missing_value(tmp_path):
    # a blank group cell once became a group named "", which a model file drops
    path = tmp_path / "t.csv"
    path.write_text("y,x1,group\n1.0,0.5,A\n2.0,1.5, \n3.0,2.5,B\n4.0,3.5,A\n")
    with pytest.raises(ParseError, match="^row 2, column 'group': missing value$"):
        load_csv(path, CsvSchema("y", ("x1",), group_col="group"))


# numbers in the forms float() reads, and cells it rejects or reads as non-finite
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", "2_5.0_1", "1e5", "-2.5E-3", "+.5", "5.", "-0", "1e-400",
                     "\u0661\u0662\u0663", "\u0663.\u0665", "\uff11\uff12"]),
)
_BAD = st.sampled_from(["inf", "-inf", "nan", "NaN", "1e400", "", " ", "0x10", "abc", "1,5",
                        "1__0", "--1"])
_CELL = st.builds(lambda pad, core, tail: pad + core + tail,
                  st.sampled_from(["", " ", "\t", "\u2003"]),
                  st.one_of(_NUMBER, _NUMBER, _BAD),
                  st.sampled_from(["", " ", "\n", "\u2003"]))


@given(data=st.data(), n_cols=st.integers(1, 3), n_rows=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_columnar_parse_matches_cell_parse(data, n_cols, n_rows):
    names = [f"c{j}" for j in range(n_cols)]
    rows = [[data.draw(_CELL) for _ in names] for _ in range(n_rows)]
    try:  # the per-cell parse, row by row: its values or its first error
        expected = np.array([[_parse_cell(cell, i + 1, name) for cell, name in zip(row, names)]
                             for i, row in enumerate(rows)])
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_design(names, rows, names)
        assert str(got.value) == str(exc)
    else:
        X = read_design(names, rows, names).X
        assert np.ascontiguousarray(X[:, 1:]).tobytes() == expected.tobytes()


def test_write_table_float_format(tmp_path):
    columns = [
        np.array([-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, 0.1]),
        [np.float32(0.1), 1, 2, -3, 4, 0],
        np.arange(6),
        ["a,b", "c", 'say "d"', "e", "f", "g"],
    ]
    path = tmp_path / "t.csv"
    write_table(path, ["x", "v", "k", "group"], columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "v", "k", "group"])
    for row in zip(*columns):
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                         for v in row])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert path.read_bytes().splitlines(keepends=True)[:3] == [
        b"x,v,k,group\r\n", b'-0.0,0.10000000149011612,0,"a,b"\r\n', b"1e-05,1,1,c\r\n"]


def test_schema_requires_a_group_column():
    with pytest.raises(TypeError):
        CsvSchema("y", ("x1",))


@pytest.mark.parametrize("y_col, x_cols, group_col, twice", [
    ("y", ("y", "x1"), "g", "y"),    # the response among the predictors
    ("y", ("x1", "x1"), "g", "x1"),  # a repeated predictor
    ("y", ("x1", "x2"), "x1", "x1"),  # the group column is a predictor
    ("y", ("x1",), "y", "y"),         # the group column is the response
], ids=["response-as-predictor", "repeated-predictor", "group-as-predictor",
        "group-as-response"])
def test_schema_gives_each_column_one_role(y_col, x_cols, group_col, twice):
    with pytest.raises(SchemaError, match=f"'{twice}'.*more than one role"):
        CsvSchema(y_col, x_cols, group_col)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 20))
@settings(max_examples=25, deadline=None)
def test_csv_round_trip_bitwise(tmp_path_factory, seed, n):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2)) * rng.lognormal()])
    g = np.concatenate([[1, 2], rng.integers(1, 3, n - 2)])  # both groups present
    d = Dataset(rng.normal(size=n) * 100, X, g, ("north", "south"))
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    schema = CsvSchema("y", ("x1", "x2"), group_col="group")
    write_csv(path, d, schema)
    back = load_csv(path, schema)
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.X, d.X)
    assert np.array_equal(back.Z, d.Z)
    assert np.array_equal(back.group_label, d.group_label)
    assert back.group_names == d.group_names


# ---------------------------------------------------------------------------
# Dataset validation
# ---------------------------------------------------------------------------

def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([1.0, np.nan]), np.ones((2, 1)), np.ones(2, dtype=int))


def test_dataset_requires_intercept_column():
    with pytest.raises(DataError, match="intercept"):
        Dataset(np.ones(2), np.zeros((2, 1)), np.ones(2, dtype=int))


def test_dataset_checks_group_labels():
    for labels, q in (([0, 1], None), ([1, 3], 2), ([1, 2, 3], None)):
        with pytest.raises(DataError):
            Dataset(np.ones(2), np.ones((2, 1)), np.array(labels), q=q)
    assert Dataset(np.ones(2), np.ones((2, 1)), np.array([1, 1]), q=3).q == 3
    # one name per group: a short tuple would fail only later, in write_csv
    with pytest.raises(DataError, match="1 group names for q=3"):
        Dataset(np.ones(3), np.ones((3, 1)), np.array([1, 2, 3]), group_names=("a",), q=3)
    assert Dataset(np.ones(3), np.ones((3, 1)), np.array([1, 2, 2]),
                   group_names=("a", "b", "c")).q == 3


def test_dataset_arrays_immutable():
    d = make_dataset()
    with pytest.raises(ValueError):
        d.y[0] = 99.0


# ---------------------------------------------------------------------------
# folds and splits
# ---------------------------------------------------------------------------

def test_stratified_folds_cover_every_group():
    d = make_dataset(n=60, q=4, seed=9)
    fold_of = group_stratified_folds(d.group_label, d.n, 5, seed=0)
    for k in range(5):
        present = set(d.group_label[fold_of == k].tolist())
        assert present == {1, 2, 3, 4}


def test_stratified_folds_fallback_warns():
    labels = np.array([1] * 20 + [2] * 2)  # group 2 smaller than fold count
    with pytest.warns(UserWarning, match="unstratified"):
        fold_of = group_stratified_folds(labels, labels.size, 5, seed=0)
    assert fold_of.shape == (22,)
    # the small groups are listed as plain integers, not numpy scalar reprs
    labels = np.repeat(np.arange(1, 5), 50)
    with pytest.warns(UserWarning, match=r"^groups \[1, 2, 3, 4\] have fewer than 200 members; "):
        group_stratified_folds(labels, labels.size, 200, seed=0)


def test_split_keeps_groups_in_training():
    d = make_dataset(n=100, q=5, seed=11)
    train_idx, test_idx = train_test_split_grouped(d, 0.8, seed=1)
    assert set(d.group_label[train_idx].tolist()) == {1, 2, 3, 4, 5}
    assert train_idx.size + test_idx.size == d.n


def test_split_errors_when_group_would_vanish():
    y = np.ones(6)
    X = np.ones((6, 1))
    g = np.array([1, 1, 1, 1, 1, 2])
    d = Dataset(y, X, g)
    with pytest.raises(DataError, match="absent"):
        train_test_split_grouped(d, 0.2, seed=0)
