"""Dataset container, CSV ingestion, standardization, and simulation generators.

A :class:`Dataset` bundles the response ``y``, the fixed-effect design ``X``
(leading column is the intercept), and the random-effect design.  For
grouped data the design is a group label per row, re-indexed to ``{1..q}``;
the model algebra works on the labels, and the one-hot ``Z`` is derived
from them only when a caller asks for it.  Otherwise the design is an
explicit ``Z`` matrix.  All arrays are frozen after construction.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ParseError, SchemaError

# Region-wise fixed-effect coefficients of the four-cluster generator:
# rows are regions 1..4, columns (intercept, x1, x2).
REGION_COEFFS = np.array(
    [
        [2.0, 1.5, 0.5],
        [-1.0, 2.5, -0.5],
        [1.0, -2.0, 1.0],
        [-2.0, -1.5, -1.0],
    ]
)
REGION_COEFFS.setflags(write=False)

# Cluster centers for (x1, x2); region m is drawn around row m-1.
REGION_CENTERS = np.array([[5.0, 5.0], [-5.0, 5.0], [-5.0, -5.0], [5.0, -5.0]])
REGION_CENTERS.setflags(write=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def one_hot(label: np.ndarray, q: int) -> np.ndarray:
    """N x q indicator matrix of 1-based labels; a label 0 gives a zero row."""
    Z = np.zeros((label.shape[0], q))
    seen = np.flatnonzero(label)
    Z[seen, label[seen] - 1] = 1.0
    return Z


@dataclass(frozen=True, init=False)
class Dataset:
    """Immutable (y, X, Z) triple with optional group labels.

    With ``group_label`` the random-effect design is the one-hot encoding
    of the labels, and ``Z`` may be omitted: :attr:`Z` is then built from
    the labels on first access and kept.  A ``Z`` passed with labels must be
    exactly their one-hot encoding.  Without labels ``Z`` is required.  The
    group count ``q`` is the width of a given ``Z``, else ``q`` if given,
    else the number of ``group_names``, else the largest label; groups no
    row belongs to count too.

    Invariants enforced at construction: at least one row, no non-finite
    entries, an all-ones leading column of ``X``, and, when ``group_label``
    is present, labels in ``{1..q}`` and a consistent ``Z`` if one is given.
    """

    y: np.ndarray
    X: np.ndarray
    group_label: np.ndarray | None
    group_names: tuple[str, ...] | None
    q: int

    def __init__(self, y, X, Z=None, group_label=None, group_names=None, q=None):
        y = _frozen(np.asarray(y, dtype=float))
        X = _frozen(np.asarray(X, dtype=float))
        if Z is None and group_label is None:
            raise DataError("a Dataset needs Z or group_label")
        if Z is not None:
            Z = _frozen(np.asarray(Z, dtype=float))
        if y.ndim != 1 or X.ndim != 2 or (Z is not None and Z.ndim != 2):
            raise DataError("y must be a vector; X and Z must be matrices")
        n = y.shape[0]
        if n < 1:
            raise DataError("dataset must contain at least one observation")
        if X.shape[0] != n or (Z is not None and Z.shape[0] != n):
            z_rows = "" if Z is None else f", Z has {Z.shape[0]}"
            raise DataError(f"row mismatch: y has {n}, X has {X.shape[0]}{z_rows}")
        for name, arr in (("y", y), ("X", X), ("Z", Z)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in {name}")
        if not np.all(X[:, 0] == 1.0):
            raise DataError("X column 0 must be identically 1 (intercept)")
        lab = None
        if group_label is not None:
            lab = _frozen(np.asarray(group_label, dtype=int))
            if lab.shape != (n,):
                raise DataError("group_label length must match y")
        if Z is not None:
            if q is not None and q != Z.shape[1]:
                raise DataError(f"q={q} but Z has {Z.shape[1]} columns")
            q = Z.shape[1]
        elif q is None:
            q = len(group_names) if group_names is not None else int(lab.max())
        if q < 1:
            raise DataError("Z must have at least one column")
        if lab is not None:
            if lab.min() < 1 or lab.max() > q:
                raise DataError("group labels must lie in {1..q}")
            if Z is not None and not np.array_equal(Z, one_hot(lab, q)):
                raise DataError("Z must be the one-hot encoding of group_label")
        for name, value in (("y", y), ("X", X), ("group_label", lab),
                            ("group_names", group_names), ("q", int(q))):
            object.__setattr__(self, name, value)
        if Z is not None:
            self.__dict__["Z"] = Z  # a given Z is the cached value of the Z property

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def Z(self) -> np.ndarray:
        """The N x q random-effect design; for grouped data, the one-hot
        encoding of the labels, built on first access."""
        return _frozen(one_hot(self.group_label, self.q))

    @cached_property
    def _codes(self) -> np.ndarray:
        return _frozen(self.group_label - 1)

    @cached_property
    def group_sizes(self) -> np.ndarray:
        """n_g: the number of rows with a nonzero entry in column g of Z."""
        if self.group_label is not None:
            return _frozen(np.bincount(self._codes, minlength=self.q))
        return _frozen((self.Z != 0).sum(axis=0))

    @cached_property
    def ZtZ(self) -> np.ndarray:
        """Z'Z; for grouped data it is diag(:attr:`group_sizes`)."""
        return _frozen(self.Z.T @ self.Z)

    def zb(self, b: np.ndarray) -> np.ndarray:
        """Z b, one entry per row: ``b[g]`` for grouped data."""
        b = np.asarray(b, dtype=float)
        if self.group_label is not None:
            return b[self._codes]
        return self.Z @ b

    def ztr(self, r: np.ndarray) -> np.ndarray:
        """Z' r, one entry per group: per-group sums of r for grouped data."""
        if self.group_label is not None:
            return np.bincount(self._codes, weights=r, minlength=self.q)
        return self.Z.T @ r

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset as a new Dataset (q is preserved; groups may empty out)."""
        if self.group_label is None:
            return Dataset(self.y[idx], self.X[idx], self.Z[idx])
        return Dataset(self.y[idx], self.X[idx], None, self.group_label[idx],
                       self.group_names, q=self.q)

    def _with_yx(self, y: np.ndarray, X: np.ndarray) -> "Dataset":
        """A Dataset with new y and X and this one's random-effect design."""
        Z = self.Z if self.group_label is None else None
        return Dataset(y, X, Z, self.group_label, self.group_names, q=self.q)


@dataclass(frozen=True)
class SimTruth:
    """Generating quantities of a simulated dataset."""

    beta_star_true: np.ndarray  # (p, M), column m-1 holds region m's coefficients
    b_true: np.ndarray  # (q,)
    region_true: np.ndarray  # (N,) in {1..M}
    sigma_b2: float
    sigma_eps2: float

    def __post_init__(self):
        object.__setattr__(self, "beta_star_true", _frozen(np.asarray(self.beta_star_true, dtype=float)))
        object.__setattr__(self, "b_true", _frozen(np.asarray(self.b_true, dtype=float)))
        object.__setattr__(self, "region_true", _frozen(np.asarray(self.region_true, dtype=int)))
        if self.sigma_b2 < 0:
            raise DataError("sigma_b2 must be >= 0")
        if self.sigma_eps2 <= 0:
            raise DataError("sigma_eps2 must be > 0")
        m = self.beta_star_true.shape[1]
        if self.region_true.min() < 1 or self.region_true.max() > m:
            raise DataError("region_true must lie in {1..M}")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column location/scale of the non-intercept X columns and of y."""

    x_mean: np.ndarray  # (p-1,)
    x_sd: np.ndarray  # (p-1,)
    y_mean: float
    y_sd: float

    def __post_init__(self):
        object.__setattr__(self, "x_mean", _frozen(np.asarray(self.x_mean, dtype=float)))
        object.__setattr__(self, "x_sd", _frozen(np.asarray(self.x_sd, dtype=float)))
        if np.any(self.x_sd <= 0) or self.y_sd <= 0:
            raise DataError("all stored standard deviations must be > 0")

    def scale_x(self, X: np.ndarray) -> np.ndarray:
        """Copy of X with its non-intercept columns standardized."""
        X = np.array(X, dtype=float)
        X[:, 1:] = (X[:, 1:] - self.x_mean) / self.x_sd
        return X


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for :func:`load_csv`: one response column plus either a
    group column (one-hot expanded) or explicit random-effect columns."""

    y_col: str
    x_cols: tuple[str, ...]
    group_col: str | None = None
    z_cols: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_cols", tuple(self.x_cols))
        if self.z_cols is not None:
            object.__setattr__(self, "z_cols", tuple(self.z_cols))
        if len(self.x_cols) < 1:
            raise SchemaError("schema needs at least one predictor column")
        if (self.group_col is None) == (self.z_cols is None):
            raise SchemaError("schema needs exactly one of group_col or z_cols")


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a headered CSV into (header, rows of raw strings); a file that
    is not UTF-8 text or not CSV raises :class:`ParseError`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a CSV text file: {exc}") from None
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header, rows


def _parse_cell(raw: str, row: int, col: str) -> float:
    raw = raw.strip()
    if raw == "":
        raise ParseError(f"row {row}, column '{col}': missing value")
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"row {row}, column '{col}': not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ParseError(f"row {row}, column '{col}': non-finite value {raw!r}")
    return value


@dataclass(frozen=True)
class Design:
    """Arrays :func:`read_design` parsed from a table; a field whose columns
    were not asked for is None."""

    X: np.ndarray  # (n, 1 + len(x_cols)); column 0 is the intercept
    y: np.ndarray | None = None
    Z: np.ndarray | None = None  # parsed z_cols
    group_label: np.ndarray | None = None  # 1..q per row; 0 for a name not in group_names
    group_names: tuple[str, ...] | None = None  # name of each group 1..q
    groups: tuple[str, ...] | None = None  # raw group cells, row by row


def read_design(header, rows, x_cols, *, y_col=None, group_col=None, z_cols=None,
                group_names=None, standardization=None) -> Design:
    """Build design arrays from a table read by :func:`read_table`.

    Every named column must be in the header (:class:`SchemaError`), and
    every row must have one cell per header column.  Numeric cells are
    parsed strictly: a missing or non-finite value raises
    :class:`ParseError` naming the 1-based data row and the column.  A group
    column is coded as ``group_label`` over ``group_names`` (a row whose
    label is not among them gets 0), or, when none are given, over its
    labels in order of first appearance; ``z_cols`` are parsed into ``Z``
    instead.  With ``standardization``, the non-intercept columns
    of ``X`` are standardized by the stored parameters.
    """
    pos = {name: i for i, name in enumerate(header)}
    for name in (*x_cols, *filter(None, (y_col, group_col)), *(z_cols or ())):
        if name not in pos:
            raise SchemaError(f"column '{name}' not found; file has {header}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {i + 1}: expected {len(header)} cells, got {len(row)}")

    def numeric(names):
        return np.array([[_parse_cell(row[pos[name]], i + 1, name) for name in names]
                         for i, row in enumerate(rows)]).reshape(len(rows), len(names))

    X = np.ones((len(rows), 1 + len(x_cols)))
    X[:, 1:] = numeric(x_cols)
    if standardization is not None:
        X = standardization.scale_x(X)
    y = None if y_col is None else numeric([y_col])[:, 0]
    if group_col is None:
        Z = None if z_cols is None else numeric(z_cols)
        return Design(X, y, Z)
    groups = tuple(row[pos[group_col]].strip() for row in rows)
    if group_names is None:
        group_names = tuple(dict.fromkeys(groups))
    col = {name: j for j, name in enumerate(group_names)}
    label = np.array([col.get(g, -1) + 1 for g in groups], dtype=int)
    return Design(X, y, None, label, tuple(group_names), groups)


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a headered CSV into a validated Dataset.

    Parsing is :func:`read_design`'s.  A group column is densely re-indexed
    to ``{1..q}`` in order of first appearance, which makes the group
    labels of the Dataset; the original labels are kept in ``group_names``.
    """
    header, rows = read_table(path)
    des = read_design(header, rows, schema.x_cols, y_col=schema.y_col,
                      group_col=schema.group_col, z_cols=schema.z_cols)
    if not rows:
        raise DataError(f"{path}: no data rows")
    if schema.group_col is None:
        return Dataset(des.y, des.X, des.Z)
    if len(des.group_names) < 2:
        raise DataError(
            f"group column '{schema.group_col}' has {len(des.group_names)} distinct "
            "value(s); at least 2 are required"
        )
    return Dataset(des.y, des.X, None, des.group_label, des.group_names)


def write_csv(path, d: Dataset, schema: CsvSchema | None = None) -> None:
    """Write a Dataset back to CSV so that :func:`load_csv` round-trips it.

    Floats are written with ``repr`` (shortest exact form), so a reload
    reproduces the arrays bitwise.
    """
    if schema is None:
        x_cols = tuple(f"x{j}" for j in range(1, d.p))
        schema = CsvSchema("y", x_cols, group_col="group" if d.group_label is not None else None,
                           z_cols=None if d.group_label is not None else tuple(f"z{j}" for j in range(1, d.q + 1)))
    header = [schema.y_col, *schema.x_cols]
    if schema.group_col is not None:
        if d.group_label is None:
            raise DataError("dataset has no group labels to write")
        header.append(schema.group_col)
    else:
        header.extend(schema.z_cols)
    names = d.group_names or tuple(str(g) for g in range(1, d.q + 1))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(d.n):
            row = [repr(float(d.y[i]))] + [repr(float(v)) for v in d.X[i, 1:]]
            if schema.group_col is not None:
                row.append(names[d.group_label[i] - 1])
            else:
                row.extend(repr(float(v)) for v in d.Z[i])
            writer.writerow(row)


def standardize(d: Dataset) -> tuple[Dataset, StandardizationParams]:
    """Center and scale y and the non-intercept X columns to mean 0, sd 1.

    Uses the N-1 denominator.  The intercept column and Z are untouched.
    Raises :class:`DataError` naming any zero-variance column.
    """
    if d.n < 2:
        raise DataError("standardization needs at least 2 observations")
    x_mean = d.X[:, 1:].mean(axis=0)
    x_sd = d.X[:, 1:].std(axis=0, ddof=1)
    for j, s in enumerate(x_sd):
        if s <= 0:
            raise DataError(f"X column {j + 1} has zero variance; cannot standardize")
    y_sd = float(d.y.std(ddof=1))
    if y_sd <= 0:
        raise DataError("y has zero variance; cannot standardize")
    params = StandardizationParams(x_mean, x_sd, float(d.y.mean()), y_sd)
    y = (d.y - params.y_mean) / y_sd
    return d._with_yx(y, params.scale_x(d.X)), params


def destandardize_y(values: np.ndarray, params: StandardizationParams) -> np.ndarray:
    """Map standardized-scale responses or predictions back to the raw scale."""
    return np.asarray(values) * params.y_sd + params.y_mean


def simulate_gtimm(
    n_total: int,
    seed,
    sigma_b2: float = 2.0,
    sigma_eps2: float = 1.0,
    n_groups: int = 10,
) -> tuple[Dataset, SimTruth]:
    """Four-cluster simulation: (x1, x2) normal around (+-5, +-5) with unit sd,
    a region-dependent linear mean, a shared group random effect, and
    Gaussian noise.

    ``sigma_b2`` and ``sigma_eps2`` are variances.  Each observation is
    assigned uniformly to one of ``n_groups`` groups, independently of its
    region.
    """
    if n_total % 4 != 0:
        raise ValueError(f"n_total must be divisible by 4, got {n_total}")
    if n_total < 4:
        raise ValueError("n_total must be at least 4")
    if sigma_b2 < 0 or sigma_eps2 <= 0:
        raise ValueError("sigma_b2 must be >= 0 and sigma_eps2 > 0")

    rng = np.random.default_rng(seed)
    per = n_total // 4
    region = np.repeat(np.arange(1, 5), per)
    x = rng.normal(REGION_CENTERS[region - 1], 1.0)
    group = rng.integers(1, n_groups + 1, size=n_total)
    b = rng.normal(0.0, np.sqrt(sigma_b2), size=n_groups)
    eps = rng.normal(0.0, np.sqrt(sigma_eps2), size=n_total)

    X = np.column_stack([np.ones(n_total), x])
    mean = np.sum(X * REGION_COEFFS[region - 1], axis=1)
    y = mean + b[group - 1] + eps

    d = Dataset(y, X, None, group, tuple(str(g) for g in range(1, n_groups + 1)))
    truth = SimTruth(REGION_COEFFS.T, b, region, sigma_b2, sigma_eps2)
    return d, truth


def simulate_common_effects(
    n_total: int,
    seed,
    beta=(1.0, 2.0, -1.0),
    sigma_b2: float = 1.0,
    sigma_eps2: float = 1.0,
    n_groups: int = 10,
) -> tuple[Dataset, SimTruth]:
    """Single-plane generator: standard-normal predictors and one coefficient
    vector shared by all observations, plus group effect and noise.

    Used by the MSPE-gap scaling experiment, where a tree-partitioned model
    and a global linear mixed model target the same truth.
    """
    if sigma_b2 < 0 or sigma_eps2 <= 0:
        raise ValueError("sigma_b2 must be >= 0 and sigma_eps2 > 0")
    beta = np.asarray(beta, dtype=float)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_total, beta.shape[0] - 1))
    group = rng.integers(1, n_groups + 1, size=n_total)
    b = rng.normal(0.0, np.sqrt(sigma_b2), size=n_groups)
    eps = rng.normal(0.0, np.sqrt(sigma_eps2), size=n_total)
    X = np.column_stack([np.ones(n_total), x])
    y = X @ beta + b[group - 1] + eps
    d = Dataset(y, X, None, group, tuple(str(g) for g in range(1, n_groups + 1)))
    truth = SimTruth(np.tile(beta[:, None], (1, 4)), b, np.ones(n_total, dtype=int),
                     sigma_b2, sigma_eps2)
    return d, truth


def group_stratified_folds(group_label: np.ndarray | None, n: int, folds: int, seed) -> np.ndarray:
    """Fold index per observation; each group is dealt round-robin across folds
    so every fold sees every group when group sizes allow.

    Falls back to unstratified shuffled folds (with a warning) when some group
    has fewer members than folds, or when no labels are given.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    if group_label is not None:
        counts = np.bincount(group_label)
        small = [g for g in np.unique(group_label) if counts[g] < folds]
        if not small:
            fold_of = np.empty(n, dtype=int)
            for g in np.unique(group_label):
                members = rng.permutation(np.where(group_label == g)[0])
                fold_of[members] = np.arange(members.size) % folds
            return fold_of
        warnings.warn(
            f"groups {small} have fewer than {folds} members; using unstratified folds",
            stacklevel=2,
        )
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[order] = np.arange(n) % folds
    return fold_of


def train_test_split_grouped(d: Dataset, train_fraction: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Group-stratified row split; every group must land in the training part."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    test = np.zeros(d.n, dtype=bool)
    if d.group_label is not None:
        for g in np.unique(d.group_label):
            members = rng.permutation(np.where(d.group_label == g)[0])
            n_test = int(round((1.0 - train_fraction) * members.size))
            test[members[:n_test]] = True
            if n_test >= members.size:
                raise DataError(
                    f"group {g} would be absent from training at train_fraction={train_fraction}"
                )
    else:
        order = rng.permutation(d.n)
        test[order[: int(round((1.0 - train_fraction) * d.n))]] = True
    if not test.any():
        # keep the test side non-empty so error metrics stay defined even
        # at extreme train fractions; take one row from the largest group
        if d.group_label is not None:
            counts = np.bincount(d.group_label)
            g = int(np.argmax(counts))
            test[np.where(d.group_label == g)[0][-1]] = True
        else:
            test[d.n - 1] = True
    train_idx = np.where(~test)[0]
    test_idx = np.where(test)[0]
    if train_idx.size == 0:
        raise DataError("empty training split")
    return train_idx, test_idx
