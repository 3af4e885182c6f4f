"""Computations the benchmark checks gtimm against.  Nothing here imports
gtimm: the model-file reader, the tree router, the Henderson solve and the
prediction formula are written from the model's definition, so a fault in
the program cannot hide in its own reference.

Model (one region m per row, from the tree):

    y_i = x_i' beta^(m) + b_{g(i)} + eps_i,  b ~ N(0, sigma_b2 I),  eps ~ N(0, sigma_eps2 I)
"""

from __future__ import annotations

import csv

import numpy as np


def read_csv(path):
    """(header, list of rows of strings) of a headered CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def columns(path, names):
    """Float matrix of the named columns, in order."""
    header, rows = read_csv(path)
    pos = [header.index(name) for name in names]
    return np.array([[float(row[j]) for j in pos] for row in rows])


def labels(path, name):
    header, rows = read_csv(path)
    j = header.index(name)
    return [row[j].strip() for row in rows]


def standardize(X, y):
    """Columns 1.. of X and y centred and scaled with the N-1 denominator."""
    x_mean, x_sd = X[:, 1:].mean(axis=0), X[:, 1:].std(axis=0, ddof=1)
    Xs = X.copy()
    Xs[:, 1:] = (X[:, 1:] - x_mean) / x_sd
    return Xs, (y - y.mean()) / y.std(ddof=1), (x_mean, x_sd, float(y.mean()), float(y.std(ddof=1)))


def read_model_file(path):
    """The parts of a gtimm text model file that prediction needs:
    beta (p x M), b (q,), sigma_b2, sigma_eps2, tree nodes, group names,
    and the standardization (x_mean, x_sd, y_mean, y_sd) or None."""
    sections, current = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], [])
            elif line.strip():
                current.append(line)

    def kv(name):
        return dict(line.split("=", 1) for line in sections.get(name, []))

    nodes = []
    for line in sections["tree"]:
        parts = line.split()
        fields = dict(part.split("=", 1) for part in parts[3:])
        if parts[2] == "leaf":
            nodes.append((-1, 0.0, -1, -1, int(fields["region"])))
        else:
            nodes.append((int(fields["feature"]), float(fields["threshold"]),
                          int(fields["left"]), int(fields["right"]), 0))
    var = kv("variance")
    std = kv("standardization")
    return {
        "beta": np.array([[float(v) for v in line.split()] for line in sections["beta_star"]]),
        "b": np.array([float(v) for v in sections["b_hat"]]),
        "sigma_b2": float(var["sigma_b2"]),
        "sigma_eps2": float(var["sigma_eps2"]),
        "nodes": nodes,
        "groups": sections.get("groups", []),
        "standardization": None if not std else (
            np.array([float(v) for v in std["x_mean"].split(",")]),
            np.array([float(v) for v in std["x_sd"].split(",")]),
            float(std["y_mean"]), float(std["y_sd"])),
    }


def nodes_of(tree):
    """The (feature, threshold, left, right, region) tuples of a fitted
    tree object; leaves have feature -1."""
    return [(nd.feature, nd.threshold, nd.left, nd.right, nd.region) for nd in tree.nodes]


def route(nodes, X):
    """1-based region of every row: descend level by level, left when
    x[feature] <= threshold."""
    feature = np.array([nd[0] for nd in nodes])
    threshold = np.array([nd[1] for nd in nodes])
    child = np.array([[nd[2], nd[3]] for nd in nodes])
    region = np.array([nd[4] for nd in nodes])
    at = np.zeros(X.shape[0], dtype=int)
    rows = np.arange(X.shape[0])
    for _ in range(len(nodes)):
        inner = feature[at] >= 0
        if not inner.any():
            return region[at]
        r, a = rows[inner], at[inner]
        go_right = X[r, feature[a]] > threshold[a]
        at[r] = child[a, go_right.astype(int)]
    raise ValueError("tree has a cycle")


def mme_solve(X, y, g, q, region, sigma_b2, sigma_eps2):
    """Exact maximizer of -|y - X beta^(m) - b_g|^2 / (2 sigma_eps2) - b'b / (2 sigma_b2)
    by Henderson's mixed-model equations, assembled block by block from the
    group codes: X_m'X_m on the diagonal, X_m'Z by group sums, Z'Z = diag(n_g)
    plus sigma_eps2 / sigma_b2 I.  Returns (beta p x M, b); b = 0 when
    sigma_b2 = 0, where the penalty admits no random effect."""
    p = X.shape[1]
    m = int(region.max())
    k = p * m + q
    lhs, rhs = np.zeros((k, k)), np.zeros(k)
    for j in range(m):
        rows = region == j + 1
        Xj, gj, blk = X[rows], g[rows], slice(j * p, (j + 1) * p)
        lhs[blk, blk] = Xj.T @ Xj
        cross = np.stack([np.bincount(gj, weights=Xj[:, c], minlength=q) for c in range(p)])
        lhs[blk, p * m:] = cross
        lhs[p * m:, blk] = cross.T
        rhs[blk] = Xj.T @ y[rows]
    if sigma_b2 <= 0:
        beta = np.linalg.solve(lhs[:p * m, :p * m], rhs[:p * m])
        return beta.reshape(m, p).T, np.zeros(q)
    lhs[p * m:, p * m:] = np.diag(np.bincount(g, minlength=q) + sigma_eps2 / sigma_b2)
    rhs[p * m:] = np.bincount(g, weights=y, minlength=q)
    theta = np.linalg.solve(lhs, rhs)
    return theta[:p * m].reshape(m, p).T, theta[p * m:]


def mme_gap(beta, b, X, y, g, nodes, sigma_b2, sigma_eps2):
    """Largest absolute difference between a fit's (beta, b) and the exact
    solution on its own regions at its own variance components."""
    ref_beta, ref_b = mme_solve(X, y, g, b.size, route(nodes, X), sigma_b2, sigma_eps2)
    return max(float(np.abs(beta - ref_beta).max()), float(np.abs(b - ref_b).max()))


def predict(beta, b, X, g, nodes=None):
    """x' beta^(m) + b_g row by row; g = -1 marks a group the fit never saw
    (no random term).  Without nodes every row is in the single region."""
    region = np.ones(X.shape[0], dtype=int) if nodes is None else route(nodes, X)
    fixed = np.einsum("ij,ij->i", X, beta.T[region - 1])
    return fixed + np.where(g >= 0, b[np.maximum(g, 0)], 0.0)


def mspe(y, pred):
    return float(np.mean((np.asarray(y) - np.asarray(pred)) ** 2))


def max_rel_diff(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))
