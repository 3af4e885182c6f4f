import re

import numpy as np
import pytest

from gtimm import (
    FitConfig,
    GtimmError,
    fit_forest,
    fit_gtimm,
    fit_lmm,
    fit_tree,
    load_model,
    predict,
    save_model,
    standardize,
)


def test_gtimm_round_trip_exact(tmp_path, sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=4, max_epochs=10, seed=0))
    ds, params = standardize(d)
    path = tmp_path / "m.txt"
    save_model(path, model, x_cols=("x1", "x2"), group_col="group",
               group_names=d.group_names, standardization=params)
    assert "[meta]\nkind=gtimm\n" in path.read_text()
    mf = load_model(path)
    assert np.array_equal(mf.model.beta_star, model.beta_star)
    assert np.array_equal(mf.model.b_hat, model.b_hat)
    assert mf.model.sigma_b2 == model.sigma_b2
    assert mf.model.sigma_eps2 == model.sigma_eps2
    assert mf.model.family == model.family
    assert np.array_equal(mf.model.tree.route(d.X), model.tree.route(d.X))
    assert mf.x_cols == ("x1", "x2") and mf.group_col == "group"
    assert mf.group_names == d.group_names
    assert np.array_equal(mf.standardization.x_mean, params.x_mean)
    assert mf.standardization.y_sd == params.y_sd
    assert np.array_equal(predict(mf.model, d.X, d.Z), predict(model, d.X, d.Z))


def test_loads_files_with_unread_fields(tmp_path, sim2000):
    # files written before the format dropped the family's dispersion, the
    # response column and the leaf means still load, to the same model
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=3, max_epochs=5, seed=1))
    path = tmp_path / "m.txt"
    save_model(path, model, x_cols=("x1", "x2"), group_col="group",
               group_names=d.group_names)
    text = path.read_text()
    assert "dispersion" not in text and "y_col" not in text and "mean=" not in text
    old = re.sub(r"leaf region=(\d+) ",
                 lambda m: f"{m.group(0)}mean={int(m.group(1)) / 3!r} ", text)
    old = old.replace("name=gaussian\n", "name=gaussian\ndispersion=1.0\n")
    old = old.replace("[schema]\n", "[schema]\ny_col=y\n")
    assert old.count("mean=") == 3 and "dispersion=1.0" in old and "y_col=y" in old
    old_path = tmp_path / "old.txt"
    old_path.write_text(old)
    new, back = load_model(path), load_model(old_path)
    assert np.array_equal(back.model.beta_star, new.model.beta_star)
    assert np.array_equal(back.model.b_hat, new.model.b_hat)
    assert back.model.tree == new.model.tree
    assert (back.x_cols, back.group_col, back.group_names) == (new.x_cols, new.group_col,
                                                               new.group_names)
    assert np.array_equal(predict(back.model, d.X, d.Z), predict(model, d.X, d.Z))


@pytest.mark.parametrize("kind", ["lmm", "tree", "forest"])
def test_save_model_rejects_baselines(tmp_path, sim2000, kind):
    d, _ = sim2000
    small = d.take(np.arange(400))
    model = {"lmm": lambda: fit_lmm(small),
             "tree": lambda: fit_tree(small, max_leaves=5),
             "forest": lambda: fit_forest(small, n_trees=3, max_leaves=8, seed=3)}[kind]()
    path = tmp_path / "m.txt"
    with pytest.raises(TypeError, match="cannot serialize"):
        save_model(path, model)
    assert not path.exists()


def test_loads_trees_in_any_child_order(tmp_path, sim2000, rng):
    # files written before nodes were listed in creation order hold them in
    # preorder, where a split's right child follows its left subtree; these,
    # and children listed right before left, load and route as they always did
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=3, max_epochs=5, seed=1))
    assert model.tree.leaf_count == 3
    path = tmp_path / "m.txt"
    save_model(path, model)
    text = path.read_text()
    split = {"a": "split feature=1 threshold=0.0", "b": "split feature=2 threshold=0.5"}
    orders = {  # (kind, left, right) or (leaf region,) per node
        "creation": [("a", 1, 2), ("b", 3, 4), (3,), (1,), (2,)],
        "preorder": [("a", 1, 4), ("b", 2, 3), (1,), (2,), (3,)],
        "swapped": [("a", 2, 1), (3,), ("b", 4, 3), (2,), (1,)],
    }
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
    X[:4, 1], X[4:8, 2] = 0.0, 0.5  # at the thresholds: left
    X[8:14, 1:] = [[np.nan, 0], [0, np.nan], [np.inf, 0], [-np.inf, 0], [0, np.inf], [0, -np.inf]]
    finite = np.isfinite(X).all(axis=1)
    expected = np.where(X[:, 1] <= 0.0, np.where(X[:, 2] <= 0.5, 1, 2), 3)
    preds = []
    for name, nodes in orders.items():
        lines = [f"node {i} {split[nd[0]]} left={nd[1]} right={nd[2]} n=2" if len(nd) == 3
                 else f"node {i} leaf region={nd[0]} n=1" for i, nd in enumerate(nodes)]
        tree_path = tmp_path / f"{name}.txt"
        tree_path.write_text(re.sub(r"(?<=\[tree\]\n)(node .*\n)+", "\n".join(lines) + "\n", text))
        loaded = load_model(tree_path).model
        assert np.array_equal(loaded.tree.route(X), expected), name
        preds.append(predict(loaded, X[finite], d.Z[:200][finite]))
    assert all(np.array_equal(pred, preds[0]) for pred in preds)


def test_rejects_non_model_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(GtimmError, match="header"):
        load_model(path)


def test_rejects_unknown_kind(tmp_path):
    # a model file holds only a fitted GTIMM, so a baseline kind is rejected too
    path = tmp_path / "bad.txt"
    for kind in ("mystery", "lmm", "tree", "forest"):
        path.write_text(f"gtimm-model-file v1\n[meta]\nkind={kind}\n")
        with pytest.raises(GtimmError, match=f"kind '{kind}'"):
            load_model(path)


def test_rejects_a_group_named_twice(tmp_path, sim2000):
    # with a repeated name, one group's rows would take another's effect
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=2, max_epochs=3, seed=0))
    path = tmp_path / "m.txt"
    save_model(path, model, x_cols=("x1", "x2"), group_col="group", group_names=d.group_names)
    first, second = d.group_names[:2]
    path.write_text(path.read_text().replace(f"[groups]\n{first}\n{second}\n",
                                             f"[groups]\n{first}\n{first}\n"))
    with pytest.raises(GtimmError, match=rf"\[groups\] names \['{first}'\] more than once"):
        load_model(path)


def test_rejects_explicit_random_effect_columns(tmp_path, sim2000):
    d, _ = sim2000
    model = fit_gtimm(d, FitConfig(max_leaves=2, max_epochs=3, seed=0))
    path = tmp_path / "m.txt"
    save_model(path, model, x_cols=("x1", "x2"))
    path.write_text(path.read_text().replace("[schema]\n", "[schema]\nz_cols=z1,z2\n"))
    with pytest.raises(GtimmError, match="z_cols.*removed"):
        load_model(path)
