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
    leaf_means = {nd.region: nd.leaf_mean for nd in model.tree.nodes if nd.feature < 0}
    old = re.sub(r"leaf region=(\d+) ",
                 lambda m: f"{m.group(0)}mean={leaf_means[int(m.group(1))]!r} ", text)
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
