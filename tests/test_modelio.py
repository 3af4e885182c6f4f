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
    save_model(path, model, y_col="y", x_cols=("x1", "x2"), group_col="group",
               group_names=d.group_names, standardization=params)
    assert "[meta]\nkind=gtimm\n" in path.read_text()
    mf = load_model(path)
    assert np.array_equal(mf.model.beta_star, model.beta_star)
    assert np.array_equal(mf.model.b_hat, model.b_hat)
    assert mf.model.sigma_b2 == model.sigma_b2
    assert mf.model.sigma_eps2 == model.sigma_eps2
    assert mf.model.family == model.family
    assert np.array_equal(mf.model.tree.route(d.X), model.tree.route(d.X))
    assert mf.y_col == "y" and mf.x_cols == ("x1", "x2") and mf.group_col == "group"
    assert mf.group_names == d.group_names
    assert np.array_equal(mf.standardization.x_mean, params.x_mean)
    assert mf.standardization.y_sd == params.y_sd
    assert np.array_equal(predict(mf.model, d.X, d.Z), predict(model, d.X, d.Z))


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
