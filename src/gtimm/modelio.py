"""Plain-text model files.

A model file is a sectioned text block: [meta], [family], [variance],
[beta_star] (p rows by M columns), [b_hat], [tree] (one node per line),
plus optional [groups], [schema], and [standardization] sections carrying
what prediction on a fresh CSV needs.  Every float is written with repr,
so a round trip reproduces the model to full precision.  A file holds one
fitted GTIMM, tagged kind=gtimm in [meta].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import StandardizationParams
from .errors import GtimmError
from .mixedmodel import GtimmModel
from .tree import tree_from_lines, tree_to_lines

_HEADER = "gtimm-model-file v1"


@dataclass
class ModelFile:
    """A deserialized model plus the metadata needed to apply it to a CSV."""

    model: GtimmModel
    y_col: str | None = None
    x_cols: tuple[str, ...] | None = None
    group_col: str | None = None
    z_cols: tuple[str, ...] | None = None
    group_names: tuple[str, ...] | None = None
    standardization: StandardizationParams | None = None


def _matrix_lines(a: np.ndarray) -> list[str]:
    return [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(a)]


def save_model(path, model, *, y_col=None, x_cols=None, group_col=None,
               z_cols=None, group_names=None, standardization=None) -> None:
    if not isinstance(model, GtimmModel):
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    lines = [_HEADER, "[meta]", "kind=gtimm"]
    lines += ["[family]", f"name={model.family}", "dispersion=1.0"]
    lines += ["[variance]", f"sigma_b2={model.sigma_b2!r}", f"sigma_eps2={model.sigma_eps2!r}"]
    lines += ["[beta_star]"] + _matrix_lines(model.beta_star)
    lines += ["[b_hat]"] + [repr(float(v)) for v in model.b_hat]
    lines += ["[tree]"] + tree_to_lines(model.tree)

    if group_names:
        lines += ["[groups]"] + list(group_names)
    if any(v is not None for v in (y_col, x_cols, group_col, z_cols)):
        lines += ["[schema]"]
        if y_col is not None:
            lines.append(f"y_col={y_col}")
        if x_cols is not None:
            lines.append("x_cols=" + ",".join(x_cols))
        if group_col is not None:
            lines.append(f"group_col={group_col}")
        if z_cols is not None:
            lines.append("z_cols=" + ",".join(z_cols))
    if standardization is not None:
        s = standardization
        lines += ["[standardization]",
                  "x_mean=" + ",".join(repr(float(v)) for v in s.x_mean),
                  "x_sd=" + ",".join(repr(float(v)) for v in s.x_sd),
                  f"y_mean={s.y_mean!r}",
                  f"y_sd={s.y_sd!r}"]

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_sections(text: str) -> dict[str, list[str]]:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or lines[0] != _HEADER:
        raise GtimmError(f"not a model file (expected header {_HEADER!r})")
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines[1:]:
        if not ln.strip():
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            sections[current] = []
        elif current is None:
            raise GtimmError(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)
    return sections


def _kv(lines) -> dict[str, str]:
    out = {}
    for ln in lines:
        key, _, value = ln.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_model(path) -> ModelFile:
    """Read a model file; a missing section or key, or a value that does not
    parse, raises :class:`GtimmError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_sections(_split_sections(fh.read()))
    except (KeyError, IndexError, ValueError) as exc:
        raise GtimmError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc


def _parse_sections(sections: dict[str, list[str]]) -> ModelFile:
    kind = _kv(sections.get("meta", [])).get("kind")
    if kind != "gtimm":
        raise GtimmError(f"unsupported model kind {kind!r}; a model file holds a fitted "
                          "GTIMM (kind=gtimm)")
    fam = _kv(sections["family"])
    var = _kv(sections["variance"])
    beta = np.array([[float(v) for v in ln.split()] for ln in sections["beta_star"]])
    b_hat = np.array([float(ln) for ln in sections["b_hat"]])
    model = GtimmModel(beta, b_hat, float(var["sigma_b2"]), float(var["sigma_eps2"]),
                       tree_from_lines(sections["tree"]), fam["name"])

    schema = _kv(sections.get("schema", []))
    std = None
    if "standardization" in sections:
        s = _kv(sections["standardization"])
        std = StandardizationParams(
            np.array([float(v) for v in s["x_mean"].split(",")] if s["x_mean"] else []),
            np.array([float(v) for v in s["x_sd"].split(",")] if s["x_sd"] else []),
            float(s["y_mean"]),
            float(s["y_sd"]),
        )
    group_names = tuple(sections["groups"]) if "groups" in sections else None
    x_cols = tuple(schema["x_cols"].split(",")) if "x_cols" in schema else None
    z_cols = tuple(schema["z_cols"].split(",")) if "z_cols" in schema else None
    _check_shapes(model, x_cols, group_names or z_cols, std)
    return ModelFile(model, schema.get("y_col"), x_cols, schema.get("group_col"),
                     z_cols, group_names, std)


def _check_shapes(model: GtimmModel, x_cols, effects, std) -> None:
    """The sections of one file must describe one model: p rows of
    coefficients for the intercept and the predictors, tree splits on those
    columns, one random effect per group or Z column."""
    p = model.beta_star.shape[0]
    widths = {"x_cols": None if x_cols is None else len(x_cols) + 1,
              "standardization": None if std is None else len(std.x_mean) + 1}
    if std is not None and len(std.x_sd) != len(std.x_mean):
        raise GtimmError("standardization x_mean and x_sd differ in length")
    for name, width in widths.items():
        if width is not None and width != p:
            raise GtimmError(f"beta_star has {p} rows, {name} describes {width} columns")
    if any(nd.feature >= p for nd in model.tree.nodes):
        raise GtimmError(f"tree splits on a column beyond the {p} of beta_star")
    if effects is not None and len(effects) != model.b_hat.size:
        raise GtimmError(f"b_hat has {model.b_hat.size} values for {len(effects)} groups "
                         "or Z columns")
