"""Tree-informed mixed models: a regression tree partitions the predictor
space, each terminal-node region gets its own linear fixed effect fit by
stochastic ascent on a quasi-likelihood, and a global random effect is
estimated in closed form (BLUP)."""

from .baselines import ForestModel, LmmModel, fit_forest, fit_lmm, predict_baseline
from .data import (
    CsvSchema,
    Dataset,
    SimTruth,
    StandardizationParams,
    destandardize_y,
    load_csv,
    simulate_common_effects,
    simulate_gtimm,
    standardize,
    write_csv,
)
from .errors import (
    DataError,
    GtimmError,
    IllPosedRegionError,
    NumericalError,
    ParseError,
    SchemaError,
)
from .evaluate import GapCurve, MspeReport, benchmark, crosstab_regions, gap_experiment, mspe
from .fit import FitConfig, SgdState, fit_gtimm, predict, region_preconditioners, sgd_epoch
from .mixedmodel import (
    BERNOULLI,
    FAMILIES,
    GAUSSIAN,
    POISSON,
    GtimmModel,
    LinkFamily,
    blup,
    quasi_loglik,
    quasi_score,
    region_score_sums,
    update_variance_components,
)
from .modelio import ModelFile, load_model, save_model
from .tree import (
    RegionAssignment,
    RegressionTree,
    assign_regions,
    fit_tree,
    select_leaves_cv,
)

__version__ = "0.1.0"
