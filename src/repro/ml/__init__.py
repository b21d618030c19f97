"""Learning substrate: GBDT, encoders, text similarity, forecasters.

Everything is implemented from scratch on numpy (no sklearn/LightGBM in
the offline environment): the GBDT stands in for the paper's LightGBM
models; README.md "Batched model-fit engine" describes the fit paths.
"""

from .arima import ARIMAForecaster
from .encoding import TIME_FEATURE_NAMES, FrequencyEncoder, OrdinalEncoder, time_features
from .ets import HoltWintersForecaster
from .fourier import FourierForecaster
from .gbdt import GBDTParams, GBDTRegressor
from .linear import RidgeRegressor
from .lstm import LSTMForecaster, LSTMParams
from .model_selection import (
    compare_forecasters,
    evaluate_forecaster,
    grid_search,
    rolling_origin_splits,
    supports_update,
    time_split,
    train_test_split,
)
from .text import NameBucketizer, levenshtein, levenshtein_ratio, similar_names
from .tree import Binner, RegressionTree, TreeParams

__all__ = [
    "ARIMAForecaster",
    "Binner",
    "FourierForecaster",
    "FrequencyEncoder",
    "GBDTParams",
    "GBDTRegressor",
    "HoltWintersForecaster",
    "LSTMForecaster",
    "LSTMParams",
    "NameBucketizer",
    "OrdinalEncoder",
    "RegressionTree",
    "RidgeRegressor",
    "TIME_FEATURE_NAMES",
    "TreeParams",
    "compare_forecasters",
    "evaluate_forecaster",
    "grid_search",
    "levenshtein",
    "levenshtein_ratio",
    "rolling_origin_splits",
    "similar_names",
    "supports_update",
    "time_features",
    "time_split",
    "train_test_split",
]
