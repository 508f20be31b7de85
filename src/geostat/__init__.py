"""Geometric-statistics representations for time series classification.

A time series is summarized by fixed-order statistics of the empirical
distributions of simple differential-geometric quantities (position,
derivatives, speed, curvature), optionally restricted to consecutive time
windows. The resulting fixed-length vectors feed plain nearest-neighbor and
support-vector classifiers, with cross-validation harnesses and a
nearest-neighbor warping-distance baseline included for benchmarking.
"""

import importlib

from .series import (
    TimeSeries,
    UniformSeries,
    equalize_lengths,
    laplacian_smooth,
    resample_uniform,
)
from .geometry import (
    GeometricStack,
    build_stack,
    speed,
)
from .stats import (
    MULTIVARIATE_QUANTILES,
    UNIVARIATE_QUANTILES,
    SphericalSample,
    SummaryConfig,
    frechet_mean_variance,
    summarize,
)
from .features import (
    AblationMask,
    FeatureMatrix,
    GeoStatConfig,
    apply_mask,
    extract_multivariate,
    extract_univariate,
    mask_columns,
    read_feature_csv,
    select_columns,
    single_window,
    univariate_grid,
    univariate_matrix,
    window_columns,
    write_feature_csv,
    z_normalize,
)
from .ingest import (
    SegmentSet,
    UCRDataset,
    VesselTrack,
    filter_labels,
    load_ucr,
    load_vessels,
    segment_vessel,
    vessel_feature_matrix,
    vessel_features,
)

__version__ = "0.1.0"

# The classifiers and the warping baseline load on first use of one of
# their names, so that featurizing alone does not import them.
_LAZY = {
    **dict.fromkeys((
        "CVReport", "KNNParams", "SVMParams", "accuracy", "confusion_matrix",
        "default_knn_grid", "default_svm_grid", "fit_model", "grid_search_cv",
        "kfold_splits", "knn_fit", "knn_predict", "nested_cv",
        "predict_model", "svm_fit", "svm_predict"), "classify"),
    **dict.fromkeys((
        "DTWConfig", "dtw_distance", "dtw_matrix", "nn_dtw_classify"), "dtw"),
}


def __getattr__(name):
    if name in ("classify", "dtw"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
