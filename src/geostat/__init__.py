"""Geometric-statistics representations for time series classification.

A time series is summarized by fixed-order statistics of the empirical
distributions of simple differential-geometric quantities (position,
derivatives, speed, curvature), optionally restricted to consecutive time
windows. The resulting fixed-length vectors feed plain nearest-neighbor and
support-vector classifiers, with cross-validation harnesses and a
nearest-neighbor warping-distance baseline included for benchmarking.
"""

from .series import (
    TimeSeries,
    UniformSeries,
    equalize_lengths,
    interpolate_at,
    laplacian_smooth,
    resample_uniform,
)
from .geometry import (
    GeometricStack,
    build_stack,
    curvature_magnitude,
    signed_curvature,
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
    univariate_matrix,
    window_columns,
    write_feature_csv,
    z_normalize,
)
from .classify import (
    CVReport,
    KNNParams,
    SVMParams,
    accuracy,
    confusion_matrix,
    default_knn_grid,
    default_svm_grid,
    fit_model,
    grid_search_cv,
    kfold_splits,
    knn_fit,
    knn_predict,
    nested_cv,
    predict_model,
    svm_fit,
    svm_predict,
)
from .dtw import DTWConfig, dtw_distance, dtw_matrix, nn_dtw_classify
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
