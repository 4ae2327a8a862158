"""Slow-feature capsule pipeline for remaining-useful-life estimation.

The package covers the full workflow on plain numpy: channel screening,
normal-stage normalization, slow-feature extraction, hybrid frame
slicing, a capsule network with agreement routing and an LSTM head, the
training loop with early stopping, metric reports, dataset loaders and
a synthetic-data generator.  ``slowcaps.cli`` exposes the command-line
interface; everything is deterministic for a fixed seed.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .data import (
    RunToFailureSeries,
    SyntheticSpec,
    generate_synthetic,
    load_cmapss,
    load_milling,
)
from .evaluation import (
    EvaluationReport,
    build_report,
    error_distribution,
    rmse,
    scoring_function,
)
from .features import (
    FeaturePipeline,
    FrameBatch,
    SlowFeatureModel,
    fit_sfa,
    piecewise_rul_labels,
    select_num_slow_features,
)
from .network import ModelConfig, init_parameters, model_forward, predict, squash
from .optim import Adam
from .pipeline import (
    FeatureSettings,
    build_frames,
    fit_features,
)
from .tensor import Tensor, backward, no_grad
from .training import (
    TrainConfig,
    TrainReport,
    sensitivity_grid,
    train,
)

__all__ = [
    "__version__",
    "RunToFailureSeries",
    "SyntheticSpec",
    "generate_synthetic",
    "load_cmapss",
    "load_milling",
    "EvaluationReport",
    "build_report",
    "error_distribution",
    "rmse",
    "scoring_function",
    "FeaturePipeline",
    "FrameBatch",
    "SlowFeatureModel",
    "fit_sfa",
    "piecewise_rul_labels",
    "select_num_slow_features",
    "ModelConfig",
    "init_parameters",
    "model_forward",
    "predict",
    "squash",
    "Adam",
    "FeatureSettings",
    "build_frames",
    "fit_features",
    "Tensor",
    "backward",
    "no_grad",
    "TrainConfig",
    "TrainReport",
    "sensitivity_grid",
    "train",
]
