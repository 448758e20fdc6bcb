"""Multi-period learning framework for time-series forecasting.

A trainable forecaster that reads several right-aligned history windows of
different lengths at once: adaptive patching gives every window the same
token count, a shared squeeze layer compresses the tokens, stacked
attention blocks filter cross-window redundancy while emitting per-window
forecasts, and a learned gate blends those forecasts into the final
prediction. Runs on a small built-in float64 autodiff engine; numpy is the
only dependency.
"""

from .autograd import (
    GradCheckReport,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    grad_check,
    no_grad,
    set_nan_guard,
)
from .data import (
    DataError,
    SeriesDataset,
    SplitRanges,
    load_csv,
    load_fund_csv,
    split_dataset,
    standardize,
)
from .model import (
    ABLATION_FLAGS,
    ConfigError,
    ForecastBundle,
    MlfConfig,
    MlfModel,
    apply_ablation,
    build_model,
    mlf_loss,
    seed_streams,
)
from .optim import Adam
from .training import DivergenceError, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ABLATION_FLAGS",
    "Adam",
    "ConfigError",
    "DataError",
    "DivergenceError",
    "ForecastBundle",
    "GradCheckReport",
    "MlfConfig",
    "MlfModel",
    "NumericsError",
    "SeriesDataset",
    "ShapeError",
    "SplitRanges",
    "Tensor",
    "apply_ablation",
    "backward",
    "build_model",
    "evaluate",
    "grad_check",
    "load_csv",
    "load_fund_csv",
    "mlf_loss",
    "no_grad",
    "seed_streams",
    "set_nan_guard",
    "split_dataset",
    "standardize",
    "train",
]
