"""Covariance-driven dual-level feature weighting for pansharpening.

The package bundles a small autodiff engine (float32 compute, training
included, on float64 master weights), the covariance / correlation weight
generator with its comparison baselines, intra- and cross-feature
weighting, a minimal residual pansharpening backbone, a synthetic
reduced-resolution data pipeline, fusion quality metrics, redundancy
diagnostics, and a CLI tying them together.
"""

from .errors import (
    AdwmError,
    ConfigurationError,
    DegenerateSampleError,
    DimensionError,
    FormatError,
    NumericError,
    UsageError,
)
from .tensor import Tensor, concat, conv2d, gradcheck, softmax, spatial_mean, stack
from .cacw import WEIGHT_GENERATORS, CacwModule, cacw_forward
from .weighting import AdwmConfig, aggregate, make_adwm_modules
from .backbone import ModelConfig, PansharpenModel, load_checkpoint, save_checkpoint
from .data import build_dataset, load_dataset, read_manifest, split_ids
from .metrics import evaluate_noreference, evaluate_reference
from .trainer import TrainConfig, train

__all__ = [
    "AdwmError",
    "ConfigurationError",
    "DegenerateSampleError",
    "DimensionError",
    "FormatError",
    "NumericError",
    "UsageError",
    "Tensor",
    "concat",
    "conv2d",
    "gradcheck",
    "softmax",
    "spatial_mean",
    "stack",
    "WEIGHT_GENERATORS",
    "CacwModule",
    "cacw_forward",
    "AdwmConfig",
    "aggregate",
    "make_adwm_modules",
    "ModelConfig",
    "PansharpenModel",
    "load_checkpoint",
    "save_checkpoint",
    "build_dataset",
    "load_dataset",
    "read_manifest",
    "split_ids",
    "evaluate_noreference",
    "evaluate_reference",
    "TrainConfig",
    "train",
]
