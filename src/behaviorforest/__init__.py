"""Online pattern discovery and selective recording for multivariate streams.

The engine discretizes continuous channels into symbols, compresses runs,
detects variable-length behaviors, accumulates them in a weighted prefix
forest, and records the raw samples of a behavior only while it is still
novel or rare.  See README.md for the full tour.

The package root exports what the demos and the README use plus the
exception classes; everything else lives in its submodule.
"""

from .analysis import FEATURE_NAMES, compare_variances, extract_features, generate_synthetic
from .core import (
    BreakpointSpec,
    ConfigError,
    DimensionMismatchError,
    EngineConfig,
    EngineError,
    InvalidSampleError,
    SnapshotError,
    gaussian_breakpoints,
)
from .engine import DiscoveryEngine, discover, replay
from .forest import BehaviorDetector, BehaviorForest, forest_to_dot
from .io import load_config, write_segments
from .preprocess import HysteresisFilter, PreprocessPipeline, discretize_batch

__version__ = "0.1.0"

__all__ = [
    "BehaviorDetector",
    "BehaviorForest",
    "BreakpointSpec",
    "ConfigError",
    "DimensionMismatchError",
    "DiscoveryEngine",
    "EngineConfig",
    "EngineError",
    "FEATURE_NAMES",
    "HysteresisFilter",
    "InvalidSampleError",
    "PreprocessPipeline",
    "SnapshotError",
    "compare_variances",
    "discover",
    "discretize_batch",
    "extract_features",
    "forest_to_dot",
    "gaussian_breakpoints",
    "generate_synthetic",
    "load_config",
    "replay",
    "write_segments",
]
