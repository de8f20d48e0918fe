"""The package root's public API: what the demos, README and benchmark import.

Adding or removing a root export must be a deliberate edit of this list.
"""

import behaviorforest

PUBLIC_API = {
    # exceptions
    "EngineError",
    "ConfigError",
    "DimensionMismatchError",
    "InvalidSampleError",
    "BufferOverflowError",
    "SnapshotError",
    # configuration and stream admission
    "BreakpointSpec",
    "EngineConfig",
    "gaussian_breakpoints",
    "load_config",
    "validate_stream_header",
    # preprocessing
    "HysteresisFilter",
    "PreprocessPipeline",
    "discretize_batch",
    # detection and the forest
    "BehaviorDetector",
    "BehaviorForest",
    "forest_to_dot",
    # the engine
    "DiscoveryEngine",
    "discover",
    "replay",
    "write_segments",
    # analysis
    "FEATURE_NAMES",
    "compare_variances",
    "extract_features",
    "generate_synthetic",
}

EXCEPTIONS = (
    "ConfigError",
    "DimensionMismatchError",
    "InvalidSampleError",
    "BufferOverflowError",
    "SnapshotError",
)


def test_all_is_the_agreed_set():
    assert len(behaviorforest.__all__) == len(set(behaviorforest.__all__))
    assert set(behaviorforest.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    for name in behaviorforest.__all__:
        assert getattr(behaviorforest, name, None) is not None, name
    for name in EXCEPTIONS:
        assert issubclass(getattr(behaviorforest, name), behaviorforest.EngineError)


def test_star_import():
    namespace: dict = {}
    exec("from behaviorforest import *", namespace)
    assert PUBLIC_API <= namespace.keys()
