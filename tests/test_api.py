"""The public API: what the demos, README and benchmark import.

Adding or removing a root export, or a public attribute of a forest, must
be a deliberate edit of these lists.
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
    # configuration
    "BreakpointSpec",
    "EngineConfig",
    "gaussian_breakpoints",
    "load_config",
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

# The forest is read through rows and one count lookup; `roots` stays only
# for the benchmark's forest checker.
FOREST_API = {
    "insert",
    "occurrence_count",
    "iter_nodes",
    "terminal_paths",
    "roots",
    "total_insertions",
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


def test_forest_read_api_is_the_agreed_set():
    forest = behaviorforest.BehaviorForest()
    assert {name for name in dir(forest) if not name.startswith("_")} == FOREST_API
