"""Feature extraction, variance comparison, and the benchmark generator."""

import math

import numpy as np
import pytest

from behaviorforest.analysis import (
    FEATURE_NAMES,
    FiveNumberSummary,
    SyntheticSpec,
    compare_variances,
    extract_features,
    generate_synthetic,
    segment_variance,
    sliding_window_variances,
)

# The four burst types, discretized against +-0.5 breakpoints on two
# mirrored channels (unified alphabet of 9: low = 2, near-zero = 4, high = 6).
EXPECTED_SYNTHETIC_PATHS = {
    (4, 2, 2, 4, 4, 6, 6, 2, 2, 4, 4, 6, 6, 4),
    (4, 6, 6, 4, 4, 2, 2, 4, 4, 6, 6, 4, 4, 2, 2, 4),
    (4, 2, 4, 4, 6, 2, 4, 4, 6, 2, 4, 4, 6, 2, 4, 4, 6, 2, 4, 4, 6, 4),
    (4, 6, 6, 4, 2, 2, 4) + (6, 6, 4, 2, 2, 4) * 4,
}


def moments_oracle(x):
    """Plain-python population moments, independent of the implementation."""
    n = len(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / n
    if var == 0:
        return mean, var, 0.0, 0.0
    skew = (sum((v - mean) ** 3 for v in x) / n) / var**1.5
    kurt = (sum((v - mean) ** 4 for v in x) / n) / var**2 - 3.0
    return mean, var, skew, kurt


class TestExtractFeatures:
    def test_reference_values(self):
        f = extract_features(np.array([1.0, 2.0, 3.0, 4.0]))
        assert f.mean == pytest.approx(2.5)
        assert f.variance == pytest.approx(1.25)
        assert f.skew == pytest.approx(0.0, abs=1e-12)
        assert f.kurtosis == pytest.approx(-1.36)
        assert f.minimum == 1.0 and f.maximum == 4.0
        assert f.median == pytest.approx(2.5)
        assert f.p25 == pytest.approx(1.75)
        assert f.p75 == pytest.approx(3.25)

    def test_as_tuple_order_matches_names(self):
        f = extract_features(np.array([1.0, 2.0, 3.0, 4.0]))
        assert len(FEATURE_NAMES) == 9
        assert f.as_tuple() == tuple(getattr(f, n) for n in FEATURE_NAMES)

    def test_constant_input(self):
        f = extract_features(np.full(10, 3.5))
        assert f.variance == 0.0
        assert f.skew == 0.0 and f.kurtosis == 0.0
        assert f.minimum == f.maximum == f.median == 3.5

    def test_matches_moment_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.gamma(2.0, size=400)
        f = extract_features(x)
        mean, var, skew, kurt = moments_oracle(x.tolist())
        assert f.mean == pytest.approx(mean)
        assert f.variance == pytest.approx(var)
        assert f.skew == pytest.approx(skew)
        assert f.kurtosis == pytest.approx(kurt)

    def test_channels_are_flattened(self):
        two_channel = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert extract_features(two_channel) == extract_features(
            np.array([1.0, 2.0, 3.0, 4.0])
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.array([]))


class TestSegmentVariance:
    def test_channel_averaged(self):
        values = np.array([[0.0, 0.0], [2.0, 4.0]])
        # Channel variances 1.0 and 4.0.
        assert segment_variance(values) == pytest.approx(2.5)

    def test_one_dimensional_input(self):
        assert segment_variance(np.array([0.0, 2.0])) == pytest.approx(1.0)


class TestSlidingWindows:
    def test_window_starts_and_partial_drop(self):
        series = np.arange(10.0)
        vars_ = sliding_window_variances(series, window_length=4, overlap=0.5)
        # Stride ceil(4 * 0.5) = 2 -> starts 0, 2, 4, 6; start 8 would be partial.
        assert len(vars_) == 4
        expected = [float(np.var(series[s : s + 4])) for s in (0, 2, 4, 6)]
        assert vars_.tolist() == pytest.approx(expected)

    def test_zero_overlap_tiles(self):
        series = np.arange(12.0)
        vars_ = sliding_window_variances(series, window_length=4, overlap=0.0)
        assert len(vars_) == 3

    def test_partial_final_window_dropped(self):
        vars_ = sliding_window_variances(np.arange(9.0), 4, overlap=0.5)
        assert len(vars_) == 3

    def test_short_series_gives_empty(self):
        assert sliding_window_variances(np.arange(3.0), 4).size == 0

    def test_multichannel_averages(self):
        series = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
        vars_ = sliding_window_variances(series, 4, overlap=0.0)
        expected = [float(np.var(np.arange(s, s + 4.0))) / 2 for s in (0, 4)]
        assert vars_.tolist() == pytest.approx(expected)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sliding_window_variances(np.arange(5.0), 0)
        with pytest.raises(ValueError):
            sliding_window_variances(np.arange(5.0), 2, overlap=1.0)
        with pytest.raises(ValueError):
            sliding_window_variances(np.arange(5.0), 2, overlap=-0.1)


class TestFiveNumberSummary:
    def test_tukey_whiskers_exclude_outliers(self):
        values = list(range(1, 101)) + [1000.0]
        s = FiveNumberSummary.from_values(values)
        # 101 sorted values: the quartile ranks land on exact elements.
        assert s.p25 == pytest.approx(26.0)
        assert s.median == pytest.approx(51.0)
        assert s.p75 == pytest.approx(76.0)
        assert s.upper_whisker == 100.0  # 1000 is past p75 + 1.5 IQR
        assert s.lower_whisker == 1.0

    def test_no_outliers_uses_extremes(self):
        s = FiveNumberSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert s.lower_whisker == 1.0
        assert s.upper_whisker == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FiveNumberSummary.from_values([])


class TestCompareVariances:
    def test_window_length_is_mean_segment_length(self):
        rng = np.random.default_rng(2)
        series = rng.normal(size=(300, 1))
        segments = [series[0:10], series[50:70], series[100:133]]
        comp = compare_variances(segments, series)
        assert comp.window_length == round((10 + 20 + 33) / 3)
        assert len(comp.db_variances) == 3
        assert comp.db_variances[0] == pytest.approx(segment_variance(series[0:10]))

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            compare_variances([], np.zeros((10, 1)))

    def test_series_shorter_than_window_rejected(self):
        with pytest.raises(ValueError):
            compare_variances([np.zeros((50, 1))], np.zeros((10, 1)))


class TestSyntheticSpec:
    def test_pattern_types_order_and_periods(self):
        types = SyntheticSpec().pattern_types()
        assert types == [
            ("saw", 1.0, 100),
            ("sine", 1.0, 100),
            ("saw", 0.6, 40),
            ("sine", 0.6, 40),
        ]
        assert SyntheticSpec(n_patterns=2).pattern_types() == types[:2]

    def test_burst_counts(self):
        assert SyntheticSpec().burst_counts() == (10, 10, 10, 10)
        spec = SyntheticSpec(bursts_per_pattern=(1, 2, 3, 7))
        assert spec.burst_counts() == (1, 2, 3, 7)
        with pytest.raises(ValueError):
            SyntheticSpec(bursts_per_pattern=(1, 2)).burst_counts()

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_patterns=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_patterns=5)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(burst_len=10)


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        t1, v1 = generate_synthetic(5)
        t2, v2 = generate_synthetic(5)
        assert np.array_equal(t1, t2)
        assert np.array_equal(v1, v2)
        _, v3 = generate_synthetic(6)
        assert not np.array_equal(v1, v3)

    def test_spec_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            generate_synthetic(0, SyntheticSpec(), noise_sigma=0.1)

    def test_shape_and_mirroring(self):
        t, values = generate_synthetic(0, noise_sigma=0.0)
        # Lead gap + 40 bursts of 200 + 39 gaps of 600 + trailing gap.
        assert len(t) == 600 + 40 * 200 + 39 * 600 + 600
        assert values.shape == (len(t), 2)
        assert np.array_equal(values[:, 1], -values[:, 0])
        assert t.tolist() == list(range(len(t)))

    def test_clustered_layout_lengths(self):
        t, _ = generate_synthetic(
            0, noise_sigma=0.0, cluster_size=10, gap_len=300, cluster_gap_len=30000
        )
        # 4 clusters of 10 bursts; big gap leads and closes each cluster.
        expected = 30000 + 4 * (10 * 200 + 9 * 300 + 30000)
        assert len(t) == expected

    def test_plateau_levels_at_zero_noise(self):
        _, values = generate_synthetic(0, noise_sigma=0.0)
        levels = sorted(set(np.round(values[:, 0], 6)))
        assert levels == [-1.4, -0.84, 0.0, 0.84, 1.4]

    def test_noiseless_stream_reduces_to_expected_paths(self):
        from behaviorforest.core import BreakpointSpec, EngineConfig
        from behaviorforest.forest import BehaviorDetector
        from behaviorforest.preprocess import PreprocessPipeline

        _, values = generate_synthetic(9, noise_sigma=0.0, bursts_per_pattern=1)
        cfg = EngineConfig(BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))))
        pipe = PreprocessPipeline(cfg)
        det = BehaviorDetector()
        behaviors = det.step(np.concatenate([pipe.process_batch(values), pipe.flush()]))
        db = det.flush()
        if db is not None:
            behaviors.append(db)
        assert {db.path for db in behaviors} == EXPECTED_SYNTHETIC_PATHS
