"""Symbolization pipeline: binning, hysteresis, fusion, run compression."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorforest.core import (
    BreakpointSpec,
    DimensionMismatchError,
    EngineConfig,
    InvalidSampleError,
    SampleFrame,
    validate_stream_header,
)
from behaviorforest import preprocess
from behaviorforest.preprocess import (
    HysteresisFilter,
    PreprocessPipeline,
    copies_for_run_length,
    discretize,
    discretize_batch,
    split_unified,
    symbolic_frames,
    unify_symbols,
)
from oracles import SegmentHysteresisFilter


def make_handle(channels, **kw):
    cfg = EngineConfig(BreakpointSpec(tuple(tuple(ch) for ch in channels)), **kw)
    return validate_stream_header(len(channels), cfg, stream_id="test")


def run_streaming(handle, values):
    pipe = PreprocessPipeline(handle)
    out = []
    for i, row in enumerate(np.atleast_2d(np.asarray(values, dtype=float))):
        out.extend(pipe.step(SampleFrame(float(i), tuple(row))))
    out.extend(pipe.flush())
    return out


class TestDiscretize:
    def test_half_open_bins(self):
        bp = (1.0, 2.0, 3.0)
        assert discretize(0.5, bp) == 0
        assert discretize(1.0, bp) == 1  # boundary value enters the upper bin
        assert discretize(1.999, bp) == 1
        assert discretize(2.0, bp) == 2
        assert discretize(3.0, bp) == 3
        assert discretize(100.0, bp) == 3
        assert discretize(-math.inf, bp) == 0
        assert discretize(math.inf, bp) == 3

    def test_nan_rejected(self):
        with pytest.raises(InvalidSampleError):
            discretize(math.nan, (0.0,))
        with pytest.raises(InvalidSampleError):
            discretize_batch(np.array([0.0, math.nan]), (0.0,))

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(42)
        bp = tuple(sorted(rng.normal(size=9)))
        values = rng.normal(scale=2.0, size=10_000)
        got = discretize_batch(values, bp)
        for v, g in zip(values, got):
            oracle = sum(1 for b in bp if b <= v)
            assert g == oracle

    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(7)
        bp = (-1.0, 0.0, 1.0)
        values = rng.uniform(-2, 2, size=500)
        batch = discretize_batch(values, bp)
        assert [discretize(float(v), bp) for v in values] == batch.tolist()


class TestHysteresisFilter:
    def test_shallow_crossing_suppressed(self):
        f = HysteresisFilter((0.5,), margin=0.05)
        assert [f.step(v) for v in (0.49, 0.51, 0.49)] == [0, 0, 0]

    def test_deep_crossing_commits(self):
        f = HysteresisFilter((0.5,), margin=0.05)
        # Single breakpoint: no finite bin exists, so the margin is absolute.
        assert [f.step(v) for v in (0.49, 0.56, 0.49)] == [0, 1, 1]
        assert f.step(0.44) == 0

    def test_first_sample_commits_unconditionally(self):
        f = HysteresisFilter((0.5,), margin=0.05)
        assert f.step(0.51) == 1

    def test_margin_scales_with_bin_width(self):
        f = HysteresisFilter((0.0, 1.0, 2.0), margin=0.1)
        assert f.step(0.5) == 1
        assert f.step(1.05) == 1  # within 0.1 of the crossed breakpoint
        assert f.step(1.15) == 2  # penetrated past 1.0 + 0.1
        assert f.step(0.95) == 2  # needs to reach 1.0 - 0.1 going down
        assert f.step(0.85) == 1

    def test_edge_bins_borrow_nearest_width(self):
        f = HysteresisFilter((0.0, 10.0), margin=0.1)
        # Inner bin width is 10, so both edge bins use margin 1.0.
        assert f.step(-5.0) == 0
        assert f.step(0.5) == 0
        assert f.step(1.5) == 1
        assert f.step(10.5) == 1
        assert f.step(11.5) == 2

    def test_multi_bin_jump(self):
        f = HysteresisFilter((0.0, 1.0, 2.0), margin=0.1)
        assert f.step(-0.5) == 0
        assert f.step(2.05) == 0  # crossed 3 bins but only 0.05 past 2.0
        assert f.step(2.5) == 3

    def test_zero_margin_is_plain_discretization(self):
        rng = np.random.default_rng(3)
        bp = (-0.5, 0.5)
        values = rng.uniform(-1, 1, size=400)
        f = HysteresisFilter(bp, margin=0.0)
        assert f.run(values).tolist() == discretize_batch(values, bp).tolist()

    def test_run_equals_step_reference(self):
        rng = np.random.default_rng(11)
        bp = (-0.5, 0.0, 0.5)
        # Cluster values near the breakpoints to exercise the margin logic.
        values = rng.choice(bp, size=2_000) + rng.normal(scale=0.08, size=2_000)
        ref = HysteresisFilter(bp, margin=0.2)
        expected = [ref.step(float(v)) for v in values]
        f = HysteresisFilter(bp, margin=0.2)
        assert f.run(values).tolist() == expected
        assert f.committed == ref.committed

    def test_run_preserves_state_across_chunks(self):
        rng = np.random.default_rng(13)
        values = rng.normal(scale=0.7, size=1_000)
        whole = HysteresisFilter((-0.5, 0.5), margin=0.1)
        full = whole.run(values)
        chunked = HysteresisFilter((-0.5, 0.5), margin=0.1)
        parts = [chunked.run(c) for c in np.array_split(values, 13)]
        assert np.concatenate(parts).tolist() == full.tolist()

    @given(
        margin=st.floats(min_value=0.0, max_value=0.49, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_breaks=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_equals_step_property(self, margin, seed, n_breaks):
        rng = np.random.default_rng(seed)
        bp = tuple(np.sort(rng.choice(np.arange(-3.0, 3.5, 0.5), n_breaks, replace=False)))
        values = rng.choice(bp, size=300) + rng.normal(scale=0.2, size=300)
        ref = HysteresisFilter(bp, margin)
        expected = [ref.step(float(v)) for v in values]
        f = HysteresisFilter(bp, margin)
        assert f.run(values).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_run_equals_step_and_segment_oracle(self, data):
        bp = tuple(sorted(data.draw(st.lists(
            st.floats(-4.0, 4.0), min_size=1, max_size=8, unique=True
        ))))
        margin = data.draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.0, 0.49)))
        deltas = preprocess._penetration_margins(bp, margin)
        on_thresholds = [b + s * d for b in bp for d in deltas for s in (1, -1)]
        values = np.array(data.draw(st.lists(
            st.one_of(
                st.sampled_from(bp + tuple(on_thresholds) + (math.inf, -math.inf)),
                st.floats(bp[0] - 1.0, bp[-1] + 1.0),
            ),
            min_size=1,
            max_size=150,
        )))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(values) - 1)))))
        preset = data.draw(st.none() | st.integers(0, len(bp)))
        # Small scan blocks force the state to be carried between blocks.
        scan_entries = data.draw(st.sampled_from([1, 7, 1 << 18]))
        new, ref = HysteresisFilter(bp, margin), HysteresisFilter(bp, margin)
        segment = SegmentHysteresisFilter(bp, margin)
        new.committed = segment.committed = ref.committed = preset
        with mock.patch.object(preprocess, "_SCAN_ENTRIES", scan_entries):
            for chunk in np.split(values, cuts):
                expected = [ref.step(float(v)) for v in chunk]
                assert new.run(chunk).tolist() == expected
                assert segment.run(chunk).tolist() == expected
                assert new.committed == segment.committed == ref.committed

    def test_run_memory_is_bounded_on_ambiguous_input(self):
        # Every value lies 0.1 from a breakpoint, inside the 0.4 penetration
        # margin, so no sample fixes the state and all of them go through the
        # map scan; a scan over the whole input at once would need ~0.5 GB.
        bp = tuple(float(b) for b in range(63))
        rng = np.random.default_rng(0)
        n = 1_000_000
        values = rng.integers(0, 63, size=n) + rng.choice([-0.1, 0.1], size=n)
        f = HysteresisFilter(bp, margin=0.4)
        tracemalloc.start()
        try:
            out = f.run(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        head = values[:20_000]
        assert out[:20_000].tolist() == SegmentHysteresisFilter(bp, 0.4).run(head).tolist()


class TestUnification:
    def test_reference_value(self):
        assert unify_symbols([1, 2], [3, 3]) == 5

    def test_single_channel_identity(self):
        for s in range(7):
            assert unify_symbols([s], [7]) == s

    def test_first_channel_most_significant(self):
        assert unify_symbols([1, 0], [2, 10]) == 10
        assert unify_symbols([0, 9], [2, 10]) == 9

    def test_bijection_exhaustive(self):
        sizes = (3, 2, 4)
        seen = set()
        for a in range(3):
            for b in range(2):
                for c in range(4):
                    u = unify_symbols([a, b, c], sizes)
                    assert split_unified(u, sizes) == (a, b, c)
                    seen.add(u)
        assert seen == set(range(24))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unify_symbols([3, 0], [3, 3])
        with pytest.raises(ValueError):
            unify_symbols([-1, 0], [3, 3])
        with pytest.raises(ValueError):
            unify_symbols([1], [3, 3])
        with pytest.raises(ValueError):
            split_unified(9, (3, 3))

    @given(
        sizes=st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, sizes, data):
        symbols = [data.draw(st.integers(min_value=0, max_value=a - 1)) for a in sizes]
        u = unify_symbols(symbols, sizes)
        assert 0 <= u < math.prod(sizes)
        assert split_unified(u, sizes) == tuple(symbols)


class TestRunCompression:
    def test_reference_values(self):
        assert copies_for_run_length(1, 10) == 1
        assert copies_for_run_length(2, 10) == 1
        assert copies_for_run_length(10, 10) == 1
        assert copies_for_run_length(11, 10) == 2
        assert copies_for_run_length(100, 10) == 2
        assert copies_for_run_length(101, 10) == 3
        assert copies_for_run_length(500, 10) == 3

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_matches_digit_count_oracle(self, base):
        # ceil(log_base(L)) equals the digit count of L-1 in that base (L >= 2).
        for length in range(2, 4_000):
            digits = len(np.base_repr(length - 1, base))
            assert copies_for_run_length(length, base) == digits

    def test_exact_powers(self):
        for k in range(1, 7):
            assert copies_for_run_length(10**k, 10) == k
            assert copies_for_run_length(10**k + 1, 10) == k + 1

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            copies_for_run_length(0, 10)

    def test_never_expands(self):
        for length in range(1, 200):
            for base in (2, 3, 10):
                assert copies_for_run_length(length, base) <= length


class TestPipeline:
    def test_runs_tile_the_stream(self):
        handle = make_handle([(0.5, 1.5, 2.5)], hysteresis_margin=0.0)
        values = np.repeat([0.0, 1.0, 2.0, 1.0], [4, 2, 7, 1]).reshape(-1, 1)
        pipe = PreprocessPipeline(handle)
        reduced = pipe.process_batch(values) + pipe.flush()
        spans = []
        for rs in reduced:
            if not spans or spans[-1] != rs.raw_span:
                spans.append(rs.raw_span)
        assert spans == [(0, 4), (4, 6), (6, 13), (13, 14)]
        assert [rs.symbol for rs in reduced][:3] == [0, 1, 2]

    def test_long_constant_run_reduces_to_three_copies(self):
        handle = make_handle([(0.5,)], log_base=10, hysteresis_margin=0.0)
        pipe = PreprocessPipeline(handle)
        out = pipe.process_batch(np.zeros((500, 1)))
        assert out == []
        out = pipe.flush()
        assert len(out) == 3
        assert all(rs.symbol == 0 for rs in out)
        assert all(rs.raw_span == (0, 500) for rs in out)
        assert all(rs.run_length_raw == 500 for rs in out)

    def test_copy_counts_match_oracle(self):
        handle = make_handle([(0.5,)], log_base=2, hysteresis_margin=0.0)
        lengths = [1, 2, 3, 4, 9, 17]
        values = np.concatenate(
            [np.full(n, i % 2, dtype=float) for i, n in enumerate(lengths)]
        ).reshape(-1, 1)
        pipe = PreprocessPipeline(handle)
        reduced = pipe.process_batch(values) + pipe.flush()
        counts = {}
        for rs in reduced:
            counts[rs.raw_span] = counts.get(rs.raw_span, 0) + 1
        start = 0
        for n in lengths:
            span = (start, start + n)
            assert counts[span] == copies_for_run_length(n, 2)
            start += n

    @pytest.mark.parametrize("base", [2, 3, 10, 2**31, 10**30])
    def test_copy_counts_around_powers_across_chunks(self, base):
        handle = make_handle([(0.5,)], log_base=base, hysteresis_margin=0.0)
        powers = [base**k for k in range(20) if base**k <= 70_000]
        around_powers = {p + o for p in powers for o in (-1, 0, 1)} - {0}
        lengths = [1, 2, 3, 4, 9, 17, *sorted(around_powers)]
        values = np.concatenate(
            [np.full(n, i % 2, dtype=float) for i, n in enumerate(lengths)]
        ).reshape(-1, 1)
        pipe = PreprocessPipeline(handle)
        reduced = []
        for chunk in np.array_split(values, 37):
            reduced += pipe.process_batch(chunk)
        reduced += pipe.flush()
        counts = {}
        for rs in reduced:
            counts[rs.raw_span] = counts.get(rs.raw_span, 0) + 1
        start = 0
        for n in lengths:
            span = (start, start + n)
            assert counts.pop(span) == copies_for_run_length(n, base)
            start += n
        assert counts == {}

    def test_batch_equals_streaming(self):
        rng = np.random.default_rng(5)
        channels = [(-0.5, 0.5), (0.0,)]
        values = rng.normal(scale=0.6, size=(800, 2))
        expected = run_streaming(make_handle(channels, hysteresis_margin=0.1), values)
        pipe = PreprocessPipeline(make_handle(channels, hysteresis_margin=0.1))
        got = pipe.process_batch(values) + pipe.flush()
        assert got == expected

    def test_batch_equals_streaming_across_chunk_splits(self):
        rng = np.random.default_rng(17)
        channels = [(-0.5, 0.5), (0.0,)]
        values = rng.normal(scale=0.6, size=(600, 2))
        expected = run_streaming(make_handle(channels, hysteresis_margin=0.1), values)
        pipe = PreprocessPipeline(make_handle(channels, hysteresis_margin=0.1))
        got = []
        for chunk in np.array_split(values, 11):
            got.extend(pipe.process_batch(chunk))
        got.extend(pipe.flush())
        assert got == expected

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_streaming_with_runs_across_chunks(self, seed):
        rng = np.random.default_rng(seed)
        channels = [(-0.5, 0.5), (0.0,)]
        lengths = rng.integers(1, 60, size=40)
        levels = rng.choice([-1.0, -0.45, 0.02, 0.55, 1.0], size=(40, 2))
        values = np.repeat(levels, lengths, axis=0)
        kw = dict(hysteresis_margin=0.1, log_base=10**30)
        expected = run_streaming(make_handle(channels, **kw), values)
        pipe = PreprocessPipeline(make_handle(channels, **kw))
        got = []
        # About ten samples per chunk, so most runs span several chunks.
        cuts = np.sort(rng.choice(np.arange(1, len(values)), len(values) // 10, replace=False))
        for chunk in np.split(values, cuts):
            got.extend(pipe.process_batch(chunk))
        got.extend(pipe.flush())
        assert got == expected

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_streaming_property(self, seed):
        rng = np.random.default_rng(seed)
        channels = [(-0.5, 0.5)]
        values = rng.choice([-0.5, 0.5], size=200) + rng.normal(scale=0.15, size=200)
        values = values.reshape(-1, 1)
        expected = run_streaming(make_handle(channels), values)
        pipe = PreprocessPipeline(make_handle(channels))
        got = []
        split = rng.integers(1, 199)
        got.extend(pipe.process_batch(values[:split]))
        got.extend(pipe.process_batch(values[split:]))
        got.extend(pipe.flush())
        assert got == expected

    def test_nan_rejected_without_state_change(self):
        handle = make_handle([(0.5,)])
        pipe = PreprocessPipeline(handle)
        pipe.step(SampleFrame(0.0, (0.0,)))
        with pytest.raises(InvalidSampleError):
            pipe.step(SampleFrame(1.0, (math.nan,)))
        assert pipe.raw_index == 1
        with pytest.raises(InvalidSampleError):
            pipe.process_batch(np.array([[0.0], [math.nan]]))
        assert pipe.raw_index == 1

    def test_dimension_mismatch(self):
        handle = make_handle([(0.5,), (0.5,)])
        pipe = PreprocessPipeline(handle)
        with pytest.raises(DimensionMismatchError):
            pipe.step(SampleFrame(0.0, (0.0,)))
        with pytest.raises(DimensionMismatchError):
            pipe.process_batch(np.zeros((3, 3)))

    def test_empty_batch_is_noop(self):
        handle = make_handle([(0.5,)])
        pipe = PreprocessPipeline(handle)
        assert pipe.process_batch(np.empty((0, 1))) == []
        assert pipe.flush() == []

    def test_flush_resets_for_reuse(self):
        handle = make_handle([(0.5,)], hysteresis_margin=0.0)
        pipe = PreprocessPipeline(handle)
        pipe.process_batch(np.zeros((3, 1)))
        first = pipe.flush()
        assert [rs.raw_span for rs in first] == [(0, 3)]
        pipe.process_batch(np.ones((2, 1)))
        second = pipe.flush()
        # Raw indices keep counting; only the open run is closed.
        assert [rs.raw_span for rs in second] == [(3, 5)]


class TestSymbolicFrames:
    def test_per_frame_symbols_and_spans(self):
        handle = make_handle([(0.5,), (0.5,)], hysteresis_margin=0.0)
        values = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        frames = symbolic_frames(handle, values)
        assert [f.symbol for f in frames] == [0, 1, 3]
        assert [f.raw_span for f in frames] == [(0, 1), (1, 2), (2, 3)]

    def test_applies_hysteresis(self):
        handle = make_handle([(0.5,)], hysteresis_margin=0.05)
        frames = symbolic_frames(handle, np.array([[0.49], [0.51], [0.49]]))
        assert [f.symbol for f in frames] == [0, 0, 0]
