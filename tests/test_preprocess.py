"""Symbolization pipeline: binning, hysteresis, fusion, run compression."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorforest.core import (
    BreakpointSpec,
    ConfigError,
    DimensionMismatchError,
    EngineConfig,
    InvalidSampleError,
)
from behaviorforest import preprocess
from behaviorforest.preprocess import (
    HysteresisFilter,
    PreprocessPipeline,
    discretize_batch,
    fuse_symbols,
    run_copies,
    run_powers,
)
from oracles import (
    SegmentHysteresisFilter,
    StepHysteresisFilter,
    StepPipeline,
    copies_for_run_length,
    discretize,
    runs_of,
    split_unified,
    unify_symbols,
)


def make_config(channels, **kw):
    return EngineConfig(BreakpointSpec(tuple(tuple(ch) for ch in channels)), **kw)


def run_streaming(config, values):
    """Run rows of the per-frame oracle pipeline over `values`."""
    pipe = StepPipeline(config, stream_id="test")
    out = []
    for row in np.atleast_2d(np.asarray(values, dtype=float)):
        out.extend(pipe.step(tuple(row)))
    out.extend(pipe.flush())
    return runs_of(out)


def run_chunks(pipe, chunks):
    """Run rows the pipeline emits over `chunks` and the final flush."""
    return np.concatenate([*map(pipe.process_batch, chunks), pipe.flush()]).tolist()


def debouncer(breakpoints, margin):
    """Feeds values to the library filter and to the per-sample oracle.

    Each call is one chunk; the outputs must agree and are returned.
    """
    lib = HysteresisFilter(breakpoints, margin)
    ref = StepHysteresisFilter(breakpoints, margin)

    def feed(*values):
        got = lib.run(np.array(values, dtype=float)).tolist()
        assert got == [ref.step(v) for v in values]
        return got

    return feed


def fuse(symbols, sizes):
    return int(fuse_symbols(np.array([symbols]).T, sizes)[0])


def copies(lengths, base):
    return run_copies(np.asarray(lengths), run_powers(base)).tolist()


class TestDiscretize:
    def test_half_open_bins(self):
        bp = (1.0, 2.0, 3.0)
        values = [0.5, 1.0, 1.999, 2.0, 3.0, 100.0, -math.inf, math.inf]
        # A boundary value enters the upper bin.
        assert discretize_batch(np.array(values), bp).tolist() == [0, 1, 1, 2, 3, 3, 0, 3]
        assert [discretize(v, bp) for v in values] == [0, 1, 1, 2, 3, 3, 0, 3]

    def test_nan_rejected(self):
        with pytest.raises(InvalidSampleError):
            discretize(math.nan, (0.0,))
        with pytest.raises(InvalidSampleError):
            discretize_batch(np.array([math.nan]), (0.0,))
        with pytest.raises(InvalidSampleError):
            discretize_batch(np.array([0.0, math.nan]), (0.0,))

    # Breakpoints that BreakpointSpec refuses: binning against them used to
    # return [0, 2, 2] for the descending pair.
    @pytest.mark.parametrize("bp, refusal", [
        ((2.0, 1.0), "must ascend by finite gaps"),
        ((1.0, 1.0), "must ascend by finite gaps"),
        ((math.nan,), "not a finite number"),
        ((), "empty breakpoint list"),
    ])
    def test_rejects_what_a_config_refuses(self, bp, refusal):
        with pytest.raises(ConfigError, match=refusal):
            discretize_batch(np.array([0.0, 1.5, 2.5]), bp)

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

    @pytest.mark.parametrize("n_bins", [2, 3, 4, 5, 8, 9, 16, 17, 255, 256, 257, 4096])
    def test_matches_searchsorted_oracle(self, n_bins):
        # n_bins - 1 breakpoints, one of them 0.0.  discretize_batch is
        # np.searchsorted itself, so the bin semantics asserted below are the
        # check: a breakpoint joins the bin above, -0.0, subnormals, infinities,
        # the int64 dtype, and inputs of other dtypes and strides.
        rng = np.random.default_rng(n_bins)
        bp = np.sort(np.concatenate(([0.0], rng.normal(size=n_bins - 2))))
        assert len(np.unique(bp)) == n_bins - 1
        tiny = np.finfo(np.float64).smallest_subnormal
        values = np.concatenate((
            bp,
            np.nextafter(bp, -np.inf),
            np.nextafter(bp, np.inf),
            [-np.inf, np.inf, -0.0, 0.0, tiny, -tiny, 1e-310, -1e-310],
            rng.normal(scale=2.0, size=1_000),
        ))
        got = discretize_batch(values, bp)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(bp, values, side="right"))
        # A value on a breakpoint joins the bin above; -0.0 equals the 0.0 breakpoint.
        assert np.array_equal(got[: n_bins - 1], np.arange(1, n_bins))
        zero = int(np.flatnonzero(bp == 0.0)[0])
        assert discretize_batch(np.array([-0.0]), bp).tolist() == [zero + 1]
        for cast in (
            values.astype(np.float32),
            np.round(values[np.isfinite(values)] * 10).astype(np.int64),
            np.stack((values, -values), axis=1)[:, 0],
        ):
            assert np.array_equal(
                discretize_batch(cast, bp), np.searchsorted(bp, cast, side="right")
            )

    def test_memory_is_linear_in_the_samples(self):
        # Comparing 1M values with all 4,095 breakpoints at once would take
        # 4 GB of booleans; the search holds a few n-sized arrays.
        bp = np.linspace(-1.0, 1.0, 4095)
        values = np.random.default_rng(0).uniform(-1.1, 1.1, 1_000_000)
        tracemalloc.start()
        try:
            got = discretize_batch(values, bp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * values.nbytes
        assert np.array_equal(got, np.searchsorted(bp, values, side="right"))


class TestHysteresisFilter:
    def test_shallow_crossing_suppressed(self):
        f = debouncer((0.5,), margin=0.05)
        assert f(0.49, 0.51, 0.49) == [0, 0, 0]

    def test_deep_crossing_commits(self):
        f = debouncer((0.5,), margin=0.05)
        # Single breakpoint: no finite bin exists, so the margin is absolute.
        assert f(0.49, 0.56, 0.49) == [0, 1, 1]
        assert f(0.44) == [0]

    def test_first_sample_commits_unconditionally(self):
        f = debouncer((0.5,), margin=0.05)
        assert f(0.51) == [1]

    def test_margin_scales_with_bin_width(self):
        f = debouncer((0.0, 1.0, 2.0), margin=0.1)
        assert f(0.5) == [1]
        assert f(1.05) == [1]  # within 0.1 of the crossed breakpoint
        assert f(1.15) == [2]  # penetrated past 1.0 + 0.1
        assert f(0.95) == [2]  # needs to reach 1.0 - 0.1 going down
        assert f(0.85) == [1]

    def test_edge_bins_borrow_nearest_width(self):
        f = debouncer((0.0, 10.0), margin=0.1)
        # Inner bin width is 10, so both edge bins use margin 1.0.
        assert f(-5.0) == [0]
        assert f(0.5) == [0]
        assert f(1.5) == [1]
        assert f(10.5) == [1]
        assert f(11.5) == [2]

    def test_multi_bin_jump(self):
        f = debouncer((0.0, 1.0, 2.0), margin=0.1)
        assert f(-0.5) == [0]
        assert f(2.05) == [0]  # crossed 3 bins but only 0.05 past 2.0
        assert f(2.5) == [3]

    # Breakpoints whose gap overflows a float, or is infinite: BreakpointSpec
    # refuses such a channel as a config error, and so does a filter built
    # directly, where margin * inf would otherwise be a threshold.
    @pytest.mark.parametrize("bp", [(-1e308, 1e308), (-1.0, -9e307, 9e307), (0.0, math.inf)])
    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_rejects_gap_past_float_max(self, bp, margin):
        refusal = "finite number" if math.inf in bp else "must ascend by finite gaps"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=refusal):
                HysteresisFilter(bp, margin)
            with pytest.raises(ConfigError, match=refusal):
                HysteresisFilter([(0.0, 1.0), bp], margin)
            # The largest finite gap is taken, and debounces these far samples
            # as plain discretization does.
            f = HysteresisFilter((-8e307, 8e307), margin)
            x = np.array([0.0, 1.5e308, 0.0, -1.5e308, 0.0])
            assert f.run(x).tolist() == [1, 2, 1, 0, 1]
            assert discretize_batch(x, (-8e307, 8e307)).tolist() == [1, 2, 1, 0, 1]

    # Breakpoints or margins that BreakpointSpec or EngineConfig refuse.  Each
    # used to run or fail inside the filter: descending or equal breakpoints
    # left a bin unreachable, a NaN breakpoint put every sample in bin 0, an
    # empty list raised IndexError, an infinite breakpoint overflowed in
    # nextafter, and a NaN margin never let a bin change.
    @pytest.mark.parametrize("bp, margin, refusal", [
        ([2.0, 1.0], 0.1, "must ascend by finite gaps"),
        ([1.0, 1.0], 0.1, "must ascend by finite gaps"),
        ([math.nan], 0.1, "breakpoint nan is not a finite number"),
        ([], 0.1, "empty breakpoint list"),
        ([[]], 0.1, "empty breakpoint list"),
        ([math.inf], 0.1, "breakpoint inf is not a finite number"),
        ([0.0, 1.0], math.nan, "hysteresis_margin must satisfy"),
        ([0.0, 1.0], 0.5, "hysteresis_margin must satisfy"),
        ([0.0, 1.0], -0.1, "hysteresis_margin must satisfy"),
    ])
    def test_rejects_what_a_config_refuses(self, bp, margin, refusal):
        with pytest.raises(ConfigError, match=refusal):
            HysteresisFilter(bp, margin)

    def test_nan_rejected_and_state_kept(self):
        f = HysteresisFilter((-0.5, 0.5), margin=0.1)
        for values in ([math.nan, 0.0], [0.0, math.nan]):
            with pytest.raises(InvalidSampleError, match=f"index {values.index(math.nan)} "):
                f.run(np.array(values))
            assert f.committed is None
        assert f.run(np.array([0.0, 0.7])).tolist() == [1, 2]
        # Deep samples are fixed before NaN is looked for; the index is the chunk's.
        for values in ([math.nan, -0.9, 0.0], [-0.9, math.nan, 0.0]):
            with pytest.raises(InvalidSampleError, match=f"index {values.index(math.nan)} "):
                f.run(np.array(values))
            assert f.committed == (2,)
        assert f.run(np.array([0.45])).tolist() == [2]

    def test_nan_in_a_block_rejected_at_its_earliest_sample(self):
        f = HysteresisFilter([(-0.5, 0.5), (0.0,)], margin=0.1)
        with pytest.raises(InvalidSampleError, match="index 1 "):
            f.run(np.array([[0.0, 0.0, math.nan], [0.0, math.nan, 0.0]]))
        assert f.committed is None
        assert f.run(np.array([[0.0, 0.7], [-1.0, 1.0]])).tolist() == [[1, 2], [0, 1]]
        assert f.committed == (2, 1)

    def test_fixed_only_below_the_next_edge(self):
        # The deltas above 1.0 are a tenth of an ulp, so 1.0 - delta rounds to
        # 1.0: the sample on that breakpoint must still be ambiguous.
        f = debouncer((0.0, 1.0, float(np.nextafter(1.0, 2.0))), margin=0.1)
        assert f(1.5, 1.0, 1.0) == [3, 2, 2]
        assert f(0.5, 1.0) == [1, 1]

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
        ref = StepHysteresisFilter(bp, margin=0.2)
        expected = [ref.step(float(v)) for v in values]
        f = HysteresisFilter(bp, margin=0.2)
        assert f.run(values).tolist() == expected
        assert f.committed == (ref.committed,)

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
        ref = StepHysteresisFilter(bp, margin)
        expected = [ref.step(float(v)) for v in values]
        f = HysteresisFilter(bp, margin)
        assert f.run(values).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_run_equals_step_and_segment_oracle(self, data):
        bp = tuple(sorted(data.draw(st.lists(
            st.floats(-4.0, 4.0), min_size=1, max_size=64, unique=True
        ))))
        margin = data.draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.0, 0.49)))
        deltas = StepHysteresisFilter(bp, margin).deltas
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
        new, ref = HysteresisFilter(bp, margin), StepHysteresisFilter(bp, margin)
        segment = SegmentHysteresisFilter(bp, margin)
        segment.committed = ref.committed = preset
        new.committed = None if preset is None else (preset,)
        with mock.patch.object(preprocess, "_SCAN_ENTRIES", scan_entries):
            for chunk in np.split(values, cuts):
                expected = [ref.step(float(v)) for v in chunk]
                assert new.run(chunk).tolist() == expected
                assert segment.run(chunk).tolist() == expected
                assert new.committed == (segment.committed,) == (ref.committed,)

    @pytest.mark.parametrize("scan_entries", [7, 1 << 18])
    def test_flicker_stretches_across_chunks_and_blocks(self, scan_entries):
        # Noise on a breakpoint after a quiet lead-in, as in the flicker
        # benchmark: one sample in eight is ambiguous, in stretches that
        # cross chunk and scan-block boundaries.
        rng = np.random.default_rng(5)
        values = np.concatenate([np.zeros(1_000), rng.normal(0.5, 0.3, 20_000)])
        cuts = np.sort(rng.choice(np.arange(1, len(values)), 36, replace=False))
        f, ref = HysteresisFilter((-0.5, 0.5), 0.05), StepHysteresisFilter((-0.5, 0.5), 0.05)
        with mock.patch.object(preprocess, "_SCAN_ENTRIES", scan_entries):
            got = np.concatenate([f.run(c) for c in np.split(values, cuts)])
        assert got.tolist() == [ref.step(float(v)) for v in values]
        assert f.committed == (ref.committed,)

    def test_run_memory_is_linear_on_fixed_input(self):
        # Every value sits mid-bin, so all are fixed by the one threshold
        # search; no K-wide temporary may appear on that path.
        bp = np.linspace(-1.0, 1.0, 4095)
        mids = (bp[1:] + bp[:-1]) / 2
        values = np.random.default_rng(0).choice(mids, 1_000_000)
        f = HysteresisFilter(bp, margin=0.05)
        tracemalloc.start()
        try:
            out = f.run(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * values.nbytes
        assert np.array_equal(out, np.searchsorted(bp, values, side="right"))

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

    def test_setup_is_linear_in_the_alphabet(self):
        # 2,000 bins: a K x K threshold table alone would take 32 MB.
        bp = np.linspace(-1.0, 1.0, 1999)
        tracemalloc.start()
        try:
            f = HysteresisFilter(bp, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        values = np.random.default_rng(0).uniform(-1.1, 1.1, 2000)
        ref = StepHysteresisFilter(bp, 0.05)
        assert f.run(values).tolist() == [ref.step(float(v)) for v in values]


class TestUnification:
    """The per-sample oracle `unify_symbols` and the library `fuse_symbols`."""

    def test_reference_value(self):
        assert unify_symbols([1, 2], [3, 3]) == 5
        assert fuse([1, 2], [3, 3]) == 5

    def test_single_channel_identity(self):
        for s in range(7):
            assert unify_symbols([s], [7]) == s
        assert fuse_symbols(np.arange(7)[None, :], (7,)).tolist() == list(range(7))

    def test_first_channel_most_significant(self):
        assert unify_symbols([1, 0], [2, 10]) == 10
        assert unify_symbols([0, 9], [2, 10]) == 9
        assert fuse([1, 0], [2, 10]) == 10
        assert fuse([0, 9], [2, 10]) == 9

    def test_bijection_exhaustive(self):
        sizes = (3, 2, 4)
        seen = set()
        for a in range(3):
            for b in range(2):
                for c in range(4):
                    u = unify_symbols([a, b, c], sizes)
                    assert split_unified(u, sizes) == (a, b, c)
                    assert fuse([a, b, c], sizes) == u
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
        assert fuse(symbols, sizes) == u


class TestRunCompression:
    """The scalar oracle `copies_for_run_length` and the library `run_copies`."""

    def test_reference_values(self):
        assert copies_for_run_length(1, 10) == 1
        assert copies_for_run_length(2, 10) == 1
        assert copies_for_run_length(10, 10) == 1
        assert copies_for_run_length(11, 10) == 2
        assert copies_for_run_length(100, 10) == 2
        assert copies_for_run_length(101, 10) == 3
        assert copies_for_run_length(500, 10) == 3
        assert copies([1, 2, 10, 11, 100, 101, 500], 10) == [1, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_matches_digit_count_oracle(self, base):
        # ceil(log_base(L)) equals the digit count of L-1 in that base (L >= 2).
        lengths = range(2, 4_000)
        got = copies(lengths, base)
        for length, g in zip(lengths, got):
            digits = len(np.base_repr(length - 1, base))
            assert copies_for_run_length(length, base) == digits
            assert g == digits

    def test_exact_powers(self):
        for k in range(1, 7):
            assert copies_for_run_length(10**k, 10) == k
            assert copies_for_run_length(10**k + 1, 10) == k + 1
            assert copies([10**k, 10**k + 1], 10) == [k, k + 1]

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            copies_for_run_length(0, 10)

    def test_never_expands(self):
        lengths = np.arange(1, 200)
        for base in (2, 3, 10):
            assert (np.array(copies(lengths, base)) <= lengths).all()
            for length in lengths.tolist():
                assert copies_for_run_length(length, base) <= length


class TestPipeline:
    def test_runs_tile_the_stream(self):
        config = make_config([(0.5, 1.5, 2.5)], hysteresis_margin=0.0)
        values = np.repeat([0.0, 1.0, 2.0, 1.0], [4, 2, 7, 1]).reshape(-1, 1)
        runs = run_chunks(PreprocessPipeline(config), [values])
        assert runs == [[0, 0, 4, 1], [1, 4, 6, 1], [2, 6, 13, 1], [1, 13, 14, 1]]

    def test_long_constant_run_reduces_to_three_copies(self):
        config = make_config([(0.5,)], log_base=10, hysteresis_margin=0.0)
        pipe = PreprocessPipeline(config)
        out = pipe.process_batch(np.zeros((500, 1)))
        assert out.shape == (0, 4)
        out = pipe.flush()
        assert out.dtype == np.int64
        assert out.tolist() == [[0, 0, 500, 3]]

    def test_copy_counts_match_oracle(self):
        config = make_config([(0.5,)], log_base=2, hysteresis_margin=0.0)
        lengths = [1, 2, 3, 4, 9, 17]
        values = np.concatenate(
            [np.full(n, i % 2, dtype=float) for i, n in enumerate(lengths)]
        ).reshape(-1, 1)
        runs = run_chunks(PreprocessPipeline(config), [values])
        ends = np.cumsum(lengths).tolist()
        assert [(start, end) for _, start, end, _ in runs] == list(zip([0, *ends], ends))
        assert [k for *_, k in runs] == [copies_for_run_length(n, 2) for n in lengths]

    @pytest.mark.parametrize("base", [2, 3, 10, 2**31, 10**30])
    def test_copy_counts_around_powers_across_chunks(self, base):
        config = make_config([(0.5,)], log_base=base, hysteresis_margin=0.0)
        powers = [base**k for k in range(20) if base**k <= 70_000]
        around_powers = {p + o for p in powers for o in (-1, 0, 1)} - {0}
        lengths = [1, 2, 3, 4, 9, 17, *sorted(around_powers)]
        values = np.concatenate(
            [np.full(n, i % 2, dtype=float) for i, n in enumerate(lengths)]
        ).reshape(-1, 1)
        runs = run_chunks(PreprocessPipeline(config), np.array_split(values, 37))
        ends = np.cumsum(lengths).tolist()
        assert [(start, end) for _, start, end, _ in runs] == list(zip([0, *ends], ends))
        assert [k for *_, k in runs] == [copies_for_run_length(n, base) for n in lengths]

    def test_batch_equals_streaming(self):
        rng = np.random.default_rng(5)
        channels = [(-0.5, 0.5), (0.0,)]
        values = rng.normal(scale=0.6, size=(800, 2))
        config = make_config(channels, hysteresis_margin=0.1)
        assert run_chunks(PreprocessPipeline(config), [values]) == run_streaming(config, values)

    def test_batch_equals_streaming_across_chunk_splits(self):
        rng = np.random.default_rng(17)
        channels = [(-0.5, 0.5), (0.0,)]
        values = rng.normal(scale=0.6, size=(600, 2))
        config = make_config(channels, hysteresis_margin=0.1)
        got = run_chunks(PreprocessPipeline(config), np.array_split(values, 11))
        assert got == run_streaming(config, values)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_streaming_with_runs_across_chunks(self, seed):
        rng = np.random.default_rng(seed)
        channels = [(-0.5, 0.5), (0.0,)]
        lengths = rng.integers(1, 60, size=40)
        levels = rng.choice([-1.0, -0.45, 0.02, 0.55, 1.0], size=(40, 2))
        values = np.repeat(levels, lengths, axis=0)
        config = make_config(channels, hysteresis_margin=0.1, log_base=10**30)
        # About ten samples per chunk, so most runs span several chunks.
        cuts = np.sort(rng.choice(np.arange(1, len(values)), len(values) // 10, replace=False))
        got = run_chunks(PreprocessPipeline(config), np.split(values, cuts))
        assert got == run_streaming(config, values)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_streaming_property(self, seed):
        rng = np.random.default_rng(seed)
        channels = [(-0.5, 0.5)]
        values = rng.choice([-0.5, 0.5], size=200) + rng.normal(scale=0.15, size=200)
        values = values.reshape(-1, 1)
        config = make_config(channels)
        split = rng.integers(1, 199)
        got = run_chunks(PreprocessPipeline(config), [values[:split], values[split:]])
        assert got == run_streaming(config, values)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_streaming_on_both_binning_paths(self, data):
        # Streams whose bins all fit the threshold count, and streams with a
        # channel past it (those search), cut into chunks of any size.  At 130
        # bins a row has 258 entries, more than a byte can count.
        k = preprocess._COUNT_THRESHOLDS // 2 + 1  # the most bins the count takes
        sizes = data.draw(st.lists(
            st.integers(2, 5) | st.sampled_from([k - 1, k, k + 1, k + 4, 130]),
            min_size=1, max_size=3,
        ))
        channels = [
            sorted(data.draw(st.lists(
                st.floats(-4.0, 4.0), min_size=s - 1, max_size=s - 1, unique=True
            )))
            for s in sizes
        ]
        margin = data.draw(st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.0, 0.49)))
        # Each channel's breakpoints, its lo/hi thresholds (b + delta, b -
        # delta), their neighbouring floats, and the infinities.
        pools = []
        for bp in channels:
            deltas = StepHysteresisFilter(bp, margin).deltas
            on = [b + s * d for b in bp for d in deltas for s in (1, -1)]
            pools.append(sorted({
                x for v in bp + on for x in np.nextafter(v, [-math.inf, v, math.inf]).tolist()
            } | {math.inf, -math.inf}))
        row = st.tuples(*(
            st.one_of(st.sampled_from(pool), st.floats(bp[0] - 1.0, bp[-1] + 1.0))
            for bp, pool in zip(channels, pools)
        ))
        # Rows held for one sample chatter; rows held longer are quiet stretches.
        rows = data.draw(st.lists(
            st.tuples(row, st.one_of(st.just(1), st.integers(1, 60))), min_size=1, max_size=60
        ))
        values = np.repeat([r for r, _ in rows], [hold for _, hold in rows], axis=0)
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(values) - 1)))))
        config = make_config(channels, hysteresis_margin=margin)
        scan_entries = data.draw(st.sampled_from([1, 7, 1 << 18]))
        with mock.patch.object(preprocess, "_SCAN_ENTRIES", scan_entries):
            got = run_chunks(PreprocessPipeline(config), np.split(values, cuts))
        assert got == run_streaming(config, values)

    def test_nan_rejected_without_state_change(self):
        config = make_config([(0.5,)])
        ref = StepPipeline(config)
        ref.step((0.0,))
        with pytest.raises(InvalidSampleError):
            ref.step((math.nan,))
        assert ref.raw_index == 1
        pipe = PreprocessPipeline(config)
        pipe.process_batch(np.array([[0.0]]))
        with pytest.raises(InvalidSampleError):
            pipe.process_batch(np.array([[math.nan]]))
        assert pipe.raw_index == 1
        with pytest.raises(InvalidSampleError):
            pipe.process_batch(np.array([[0.0], [math.nan]]))
        assert pipe.raw_index == 1
        assert pipe.flush().tolist() == runs_of(ref.flush())

    def test_dimension_mismatch(self):
        config = make_config([(0.5,), (0.5,)])
        with pytest.raises(DimensionMismatchError):
            StepPipeline(config).step((0.0,))
        pipe = PreprocessPipeline(config)
        with pytest.raises(DimensionMismatchError):
            pipe.process_batch(np.zeros((3, 1)))
        with pytest.raises(DimensionMismatchError):
            pipe.process_batch(np.zeros((3, 3)))

    def test_empty_batch_is_noop(self):
        pipe = PreprocessPipeline(make_config([(0.5,)]))
        for runs in (pipe.process_batch(np.empty((0, 1))), pipe.flush()):
            assert runs.shape == (0, 4)
            assert runs.dtype == np.int64

    def test_flush_resets_for_reuse(self):
        pipe = PreprocessPipeline(make_config([(0.5,)], hysteresis_margin=0.0))
        pipe.process_batch(np.zeros((3, 1)))
        assert pipe.flush().tolist() == [[0, 0, 3, 1]]
        pipe.process_batch(np.ones((2, 1)))
        # Raw indices keep counting; only the open run is closed.
        assert pipe.flush().tolist() == [[1, 3, 5, 1]]
