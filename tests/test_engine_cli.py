"""End-to-end engine behavior, file I/O, and the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import StepBehaviorDetector, StepPipeline, forest_snapshot, node_at

from behaviorforest import cli
from behaviorforest import engine as engine_module
from behaviorforest import io as bfio
from behaviorforest.analysis import generate_synthetic
from behaviorforest.core import (
    BreakpointSpec,
    ConfigError,
    DimensionMismatchError,
    EngineConfig,
    InvalidSampleError,
)
from behaviorforest.engine import DiscoveryEngine, discover, replay
from behaviorforest.forest import BehaviorForest, forest_restore, snapshot_dumps
from behaviorforest.io import (
    config_from_dict,
    load_config,
    read_segments,
    read_series,
    save_config,
    write_segments,
    write_series,
)
from behaviorforest.selection import RunStats, decide

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# Raw single-channel fixture whose runs (under log base 2) reduce to the
# symbol sequence 1,1,1,2,3,2,1,1,1,1,1,2,3,4 and therefore to exactly the
# behaviors (1,2,3,2,1) and (1,2,3,4).
RAW_RUNS = [(1.0, 5), (2.0, 1), (3.0, 1), (2.0, 1), (1.0, 17), (2.0, 1), (3.0, 1), (4.0, 1)]


def fixture_stream():
    values = np.repeat([v for v, _ in RAW_RUNS], [n for _, n in RAW_RUNS])
    t = np.arange(len(values), dtype=float)
    return t, values.reshape(-1, 1)


def fixture_config():
    return EngineConfig(
        BreakpointSpec(((0.5, 1.5, 2.5, 3.5, 4.5),)),
        log_base=2,
        hysteresis_margin=0.0,
    )


class TestEngineOnFixture:
    def test_discovery_end_to_end(self):
        t, values = fixture_stream()
        engine, result = discover(fixture_config(), [("fix", t, values)])
        assert [s.path for s in result.segments] == [(1, 2, 3, 2, 1), (1, 2, 3, 4)]
        assert [s.raw_span for s in result.segments] == [(0, 25), (8, 28)]
        assert [s.reason for s in result.segments] == ["novel", "novel"]
        assert [s.occurrence_index for s in result.segments] == [1, 1]
        assert result.segments[0].t.tolist() == list(range(25))
        assert result.segments[0].values[:, 0].tolist() == values[0:25, 0].tolist()

    def test_fixture_stats(self):
        t, values = fixture_stream()
        _, result = discover(fixture_config(), [("fix", t, values)])
        stats = result.stats
        assert stats.detected_db_count == 2
        assert stats.recorded_db_count == 2
        assert stats.distinct_recorded_paths == 2
        # The two spans overlap on [8, 25); their union covers the stream.
        assert stats.recorded_sample_count == 28
        assert stats.total_sample_count == 28
        assert stats.recording_fraction == 1.0

    def test_fixture_forest_shape(self):
        t, values = fixture_stream()
        engine, _ = discover(fixture_config(), [("fix", t, values)])
        forest = engine.forest
        assert sum(1 for _ in forest.iter_nodes()) == 6
        assert node_at(forest, (1, 2)).edge_weight == 2
        assert node_at(forest, (1, 2, 3)).edge_weight == 2
        assert forest.terminal_paths() == {(1, 2, 3, 2, 1): 1, (1, 2, 3, 4): 1}

    def test_chunk_size_does_not_change_results(self):
        t, values = fixture_stream()
        base_engine = DiscoveryEngine(fixture_config())
        base = base_engine.process_stream("fix", t, values)
        small_engine = DiscoveryEngine(fixture_config())
        with mock.patch.object(engine_module, "_CHUNK_SIZE", 3):
            small = small_engine.process_stream("fix", t, values)
        assert [(s.path, s.raw_span) for s in small] == [
            (s.path, s.raw_span) for s in base
        ]
        assert forest_snapshot(base_engine.forest, "h") == forest_snapshot(small_engine.forest, "h")

    def test_one_dimensional_values_are_one_channel(self):
        t, values = fixture_stream()

        def rows(segments):
            return [
                (s.segment_id, s.stream_id, s.raw_span, s.path, s.reason, s.occurrence_index,
                 s.t.tobytes(), s.values.shape, s.values.tobytes())
                for s in segments
            ]

        flat = DiscoveryEngine(fixture_config()).process_stream("fix", t, values[:, 0])
        assert rows(flat) == rows(DiscoveryEngine(fixture_config()).process_stream("fix", t, values))
        assert len(flat) == 2

    def test_overflow_is_counted_but_not_recorded(self):
        t, values = fixture_stream()
        streams = [("a", t, values), ("b", t, values)]
        unbounded, _ = discover(fixture_config(), streams)
        # In each stream the first behavior spans the 25 samples [0, 25),
        # more than the capacity of 20, and is still under the threshold: the
        # forest counts it, and it takes no segment id.
        engine, result = discover(fixture_config(), streams, buffer_capacity=20)
        assert result.overflowed == (("a", (0, 25)), ("b", (0, 25)))
        assert engine.overflowed == list(result.overflowed)
        assert [(s.segment_id, s.stream_id, s.raw_span) for s in result.segments] == [
            (0, "a", (8, 28)),
            (1, "b", (8, 28)),
        ]
        assert engine.forest.terminal_paths() == {(1, 2, 3, 2, 1): 2, (1, 2, 3, 4): 2}
        assert forest_snapshot(engine.forest, "h") == forest_snapshot(unbounded.forest, "h")
        stats = result.stats
        assert (stats.detected_db_count, stats.recorded_db_count) == (4, 2)
        assert stats.recorded_sample_count == 40
        # A second run reports only its own overflows.
        again = engine.run(streams[:1])
        assert again.overflowed == (("a", (0, 25)),)
        assert [s.segment_id for s in again.segments] == [2]

    def test_discarded_behavior_may_lie_behind_the_buffer(self):
        t, values = fixture_stream()
        engine, _ = discover(fixture_config(), [("fix", t, values)])
        forest = engine.forest
        forest.insert((1, 2, 3, 2, 1))
        small = DiscoveryEngine(
            dataclasses.replace(fixture_config(), relevance_threshold=2),
            forest=forest,
            buffer_capacity=20,
        )
        result = small.run([("fix", t, values)])
        assert [s.raw_span for s in result.segments] == [(8, 28)]
        assert forest.terminal_paths() == {(1, 2, 3, 2, 1): 3, (1, 2, 3, 4): 2}
        stats = result.stats
        assert (stats.detected_db_count, stats.recorded_db_count) == (2, 1)

    def test_repeated_stream_id_rejected_before_any_stream(self):
        t, values = fixture_stream()
        engine = DiscoveryEngine(fixture_config())
        with pytest.raises(ValueError, match="'fix'"):
            engine.run([("fix", t, values), ("other", t, values), ("fix", t, values)])
        assert engine.forest.total_insertions == 0

    def test_empty_stream_of_wrong_width(self):
        with pytest.raises(DimensionMismatchError, match="'e'"):
            DiscoveryEngine(fixture_config()).process_stream("e", np.empty(0), np.empty((0, 3)))

    def test_discarded_behaviors_hand_out_no_segment_ids(self):
        t, values = fixture_stream()
        forest = BehaviorForest()
        for _ in range(5):  # the first behavior is at the threshold, the second new
            forest.insert((1, 2, 3, 2, 1))
        engine = DiscoveryEngine(fixture_config(), forest=forest)
        result = engine.run([("a", t, values), ("b", t, values)])
        assert [(s.segment_id, s.stream_id, s.path) for s in result.segments] == [
            (0, "a", (1, 2, 3, 4)),
            (1, "b", (1, 2, 3, 4)),
        ]
        assert result.stats.detected_db_count == 4

    def test_timestamp_length_mismatch(self):
        t, values = fixture_stream()
        for bad_t in (t[:-1], t[:, None], np.stack([t, t], axis=1)):
            with pytest.raises(ValueError, match="'fix'"):
                DiscoveryEngine(fixture_config()).process_stream("fix", bad_t, values)

    def test_values_of_more_than_two_dimensions_rejected(self):
        t, values = fixture_stream()
        bad = values[:, :, None]
        with pytest.raises(ValueError, match=rf"stream 'fix': .* got shape \({len(t)}, 1, 1\)"):
            DiscoveryEngine(fixture_config()).process_stream("fix", t, bad)

    def test_scalar_values_rejected(self):
        shape = r"expected a \(samples, channels\) array, got shape \(\)"
        with pytest.raises(ValueError, match=f"stream 's': {shape}"):
            DiscoveryEngine(fixture_config()).process_stream("s", np.arange(1.0), np.float64(1.0))

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_bad_buffer_capacity(self, capacity):
        with pytest.raises(ValueError, match="buffer_capacity"):
            DiscoveryEngine(fixture_config(), buffer_capacity=capacity)

    def test_patterns_do_not_straddle_streams(self):
        # Each stream ends mid-behavior; both close at their own stream end
        # and the second stream starts from fresh per-stream state.
        values = np.repeat([1.0, 2.0], [5, 1]).reshape(-1, 1)
        t = np.arange(6, dtype=float)
        streams = [("a", t, values), ("b", t, values)]
        engine, result = discover(fixture_config(), streams)
        assert [s.path for s in result.segments] == [(1, 2), (1, 2)]
        assert [s.stream_id for s in result.segments] == ["a", "b"]
        assert [s.raw_span for s in result.segments] == [(0, 6), (0, 6)]
        assert engine.forest.occurrence_count((1, 2)) == 2
        assert result.stats.total_sample_count == 12

    def test_replay_matches_manual_composition(self):
        t, values = fixture_stream()
        streams = [("fix", t, values)]
        cfg = fixture_config()
        engine, results = replay(cfg, streams, runs=2)

        first_engine, first = discover(cfg, streams)
        restored = forest_restore(forest_snapshot(first_engine.forest, "h"))
        second_engine, second = discover(cfg, streams, forest=restored)
        assert forest_snapshot(engine.forest, "h") == forest_snapshot(second_engine.forest, "h")
        # discover numbers its one pass 0; replay numbers its passes from 1.
        assert (first.stats.run_index, second.stats.run_index) == (0, 0)
        assert [r.stats for r in results] == [
            dataclasses.replace(first.stats, run_index=1),
            dataclasses.replace(second.stats, run_index=2),
        ]
        assert [(s.path, s.raw_span) for s in results[1].segments] == [
            (s.path, s.raw_span) for s in second.segments
        ]

    def test_replay_rejects_fewer_than_one_run(self):
        t, values = fixture_stream()
        with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
            replay(fixture_config(), [("fix", t, values)], runs=0)

    def test_replay_saturates_at_threshold(self):
        t, values = fixture_stream()
        engine, results = replay(fixture_config(), [("fix", t, values)], runs=8)
        assert [r.stats.recorded_db_count for r in results] == [2, 2, 2, 2, 2, 0, 0, 0]
        assert [r.stats.detected_db_count for r in results] == [2] * 8
        # Segment ids keep counting across runs of one engine.
        flat = [s for run in results for s in run.segments]
        assert [s.segment_id for s in flat] == list(range(10))
        assert [s.occurrence_index for s in flat] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_saturated_forest_records_nothing_new(self):
        t, values = fixture_stream()
        cfg = fixture_config()
        engine, _ = replay(cfg, [("fix", t, values)], runs=6)
        saturated = forest_restore(forest_snapshot(engine.forest, "h"))
        _, result = discover(cfg, [("fix", t, values)], forest=saturated)
        assert result.stats.detected_db_count == 2
        assert result.stats.recorded_db_count == 0
        assert result.segments == ()
        assert result.stats.recording_fraction == 0.0

    def test_run_index_threads_through(self):
        t, values = fixture_stream()
        engine = DiscoveryEngine(fixture_config())
        stats = engine.run([("fix", t, values)], run_index=3).stats
        assert stats.run_index == 3
        assert stats.detected_db_count == 2

    def test_segments_survive_writes_after_the_call(self):
        t, values = fixture_stream()
        segments = DiscoveryEngine(fixture_config()).process_stream("fix", t, values)
        before = [(s.t.tolist(), s.values.tolist()) for s in segments]
        t[:] = -1.0
        values[:] = -1.0
        assert [(s.t.tolist(), s.values.tolist()) for s in segments] == before


def test_process_stream_memory_excludes_the_stream():
    # 400,600 x 2 samples, 9.17 MB with timestamps.  The look-back buffer
    # refers to the stream's arrays, so the call's own peak is about 1 MB;
    # one buffered copy of the stream alone would be the input's size.
    t, values = generate_synthetic(0, bursts_per_pattern=125)
    engine = DiscoveryEngine(load_config(os.path.join(CONFIG_DIR, "synthetic.json")))
    tracemalloc.start()
    try:
        segments = engine.process_stream("s", t, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert segments
    assert peak < (t.nbytes + values.nbytes) / 4


@pytest.mark.parametrize(
    "error", [InvalidSampleError, DimensionMismatchError], ids=["nan", "channels"]
)
def test_failed_run_leaves_the_engine_as_it_was(error):
    # Stream a alone settles 40 behaviors; under a capacity of 1,405 samples
    # 13 of its recorded ones take segment ids and 7 overflow.  Swapped
    # channels make new paths, so the streams after it record some too.
    config = load_config(os.path.join(CONFIG_DIR, "synthetic.json"))
    t, values = generate_synthetic(0)
    swapped = values[:, ::-1]
    if error is InvalidSampleError:
        bad = swapped.copy()
        bad[len(values) // 2, 0] = np.nan
    else:
        bad = np.hstack([swapped, swapped[:, :1]])
    engine = DiscoveryEngine(config, buffer_capacity=1405)
    reference = DiscoveryEngine(config, buffer_capacity=1405)
    engine.run([("a", t, values)])
    reference.run([("a", t, values)])
    before = snapshot_dumps(engine.forest, "h"), list(engine.overflowed)
    assert len(before[1]) == 7
    with pytest.raises(error, match="stream 'b'"):
        engine.run([("c", t, swapped), ("b", t, bad)])
    assert (snapshot_dumps(engine.forest, "h"), engine.overflowed) == before
    with pytest.raises(error, match="stream 'b'"):
        engine.process_stream("b", t, bad)
    assert (snapshot_dumps(engine.forest, "h"), engine.overflowed) == before
    # The next good run numbers its segments as if the failures never happened.
    got, want = engine.run([("c", t, swapped)]), reference.run([("c", t, swapped)])
    assert got.segments[0].segment_id == 13
    assert [(s.segment_id, s.raw_span, s.path, s.reason) for s in got.segments] == [
        (s.segment_id, s.raw_span, s.path, s.reason) for s in want.segments
    ]
    assert (got.stats, got.overflowed) == (want.stats, want.overflowed)
    assert engine.overflowed == reference.overflowed
    assert snapshot_dumps(engine.forest, "h") == snapshot_dumps(reference.forest, "h")


LEVELS = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from([-1.0, 0.0, 1.0]))


@st.composite
def piecewise_stream(draw):
    """A repeated motif of 2-channel constant pieces, optionally with noise near the breakpoints."""
    motif = draw(st.lists(st.tuples(LEVELS, st.integers(1, 30)), min_size=1, max_size=8))
    pieces = motif * draw(st.integers(1, 4))
    values = np.repeat([lv for lv, _ in pieces], [n for _, n in pieces], axis=0)
    sigma = draw(st.sampled_from([0.0, 0.3]))
    values = values + sigma * np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(
        values.shape
    )
    return np.arange(len(values), dtype=float), values


def recount(config, streams, forest, capacity=None):
    """Run stats rebuilt one sample and one behavior at a time from the oracles.

    Every behavior is inserted into `forest`; one that would be recorded over
    a span longer than `capacity` is listed as overflowed instead.
    """
    detected, recorded, paths, covered, overflowed = 0, 0, set(), {}, []
    for sid, _, values in streams:
        pipe = StepPipeline(config, sid)
        detector = StepBehaviorDetector(config.termination_run, config.initiation_context)
        reduced = [r for frame in values for r in pipe.step(tuple(frame))] + pipe.flush()
        for behavior in [detector.step(r) for r in reduced] + [detector.flush()]:
            if behavior is None:
                continue
            detected += 1
            if decide(forest.insert(behavior.path), config.relevance_threshold) is None:
                continue
            start, end = behavior.raw_span
            if capacity is not None and end - start > capacity:
                overflowed.append((sid, (start, end)))
                continue
            recorded += 1
            paths.add(behavior.path)
            covered.setdefault(sid, set()).update(range(start, end))
    total = sum(len(values) for _, _, values in streams)
    return detected, recorded, len(paths), covered, total, overflowed


@given(
    streams=st.lists(piecewise_stream(), min_size=1, max_size=3),
    chunk_size=st.integers(1, 64),
    prior_run=st.booleans(),
    threshold=st.integers(1, 3),
    log_base=st.sampled_from([2, 3]),
    margin=st.sampled_from([0.0, 0.1]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_run_stats_match_independent_recount(
    streams, chunk_size, prior_run, threshold, log_base, margin, data
):
    config = EngineConfig(
        BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))),
        log_base=log_base,
        relevance_threshold=threshold,
        hysteresis_margin=margin,
    )
    streams = [(f"s{i}", t, values) for i, (t, values) in enumerate(streams)]
    prior = BehaviorForest()
    if prior_run:
        DiscoveryEngine(config, forest=prior).run(streams)
    oracle_forest = forest_restore(forest_snapshot(prior, "h"))
    # Short capacities overflow often; ones up to twice the longest stream
    # mostly do not.
    longest = max(len(t) for _, t, _ in streams)
    capacity = data.draw(
        st.one_of(st.none(), st.integers(1, 60), st.integers(1, 2 * longest)), label="capacity"
    )

    engine = DiscoveryEngine(config, forest=prior, buffer_capacity=capacity)
    detected, recorded, n_paths, covered, total, overflowed = recount(
        config, streams, oracle_forest, capacity
    )
    event("overflow" if overflowed else "no overflow")
    with mock.patch.object(engine_module, "_CHUNK_SIZE", chunk_size):
        result = engine.run(streams, run_index=2)
    assert list(result.overflowed) == overflowed

    stats = result.stats
    assert stats.run_index == 2
    assert stats.detected_db_count == detected
    assert stats.recorded_db_count == recorded
    assert stats.distinct_recorded_paths == n_paths
    assert stats.recorded_sample_count == sum(len(c) for c in covered.values())
    assert stats.total_sample_count == total
    segment_cover = {}
    for s in result.segments:
        segment_cover.setdefault(s.stream_id, set()).update(range(*s.raw_span))
    assert segment_cover == covered
    assert forest_snapshot(engine.forest, "h") == forest_snapshot(oracle_forest, "h")


@st.composite
def capacity_case(draw):
    """A config of 1-2 channels and 1-3 streams of repeated, possibly noisy, pieces."""
    d = draw(st.integers(1, 2))
    channel = st.lists(st.sampled_from([-0.75, -0.25, 0.0, 0.5, 1.0]), min_size=1, max_size=3)
    config = EngineConfig(
        BreakpointSpec(tuple(tuple(sorted(set(draw(channel)))) for _ in range(d))),
        log_base=draw(st.integers(2, 4)),
        relevance_threshold=draw(st.integers(1, 3)),
        hysteresis_margin=draw(st.sampled_from([0.0, 1e-12, 0.1, 0.3])),
        termination_run=draw(st.integers(2, 4)),
        initiation_context=draw(st.integers(1, 3)),
    )
    level = st.tuples(*[st.sampled_from([-1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5])] * d)
    streams = []
    for i in range(draw(st.integers(1, 3))):
        motif = draw(st.lists(st.tuples(level, st.integers(1, 25)), min_size=1, max_size=6))
        pieces = motif * draw(st.integers(1, 4))
        values = np.repeat([lv for lv, _ in pieces], [n for _, n in pieces], axis=0)
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        values = values + draw(st.sampled_from([0.0, 0.2])) * rng.standard_normal(values.shape)
        streams.append((f"s{i}", np.arange(len(values), dtype=float), values))
    return config, streams


@given(
    case=capacity_case(),
    chunk_size=st.integers(1, 64),
    prior_run=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_capacity_filters_the_unbounded_run(case, chunk_size, prior_run, data):
    """With any capacity N, the forest is the unbounded run's, and the segments
    are the unbounded run's segments of span at most N, renumbered."""
    config, streams = case
    prior = BehaviorForest()
    if prior_run:
        DiscoveryEngine(config, forest=prior).run(streams)
    snapshot = forest_snapshot(prior, "h")
    unbounded = DiscoveryEngine(config, forest=forest_restore(snapshot))
    expected = unbounded.run(streams, run_index=1)
    # A recorded span n tests the boundary: at capacity n the segment fits,
    # at n - 1 it overflows.
    longest = max(len(t) for _, t, _ in streams)
    spans = sorted({end - start for start, end in (s.raw_span for s in expected.segments)})
    boundary = st.sampled_from(spans or [1]).flatmap(lambda n: st.sampled_from([n, max(n - 1, 1)]))
    capacity = data.draw(
        st.one_of(st.none(), st.integers(1, 60), st.integers(1, 2 * longest), boundary),
        label="capacity",
    )
    engine = DiscoveryEngine(config, forest=forest_restore(snapshot), buffer_capacity=capacity)
    with mock.patch.object(engine_module, "_CHUNK_SIZE", chunk_size):
        result = engine.run(streams, run_index=1)

    def fits(s):
        return capacity is None or s.raw_span[1] - s.raw_span[0] <= capacity

    def row(s):
        return (s.stream_id, s.raw_span, s.path, s.reason, s.occurrence_index, s.t.tobytes(),
                s.values.tobytes())

    kept = [s for s in expected.segments if fits(s)]
    event("overflow" if len(kept) < len(expected.segments) else "no overflow")
    assert forest_snapshot(engine.forest, "h") == forest_snapshot(unbounded.forest, "h")
    assert [s.segment_id for s in result.segments] == list(range(len(kept)))
    assert [row(s) for s in result.segments] == [row(s) for s in kept]
    total = sum(len(t) for _, t, _ in streams)
    assert result.stats == RunStats.of(1, kept, expected.stats.detected_db_count, total)
    assert result.overflowed == tuple(
        (s.stream_id, s.raw_span) for s in expected.segments if not fits(s)
    )


class TestSeriesIO:
    def test_roundtrip_exact(self, tmp_path):
        path = str(tmp_path / "s.csv")
        t = np.array([0.0, 0.1, 0.2])
        values = np.array([[1.5, -2.25], [0.1 + 0.2, 1e-17], [3.0, 4.0]])
        write_series(path, t, values, channel_names=["speed", "torque"])
        t2, v2, names = read_series(path)
        assert names == ["speed", "torque"]
        assert t2.tolist() == t.tolist()
        assert v2.tolist() == values.tolist()  # repr() round-trips floats exactly

    def test_one_dimensional_values(self, tmp_path):
        path = str(tmp_path / "s.csv")
        write_series(path, np.arange(3.0), np.array([1.0, 2.0, 3.0]))
        t, values, names = read_series(path)
        assert names == ["ch1"]
        assert values.shape == (3, 1)

    def test_empty_data_with_header(self, tmp_path):
        path = str(tmp_path / "s.csv")
        path_obj = tmp_path / "s.csv"
        path_obj.write_text("t,ch1\n")
        t, values, names = read_series(path)
        assert len(t) == 0
        assert values.shape == (0, 1)

    def test_malformed_files_rejected(self, tmp_path):
        blank = tmp_path / "blank.csv"
        blank.write_text("")
        with pytest.raises(ValueError):
            read_series(str(blank))

        single = tmp_path / "single.csv"
        single.write_text("t\n0.0\n")
        with pytest.raises(ValueError):
            read_series(str(single))

        jagged = tmp_path / "jagged.csv"
        jagged.write_text("t,ch1\n0.0,1.0\n1.0\n")
        with pytest.raises(ValueError):
            read_series(str(jagged))

        text = tmp_path / "text.csv"
        text.write_text("t,ch1\n0.0,abc\n")
        with pytest.raises(ValueError):
            read_series(str(text))

    def test_channel_name_count_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_series(
                str(tmp_path / "s.csv"),
                np.arange(2.0),
                np.zeros((2, 2)),
                channel_names=["only_one"],
            )


class TestSegmentsIO:
    def test_roundtrip_from_discovery(self, tmp_path):
        t, values = fixture_stream()
        _, result = discover(fixture_config(), [("fix", t, values)])
        out = str(tmp_path / "run")
        write_segments(out, result.segments, channel_names=["ch1"])
        loaded = read_segments(out)
        assert len(loaded) == len(result.segments)
        for got, want in zip(loaded, result.segments):
            assert got.segment_id == want.segment_id
            assert got.stream_id == want.stream_id
            assert got.raw_span == want.raw_span
            assert got.start_t == want.start_t
            assert got.end_t == want.end_t
            assert got.path == want.path
            assert got.reason == want.reason
            assert got.occurrence_index == want.occurrence_index
            assert got.t.tolist() == want.t.tolist()
            assert got.values.tolist() == want.values.tolist()

    def test_times_are_the_manifest_times(self, tmp_path):
        t, values = fixture_stream()
        _, result = discover(fixture_config(), [("fix", t * 0.1 + 3.0, values)])
        out = str(tmp_path / "run")
        write_segments(out, result.segments)
        with open(os.path.join(out, "segments.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        loaded = read_segments(out)
        assert len(loaded) == len(rows) == 2
        for seg, row in zip(loaded, rows):
            assert (seg.start_t, seg.end_t) == (float(row["start_t"]), float(row["end_t"]))
            assert (seg.start_t, seg.end_t) == (seg.t[0], seg.t[-1])

    def test_rejects_foreign_manifest(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "segments.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_segments(str(out))


class TestConfigIO:
    def test_load_save_roundtrip(self, tmp_path):
        cfg = fixture_config()
        path = str(tmp_path / "c.json")
        save_config(path, cfg)
        assert load_config(path) == cfg
        assert load_config(path).config_hash() == cfg.config_hash()
        # Every field is written; an int margin as the float the hash uses.
        cfg = dataclasses.replace(fixture_config(), hysteresis_margin=0, log_base=7)
        save_config(path, cfg)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert list(doc) == [f.name for f in dataclasses.fields(EngineConfig)]
        assert repr(doc["hysteresis_margin"]) == "0.0"
        assert load_config(path) == cfg
        assert load_config(path).config_hash() == cfg.config_hash()

    def test_flat_breakpoints_shorthand(self):
        cfg = config_from_dict({"breakpoints": [0.0, 1.0]})
        assert cfg.breakpoints.channels == ((0.0, 1.0),)

    def test_alphabet_sizes(self):
        cfg = config_from_dict({"alphabet_sizes": [4, 4]})
        assert cfg.breakpoints.alphabet_sizes == (4, 4)
        assert cfg.breakpoints.channels[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_breakpoints_take_precedence(self):
        cfg = config_from_dict({"breakpoints": [0.0], "alphabet_sizes": [5]})
        assert cfg.breakpoints.alphabet_sizes == (2,)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"breakpoints": []},
            {"breakpoints": "0.5"},
            {"breakpoints": [[1.0, 0.5]]},
            {"alphabet_sizes": []},
            {"alphabet_sizes": [1]},
            # Alphabet sizes are JSON integers: no truncation, no coercion.
            {"alphabet_sizes": [4.9, 4]},
            {"alphabet_sizes": ["4", 4]},
            {"alphabet_sizes": [4.0]},
            {"alphabet_sizes": [True, 4]},
            {"breakpoints": [0.0], "log_base": 1},
            {"alphabet_sizes": [4194304, 4194304, 4194304]},
            # Breakpoints are JSON numbers: strings and bools are not coerced.
            {"breakpoints": [["-0.5", "0.5"]]},
            {"breakpoints": [[False, True]]},
            {"breakpoints": ["-0.5", "0.5"]},
            {"breakpoints": [False, True]},
            {"breakpoints": [10**400]},
            {"breakpoints": [0.0], "hysteresis_margin": 10**400},
            # The checks load_config makes hold for a dict as well.
            {"breakpoints": [0.0], "relevance_treshold": 1},
            ["a", "list"],
        ],
    )
    def test_bad_documents(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"breakpoints": [0.0], "thresold": 5}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text('["a", "list"]')
        with pytest.raises(ConfigError):
            load_config(str(path))


def tree_bytes(root):
    """Every entry under `root`: a file's bytes, or None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def leftovers(root):
    """Renamed-aside run directories and temporary files anywhere under `root`."""
    return [p for p in root.rglob("*") if p.suffix in (".old", ".tmp")]


@pytest.fixture()
def workdir(tmp_path):
    cfg = {
        "breakpoints": [[-0.5, 0.5], [-0.5, 0.5]],
        "log_base": 10,
        "relevance_threshold": 5,
        "hysteresis_margin": 0.05,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path


class TestCli:
    def gen(self, workdir, name="syn.csv", *extra):
        out = workdir / name
        rc = cli.main(["gen", "--out", str(out), "--seed", "3", *extra])
        assert rc == 0
        return out

    def test_gen_is_deterministic(self, workdir):
        a = self.gen(workdir, "a.csv")
        b = self.gen(workdir, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags, fields",
        [
            ([], {}),
            (["--patterns=2"], {"n_patterns": 2}),
            (["--bursts-per-pattern=3"], {"bursts_per_pattern": 3}),
            (["--noise-sigma=0.1"], {"noise_sigma": 0.1}),
            (["--burst-len=100"], {"burst_len": 100}),
            (["--gap-len=300"], {"gap_len": 300}),
            (["--cluster-size=5"], {"cluster_size": 5}),
            (
                ["--cluster-size=5", "--cluster-gap-len=1000"],
                {"cluster_size": 5, "cluster_gap_len": 1000},
            ),
        ],
    )
    def test_gen_defaults_come_from_synthetic_spec(self, workdir, flags, fields):
        got = self.gen(workdir, "gen.csv", *flags)
        write_series(str(workdir / "lib.csv"), *generate_synthetic(3, **fields))
        assert got.read_bytes() == (workdir / "lib.csv").read_bytes()

    def test_discover_outputs(self, workdir, capsys):
        data = self.gen(workdir)
        out = workdir / "run"
        rc = cli.main(
            ["discover", str(data), "--config", str(workdir / "config.json"), "--out", str(out)]
        )
        assert rc == 0
        for name in ("segments.csv", "stats.json", "forest.json", "forest.dot"):
            assert (out / name).exists()
        stats = json.loads((out / "stats.json").read_text())
        segments = read_segments(str(out))
        assert len(segments) == stats["recorded_db_count"] == 20
        assert stats["detected_db_count"] == 40
        assert {s.stream_id for s in segments} == {"syn.csv"}
        doc = json.loads((out / "forest.json").read_text())
        forest = forest_restore(doc)
        assert len(forest.terminal_paths()) == 4
        assert "behaviors detected" in capsys.readouterr().out

    def test_discover_continues_from_snapshot(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        run1 = workdir / "run1"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(run1)]) == 0
        run2 = workdir / "run2"
        rc = cli.main(
            [
                "discover",
                str(data),
                "--config",
                cfg,
                "--out",
                str(run2),
                "--snapshot",
                str(run1 / "forest.json"),
            ]
        )
        assert rc == 0
        stats = json.loads((run2 / "stats.json").read_text())
        # Every path is already at the threshold after the first pass.
        assert stats["recorded_db_count"] == 0
        forest = forest_restore(json.loads((run2 / "forest.json").read_text()))
        assert forest.total_insertions == 80

    def test_discover_continues_from_the_snapshot_in_its_own_out(self, workdir):
        # The snapshot is read before the rerun removes the run files it belongs to.
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        snapshot = ["--snapshot", str(out / "forest.json")]
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out), *snapshot]) == 0
        forest = forest_restore(json.loads((out / "forest.json").read_text()))
        assert forest.total_insertions == 80

    def test_replay_outputs(self, workdir):
        data = self.gen(workdir)
        out = workdir / "rp"
        rc = cli.main(
            [
                "replay",
                str(data),
                "--config",
                str(workdir / "config.json"),
                "--out",
                str(out),
                "--runs",
                "3",
            ]
        )
        assert rc == 0
        lines = (out / "replay.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("run,")
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[2] == "20" and second[2] == "0"

    def test_features_and_variance(self, workdir):
        data = self.gen(workdir)
        out = workdir / "run"
        cfg = str(workdir / "config.json")
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["features", "--segments", str(out)]) == 0
        lines = (out / "features.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + one row per distinct path
        assert lines[0].split(",")[:3] == ["path_id", "occurrences", "n_segments"]
        assert all(row.split(",")[1] == "10" for row in lines[1:])

        assert cli.main(["variance", "--segments", str(out), "--input", str(data)]) == 0
        assert (out / "variance_long.csv").exists()
        summary = (out / "variance_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        assert summary[1].startswith("db,20,")
        assert summary[2].startswith("window,")

    @pytest.mark.parametrize("width", [1, 3])
    def test_variance_refuses_series_of_other_channel_count(self, workdir, capsys, width):
        data = self.gen(workdir)  # two channels
        out = workdir / "run"
        cfg = str(workdir / "config.json")
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        t, values, _ = read_series(str(data))
        other = workdir / "other.csv"
        write_series(str(other), t, np.resize(values, (len(t), width)))
        rc = cli.main(["variance", "--segments", str(out), "--input", str(other)])
        assert rc == 3
        assert "channels" in capsys.readouterr().err
        assert not (out / "variance_long.csv").exists()
        assert not (out / "variance_summary.csv").exists()

    def test_dot_to_stdout(self, workdir, capsys):
        data = self.gen(workdir)
        out = workdir / "run"
        cfg = str(workdir / "config.json")
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["dot", "--snapshot", str(out / "forest.json")]) == 0
        text = capsys.readouterr().out
        assert text.startswith("digraph behavior_forest {")
        assert text.rstrip().endswith("}")

    def test_exit_code_2_for_bad_config(self, workdir, capsys):
        data = self.gen(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"breakpoints": [0.0], "mystery": 1}))
        rc = cli.main(["discover", str(data), "--config", str(bad), "--out", str(workdir / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_exit_code_2_for_breakpoint_gap_past_float_max(self, workdir, capsys):
        data = self.gen(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"breakpoints": [[-1e308, 1e308], [-0.5, 0.5]]}))
        out = workdir / "x"
        rc = cli.main(["discover", str(data), "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: channel 0: breakpoints must ascend by finite gaps\n"
        assert not out.exists()

    def test_exit_code_2_for_hysteresis_thresholds_past_float_max(self, workdir, capsys):
        # The gaps are finite, but bp[-1] + 0.49 * 1.7e308 is not.
        data = self.gen(workdir)
        bad = workdir / "bad.json"
        doc = {"breakpoints": [[0.0, 1.7e308], [-0.5, 0.5]], "hysteresis_margin": 0.49}
        bad.write_text(json.dumps(doc))
        out = workdir / "x"
        rc = cli.main(["discover", str(data), "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: channel 0: hysteresis thresholds overflow a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes", [[4.9, 4], ["4", 4], [4.0, 4]])
    def test_exit_code_2_for_non_integer_alphabet_size(self, workdir, capsys, sizes):
        data = self.gen(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"alphabet_sizes": sizes}))
        rc = cli.main(["discover", str(data), "--config", str(bad), "--out", str(workdir / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["discover", "replay"])
    def test_exit_code_2_for_deeply_nested_config(self, workdir, capsys, command):
        data = self.gen(workdir)
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000)
        out = workdir / "x"
        rc = cli.main([command, str(data), "--config", str(deep), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_features_reads_snapshot_before_segments(self, workdir, capsys):
        # workdir holds no segments.csv: the bad snapshot is the error reported.
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["features", "--segments", str(workdir), "--snapshot", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exit_code_2_for_boolean_count_in_config(self, workdir, capsys):
        data = self.gen(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"breakpoints": [0.0, 0.5], "relevance_threshold": True}))
        rc = cli.main(["discover", str(data), "--config", str(bad), "--out", str(workdir / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("discover", "--buffer-capacity"), ("replay", "--buffer-capacity"), ("replay", "--runs")],
    )
    def test_exit_code_2_for_bad_count(self, workdir, capsys, command, flag):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "x"
        rc = cli.main([command, str(data), "--config", cfg, "--out", str(out), flag, "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_code_2_for_forest_too_deep_for_snapshot(self, workdir, capsys):
        # Noise straddling a breakpoint never reaches a plateau, so the whole
        # tail becomes one behavior whose path is too deep for snapshot v1.
        rng = np.random.default_rng(0)
        values = np.concatenate([np.zeros((1000, 2)), rng.normal(0.5, 0.3, (2000, 2))])
        data = workdir / "deep.csv"
        write_series(str(data), np.arange(len(values), dtype=float), values)
        cfg = workdir / "deep.json"
        cfg.write_text(json.dumps({"breakpoints": [[-0.5, 0.5], [-0.5, 0.5]]}))
        out = workdir / "x"
        rc = cli.main(["discover", str(data), "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "too deep for the v1 snapshot format" in capsys.readouterr().err
        assert not out.exists()
        # Into the directory of an earlier run, the refused run changes no file.
        syn = self.gen(workdir)
        run = workdir / "run"
        assert cli.main(["discover", str(syn), "--config", str(cfg), "--out", str(run)]) == 0
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        rc = cli.main(["discover", str(data), "--config", str(cfg), "--out", str(run)])
        assert rc == 2
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_rerun_leaves_only_the_listed_segment_files(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        first = len(list((out / "segments").iterdir()))
        rerun = ["discover", str(data), "--config", cfg, "--out", str(out), "--threshold", "1"]
        assert cli.main(rerun) == 0
        listed = {f"segment_{s.segment_id:05d}.csv" for s in read_segments(str(out))}
        assert {p.name for p in (out / "segments").iterdir()} == listed
        assert len(listed) < first

    @pytest.mark.parametrize(
        "command, failing",
        [(command, name) for command in ("discover", "replay")
         for name in ("stats.json", "forest.json", "forest.dot")]
        + [("discover", "segment_00000.csv"), ("discover", "segments.csv"),
           ("replay", "replay.csv")],
    )
    def test_failed_rerun_leaves_the_previous_run_whole(
        self, workdir, monkeypatch, command, failing
    ):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        before = tree_bytes(out)

        def failing_at(opener):
            def failing_opener(path):
                if os.path.basename(path) == failing:
                    raise OSError("disk full")
                return opener(path)
            return failing_opener

        # Segment files are created in place, every other file by replacement.
        monkeypatch.setattr(bfio, "_replacing", failing_at(bfio._replacing))
        monkeypatch.setattr(bfio, "_create", failing_at(bfio._create))
        rerun = [command, str(data), "--config", cfg, "--out", str(out), "--threshold", "1"]
        assert cli.main(rerun) == 3
        monkeypatch.undo()
        assert tree_bytes(out) == before
        assert leftovers(workdir) == []
        assert cli.main(["features", "--segments", str(out)]) == 0

    def test_replay_into_a_discover_directory_removes_its_segments(self, workdir, capsys):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        replay_argv = ["replay", str(data), "--config", cfg, "--out", str(out), "--runs", "3"]
        assert cli.main(replay_argv) == 0
        assert not (out / "segments.csv").exists()
        assert not (out / "segments").exists()
        # With no manifest, features cannot mix replay's forest with discover's segments.
        assert cli.main(["features", "--segments", str(out)]) == 3
        assert "segments.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, foreign",
        [("notes.txt", "notes.txt"), ("segments/notes.txt", "segments/notes.txt"),
         # A directory under a run file's name is no run file either.
         ("replay.csv/notes.txt", "replay.csv")],
        ids=["top", "segments", "run-file-name"],
    )
    @pytest.mark.parametrize("command", ["discover", "replay"])
    def test_out_holding_a_foreign_entry_is_refused(
        self, workdir, capsys, command, entry, foreign
    ):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        (out / entry).parent.mkdir(exist_ok=True)
        (out / entry).write_text("keep me\n")
        before = tree_bytes(out)
        capsys.readouterr()
        assert cli.main([command, str(data), "--config", cfg, "--out", str(out)]) == 3
        assert f"{out / foreign}:" in capsys.readouterr().err
        assert tree_bytes(out) == before
        assert leftovers(workdir) == []

    def test_out_that_is_a_file_is_refused(self, workdir):
        data = self.gen(workdir)
        out = workdir / "run"
        out.write_text("not a directory\n")
        argv = ["discover", str(data), "--config", str(workdir / "config.json"), "--out", str(out)]
        assert cli.main(argv) == 3
        assert out.read_text() == "not a directory\n"
        assert leftovers(workdir) == []

    def test_out_with_a_trailing_separator(self, workdir):
        data = self.gen(workdir)
        out = workdir / "run"
        argv = ["discover", str(data), "--config", str(workdir / "config.json"),
                "--out", str(out) + os.sep]
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--threshold", "1"]) == 0
        listed = {f"segment_{s.segment_id:05d}.csv" for s in read_segments(str(out))}
        assert {p.name for p in (out / "segments").iterdir()} == listed
        assert sorted(p.name for p in workdir.iterdir() if p.is_dir()) == ["run"]

    @pytest.mark.parametrize("command", ["discover", "replay"])
    @pytest.mark.parametrize("cwd, flag", [("", "."), ("segments", "..")], ids=["out", "segments"])
    def test_working_directory_inside_out(self, workdir, monkeypatch, command, cwd, flag):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        monkeypatch.chdir(out / cwd)
        assert cli.main([command, str(data), "--config", cfg, "--out", flag]) == 0
        monkeypatch.chdir(workdir)  # the old working directory was removed with the old run
        assert {"stats.json", "forest.json", "forest.dot"} <= {p.name for p in out.iterdir()}
        if command == "discover":
            listed = {f"segment_{s.segment_id:05d}.csv" for s in read_segments(str(out))}
            assert listed and {p.name for p in (out / "segments").iterdir()} == listed
        else:
            assert (out / "replay.csv").is_file() and not (out / "segments").exists()
        assert leftovers(workdir) == []

    def test_symlinked_out_keeps_its_link_and_replaces_its_target(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        target, link = workdir / "target", workdir / "link"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(target)]) == 0
        first = tree_bytes(target)
        link.symlink_to(target)
        rerun = ["discover", str(data), "--config", cfg, "--out", str(link), "--threshold", "1"]
        assert cli.main(rerun) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert tree_bytes(target) != first
        listed = {f"segment_{s.segment_id:05d}.csv" for s in read_segments(str(target))}
        assert {p.name for p in (target / "segments").iterdir()} == listed
        assert leftovers(workdir) == []

    def test_replay_removes_features_and_variance_tables(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["features", "--segments", str(out)]) == 0
        assert cli.main(["variance", "--segments", str(out), "--input", str(data)]) == 0
        tables = ("features.csv", "variance_long.csv", "variance_summary.csv")
        assert all((out / name).exists() for name in tables)
        replay_argv = ["replay", str(data), "--config", cfg, "--out", str(out), "--runs", "3"]
        assert cli.main(replay_argv) == 0
        assert not any((out / name).exists() for name in tables)

    def test_discover_into_a_replay_directory_removes_its_table(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run"
        assert cli.main(["replay", str(data), "--config", cfg, "--out", str(out)]) == 0
        assert (out / "replay.csv").exists()
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "replay.csv").exists()
        listed = {f"segment_{s.segment_id:05d}.csv" for s in read_segments(str(out))}
        assert {p.name for p in (out / "segments").iterdir()} == listed

    @pytest.mark.parametrize("kind", ["deep", "not_json"])
    def test_exit_code_2_for_unreadable_snapshot(self, workdir, capsys, kind):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        run = workdir / "run"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(run)]) == 0
        bad = workdir / "bad.json"
        if kind == "deep":
            # A 3,000-level chain in the v1 layout, written without recursing.
            depth = 3000
            node = '{"symbol": %d, "terminal_count": %d, "children": ['
            text = "".join(node % (i % 2, 0) + '{"edge_weight": 1, "node": ' for i in range(depth))
            text += node % (depth % 2, 1) + "]}" + "}]}" * depth
            bad.write_text(
                '{"version": 1, "config_hash": "x", "total_insertions": 1, '
                '"roots": [{"symbol": 0, "node": %s}]}' % text
            )
        else:
            bad.write_text("{not json")
        capsys.readouterr()
        for argv in (
            ["discover", str(data), "--config", cfg, "--out", str(workdir / "x"),
             "--snapshot", str(bad)],
            ["dot", "--snapshot", str(bad)],
            ["features", "--segments", str(run), "--snapshot", str(bad)],
        ):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: ")

    def test_exit_code_2_for_snapshot_config_mismatch(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        run1 = workdir / "run1"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(run1)]) == 0
        rc = cli.main(
            [
                "discover",
                str(data),
                "--config",
                cfg,
                "--threshold",
                "9",
                "--out",
                str(workdir / "x"),
                "--snapshot",
                str(run1 / "forest.json"),
            ]
        )
        assert rc == 2

    def test_exit_code_3_for_missing_input(self, workdir):
        rc = cli.main(
            [
                "discover",
                str(workdir / "nope.csv"),
                "--config",
                str(workdir / "config.json"),
                "--out",
                str(workdir / "x"),
            ]
        )
        assert rc == 3

    def test_gen_refuses_a_negative_seed(self, workdir, capsys):
        out = workdir / "neg.csv"
        assert cli.main(["gen", "--out", str(out), "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_exit_code_3_for_nan_data(self, workdir):
        data = workdir / "bad.csv"
        data.write_text("t,ch1,ch2\n0.0,0.1,0.1\n1.0,nan,0.2\n")
        rc = cli.main(
            [
                "discover",
                str(data),
                "--config",
                str(workdir / "config.json"),
                "--out",
                str(workdir / "x"),
            ]
        )
        assert rc == 3

    def test_nan_error_names_its_stream(self, workdir, capsys):
        good = self.gen(workdir, "a.csv")
        t, values, _ = read_series(str(good))
        values[30, 1] = np.nan
        bad = workdir / "b.csv"
        write_series(str(bad), t, values)
        cfg = str(workdir / "config.json")
        rc = cli.main(["discover", str(good), str(bad), "--config", cfg, "--out", str(workdir / "x")])
        assert rc == 3
        assert capsys.readouterr().err == "error: stream 'b.csv': NaN sample at index 30\n"

    def test_variance_of_a_run_with_no_segments(self, workdir, capsys):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        run1, run2 = workdir / "run1", workdir / "run2"
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(run1)]) == 0
        snapshot = ["--snapshot", str(run1 / "forest.json")]
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(run2), *snapshot]) == 0
        assert read_segments(str(run2)) == []
        assert cli.main(["variance", "--segments", str(run2), "--input", str(data)]) == 3
        assert capsys.readouterr().err.startswith("error: need at least one segment")
        assert not (run2 / "variance_long.csv").exists()

    def test_exit_code_3_for_repeated_input_name(self, workdir, capsys):
        # Basenames are the stream ids, so these two files would merge into one stream.
        (workdir / "a").mkdir()
        (workdir / "b").mkdir()
        first = self.gen(workdir, "a/s.csv")
        second = self.gen(workdir, "b/s.csv", "--seed", "1")
        out = workdir / "x"
        cfg = str(workdir / "config.json")
        rc = cli.main(["discover", str(first), str(second), "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "'s.csv'" in capsys.readouterr().err
        assert not out.exists()

    def test_inputs_must_share_channel_names(self, workdir, capsys):
        data = self.gen(workdir)
        renamed = workdir / "renamed.csv"
        renamed.write_bytes(data.read_bytes().replace(b"t,ch1,ch2", b"t,left,right", 1))
        cfg = str(workdir / "config.json")
        for command in ("discover", "replay"):
            out = workdir / command
            rc = cli.main([command, str(data), str(renamed), "--config", cfg, "--out", str(out)])
            assert rc == 3
            err = capsys.readouterr().err
            assert str(data) in err and str(renamed) in err
            assert not out.exists()
        copy = workdir / "copy.csv"
        copy.write_bytes(data.read_bytes())
        out = workdir / "ok"
        assert cli.main(["discover", str(data), str(copy), "--config", cfg, "--out", str(out)]) == 0
        assert read_series(str(out / "segments" / "segment_00000.csv"))[2] == ["ch1", "ch2"]

    @staticmethod
    def overflow_warnings(segments, capacity, run=""):
        """The warning lines for the unbounded run's segments longer than `capacity`."""
        return [
            f"warning: {run}stream {s.stream_id!r}: span [{s.raw_span[0]}, {s.raw_span[1]}) "
            f"reaches {s.raw_span[1] - capacity - s.raw_span[0]} samples behind the look-back "
            f"buffer (capacity {capacity}); not recorded"
            for s in segments
            if s.raw_span[1] - s.raw_span[0] > capacity
        ]

    def test_overflow_warns_and_exits_0(self, workdir, capsys):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        assert cli.main(["discover", str(data), "--config", cfg, "--out", str(workdir / "o")]) == 0
        capsys.readouterr()
        out = workdir / "x"
        argv = ["discover", str(data), "--config", cfg, "--out", str(out), "--buffer-capacity", "50"]
        assert cli.main(argv) == 0
        unbounded = read_segments(str(workdir / "o"))
        warnings = self.overflow_warnings(unbounded, 50)
        assert warnings
        assert capsys.readouterr().err.splitlines() == warnings
        kept = [s for s in unbounded if s.raw_span[1] - s.raw_span[0] <= 50]
        segments = read_segments(str(out))
        assert [s.segment_id for s in segments] == list(range(len(kept)))
        assert [(s.stream_id, s.raw_span, s.path, s.reason) for s in segments] == [
            (s.stream_id, s.raw_span, s.path, s.reason) for s in kept
        ]
        assert (out / "forest.json").read_bytes() == (workdir / "o" / "forest.json").read_bytes()

    def test_replay_with_buffer_capacity(self, workdir, capsys):
        data = self.gen(workdir, "syn.csv", "--bursts-per-pattern", "1")
        cfg = str(workdir / "config.json")
        argv = ["replay", str(data), "--config", cfg, "--runs", "3", "--out"]
        assert cli.main([*argv, str(workdir / "r")]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main([*argv, str(workdir / "b"), "--buffer-capacity", "50"]) == 0
        _, results = replay(load_config(cfg), [("syn.csv", *read_series(str(data))[:2])], runs=3)
        warnings = [
            line
            for result in results
            for line in self.overflow_warnings(
                result.segments, 50, f"run {result.stats.run_index}: "
            )
        ]
        # Each pattern occurs once per run, under the threshold of 5 in all 3 runs.
        assert {line.split(":")[1] for line in warnings} == {" run 1", " run 2", " run 3"}
        assert capsys.readouterr().err.splitlines() == warnings
        assert (workdir / "b" / "forest.json").read_bytes() == (
            workdir / "r" / "forest.json"
        ).read_bytes()

    def test_threshold_override_changes_behavior(self, workdir):
        data = self.gen(workdir)
        cfg = str(workdir / "config.json")
        out = workdir / "run_t2"
        rc = cli.main(
            ["discover", str(data), "--config", cfg, "--threshold", "2", "--out", str(out)]
        )
        assert rc == 0
        stats = json.loads((out / "stats.json").read_text())
        # Two recordings per path (novel + one under-threshold repeat).
        assert stats["recorded_db_count"] == 8


# Any JSON value a config field might hold, of the right type or not.
_ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 9), st.floats(-3, 3), st.text(max_size=1)), max_size=3),
    st.lists(st.lists(st.floats(-3, 3), max_size=3), max_size=3),
)


@st.composite
def _discover_case(draw):
    """A finite series, a config document that may be wrong, and a buffer capacity."""
    d = draw(st.integers(1, 3))
    finite = st.one_of(st.floats(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(hnp.arrays(np.float64, (draw(st.integers(0, 60)), d), elements=finite))
    if draw(st.booleans()):
        channel = st.lists(st.floats(-3, 3), min_size=1, max_size=4).map(lambda b: sorted(set(b)))
        config = {"breakpoints": draw(st.lists(channel, min_size=d, max_size=d))}
    else:
        config = {"alphabet_sizes": draw(st.lists(st.integers(2, 9), min_size=d, max_size=d))}
    scalars = {
        "log_base": st.integers(2, 12),
        "relevance_threshold": st.integers(1, 6),
        "hysteresis_margin": st.floats(0, 0.49),
        "termination_run": st.integers(2, 5),
        "initiation_context": st.integers(1, 4),
    }
    config.update(draw(st.fixed_dictionaries({}, optional=scalars)))
    keys = ["breakpoints", "alphabet_sizes", *scalars]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        config[key] = draw(_ANY_JSON)
    return values, config, draw(st.none() | st.integers(-1, 50))


@given(case=_discover_case())
@settings(max_examples=250, deadline=None)
def test_discover_never_raises(case):
    """Any finite CSV and any config document end in a documented exit code."""
    values, config, capacity = case
    with tempfile.TemporaryDirectory() as tmp:
        data, cfg, out = (os.path.join(tmp, name) for name in ("s.csv", "c.json", "out"))
        write_series(data, np.arange(len(values), dtype=float), values)
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = ["discover", data, "--config", cfg, "--out", out]
        if capacity is not None:
            argv += ["--buffer-capacity", str(capacity)]
        rc = cli.main(argv)
        event(f"exit {rc}")
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO)
        if rc == cli.EXIT_OK:
            assert {"segments.csv", "stats.json", "forest.json", "forest.dot"} <= set(os.listdir(out))



# Valid values for every gen flag; each case then overrides up to two flags
# with small ints from -2 up, or for the noise level any float, nan and inf.
_GEN_FLAGS = {
    "--seed": st.integers(0, 3),
    "--patterns": st.integers(1, 4),
    "--bursts-per-pattern": st.integers(0, 3),
    "--noise-sigma": st.floats(0, 0.2),
    "--burst-len": st.integers(20, 40),
    "--gap-len": st.integers(1, 10),
    "--cluster-size": st.integers(1, 3),
    "--cluster-gap-len": st.integers(1, 10),
}


@st.composite
def _gen_flags(draw):
    optional = {"--cluster-size": _GEN_FLAGS["--cluster-size"]}
    required = {k: v for k, v in _GEN_FLAGS.items() if k not in optional}
    flags = draw(st.fixed_dictionaries(required, optional=optional))
    for flag in draw(st.lists(st.sampled_from(sorted(_GEN_FLAGS)), max_size=2, unique=True)):
        if flag == "--noise-sigma":
            flags[flag] = draw(st.floats(allow_nan=True, allow_infinity=True))
        else:
            flags[flag] = draw(st.integers(-2, 3))
    return flags


@given(flags=_gen_flags())
@settings(max_examples=150, deadline=None)
def test_gen_exits_0_or_3(flags):
    """Any gen flags either write a stream or exit 3 without writing one."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "s.csv")
        rc = cli.main(["gen", "--out", out, *(f"{flag}={value}" for flag, value in flags.items())])
        event(f"exit {rc}")
        assert rc in (cli.EXIT_OK, cli.EXIT_IO)
        assert os.path.exists(out) == (rc == cli.EXIT_OK)
