"""Recording decisions, the look-back buffer, and run statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ListSampleBuffer

from behaviorforest.core import BreakpointSpec, ConfigError, EngineConfig
from behaviorforest.forest import (
    TERMINATED_BY_PLATEAU,
    BehaviorForest,
    DiscoveredBehavior,
    InsertionReceipt,
)
from behaviorforest.selection import (
    RECORD_NOVEL,
    RECORD_UNDER_THRESHOLD,
    RecordedSegment,
    RunStats,
    SampleBuffer,
    cumulative_fractions,
    decide,
    materialize,
    merge_spans,
    union_length,
)


def receipt(created=False, prior=0):
    return InsertionReceipt(created_new_node=created, prior_terminal_count=prior)


class TestDecide:
    def test_novel_always_recorded(self):
        assert decide(receipt(created=True, prior=0), 5) == RECORD_NOVEL

    def test_under_threshold_recorded(self):
        for prior in range(5):
            assert decide(receipt(prior=prior), 5) == RECORD_UNDER_THRESHOLD

    def test_at_threshold_discarded(self):
        assert decide(receipt(prior=5), 5) is None
        assert decide(receipt(prior=6), 5) is None

    def test_occurrence_sequence_against_live_forest(self):
        # Ten repeats of one path: recorded five times (1 novel + 4 under),
        # discarded from the fifth repeat on.
        forest = BehaviorForest()
        reasons = []
        for _ in range(10):
            r = forest.insert((4, 6, 4))
            reasons.append(decide(r, 5))
        assert reasons == [
            RECORD_NOVEL,
            RECORD_UNDER_THRESHOLD,
            RECORD_UNDER_THRESHOLD,
            RECORD_UNDER_THRESHOLD,
            RECORD_UNDER_THRESHOLD,
            None,
            None,
            None,
            None,
            None,
        ]

    def test_rejects_bad_threshold(self):
        # The threshold comes from the config, which admits only integers >= 1.
        with pytest.raises(ConfigError):
            EngineConfig(BreakpointSpec(((0.0,),)), relevance_threshold=0)


class TestSampleBuffer:
    def fill(self, buf, n, start_t=0.0):
        t = np.arange(n, dtype=float) + start_t
        buf.extend(t, np.stack([t, -t], axis=1))
        return t

    def test_unbounded_keeps_everything(self):
        buf = SampleBuffer()
        self.fill(buf, 1000)
        assert len(buf) == 1000
        t, values = buf.extract((0, 1000))
        assert len(t) == 1000
        assert values.shape == (1000, 2)

    def test_extract_is_exact(self):
        buf = SampleBuffer()
        self.fill(buf, 50)
        t, values = buf.extract((10, 13))
        assert t.tolist() == [10.0, 11.0, 12.0]
        assert values[:, 0].tolist() == [10.0, 11.0, 12.0]
        assert values[:, 1].tolist() == [-10.0, -11.0, -12.0]

    def test_span_past_the_end_rejected(self):
        buf = SampleBuffer()
        self.fill(buf, 5)
        with pytest.raises(ValueError):
            buf.extract((0, 6))
        with pytest.raises(ValueError):
            buf.extract((3, 3))

    def test_rejects_misaligned_chunk(self):
        buf = SampleBuffer()
        with pytest.raises(ValueError):
            buf.extend(np.arange(3.0), np.zeros((2, 1)))
        assert len(buf) == 0

    @pytest.mark.parametrize("span", [(2, 6), (0, 10), (4, 14)], ids=["inner", "whole", "across"])
    def test_extract_shares_no_memory_with_chunks(self, span):
        chunks = [np.arange(10.0), np.arange(10.0, 20.0)]
        values = [np.stack([t, -t], axis=1) for t in chunks]
        buf = SampleBuffer()
        for t, v in zip(chunks, values):
            buf.extend(t, v)
        seg_t, seg_values = buf.extract(span)
        assert seg_t.tolist() == list(map(float, range(*span)))
        for t, v in zip(chunks, values):
            assert not np.shares_memory(seg_t, t)
            assert not np.shares_memory(seg_values, v)

    def test_extracted_arrays_survive_writes(self):
        buf = SampleBuffer()
        t = np.arange(10, dtype=float)
        values = np.stack([t, -t], axis=1)
        buf.extend(t, values)
        seg_t, seg_values = buf.extract((2, 6))
        t[:] = 99.0
        values[:] = 99.0
        assert seg_t.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert seg_values[:, 1].tolist() == [-2.0, -3.0, -4.0, -5.0]
        seg_t[:] = -1.0
        seg_values[:] = -1.0
        assert t.tolist() == [99.0] * 10
        assert values.tolist() == [[99.0, 99.0]] * 10

    @staticmethod
    def outcome(buf, span):
        try:
            return buf.extract(span)
        except ValueError as exc:
            return type(exc)

    @given(
        chunks=st.lists(st.integers(0, 40), max_size=10),
        n_channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_list_oracle(self, chunks, n_channels, seed, data):
        rng = np.random.default_rng(seed)
        n = sum(chunks)
        t = rng.standard_normal(n)
        values = rng.standard_normal((n, n_channels))
        values[rng.random(values.shape) < 0.05] = -0.0
        buf, oracle = SampleBuffer(), ListSampleBuffer()
        lo = 0
        for size in chunks:
            buf.extend(t[lo : lo + size], values[lo : lo + size])
            oracle.extend(t[lo : lo + size], values[lo : lo + size])
            lo += size
            assert len(buf) == len(oracle)
            index = st.integers(-3, len(oracle) + 3)
            for span in data.draw(st.lists(st.tuples(index, index), max_size=6)):
                got, want = self.outcome(buf, span), self.outcome(oracle, span)
                if isinstance(want, type):
                    assert got is want
                else:
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.shape == w.shape
                        assert g.tobytes() == w.tobytes()


class TestMaterialize:
    def behavior(self, span=(2, 6)):
        return DiscoveredBehavior((1, 2, 1), span, TERMINATED_BY_PLATEAU)

    def test_recorded_segment_carries_raw_samples(self):
        buf = SampleBuffer()
        t = np.arange(10, dtype=float) * 0.5
        buf.extend(t, np.stack([t, t + 1], axis=1))
        forest = BehaviorForest()
        r = forest.insert((1, 2, 1))
        seg = materialize(
            self.behavior(), decide(r, 5), r, buf, "s1", segment_id=7
        )
        assert seg.segment_id == 7
        assert seg.stream_id == "s1"
        assert seg.raw_span == (2, 6)
        assert seg.start_t == 1.0 and seg.end_t == 2.5
        assert seg.path == (1, 2, 1)
        assert seg.path_id == "1-2-1"
        assert seg.reason == RECORD_NOVEL
        assert seg.occurrence_index == 1
        assert seg.t.tolist() == [1.0, 1.5, 2.0, 2.5]
        assert seg.values.shape == (4, 2)

    def test_occurrence_index_counts_from_one(self):
        buf = SampleBuffer()
        buf.extend(np.arange(10.0), np.zeros((10, 1)))
        forest = BehaviorForest()
        indices = []
        for i in range(5):
            r = forest.insert((1, 2, 1))
            seg = materialize(
                self.behavior(), decide(r, 5), r, buf, "s1", i
            )
            indices.append(seg.occurrence_index)
        assert indices == [1, 2, 3, 4, 5]


class TestSpanUnion:
    def test_merge_overlapping(self):
        assert merge_spans([(0, 5), (3, 8), (10, 12)]) == [(0, 8), (10, 12)]

    def test_adjacent_spans_fuse(self):
        assert merge_spans([(0, 5), (5, 9)]) == [(0, 9)]

    def test_unsorted_input(self):
        assert merge_spans([(10, 12), (0, 5), (4, 6)]) == [(0, 6), (10, 12)]

    def test_union_length(self):
        assert union_length([(0, 5), (3, 8), (10, 12)]) == 10
        assert union_length([]) == 0

    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 60)).map(
                lambda p: (p[0], p[0] + p[1])
            ),
            max_size=30,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_union_matches_set_oracle(self, spans):
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        assert union_length(spans) == len(covered)
        merged = merge_spans(spans)
        # Merged spans are sorted, disjoint, and cover the same set.
        assert all(e > s for s, e in merged)
        assert all(b_s > a_e for (a_s, a_e), (b_s, b_e) in zip(merged, merged[1:]))
        re_covered = set()
        for s, e in merged:
            re_covered.update(range(s, e))
        assert re_covered == covered


class TestRunStats:
    def segment(self, path, span, stream_id="a"):
        return RecordedSegment(
            segment_id=0,
            stream_id=stream_id,
            raw_span=span,
            path=tuple(path),
            reason=RECORD_NOVEL,
            occurrence_index=1,
            t=np.empty(0),
            values=np.empty((0, 1)),
        )

    def test_counts_and_dedup(self):
        segments = [
            self.segment((1, 2), (0, 500)),
            self.segment((2, 1), (400, 600)),
            self.segment((1, 2), (0, 97), stream_id="b"),
        ]
        # A fourth behavior, (1, 2) at [700, 800) on stream a, was discarded.
        stats = RunStats.of(1, segments, detected=4, total_samples=5000 + 2841)
        assert stats.run_index == 1
        assert stats.detected_db_count == 3 + 1
        assert stats.recorded_db_count == 3
        assert stats.distinct_recorded_paths == 2
        # Stream a: [0,600) from two overlapping spans; stream b: 97 more.
        assert stats.recorded_sample_count == 600 + 97
        assert stats.total_sample_count == 7841
        assert stats.recording_fraction == pytest.approx(697 / 7841)
        assert f"{100 * stats.recording_fraction:.2f}" == "8.89"

    def test_same_span_different_streams_not_merged(self):
        segments = [self.segment((1, 2), (0, 100), s) for s in ("a", "b")]
        assert RunStats.of(0, segments, detected=2, total_samples=200).recorded_sample_count == 200

    def test_zero_total_gives_zero_fraction(self):
        stats = RunStats.of(0, [], detected=0, total_samples=0)
        assert stats.recording_fraction == 0.0

    def test_cumulative_fractions(self):
        def run(i, rec, tot):
            return RunStats(i, 0, 0, 0, rec, tot)

        runs = [run(1, 500, 1000), run(2, 0, 1000), run(3, 100, 1000)]
        assert cumulative_fractions(runs) == [0.5, 0.25, 0.2]
