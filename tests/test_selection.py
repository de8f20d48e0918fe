"""Recording decisions, the look-back buffer, and run statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ListSampleBuffer

from behaviorforest.core import BreakpointSpec, BufferOverflowError, ConfigError, EngineConfig
from behaviorforest.forest import (
    TERMINATED_BY_PLATEAU,
    BehaviorForest,
    DiscoveredBehavior,
    InsertionReceipt,
)
from behaviorforest.selection import (
    RECORD_NOVEL,
    RECORD_UNDER_THRESHOLD,
    RunStatsAccumulator,
    SampleBuffer,
    decide,
    materialize,
    merge_spans,
    union_length,
)


def receipt(created=False, prior=0):
    return InsertionReceipt(created_new_node=created, prior_terminal_count=prior, path_id="1-2")


class TestDecide:
    def test_novel_always_recorded(self):
        d = decide(receipt(created=True, prior=0), 5)
        assert d.record and d.reason == RECORD_NOVEL

    def test_under_threshold_recorded(self):
        for prior in range(5):
            d = decide(receipt(prior=prior), 5)
            assert d.record and d.reason == RECORD_UNDER_THRESHOLD

    def test_at_threshold_discarded(self):
        d = decide(receipt(prior=5), 5)
        assert not d.record and d.reason is None
        assert not decide(receipt(prior=6), 5).record

    def test_occurrence_sequence_against_live_forest(self):
        # Ten repeats of one path: recorded five times (1 novel + 4 under),
        # discarded from the fifth repeat on.
        forest = BehaviorForest()
        reasons = []
        for _ in range(10):
            r = forest.insert((4, 6, 4))
            reasons.append(decide(r, 5).reason)
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
        assert buf.oldest_index == 0
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

    def test_capacity_evicts_oldest(self):
        buf = SampleBuffer(capacity=10)
        self.fill(buf, 25)
        assert len(buf) == 10
        assert buf.oldest_index == 15
        assert buf.next_index == 25
        t, _ = buf.extract((15, 25))
        assert t[0] == 15.0

    def test_overflow_raises_instead_of_truncating(self):
        buf = SampleBuffer(capacity=10)
        self.fill(buf, 25)
        with pytest.raises(BufferOverflowError):
            buf.extract((14, 25))  # one sample older than retention
        # The boundary span of exactly the capacity still works.
        buf.extract((15, 25))

    def test_span_past_the_end_rejected(self):
        buf = SampleBuffer()
        self.fill(buf, 5)
        with pytest.raises(ValueError):
            buf.extract((0, 6))
        with pytest.raises(ValueError):
            buf.extract((3, 3))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SampleBuffer(capacity=0)

    def test_rejects_misaligned_chunk(self):
        buf = SampleBuffer()
        with pytest.raises(ValueError):
            buf.extend(np.arange(3.0), np.zeros((2, 1)))
        assert buf.next_index == 0

    def test_buffer_owns_its_data(self):
        buf = SampleBuffer()
        t = np.arange(10, dtype=float)
        values = np.stack([t, -t], axis=1)
        buf.extend(t, values)
        t[:] = 99.0
        values[:] = 99.0
        seg_t, seg_values = buf.extract((2, 6))
        assert seg_t.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert seg_values[:, 1].tolist() == [-2.0, -3.0, -4.0, -5.0]
        seg_t[:] = -1.0
        seg_values[:] = -1.0
        again_t, again_values = buf.extract((2, 6))
        assert again_t.tolist() == [2.0, 3.0, 4.0, 5.0]
        assert again_values[:, 1].tolist() == [-2.0, -3.0, -4.0, -5.0]

    @staticmethod
    def outcome(buf, span):
        try:
            return buf.extract(span)
        except (ValueError, BufferOverflowError) as exc:
            return type(exc)

    @given(
        chunks=st.lists(st.integers(0, 40), max_size=10),
        capacity=st.one_of(st.none(), st.integers(1, 100)),
        n_channels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_list_oracle(self, chunks, capacity, n_channels, seed, data):
        rng = np.random.default_rng(seed)
        n = sum(chunks)
        t = rng.standard_normal(n)
        values = rng.standard_normal((n, n_channels))
        values[rng.random(values.shape) < 0.05] = -0.0
        buf, oracle = SampleBuffer(capacity), ListSampleBuffer(capacity)
        lo = 0
        for size in chunks:
            buf.extend(t[lo : lo + size], values[lo : lo + size])
            oracle.extend(t[lo : lo + size], values[lo : lo + size])
            lo += size
            assert buf.next_index == oracle.next_index
            assert buf.oldest_index == oracle.oldest_index
            assert len(buf) == len(oracle)
            if capacity is not None:
                assert sum(len(c) for c in buf._t) <= capacity + max(chunks)
            index = st.integers(oracle.oldest_index - 3, oracle.next_index + 3)
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

    def test_discarded_behavior_materializes_to_none(self):
        buf = SampleBuffer()
        buf.extend(np.arange(10.0), np.zeros((10, 1)))
        forest = BehaviorForest()
        for _ in range(6):
            r = forest.insert((1, 2, 1))
        decision = decide(r, 5)
        assert materialize(self.behavior(), decision, r, buf, "s1", 0) is None

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
    def db(self, path, span):
        return DiscoveredBehavior(tuple(path), span, TERMINATED_BY_PLATEAU)

    def decision(self, record):
        from behaviorforest.selection import Decision

        return Decision(record=record, reason=RECORD_NOVEL if record else None)

    def test_counts_and_dedup(self):
        acc = RunStatsAccumulator(run_index=1)
        acc.add_decision(self.db((1, 2), (0, 500)), self.decision(True), "a")
        acc.add_decision(self.db((2, 1), (400, 600)), self.decision(True), "a")
        acc.add_decision(self.db((1, 2), (700, 800)), self.decision(False), "a")
        acc.add_decision(self.db((1, 2), (0, 97)), self.decision(True), "b")
        acc.add_stream_length(5000)
        acc.add_stream_length(2841)
        stats = acc.finalize()
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
        acc = RunStatsAccumulator()
        acc.add_decision(self.db((1, 2), (0, 100)), self.decision(True), "a")
        acc.add_decision(self.db((1, 2), (0, 100)), self.decision(True), "b")
        assert acc.finalize().recorded_sample_count == 200

    def test_zero_total_gives_zero_fraction(self):
        stats = RunStatsAccumulator().finalize()
        assert stats.recording_fraction == 0.0

    def test_cumulative_fractions(self):
        from behaviorforest.selection import ReplayStats, RunStats

        def run(i, rec, tot):
            return RunStats(i, 0, 0, 0, rec, tot)

        stats = ReplayStats((run(1, 500, 1000), run(2, 0, 1000), run(3, 100, 1000)))
        assert stats.cumulative_fractions == (0.5, 0.25, 0.2)
