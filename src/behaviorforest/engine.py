"""End-to-end wiring: samples in, recorded segments and forest state out.

One engine owns a forest and a recording policy; each stream gets a fresh
pipeline and detector so patterns never straddle stream boundaries, while
the forest keeps accumulating across streams and runs.  Streams are
processed in chunks so the look-back buffer behaves like it would online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import BufferOverflowError, EngineConfig, validate_stream_header
from .forest import (
    BehaviorDetector,
    BehaviorForest,
    DiscoveredBehavior,
    forest_snapshot,
)
from .preprocess import PreprocessPipeline
from .selection import (
    Decision,
    RecordedSegment,
    RelevancePolicy,
    ReplayStats,
    RunStats,
    RunStatsAccumulator,
    SampleBuffer,
    decide,
    materialize,
)

Stream = Tuple[str, np.ndarray, np.ndarray]  # (stream_id, t, values[n, d])


class DiscoveryEngine:
    """Feeds streams through the full chain against one shared forest."""

    def __init__(
        self,
        config: EngineConfig,
        forest: Optional[BehaviorForest] = None,
        policy: Optional[RelevancePolicy] = None,
        buffer_capacity: Optional[int] = None,
        chunk_size: int = 8192,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.config = config
        self.forest = forest if forest is not None else BehaviorForest()
        self.policy = (
            policy
            if policy is not None
            else RelevancePolicy(threshold=config.relevance_threshold)
        )
        self.buffer_capacity = buffer_capacity
        self.chunk_size = chunk_size
        self._next_segment_id = 0

    def process_stream(
        self,
        stream_id: str,
        t: np.ndarray,
        values: np.ndarray,
        stats: Optional[RunStatsAccumulator] = None,
    ) -> List[RecordedSegment]:
        """Run one stream start to finish, returning its recorded segments."""
        t = np.asarray(t, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if len(t) != len(values):
            raise ValueError(
                f"stream {stream_id!r}: {len(t)} timestamps for {len(values)} samples"
            )
        handle = validate_stream_header(values.shape[1], self.config, stream_id)
        pipeline = PreprocessPipeline(handle)
        detector = BehaviorDetector(
            self.config.termination_run, self.config.initiation_context
        )
        buffer = SampleBuffer(self.buffer_capacity)
        segments: List[RecordedSegment] = []

        def settle(behavior: Optional[DiscoveredBehavior]) -> None:
            if behavior is None:
                return
            # A behavior that would be recorded from evicted samples fails
            # here, before the forest or the stats count it.  The lookup is
            # only paid once a span has already fallen behind the buffer.
            start, end = behavior.raw_span
            if (
                start < buffer.oldest_index
                and self.forest.occurrence_count(behavior.path) < self.policy.threshold
            ):
                raise BufferOverflowError(
                    f"stream {stream_id!r}: span [{start}, {end}) reaches "
                    f"{buffer.oldest_index - start} samples behind the look-back "
                    f"buffer (capacity {buffer.capacity})"
                )
            receipt = self.forest.insert(behavior.path)
            decision = decide(receipt, self.policy)
            if stats is not None:
                stats.add_decision(behavior, decision, stream_id)
            segment = materialize(
                behavior, decision, receipt, buffer, stream_id, self._next_segment_id
            )
            if segment is not None:
                segments.append(segment)
                self._next_segment_id += 1

        n = len(values)
        for lo in range(0, n, self.chunk_size):
            hi = min(lo + self.chunk_size, n)
            buffer.extend(t[lo:hi], values[lo:hi])
            for reduced in pipeline.process_batch(values[lo:hi]):
                settle(detector.step(reduced))
        for reduced in pipeline.flush():
            settle(detector.step(reduced))
        settle(detector.flush())

        if stats is not None:
            stats.add_stream_length(n)
        return segments

    def snapshot(self) -> dict:
        return forest_snapshot(self.forest, self.config.config_hash())


@dataclass(frozen=True)
class RunResult:
    stats: RunStats
    segments: Tuple[RecordedSegment, ...]


def discover(
    config: EngineConfig,
    streams: Sequence[Stream],
    forest: Optional[BehaviorForest] = None,
    policy: Optional[RelevancePolicy] = None,
    buffer_capacity: Optional[int] = None,
    run_index: int = 0,
) -> Tuple[DiscoveryEngine, RunResult]:
    """One pass over the dataset: all streams in order against one forest."""
    engine = DiscoveryEngine(
        config, forest=forest, policy=policy, buffer_capacity=buffer_capacity
    )
    stats = RunStatsAccumulator(run_index)
    segments: List[RecordedSegment] = []
    for stream_id, t, values in streams:
        segments.extend(engine.process_stream(stream_id, t, values, stats))
    return engine, RunResult(stats=stats.finalize(), segments=tuple(segments))


def replay(
    config: EngineConfig,
    streams: Sequence[Stream],
    runs: int,
    policy: Optional[RelevancePolicy] = None,
    buffer_capacity: Optional[int] = None,
) -> Tuple[DiscoveryEngine, ReplayStats, List[Tuple[RecordedSegment, ...]]]:
    """Pass the same dataset through `runs` times against one growing forest.

    Returns the engine, per-run statistics, and each run's segments; run
    indices are 1-based in the stats to match how the results read.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    engine = DiscoveryEngine(config, policy=policy, buffer_capacity=buffer_capacity)
    per_run: List[RunStats] = []
    segments_by_run: List[Tuple[RecordedSegment, ...]] = []
    for run_index in range(1, runs + 1):
        stats = RunStatsAccumulator(run_index)
        segments: List[RecordedSegment] = []
        for stream_id, t, values in streams:
            segments.extend(engine.process_stream(stream_id, t, values, stats))
        per_run.append(stats.finalize())
        segments_by_run.append(tuple(segments))
    return engine, ReplayStats(runs=tuple(per_run)), segments_by_run
