"""End-to-end wiring: samples in, recorded segments and forest state out.

One engine owns a forest and records against its config's relevance
threshold; each stream gets a fresh pipeline and detector so patterns never
straddle stream boundaries, while the forest keeps accumulating across
streams and runs.  Streams are processed in chunks so the look-back buffer
behaves like it would online: each chunk is buffered, reduced to the runs
it closed, and the behaviors those runs close are settled against the
forest.  `DiscoveryEngine.run` is the one loop over a dataset: `discover`
calls it once and `replay` once per run.
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
from .selection import RecordedSegment, RunStats, SampleBuffer, decide, materialize

Stream = Tuple[str, np.ndarray, np.ndarray]  # (stream_id, t, values[n, d])


@dataclass(frozen=True)
class RunResult:
    """One pass's recorded segments and the stats derived from them."""

    stats: RunStats
    segments: Tuple[RecordedSegment, ...]


class DiscoveryEngine:
    """Feeds streams through the full chain against one shared forest."""

    def __init__(
        self,
        config: EngineConfig,
        forest: Optional[BehaviorForest] = None,
        buffer_capacity: Optional[int] = None,
        chunk_size: int = 8192,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.config = config
        self.forest = forest if forest is not None else BehaviorForest()
        self.buffer_capacity = buffer_capacity
        self.chunk_size = chunk_size
        self._next_segment_id = 0

    def process_stream(
        self,
        stream_id: str,
        t: np.ndarray,
        values: np.ndarray,
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
        validate_stream_header(values.shape[1], self.config, stream_id)
        pipeline = PreprocessPipeline(self.config, stream_id)
        detector = BehaviorDetector(
            self.config.termination_run, self.config.initiation_context
        )
        buffer = SampleBuffer(self.buffer_capacity)
        threshold = self.config.relevance_threshold
        segments: List[RecordedSegment] = []

        def settle(behavior: Optional[DiscoveredBehavior]) -> None:
            if behavior is None:
                return
            # A behavior that would be recorded from evicted samples fails
            # here, before the forest counts it.  The lookup is only paid
            # once a span has already fallen behind the buffer.
            start, end = behavior.raw_span
            if (
                start < buffer.oldest_index
                and self.forest.occurrence_count(behavior.path) < threshold
            ):
                raise BufferOverflowError(
                    f"stream {stream_id!r}: span [{start}, {end}) reaches "
                    f"{buffer.oldest_index - start} samples behind the look-back "
                    f"buffer (capacity {buffer.capacity})"
                )
            receipt = self.forest.insert(behavior.path)
            reason = decide(receipt, threshold)
            segment = materialize(
                behavior, reason, receipt, buffer, stream_id, self._next_segment_id
            )
            if segment is not None:
                segments.append(segment)
                self._next_segment_id += 1

        n = len(values)
        for lo in range(0, n, self.chunk_size):
            hi = min(lo + self.chunk_size, n)
            buffer.extend(t[lo:hi], values[lo:hi])
            for behavior in detector.step(pipeline.process_batch(values[lo:hi])):
                settle(behavior)
        for behavior in detector.step(pipeline.flush()):
            settle(behavior)
        settle(detector.flush())
        return segments

    def run(self, streams: Sequence[Stream], run_index: int = 0) -> RunResult:
        """One pass over the dataset: all streams in order against the forest.

        Every settled behavior is inserted exactly once, so the forest's
        insertion count grows by the number of behaviors detected.
        """
        inserted = self.forest.total_insertions
        segments: List[RecordedSegment] = []
        total = 0
        for stream_id, t, values in streams:
            segments.extend(self.process_stream(stream_id, t, values))
            total += len(t)
        detected = self.forest.total_insertions - inserted
        return RunResult(
            stats=RunStats.of(run_index, segments, detected, total),
            segments=tuple(segments),
        )

    def snapshot(self) -> dict:
        return forest_snapshot(self.forest, self.config.config_hash())


def discover(
    config: EngineConfig,
    streams: Sequence[Stream],
    forest: Optional[BehaviorForest] = None,
    buffer_capacity: Optional[int] = None,
    run_index: int = 0,
) -> Tuple[DiscoveryEngine, RunResult]:
    """One pass over the dataset: all streams in order against one forest."""
    engine = DiscoveryEngine(config, forest=forest, buffer_capacity=buffer_capacity)
    return engine, engine.run(streams, run_index)


def replay(
    config: EngineConfig,
    streams: Sequence[Stream],
    runs: int,
    buffer_capacity: Optional[int] = None,
) -> Tuple[DiscoveryEngine, List[RunResult]]:
    """Pass the same dataset through `runs` times against one growing forest.

    Returns the engine and one RunResult per run; run indices are 1-based
    in the stats to match how the results read.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    engine = DiscoveryEngine(config, buffer_capacity=buffer_capacity)
    return engine, [engine.run(streams, run_index) for run_index in range(1, runs + 1)]
