"""End-to-end wiring: samples in, recorded segments and forest state out.

One engine owns a forest and records against its config's relevance
threshold; each stream gets a fresh pipeline and detector so patterns never
straddle stream boundaries, while the forest keeps accumulating across
streams and runs.  Streams are processed in chunks so the look-back buffer
behaves like it would online: each chunk is buffered, reduced to the runs
it closed, and the behaviors those runs close are settled against the
forest: inserted, judged by `decide`, and materialized only if recorded.
An empty stream is one empty chunk, so the pipeline checks every stream.
`DiscoveryEngine.run` is the one loop over a dataset: `discover` calls it
once and `replay` once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import BufferOverflowError, EngineConfig
from .forest import BehaviorDetector, BehaviorForest, DiscoveredBehavior
from .preprocess import PreprocessPipeline
from .selection import RecordedSegment, RunStats, SampleBuffer, decide, materialize

Stream = Tuple[str, np.ndarray, np.ndarray]  # (stream_id, t, values[n, d])

_CHUNK_SIZE = 8192  # samples fed per step; changes no output


@dataclass(frozen=True)
class RunResult:
    """One pass's recorded segments and the stats derived from them."""

    stats: RunStats
    segments: Tuple[RecordedSegment, ...]


class DiscoveryEngine:
    """Feeds streams through the full chain against one shared forest.

    buffer_capacity N (None is unbounded) is the longest behavior a run
    can record: a behavior that would be recorded may span at most N
    samples; a longer one raises BufferOverflowError before the forest
    counts it.  A behavior that is discarded may span any length.

    The look-back buffer refers to the stream's arrays instead of copying
    them, so the caller must not write into `t` or `values` while
    `process_stream` runs; once it returns, the arrays are the caller's
    again, since every segment owns copies of its samples.  A call's
    memory is the caller's arrays, plus the recorded segments, plus the
    forest.
    """

    def __init__(
        self,
        config: EngineConfig,
        forest: Optional[BehaviorForest] = None,
        buffer_capacity: Optional[int] = None,
    ):
        if buffer_capacity is not None and buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1 or None, got {buffer_capacity}")
        self.config = config
        self.forest = forest if forest is not None else BehaviorForest()
        self.buffer_capacity = buffer_capacity
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
        if t.ndim != 1:
            raise ValueError(f"stream {stream_id!r}: timestamps must be 1-D, got shape {t.shape}")
        if values.ndim not in (1, 2):
            raise ValueError(
                f"stream {stream_id!r}: expected a (samples, channels) array, "
                f"got shape {values.shape}"
            )
        if values.ndim == 1:
            values = values[:, None]
        if len(t) != len(values):
            raise ValueError(
                f"stream {stream_id!r}: {len(t)} timestamps for {len(values)} samples"
            )
        pipeline = PreprocessPipeline(self.config, stream_id)
        detector = BehaviorDetector(self.config.termination_run, self.config.initiation_context)
        buffer = SampleBuffer()
        capacity = self.buffer_capacity
        threshold = self.config.relevance_threshold
        segments: List[RecordedSegment] = []

        def settle(behavior: Optional[DiscoveredBehavior]) -> None:
            if behavior is None:
                return
            # A behavior that would be recorded over a span longer than the
            # capacity fails here, before the forest counts it.  The lookup
            # is only paid for such a span.
            start, end = behavior.raw_span
            if (
                capacity is not None
                and end - start > capacity
                and self.forest.occurrence_count(behavior.path) < threshold
            ):
                raise BufferOverflowError(
                    f"stream {stream_id!r}: span [{start}, {end}) reaches "
                    f"{end - capacity - start} samples behind the look-back "
                    f"buffer (capacity {capacity})"
                )
            receipt = self.forest.insert(behavior.path)
            reason = decide(receipt, threshold)
            if reason is not None:
                segments.append(
                    materialize(behavior, reason, receipt, buffer, stream_id, self._next_segment_id)
                )
                self._next_segment_id += 1

        n = len(values)
        for lo in range(0, max(n, 1), _CHUNK_SIZE):
            hi = min(lo + _CHUNK_SIZE, n)
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
        insertion count grows by the number of behaviors detected.  Stream
        ids must be distinct: the stats merge spans per id.  A repeated id
        raises ValueError before any stream is processed.
        """
        ids = [stream_id for stream_id, _, _ in streams]
        if len(set(ids)) < len(ids):
            raise ValueError(f"stream ids must be distinct within one run, got {ids}")
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


def discover(
    config: EngineConfig,
    streams: Sequence[Stream],
    forest: Optional[BehaviorForest] = None,
    buffer_capacity: Optional[int] = None,
) -> Tuple[DiscoveryEngine, RunResult]:
    """One pass over the dataset: all streams in order against one forest."""
    engine = DiscoveryEngine(config, forest=forest, buffer_capacity=buffer_capacity)
    return engine, engine.run(streams)


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
