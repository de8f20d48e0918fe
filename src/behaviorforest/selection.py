"""Recording policy: which discovered behaviors earn raw-sample storage.

A behavior is recorded when its path is new to the forest or still below
the occurrence threshold; everything else is discarded and survives only
as forest counts.  Raw samples come out of a look-back buffer that raises
rather than silently truncate when asked for evicted history, and run
statistics deduplicate overlapping recorded spans before computing the
recorded fraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import BufferOverflowError
from .forest import DiscoveredBehavior, InsertionReceipt

RECORD_NOVEL = "novel"
RECORD_UNDER_THRESHOLD = "under_threshold"


@dataclass(frozen=True)
class Decision:
    record: bool
    reason: Optional[str] = None


def decide(receipt: InsertionReceipt, threshold: int) -> Decision:
    """Judge one insertion receipt against the relevance threshold.

    A path is recorded while its pre-insertion occurrence count is under the
    threshold, so a path exactly at the threshold is no longer recorded.  A
    new path (count 0) is recorded under the reason `novel`.
    """
    if receipt.created_new_node:
        return Decision(record=True, reason=RECORD_NOVEL)
    if receipt.prior_terminal_count < threshold:
        return Decision(record=True, reason=RECORD_UNDER_THRESHOLD)
    return Decision(record=False)


class SampleBuffer:
    """Look-back buffer of raw frames indexed by absolute sample position.

    Each extended chunk is kept as its own float64 copy, tagged with the
    absolute index of its first sample, so storage stays at the raw data's
    size and no caller can alter recorded history through its own arrays.

    capacity bounds the retained samples (None keeps everything): the
    buffer answers for at least the last `capacity` samples, and drops a
    chunk once it lies wholly before them, so it holds at most `capacity`
    samples plus one chunk.  Asking for a span older than retention raises
    BufferOverflowError: silently clipping a segment would corrupt what the
    recorded dataset means.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._next = 0
        self._starts: List[int] = []
        self._t: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def __len__(self) -> int:
        return self._next - self.oldest_index

    @property
    def next_index(self) -> int:
        return self._next

    @property
    def oldest_index(self) -> int:
        if self.capacity is None:
            return 0
        return max(0, self._next - self.capacity)

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        t = np.array(t, dtype=np.float64)
        values = np.array(values, dtype=np.float64)
        if len(t) != len(values):
            raise ValueError(f"{len(t)} timestamps for {len(values)} samples")
        if len(t) == 0:
            return
        self._starts.append(self._next)
        self._t.append(t)
        self._values.append(values)
        self._next += len(t)
        # Chunks before the one holding oldest_index lie wholly before it.
        drop = bisect_right(self._starts, self.oldest_index) - 1
        if drop > 0:
            del self._starts[:drop], self._t[:drop], self._values[:drop]

    def extract(self, span: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh float64 copies of the samples in the half-open span."""
        start, end = span
        oldest = self.oldest_index
        if end <= start:
            raise ValueError(f"span must be non-empty, got [{start}, {end})")
        if start < oldest:
            raise BufferOverflowError(
                f"span [{start}, {end}) reaches {oldest - start} samples "
                f"behind the look-back buffer (capacity {self.capacity})"
            )
        if end > self._next:
            raise ValueError(
                f"span [{start}, {end}) extends past the last buffered sample "
                f"{self._next}"
            )
        first = bisect_right(self._starts, start) - 1
        last = bisect_left(self._starts, end)
        t_parts, value_parts = [], []
        for base, t, values in zip(
            self._starts[first:last], self._t[first:last], self._values[first:last]
        ):
            lo, hi = max(start - base, 0), end - base
            t_parts.append(t[lo:hi])
            value_parts.append(values[lo:hi])
        return np.concatenate(t_parts), np.concatenate(value_parts)


@dataclass(eq=False)
class RecordedSegment:
    """One recorded raw segment plus the context that justified it."""

    segment_id: int
    stream_id: str
    raw_span: Tuple[int, int]
    start_t: float
    end_t: float
    path: Tuple[int, ...]
    reason: str
    occurrence_index: int
    t: np.ndarray
    values: np.ndarray

    @property
    def path_id(self) -> str:
        return "-".join(str(s) for s in self.path)


def materialize(
    behavior: DiscoveredBehavior,
    decision: Decision,
    receipt: InsertionReceipt,
    buffer: SampleBuffer,
    stream_id: str,
    segment_id: int,
) -> Optional[RecordedSegment]:
    """Pull the behavior's raw samples out of the buffer if it is recorded."""
    if not decision.record:
        return None
    t, values = buffer.extract(behavior.raw_span)
    assert decision.reason is not None
    return RecordedSegment(
        segment_id=segment_id,
        stream_id=stream_id,
        raw_span=behavior.raw_span,
        start_t=float(t[0]),
        end_t=float(t[-1]),
        path=behavior.path,
        reason=decision.reason,
        occurrence_index=receipt.prior_terminal_count + 1,
        t=t,
        values=values,
    )


def merge_spans(spans: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open integer spans as a sorted non-overlapping list."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def union_length(spans: Sequence[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in merge_spans(spans))


@dataclass(frozen=True)
class RunStats:
    """Bookkeeping for one pass over a dataset."""

    run_index: int
    detected_db_count: int
    recorded_db_count: int
    distinct_recorded_paths: int
    recorded_sample_count: int
    total_sample_count: int

    @property
    def recording_fraction(self) -> float:
        if self.total_sample_count == 0:
            return 0.0
        return self.recorded_sample_count / self.total_sample_count


class RunStatsAccumulator:
    """Counts decisions within one run; spans are deduplicated per stream."""

    def __init__(self, run_index: int = 0):
        self.run_index = run_index
        self.detected_db_count = 0
        self.recorded_db_count = 0
        self._recorded_paths: set = set()
        self._spans: Dict[str, List[Tuple[int, int]]] = {}
        self.total_sample_count = 0

    def add_decision(
        self, behavior: DiscoveredBehavior, decision: Decision, stream_id: str
    ) -> None:
        self.detected_db_count += 1
        if decision.record:
            self.recorded_db_count += 1
            self._recorded_paths.add(behavior.path)
            self._spans.setdefault(stream_id, []).append(behavior.raw_span)

    def add_stream_length(self, n_samples: int) -> None:
        self.total_sample_count += n_samples

    def finalize(self) -> RunStats:
        recorded = sum(union_length(spans) for spans in self._spans.values())
        return RunStats(
            run_index=self.run_index,
            detected_db_count=self.detected_db_count,
            recorded_db_count=self.recorded_db_count,
            distinct_recorded_paths=len(self._recorded_paths),
            recorded_sample_count=recorded,
            total_sample_count=self.total_sample_count,
        )


@dataclass(frozen=True)
class ReplayStats:
    """Per-run stats plus the cumulative recorded fraction across runs."""

    runs: Tuple[RunStats, ...]

    @property
    def cumulative_fractions(self) -> Tuple[float, ...]:
        out: List[float] = []
        rec = tot = 0
        for run in self.runs:
            rec += run.recorded_sample_count
            tot += run.total_sample_count
            out.append(rec / tot if tot else 0.0)
        return tuple(out)
