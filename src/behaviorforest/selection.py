"""Recording policy: which discovered behaviors earn raw-sample storage.

A behavior is recorded when its path is new to the forest or still below
the occurrence threshold (`decide`); everything else is discarded and
survives only as forest counts.  A recorded behavior's raw samples are
copied out of a look-back buffer that refers to the stream's own chunks.
A run's statistics are derived from the segments it recorded,
deduplicating overlapping spans per stream before computing the recorded
fraction, so they cannot disagree with what was written.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .forest import DiscoveredBehavior, InsertionReceipt

RECORD_NOVEL = "novel"
RECORD_UNDER_THRESHOLD = "under_threshold"


def decide(receipt: InsertionReceipt, threshold: int) -> Optional[str]:
    """Judge one insertion receipt: the reason to record it, or None to discard.

    A path is recorded while its pre-insertion occurrence count is under the
    threshold, so a path exactly at the threshold is no longer recorded.  A
    new path (count 0) is recorded under the reason `novel`.
    """
    if receipt.created_new_node:
        return RECORD_NOVEL
    if receipt.prior_terminal_count < threshold:
        return RECORD_UNDER_THRESHOLD
    return None


class SampleBuffer:
    """Look-back buffer of raw frames indexed by absolute sample position.

    Each extended chunk is kept by reference, tagged with the absolute
    index of its first sample: a float64 chunk (a slice of the caller's
    stream, strided or not) is held as it is and only other dtypes are
    converted, so buffering copies no samples.  The caller must not write
    into an array while it is buffered.  `DiscoveryEngine.process_stream`
    meets this: the buffer lives only for the call, and the call holds the
    stream throughout.  `extract` always returns fresh arrays, so a
    recorded segment never shares memory with the caller's arrays.  The
    buffer serves every span in `[0, len(buffer))`; how far back a
    recorded behavior may reach is the engine's `buffer_capacity` rule.
    """

    def __init__(self) -> None:
        self._next = 0
        self._starts: List[int] = []
        self._t: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def __len__(self) -> int:
        return self._next

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        t = np.asarray(t, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if len(t) != len(values):
            raise ValueError(f"{len(t)} timestamps for {len(values)} samples")
        if len(t) == 0:
            return
        self._starts.append(self._next)
        self._t.append(t)
        self._values.append(values)
        self._next += len(t)

    def extract(self, span: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh float64 copies of the samples in the half-open span."""
        start, end = span
        if end <= start:
            raise ValueError(f"span must be non-empty, got [{start}, {end})")
        if start < 0 or end > self._next:
            raise ValueError(
                f"span [{start}, {end}) lies outside the buffered samples [0, {self._next})"
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
    path: Tuple[int, ...]
    reason: str
    occurrence_index: int
    t: np.ndarray
    values: np.ndarray

    @property
    def start_t(self) -> float:
        return float(self.t[0])

    @property
    def end_t(self) -> float:
        return float(self.t[-1])

    @property
    def path_id(self) -> str:
        return "-".join(str(s) for s in self.path)


def materialize(
    behavior: DiscoveredBehavior,
    reason: str,
    receipt: InsertionReceipt,
    buffer: SampleBuffer,
    stream_id: str,
    segment_id: int,
) -> RecordedSegment:
    """Pull the raw samples of a behavior that `decide` recorded for `reason`."""
    t, values = buffer.extract(behavior.raw_span)
    return RecordedSegment(
        segment_id=segment_id,
        stream_id=stream_id,
        raw_span=behavior.raw_span,
        path=behavior.path,
        reason=reason,
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

    @classmethod
    def of(
        cls,
        run_index: int,
        segments: Sequence[RecordedSegment],
        detected: int,
        total_samples: int,
    ) -> "RunStats":
        """Stats of a run that detected `detected` behaviors and recorded `segments`.

        Recorded samples are the union of the segments' spans per stream, so
        overlapping behaviors count their shared samples once.
        """
        spans: Dict[str, List[Tuple[int, int]]] = {}
        for seg in segments:
            spans.setdefault(seg.stream_id, []).append(seg.raw_span)
        return cls(
            run_index=run_index,
            detected_db_count=detected,
            recorded_db_count=len(segments),
            distinct_recorded_paths=len({seg.path for seg in segments}),
            recorded_sample_count=sum(union_length(s) for s in spans.values()),
            total_sample_count=total_samples,
        )

    @property
    def recording_fraction(self) -> float:
        if self.total_sample_count == 0:
            return 0.0
        return self.recorded_sample_count / self.total_sample_count


def cumulative_fractions(runs: Sequence[RunStats]) -> List[float]:
    """Recorded fraction of all samples seen up to and including each run."""
    out: List[float] = []
    rec = tot = 0
    for run in runs:
        rec += run.recorded_sample_count
        tot += run.total_sample_count
        out.append(rec / tot if tot else 0.0)
    return out
