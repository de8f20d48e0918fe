"""Scalar reference implementations that the library's stages are checked against."""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from behaviorforest.core import BufferOverflowError
from behaviorforest.preprocess import HysteresisFilter, discretize_batch


class ListSampleBuffer:
    """Look-back buffer holding one Python tuple per sample.

    The reference for `selection.SampleBuffer`: it keeps exactly the last
    `capacity` samples, so its `extract` defines which spans are served,
    which raise, and what they return.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._base = 0
        self._t: List[float] = []
        self._values: List[Tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._t)

    @property
    def next_index(self) -> int:
        return self._base + len(self._t)

    @property
    def oldest_index(self) -> int:
        return self._base

    def append(self, t: float, values: Sequence[float]) -> None:
        self._t.append(float(t))
        self._values.append(tuple(values))
        self._evict()

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        self._t.extend(float(x) for x in t)
        self._values.extend(map(tuple, np.asarray(values, dtype=np.float64)))
        self._evict()

    def _evict(self) -> None:
        if self.capacity is None:
            return
        excess = len(self._t) - self.capacity
        if excess > 0:
            del self._t[:excess]
            del self._values[:excess]
            self._base += excess

    def extract(self, span: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        start, end = span
        if end <= start:
            raise ValueError(f"span must be non-empty, got [{start}, {end})")
        if start < self._base:
            raise BufferOverflowError(
                f"span [{start}, {end}) reaches {self._base - start} samples "
                f"behind the look-back buffer (capacity {self.capacity})"
            )
        if end > self.next_index:
            raise ValueError(
                f"span [{start}, {end}) extends past the last buffered sample "
                f"{self.next_index}"
            )
        lo, hi = start - self._base, end - self._base
        return (
            np.array(self._t[lo:hi], dtype=np.float64),
            np.array(self._values[lo:hi], dtype=np.float64),
        )


class SegmentHysteresisFilter(HysteresisFilter):
    """Hysteresis filter whose `run` loops once per constant-candidate segment.

    The reference for `preprocess.HysteresisFilter.run`: the committed
    symbol can only flip at the first in-segment sample that clears the
    penetration threshold, after which candidate == committed holds to the
    segment end.
    """

    def run(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        candidates = discretize_batch(values, self.breakpoints)
        n = len(candidates)
        if n == 0:
            return candidates
        if self.margin == 0.0:
            self.committed = int(candidates[-1])
            return candidates
        out = np.empty(n, dtype=np.int64)
        committed = self.committed
        bounds = np.flatnonzero(candidates[1:] != candidates[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), n]
        for s, e in zip(starts, ends):
            candidate = int(candidates[s])
            if committed is None or candidate == committed:
                committed = candidate
                out[s:e] = candidate
                continue
            delta = self._deltas[committed]
            if candidate > committed:
                hits = values[s:e] >= self.breakpoints[candidate - 1] + delta
            else:
                hits = values[s:e] <= self.breakpoints[candidate] - delta
            hit_at = np.flatnonzero(hits)
            if len(hit_at) == 0:
                out[s:e] = committed
            else:
                flip = s + int(hit_at[0])
                out[s:flip] = committed
                out[flip:e] = candidate
                committed = candidate
        self.committed = committed
        return out
