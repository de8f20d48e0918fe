"""Symbolization pipeline: discretize, debounce, fuse, compress.

Each incoming sample is binned per channel against fixed breakpoints, a
hysteresis filter suppresses chatter at bin boundaries, the channel symbols
are fused into a single mixed-radix alphabet, and maximal runs of identical
fused symbols are compressed to a logarithmic number of copies.  Each stage
is one array function; `PreprocessPipeline.process_batch` chains them over a
chunk and carries the filter state and the open run to the next chunk, so
the output does not depend on how a stream is cut.  `DiscoveryEngine.run`
feeds every stream through it chunk by chunk.

The vectorized hysteresis treats each channel as a K-state machine.  A
sample deep enough inside its bin commits that bin from every state, so it
fixes the state outright; only the stretches of ambiguous samples between
such samples are resolved, by an exact prefix scan over composed state maps.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .core import DimensionMismatchError, InvalidSampleError, ReducedSymbol, StreamHandle

# Map entries (samples x states) per block of the hysteresis scan.
_SCAN_ENTRIES = 1 << 18


def discretize_batch(values: np.ndarray, breakpoints: Sequence[float]) -> np.ndarray:
    """Map values to their bin indices under half-open bins [b_j, b_{j+1}).

    A value's symbol equals the number of breakpoints <= value, so values
    below every breakpoint map to 0 and values at or above the last map to
    the top bin.  NaN has no bin and is rejected.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        idx = int(np.flatnonzero(np.isnan(values))[0])
        raise InvalidSampleError(f"NaN sample at index {idx} cannot be discretized")
    return np.searchsorted(breakpoints, values, side="right").astype(np.int64)


def _penetration_margins(breakpoints: Sequence[float], margin: float) -> List[float]:
    """Per-bin penetration distances derived from local bin widths.

    Bin j's margin is `margin` times its own width; the unbounded edge bins
    borrow the nearest finite bin's width.  With a single breakpoint there
    is no finite bin at all, so a unit width stands in and the margin is
    absolute.
    """
    k = len(breakpoints)
    if k == 1:
        return [margin, margin]
    widths = [breakpoints[j + 1] - breakpoints[j] for j in range(k - 1)]
    per_bin = [widths[0]] + widths + [widths[-1]]
    return [margin * w for w in per_bin]


class HysteresisFilter:
    """Debounces one channel's symbol sequence at bin boundaries.

    The first sample commits unconditionally.  Afterwards the committed
    symbol s only changes to a sample's bin c when the value penetrates c
    beyond the crossed breakpoint by s's margin: value >= bp[c-1] + delta[s]
    going up, value <= bp[c] - delta[s] going down; otherwise s is
    re-emitted.  A margin of 0 degenerates to plain discretization.
    """

    def __init__(self, breakpoints: Sequence[float], margin: float):
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.margin = float(margin)
        self.committed: Optional[int] = None
        self._deltas = _penetration_margins(self.breakpoints, self.margin)
        # Tables for `run`: bin c is entered from every state at lo[c] <= v <= hi[c];
        # otherwise state s passes into c at thresholds[c, s], from below if s < c
        # (+inf at s == c, which always passes).
        k = len(self._deltas)
        bp, deltas = self.breakpoints, self._deltas
        self._lo = np.array([-math.inf] + [bp[c - 1] + max(deltas[:c]) for c in range(1, k)])
        self._hi = np.array([bp[c] - max(deltas[c + 1 :]) for c in range(k - 1)] + [math.inf])
        self._thresholds = np.array([
            [bp[c - 1] + deltas[s] if s < c else bp[c] - deltas[s] if s > c else math.inf
             for s in range(k)]
            for c in range(k)
        ])
        self._states = np.arange(k, dtype=np.min_scalar_type(k - 1))

    def run(self, values: np.ndarray) -> np.ndarray:
        """Debounce a 1-D array of values, carrying the state across calls.

        A sample with `lo[c] <= value <= hi[c]` clears the penetration
        threshold of its bin `c` from every committed state, so its output is
        `c` whatever came before.  Every other sample is ambiguous: it maps
        each committed state to a next state by the comparisons of the
        class docstring.  The state entering a stretch of ambiguous samples (the last
        fixed sample's bin, or the carried state) is folded into the
        stretch's first map, and the maps are composed by Hillis-Steele
        doubling until every prefix map is constant.  Ambiguous samples are
        scanned in blocks of bounded size, so memory stays O(block * K).
        """
        values = np.asarray(values, dtype=np.float64)
        out = discretize_batch(values, self.breakpoints)
        n = len(out)
        if n == 0:
            return out
        ambiguous = (values < self._lo[out]) | (values > self._hi[out])
        if self.committed is None:
            ambiguous[0] = False  # the first sample commits unconditionally
        amb = np.flatnonzero(ambiguous)
        # Fold at each stretch start (its predecessor is fixed) and each block start.
        fold = np.ones(len(amb), dtype=bool)
        fold[1:] = amb[1:] != amb[:-1] + 1
        block = max(1, _SCAN_ENTRIES // len(self._states))
        fold[::block] = True
        for j in range(0, len(amb), block):
            idx = amb[j : j + block]
            cand = out[idx]
            v = values[idx, None]
            thr = self._thresholds[cand]
            passes = np.where(self._states < cand[:, None], v >= thr, v <= thr)
            maps = np.where(passes, cand[:, None].astype(self._states.dtype), self._states)
            rows = np.flatnonzero(fold[j : j + block])
            prev = idx[rows] - 1
            entry = out[prev]
            if prev[0] < 0:
                entry[0] = self.committed
            maps[rows] = maps[rows, entry][:, None]
            # Hillis-Steele: maps[i] <- maps[i] o maps[i - d], as a flat take.
            offsets = np.arange(0, maps.size, maps.shape[1])[:, None]
            d = 1
            while not (maps == maps[:, :1]).all():
                maps[d:] = np.take(maps[d:], maps[:-d] + offsets[:-d])
                d *= 2
            out[idx] = maps[:, 0]
        self.committed = int(out[-1])
        return out


def fuse_symbols(columns: Sequence[np.ndarray], alphabet_sizes: Sequence[int]) -> np.ndarray:
    """Fuse per-channel symbol arrays into one mixed-radix code per sample.

    columns[c] holds channel c's symbols.  The first channel is the most
    significant digit and a single channel maps to itself, so the fusion is
    a bijection onto range(prod(alphabet_sizes)).
    """
    fused = columns[0]
    for c in range(1, len(alphabet_sizes)):
        fused = fused * alphabet_sizes[c] + columns[c]
    return fused


def run_powers(log_base: int) -> np.ndarray:
    """The powers of `log_base` below 2**62: the table `run_copies` searches."""
    return np.array(
        [log_base**k for k in range(62) if log_base**k < 2**62], dtype=np.int64
    )


def run_copies(lengths: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Number of copies runs of `lengths` identical symbols survive as.

    ceil(log_base(length)) is the number of powers of log_base below the
    length; it is clamped to at least one copy so a symbol that occurred is
    never erased entirely.  `powers` is `run_powers(log_base)`.
    """
    return np.maximum(np.searchsorted(powers, lengths), 1)


class PreprocessPipeline:
    """Sample-to-reduced-symbol pipeline for one stream.

    `process_batch` takes the next chunk of frames and returns the copies of
    every run the chunk closed; the last run stays open for the next chunk,
    and `flush` closes it at end of stream.  Raw indices count frames in
    arrival order and tile the stream exactly.
    """

    def __init__(self, handle: StreamHandle):
        self.handle = handle
        config = handle.config
        self._alphabet_sizes = config.breakpoints.alphabet_sizes
        self._filters = [
            HysteresisFilter(ch, config.hysteresis_margin)
            for ch in config.breakpoints.channels
        ]
        self._run_powers = run_powers(config.log_base)
        self._raw_index = 0
        self._run_symbol: Optional[int] = None
        self._run_start = 0

    @property
    def raw_index(self) -> int:
        """Number of frames consumed so far."""
        return self._raw_index

    def process_batch(self, values: np.ndarray) -> List[ReducedSymbol]:
        """Reduced symbols of the runs closed by the next (samples, channels) chunk."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"expected a (samples, channels) array, got {values.shape}")
        n, d = values.shape
        if d != self.handle.config.n_channels:
            raise DimensionMismatchError(
                f"stream {self.handle.stream_id!r}: expected "
                f"{self.handle.config.n_channels} channels, got {d}"
            )
        if n == 0:
            return []
        if np.isnan(values).any():
            idx = int(np.flatnonzero(np.isnan(values).any(axis=1))[0])
            raise InvalidSampleError(f"NaN sample at index {self._raw_index + idx}")
        fused = fuse_symbols(
            [f.run(values[:, c]) for c, f in enumerate(self._filters)],
            self._alphabet_sizes,
        )

        # The last run stays open for the next batch.
        base = self._raw_index
        heads = np.concatenate(([0], np.flatnonzero(fused[1:] != fused[:-1]) + 1))
        symbols, starts = fused[heads], base + heads
        if self._run_symbol == symbols[0]:
            starts[0] = self._run_start
        elif self._run_symbol is not None:
            symbols = np.concatenate(([self._run_symbol], symbols))
            starts = np.concatenate(([self._run_start], starts))
        self._run_symbol, self._run_start = int(symbols[-1]), int(starts[-1])
        self._raw_index = base + n
        return self._close_runs(symbols.tolist(), starts)

    def flush(self) -> List[ReducedSymbol]:
        """Close the trailing run; the pipeline is ready for reuse after."""
        if self._run_symbol is None:
            return []
        bounds = np.array([self._run_start, self._raw_index])
        out = self._close_runs([self._run_symbol], bounds)
        self._run_symbol = None
        return out

    def _close_runs(self, symbols: List[int], bounds: np.ndarray) -> List[ReducedSymbol]:
        """Copies of each run symbols[i] over [bounds[i], bounds[i + 1])."""
        copies = run_copies(np.diff(bounds), self._run_powers)
        edges = bounds.tolist()
        runs = [
            ReducedSymbol(symbol, (start, end), end - start)
            for symbol, start, end in zip(symbols, edges, edges[1:])
        ]
        return [run for run, k in zip(runs, copies.tolist()) for _ in range(k)]
