"""Symbolization pipeline: discretize, debounce, unify, compress.

Each incoming sample is binned per channel against fixed breakpoints, a
hysteresis filter suppresses chatter at bin boundaries, the channel symbols
are fused into a single mixed-radix alphabet, and maximal runs of identical
unified symbols are compressed to a logarithmic number of copies.  The
pipeline is strictly online; `process_batch` is an equivalent vectorized
path for array input and produces byte-identical results.

The vectorized hysteresis treats each channel as a K-state machine.  A
sample deep enough inside its bin commits that bin from every state, so it
fixes the state outright; only the stretches of ambiguous samples between
such samples are resolved, by an exact prefix scan over composed state maps.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    InvalidSampleError,
    ReducedSymbol,
    SampleFrame,
    StreamHandle,
    SymbolicFrame,
)

# Map entries (samples x states) per block of the hysteresis scan.
_SCAN_ENTRIES = 1 << 18


def discretize(value: float, breakpoints: Sequence[float]) -> int:
    """Map a value to its bin index under half-open bins [b_j, b_{j+1}).

    The symbol equals the number of breakpoints <= value, so values below
    every breakpoint map to 0 and values at or above the last map to the
    top bin.  NaN has no bin and is rejected.
    """
    if math.isnan(value):
        raise InvalidSampleError("NaN sample cannot be discretized")
    return int(np.searchsorted(breakpoints, value, side="right"))


def discretize_batch(values: np.ndarray, breakpoints: Sequence[float]) -> np.ndarray:
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
    symbol only changes when the value penetrates the candidate bin beyond
    the crossed breakpoint by the committed bin's margin; otherwise the
    previous symbol is re-emitted.  A margin of 0 degenerates to plain
    discretization.
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

    def step(self, value: float) -> int:
        candidate = discretize(value, self.breakpoints)
        committed = self.committed
        if committed is None or candidate == committed:
            self.committed = candidate
            return candidate
        if self._passes(value, candidate, committed):
            self.committed = candidate
            return candidate
        return committed

    def _passes(self, value: float, candidate: int, committed: int) -> bool:
        delta = self._deltas[committed]
        if candidate > committed:
            return value >= self.breakpoints[candidate - 1] + delta
        return value <= self.breakpoints[candidate] - delta

    def run(self, values: np.ndarray) -> np.ndarray:
        """Vectorized step over a 1-D array, preserving filter state.

        A sample with `lo[c] <= value <= hi[c]` clears the penetration
        threshold of its bin `c` from every committed state, so its output is
        `c` whatever came before.  Every other sample is ambiguous: it maps
        each committed state to a next state by the same comparisons as
        `step`.  The state entering a stretch of ambiguous samples (the last
        fixed sample's bin, or the carried state) is folded into the
        stretch's first map, and the maps are composed by Hillis-Steele
        doubling until every prefix map is constant.  Ambiguous samples are
        scanned in blocks of bounded size, so memory stays O(block * K).
        Equivalent to calling `step` per sample.
        """
        values = np.asarray(values, dtype=np.float64)
        out = discretize_batch(values, self.breakpoints)
        n = len(out)
        if n == 0:
            return out
        if self.margin == 0.0:
            self.committed = int(out[-1])
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


def unify_symbols(symbols: Sequence[int], alphabet_sizes: Sequence[int]) -> int:
    """Fuse per-channel symbols into one mixed-radix code.

    The first channel is the most significant digit; a single channel maps
    to itself.  The fusion is a bijection onto range(prod(alphabet_sizes)).
    """
    if len(symbols) != len(alphabet_sizes):
        raise ValueError(
            f"got {len(symbols)} symbols for {len(alphabet_sizes)} channels"
        )
    unified = 0
    for s, a in zip(symbols, alphabet_sizes):
        if not 0 <= s < a:
            raise ValueError(f"symbol {s} outside alphabet of size {a}")
        unified = unified * a + s
    return unified


def split_unified(unified: int, alphabet_sizes: Sequence[int]) -> tuple[int, ...]:
    """Invert `unify_symbols` back to per-channel symbols."""
    out = []
    for a in reversed(alphabet_sizes):
        out.append(unified % a)
        unified //= a
    if unified:
        raise ValueError("unified symbol outside the fused alphabet")
    return tuple(reversed(out))


def copies_for_run_length(length: int, log_base: int) -> int:
    """Number of copies a run of `length` identical symbols survives as.

    ceil(log_base(length)), clamped to at least one copy so a symbol that
    occurred is never erased entirely.
    """
    if length < 1:
        raise ValueError(f"run length must be >= 1, got {length}")
    copies, reach = 0, 1
    while reach < length:
        reach *= log_base
        copies += 1
    return max(1, copies)


class PreprocessPipeline:
    """Online sample-to-reduced-symbol pipeline for one stream.

    `step` accepts one frame and returns the copies of any run that just
    closed (usually none); `flush` closes the final run at end of stream.
    Raw indices count frames in arrival order and tile the stream exactly.
    """

    def __init__(self, handle: StreamHandle):
        self.handle = handle
        config = handle.config
        self._alphabet_sizes = config.breakpoints.alphabet_sizes
        self._filters = [
            HysteresisFilter(ch, config.hysteresis_margin)
            for ch in config.breakpoints.channels
        ]
        self._log_base = config.log_base
        # log_base**k below 2**62: a run of length L survives as the number of these < L.
        self._run_powers = np.array(
            [config.log_base**k for k in range(62) if config.log_base**k < 2**62],
            dtype=np.int64,
        )
        self._raw_index = 0
        self._run_symbol: Optional[int] = None
        self._run_start = 0

    @property
    def raw_index(self) -> int:
        """Number of frames consumed so far."""
        return self._raw_index

    def step(self, frame: SampleFrame) -> List[ReducedSymbol]:
        self.handle.check_values(frame.values)
        # Reject before touching filter state so a bad frame has no effect.
        if any(math.isnan(v) for v in frame.values):
            raise InvalidSampleError(f"NaN sample at index {self._raw_index}")
        symbols = [f.step(v) for f, v in zip(self._filters, frame.values)]
        unified = unify_symbols(symbols, self._alphabet_sizes)
        out: List[ReducedSymbol] = []
        if self._run_symbol is None:
            self._run_symbol = unified
            self._run_start = self._raw_index
        elif unified != self._run_symbol:
            out = self._close_run(end=self._raw_index)
            self._run_symbol = unified
            self._run_start = self._raw_index
        self._raw_index += 1
        return out

    def process_batch(self, values: np.ndarray) -> List[ReducedSymbol]:
        """Vectorized equivalent of calling `step` once per row."""
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
        committed = [self._filters[c].run(values[:, c]) for c in range(d)]
        unified = committed[0]
        for c in range(1, d):
            unified = unified * self._alphabet_sizes[c] + committed[c]

        # Columnar run closing: the last segment stays open for the next batch.
        base = self._raw_index
        heads = np.concatenate(([0], np.flatnonzero(unified[1:] != unified[:-1]) + 1))
        symbols, starts = unified[heads], base + heads
        if self._run_symbol == symbols[0]:
            starts[0] = self._run_start
        elif self._run_symbol is not None:
            symbols = np.concatenate(([self._run_symbol], symbols))
            starts = np.concatenate(([self._run_start], starts))
        self._run_symbol, self._run_start = int(symbols[-1]), int(starts[-1])
        self._raw_index = base + n
        copies = np.maximum(np.searchsorted(self._run_powers, np.diff(starts)), 1)
        ends = starts[1:].tolist()
        runs = [
            ReducedSymbol(symbol, (start, end), end - start)
            for symbol, start, end in zip(symbols.tolist(), starts.tolist(), ends)
        ]
        return [run for run, k in zip(runs, copies.tolist()) for _ in range(k)]

    def flush(self) -> List[ReducedSymbol]:
        """Close the trailing run; the pipeline is ready for reuse after."""
        if self._run_symbol is None:
            return []
        out = self._close_run(end=self._raw_index)
        self._run_symbol = None
        return out

    def _close_run(self, end: int) -> List[ReducedSymbol]:
        assert self._run_symbol is not None
        length = end - self._run_start
        copies = copies_for_run_length(length, self._log_base)
        reduced = ReducedSymbol(
            symbol=self._run_symbol,
            raw_span=(self._run_start, end),
            run_length_raw=length,
        )
        return [reduced] * copies


def symbolic_frames(handle: StreamHandle, values: np.ndarray) -> List[SymbolicFrame]:
    """Post-hysteresis unified symbol of every frame, one entry per row.

    Inspection helper over a fresh filter bank; numerosity reduction is not
    applied.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    config = handle.config
    if values.shape[1] != config.n_channels:
        raise DimensionMismatchError(
            f"stream {handle.stream_id!r}: expected {config.n_channels} "
            f"channels, got {values.shape[1]}"
        )
    sizes = config.breakpoints.alphabet_sizes
    committed = [
        HysteresisFilter(ch, config.hysteresis_margin).run(values[:, c])
        for c, ch in enumerate(config.breakpoints.channels)
    ]
    unified = committed[0]
    for c in range(1, len(sizes)):
        unified = unified * sizes[c] + committed[c]
    return [SymbolicFrame(int(u), (i, i + 1)) for i, u in enumerate(unified)]


def make_pipeline(handle: StreamHandle) -> PreprocessPipeline:
    return PreprocessPipeline(handle)

