"""Symbolization pipeline: discretize, debounce, fuse, compress.

Each incoming sample is binned per channel against fixed breakpoints (a
branchless binary search: L = ceil(log2 K) array passes for K bins), a
hysteresis filter suppresses chatter at bin boundaries, the channel symbols
are fused into a single mixed-radix alphabet, and maximal runs of identical
fused symbols are compressed to a logarithmic number of copies.  Each stage
is one array function; `PreprocessPipeline.process_batch` chains them over a
chunk and returns the runs it closed as rows `(symbol, start, end, copies)`,
carrying the filter state and the open run to the next chunk, so the output
does not depend on how a stream is cut.  `DiscoveryEngine.run` feeds every
stream through it chunk by chunk, so its width and NaN checks, which name
the stream, are the engine's only ones.

The vectorized hysteresis treats each channel as a K-state machine.  A
sample deep enough inside its bin commits that bin from every state, so it
fixes the state outright; only the stretches of ambiguous samples between
such samples are resolved, by an exact prefix scan over composed state maps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import DimensionMismatchError, EngineConfig, InvalidSampleError

# Map entries (samples x states) per block of the hysteresis scan.
_SCAN_ENTRIES = 1 << 18


def _search_table(breakpoints: Sequence[float]) -> np.ndarray:
    """Breakpoints NaN-padded to 2**L - 1 entries; a padded table comes back as is."""
    bp = np.asarray(breakpoints, dtype=np.float64)
    pad = (1 << max(1, len(bp).bit_length())) - 1 - len(bp)
    return np.concatenate((bp, np.full(pad, np.nan))) if pad else bp


def discretize_batch(values: np.ndarray, breakpoints: Sequence[float]) -> np.ndarray:
    """Map values to their bin indices under half-open bins [b_j, b_{j+1}).

    A value's symbol equals the number of breakpoints <= value, so values
    below every breakpoint map to 0 and values at or above the last map to
    the top bin.  NaN has no bin and is rejected.  The count is a binary
    search over the breakpoints NaN-padded to 2**L - 1 entries, where
    L = ceil(log2 K) for K bins: each of L array passes, with no per-value
    branch, compares all values with the entries the earlier passes select
    and adds the bit it finds.  `v >= NaN` is false, so pads never count.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        idx = int(np.flatnonzero(np.isnan(values))[0])
        raise InvalidSampleError(f"NaN sample at index {idx} cannot be discretized")
    table = _search_table(breakpoints)
    step = (len(table) + 1) // 2
    out = (values >= table[step - 1]) * step
    while step > 1:
        # out holds the bits found so far; entry out + step - 1 splits the rest.
        step //= 2
        out += (values >= table[step - 1 :].take(out)) * step
    return out


class HysteresisFilter:
    """Debounces one channel's symbol sequence at bin boundaries.

    Bin c spans [edges[c], edges[c + 1]) with edges `[-inf, *breakpoints,
    +inf]`.  The first sample commits unconditionally.  Afterwards the
    committed symbol s only changes to a sample's bin c when the value
    clears c's threshold from s: value >= edges[c] + delta[s] going up,
    value <= edges[c + 1] - delta[s] going down; otherwise s is re-emitted.
    delta[s] is `margin` times bin s's width; the edge bins borrow their
    neighbour's width, and a single breakpoint gets a unit width.  A margin
    of 0 degenerates to plain discretization.  Setup keeps only per-bin
    vectors, so it is O(K) in time and memory for K bins.
    """

    def __init__(self, breakpoints: Sequence[float], margin: float):
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.margin = float(margin)
        self.committed: Optional[int] = None
        bp = np.array(self.breakpoints)
        self._table = _search_table(bp)
        self._edges = np.concatenate(([-np.inf], bp, [np.inf]))
        widths = np.pad(np.diff(bp), 1, mode="edge") if len(bp) > 1 else np.ones(2)
        self._deltas = self.margin * widths
        # lo[c] = edges[c] + max(deltas[:c]), hi[c] = edges[c + 1] - max(deltas[c + 1:]).
        below = np.maximum.accumulate(self._deltas)[:-1]
        above = np.maximum.accumulate(self._deltas[::-1])[-2::-1]
        self._lo = self._edges[:-1] + np.concatenate(([0.0], below))
        self._hi = self._edges[1:] - np.concatenate((above, [0.0]))
        self._states = np.arange(len(widths), dtype=np.min_scalar_type(len(bp)))

    def run(self, values: np.ndarray) -> np.ndarray:
        """Debounce a 1-D array of values, carrying the state across calls.

        A sample with `lo[c] <= value <= hi[c]` clears the threshold of its
        bin `c` from every committed state, so its output is `c` whatever came
        before.  Every other sample is ambiguous: it maps each state s to c
        if `value >= edges[c] + delta[s]` (s < c) or `value <= edges[c + 1] -
        delta[s]` (s > c), else to s.  The state entering a stretch of
        ambiguous samples (the last fixed sample's bin, or the carried state)
        is folded into the stretch's first map, and the maps are composed by
        Hillis-Steele doubling until every prefix map is constant, in blocks
        of bounded size, so memory stays O(block * K).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        out = discretize_batch(values, self._table)
        if len(out) == 0:
            return out
        ambiguous = (values < self._lo.take(out)) | (values > self._hi.take(out))
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
            # From s == c the downward test applies; either result maps c to c.
            passes = np.where(
                self._states < cand[:, None],
                v >= self._edges[cand, None] + self._deltas,
                v <= self._edges[cand + 1, None] - self._deltas,
            )
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
    """Sample-to-run pipeline for one stream.

    `process_batch` takes the next chunk of frames and returns one int64 row
    `(symbol, start, end, copies)` per run the chunk closed: the fused symbol,
    the half-open raw index span of the maximal run, and the number of copies
    it survives as after log compression.  The last run stays open for the
    next chunk, and `flush` closes it at end of stream.  Raw indices count
    frames in arrival order, so the spans tile the stream exactly.
    """

    def __init__(self, config: EngineConfig, stream_id: str = "stream"):
        self.config = config
        self.stream_id = stream_id
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

    def process_batch(self, values: np.ndarray) -> np.ndarray:
        """Rows of the runs closed by the next (samples, channels) chunk."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"expected a (samples, channels) array, got {values.shape}")
        n, d = values.shape
        if d != self.config.n_channels:
            raise DimensionMismatchError(
                f"stream {self.stream_id!r}: expected "
                f"{self.config.n_channels} channels, got {d}"
            )
        if n == 0:
            return np.empty((0, 4), dtype=np.int64)
        if np.isnan(values).any():
            idx = int(np.flatnonzero(np.isnan(values).any(axis=1))[0])
            raise InvalidSampleError(
                f"stream {self.stream_id!r}: NaN sample at index {self._raw_index + idx}"
            )
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
        return self._close_runs(symbols[:-1], starts)

    def flush(self) -> np.ndarray:
        """Close the trailing run; the pipeline is ready for reuse after."""
        if self._run_symbol is None:
            return np.empty((0, 4), dtype=np.int64)
        symbols = np.array([self._run_symbol], dtype=np.int64)
        out = self._close_runs(symbols, np.array([self._run_start, self._raw_index]))
        self._run_symbol = None
        return out

    def _close_runs(self, symbols: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Rows of the runs symbols[i] over [bounds[i], bounds[i + 1])."""
        copies = run_copies(np.diff(bounds), self._run_powers)
        return np.column_stack((symbols, bounds[:-1], bounds[1:], copies))
