"""Symbolization pipeline: discretize, debounce, fuse, compress.

Each incoming sample is binned per channel against fixed breakpoints, a
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
fixes the state outright.  `process_batch` hands each chunk to one
`HysteresisFilter.run` as a channel-major (channels, samples) copy, which
finds the fixed samples of all channels by a byte-wide count of the
thresholds each sample reaches, or, when a channel has more than
`_COUNT_THRESHOLDS` of them, by a branchless search of L = ceil(log2 K)
passes per channel.  Only the ambiguous samples between fixed ones are
binned against the breakpoints and resolved, by an exact prefix scan over
state-major state maps, one gather per doubling.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .core import DimensionMismatchError, EngineConfig, InvalidSampleError

# Map entries (states x samples) per block of the hysteresis scan: 512 KB of
# int64, so the column-wise gathers of a block stay in cache at large K.
_SCAN_ENTRIES = 1 << 16

# The longest threshold row (2K - 2 entries for K bins, so K <= 15) whose
# count `HysteresisFilter.run` takes over a whole block; a stream with a
# longer row searches each channel instead.  The count makes one pass per
# entry and the search ceil(log2 K) gathers: on 8,192 x 2 blocks of fixed
# samples the two tie at K = 15 to 17.
_COUNT_THRESHOLDS = 28


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
    return _search(values, _search_table(breakpoints))


def _search(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Number of entries of a nondecreasing `_search_table` that are <= each value."""
    step = (len(table) + 1) // 2
    out = (values >= table[step - 1]) * step
    while step > 1:
        # out holds the bits found so far; entry out + step - 1 splits the rest.
        step //= 2
        out += (values >= table[step - 1 :].take(out)) * step
    return out


class _Channel:
    """One channel's thresholds and the scan over its ambiguous samples.

    With edges and deltas as in `HysteresisFilter`, a sample with `lo[c] <=
    value <= hi[c]` clears the threshold of its bin c from every state, so
    its output is c whatever came before.  lo[c] = edges[c] + max(delta[:c])
    never decreases, and hi[c] = edges[c + 1] - max(delta[c + 1:]) is kept
    below edges[c + 1], which tiny deltas round to.  Every vector is O(K).
    """

    def __init__(self, breakpoints: Sequence[float], margin: float):
        bp = np.array(breakpoints, dtype=np.float64)
        self.table = _search_table(bp)
        self.edges = np.concatenate(([-np.inf], bp, [np.inf]))
        widths = np.pad(np.diff(bp), 1, mode="edge") if len(bp) > 1 else np.ones(2)
        self.deltas = margin * widths
        below = np.maximum.accumulate(self.deltas)[:-1]
        above = np.maximum.accumulate(self.deltas[::-1])[-2::-1]
        self.lo = np.concatenate(([-np.inf], bp + below))
        self.lo_table = _search_table(self.lo[1:])
        hi = self.edges[1:] - np.concatenate((above, [0.0]))
        self.hi = np.minimum(hi, np.nextafter(self.edges[1:], -np.inf))
        self.states = np.arange(len(widths))[:, None]

    def thresholds(self) -> np.ndarray:
        """The nondecreasing row a sample fixed in bin c reaches exactly 2c entries of.

        For each boundary c the row holds the first value past hi[c] that is
        not below lo[c], then lo[c + 1]; a sample that reaches one of the two
        but not the other lies in neither bin's fixed range.  Where lo[c] >
        hi[c], the max keeps the row sorted.
        """
        row = np.empty(2 * len(self.hi) - 2)
        row[0::2] = np.maximum(np.nextafter(self.hi[:-1], np.inf), self.lo[:-1])
        row[1::2] = self.lo[1:]
        return row

    def resolve(
        self, out: np.ndarray, amb: np.ndarray, sub: np.ndarray, state: Optional[int]
    ) -> None:
        """Write the outputs of the ambiguous samples `out[amb]`, of values `sub`.

        Each is binned against the breakpoints and maps state s to its bin c
        if `value >= edges[c] + delta[s]` (s < c) or `value <= edges[c + 1] -
        delta[s]` (s > c), else to s.  The state entering a stretch of
        ambiguous samples (the last fixed sample's bin, the carried `state`,
        or with None the first sample's own bin) is folded into the
        stretch's first map, and the maps, a (K, block) array, are composed
        by Hillis-Steele doubling, one flat gather per step, until every
        prefix map is constant; memory stays O(block * K).
        """
        bins = out[amb] = _search(sub, self.table)
        # Fold at each stretch start (its predecessor is fixed) and each block start.
        fold = np.empty(len(amb), dtype=bool)
        np.not_equal(amb[1:], amb[:-1] + 1, out=fold[1:])
        block = max(1, _SCAN_ENTRIES // len(self.states))
        fold[::block] = True
        for j in range(0, len(amb), block):
            idx = amb[j : j + block]
            cand, v, m = bins[j : j + block], sub[j : j + block], len(idx)
            # From s == c the downward test applies; either result maps c to c.
            up = self.states < cand
            passes = up & (v >= self.edges[cand] + self.deltas[:, None])
            passes |= ~up & (v <= self.edges[cand + 1] - self.deltas[:, None])
            # maps[s, i] is m * (the state sample i takes s to): an offset into flat.
            maps = np.where(passes, cand * m, self.states * m)
            flat, cols = maps.reshape(-1), np.arange(m)
            entry = out[idx - 1]
            if idx[0] == 0:  # the first sample commits unconditionally
                entry[0] = cand[0] if state is None else state
            np.copyto(maps, flat.take(entry * m + cols), where=fold[j : j + block])
            # Hillis-Steele: maps[:, i] <- maps[:, i] o maps[:, i - d], as a flat take;
            # the first step is taken untested: a block seldom holds only stretches of one.
            d = 1
            while d == 1 or not (maps[1:] == maps[:1]).all():
                maps[:, d:] = flat.take(maps[:, :-d] + cols[d:])
                d *= 2
            out[idx] = maps[0] // m


class HysteresisFilter:
    """Debounces the symbol sequences of a stream's channels at bin boundaries.

    `breakpoints` holds one breakpoint list per channel; a flat list is one
    channel.  Bin c spans [edges[c], edges[c + 1]) with edges `[-inf,
    *breakpoints, +inf]`.  The first sample commits unconditionally.
    Afterwards a channel's committed symbol s only changes to a sample's bin
    c when the value clears c's threshold from s: value >= edges[c] +
    delta[s] going up, value <= edges[c + 1] - delta[s] going down;
    otherwise s is re-emitted.  delta[s] is `margin` times bin s's width;
    the edge bins borrow their neighbour's width, and a single breakpoint
    gets a unit width.  A margin of 0 degenerates to plain discretization.
    Setup keeps only per-bin vectors, so it is O(K) in time and memory for
    K bins.  `committed` is None before the first sample, then a tuple of
    one symbol per channel.

    A sample fixed in bin c has `lo[c] <= value <= hi[c]` (see `_Channel`).
    When every channel's `_Channel.thresholds` row has at most
    `_COUNT_THRESHOLDS` entries, `run` counts, for all channels at once, the
    entries of its row that each sample reaches, one compare and one uint8
    add per entry over the contiguous channel-major block; rows are
    NaN-padded to the longest, and NaN never counts.  An even count 2c
    fixes the sample in bin c and an odd one leaves it ambiguous.  A stream
    with a longer row instead searches each channel's lo thresholds, L =
    ceil(log2 K) passes, for the only bin c a sample can be fixed in, and
    compares the sample with hi[c].
    """

    def __init__(self, breakpoints: Sequence, margin: float):
        if np.ndim(breakpoints[0]) == 0:  # a flat list is one channel
            breakpoints = (breakpoints,)
        self.committed: Optional[Tuple[int, ...]] = None
        self._channels = [_Channel(ch, float(margin)) for ch in breakpoints]
        rows = [ch.thresholds() for ch in self._channels]
        width = max(map(len, rows))
        self._rows: Optional[np.ndarray] = None
        if width <= _COUNT_THRESHOLDS:
            # (width, channels, 1): entry j of every row, NaN past a row's end.
            self._rows = np.full((width, len(rows), 1), np.nan)
            for c, row in enumerate(rows):
                self._rows[: len(row), c, 0] = row

    def run(self, values: np.ndarray) -> np.ndarray:
        """Debounce a (channels, samples) block, carrying the state across calls.

        A 1-D array is one channel's samples, and the output has the shape
        of `values`.  Only the samples between fixed ones are ambiguous; each
        channel's are resolved by `_Channel.resolve`.  NaN is never fixed,
        and it is rejected before any state changes.
        """
        block = np.atleast_2d(np.asarray(values, dtype=np.float64))
        d, n = block.shape
        if d != len(self._channels):
            raise ValueError(f"expected {len(self._channels)} channels, got {d}")
        if n == 0:
            return np.empty(np.shape(values), dtype=np.int64)
        if self._rows is not None:
            # The first compare is negated so that NaN, which reaches no
            # entry, counts one: odd, so ambiguous.
            count = (~(block < self._rows[0])).view(np.uint8)
            for t in self._rows[1:]:
                count += block >= t
            amb = np.flatnonzero((count & 1).view(bool))
            out = (count >> 1).astype(np.int64)
        else:
            out = np.empty((d, n), dtype=np.int64)
            amb = []
            for c, (ch, v) in enumerate(zip(self._channels, block)):
                # lo[1:] <= value counts the only bin v can be fixed in.
                out[c] = fixed = _search(v, ch.lo_table)
                amb.append(np.flatnonzero(~(v <= ch.hi.take(fixed))) + c * n)
            amb = np.concatenate(amb)
        sub = block.take(amb)
        nan = amb[np.isnan(sub)]
        if len(nan):
            raise InvalidSampleError(
                f"NaN sample at index {(nan % n).min()} cannot be discretized"
            )
        bounds = np.searchsorted(amb, np.arange(d + 1) * n)
        state = self.committed or (None,) * d
        for c, ch in enumerate(self._channels):
            lo, hi = bounds[c], bounds[c + 1]
            if lo < hi:
                ch.resolve(out[c], amb[lo:hi] - c * n, sub[lo:hi], state[c])
        self.committed = tuple(out[:, -1].tolist())
        return out.reshape(np.shape(values))


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
        self._filter = HysteresisFilter(config.breakpoints.channels, config.hysteresis_margin)
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
        try:
            # One channel-major copy of the chunk for the whole filter.
            symbols = self._filter.run(np.ascontiguousarray(values.T))
        except InvalidSampleError:
            idx = int(np.flatnonzero(np.isnan(values).any(axis=1))[0])
            raise InvalidSampleError(
                f"stream {self.stream_id!r}: NaN sample at index {self._raw_index + idx}"
            ) from None
        fused = fuse_symbols(symbols, self._alphabet_sizes)

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
