"""Offline analysis of recorded segments plus a seeded benchmark generator.

Feature extraction summarizes each pattern's raw values with nine plain
statistics; the variance tools contrast recorded segments against fixed
sliding windows of the same average length to show what threshold-free
windowing would have stored instead.  The synthetic generator produces a
two-channel stream of stepped saw/sine bursts between near-zero stretches,
built so the default noise level leaves the discretized paths stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np


class PatternFeatures(NamedTuple):
    """Nine-number summary of a pattern's raw values.

    Variance is the population variance; skew and kurtosis are the
    standardized third and fourth central moments (kurtosis as excess), both
    defined as 0 for constant input; percentiles interpolate linearly.
    """

    mean: float
    variance: float
    skew: float
    kurtosis: float
    minimum: float
    maximum: float
    median: float
    p25: float
    p75: float


FEATURE_NAMES = PatternFeatures._fields


def extract_features(values: np.ndarray) -> PatternFeatures:
    """Compute the nine features over all values (channels flattened)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot extract features from an empty segment")
    mean = float(np.mean(x))
    centered = x - mean
    variance = float(np.mean(centered**2))
    if variance == 0.0:
        skew = kurtosis = 0.0
    else:
        skew = float(np.mean(centered**3) / variance**1.5)
        kurtosis = float(np.mean(centered**4) / variance**2 - 3.0)
    p25, median, p75 = (float(q) for q in np.percentile(x, [25.0, 50.0, 75.0]))
    return PatternFeatures(
        mean=mean,
        variance=variance,
        skew=skew,
        kurtosis=kurtosis,
        minimum=float(np.min(x)),
        maximum=float(np.max(x)),
        median=median,
        p25=p25,
        p75=p75,
    )


def _channels(values: np.ndarray) -> np.ndarray:
    """Samples as float64 rows of channels; a 1-D input is one channel."""
    x = np.asarray(values, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def segment_variance(values: np.ndarray) -> float:
    """Population variance of a segment, averaged over channels."""
    return float(np.mean(np.var(_channels(values), axis=0)))


def sliding_window_variances(series: np.ndarray, window_length: int) -> np.ndarray:
    """`segment_variance` of each fixed-length window, windows overlapping by half.

    Windows advance by ceil(window_length / 2) samples; a trailing partial
    window is dropped, so a series shorter than one window gives none.
    """
    if window_length < 1:
        raise ValueError(f"window_length must be >= 1, got {window_length}")
    x = _channels(series)
    if len(x) < window_length:
        return np.empty(0, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(x, window_length, axis=0)
    # (n, w, d) in C order, so each window reduces as `segment_variance` would.
    windows = np.ascontiguousarray(windows[:: (window_length + 1) // 2].transpose(0, 2, 1))
    return np.var(windows, axis=1).mean(axis=1)


class FiveNumberSummary(NamedTuple):
    """Boxplot numbers: Tukey whiskers around the quartiles."""

    lower_whisker: float
    p25: float
    median: float
    p75: float
    upper_whisker: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "FiveNumberSummary":
        x = np.asarray(values, dtype=np.float64)
        if x.size == 0:
            raise ValueError("cannot summarize an empty value list")
        p25, median, p75 = (float(q) for q in np.percentile(x, [25.0, 50.0, 75.0]))
        iqr = p75 - p25
        inside = x[(x >= p25 - 1.5 * iqr) & (x <= p75 + 1.5 * iqr)]
        return cls(
            lower_whisker=float(inside.min()),
            p25=p25,
            median=median,
            p75=p75,
            upper_whisker=float(inside.max()),
        )


@dataclass(frozen=True)
class VarianceComparison:
    """Recorded-segment variances vs same-length sliding-window variances."""

    window_length: int
    db_variances: Tuple[float, ...]
    window_variances: Tuple[float, ...]

    @property
    def db_summary(self) -> FiveNumberSummary:
        return FiveNumberSummary.from_values(self.db_variances)

    @property
    def window_summary(self) -> FiveNumberSummary:
        return FiveNumberSummary.from_values(self.window_variances)


def compare_variances(
    segments: Sequence[np.ndarray], series: np.ndarray
) -> VarianceComparison:
    """Contrast segment variances with sliding windows of their mean length.

    The window length is the rounded mean segment length, so the comparison
    asks: had we stored fixed windows instead of detected segments, what
    variance profile would the archive have?  Every segment must have the
    series' channels.
    """
    if not segments:
        raise ValueError("need at least one segment to compare")
    series, segments = _channels(series), [_channels(seg) for seg in segments]
    for i, seg in enumerate(segments):
        if seg.shape[1] != series.shape[1]:
            raise ValueError(f"segment {i}: {seg.shape[1]} channels, series has {series.shape[1]}")
    window_length = max(1, round(float(np.mean([len(seg) for seg in segments]))))
    window_vars = sliding_window_variances(series, window_length)
    if window_vars.size == 0:
        raise ValueError(
            f"series ({len(series)} samples) is shorter than "
            f"the {window_length}-sample comparison window"
        )
    return VarianceComparison(
        window_length=window_length,
        db_variances=tuple(segment_variance(seg) for seg in segments),
        window_variances=tuple(float(v) for v in window_vars),
    )


# --- synthetic benchmark stream ---------------------------------------------

# (waveform, amplitude, period divisor) per burst type, in pattern order.  A
# period of half vs a fifth of the burst keeps the two amplitudes' dwells in
# different ceil-log bands under the default log base.
_PATTERN_TYPES = (("saw", 1.0, 2), ("sine", 1.0, 2), ("saw", 0.6, 5), ("sine", 0.6, 5))
# Base waveforms swing +-1.4 * amplitude so that both amplitudes land >= 5
# noise sigmas away from the +-0.5 breakpoints and their hysteresis margins;
# pattern identity then shows up in the bin dwell durations, exactly as it
# would for continuous ramps.
_BASE_SWING = 1.4


def _saw(peak: float, period: int) -> List[Tuple[float, int]]:
    """Stepped rising saw: low, zero, high dwells from ramp crossing times."""
    low = round((peak - 0.5) / (2.0 * peak) * period)
    mid = round(period / (2.0 * peak))
    return [(-peak, low), (0.0, mid), (peak, period - low - mid)]


def _sine(peak: float, period: int) -> List[Tuple[float, int]]:
    """Stepped sine: zero, high, zero, low dwells from sine crossing times."""
    z = round(2.0 * math.asin(0.5 / peak) / (2.0 * math.pi) * period)
    e = round((math.pi - 2.0 * math.asin(0.5 / peak)) / (2.0 * math.pi) * period)
    return [(0.0, z), (peak, e), (0.0, z), (-peak, period - 2 * z - e)]


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry of the benchmark stream; defaults match the reference tests.

    Four burst types ({saw, sine} x two amplitudes, `_PATTERN_TYPES`)
    alternate between near-zero gaps; channel 2 mirrors channel 1 so both
    channels carry signal.  Faster periods for the smaller amplitude keep
    every bin dwell inside a stable log-copy band, which makes each type
    reduce to one fixed symbol path.  With cluster_size set, bursts arrive
    in clusters split by much longer gaps, giving the irregular pacing the
    variance comparison needs.
    """

    n_patterns: int = 4
    noise_sigma: float = 0.05
    bursts_per_pattern: Union[int, Tuple[int, ...]] = 10
    burst_len: int = 200
    gap_len: int = 600
    cluster_size: Optional[int] = None
    cluster_gap_len: int = 30000

    def __post_init__(self) -> None:
        if not 1 <= self.n_patterns <= len(_PATTERN_TYPES):
            raise ValueError(f"n_patterns must be in [1, {len(_PATTERN_TYPES)}]")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.burst_len < 20 or self.gap_len < 1:
            raise ValueError("burst_len must be >= 20 and gap_len >= 1")
        if (self.cluster_size is not None and self.cluster_size < 1) or self.cluster_gap_len < 1:
            raise ValueError("cluster_size must be None or >= 1, and cluster_gap_len >= 1")
        if min(self.burst_counts()) < 0:
            raise ValueError(f"burst counts must be >= 0, got {self.bursts_per_pattern}")

    def burst_counts(self) -> Tuple[int, ...]:
        counts = self.bursts_per_pattern
        if isinstance(counts, int):
            return (counts,) * self.n_patterns
        counts = tuple(int(c) for c in counts)
        if len(counts) != self.n_patterns:
            raise ValueError(
                f"bursts_per_pattern needs {self.n_patterns} entries, got {len(counts)}"
            )
        return counts

    def pattern_types(self) -> List[Tuple[str, float, int]]:
        """(waveform, amplitude, period) per pattern, in `_PATTERN_TYPES` order."""
        return [
            (waveform, amplitude, self.burst_len // divisor)
            for waveform, amplitude, divisor in _PATTERN_TYPES[: self.n_patterns]
        ]


def _burst_channel(waveform: str, amplitude: float, period: int, burst_len: int) -> np.ndarray:
    """One burst: whole periods of the stepped waveform, zero-padded to burst_len."""
    plateaus = (_saw if waveform == "saw" else _sine)(_BASE_SWING * amplitude, period)
    if any(d < 1 for _, d in plateaus):
        raise ValueError(f"period {period} too short for amplitude {amplitude}")
    one = np.concatenate([np.full(d, level) for level, d in plateaus])
    burst = np.tile(one, burst_len // period)
    return np.concatenate([burst, np.zeros(burst_len - len(burst))])


def generate_synthetic(seed: int, **fields) -> Tuple[np.ndarray, np.ndarray]:
    """Render the stream of `SyntheticSpec(**fields)`; returns (t, values[n, 2]).

    The burst order is a seeded shuffle and the Gaussian noise is seeded,
    so equal (seed, fields) produce identical arrays.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    spec = SyntheticSpec(**fields)
    rng = np.random.default_rng(seed)
    types = spec.pattern_types()
    schedule: List[int] = []
    for pattern, count in enumerate(spec.burst_counts()):
        schedule.extend([pattern] * count)
    rng.shuffle(schedule)

    big_gap = spec.cluster_gap_len if spec.cluster_size else spec.gap_len
    pieces: List[np.ndarray] = [np.zeros(big_gap)]
    for i, pattern in enumerate(schedule):
        waveform, amplitude, period = types[pattern]
        pieces.append(_burst_channel(waveform, amplitude, period, spec.burst_len))
        end_of_cluster = spec.cluster_size and (i + 1) % spec.cluster_size == 0
        pieces.append(np.zeros(big_gap if i == len(schedule) - 1 or end_of_cluster else spec.gap_len))
    ch1 = np.concatenate(pieces)
    values = np.stack([ch1, -ch1], axis=1)
    if spec.noise_sigma > 0:
        values = values + rng.normal(0.0, spec.noise_sigma, values.shape)
    t = np.arange(len(ch1), dtype=np.float64)
    return t, values
