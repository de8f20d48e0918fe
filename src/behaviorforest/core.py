"""Core types and configuration for the streaming symbol engine.

A stream is a sequence of timestamped multivariate samples.  Each channel
is mapped onto a small integer alphabet by fixed breakpoints, the channel
symbols are fused into one alphabet, and identical-symbol runs are
compressed before pattern detection.  The frozen types below carry the
contracts every later stage relies on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from scipy.special import ndtri


class EngineError(Exception):
    """Base class for engine failures."""


class ConfigError(EngineError):
    """Invalid configuration value or malformed config document."""


class DimensionMismatchError(EngineError):
    """Sample vector length does not match the configured channel count."""


class InvalidSampleError(EngineError):
    """A sample contains NaN or another value the discretizer must reject."""


class BufferOverflowError(EngineError):
    """A requested raw span is older than the look-back buffer retains."""


class SnapshotError(EngineError):
    """Malformed or incompatible forest snapshot document."""


def gaussian_breakpoints(alpha: int) -> tuple[float, ...]:
    """Return the alpha-1 finite standard-normal quantiles at j/alpha.

    The resulting bins are equiprobable under a standard normal, the usual
    default when no domain breakpoints are known.
    """
    if not isinstance(alpha, int) or alpha < 2:
        raise ConfigError(f"alphabet size must be an integer >= 2, got {alpha!r}")
    qs = ndtri([j / alpha for j in range(1, alpha)])
    return tuple(float(q) for q in qs)


@dataclass(frozen=True)
class BreakpointSpec:
    """Per-channel breakpoint lists defining the symbol alphabets.

    A channel with k breakpoints has alphabet size k + 1.  Bin j is the
    half-open interval [b_j, b_{j+1}) with implicit -inf and +inf at the
    ends, so every finite value lands in exactly one bin.
    """

    channels: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        channels = tuple(tuple(float(b) for b in ch) for ch in self.channels)
        if not channels:
            raise ConfigError("at least one channel is required")
        for c, ch in enumerate(channels):
            if not ch:
                raise ConfigError(f"channel {c}: empty breakpoint list")
            for b in ch:
                if not math.isfinite(b):
                    raise ConfigError(f"channel {c}: non-finite breakpoint {b!r}")
            if any(a >= b for a, b in zip(ch, ch[1:])):
                raise ConfigError(f"channel {c}: breakpoints must be strictly ascending")
        object.__setattr__(self, "channels", channels)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(len(ch) + 1 for ch in self.channels)

    @classmethod
    def from_alphabet_sizes(cls, sizes: Sequence[int]) -> "BreakpointSpec":
        """Build equiprobable-Gaussian breakpoints for each channel."""
        return cls(tuple(gaussian_breakpoints(int(a)) for a in sizes))


def _is_int(value) -> bool:
    # bool is an int subclass, but True would hash differently from 1.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EngineConfig:
    """Immutable engine parameters shared by every stage.

    hysteresis_margin is the fraction of the committed bin's width a value
    must penetrate into a new bin before the channel symbol may change;
    0 disables the filter.  termination_run and initiation_context are the
    run lengths (in copies after log compression) that close and arm the
    detector.
    """

    breakpoints: BreakpointSpec
    log_base: int = 10
    relevance_threshold: int = 5
    hysteresis_margin: float = 0.05
    termination_run: int = 3
    initiation_context: int = 2

    def __post_init__(self) -> None:
        if not _is_int(self.log_base) or self.log_base < 2:
            raise ConfigError(f"log_base must be an integer >= 2, got {self.log_base!r}")
        if not _is_int(self.relevance_threshold) or self.relevance_threshold < 1:
            raise ConfigError("relevance_threshold must be an integer >= 1")
        h = self.hysteresis_margin
        if not ((_is_int(h) or isinstance(h, float)) and math.isfinite(h) and 0.0 <= h < 0.5):
            raise ConfigError(f"hysteresis_margin must satisfy 0 <= h < 0.5, got {h!r}")
        if not _is_int(self.termination_run) or self.termination_run < 2:
            raise ConfigError("termination_run must be an integer >= 2")
        if not _is_int(self.initiation_context) or self.initiation_context < 1:
            raise ConfigError("initiation_context must be an integer >= 1")

    @property
    def n_channels(self) -> int:
        return self.breakpoints.n_channels

    def config_hash(self) -> str:
        """Stable short hash of all parameters, embedded in snapshots."""
        doc = {
            "breakpoints": [list(ch) for ch in self.breakpoints.channels],
            "log_base": self.log_base,
            "relevance_threshold": self.relevance_threshold,
            # 0 and 0.0 are one filter, so they must share one hash.
            "hysteresis_margin": float(self.hysteresis_margin),
            "termination_run": self.termination_run,
            "initiation_context": self.initiation_context,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def validate_stream_header(
    n_channels: int, config: EngineConfig, stream_id: str = "stream"
) -> None:
    """Raise DimensionMismatchError unless the channel count matches the config."""
    if n_channels != config.n_channels:
        raise DimensionMismatchError(
            f"stream {stream_id!r} declares {n_channels} channels but the "
            f"configuration defines {config.n_channels}"
        )
