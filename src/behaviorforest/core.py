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
import numbers
import sys
from dataclasses import dataclass, fields
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


class SnapshotError(EngineError):
    """Malformed or incompatible forest snapshot document."""


def gaussian_breakpoints(alpha: int) -> tuple[float, ...]:
    """Return the alpha-1 finite standard-normal quantiles at j/alpha.

    The resulting bins are equiprobable under a standard normal, the usual
    default when no domain breakpoints are known.
    """
    _check_alphabet_size(alpha)
    qs = ndtri([j / alpha for j in range(1, alpha)])
    return tuple(float(q) for q in qs)


@dataclass(frozen=True)
class BreakpointSpec:
    """Per-channel breakpoint lists defining the symbol alphabets.

    A channel with k breakpoints has alphabet size k + 1.  Bin j is the
    half-open interval [b_j, b_{j+1}) with implicit -inf and +inf at the
    ends, so every finite value lands in exactly one bin.  Breakpoints ascend
    by finite gaps, since a bin's width scales its hysteresis margin.
    """

    channels: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        channels = tuple(
            tuple(_breakpoint(c, b) for b in ch) for c, ch in enumerate(self.channels)
        )
        if not channels:
            raise ConfigError("at least one channel is required")
        for c, ch in enumerate(channels):
            if not ch:
                raise ConfigError(f"channel {c}: empty breakpoint list")
            if not all(0 < b - a < math.inf for a, b in zip(ch, ch[1:])):
                raise ConfigError(f"channel {c}: breakpoints must ascend by finite gaps")
        object.__setattr__(self, "channels", channels)
        _check_fused_size(self.alphabet_sizes)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(len(ch) + 1 for ch in self.channels)

    @classmethod
    def from_alphabet_sizes(cls, sizes: Sequence[int]) -> "BreakpointSpec":
        """Build equiprobable-Gaussian breakpoints for each channel."""
        # Refuse an oversized alphabet before computing any of its quantiles.
        for alpha in sizes:
            _check_alphabet_size(alpha)
        _check_fused_size(sizes)
        return cls(tuple(gaussian_breakpoints(a) for a in sizes))


def _is_int(value) -> bool:
    # bool is an int subclass, but True would hash differently from 1.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_alphabet_size(alpha) -> None:
    if not isinstance(alpha, int) or alpha < 2:
        raise ConfigError(f"alphabet size must be an integer >= 2, got {alpha!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _breakpoint(channel: int, value) -> float:
    """A breakpoint as a float: a finite real number, never a string or bool."""
    # Compared, not passed to isfinite: an int past the float range cannot convert.
    if not (_is_real(value) and abs(value) <= sys.float_info.max):
        raise ConfigError(f"channel {channel}: breakpoint {value!r} is not a finite number")
    return float(value)


def _check_run_lengths(termination_run, initiation_context) -> None:
    if not _is_int(termination_run) or termination_run < 2:
        raise ConfigError("termination_run must be an integer >= 2")
    if not _is_int(initiation_context) or initiation_context < 1:
        raise ConfigError("initiation_context must be an integer >= 1")


def _check_fused_size(alphabet_sizes: Sequence[int]) -> None:
    """Refuse alphabets whose fused mixed-radix codes would not fit in an int64."""
    if math.prod(alphabet_sizes) > 2**63:
        raise ConfigError(
            f"alphabet sizes {list(alphabet_sizes)} fuse to more than 2**63 symbols"
        )


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
        # The range check also refuses nan and inf, and never converts a huge int.
        if not ((_is_int(h) or isinstance(h, float)) and 0.0 <= h < 0.5):
            raise ConfigError(f"hysteresis_margin must satisfy 0 <= h < 0.5, got {h!r}")
        # Hysteresis thresholds lie within the end breakpoints -+ h * the widest gap
        # (1 for one breakpoint); the filter also steps one float below the lowest.
        for c, ch in enumerate(self.breakpoints.channels):
            reach = h * max((b - a for a, b in zip(ch, ch[1:])), default=1.0)
            if ch[0] - reach <= -sys.float_info.max or ch[-1] + reach > sys.float_info.max:
                raise ConfigError(f"channel {c}: hysteresis thresholds overflow a float")
        _check_run_lengths(self.termination_run, self.initiation_context)

    @property
    def n_channels(self) -> int:
        return self.breakpoints.n_channels

    def config_hash(self) -> str:
        """Stable short hash of all parameters, embedded in snapshots."""
        blob = json.dumps(_config_doc(self), sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _config_doc(config: EngineConfig) -> dict:
    """Every field as JSON values: what `config_hash` hashes and `save_config` writes."""
    doc = {f.name: getattr(config, f.name) for f in fields(config)}
    doc["breakpoints"] = [list(ch) for ch in config.breakpoints.channels]
    # 0 and 0.0 are one filter, so they must share one hash.
    doc["hysteresis_margin"] = float(config.hysteresis_margin)
    return doc

