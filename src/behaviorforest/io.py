"""File formats: delimited series, JSON configs, and result exports.

Series files are comma-delimited text with a mandatory header row; the
first column is the timestamp, every further column one channel.  The
bytes `write_series` produces are fixed: a header row quoted by the csv
module, then one row per sample whose values are the shortest round-trip
`repr` of each float64, every line ending in "\r\n".  Configs are JSON
with either explicit per-channel breakpoints or alphabet sizes to derive
equiprobable-Gaussian ones.  All exports are plain CSV/JSON so the results
stay inspectable without this package.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import FEATURE_NAMES, VarianceComparison, extract_features
from .core import BreakpointSpec, ConfigError, EngineConfig, _config_doc
from .forest import BehaviorForest
from .selection import RecordedSegment, RunStats, cumulative_fractions

# The EngineConfig fields a config document sets as they are.
_SCALAR_KEYS = tuple(f.name for f in dataclasses.fields(EngineConfig) if f.name != "breakpoints")
_CONFIG_KEYS = {"breakpoints", "alphabet_sizes", *_SCALAR_KEYS}

# Rows formatted per write_series block; bounds its memory for any length.
_ROW_BLOCK = 1 << 14


def load_config(path: str) -> EngineConfig:
    """Read an engine config from JSON; unknown keys are rejected loudly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return config_from_dict(doc, source=path)


def config_from_dict(doc: dict, source: str = "config") -> EngineConfig:
    if "breakpoints" in doc:
        raw = doc["breakpoints"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{source}: breakpoints must be a non-empty list")
        # A flat number list is shorthand for a single channel.
        if all(isinstance(b, (int, float)) for b in raw):
            raw = [raw]
        try:
            spec = BreakpointSpec(tuple(tuple(ch) for ch in raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: malformed breakpoints ({exc})") from exc
    elif "alphabet_sizes" in doc:
        sizes = doc["alphabet_sizes"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError(f"{source}: alphabet_sizes must be a non-empty list")
        spec = BreakpointSpec.from_alphabet_sizes(sizes)
    else:
        raise ConfigError(f"{source}: provide breakpoints or alphabet_sizes")
    kwargs = {key: doc[key] for key in _SCALAR_KEYS if key in doc}
    return EngineConfig(breakpoints=spec, **kwargs)


def save_config(path: str, config: EngineConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_config_doc(config), fh, indent=2)
        fh.write("\n")


def read_series(path: str) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Load a delimited series file: (t, values[n, d], channel names)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ValueError(f"{path}: missing header row")
        names = [c.strip() for c in next(csv.reader([header]))]
        if len(names) < 2:
            raise ValueError(f"{path}: need a timestamp column plus channels")
        try:
            with warnings.catch_warnings():
                # Zero data rows are legitimate; loadtxt warns about them.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed numeric data ({exc})") from exc
    if data.size == 0:
        return (
            np.empty(0, dtype=np.float64),
            np.empty((0, len(names) - 1), dtype=np.float64),
            names[1:],
        )
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: header names {len(names)} columns, rows have {data.shape[1]}"
        )
    return data[:, 0], data[:, 1:], names[1:]


def write_series(
    path: str,
    t: np.ndarray,
    values: np.ndarray,
    channel_names: Optional[Sequence[str]] = None,
) -> None:
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if len(t) != len(values):
        raise ValueError(f"{len(t)} timestamps for {len(values)} samples")
    d = values.shape[1]
    names = list(channel_names) if channel_names else [f"ch{i + 1}" for i in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} channel names for {d} channels")
    # "%r" % x is repr(x) and "\r\n" is csv's line terminator, so each block
    # of rows is formatted by one %-operation with the bytes csv.writer gives.
    row = ",".join(["%r"] * (d + 1)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["t", *names])
        for start in range(0, len(t), _ROW_BLOCK):
            block = np.column_stack(
                [t[start : start + _ROW_BLOCK], values[start : start + _ROW_BLOCK]]
            )
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


MANIFEST_COLUMNS = (
    "segment_id",
    "stream_id",
    "start_index",
    "end_index",
    "start_t",
    "end_t",
    "path",
    "reason",
    "occurrence_index",
)


def write_segments(
    out_dir: str,
    segments: Sequence[RecordedSegment],
    channel_names: Optional[Sequence[str]] = None,
) -> str:
    """Write the segment manifest plus one raw file per recorded segment."""
    os.makedirs(out_dir, exist_ok=True)
    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "segments.csv")
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for seg in segments:
            writer.writerow(
                [
                    seg.segment_id,
                    seg.stream_id,
                    seg.raw_span[0],
                    seg.raw_span[1],
                    repr(seg.start_t),
                    repr(seg.end_t),
                    seg.path_id,
                    seg.reason,
                    seg.occurrence_index,
                ]
            )
            write_series(
                os.path.join(seg_dir, f"segment_{seg.segment_id:05d}.csv"),
                seg.t,
                seg.values,
                channel_names,
            )
    return manifest_path


def read_segments(out_dir: str) -> List[RecordedSegment]:
    """Load a discover output directory back into RecordedSegment objects."""
    manifest_path = os.path.join(out_dir, "segments.csv")
    segments: List[RecordedSegment] = []
    with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise ValueError(f"{manifest_path}: unexpected manifest columns")
        for row in reader:
            seg_id = int(row["segment_id"])
            t, values, _ = read_series(
                os.path.join(out_dir, "segments", f"segment_{seg_id:05d}.csv")
            )
            segments.append(
                RecordedSegment(
                    segment_id=seg_id,
                    stream_id=row["stream_id"],
                    raw_span=(int(row["start_index"]), int(row["end_index"])),
                    start_t=float(row["start_t"]),
                    end_t=float(row["end_t"]),
                    path=tuple(int(s) for s in row["path"].split("-")),
                    reason=row["reason"],
                    occurrence_index=int(row["occurrence_index"]),
                    t=t,
                    values=values,
                )
            )
    return segments


def write_stats(path: str, stats: RunStats) -> None:
    doc = {**dataclasses.asdict(stats), "recording_fraction": stats.recording_fraction}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_replay_table(path: str, runs: Sequence[RunStats]) -> None:
    """Per-run recording table: counts, per-run %, cumulative %."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "run",
                "detected_db",
                "recorded_db",
                "recorded_samples",
                "total_samples",
                "recording_pct",
                "cumulative_recording_pct",
            ]
        )
        for run, cum in zip(runs, cumulative_fractions(runs)):
            writer.writerow(
                [
                    run.run_index,
                    run.detected_db_count,
                    run.recorded_db_count,
                    run.recorded_sample_count,
                    run.total_sample_count,
                    f"{100.0 * run.recording_fraction:.2f}",
                    f"{100.0 * cum:.2f}",
                ]
            )


def write_features(
    path: str, segments: Sequence[RecordedSegment], forest: BehaviorForest
) -> None:
    """One row per distinct recorded pattern with the nine features.

    Features are computed over all member segments' values concatenated;
    occurrences is the forest's total count for the path, n_segments how
    many of those were recorded here.
    """
    groups: Dict[Tuple[int, ...], List[RecordedSegment]] = {}
    for seg in segments:
        groups.setdefault(seg.path, []).append(seg)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "occurrences", "n_segments", *FEATURE_NAMES])
        for p in sorted(groups):
            members = groups[p]
            stacked = np.concatenate([seg.values.ravel() for seg in members])
            feats = extract_features(stacked)
            writer.writerow(
                [
                    members[0].path_id,
                    forest.occurrence_count(p),
                    len(members),
                    *(repr(v) for v in feats.as_tuple()),
                ]
            )


def write_variance(
    long_path: str, summary_path: str, comparison: VarianceComparison
) -> None:
    """Long-format variances plus a five-number summary per group."""
    with open(long_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "variance"])
        for v in comparison.db_variances:
            writer.writerow(["db", repr(v)])
        for v in comparison.window_variances:
            writer.writerow(["window", repr(v)])
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["group", "n", "window_length", "lower_whisker", "p25", "median", "p75", "upper_whisker"]
        )
        for group, values in (
            ("db", comparison.db_variances),
            ("window", comparison.window_variances),
        ):
            s = (
                comparison.db_summary if group == "db" else comparison.window_summary
            )
            writer.writerow(
                [
                    group,
                    len(values),
                    comparison.window_length,
                    repr(s.lower_whisker),
                    repr(s.p25),
                    repr(s.median),
                    repr(s.p75),
                    repr(s.upper_whisker),
                ]
            )
