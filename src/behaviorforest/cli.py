"""Command-line front end.

Subcommands cover the full loop: generate a benchmark stream, discover and
record patterns, replay a dataset to watch recording decay, export pattern
features, compare variances, and render the forest as Graphviz.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from . import io as bfio
from .analysis import SyntheticSpec, compare_variances, generate_synthetic
from .core import (
    BufferOverflowError,
    ConfigError,
    DimensionMismatchError,
    EngineConfig,
    InvalidSampleError,
    SnapshotError,
)
from .engine import DiscoveryEngine, discover, replay
from .forest import BehaviorForest, forest_restore, forest_to_dot, snapshot_dumps
from .selection import cumulative_fractions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_OVERFLOW = 4

_EPILOG = (
    "exit codes: 0 success, 2 configuration or snapshot mismatch, "
    "3 input/output or malformed data, 4 look-back buffer overflow"
)


def _apply_overrides(config: EngineConfig, args) -> EngineConfig:
    changes = {}
    if getattr(args, "threshold", None) is not None:
        changes["relevance_threshold"] = args.threshold
    if getattr(args, "log_base", None) is not None:
        changes["log_base"] = args.log_base
    if getattr(args, "hysteresis", None) is not None:
        changes["hysteresis_margin"] = args.hysteresis
    if not changes:
        return config
    return dataclasses.replace(config, **changes)


def _check_counts(args) -> None:
    if args.buffer_capacity is not None and args.buffer_capacity < 1:
        raise ConfigError(f"--buffer-capacity must be >= 1, got {args.buffer_capacity}")
    if getattr(args, "runs", 1) < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")


def _load_streams(paths: List[str]):
    streams = []
    for path in paths:
        t, values, names = bfio.read_series(path)
        streams.append((os.path.basename(path), t, values, names))
    return streams


def _read_snapshot(path: str, expected_hash: Optional[str] = None) -> BehaviorForest:
    """The forest in a snapshot file; a malformed or too deep one is a SnapshotError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return forest_restore(json.load(fh), expected_config_hash=expected_hash)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise SnapshotError(f"{path}: snapshot nests too deeply to read") from None


def _write_text(path: str, *parts: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def _write_forest_outputs(out_dir: str, engine: DiscoveryEngine) -> None:
    # Each text is built before its file is opened, so a failed render
    # leaves no empty file behind.
    _write_text(
        os.path.join(out_dir, "forest.json"),
        snapshot_dumps(engine.forest, engine.config.config_hash()),
        "\n",
    )
    _write_text(os.path.join(out_dir, "forest.dot"), forest_to_dot(engine.forest))


def cmd_discover(args) -> int:
    _check_counts(args)
    config = _apply_overrides(bfio.load_config(args.config), args)
    prior = None
    if args.snapshot is not None:
        prior = _read_snapshot(args.snapshot, config.config_hash())
    loaded = _load_streams(args.inputs)
    streams = [(sid, t, v) for sid, t, v, _ in loaded]
    channel_names = loaded[0][3] if loaded else None
    engine, result = discover(
        config, streams, forest=prior, buffer_capacity=args.buffer_capacity
    )
    os.makedirs(args.out, exist_ok=True)
    bfio.write_segments(args.out, result.segments, channel_names)
    bfio.write_stats(os.path.join(args.out, "stats.json"), result.stats)
    _write_forest_outputs(args.out, engine)
    stats = result.stats
    print(
        f"{stats.detected_db_count} behaviors detected, "
        f"{stats.recorded_db_count} recorded "
        f"({100.0 * stats.recording_fraction:.2f}% of samples) -> {args.out}"
    )
    return EXIT_OK


def cmd_replay(args) -> int:
    _check_counts(args)
    config = _apply_overrides(bfio.load_config(args.config), args)
    loaded = _load_streams(args.inputs)
    streams = [(sid, t, v) for sid, t, v, _ in loaded]
    engine, results = replay(
        config, streams, runs=args.runs, buffer_capacity=args.buffer_capacity
    )
    runs = [result.stats for result in results]
    os.makedirs(args.out, exist_ok=True)
    bfio.write_replay_table(os.path.join(args.out, "replay.csv"), runs)
    bfio.write_stats(os.path.join(args.out, "stats.json"), runs[-1])
    _write_forest_outputs(args.out, engine)
    for run, cum in zip(runs, cumulative_fractions(runs)):
        print(
            f"run {run.run_index}: {run.recorded_db_count} recorded, "
            f"{100.0 * run.recording_fraction:.2f}% of samples "
            f"(cumulative {100.0 * cum:.2f}%)"
        )
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = SyntheticSpec(
        n_patterns=args.patterns,
        noise_sigma=args.noise_sigma,
        bursts_per_pattern=args.bursts_per_pattern,
        burst_len=args.burst_len,
        gap_len=args.gap_len,
        cluster_size=args.cluster_size,
        cluster_gap_len=args.cluster_gap_len,
    )
    t, values = generate_synthetic(args.seed, spec)
    bfio.write_series(args.out, t, values)
    print(f"{len(t)} samples, {values.shape[1]} channels -> {args.out}")
    return EXIT_OK


def cmd_features(args) -> int:
    segments = bfio.read_segments(args.segments)
    forest = _read_snapshot(args.snapshot or os.path.join(args.segments, "forest.json"))
    out = args.out or os.path.join(args.segments, "features.csv")
    bfio.write_features(out, segments, forest)
    print(f"{len(set(s.path for s in segments))} patterns -> {out}")
    return EXIT_OK


def cmd_variance(args) -> int:
    segments = bfio.read_segments(args.segments)
    if not segments:
        print("no recorded segments to compare", file=sys.stderr)
        return EXIT_IO
    _, values, _ = bfio.read_series(args.input)
    comparison = compare_variances([s.values for s in segments], values)
    out_dir = args.out or args.segments
    os.makedirs(out_dir, exist_ok=True)
    long_path = os.path.join(out_dir, "variance_long.csv")
    summary_path = os.path.join(out_dir, "variance_summary.csv")
    bfio.write_variance(long_path, summary_path, comparison)
    db_med = comparison.db_summary.median
    win_med = comparison.window_summary.median
    print(
        f"median variance: segments {db_med:.6g} vs windows {win_med:.6g} "
        f"(window {comparison.window_length} samples) -> {out_dir}"
    )
    return EXIT_OK


def cmd_dot(args) -> int:
    text = forest_to_dot(_read_snapshot(args.snapshot))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"forest graph -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behaviorforest",
        description="Pattern discovery and selective recording for time-series streams.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p, with_runs=False):
        p.add_argument("inputs", nargs="+", metavar="FILE", help="series files, processed in order")
        p.add_argument("--config", required=True, help="engine config JSON")
        p.add_argument("--out", required=True, help="output directory")
        if with_runs:
            p.add_argument("--runs", type=int, default=5, help="replay passes (default 5)")
        else:
            p.add_argument("--snapshot", default=None, help="prior forest snapshot to continue from")
        p.add_argument("--threshold", type=int, default=None, help="override relevance threshold")
        p.add_argument("--log-base", type=int, default=None, help="override reduction log base")
        p.add_argument("--hysteresis", type=float, default=None, help="override hysteresis margin")
        p.add_argument(
            "--buffer-capacity",
            type=int,
            default=None,
            help="look-back buffer capacity in samples (default unbounded)",
        )

    p = sub.add_parser("discover", help="one pass: detect, record, snapshot", epilog=_EPILOG)
    add_engine_flags(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("replay", help="repeat a dataset to watch recording decay", epilog=_EPILOG)
    add_engine_flags(p, with_runs=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gen", help="write a synthetic benchmark stream", epilog=_EPILOG)
    p.add_argument("--out", required=True, help="output series file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patterns", type=int, default=4, help="burst types to include (1-4)")
    p.add_argument("--bursts-per-pattern", type=int, default=10)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--burst-len", type=int, default=200)
    p.add_argument("--gap-len", type=int, default=600)
    p.add_argument("--cluster-size", type=int, default=None)
    p.add_argument("--cluster-gap-len", type=int, default=30000)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("features", help="export per-pattern feature rows", epilog=_EPILOG)
    p.add_argument("--segments", required=True, help="discover output directory")
    p.add_argument("--snapshot", default=None, help="forest snapshot (default: <segments>/forest.json)")
    p.add_argument("--out", default=None, help="output CSV (default: <segments>/features.csv)")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("variance", help="segment vs sliding-window variances", epilog=_EPILOG)
    p.add_argument("--segments", required=True, help="discover output directory")
    p.add_argument("--input", required=True, help="original series file")
    p.add_argument("--out", default=None, help="output directory (default: --segments)")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("dot", help="render a forest snapshot as Graphviz", epilog=_EPILOG)
    p.add_argument("--snapshot", required=True, help="forest snapshot JSON")
    p.add_argument("--out", default=None, help="output .dot file (default: stdout)")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SnapshotError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BufferOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (OSError, ValueError, InvalidSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
