"""Command-line front end.

Subcommands cover the full loop: generate a benchmark stream, discover and
record patterns, replay a dataset to watch recording decay, export pattern
features, compare variances, and render the forest as Graphviz.  Every
file is read and written through `behaviorforest.io`, which also names the
files of a run directory and clears it for a new run; this module only
maps arguments to calls and failures to exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .forest import forest_to_dot, snapshot_dumps
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
    if args.threshold is None:
        return config
    return dataclasses.replace(config, relevance_threshold=args.threshold)


def _check_counts(args) -> None:
    if args.buffer_capacity is not None and args.buffer_capacity < 1:
        raise ConfigError(f"--buffer-capacity must be >= 1, got {args.buffer_capacity}")
    if getattr(args, "runs", 1) < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")


def _load_streams(paths: List[str]):
    """(basename, t, values) per input, plus the channel names they all share."""
    streams = []
    channel_names = None
    for path in paths:
        t, values, names = bfio.read_series(path)
        if channel_names is None:
            channel_names = names
        elif names != channel_names:  # the engine matches channels by position
            raise ValueError(f"{path}: channels {names} differ from {paths[0]}'s {channel_names}")
        streams.append((os.path.basename(path), t, values))
    return streams, channel_names


def _forest_texts(engine: DiscoveryEngine) -> tuple:
    """The forest snapshot and Graphviz texts, rendered before any file is written.

    A forest the snapshot format refuses then fails the command with `--out`
    untouched, instead of leaving a new run's files beside an old forest.
    """
    snapshot = snapshot_dumps(engine.forest, engine.config.config_hash()) + "\n"
    return snapshot, forest_to_dot(engine.forest)


def cmd_discover(args) -> int:
    _check_counts(args)
    config = _apply_overrides(bfio.load_config(args.config), args)
    prior = None
    if args.snapshot is not None:
        prior = bfio.read_snapshot(args.snapshot, config.config_hash())
    streams, channel_names = _load_streams(args.inputs)
    engine, result = discover(
        config, streams, forest=prior, buffer_capacity=args.buffer_capacity
    )
    texts = _forest_texts(engine)
    bfio.write_segments(args.out, result.segments, channel_names)
    bfio.write_run(args.out, result.stats, texts)
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
    streams, _ = _load_streams(args.inputs)
    engine, results = replay(
        config, streams, runs=args.runs, buffer_capacity=args.buffer_capacity
    )
    runs = [result.stats for result in results]
    texts = _forest_texts(engine)
    bfio.write_replay_table(args.out, runs)
    bfio.write_run(args.out, runs[-1], texts)
    for run, cum in zip(runs, cumulative_fractions(runs)):
        print(
            f"run {run.run_index}: {run.recorded_db_count} recorded, "
            f"{100.0 * run.recording_fraction:.2f}% of samples "
            f"(cumulative {100.0 * cum:.2f}%)"
        )
    return EXIT_OK


def cmd_gen(args) -> int:
    # Flags left out are absent from args, so SyntheticSpec supplies their defaults.
    names = {field.name for field in dataclasses.fields(SyntheticSpec)}
    fields = {name: value for name, value in vars(args).items() if name in names}
    t, values = generate_synthetic(args.seed, **fields)
    bfio.write_series(args.out, t, values)
    print(f"{len(t)} samples, {values.shape[1]} channels -> {args.out}")
    return EXIT_OK


def cmd_features(args) -> int:
    # Read the snapshot first: a bad one fails before any segment file is parsed.
    forest = bfio.read_snapshot(args.snapshot or os.path.join(args.segments, bfio.FOREST))
    segments = bfio.read_segments(args.segments)
    out = args.out or os.path.join(args.segments, bfio.FEATURES)
    bfio.write_features(out, segments, forest)
    print(f"{len(set(s.path for s in segments))} patterns -> {out}")
    return EXIT_OK


def cmd_variance(args) -> int:
    segments = bfio.read_segments(args.segments)
    _, values, _ = bfio.read_series(args.input)
    comparison = compare_variances([s.values for s in segments], values)
    out_dir = args.out or args.segments
    bfio.write_variance(out_dir, comparison)
    db_med = comparison.db_summary.median
    win_med = comparison.window_summary.median
    print(
        f"median variance: segments {db_med:.6g} vs windows {win_med:.6g} "
        f"(window {comparison.window_length} samples) -> {out_dir}"
    )
    return EXIT_OK


def cmd_dot(args) -> int:
    text = forest_to_dot(bfio.read_snapshot(args.snapshot))
    if args.out:
        bfio.write_text(args.out, text)
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
        p.add_argument(
            "--buffer-capacity",
            type=int,
            default=None,
            help="look-back buffer capacity in samples (default unbounded); a recorded "
            "span must start within N samples of the end of the chunk in which it closes",
        )

    p = sub.add_parser("discover", help="one pass: detect, record, snapshot", epilog=_EPILOG)
    add_engine_flags(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("replay", help="repeat a dataset to watch recording decay", epilog=_EPILOG)
    add_engine_flags(p, with_runs=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "gen",
        help="write a synthetic benchmark stream",
        epilog=_EPILOG,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--out", required=True, help="output series file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patterns", dest="n_patterns", type=int, help="burst types to include (1-4)")
    p.add_argument("--bursts-per-pattern", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--burst-len", type=int)
    p.add_argument("--gap-len", type=int)
    p.add_argument("--cluster-size", type=int)
    p.add_argument("--cluster-gap-len", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("features", help="export per-pattern feature rows", epilog=_EPILOG)
    p.add_argument("--segments", required=True, help="discover output directory")
    p.add_argument("--snapshot", default=None, help=f"forest snapshot (default: <segments>/{bfio.FOREST})")
    p.add_argument("--out", default=None, help=f"output CSV (default: <segments>/{bfio.FEATURES})")
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
