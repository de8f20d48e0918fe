"""End-to-end discovery on the built-in synthetic stream.

Generates the two-channel benchmark stream (four repeating burst
patterns separated by idle stretches), runs discovery, and prints which
patterns were found, how often each recurs, and how little of the raw
stream was recorded.  Pass --out to also write the segment files.
"""

import argparse

from behaviorforest import (
    BreakpointSpec,
    EngineConfig,
    discover,
    generate_synthetic,
    write_segments,
)
from behaviorforest import io as bfio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--noise-sigma", type=float, default=0.05, help="noise level")
    parser.add_argument("--out", help="directory for segment files (optional)")
    args = parser.parse_args()

    t, values = generate_synthetic(args.seed, noise_sigma=args.noise_sigma)
    print(f"synthetic stream: {len(t)} samples, {values.shape[1]} channels")

    # One symbol boundary per channel at +-0.5 separates low / idle / high.
    config = EngineConfig(BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))))
    engine, result = discover(config, [("synthetic", t, values)])

    print(f"\ndistinct behavior paths: {len(engine.forest.terminal_paths())}")
    for path in engine.forest.terminal_paths():
        print(f"  {'-'.join(map(str, path))}  seen {engine.forest.occurrence_count(path)}x")

    stats = result.stats
    print(f"\nbehaviors detected: {stats.detected_db_count}")
    print(f"segments recorded:  {stats.recorded_db_count}")
    print(
        f"samples kept:       {stats.recorded_sample_count} of {stats.total_sample_count} "
        f"({100 * stats.recording_fraction:.2f}%)"
    )
    print("\nfirst few recorded segments:")
    for seg in result.segments[:5]:
        print(
            f"  #{seg.segment_id}  path {seg.path_id}  samples "
            f"{seg.raw_span[0]}..{seg.raw_span[1]}  reason={seg.reason}  "
            f"occurrence {seg.occurrence_index}"
        )

    if args.out:
        # The run replaces --out whole, so no segment file of an earlier run stays.
        with bfio.replacing_run(args.out) as out:
            write_segments(out, result.segments)
        print(f"\nsegment files written to {args.out}/")


if __name__ == "__main__":
    main()
