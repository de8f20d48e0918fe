"""Recording dries up as the forest saturates.

Replays the same synthetic stream several times against one persistent
forest.  Early runs record novel and still-rare behaviors; once every
path has been completed five times, nothing new is written at all.
"""

import argparse

from behaviorforest import (
    BreakpointSpec,
    EngineConfig,
    generate_synthetic,
    replay,
)
from behaviorforest.selection import cumulative_fractions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=8, help="number of replays")
    parser.add_argument("--threshold", type=int, default=5, help="recordings per path")
    args = parser.parse_args()

    # Patterns recur 1x, 2x, 3x and 7x per run, so they cross the
    # occurrence threshold at different replays.
    t, values = generate_synthetic(11, bursts_per_pattern=(1, 2, 3, 7))
    config = EngineConfig(
        BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))),
        relevance_threshold=args.threshold,
    )

    engine, results = replay(config, [("synthetic", t, values)], runs=args.runs)
    runs = [result.stats for result in results]

    print(f"{args.runs} replays of the same {len(t)}-sample stream, threshold {args.threshold}:")
    print(f"{'run':>4} {'detected':>9} {'recorded':>9} {'kept %':>8} {'cumulative %':>13}")
    for run, frac in zip(runs, cumulative_fractions(runs)):
        print(
            f"{run.run_index:>4} {run.detected_db_count:>9} {run.recorded_db_count:>9} "
            f"{100 * run.recording_fraction:>8.2f} {100 * frac:>13.2f}"
        )

    print("\nforest after all runs:")
    for path in engine.forest.terminal_paths():
        print(f"  {'-'.join(map(str, path))}  completed {engine.forest.occurrence_count(path)}x")


if __name__ == "__main__":
    main()
