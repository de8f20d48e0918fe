"""What did we keep?  Variance checks and per-pattern features.

Runs discovery on a clustered synthetic stream (bursts arrive in
clusters separated by long idle gaps), then shows that the recorded
segments sit in a far more dynamic regime than the stream at large, and
summarizes each discovered pattern with distribution features.
"""

import numpy as np

from behaviorforest import (
    FEATURE_NAMES,
    BreakpointSpec,
    EngineConfig,
    compare_variances,
    discover,
    extract_features,
    generate_synthetic,
)


def main() -> None:
    t, values = generate_synthetic(3, cluster_size=10, gap_len=300, cluster_gap_len=30_000)
    print(f"clustered stream: {len(t)} samples (mostly idle)")

    config = EngineConfig(BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))))
    engine, result = discover(config, [("synthetic", t, values)])
    print(
        f"recorded {result.stats.recorded_db_count} segments, "
        f"{100 * result.stats.recording_fraction:.2f}% of all samples"
    )

    # Compare recorded-segment variance against sliding windows of the
    # same typical length over the whole stream.
    comp = compare_variances([s.values for s in result.segments], values)
    print(f"\nvariance, recorded segments vs whole stream (window {comp.window_length}):")
    print(f"  segments: median {comp.db_summary.median:.4f}  IQR "
          f"[{comp.db_summary.p25:.4f}, {comp.db_summary.p75:.4f}]")
    print(f"  windows : median {comp.window_summary.median:.6f}  IQR "
          f"[{comp.window_summary.p25:.6f}, {comp.window_summary.p75:.6f}]")
    ratio = comp.db_summary.median / max(comp.window_summary.median, 1e-12)
    print(f"  recorded segments are {ratio:.0f}x more dynamic at the median")

    # Distribution features per discovered pattern, over the samples of
    # all segments that completed that pattern.
    print("\nper-pattern features:")
    header = "  ".join(f"{name:>9}" for name in FEATURE_NAMES)
    print(f"{'pattern':>24}  {header}")
    by_path: dict[str, list[np.ndarray]] = {}
    for seg in result.segments:
        by_path.setdefault(seg.path_id, []).append(seg.values)
    for path_id, chunks in sorted(by_path.items()):
        feats = extract_features(np.concatenate(chunks))
        row = "  ".join(f"{v:>9.3f}" for v in feats)
        print(f"{path_id:>24}  {row}")


if __name__ == "__main__":
    main()
