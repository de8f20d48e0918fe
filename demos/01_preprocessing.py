"""From raw samples to a compact symbol stream.

Walks the preprocessing stages one at a time: value-to-bin
discretization, hysteresis debouncing at bin boundaries, channel fusion
with logarithmic run compression, and the pipeline that chains them.
Everything prints; no files are written.
"""

import numpy as np

from behaviorforest import (
    BreakpointSpec,
    EngineConfig,
    HysteresisFilter,
    PreprocessPipeline,
    discretize_batch,
    gaussian_breakpoints,
)


def pipeline_for(channels, **config) -> PreprocessPipeline:
    return PreprocessPipeline(EngineConfig(BreakpointSpec(channels), **config), "demo")


def all_runs(pipeline: PreprocessPipeline, values) -> np.ndarray:
    """Run rows of a whole recording: the chunk's closed runs plus the flush."""
    return np.concatenate([pipeline.process_batch(values), pipeline.flush()])


def main() -> None:
    # --- Stage 1: discretization -----------------------------------------
    # Breakpoints can come from equiprobable bins under a standard normal...
    bp = gaussian_breakpoints(4)
    print("equiprobable breakpoints for 4 bins:", np.round(bp, 4))

    # ...or be chosen by hand.  Bins are half-open: a value sitting exactly
    # on a breakpoint belongs to the bin above it.
    bp = (-0.5, 0.5)
    values = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for v, b in zip(values, discretize_batch(values, bp)):
        print(f"  value {v:+.2f} -> bin {b}")

    # --- Stage 2: hysteresis ----------------------------------------------
    # A signal hovering at a boundary flickers between bins.  The filter
    # only lets a bin change through once the value has pushed past the
    # breakpoint by a fraction of the committed bin's width.
    rng = np.random.default_rng(7)
    hover = 0.5 + 0.03 * rng.standard_normal(20)
    plain = discretize_batch(hover, bp).tolist()
    debounced = HysteresisFilter(bp, margin=0.1).run(hover).tolist()
    print("\nsignal hovering at the 0.5 boundary:")
    print("  plain binning :", plain, f"({len(set(plain))} distinct bins)")
    print("  with hysteresis:", debounced, f"({len(set(debounced))} distinct bins)")

    # --- Stage 3: fusion and run compression ------------------------------
    # Two channels with 3 bins each fuse into one symbol out of 9; the first
    # channel is the most significant digit.  Each frame below differs from
    # the last, so each one is a run of its own.
    pipeline = pipeline_for(((-0.5, 0.5), (-0.5, 0.5)), hysteresis_margin=0.0)
    pairs = [(0, 0), (1, 2), (2, 2)]
    frames = np.array([-1.0, 0.0, 1.0])[np.array(pairs)]  # bin j -> a value inside it
    for pair, (symbol, *_) in zip(pairs, all_runs(pipeline, frames).tolist()):
        print(f"channel bins {pair} -> unified symbol {symbol}")

    # A run of L identical symbols is kept as ceil(log10 L) copies, so a
    # ten-minute idle stretch costs about as much as a one-minute one.
    print("\nrun length -> copies kept (base 10):")
    for length in (1, 5, 10, 99, 100, 5000):
        pipeline = pipeline_for(((0.5,),), log_base=10)
        copies = all_runs(pipeline, np.zeros(length))[0, 3]
        print(f"  {length:5d} -> {copies}")

    # --- All together ------------------------------------------------------
    # The pipeline chains the stages and reports one row per run: the fused
    # symbol, the half-open raw index span it covers and its copy count.
    pipeline = pipeline_for(((-0.5, 0.5), (-0.5, 0.5)))
    values = np.zeros((300, 2))
    values[100:120, 0] = 1.0  # channel 1 steps high for 20 samples
    values[100:120, 1] = -1.0  # channel 2 mirrors it

    print("\nruns of a 300-sample recording with one 20-sample event:")
    for symbol, start, end, copies in all_runs(pipeline, values).tolist():
        print(
            f"  symbol {symbol}  raw span ({start}, {end})  "
            f"covers a run of {end - start}, kept as {copies} copies"
        )


if __name__ == "__main__":
    main()
