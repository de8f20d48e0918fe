"""Measurement process: calls one workload's operation in a loop.

run.py starts this in a fresh interpreter, so the first call runs in a
process that has run nothing larger and also gives the resident-memory
high-water mark.  Calls go on while the next one is expected to end
within `--seconds` of the first call's start.  With
`--trace 1`, traced and untraced calls alternate; the untraced ones give
the tracing overhead.  Outputs are checked after every call, outside the
timed region.  The result goes to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

MIN_CALLS = 3


def rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import behaviorforest
    import behaviorforest.cli  # noqa: F401  (sets behaviorforest.cli)

    where = os.path.dirname(os.path.abspath(behaviorforest.__file__))
    if where != os.path.join(src, "behaviorforest"):
        raise SystemExit(f"behaviorforest imported from {where}, not from {src}")
    return behaviorforest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--expected-digest", default=None)
    p.add_argument("--spans", default=None, help="where to write the spans (trace runs)")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    bf = import_program(args.root)
    from checks import check_outcome
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](bf, args.root, args.work, args.scale)
    wl.load()
    tracer = Tracer(bf) if args.trace else None

    calls, layers, chunks = [], [], []
    digest = peak_mb = deadline = None
    index = 0
    while True:
        if len(calls) >= MIN_CALLS:
            # Start another call only if it should end by the deadline.
            per_call = statistics.median(c["wall_s"] + c["check_s"] for c in calls)
            if time.perf_counter() + per_call > deadline:
                break
        traced = tracer is not None and index % 2 == 1
        wl.reset()
        if traced:
            tracer.install(index)
        output, errors = None, []
        rss0 = rss_bytes()
        t0 = time.perf_counter()
        if deadline is None:
            deadline = t0 + args.seconds
        try:
            output = wl.run()
        except Exception:  # a failed call is counted, not fatal
            errors.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        if traced:
            tracer.remove()
        if index == 0:
            peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss0) / (1 << 20)

        c0 = time.perf_counter()
        if output is not None:
            try:
                outcome = wl.collect(output)
                found, facts, digest = check_outcome(outcome, *wl.inputs(), args.expected_digest)
                errors += found
                if args.scale == 1.0:  # premises describe the full-size inputs
                    errors += wl.premise(outcome)
            except Exception:
                errors.append(traceback.format_exc(limit=3))
            else:
                if traced:
                    layers.append(tracer.op_metrics(index, wall) | {
                        "selection.recorded": outcome.recorded,
                        "selection.recorded_ratio": outcome.recorded / max(1, outcome.detected),
                        "selection.recorded_samples": outcome.recorded_samples,
                        "forest.nodes": facts.nodes,
                        "forest.max_depth": facts.max_depth,
                    })
                    chunks.extend(tracer.chunk_ms(index))
            outcome = output = None
        for message in errors:
            print(f"{args.workload} call {index}: {message}", file=sys.stderr)
        calls.append({"index": index, "wall_s": wall, "traced": traced,
                      "check_s": time.perf_counter() - c0, "errors": errors})
        index += 1

    if tracer is not None and args.spans:
        tracer.save(args.spans)
    t, values = wl.inputs()
    result = {
        "samples": int(values.shape[0]),
        "channels": int(values.shape[1]),
        "calls": calls,
        "peak_mem_mb": peak_mb,
        "digest": digest,
        "layers": {k: statistics.median(l[k] for l in layers) for k in layers[0]} if layers else {},
        "chunk_ms": chunks,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
