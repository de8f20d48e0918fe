"""Benchmark of behaviorforest: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload steady|flicker|cli_novel \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; it builds nothing, imports the
package from the checkout's `src/`, and writes only under `.bench_work/`.

Set-up, not timed: make the workload's input from the seed, then (trace 0)
measure `setup_s` in SETUP_PROBES fresh interpreters, or (trace 1) measure
the import of `scipy.stats` alone the same way.  Then `worker.py`, in one
fresh process, makes the timed calls for `--seconds` and checks each
call's outputs.  The load is a closed loop: one caller, one thread, each
call handing over a whole stream.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
give the provenance of the run and the spread of its calls; the same
record, and the spans of a traced run, are kept in `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end well within 180 s

# samples_per_s: input samples over the wall time of the timed calls.
# peak_mem_mb: rise of ru_maxrss over the RSS just before the first call.
# setup_s: median over fresh interpreters, see setup_probe.py.
# MB is 2**20 bytes throughout.
END_TO_END = {"samples_per_s": "samples/s", "peak_mem_mb": "MB", "setup_s": "s"}

# Medians over the traced calls of a run.  `*.s` is the total time inside a
# layer's calls and `*.self.s` that time minus its child spans.
# reduction_ratio is reduced symbols per input sample, novel_ratio the share
# of inserts that created a node, recorded_ratio recorded / detected.
# chunk_ms runs from one buffer extend (one 8,192-sample chunk) to the next;
# .tail is the highest percentile with ten chunks beyond it, at .tail_pct,
# over engine.chunks chunks.  accounted_ratio is the sum of all self times
# over the traced call's wall time; overhead_ratio is traced over untraced
# wall time.
PER_LAYER = {
    "selection.buffer_extend.s": "s",
    "preprocess.hysteresis.s": "s",
    "preprocess.self.s": "s",
    "preprocess.samples": "count",
    "preprocess.reduced_symbols": "count",
    "preprocess.reduction_ratio": "ratio",
    "forest.detect.s": "s",
    "forest.detect.calls": "count",
    "forest.insert.s": "s",
    "forest.behaviors": "count",
    "forest.novel_ratio": "ratio",
    "forest.nodes": "count",
    "forest.max_depth": "count",
    "selection.decide.s": "s",
    "selection.materialize.s": "s",
    "selection.buffer_extract.s": "s",
    "selection.recorded": "count",
    "selection.recorded_ratio": "ratio",
    "selection.recorded_samples": "count",
    "io.read_series.s": "s",
    "io.read_series.rows": "count",
    "io.write_segments.s": "s",
    "io.write_segments.files": "count",
    "io.write_segments.mb": "MB",
    "forest.snapshot.s": "s",
    "forest.snapshot.mb": "MB",
    "forest.dot.s": "s",
    "forest.dot.mb": "MB",
    "engine.process_stream.s": "s",
    "engine.self.s": "s",
    "engine.chunk_ms.p50": "ms",
    "engine.chunk_ms.tail": "ms",
    "engine.chunk_ms.tail_pct": "%",
    "engine.chunks": "count",
    "cli.main.s": "s",
    "cli.self.s": "s",
    "core.scipy_stats_import_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str | None:
    """HEAD of the checkout read from `.git`, or None outside a repository."""
    head = read_text(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = read_text(os.path.join(ROOT, ".git", ref)).strip()
        if not head:
            for line in read_text(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    return head or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "behaviorforest", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, loadavg: str, samples: int, channels: int) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "samples": samples,
        "channels": channels,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": loadavg,
    }


def quartiles(values) -> dict:
    xs = sorted(values)
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"n": len(xs), "min": xs[0], "q1": q1, "median": med, "q3": q3,
            "max": xs[-1], "iqr_share": (q3 - q1) / med if med else None}


def tail(values):
    """Highest percentile with at least ten values beyond it, and that percentile."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def probe(deadline: float, *argv: str) -> float:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark one behaviorforest workload.")
    p.add_argument("--workload", required=True, choices=("steady", "flicker", "cli_novel"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size as a share of the full workload (smoke tests)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    loadavg = read_text("/proc/loadavg").strip()

    for needed in ("src/behaviorforest/__init__.py", "configs/synthetic.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run this inside a behaviorforest checkout",
                  file=sys.stderr)
            return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import behaviorforest
    from workloads import WORKLOADS

    base = os.path.join(ROOT, ".bench_work")
    results = os.path.join(base, "results")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(results, exist_ok=True)
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](behaviorforest, ROOT, work, args.scale)
        t, values = wl.generate(args.seed)
        wl.prepare(t, values)
        samples, channels = values.shape
        del t, values

        if args.trace:
            probes = [probe(deadline, "--scipy") for _ in range(SETUP_PROBES)]
        else:
            probes = [probe(deadline, ROOT, args.workload, wl.config_path())
                      for _ in range(SETUP_PROBES)]

        expected = None
        if args.seed == 0 and args.scale == 1.0:
            with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
                expected = json.load(fh).get(args.workload)
        out = os.path.join(work, "worker.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--work", work, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale), "--out", out]
        if expected:
            cmd += ["--expected-digest", expected]
        if args.trace:
            cmd += ["--spans", os.path.join(results, tag + ".spans.npz")]
        with open(os.path.join(work, "worker.log"), "w", encoding="utf-8") as log:
            done = subprocess.run(cmd, stdout=log, check=False,
                                  timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise BenchError(f"measurement process exited with {done.returncode}")
        with open(out, encoding="utf-8") as fh:
            measured = json.load(fh)
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1]} ran past the {RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = measured["calls"]
    failed = sum(1 for c in calls if c["errors"])
    # The first call also probes memory; in a fresh process it is no slower
    # than later calls on these workloads, so it is timed like them.
    timed = [c["wall_s"] for c in calls if not c["traced"]]
    traced = [c["wall_s"] for c in calls if c["traced"]]
    if args.trace:
        metrics = dict(measured["layers"])
        chunk_tail, tail_pct = tail(measured["chunk_ms"])
        metrics.update({
            "engine.chunk_ms.p50": statistics.median(measured["chunk_ms"]),
            "engine.chunk_ms.tail": chunk_tail,
            "engine.chunk_ms.tail_pct": tail_pct,
            "engine.chunks": len(measured["chunk_ms"]),
            "core.scipy_stats_import_s": statistics.median(probes),
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(timed),
        })
        units = PER_LAYER
    else:
        metrics = {
            "samples_per_s": samples * len(timed) / sum(timed),
            "peak_mem_mb": measured["peak_mem_mb"],
            "setup_s": statistics.median(probes),
        }
        units = END_TO_END

    record = {
        "provenance": provenance(args, loadavg, samples, channels),
        "call_wall_s": quartiles(timed),
        "traced_call_wall_s": quartiles(traced) if traced else None,
        "probe_s": quartiles(probes),
        "digest": measured["digest"],
        "digest_checked": expected is not None,
        "calls": calls,
        "metrics": metrics,
    }
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}")
    print("provenance " + json.dumps(record["provenance"]))
    print("spread " + json.dumps({"call_wall_s": record["call_wall_s"],
                                  "probe_s": record["probe_s"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
