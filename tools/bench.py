"""Keep benchmark runs as BENCH files.

    python3 tools/bench.py record LABEL [--root CHECKOUT] [--scale S] [--seconds T]

`record` runs `<root>/benchmark/run.py` for every workload that
`<root>/BENCHMARK.json` names, once with `--trace 0` (the end-to-end
metrics) and once with `--trace 1` (the per-layer metrics), at seed 0.
The runs go one after another, each a fresh process.  It writes
`BENCH_<LABEL>.json` at the root of the checkout this script is in, with
each run's provenance, call-time spread and result line as run.py printed
them.  CHECKOUT defaults to that same checkout, T to BENCHMARK.json's
`run_seconds` and S to 1 (the full workloads).  The script reads only what
run.py prints, so it can record any checkout whose run.py prints those
lines.  It exits 1 if a run gave no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0


def label(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z0-9._-]+", text):
        raise argparse.ArgumentTypeError(f"label {text!r} is not letters, digits, '.', '_', '-'")
    return text


def run_once(root: str, workload: str, trace: int, seconds: float, scale: float) -> dict:
    """One run.py run as {"workload", "trace", "provenance", "spread", "result"}."""
    cmd = [sys.executable, os.path.join(root, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    run = {"workload": workload, "trace": trace, "provenance": None, "spread": None,
           "result": None}
    lines = done.stdout.splitlines()
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("provenance", "spread"):
            run[key] = json.loads(rest)
    if done.returncode == 0 and lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    else:
        run["error"] = f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"
    return run


def record(args) -> int:
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            run = run_once(root, workload["name"], trace, seconds, args.scale)
            result = run["result"]
            print(f"{workload['name']} trace {trace}: " + (f"correct {result['correct']}, failed "
                  f"{result['failed']}" if result else run["error"]), file=sys.stderr)
            runs.append(run)
    first = next((r["provenance"] for r in runs if r["provenance"]), {})
    doc = {
        "label": args.label,
        "git_commit": first.get("git_commit"),
        "source_sha256": first.get("source_sha256"),
        "seed": SEED,
        "seconds": seconds,
        "scale": args.scale,
        "runs": runs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r["result"] for r in runs) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Keep behaviorforest benchmark runs as BENCH files.")
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every workload once untraced and once traced")
    rec.add_argument("label", type=label, help="the file is BENCH_<label>.json")
    rec.add_argument("--root", default=ROOT, help="checkout whose benchmark/run.py is run")
    rec.add_argument("--scale", type=float, default=1.0,
                     help="input size as a share of the full workload")
    rec.add_argument("--seconds", type=float, default=None,
                     help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    args = p.parse_args(argv)
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
