"""Smoke tests of the benchmark itself, on inputs a few percent of full size.

    python3 -m pytest -q benchmark/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import behaviorforest  # noqa: E402
import behaviorforest.cli  # noqa: E402,F401
from checks import check_outcome, union_length  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, flicker_series, piecewise_series  # noqa: E402

SCALE = 0.03


@pytest.fixture
def work():
    path = os.path.join(ROOT, ".bench_work", f"smoke-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def prepared(name, work, seed=0):
    wl = WORKLOADS[name](behaviorforest, ROOT, work, SCALE)
    wl.prepare(*wl.generate(seed))
    wl.load()
    return wl


def checked(wl):
    wl.reset()
    outcome = wl.collect(wl.run())
    errors, facts, digest = check_outcome(outcome, *wl.inputs())
    return outcome, errors, facts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_pass_their_checks(name, work):
    wl = prepared(name, work)
    outcome, errors, facts = checked(wl)
    assert errors == []
    assert outcome.segments and facts.nodes >= 2
    assert facts.terminal_sum == outcome.detected


def test_flicker_premise_holds_on_a_small_stream(work):
    wl = prepared("flicker", work)
    outcome, _, facts = checked(wl)
    assert wl.premise(outcome) == []
    assert facts.max_depth > outcome.total_samples // 2


@pytest.mark.parametrize("name", ["steady", "cli_novel"])
def test_checks_catch_corrupted_outputs(name, work):
    wl = prepared(name, work)
    wl.reset()
    outcome = wl.collect(wl.run())
    t, values = wl.inputs()
    seg = outcome.segments[0]
    seg.values = seg.values.copy()
    seg.values[0, 0] = np.nextafter(seg.values[0, 0], np.inf)
    outcome.total_insertions += 1
    outcome.recorded_samples -= 1
    errors, _, _ = check_outcome(outcome, t, values, expected_digest="0" * 64)
    text = "\n".join(errors)
    for fragment in ("samples differ", "terminal counts", "span union", "committed"):
        assert fragment in text


def test_generators_are_seeded():
    for make in (flicker_series, piecewise_series):
        a, b, c = make(1, 5000), make(1, 5000), make(2, 5000)
        assert np.array_equal(a[1], b[1]) and not np.array_equal(a[1], c[1])


def test_union_length_merges_overlaps():
    assert union_length([(5, 9), (0, 3), (2, 6), (20, 21)]) == 10


def test_trace_accounts_for_the_call_and_restores_the_program(work):
    wl = prepared("cli_novel", work)
    originals = (behaviorforest.cli.main, behaviorforest.io.read_series,
                 behaviorforest.forest.BehaviorForest.insert)
    tracer = Tracer(behaviorforest)
    wl.reset()
    tracer.install(0)
    t0 = time.perf_counter()
    try:
        wl.run()
    finally:
        wall = time.perf_counter() - t0
        tracer.remove()
    assert (behaviorforest.cli.main, behaviorforest.io.read_series,
            behaviorforest.forest.BehaviorForest.insert) == originals
    m = tracer.op_metrics(0, wall)
    outcome = wl.collect(0)
    n = len(wl.inputs()[0])
    assert 0.95 <= m["trace.accounted_ratio"] <= 1.0
    assert m["preprocess.samples"] == m["io.read_series.rows"] == n
    assert m["forest.behaviors"] == outcome.detected
    assert m["io.write_segments.files"] == outcome.recorded + 1
    assert m["io.write_segments.mb"] > 0 and m["forest.dot.mb"] > 0
    assert m["cli.self.s"] > 0 and m["engine.self.s"] > 0
    assert len(tracer.chunk_ms(0)) == -(-n // 8192)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "cli_novel",
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = last_json_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        cmd = [sys.executable, "benchmark/run.py", "--workload", "steady",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
