"""Acceptance gate: one test per release criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion then reports
exactly one PASSED/FAILED/SKIPPED line.  Every test also prints a
`criterion N: PASS/FAIL - detail` summary (shown by pytest on failure or
with -rA/-s) and enforces the stated tolerance and runtime budget.
Criteria 5 and 7 need external datasets and skip with instructions when
the environment variables are unset.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from oracles import forest_snapshot, node_at

from behaviorforest import cli
from behaviorforest.analysis import compare_variances, generate_synthetic
from behaviorforest.core import BreakpointSpec, EngineConfig
from behaviorforest.engine import discover, replay
from behaviorforest.forest import (
    BehaviorDetector,
    BehaviorForest,
    forest_restore,
    forest_to_dot,
)
from behaviorforest.io import load_config, read_series
from behaviorforest.preprocess import discretize_batch, fuse_symbols, run_copies, run_powers
from behaviorforest.selection import cumulative_fractions
from oracles import split_unified, unit_runs

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def two_channel_config() -> EngineConfig:
    return EngineConfig(BreakpointSpec(((-0.5, 0.5), (-0.5, 0.5))))


def test_criterion_1_reference_sequence_exact():
    """Symbol fixture -> two behaviors and the exact forest, in under 1 ms."""
    runs = unit_runs([1, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 2, 3, 4])

    def run_once():
        det = BehaviorDetector()
        forest = BehaviorForest()
        paths = []
        behaviors = det.step(runs)
        db = det.flush()
        if db is not None:
            behaviors.append(db)
        for db in behaviors:
            paths.append(db.path)
            forest.insert(db.path)
        return paths, forest

    run_once()  # warm-up outside the timed window
    t0 = time.perf_counter()
    paths, forest = run_once()
    elapsed_ms = 1e3 * (time.perf_counter() - t0)

    ok = paths == [(1, 2, 3, 2, 1), (1, 2, 3, 4)]
    ok = ok and set(forest.roots) == {1}
    expected_weights = {
        (1, 2): 2,
        (1, 2, 3): 2,
        (1, 2, 3, 2): 1,
        (1, 2, 3, 2, 1): 1,
        (1, 2, 3, 4): 1,
    }
    for prefix, weight in expected_weights.items():
        node = node_at(forest, prefix)
        ok = ok and node is not None and node.edge_weight == weight
    ok = ok and forest.occurrence_count((1, 2, 3, 2, 1)) == 1
    ok = ok and forest.occurrence_count((1, 2, 3, 4)) == 1
    ok = ok and sum(1 for _ in forest.iter_nodes()) == 6
    dot = forest_to_dot(forest)
    ok = ok and dot.count("label") == 11 and dot.count("->") == 5
    ok = ok and elapsed_ms < 1.0
    report(1, ok, f"two behaviors, exact forest, {elapsed_ms:.3f} ms")


def test_criterion_2_preprocessing_oracles():
    """Binning, run compression, and fusion against independent oracles."""
    t0 = time.perf_counter()
    ok = True

    # Discretization vs a linear-scan oracle on 1e5 random values.
    rng = np.random.default_rng(1234)
    bp = tuple(sorted(rng.normal(size=7)))
    values = rng.normal(scale=1.5, size=100_000)
    got = discretize_batch(values, bp)
    oracle = np.zeros(len(values), dtype=np.int64)
    for b in bp:  # count breakpoints <= value, one scan per breakpoint
        oracle += (values >= b).astype(np.int64)
    ok = ok and np.array_equal(got, oracle)

    # Run-compression copy counts vs the digit-count oracle, L in 1..1e4.
    lengths = np.arange(1, 10_001)
    for base in (2, 10):
        got = run_copies(lengths, run_powers(base)).tolist()
        for length, copies in zip(lengths.tolist(), got):
            expected = 1 if length == 1 else len(np.base_repr(length - 1, base))
            if copies != expected:
                ok = False
                break

    # Fusion bijectivity, exhaustive for all alphabets up to [5,5,5].
    for dims in (1, 2, 3):
        for sizes in itertools.product(range(2, 6), repeat=dims):
            space = math.prod(sizes)
            symbols = [split_unified(u, sizes) for u in range(space)]
            fused = fuse_symbols(np.array(symbols).T, sizes)
            ok = ok and fused.tolist() == list(range(space))
            ok = ok and len(set(symbols)) == space

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, ok, f"binning/compression/fusion oracles agree, {elapsed:.2f} s")


def test_criterion_3_synthetic_four_patterns():
    """Seeds 0..19: exactly 4 paths in >=95% at sigma=0.05, 100% at sigma=0."""
    t0 = time.perf_counter()
    config = two_channel_config()

    noisy_hits = 0
    for seed in range(20):
        t, values = generate_synthetic(seed, noise_sigma=0.05)
        engine, _ = discover(config, [("syn", t, values)])
        if len(engine.forest.terminal_paths()) == 4:
            noisy_hits += 1

    clean_hits = 0
    for seed in range(20):
        t, values = generate_synthetic(seed, noise_sigma=0.0)
        engine, _ = discover(config, [("syn", t, values)])
        if len(engine.forest.terminal_paths()) == 4:
            clean_hits += 1

    elapsed = time.perf_counter() - t0
    ok = noisy_hits >= 19 and clean_hits == 20 and elapsed < 10.0
    report(
        3,
        ok,
        f"4 paths in {noisy_hits}/20 noisy seeds, {clean_hits}/20 clean seeds, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_replay_saturation():
    """Recorded count per run is non-increasing and hits 0 once all paths pass the threshold."""
    t0 = time.perf_counter()
    config = two_channel_config()
    # Per-run occurrences per path: 1, 2, 3, 7.  The rarest path crosses
    # the threshold of 5 after run 5, so run 6 must record nothing.
    t, values = generate_synthetic(11, bursts_per_pattern=(1, 2, 3, 7))
    _, results = replay(config, [("syn", t, values)], runs=8)
    runs = [r.stats for r in results]
    recorded = [r.recorded_db_count for r in runs]
    cumulative = cumulative_fractions(runs)

    ok = all(a >= b for a, b in zip(recorded, recorded[1:]))
    ok = ok and all(c == 0 for c in recorded[5:])
    ok = ok and recorded[0] > 0
    ok = ok and all(a >= b for a, b in zip(cumulative, cumulative[1:]))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, f"recorded per run {recorded}, {elapsed:.2f} s")


def test_criterion_5_vehicle_replay_conditional():
    """Recorded-DB decay and ~3.99% total recording on the vehicle dataset."""
    data_dir = os.environ.get("BEHAVIORFOREST_VEHICLE_DIR")
    if not data_dir:
        pytest.skip("criterion 5: set BEHAVIORFOREST_VEHICLE_DIR to a directory of speed CSVs")
    config = load_config(os.path.join(CONFIG_DIR, "vehicle.json"))
    streams = []
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".csv"):
            t, values, _ = read_series(os.path.join(data_dir, name))
            streams.append((name, t, values))
    assert streams, f"no CSV files found in {data_dir}"
    _, results = replay(config, streams, runs=5)
    runs = [r.stats for r in results]
    recorded = [r.recorded_db_count for r in runs]
    total_pct = 100.0 * cumulative_fractions(runs)[-1]
    ok = abs(total_pct - 3.99) <= 1.5
    ok = ok and recorded[4] <= 0.05 * recorded[0]
    report(
        5,
        ok,
        f"recorded per run {recorded}, total recording {total_pct:.2f}% "
        f"(target 3.99 +- 1.5)",
    )


def test_criterion_6_variance_separation():
    """Recorded segments carry at least twice the median sliding-window variance."""
    t0 = time.perf_counter()

    # Constructed step fixture: rare short steps between huge flat stretches.
    step, gap = np.full(50, 2.0), np.zeros(300)
    pieces = [np.zeros(50_000)]
    for _ in range(5):
        pieces.extend([step, gap])
    pieces.append(np.zeros(50_000))
    series = np.concatenate(pieces).reshape(-1, 1)
    config = EngineConfig(BreakpointSpec(((-0.5, 0.5),)))
    _, result = discover(config, [("step", np.arange(len(series), dtype=float), series)])
    comp = compare_variances([s.values for s in result.segments], series)
    step_db = comp.db_summary.median
    step_win = comp.window_summary.median
    ok = len(result.segments) > 0 and step_db >= 2.0 * step_win

    # Synthetic dataset in its clustered layout: bursts arrive in clusters
    # separated by long idle stretches.
    t, values = generate_synthetic(3, cluster_size=10, gap_len=300, cluster_gap_len=30_000)
    _, result = discover(two_channel_config(), [("syn", t, values)])
    comp = compare_variances([s.values for s in result.segments], values)
    syn_db = comp.db_summary.median
    syn_win = comp.window_summary.median
    ok = ok and len(result.segments) > 0 and syn_db >= 2.0 * syn_win

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    detail = (
        f"step fixture {step_db:.4f} vs {step_win:.4f}, "
        f"synthetic {syn_db:.4f} vs {syn_win:.6f}, {elapsed:.2f} s"
    )
    report(6, ok, detail)

    data_dir = os.environ.get("BEHAVIORFOREST_VEHICLE_DIR")
    if data_dir:
        config = load_config(os.path.join(CONFIG_DIR, "vehicle.json"))
        streams = []
        for name in sorted(os.listdir(data_dir)):
            if name.endswith(".csv"):
                t, values, _ = read_series(os.path.join(data_dir, name))
                streams.append((name, t, values))
        segments = []
        full = []
        for name, t, values in streams:
            _, result = discover(config, [(name, t, values)])
            segments.extend(s.values for s in result.segments)
            full.append(values)
        comp = compare_variances(segments, np.concatenate(full))
        db_med, win_med = comp.db_summary.median, comp.window_summary.median
        ok = abs(db_med - 29.81) <= 0.3 * 29.81 and abs(win_med - 4.93) <= 0.3 * 4.93
        report(6, ok, f"vehicle medians {db_med:.2f} vs {win_med:.2f} (targets 29.81/4.93 +-30%)")


def test_criterion_7_ecg_pattern_counts_conditional():
    """Distinct path counts on normal vs abnormal ECG recordings."""
    normal_path = os.environ.get("BEHAVIORFOREST_ECG_NORMAL_CSV")
    abnormal_path = os.environ.get("BEHAVIORFOREST_ECG_ABNORMAL_CSV")
    if not (normal_path and abnormal_path):
        pytest.skip(
            "criterion 7: set BEHAVIORFOREST_ECG_NORMAL_CSV and "
            "BEHAVIORFOREST_ECG_ABNORMAL_CSV to heartbeat CSVs"
        )
    config = load_config(os.path.join(CONFIG_DIR, "ecg.json"))

    def distinct_paths(path):
        t, values, _ = read_series(path)
        engine, _ = discover(config, [(os.path.basename(path), t, values)])
        return len(engine.forest.terminal_paths())

    normal = distinct_paths(normal_path)
    abnormal = distinct_paths(abnormal_path)
    ok = abs(normal - 80) <= 0.25 * 80
    ok = ok and abs(abnormal - 6) <= 0.25 * 6
    ok = ok and abnormal < normal
    report(7, ok, f"distinct paths: normal {normal} (80 +-25%), abnormal {abnormal} (6 +-25%)")


def test_criterion_8_persistence_and_determinism(tmp_path):
    """Snapshots are lossless on 1000 random forests; seeded runs are byte-identical."""
    t0 = time.perf_counter()
    ok = True

    import random

    for seed in range(1000):
        rng = random.Random(seed)
        forest = BehaviorForest()
        for _ in range(rng.randint(1, 30)):
            length = rng.randint(2, 7)
            path = [rng.randint(0, 5)]
            while len(path) < length:
                nxt = rng.randint(0, 5)
                if len(path) == 1 and nxt == path[0]:
                    continue
                path.append(nxt)
            forest.insert(tuple(path))
        doc = forest_snapshot(forest, "h")
        restored = forest_restore(doc)
        if forest_snapshot(restored, "h") != doc:
            ok = False
            break
        if forest_to_dot(restored) != forest_to_dot(forest):
            ok = False
            break

    # Full seeded pipeline twice -> byte-identical output trees.
    data = tmp_path / "syn.csv"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"breakpoints": [[-0.5, 0.5], [-0.5, 0.5]]}))
    assert cli.main(["gen", "--out", str(data), "--seed", "5"]) == 0
    data2 = tmp_path / "syn2.csv"
    assert cli.main(["gen", "--out", str(data2), "--seed", "5"]) == 0
    ok = ok and data.read_bytes() == data2.read_bytes()

    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli.main(["discover", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    ok = ok and files_a == files_b and len(files_a) > 4
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            ok = False
            break

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(8, ok, f"1000 snapshot round-trips, byte-identical reruns, {elapsed:.2f} s")
