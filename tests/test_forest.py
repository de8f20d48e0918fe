"""Behavior detection over runs and the weighted prefix forest."""

import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ObjectForest,
    ReducedSymbol,
    RunBehaviorDetector,
    StepBehaviorDetector,
    StepPipeline,
    forest_snapshot,
    node_at,
    path_id_dot,
    unit_runs,
)

from behaviorforest.core import BreakpointSpec, ConfigError, EngineConfig, SnapshotError
from behaviorforest.forest import (
    TERMINATED_BY_PLATEAU,
    TERMINATED_BY_STREAM_END,
    V1_MAX_DEPTH,
    BehaviorDetector,
    BehaviorForest,
    DiscoveredBehavior,
    forest_restore,
    forest_to_dot,
    snapshot_dumps,
)
from behaviorforest.io import read_snapshot, write_text
from behaviorforest.preprocess import PreprocessPipeline

CANONICAL_SYMBOLS = [1, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 2, 3, 4]


def feed(detector, symbols, flush=True):
    """Drive the per-copy oracle with unit-span reduced symbols; collect behaviors."""
    copies = [ReducedSymbol(s, (i, i + 1), 1) for i, s in enumerate(symbols)]
    return feed_copies(detector, copies, flush)


def feed_copies(detector, copies, flush=True):
    """Drive the per-copy oracle with reduced-symbol copies; collect behaviors."""
    out = []
    for rs in copies:
        db = detector.step(rs)
        if db is not None:
            out.append(db)
    if flush:
        db = detector.flush()
        if db is not None:
            out.append(db)
    return out


def with_paths(forest):
    """(path, edge_weight, terminal_count) for every row of `forest.iter_nodes()`, in order."""
    path = []
    for depth, symbol, weight, terminal in forest.iter_nodes():
        del path[depth - 1 :]
        path.append(symbol)
        yield tuple(path), weight, terminal


class TestDetector:
    """The per-copy oracle on unit-span copies."""

    def test_canonical_sequence(self):
        dbs = feed(StepBehaviorDetector(), CANONICAL_SYMBOLS)
        assert [db.path for db in dbs] == [(1, 2, 3, 2, 1), (1, 2, 3, 4)]
        assert dbs[0].termination == TERMINATED_BY_PLATEAU
        assert dbs[1].termination == TERMINATED_BY_STREAM_END

    def test_canonical_raw_spans(self):
        dbs = feed(StepBehaviorDetector(), CANONICAL_SYMBOLS)
        # First behavior: stationary run starts at 0, the terminating run's
        # first copy ends at 7.  Second: rooted at that plateau (index 6),
        # cut off by end of stream at 14.
        assert dbs[0].raw_span == (0, 7)
        assert dbs[1].raw_span == (6, 14)

    def test_terminating_symbol_kept_exactly_once(self):
        dbs = feed(StepBehaviorDetector(), [5, 5, 7, 7, 7])
        assert [db.path for db in dbs] == [(5, 7)]

    def test_repeats_below_plateau_stay_in_path(self):
        dbs = feed(StepBehaviorDetector(), [1, 1, 2, 2, 3, 3, 3])
        assert [db.path for db in dbs] == [(1, 2, 2, 3)]

    def test_no_context_no_behavior(self):
        # The 5 never reaches the initiation context, so tracking restarts.
        assert feed(StepBehaviorDetector(), [5, 7, 7, 7]) == []
        assert feed(StepBehaviorDetector(), [5, 5, 5, 5]) == []
        assert feed(StepBehaviorDetector(), [3]) == []
        assert feed(StepBehaviorDetector(), []) == []

    def test_plateau_chains_to_next_behavior(self):
        symbols = [1, 1, 2, 2, 2, 3, 3, 3]
        dbs = feed(StepBehaviorDetector(), symbols)
        assert [db.path for db in dbs] == [(1, 2), (2, 3)]
        # Second behavior is rooted where the plateau run began (index 2)
        # and ends with the first copy of its own terminating run.
        assert dbs[0].raw_span == (0, 3)
        assert dbs[1].raw_span == (2, 6)

    def test_flush_closes_open_behavior(self):
        det = StepBehaviorDetector()
        dbs = feed(det, [4, 4, 6, 2], flush=False)
        assert dbs == []
        db = det.flush()
        assert db.path == (4, 6, 2)
        assert db.termination == TERMINATED_BY_STREAM_END
        assert db.raw_span == (0, 4)

    def test_flush_resets_the_detector(self):
        det = StepBehaviorDetector()
        feed(det, [1, 1, 2])
        assert feed(det, CANONICAL_SYMBOLS) == feed(StepBehaviorDetector(), CANONICAL_SYMBOLS)

    def test_custom_termination_run(self):
        dbs = feed(StepBehaviorDetector(termination_run=4), [1, 1, 2, 3, 3, 3, 3])
        assert [db.path for db in dbs] == [(1, 2, 3)]

    def test_custom_initiation_context(self):
        # With a 1-copy context a single symbol is enough to arm.
        dbs = feed(StepBehaviorDetector(initiation_context=1), [5, 7, 7, 7])
        assert [db.path for db in dbs] == [(5, 7)]

    def test_spans_carry_run_lengths(self):
        # Copies of one compressed run share the run's full raw span, the
        # shape the reduction stage emits.
        det = StepBehaviorDetector()
        reduced = [
            ReducedSymbol(1, (0, 40), 40),
            ReducedSymbol(1, (0, 40), 40),
            ReducedSymbol(2, (40, 41), 1),
            ReducedSymbol(1, (41, 130), 89),
            ReducedSymbol(1, (41, 130), 89),
            ReducedSymbol(1, (41, 130), 89),
        ]
        dbs = [db for rs in reduced if (db := det.step(rs)) is not None]
        assert len(dbs) == 1
        assert dbs[0].path == (1, 2, 1)
        # Root run starts at 0; the terminating run's span ends at 130.
        assert dbs[0].raw_span == (0, 130)

    def test_rejects_degenerate_parameters(self):
        # The detector refuses what a config refuses, with the config's message.
        for kwargs in (
            {"termination_run": 1},
            {"initiation_context": 0},
            {"termination_run": float("nan")},
            {"termination_run": float("inf")},
            {"termination_run": 2.5},
            {"termination_run": 3.0},
            {"initiation_context": True},
            {"initiation_context": float("nan")},
        ):
            with pytest.raises(ConfigError) as refused:
                BehaviorDetector(**kwargs)
            with pytest.raises(ConfigError, match=re.escape(str(refused.value))):
                EngineConfig(BreakpointSpec(((0.0,),)), **kwargs)

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            DiscoveredBehavior((1,), (0, 1), TERMINATED_BY_PLATEAU)
        with pytest.raises(ValueError):
            DiscoveredBehavior((1, 1), (0, 2), TERMINATED_BY_PLATEAU)
        with pytest.raises(ValueError):
            DiscoveredBehavior((1, 2), (0, 2), "whatever")


def feed_runs(detector, runs, flush=True):
    """Drive the run detector with run rows in one call; collect behaviors."""
    out = detector.step(np.asarray(runs, dtype=np.int64).reshape(-1, 4))
    if flush:
        db = detector.flush()
        if db is not None:
            out.append(db)
    return out


def expand(runs):
    """The per-copy stream of run rows: `copies` equal copies per run."""
    return [
        ReducedSymbol(symbol, (start, end), end - start)
        for symbol, start, end, copies in np.asarray(runs).tolist()
        for _ in range(copies)
    ]


class TestRunDetector:
    """The library detector on run rows.

    Equal neighbours of the oracle's unit-span copies merge into one run, so
    a closing plateau's span reaches the end of its run.
    """

    def test_canonical_sequence(self):
        dbs = feed_runs(BehaviorDetector(), unit_runs(CANONICAL_SYMBOLS))
        assert [db.path for db in dbs] == [(1, 2, 3, 2, 1), (1, 2, 3, 4)]
        # Paths and spans hold Python ints, as the JSON snapshot needs.
        assert {type(x) for db in dbs for x in (*db.path, *db.raw_span)} == {int}
        assert [db.termination for db in dbs] == [
            TERMINATED_BY_PLATEAU,
            TERMINATED_BY_STREAM_END,
        ]

    def test_canonical_raw_spans(self):
        dbs = feed_runs(BehaviorDetector(), unit_runs(CANONICAL_SYMBOLS))
        # The first behavior closes with the 1-run over [6, 11), which then
        # roots the second one, cut off by end of stream at 14.
        assert [db.raw_span for db in dbs] == [(0, 11), (6, 14)]

    def test_terminating_symbol_kept_exactly_once(self):
        dbs = feed_runs(BehaviorDetector(), unit_runs([5, 5, 7, 7, 7]))
        assert [(db.path, db.raw_span) for db in dbs] == [((5, 7), (0, 5))]

    def test_repeats_below_plateau_stay_in_path(self):
        dbs = feed_runs(BehaviorDetector(), unit_runs([1, 1, 2, 2, 3, 3, 3]))
        assert [(db.path, db.raw_span) for db in dbs] == [((1, 2, 2, 3), (0, 7))]

    def test_no_context_no_behavior(self):
        for symbols in ([5, 7, 7, 7], [5, 5, 5, 5], [3], []):
            assert feed_runs(BehaviorDetector(), unit_runs(symbols)) == []

    def test_plateau_chains_to_next_behavior(self):
        dbs = feed_runs(BehaviorDetector(), unit_runs([1, 1, 2, 2, 2, 3, 3, 3]))
        assert [db.path for db in dbs] == [(1, 2), (2, 3)]
        assert [db.raw_span for db in dbs] == [(0, 5), (2, 8)]

    def test_flush_closes_open_behavior(self):
        det = BehaviorDetector()
        assert feed_runs(det, unit_runs([4, 4, 6, 2]), flush=False) == []
        db = det.flush()
        assert (db.path, db.raw_span, db.termination) == (
            (4, 6, 2),
            (0, 4),
            TERMINATED_BY_STREAM_END,
        )

    def test_flush_resets_the_detector(self):
        det = BehaviorDetector()
        feed_runs(det, unit_runs([1, 1, 2]))
        runs = unit_runs(CANONICAL_SYMBOLS)
        assert feed_runs(det, runs) == feed_runs(BehaviorDetector(), runs)

    def test_custom_termination_run(self):
        dbs = feed_runs(BehaviorDetector(termination_run=4), unit_runs([1, 1, 2, 3, 3, 3, 3]))
        assert [(db.path, db.raw_span) for db in dbs] == [((1, 2, 3), (0, 7))]

    def test_custom_initiation_context(self):
        dbs = feed_runs(BehaviorDetector(initiation_context=1), unit_runs([5, 7, 7, 7]))
        assert [(db.path, db.raw_span) for db in dbs] == [((5, 7), (0, 4))]

    def test_spans_carry_run_lengths(self):
        runs = [(1, 0, 40, 2), (2, 40, 41, 1), (1, 41, 130, 3)]
        dbs = feed_runs(BehaviorDetector(), runs, flush=False)
        assert [(db.path, db.raw_span) for db in dbs] == [((1, 2, 1), (0, 130))]

    def test_short_closing_plateau_does_not_arm(self):
        # With a 5-copy context, the 3-run closes a behavior but cannot arm
        # the next one, so the 4 after it restarts the context; the 6-run
        # closes one and arms the 8.
        runs = [
            (1, 0, 10, 5),
            (2, 10, 11, 1),
            (3, 11, 20, 3),
            (4, 20, 21, 1),
            (5, 21, 30, 5),
            (6, 30, 31, 1),
            (7, 31, 40, 6),
            (8, 40, 41, 1),
        ]
        dbs = feed_runs(BehaviorDetector(3, initiation_context=5), runs)
        assert [(db.path, db.raw_span, db.termination) for db in dbs] == [
            ((1, 2, 3), (0, 20), TERMINATED_BY_PLATEAU),
            ((5, 6, 7), (21, 40), TERMINATED_BY_PLATEAU),
            ((7, 8), (31, 41), TERMINATED_BY_STREAM_END),
        ]
        assert dbs == feed_copies(StepBehaviorDetector(3, initiation_context=5), expand(runs))

    def test_empty_step_and_split_steps(self):
        det = BehaviorDetector()
        assert det.step(np.empty((0, 4), dtype=np.int64)) == []
        runs = unit_runs(CANONICAL_SYMBOLS)
        split = [db for row in runs for db in det.step(row[None, :])]
        split.append(det.flush())
        assert split == feed_runs(BehaviorDetector(), runs)


@st.composite
def piece_stream(draw):
    """One channel of constant pieces over four bins, optionally noisy."""
    pieces = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 200)), max_size=20))
    levels = np.array([-1.5, -0.5, 0.5, 1.5])
    values = np.repeat(levels[[b for b, _ in pieces]], [n for _, n in pieces])
    sigma = draw(st.sampled_from([0.0, 0.45]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return values + sigma * rng.standard_normal(len(values))


@given(
    values=piece_stream(),
    termination_run=st.integers(2, 5),
    initiation_context=st.integers(1, 6),
    log_base=st.integers(2, 10),
    chunk_size=st.integers(1, 100),
)
@settings(max_examples=300, deadline=None)
def test_run_detector_matches_copy_oracle(
    values, termination_run, initiation_context, log_base, chunk_size
):
    config = EngineConfig(
        BreakpointSpec(((-1.0, 0.0, 1.0),)),
        log_base=log_base,
        termination_run=termination_run,
        initiation_context=initiation_context,
    )
    ref = StepPipeline(config)
    copies = [rs for v in values.tolist() for rs in ref.step((v,))] + ref.flush()
    expected = feed_copies(StepBehaviorDetector(termination_run, initiation_context), copies)

    pipeline = PreprocessPipeline(config)
    detector = BehaviorDetector(termination_run, initiation_context)
    got = []
    for lo in range(0, len(values), chunk_size):
        got += detector.step(pipeline.process_batch(values[lo : lo + chunk_size]))
    got += detector.step(pipeline.flush())
    got += [db for db in [detector.flush()] if db is not None]
    assert got == expected


@st.composite
def run_table(draw):
    """Run rows with distinct neighbouring symbols and back-to-back spans."""
    rows, start, symbol = [], 0, None
    for _ in range(draw(st.integers(0, 40))):
        step = draw(st.integers(0, 3) if symbol is None else st.integers(1, 3))
        symbol = (step if symbol is None else symbol + step) % 4
        length = draw(st.integers(1, 5))
        rows.append((symbol, start, start + length, draw(st.integers(1, 7))))
        start += length
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


@given(
    runs=run_table(),
    termination_run=st.integers(2, 5),
    initiation_context=st.integers(1, 7),
    data=st.data(),
)
@settings(max_examples=500, deadline=None)
def test_per_behavior_detector_matches_per_run_and_copy_oracles(
    runs, termination_run, initiation_context, data
):
    # Repeated cuts give 0-row chunks, adjacent ones 1-row chunks.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(runs)), max_size=10)))

    def drive(detector):
        out = []
        for lo, hi in zip([0, *cuts], [*cuts, len(runs)]):
            out += detector.step(runs[lo:hi])
        return out + [db for db in [detector.flush()] if db is not None]

    got = drive(BehaviorDetector(termination_run, initiation_context))
    assert got == drive(RunBehaviorDetector(termination_run, initiation_context))
    copy_oracle = StepBehaviorDetector(termination_run, initiation_context)
    assert got == feed_copies(copy_oracle, expand(runs))


class TestForest:
    def test_canonical_forest_shape(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3, 2, 1))
        forest.insert((1, 2, 3, 4))
        assert [(path, weight) for path, weight, _ in with_paths(forest)] == [
            ((1,), 0),
            ((1, 2), 2),
            ((1, 2, 3), 2),
            ((1, 2, 3, 2), 1),
            ((1, 2, 3, 2, 1), 1),
            ((1, 2, 3, 4), 1),
        ]
        assert set(forest.roots) == {1}
        assert forest.occurrence_count((1, 2, 3, 2, 1)) == 1
        assert forest.occurrence_count((1, 2, 3, 4)) == 1
        assert forest.occurrence_count((1, 2)) == 0

    def test_insertion_receipts(self):
        forest = BehaviorForest()
        r1 = forest.insert((5, 7))
        assert r1.created_new_node and r1.prior_terminal_count == 0
        r2 = forest.insert((5, 7))
        assert not r2.created_new_node and r2.prior_terminal_count == 1
        r3 = forest.insert((5, 7, 9))
        assert r3.created_new_node and r3.prior_terminal_count == 0
        # A new leaf under an existing prefix still counts as novel.
        assert node_at(forest, (5, 7)).edge_weight == 3

    def test_prefix_terminals_are_independent(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3))
        forest.insert((1, 2))
        assert forest.occurrence_count((1, 2)) == 1
        assert forest.occurrence_count((1, 2, 3)) == 1
        assert forest.total_insertions == 2
        assert sum(row[3] for row in forest.iter_nodes()) == 2

    @given(
        st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=7), min_size=2, max_size=12),
        st.integers(1, 11),
    )
    @settings(max_examples=150, deadline=None)
    def test_nodes_from_roots_keep_their_values(self, paths, cut):
        """Nodes read from `roots` stay those of the forest they were read from."""

        def tree(roots):
            rows, stack = [], [((s,), node) for s, node in roots.items()]
            while stack:
                path, node = stack.pop()
                rows.append((path, node.symbol, node.edge_weight, node.terminal_count))
                stack.extend((path + (s,), child) for s, child in node.children.items())
            return sorted(rows)

        forest, earlier = BehaviorForest(), BehaviorForest()
        for path in paths[:cut]:
            forest.insert(path)
            earlier.insert(path)
        roots = forest.roots
        for path in paths[cut:]:
            forest.insert(path)
        assert tree(roots) == tree(earlier.roots)

    def test_root_chain_splits_after_the_root_then_mid_chain(self):
        forest = BehaviorForest()
        assert forest.insert((0, 1, 2, 3)).created_new_node
        assert list(forest.iter_nodes()) == [(1, 0, 0, 0), (2, 1, 1, 0), (3, 2, 1, 0), (4, 3, 1, 1)]
        assert forest.insert((0, 5)).created_new_node
        assert list(forest.iter_nodes()) == [
            (1, 0, 0, 0), (2, 1, 1, 0), (3, 2, 1, 0), (4, 3, 1, 1), (2, 5, 1, 1),
        ]
        assert forest.insert((0, 1, 7)).created_new_node
        assert list(forest.iter_nodes()) == [
            (1, 0, 0, 0), (2, 1, 2, 0), (3, 2, 1, 0), (4, 3, 1, 1), (3, 7, 1, 1), (2, 5, 1, 1),
        ]
        assert [edge.symbols for _, edge in forest._walk()] == [(0,), (1,), (2, 3), (7,), (5,)]
        assert {s: node_row(n) for s, n in forest.roots.items()} == {0: (0, 0, 0, [1, 5])}
        assert forest.occurrence_count((0,)) == forest.occurrence_count((0, 1)) == 0
        assert forest.occurrence_count((0, 1, 7)) == 1

    def test_rejects_short_paths(self):
        with pytest.raises(ValueError):
            BehaviorForest().insert((3,))

    def test_against_brute_force_oracle(self):
        import random

        rng = random.Random(99)
        alphabet = [0, 1, 2, 3]
        paths = []
        for _ in range(300):
            length = rng.randint(2, 6)
            path = [rng.choice(alphabet)]
            while len(path) < length:
                nxt = rng.choice(alphabet)
                if len(path) == 1 and nxt == path[0]:
                    continue
                path.append(nxt)
            paths.append(tuple(path))
        forest = BehaviorForest()
        for p in paths:
            forest.insert(p)
        # Terminal counts equal exact-path multiplicity.
        for p in set(paths):
            assert forest.occurrence_count(p) == paths.count(p)
        # Edge weights equal the number of inserted paths sharing the prefix.
        for prefix, weight, terminal in with_paths(forest):
            expected = sum(1 for p in paths if p[: len(prefix)] == prefix)
            if len(prefix) > 1:
                assert weight == expected
            assert terminal == sum(1 for p in paths if p == prefix)
        assert forest.total_insertions == len(paths)
        assert sum(row[3] for row in forest.iter_nodes()) == len(paths)

    def test_iter_nodes_sorted_depth_first(self):
        forest = BehaviorForest()
        forest.insert((2, 1))
        forest.insert((1, 3))
        forest.insert((1, 2))
        order = [(depth, symbol) for depth, symbol, _, _ in forest.iter_nodes()]
        assert order == [(1, 1), (2, 2), (2, 3), (1, 2), (2, 1)]
        assert [path for path, _, _ in with_paths(forest)] == [(1,), (1, 2), (1, 3), (2,), (2, 1)]

    def test_terminal_paths(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3))
        forest.insert((1, 2, 3))
        forest.insert((4, 5))
        assert forest.terminal_paths() == {(1, 2, 3): 2, (4, 5): 1}

    def test_insertion_order_invariance(self):
        a, b = BehaviorForest(), BehaviorForest()
        paths = [(1, 2), (1, 2, 3), (4, 5), (1, 2), (4, 6)]
        for p in paths:
            a.insert(p)
        for p in reversed(paths):
            b.insert(p)
        assert forest_snapshot(a, "x") == forest_snapshot(b, "x")


class TestSnapshot:
    def build(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3, 2, 1))
        forest.insert((1, 2, 3, 4))
        forest.insert((1, 2, 3, 4))
        forest.insert((7, 3))
        return forest

    def test_roundtrip_identity(self):
        forest = self.build()
        doc = forest_snapshot(forest, "abc")
        restored = forest_restore(doc, expected_config_hash="abc")
        assert forest_snapshot(restored, "abc") == doc
        assert restored.total_insertions == forest.total_insertions
        assert restored.terminal_paths() == forest.terminal_paths()
        assert forest_to_dot(restored) == forest_to_dot(forest)

    def test_json_roundtrip(self):
        forest = self.build()
        text = snapshot_dumps(forest, "abc")
        restored = forest_restore(json.loads(text))
        assert snapshot_dumps(restored, "abc") == text

    def test_deepest_written_chain_reads_back(self, tmp_path):
        # v1 nests three JSON levels per symbol; the written depth is bounded
        # so that the decoder, which recurses per level, can read it back.
        path = str(tmp_path / "forest.json")
        for depth in (V1_MAX_DEPTH, V1_MAX_DEPTH + 1):
            forest = BehaviorForest()
            forest.insert([1, 2, 3, 4, 5] * (depth // 5) + [1, 2, 3, 4, 5][: depth % 5])
            forest.insert([1, 2])
            if depth > V1_MAX_DEPTH:
                with pytest.raises(SnapshotError, match="too deep for the v1 snapshot format"):
                    snapshot_dumps(forest, "abc")
                continue
            text = snapshot_dumps(forest, "abc")
            write_text(path, text + "\n")
            restored = read_snapshot(path, "abc")
            assert list(restored.iter_nodes()) == list(forest.iter_nodes())
            assert max(row[0] for row in restored.iter_nodes()) == depth
            assert snapshot_dumps(restored, "abc") == text

    def test_config_hash_mismatch(self):
        doc = forest_snapshot(self.build(), "abc")
        with pytest.raises(SnapshotError):
            forest_restore(doc, expected_config_hash="def")
        # Without an expectation the hash is accepted as-is.
        forest_restore(doc)

    def test_rejects_bad_version(self):
        doc = forest_snapshot(self.build(), "abc")
        doc["version"] = 99
        with pytest.raises(SnapshotError):
            forest_restore(doc)

    def test_rejects_corrupt_documents(self):
        base = forest_snapshot(self.build(), "abc")

        doc = json.loads(json.dumps(base))
        doc["total_insertions"] = 11
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        doc = json.loads(json.dumps(base))
        doc["roots"][0]["node"]["children"][0]["edge_weight"] = 0
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        doc = json.loads(json.dumps(base))
        doc["roots"][0]["node"]["children"][0]["edge_weight"] = True
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        doc = json.loads(json.dumps(base))
        doc["roots"][0]["symbol"] = 9
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        for key in ("symbol", "terminal_count"):
            doc = json.loads(json.dumps(base))
            doc["roots"][0]["node"]["children"][0]["node"][key] = -1
            with pytest.raises(SnapshotError, match="must be non-negative"):
                forest_restore(doc)

        doc = json.loads(json.dumps(base))
        del doc["roots"][0]["node"]["terminal_count"]
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        doc = json.loads(json.dumps(base))
        kids = doc["roots"][0]["node"]["children"]
        kids.append(json.loads(json.dumps(kids[0])))
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        # No behavior ends at a root: every path has at least two symbols.
        root = {"symbol": 3, "node": {"symbol": 3, "terminal_count": 1, "children": []}}
        doc = {"version": 1, "config_hash": "x", "total_insertions": 1, "roots": [root]}
        with pytest.raises(SnapshotError, match="root 3 has terminal count 1"):
            forest_restore(doc)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_paths=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed, n_paths):
        import random

        rng = random.Random(seed)
        forest = BehaviorForest()
        for _ in range(n_paths):
            length = rng.randint(2, 5)
            path = [rng.randint(0, 3)]
            while len(path) < length:
                nxt = rng.randint(0, 3)
                if len(path) == 1 and nxt == path[0]:
                    continue
                path.append(nxt)
            forest.insert(tuple(path))
        doc = forest_snapshot(forest, "h")
        assert forest_snapshot(forest_restore(doc), "h") == doc


class TestDot:
    def test_canonical_dot_output(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3, 2, 1))
        forest.insert((1, 2, 3, 4))
        dot = forest_to_dot(forest)
        lines = dot.strip().splitlines()
        assert lines[0] == "digraph behavior_forest {"
        assert lines[-1] == "}"
        node_lines = [l for l in lines if "label" in l and "->" not in l]
        edge_lines = [l for l in lines if "->" in l]
        assert len(node_lines) == 6
        assert len(edge_lines) == 5
        # Pre-order ids: n0..n4 spell 1, 2, 3, 2, 1 and n5 is the final 4.
        assert '  n4 [label="1 [1]"];' in node_lines
        assert '  n5 [label="4 [1]"];' in node_lines
        assert '  n0 -> n1 [label="2"];' in edge_lines
        assert '  n2 -> n5 [label="1"];' in edge_lines
        assert dot.endswith("}\n")

    def test_empty_forest(self):
        assert forest_to_dot(BehaviorForest()) == "digraph behavior_forest {\n}\n"

    def test_deterministic_across_insertion_orders(self):
        a, b = BehaviorForest(), BehaviorForest()
        for p in [(3, 1), (1, 2), (1, 3)]:
            a.insert(p)
        for p in [(1, 3), (3, 1), (1, 2)]:
            b.insert(p)
        assert forest_to_dot(a) == forest_to_dot(b)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_paths=st.integers(min_value=0, max_value=40),
        alphabet=st.sampled_from([2, 4, 12]),
    )
    @settings(max_examples=100, deadline=None)
    def test_preorder_ids_rename_to_path_id_oracle(self, seed, n_paths, alphabet):
        import random

        rng = random.Random(seed)
        forest = BehaviorForest()
        for _ in range(n_paths):
            forest.insert([rng.randrange(alphabet) for _ in range(rng.randint(2, 7))])
        path_ids = ["n" + "_".join(map(str, path)) for path, _, _ in with_paths(forest)]
        renamed = re.sub(
            r"\bn(\d+)\b", lambda m: path_ids[int(m.group(1))], forest_to_dot(forest)
        )
        assert renamed == path_id_dot(forest)


def same_document(a, b) -> bool:
    """`a == b` for JSON-shaped values, compared without recursing."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, dict):
            if x.keys() != y.keys():
                return False
            stack.extend((x[k], y[k]) for k in x)
        elif isinstance(x, list):
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def test_deep_chain_snapshot_restore_dot_and_paths():
    # One 100,001-symbol behavior: every walk must be linear and iterative.
    path = tuple(i % 5 for i in range(100_001))
    forest = BehaviorForest()
    forest.insert(path)
    doc = forest_snapshot(forest, "h")
    restored = forest_restore(doc, expected_config_hash="h")
    assert same_document(forest_snapshot(restored, "h"), doc)
    assert not same_document(forest_snapshot(restored, "g"), doc)
    lines = forest_to_dot(restored).splitlines()
    assert sum(1 for line in lines if " -> " in line) == 100_000
    assert sum(1 for line in lines if "[label=" in line and " -> " not in line) == 100_001
    rows = list(restored.iter_nodes())
    assert len(rows) == 100_001
    assert sum(row[3] for row in rows) == restored.total_insertions == 1
    assert restored.terminal_paths() == {path: 1}


@st.composite
def insert_sequence(draw):
    """Paths over four symbols, most built from earlier ones.

    Prefixes end inside an existing chain, extensions grow one, divergent
    siblings split one, and repeats only bump counts.
    """
    symbol = st.integers(0, 3)
    paths = []
    for _ in range(draw(st.integers(0, 25))):
        kinds = ["new", "repeat", "prefix", "extend", "diverge"] if paths else ["new"]
        kind = draw(st.sampled_from(kinds))
        base = list(draw(st.sampled_from(paths))) if paths else []
        if kind == "new":
            path = draw(st.lists(symbol, min_size=2, max_size=30))
        elif kind == "repeat":
            path = base
        elif kind == "prefix":
            path = base[: draw(st.integers(2, len(base)))]
        elif kind == "extend":
            path = base + draw(st.lists(symbol, min_size=1, max_size=10))
        else:
            k = draw(st.integers(1, len(base) - 1))
            path = base[:k] + draw(st.lists(symbol, min_size=1, max_size=10))
        paths.append(tuple(path))
    return paths


def node_row(node):
    if node is None:
        return None
    return node.symbol, node.edge_weight, node.terminal_count, sorted(node.children)


def node_rows(oracle):
    """An ObjectForest's nodes as the rows `BehaviorForest.iter_nodes` yields."""
    return [(depth, n.symbol, n.edge_weight, n.terminal_count) for depth, n in oracle.iter_nodes()]


def dumps_v1(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@given(paths=insert_sequence())
@settings(max_examples=300, deadline=None)
def test_radix_forest_matches_object_forest(paths):
    forest, oracle = BehaviorForest(), ObjectForest()
    for path in paths:
        assert forest.insert(path) == oracle.insert(path)
    # Every prefix (each root alone, mid-edge ends, the full paths), every
    # path extended by one symbol, the empty path and an unknown root.
    probes = {p[:k] for p in paths for k in range(1, len(p) + 1)}
    probes |= {p + (s,) for p in paths for s in range(4)} | {(), (9,), (9, 1)}
    for probe in probes:
        assert node_row(node_at(forest, probe)) == node_row(node_at(oracle, probe))
        assert forest.occurrence_count(probe) == oracle.occurrence_count(probe)
    rows = list(forest.iter_nodes())
    assert rows == node_rows(oracle)
    assert {s: node_row(n) for s, n in forest.roots.items()} == {
        s: node_row(n) for s, n in oracle.roots.items()
    }
    assert forest.terminal_paths() == oracle.terminal_paths()
    assert snapshot_dumps(forest, "h") == dumps_v1(oracle.snapshot("h"))
    assert forest_to_dot(forest) == oracle.dot()
    assert sum(row[3] for row in rows) == forest.total_insertions == len(paths)


@given(paths=insert_sequence(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_restore_keeps_weights_that_do_not_conserve(paths, seed):
    # Restore checks only the total, so any weights >= 1 and any terminal
    # counts below the roots must come back node for node, as they did from
    # node objects.  Roots end no behavior, so theirs stay 0.
    oracle = ObjectForest()
    for path in paths:
        oracle.insert(path)
    doc = oracle.snapshot("h")
    rng = random.Random(seed)
    total, stack = 0, [child for root in doc["roots"] for child in root["node"]["children"]]
    while stack:
        link = stack.pop()
        link["edge_weight"] = rng.randint(1, 3)
        link["node"]["terminal_count"] = count = rng.choice([0, 0, 1, 2])
        total += count
        stack.extend(link["node"]["children"])
    doc["total_insertions"] = total
    forest, today = forest_restore(doc, "h"), ObjectForest.restore(doc)
    assert list(forest.iter_nodes()) == node_rows(today)
    assert snapshot_dumps(forest, "h") == dumps_v1(today.snapshot("h"))
    assert forest_to_dot(forest) == today.dot()
    # Inserts into the restored forest, whose roots are one-symbol edges,
    # extend and split them as they do a forest built by inserts.
    for path in reversed(paths):
        assert forest.insert(path) == today.insert(path)
    assert list(forest.iter_nodes()) == node_rows(today)
    assert forest.terminal_paths() == today.terminal_paths()


def test_restore_breaks_edges_where_a_chain_stops_conserving():
    def link(weight, symbol, terminal, *children):
        node = {"symbol": symbol, "terminal_count": terminal, "children": list(children)}
        return {"edge_weight": weight, "node": node}

    # 2 has one child of another weight, 3 is terminal, 4 -> 5 is a chain.
    chain = link(3, 2, 0, link(2, 3, 1, link(1, 4, 0, link(1, 5, 2))))
    root = {"symbol": 1, "node": {"symbol": 1, "terminal_count": 0, "children": [chain]}}
    doc = {"version": 1, "config_hash": "h", "roots": [root], "total_insertions": 3}
    forest = forest_restore(doc)
    assert [edge.symbols for _, edge in forest._walk()] == [(1,), (2,), (3,), (4, 5)]
    assert snapshot_dumps(forest, "h") == dumps_v1(doc)
    assert forest_to_dot(forest) == ObjectForest.restore(doc).dot()
    assert [node_row(node_at(forest, p)) for p in [(1, 2), (1, 2, 3), (1, 2, 3, 4)]] == [
        (2, 3, 0, [3]),
        (3, 2, 1, [4]),
        (4, 1, 0, [5]),
    ]
    assert forest.occurrence_count((1, 2, 3, 4, 5)) == 2


def test_deep_chattering_path_is_held_as_one_edge():
    # Flicker's end-of-stream behavior: 271,282 symbols, no two alike in a row.
    # It opens a new root, whose edge holds the inserted tuple, not a copy.
    steps = np.random.default_rng(0).integers(1, 4, size=271_281)
    path = tuple((np.concatenate(([0], np.cumsum(steps))) % 4).tolist())
    forest = BehaviorForest()
    tracemalloc.start()
    try:
        receipt = forest.insert(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024
    assert forest._roots[0].symbols is path
    assert receipt.created_new_node
    assert sum(1 for _ in forest.iter_nodes()) == len(path)
    assert forest.occurrence_count(path) == 1
