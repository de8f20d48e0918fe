"""Behavior detection state machine and the weighted prefix forest."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behaviorforest.core import ReducedSymbol, SnapshotError
from behaviorforest.forest import (
    TERMINATED_BY_PLATEAU,
    TERMINATED_BY_STREAM_END,
    BehaviorDetector,
    BehaviorForest,
    DiscoveredBehavior,
    forest_restore,
    forest_snapshot,
    forest_to_dot,
    snapshot_dumps,
)

CANONICAL_SYMBOLS = [1, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 2, 3, 4]


def feed(detector, symbols, flush=True):
    """Drive the detector with unit-span reduced symbols; collect behaviors."""
    out = []
    for i, s in enumerate(symbols):
        db = detector.step(ReducedSymbol(s, (i, i + 1), 1))
        if db is not None:
            out.append(db)
    if flush:
        db = detector.flush()
        if db is not None:
            out.append(db)
    return out


class TestDetector:
    def test_canonical_sequence(self):
        dbs = feed(BehaviorDetector(), CANONICAL_SYMBOLS)
        assert [db.path for db in dbs] == [(1, 2, 3, 2, 1), (1, 2, 3, 4)]
        assert dbs[0].termination == TERMINATED_BY_PLATEAU
        assert dbs[1].termination == TERMINATED_BY_STREAM_END

    def test_canonical_raw_spans(self):
        dbs = feed(BehaviorDetector(), CANONICAL_SYMBOLS)
        # First behavior: stationary run starts at 0, the terminating run's
        # first copy ends at 7.  Second: rooted at that plateau (index 6),
        # cut off by end of stream at 14.
        assert dbs[0].raw_span == (0, 7)
        assert dbs[1].raw_span == (6, 14)

    def test_terminating_symbol_kept_exactly_once(self):
        dbs = feed(BehaviorDetector(), [5, 5, 7, 7, 7])
        assert [db.path for db in dbs] == [(5, 7)]

    def test_repeats_below_plateau_stay_in_path(self):
        dbs = feed(BehaviorDetector(), [1, 1, 2, 2, 3, 3, 3])
        assert [db.path for db in dbs] == [(1, 2, 2, 3)]

    def test_no_context_no_behavior(self):
        # The 5 never reaches the initiation context, so tracking restarts.
        assert feed(BehaviorDetector(), [5, 7, 7, 7]) == []
        assert feed(BehaviorDetector(), [5, 5, 5, 5]) == []
        assert feed(BehaviorDetector(), [3]) == []
        assert feed(BehaviorDetector(), []) == []

    def test_plateau_chains_to_next_behavior(self):
        symbols = [1, 1, 2, 2, 2, 3, 3, 3]
        dbs = feed(BehaviorDetector(), symbols)
        assert [db.path for db in dbs] == [(1, 2), (2, 3)]
        # Second behavior is rooted where the plateau run began (index 2)
        # and ends with the first copy of its own terminating run.
        assert dbs[0].raw_span == (0, 3)
        assert dbs[1].raw_span == (2, 6)

    def test_flush_closes_open_behavior(self):
        det = BehaviorDetector()
        dbs = feed(det, [4, 4, 6, 2], flush=False)
        assert dbs == []
        db = det.flush()
        assert db.path == (4, 6, 2)
        assert db.termination == TERMINATED_BY_STREAM_END
        assert db.raw_span == (0, 4)

    def test_flush_resets_the_detector(self):
        det = BehaviorDetector()
        feed(det, [1, 1, 2])
        assert feed(det, CANONICAL_SYMBOLS) == feed(BehaviorDetector(), CANONICAL_SYMBOLS)

    def test_custom_termination_run(self):
        dbs = feed(BehaviorDetector(termination_run=4), [1, 1, 2, 3, 3, 3, 3])
        assert [db.path for db in dbs] == [(1, 2, 3)]

    def test_custom_initiation_context(self):
        # With a 1-copy context a single symbol is enough to arm.
        dbs = feed(BehaviorDetector(initiation_context=1), [5, 7, 7, 7])
        assert [db.path for db in dbs] == [(5, 7)]

    def test_spans_carry_run_lengths(self):
        # Copies of one compressed run share the run's full raw span, the
        # shape the reduction stage emits.
        det = BehaviorDetector()
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
        with pytest.raises(ValueError):
            BehaviorDetector(termination_run=1)
        with pytest.raises(ValueError):
            BehaviorDetector(initiation_context=0)

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            DiscoveredBehavior((1,), (0, 1), TERMINATED_BY_PLATEAU)
        with pytest.raises(ValueError):
            DiscoveredBehavior((1, 1), (0, 2), TERMINATED_BY_PLATEAU)
        with pytest.raises(ValueError):
            DiscoveredBehavior((1, 2), (0, 2), "whatever")


class TestForest:
    def test_canonical_forest_shape(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3, 2, 1))
        forest.insert((1, 2, 3, 4))
        assert forest.n_nodes == 6
        assert set(forest.roots) == {1}
        assert forest.find((1, 2)).edge_weight == 2
        assert forest.find((1, 2, 3)).edge_weight == 2
        assert forest.find((1, 2, 3, 2)).edge_weight == 1
        assert forest.find((1, 2, 3, 2, 1)).edge_weight == 1
        assert forest.find((1, 2, 3, 4)).edge_weight == 1
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
        assert forest.find((5, 7)).edge_weight == 3

    def test_prefix_terminals_are_independent(self):
        forest = BehaviorForest()
        forest.insert((1, 2, 3))
        forest.insert((1, 2))
        assert forest.occurrence_count((1, 2)) == 1
        assert forest.occurrence_count((1, 2, 3)) == 1
        assert forest.total_insertions == 2
        assert forest.checked_total() == 2

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
        for prefix, node in forest.iter_nodes():
            expected = sum(1 for p in paths if p[: len(prefix)] == prefix)
            if len(prefix) > 1:
                assert node.edge_weight == expected
            assert node.terminal_count == sum(1 for p in paths if p == prefix)
        assert forest.total_insertions == len(paths)
        assert forest.checked_total() == len(paths)

    def test_iter_nodes_sorted_depth_first(self):
        forest = BehaviorForest()
        forest.insert((2, 1))
        forest.insert((1, 3))
        forest.insert((1, 2))
        order = [path for path, _ in forest.iter_nodes()]
        assert order == [(1,), (1, 2), (1, 3), (2,), (2, 1)]

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

        doc = json.loads(json.dumps(base))
        del doc["roots"][0]["node"]["terminal_count"]
        with pytest.raises(SnapshotError):
            forest_restore(doc)

        doc = json.loads(json.dumps(base))
        kids = doc["roots"][0]["node"]["children"]
        kids.append(json.loads(json.dumps(kids[0])))
        with pytest.raises(SnapshotError):
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
        assert '  n1_2_3_2_1 [label="1 [1]"];' in node_lines
        assert '  n1_2_3_4 [label="4 [1]"];' in node_lines
        assert '  n1 -> n1_2 [label="2"];' in edge_lines
        assert '  n1_2_3 -> n1_2_3_4 [label="1"];' in edge_lines
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
