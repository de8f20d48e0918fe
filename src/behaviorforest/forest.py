"""Variable-length pattern detection and the incremental behavior forest.

The detector rides the compressed runs of the symbol stream and cuts it
into dynamic behaviors: a pattern opens when a fresh run breaks a
stationary one and closes when a run settles into a plateau, which then
seeds the next pattern's context.  Closed patterns are inserted into a
forest of prefix trees whose edge weights and terminal counts accumulate
across streams, giving O(path length) occurrence lookups without storing
raw data.  Every walk over a forest is `BehaviorForest.iter_nodes`, an
explicit-stack pre-order traversal, so only the JSON encoder recurses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import SnapshotError

TERMINATED_BY_PLATEAU = "plateau"
TERMINATED_BY_STREAM_END = "end_of_stream"

SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class DiscoveredBehavior:
    """One closed dynamic behavior: its symbol path and raw extent.

    The path starts at the stationary symbol that preceded the behavior and
    ends with one copy of the plateau that closed it (absent for
    end-of-stream cuts).  raw_span covers the root run through the
    terminating run, so consecutive behaviors overlap exactly in the
    shared boundary run.
    """

    path: Tuple[int, ...]
    raw_span: Tuple[int, int]
    termination: str

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(f"behavior path needs >= 2 symbols, got {self.path}")
        if self.path[0] == self.path[1]:
            raise ValueError("behavior cannot open with its own stationary symbol")
        if self.termination not in (TERMINATED_BY_PLATEAU, TERMINATED_BY_STREAM_END):
            raise ValueError(f"unknown termination {self.termination!r}")


class BehaviorDetector:
    """Cuts a stream of maximal runs into behaviors.

    `step` takes `PreprocessPipeline` rows `(symbol, start, end, copies)`
    and returns the behaviors they closed, in order.  A run of at least
    `initiation_context` copies is a stationary context, and the run after
    it opens a behavior rooted at the context's symbol.  Inside a behavior a
    run of fewer than `termination_run` copies adds its symbol once per
    copy; the first run with at least `termination_run` copies adds its
    symbol once, closes the behavior over (context start, run end), and
    becomes the next context with its full copy count.
    """

    def __init__(self, termination_run: int = 3, initiation_context: int = 2):
        if termination_run < 2:
            raise ValueError("termination_run must be >= 2")
        if initiation_context < 1:
            raise ValueError("initiation_context must be >= 1")
        self.termination_run = termination_run
        self.initiation_context = initiation_context
        self._reset()

    def _reset(self) -> None:
        self._context: Optional[Tuple[int, int, int]] = None  # symbol, start, copies
        self._path: Optional[List[int]] = None  # the open behavior, if any
        self._end = 0  # end of the open behavior's last run

    def step(self, runs: np.ndarray) -> List[DiscoveredBehavior]:
        closed: List[DiscoveredBehavior] = []
        for symbol, start, end, copies in runs.tolist():
            if self._path is None:
                if self._context is None or self._context[2] < self.initiation_context:
                    self._context = (symbol, start, copies)
                    continue
                self._path = [self._context[0]]
            if copies < self.termination_run:
                self._path.extend([symbol] * copies)
                self._end = end
                continue
            # Plateau reached: the path keeps this symbol exactly once.
            self._path.append(symbol)
            closed.append(
                DiscoveredBehavior(
                    tuple(self._path), (self._context[1], end), TERMINATED_BY_PLATEAU
                )
            )
            self._context = (symbol, start, copies)
            self._path = None
        return closed

    def flush(self) -> Optional[DiscoveredBehavior]:
        """Close an open behavior at end of stream and reset the detector."""
        behavior = None
        if self._path is not None:
            behavior = DiscoveredBehavior(
                tuple(self._path), (self._context[1], self._end), TERMINATED_BY_STREAM_END
            )
        self._reset()
        return behavior


@dataclass(frozen=True)
class InsertionReceipt:
    """What the forest learned from one insertion, driving record decisions."""

    created_new_node: bool
    prior_terminal_count: int


class BehaviorNode:
    """One symbol position in a prefix tree."""

    __slots__ = ("symbol", "children", "edge_weight", "terminal_count")

    def __init__(self, symbol: int):
        self.symbol = symbol
        self.children: Dict[int, "BehaviorNode"] = {}
        self.edge_weight = 0  # traversals of the edge from the parent
        self.terminal_count = 0  # behaviors that ended exactly here


class BehaviorForest:
    """Prefix trees over behavior paths, one root per opening symbol.

    A node's terminal mark is independent of being a structural leaf, so a
    behavior that is a prefix of a longer one is still counted exactly.
    """

    def __init__(self) -> None:
        self.roots: Dict[int, BehaviorNode] = {}
        self.total_insertions = 0

    def insert(self, path: Sequence[int]) -> InsertionReceipt:
        """Walk/extend the path, bumping edge weights and the terminal count."""
        if len(path) < 2:
            raise ValueError(f"behavior path needs >= 2 symbols, got {tuple(path)}")
        created = False
        node = self.roots.get(path[0])
        if node is None:
            node = BehaviorNode(path[0])
            self.roots[path[0]] = node
            created = True
        for symbol in path[1:]:
            child = node.children.get(symbol)
            if child is None:
                child = BehaviorNode(symbol)
                node.children[symbol] = child
                created = True
            child.edge_weight += 1
            node = child
        prior = node.terminal_count
        node.terminal_count += 1
        self.total_insertions += 1
        return InsertionReceipt(created_new_node=created, prior_terminal_count=prior)

    def find(self, path: Sequence[int]) -> Optional[BehaviorNode]:
        node = self.roots.get(path[0]) if path else None
        for symbol in path[1:]:
            if node is None:
                return None
            node = node.children.get(symbol)
        return node

    def occurrence_count(self, path: Sequence[int]) -> int:
        node = self.find(path)
        return node.terminal_count if node is not None else 0

    def iter_nodes(self) -> Iterator[Tuple[int, BehaviorNode]]:
        """Pre-order walk yielding (depth, node): roots at depth 1, children by symbol."""
        stack = [(1, node) for _, node in sorted(self.roots.items(), reverse=True)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for _, child in sorted(node.children.items(), reverse=True):
                stack.append((depth + 1, child))

    def terminal_paths(self) -> Dict[Tuple[int, ...], int]:
        """All paths behaviors have ended on, with their occurrence counts."""
        paths: Dict[Tuple[int, ...], int] = {}
        path: List[int] = []
        for depth, node in self.iter_nodes():
            del path[depth - 1 :]
            path.append(node.symbol)
            if node.terminal_count > 0:
                paths[tuple(path)] = node.terminal_count
        return paths

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def checked_total(self) -> int:
        """Recompute total insertions from terminal counts (conservation)."""
        return sum(node.terminal_count for _, node in self.iter_nodes())


def forest_snapshot(forest: BehaviorForest, config_hash: str) -> dict:
    """JSON-ready document capturing the full forest state."""
    # links[d - 1] is the list a depth-d node's link goes into: the root
    # entries {"symbol", "node"} or its parent's {"edge_weight", "node"} links.
    links: List[List[dict]] = [[]]
    for depth, node in forest.iter_nodes():
        doc = {"symbol": node.symbol, "terminal_count": node.terminal_count, "children": []}
        link = {"symbol": node.symbol} if depth == 1 else {"edge_weight": node.edge_weight}
        link["node"] = doc
        del links[depth:]
        links[-1].append(link)
        links.append(doc["children"])
    return {
        "version": SNAPSHOT_VERSION,
        "config_hash": config_hash,
        "roots": links[0],
        "total_insertions": forest.total_insertions,
    }


def snapshot_dumps(forest: BehaviorForest, config_hash: str) -> str:
    """The snapshot as JSON text; raises SnapshotError if the forest is too deep.

    The v1 document nests one level per path symbol.  Building it does not
    recurse, but the indenting JSON encoder recurses once per nesting level.
    """
    try:
        return json.dumps(forest_snapshot(forest, config_hash), indent=2, sort_keys=True)
    except RecursionError:
        raise SnapshotError(
            "forest is too deep for the v1 snapshot format (paths nest one "
            "JSON level per symbol)"
        ) from None


def _require(doc: dict, key: str, kind) -> object:
    if not isinstance(doc, dict) or key not in doc:
        raise SnapshotError(f"snapshot node is missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SnapshotError(f"snapshot field {key!r} has wrong type {type(value).__name__}")
    return value


def forest_restore(doc: dict, expected_config_hash: Optional[str] = None) -> BehaviorForest:
    """Rebuild a forest from a snapshot document, validating as it goes."""
    version = _require(doc, "version", int)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    config_hash = _require(doc, "config_hash", str)
    if expected_config_hash is not None and config_hash != expected_config_hash:
        raise SnapshotError(
            f"snapshot was taken under config {config_hash} but the current "
            f"config hashes to {expected_config_hash}"
        )
    forest = BehaviorForest()
    terminals = 0
    # One stack of (link, parent): root entries have no parent.
    stack = [(entry, None) for entry in reversed(_require(doc, "roots", list))]
    while stack:
        link, parent = stack.pop()
        key = _require(link, "symbol" if parent is None else "edge_weight", int)
        if parent is not None and key < 1:
            raise SnapshotError("snapshot edge weights must be >= 1")
        node_doc = _require(link, "node", dict)
        node = BehaviorNode(_require(node_doc, "symbol", int))
        node.terminal_count = _require(node_doc, "terminal_count", int)
        if node.symbol < 0 or node.terminal_count < 0:
            raise SnapshotError("snapshot symbols and counts must be non-negative")
        terminals += node.terminal_count
        if parent is None and key != node.symbol:
            raise SnapshotError(f"root entry symbol {key} != node symbol {node.symbol}")
        node.edge_weight = 0 if parent is None else key
        siblings, kind = (forest.roots, "root") if parent is None else (parent.children, "child")
        if node.symbol in siblings:
            raise SnapshotError(f"duplicate {kind} symbol {node.symbol}")
        siblings[node.symbol] = node
        stack.extend((child, node) for child in reversed(_require(node_doc, "children", list)))
    forest.total_insertions = total = _require(doc, "total_insertions", int)
    if terminals != total:
        raise SnapshotError(f"total_insertions {total} does not match terminal counts ({terminals})")
    return forest


def forest_to_dot(forest: BehaviorForest) -> str:
    """Render the forest as a deterministic Graphviz digraph.

    Nodes are numbered n0, n1, ... in pre-order.  One node statement per
    tree node labeled "symbol [terminal_count]", one edge statement per
    child link labeled with its weight; everything is sorted by symbol so
    equal forests serialize identically.
    """
    nodes: List[str] = []
    edges: List[str] = []
    ids: List[int] = []  # ids[d - 1]: number of the last node seen at depth d
    for i, (depth, node) in enumerate(forest.iter_nodes()):
        nodes.append(f'  n{i} [label="{node.symbol} [{node.terminal_count}]"];')
        del ids[depth - 1 :]
        if ids:
            edges.append(f'  n{ids[-1]} -> n{i} [label="{node.edge_weight}"];')
        ids.append(i)
    return "\n".join(["digraph behavior_forest {", *nodes, *edges, "}"]) + "\n"
