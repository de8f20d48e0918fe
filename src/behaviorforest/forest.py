"""Variable-length pattern detection and the incremental behavior forest.

The detector rides the compressed runs of the symbol stream and cuts it
into dynamic behaviors: a pattern opens when a fresh run breaks a
stationary one and closes when a run settles into a plateau, which then
seeds the next pattern's context.  Closed patterns are inserted into a
forest of prefix trees whose edge weights and terminal counts accumulate
across streams, giving O(path length) occurrence lookups without storing
raw data.
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

    def iter_nodes(self) -> Iterator[Tuple[Tuple[int, ...], BehaviorNode]]:
        """Depth-first (symbol-sorted) traversal yielding (path, node)."""
        stack = [((symbol,), node) for symbol, node in sorted(self.roots.items(), reverse=True)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for symbol, child in sorted(node.children.items(), reverse=True):
                stack.append((path + (symbol,), child))

    def terminal_paths(self) -> Dict[Tuple[int, ...], int]:
        """All paths behaviors have ended on, with their occurrence counts."""
        return {
            path: node.terminal_count
            for path, node in self.iter_nodes()
            if node.terminal_count > 0
        }

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def checked_total(self) -> int:
        """Recompute total insertions from terminal counts (conservation)."""
        return sum(node.terminal_count for _, node in self.iter_nodes())


def _node_doc(node: BehaviorNode) -> dict:
    return {
        "symbol": node.symbol,
        "terminal_count": node.terminal_count,
        "children": [
            {"edge_weight": child.edge_weight, "node": _node_doc(child)}
            for _, child in sorted(node.children.items())
        ],
    }


def forest_snapshot(forest: BehaviorForest, config_hash: str) -> dict:
    """JSON-ready document capturing the full forest state."""
    return {
        "version": SNAPSHOT_VERSION,
        "config_hash": config_hash,
        "roots": [
            {"symbol": symbol, "node": _node_doc(node)}
            for symbol, node in sorted(forest.roots.items())
        ],
        "total_insertions": forest.total_insertions,
    }


def snapshot_dumps(forest: BehaviorForest, config_hash: str) -> str:
    """The snapshot as JSON text; raises SnapshotError if the forest is too deep.

    The v1 document nests one level per path symbol, and building or
    encoding it recurses once per level.
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


def _restore_node(doc: dict, edge_weight: int) -> BehaviorNode:
    symbol = _require(doc, "symbol", int)
    terminal = _require(doc, "terminal_count", int)
    if symbol < 0 or terminal < 0:
        raise SnapshotError("snapshot symbols and counts must be non-negative")
    node = BehaviorNode(symbol)
    node.edge_weight = edge_weight
    node.terminal_count = terminal
    children = _require(doc, "children", list)
    for link in children:
        weight = _require(link, "edge_weight", int)
        if weight < 1:
            raise SnapshotError("snapshot edge weights must be >= 1")
        child = _restore_node(_require(link, "node", dict), weight)
        if child.symbol in node.children:
            raise SnapshotError(f"duplicate child symbol {child.symbol}")
        node.children[child.symbol] = child
    return node


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
    for entry in _require(doc, "roots", list):
        symbol = _require(entry, "symbol", int)
        node = _restore_node(_require(entry, "node", dict), edge_weight=0)
        if symbol != node.symbol:
            raise SnapshotError(f"root entry symbol {symbol} != node symbol {node.symbol}")
        if symbol in forest.roots:
            raise SnapshotError(f"duplicate root symbol {symbol}")
        forest.roots[symbol] = node
    total = _require(doc, "total_insertions", int)
    forest.total_insertions = total
    if forest.checked_total() != total:
        raise SnapshotError(
            f"total_insertions {total} does not match terminal counts "
            f"({forest.checked_total()})"
        )
    return forest


def forest_to_dot(forest: BehaviorForest) -> str:
    """Render the forest as a deterministic Graphviz digraph.

    One node statement per tree node labeled "symbol [terminal_count]", one
    edge statement per child link labeled with its weight; everything is
    sorted by symbol so equal forests serialize identically.
    """
    nodes: List[str] = []
    edges: List[str] = []
    for path, node in forest.iter_nodes():
        nid = "n" + "_".join(str(s) for s in path)
        nodes.append(f'  {nid} [label="{node.symbol} [{node.terminal_count}]"];')
        if len(path) > 1:
            pid = "n" + "_".join(str(s) for s in path[:-1])
            edges.append(f'  {pid} -> {nid} [label="{node.edge_weight}"];')
    return "\n".join(["digraph behavior_forest {", *nodes, *edges, "}"]) + "\n"
