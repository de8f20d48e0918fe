"""Variable-length pattern detection and the incremental behavior forest.

The detector rides the compressed runs of the symbol stream and cuts it
into dynamic behaviors: a pattern opens when a fresh run breaks a
stationary one and closes when a run settles into a plateau, which then
seeds the next pattern's context.  Closed patterns are inserted into a
forest of prefix trees whose edge weights and terminal counts accumulate
across streams, giving O(path length) occurrence lookups without storing
raw data.

The forest is path-compressed (a radix, or PATRICIA, tree): it stores
edges, not nodes.  An edge is a tuple of symbols, one weight, one terminal
count and a dict of child edges keyed by their first symbol.  It stands
for a chain of logical nodes, one per symbol, in which every node but the
last has one child, a terminal count of 0 and the edge's weight; the last
node carries the terminal count and the children.  A root is its own
one-symbol edge of weight 0.  A path that never reaches a plateau is thus
one edge however long it is, and inserting it stores one tuple slice.
The forest is read through `occurrence_count`, which matches each edge
with one tuple comparison, `iter_nodes`, which yields plain node rows to
the writers, `terminal_paths` and `total_insertions`.  `roots` returns
`BehaviorNode`s over a copy of the edges, which later inserts leave as it
is; it stays only for the benchmark's forest checker.  Every walk over a
forest is one explicit-stack pre-order traversal over edges, and the
snapshot and Graphviz writers read its rows, so nothing recurses but the
JSON decoder that reads a snapshot back.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import EngineConfig, SnapshotError

TERMINATED_BY_PLATEAU = "plateau"
TERMINATED_BY_STREAM_END = "end_of_stream"

SNAPSHOT_VERSION = 1
# The longest path a v1 snapshot is written with.  Python's JSON decoder recurses
# once per level, and 3 * 300 + 2 levels leave it ~90 of the default 1,000 frames.
V1_MAX_DEPTH = 300


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

    `step` loops once per behavior, not once per run: per chunk it expands
    every run into its path symbols with numpy, then finds each behavior's
    opening and closing rows by bisection and takes its path as one slice.
    The open behavior's path carries over to the next chunk as a list.
    """

    def __init__(
        self,
        termination_run: int = EngineConfig.termination_run,
        initiation_context: int = EngineConfig.initiation_context,
    ):
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
        n = len(runs)
        if n == 0:
            return closed
        copies = runs[:, 3]
        closing = copies >= self.termination_run
        # A run adds one path symbol per copy, a closing run only one.
        counts = np.where(closing, 1, copies)
        expanded = np.repeat(runs[:, 0], counts).tolist()
        offsets = np.concatenate(([0], np.cumsum(counts)))
        closes = np.flatnonzero(closing).tolist()
        arms = np.flatnonzero(copies >= self.initiation_context).tolist()
        r = 0  # next row to read
        while r < n:
            if self._path is None:
                if self._context is None or self._context[2] < self.initiation_context:
                    # Every row up to the next armed one replaces the context.
                    i = bisect_left(arms, r)
                    r = arms[i] if i < len(arms) else n - 1
                    symbol, start, _, n_copies = runs[r].tolist()
                    self._context = (symbol, start, n_copies)
                    r += 1
                    continue
                self._path = [self._context[0]]
            i = bisect_left(closes, r)
            if i == len(closes):
                self._path += expanded[offsets[r] :]
                self._end = int(runs[-1, 2])
                break
            c = closes[i]
            # Plateau reached: the path keeps this symbol exactly once.
            self._path += expanded[offsets[r] : offsets[c + 1]]
            symbol, start, end, n_copies = runs[c].tolist()
            closed.append(
                DiscoveredBehavior(
                    tuple(self._path), (self._context[1], end), TERMINATED_BY_PLATEAU
                )
            )
            self._context = (symbol, start, n_copies)
            self._path = None
            r = c + 1
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


class _Edge:
    """A chain of logical nodes stored once; see the module docstring."""

    __slots__ = ("symbols", "weight", "terminal_count", "children")

    def __init__(self, symbols: tuple, weight: int, terminal_count: int = 0, children=None):
        self.symbols = symbols
        self.weight = weight  # edge weight of every node on the chain
        self.terminal_count = terminal_count  # of the last node
        self.children: Dict[int, "_Edge"] = {} if children is None else children

    def split(self, k: int) -> None:
        """Cut the chain after its first k symbols; the tail becomes the one child."""
        tail = _Edge(self.symbols[k:], self.weight, self.terminal_count, self.children)
        self.symbols = self.symbols[:k]
        self.terminal_count = 0
        self.children = {tail.symbols[0]: tail}


class BehaviorNode:
    """One logical node: the symbol at `offset` on an edge of a copied forest.

    `symbol`, `edge_weight` (traversals of the link from the parent, 0 at a
    root) and `terminal_count` (behaviors that ended exactly here) are read
    when the node is made; `children` (symbol -> node) when it is asked for.
    Nodes are reached only from `BehaviorForest.roots`, whose edges no
    insert touches, and stay for the benchmark's forest checker until it
    reads `iter_nodes` rows instead.
    """

    __slots__ = ("_edge", "_offset", "symbol", "edge_weight", "terminal_count")

    def __init__(self, edge: _Edge, offset: int):
        self._edge = edge
        self._offset = offset
        self.symbol = edge.symbols[offset]
        self.edge_weight = edge.weight
        self.terminal_count = edge.terminal_count if offset == len(edge.symbols) - 1 else 0

    @property
    def children(self) -> Dict[int, "BehaviorNode"]:
        edge, offset = self._edge, self._offset + 1
        if offset < len(edge.symbols):
            return {edge.symbols[offset]: BehaviorNode(edge, offset)}
        return {symbol: BehaviorNode(child, 0) for symbol, child in edge.children.items()}


class BehaviorForest:
    """Prefix trees over behavior paths, one root per opening symbol.

    A node's terminal mark is independent of being a structural leaf, so a
    behavior that is a prefix of a longer one is still counted exactly.
    The trees are stored as edges and read as the module docstring says;
    `roots` alone returns `BehaviorNode`s, over a copy of the edges.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, _Edge] = {}
        self.total_insertions = 0

    @property
    def roots(self) -> Dict[int, BehaviorNode]:
        """The roots of a copy of the forest, kept for the benchmark's forest checker.

        Each edge is copied once, children before parents, sharing its symbol
        tuple, so a read costs O(edges) and no later insert changes the copy.
        """
        copies: Dict[int, _Edge] = {}  # id of an edge -> its copy
        for _, edge in reversed(list(self._walk())):
            children = {symbol: copies.pop(id(child)) for symbol, child in edge.children.items()}
            copies[id(edge)] = _Edge(edge.symbols, edge.weight, edge.terminal_count, children)
        return {symbol: BehaviorNode(copies[id(edge)], 0) for symbol, edge in self._roots.items()}

    def insert(self, path: Sequence[int]) -> InsertionReceipt:
        """Walk/extend the path, bumping edge weights and the terminal count.

        Each edge on the way is matched by one tuple comparison; the symbols
        are scanned one by one only on a mismatch, to find where to split.
        """
        path = tuple(path)
        n = len(path)
        if n < 2:
            raise ValueError(f"behavior path needs >= 2 symbols, got {path}")
        edge = self._roots.get(path[0])
        created = edge is None
        if created:
            edge = self._roots[path[0]] = _Edge(path[:1], 0)
        i = 1  # path[:i] ends at the last node of `edge`
        while i < n:
            child = edge.children.get(path[i])
            if child is None:
                edge.children[path[i]] = edge = _Edge(path[i:], 1)
                created = True
                break
            piece = path[i : i + len(child.symbols)]
            if piece != child.symbols:
                # The path diverges or ends inside the chain: split it there.
                pairs = enumerate(zip(piece, child.symbols))
                child.split(next((j for j, (a, b) in pairs if a != b), len(piece)))
            child.weight += 1
            edge = child
            i += len(child.symbols)
        prior = edge.terminal_count
        edge.terminal_count += 1
        self.total_insertions += 1
        return InsertionReceipt(created_new_node=created, prior_terminal_count=prior)

    def occurrence_count(self, path: Sequence[int]) -> int:
        """Behaviors that ended exactly on `path`; 0 if it ends inside an edge."""
        path = tuple(path)
        edge = self._roots.get(path[0]) if path else None
        i = 1  # path[:i] ends at the last node of `edge`
        while edge is not None and i < len(path):
            edge = edge.children.get(path[i])
            if edge is None or path[i : i + len(edge.symbols)] != edge.symbols:
                return 0
            i += len(edge.symbols)
        return 0 if edge is None else edge.terminal_count

    def _walk(self) -> Iterator[Tuple[int, _Edge]]:
        """Pre-order over edges, (depth of the edge's first node, edge), by symbol."""
        stack = [(1, edge) for _, edge in sorted(self._roots.items(), reverse=True)]
        while stack:
            depth, edge = stack.pop()
            yield depth, edge
            depth += len(edge.symbols)
            for _, child in sorted(edge.children.items(), reverse=True):
                stack.append((depth, child))

    def iter_nodes(self) -> Iterator[Tuple[int, int, int, int]]:
        """Pre-order rows (depth, symbol, edge_weight, terminal_count); roots at depth 1."""
        for depth, edge in self._walk():
            last = len(edge.symbols) - 1
            for offset, symbol in enumerate(edge.symbols):
                terminal = edge.terminal_count if offset == last else 0
                yield depth + offset, symbol, edge.weight, terminal

    def terminal_paths(self) -> Dict[Tuple[int, ...], int]:
        """All paths behaviors have ended on, with their occurrence counts."""
        paths: Dict[Tuple[int, ...], int] = {}
        path: List[int] = []
        for depth, edge in self._walk():
            del path[depth - 1 :]
            path.extend(edge.symbols)
            if edge.terminal_count > 0:
                paths[tuple(path)] = edge.terminal_count
        return paths


def snapshot_dumps(forest: BehaviorForest, config_hash: str) -> str:
    """The v1 snapshot document, as `json.dumps(doc, indent=2, sort_keys=True)` writes it.

    It holds "version", "config_hash", "total_insertions" and "roots", a
    list of {"symbol", "node"}; a node is {"symbol", "terminal_count",
    "children"}, a list of {"edge_weight", "node"}.  The text is written from
    `iter_nodes` rows: a node's lines up to its children when its row comes,
    its closing lines, from a stack, when the walk leaves its subtree.  A path
    deeper than `V1_MAX_DEPTH` is a SnapshotError, raised before any text is.
    """
    parts = ['{\n  "config_hash": ', json.dumps(config_hash), ',\n  "roots": [']
    closers: List[str] = []  # closers[d - 1]: the closing lines of the open node at depth d

    def close(depth: int) -> None:
        """Close the open nodes at `depth` and below; the deepest has no children."""
        parts.append(closers.pop())
        while len(closers) >= depth:
            parts.append(f"\n{' ' * (6 * len(closers) + 2)}{closers.pop()}")

    for depth, symbol, weight, terminal in forest.iter_nodes():
        if depth > V1_MAX_DEPTH:
            raise SnapshotError(f"forest is too deep for the v1 snapshot format (a path of "
                                f"more than {V1_MAX_DEPTH} symbols; each nests 3 JSON levels)")
        if depth > len(closers):
            parts.append("\n")
        else:
            close(depth)
            parts.append(",\n")
        pad = " " * (6 * depth - 2)
        link = f'{pad}  "edge_weight": {weight},\n' if depth > 1 else ""
        parts.append(f'{pad}{{\n{link}{pad}  "node": {{\n{pad}    "children": [')
        root = f',\n{pad}  "symbol": {symbol}' if depth == 1 else ""
        closers.append(f'],\n{pad}    "symbol": {symbol},\n{pad}    "terminal_count": '
                       f'{terminal}\n{pad}  }}{root}\n{pad}}}')
    if closers:
        close(1)
        parts.append("\n  ")
    parts.append(f'],\n  "total_insertions": {forest.total_insertions},\n'
                 f'  "version": {SNAPSHOT_VERSION}\n}}')
    return "".join(parts)


def _require(doc: dict, key: str, kind) -> object:
    if not isinstance(doc, dict) or key not in doc:
        raise SnapshotError(f"snapshot node is missing {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SnapshotError(f"snapshot field {key!r} has wrong type {type(value).__name__}")
    return value


def forest_restore(doc: dict, expected_config_hash: Optional[str] = None) -> BehaviorForest:
    """Rebuild a forest from a snapshot document, validating as it goes.

    Only the total of the terminal counts is checked against the document's
    insertion count, so weights need not conserve from node to node.  A node
    therefore joins its parent's edge only if the parent is not a root, has
    this one child and a terminal count of 0, and has the same edge weight.
    """
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
    # One stack of (link, parent edge, whether the link may extend it): root
    # entries have no parent.
    stack = [(entry, None, False) for entry in reversed(_require(doc, "roots", list))]
    while stack:
        link, parent, joinable = stack.pop()
        key = _require(link, "symbol" if parent is None else "edge_weight", int)
        if parent is not None and key < 1:
            raise SnapshotError("snapshot edge weights must be >= 1")
        node_doc = _require(link, "node", dict)
        symbol = _require(node_doc, "symbol", int)
        terminal = _require(node_doc, "terminal_count", int)
        if symbol < 0 or terminal < 0:
            raise SnapshotError("snapshot symbols and counts must be non-negative")
        terminals += terminal
        if parent is None and key != symbol:
            raise SnapshotError(f"root entry symbol {key} != node symbol {symbol}")
        if joinable and key == parent.weight:
            edge = parent
            edge.symbols.append(symbol)
            edge.terminal_count = terminal
        else:
            edge = _Edge([symbol], 0 if parent is None else key, terminal)
            siblings, kind = (forest._roots, "root") if parent is None else (parent.children, "child")
            if symbol in siblings:
                raise SnapshotError(f"duplicate {kind} symbol {symbol}")
            siblings[symbol] = edge
        children = _require(node_doc, "children", list)
        joinable = parent is not None and len(children) == 1 and terminal == 0
        stack.extend((child, edge, joinable) for child in reversed(children))
    for _, edge in forest._walk():  # symbols were lists during the document walk
        edge.symbols = tuple(edge.symbols)
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
    for i, (depth, symbol, weight, terminal) in enumerate(forest.iter_nodes()):
        nodes.append(f'  n{i} [label="{symbol} [{terminal}]"];')
        del ids[depth - 1 :]
        if ids:
            edges.append(f'  n{ids[-1]} -> n{i} [label="{weight}"];')
        ids.append(i)
    return "\n".join(["digraph behavior_forest {", *nodes, *edges, "}"]) + "\n"
