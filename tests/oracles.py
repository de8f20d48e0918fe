"""Scalar reference implementations that the library's stages are checked against."""

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from behaviorforest.analysis import segment_variance
from behaviorforest.core import (
    DimensionMismatchError,
    EngineConfig,
    InvalidSampleError,
)
from behaviorforest.forest import (
    SNAPSHOT_VERSION,
    TERMINATED_BY_PLATEAU,
    TERMINATED_BY_STREAM_END,
    BehaviorDetector,
    DiscoveredBehavior,
    InsertionReceipt,
)
from behaviorforest.preprocess import discretize_batch


class ListSampleBuffer:
    """Look-back buffer holding one Python tuple per sample.

    The reference for `selection.SampleBuffer`: it keeps every sample, so
    its `extract` defines which spans are served, which raise, and what
    they return.
    """

    def __init__(self) -> None:
        self._t: List[float] = []
        self._values: List[Tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._t)

    def extend(self, t: np.ndarray, values: np.ndarray) -> None:
        self._t.extend(float(x) for x in t)
        self._values.extend(map(tuple, np.asarray(values, dtype=np.float64)))

    def extract(self, span: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        start, end = span
        if end <= start:
            raise ValueError(f"span must be non-empty, got [{start}, {end})")
        if start < 0 or end > len(self._t):
            raise ValueError(
                f"span [{start}, {end}) lies outside the buffered samples [0, {len(self._t)})"
            )
        return (
            np.array(self._t[start:end], dtype=np.float64),
            np.array(self._values[start:end], dtype=np.float64),
        )


def discretize(value: float, breakpoints: Sequence[float]) -> int:
    """Bin index of one value under half-open bins [b_j, b_{j+1}).

    The reference for `preprocess.discretize_batch`.
    """
    if math.isnan(value):
        raise InvalidSampleError("NaN sample cannot be discretized")
    return int(np.searchsorted(breakpoints, value, side="right"))


class StepHysteresisFilter:
    """One channel's hysteresis filter stepped one sample at a time.

    The reference for `preprocess.HysteresisFilter.run`: it applies the
    penetration rule of that class's docstring literally, sample by sample.
    deltas[s] is the margin times bin s's width; the edge bins borrow their
    neighbour's width, and a single breakpoint gets a unit width.
    """

    def __init__(self, breakpoints: Sequence[float], margin: float):
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.margin = float(margin)
        self.committed: Optional[int] = None
        bp = self.breakpoints
        widths = [b - a for a, b in zip(bp, bp[1:])]
        widths = [widths[0], *widths, widths[-1]] if widths else [1.0, 1.0]
        self.deltas = [self.margin * w for w in widths]

    def step(self, value: float) -> int:
        candidate = discretize(value, self.breakpoints)
        committed = self.committed
        if committed is None or candidate == committed:
            self.committed = candidate
            return candidate
        if self._passes(value, candidate, committed):
            self.committed = candidate
            return candidate
        return committed

    def _passes(self, value: float, candidate: int, committed: int) -> bool:
        delta = self.deltas[committed]
        if candidate > committed:
            return value >= self.breakpoints[candidate - 1] + delta
        return value <= self.breakpoints[candidate] - delta


class SegmentHysteresisFilter(StepHysteresisFilter):
    """Hysteresis filter whose `run` loops once per constant-candidate segment.

    The reference for `preprocess.HysteresisFilter.run`: the committed
    symbol can only flip at the first in-segment sample that clears the
    penetration threshold, after which candidate == committed holds to the
    segment end.
    """

    def run(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        candidates = discretize_batch(values, self.breakpoints)
        n = len(candidates)
        if n == 0:
            return candidates
        if self.margin == 0.0:
            self.committed = int(candidates[-1])
            return candidates
        out = np.empty(n, dtype=np.int64)
        committed = self.committed
        bounds = np.flatnonzero(candidates[1:] != candidates[:-1]) + 1
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), n]
        for s, e in zip(starts, ends):
            candidate = int(candidates[s])
            if committed is None or candidate == committed:
                committed = candidate
                out[s:e] = candidate
                continue
            delta = self.deltas[committed]
            if candidate > committed:
                hits = values[s:e] >= self.breakpoints[candidate - 1] + delta
            else:
                hits = values[s:e] <= self.breakpoints[candidate] - delta
            hit_at = np.flatnonzero(hits)
            if len(hit_at) == 0:
                out[s:e] = committed
            else:
                flip = s + int(hit_at[0])
                out[s:flip] = committed
                out[flip:e] = candidate
                committed = candidate
        self.committed = committed
        return out


def unify_symbols(symbols: Sequence[int], alphabet_sizes: Sequence[int]) -> int:
    """Fuse one sample's per-channel symbols into one mixed-radix code.

    The reference for `preprocess.fuse_symbols`: the first channel is the
    most significant digit, and out-of-range symbols are rejected.
    """
    if len(symbols) != len(alphabet_sizes):
        raise ValueError(
            f"got {len(symbols)} symbols for {len(alphabet_sizes)} channels"
        )
    unified = 0
    for s, a in zip(symbols, alphabet_sizes):
        if not 0 <= s < a:
            raise ValueError(f"symbol {s} outside alphabet of size {a}")
        unified = unified * a + s
    return unified


def split_unified(unified: int, alphabet_sizes: Sequence[int]) -> Tuple[int, ...]:
    """Invert `unify_symbols` back to per-channel symbols."""
    out = []
    for a in reversed(alphabet_sizes):
        out.append(unified % a)
        unified //= a
    if unified:
        raise ValueError("unified symbol outside the fused alphabet")
    return tuple(reversed(out))


def copies_for_run_length(length: int, log_base: int) -> int:
    """Number of copies a run of `length` identical symbols survives as.

    The reference for `preprocess.run_copies`: ceil(log_base(length)) by
    repeated multiplication, clamped to at least one copy.
    """
    if length < 1:
        raise ValueError(f"run length must be >= 1, got {length}")
    copies, reach = 0, 1
    while reach < length:
        reach *= log_base
        copies += 1
    return max(1, copies)


@dataclass(frozen=True)
class ReducedSymbol:
    """One copy emitted for a compressed run of identical unified symbols.

    All copies of a run share the run's full raw span; run_length_raw is the
    number of raw samples the run covered.
    """

    symbol: int
    raw_span: Tuple[int, int]
    run_length_raw: int

    def __post_init__(self) -> None:
        s, e = self.raw_span
        if self.symbol < 0:
            raise ValueError(f"symbol must be non-negative, got {self.symbol}")
        if e <= s:
            raise ValueError(f"raw_span must be non-empty, got [{s}, {e})")
        if self.run_length_raw < 1:
            raise ValueError(f"run_length_raw must be >= 1, got {self.run_length_raw}")


def runs_of(copies: Sequence[ReducedSymbol]) -> List[List[int]]:
    """Rows `[symbol, start, end, copies]` of a copy stream, one per run.

    The copies of one run are equal and adjacent, and adjacent runs differ
    in span, so grouping equal neighbours recovers the runs exactly.
    """
    return [
        [rs.symbol, *rs.raw_span, len(list(group))]
        for rs, group in itertools.groupby(copies)
    ]


def unit_runs(symbols: Sequence[int]) -> np.ndarray:
    """Run rows of a symbol list in which every symbol is one unit-span copy."""
    rows, start = [], 0
    for symbol, group in itertools.groupby(symbols):
        k = len(list(group))
        rows.append((symbol, start, start + k, k))
        start += k
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


class StepPipeline:
    """Sample-to-reduced-symbol pipeline stepped one frame at a time.

    The reference for `preprocess.PreprocessPipeline`: `step` takes one
    frame's channel values and returns the copies of the run it closed
    (usually none); `flush` closes the final run at end of stream.
    """

    def __init__(self, config: EngineConfig, stream_id: str = "stream"):
        self.config = config
        self.stream_id = stream_id
        self._alphabet_sizes = config.breakpoints.alphabet_sizes
        self._filters = [
            StepHysteresisFilter(ch, config.hysteresis_margin)
            for ch in config.breakpoints.channels
        ]
        self._log_base = config.log_base
        self.raw_index = 0
        self._run_symbol: Optional[int] = None
        self._run_start = 0

    def step(self, values: Sequence[float]) -> List[ReducedSymbol]:
        if len(values) != self.config.n_channels:
            raise DimensionMismatchError(
                f"stream {self.stream_id!r}: expected "
                f"{self.config.n_channels} channels, got {len(values)}"
            )
        # Reject before touching filter state so a bad frame has no effect.
        if any(math.isnan(v) for v in values):
            raise InvalidSampleError(f"NaN sample at index {self.raw_index}")
        symbols = [f.step(float(v)) for f, v in zip(self._filters, values)]
        unified = unify_symbols(symbols, self._alphabet_sizes)
        out: List[ReducedSymbol] = []
        if self._run_symbol is None:
            self._run_symbol = unified
            self._run_start = self.raw_index
        elif unified != self._run_symbol:
            out = self._close_run(end=self.raw_index)
            self._run_symbol = unified
            self._run_start = self.raw_index
        self.raw_index += 1
        return out

    def flush(self) -> List[ReducedSymbol]:
        if self._run_symbol is None:
            return []
        out = self._close_run(end=self.raw_index)
        self._run_symbol = None
        return out

    def _close_run(self, end: int) -> List[ReducedSymbol]:
        length = end - self._run_start
        copies = copies_for_run_length(length, self._log_base)
        reduced = ReducedSymbol(
            symbol=self._run_symbol,
            raw_span=(self._run_start, end),
            run_length_raw=length,
        )
        return [reduced] * copies


_STATIONARY = "stationary"
_IN_BEHAVIOR = "in_behavior"


class StepBehaviorDetector:
    """Behavior detector stepped one reduced-symbol copy at a time.

    The reference for `forest.BehaviorDetector`.  Stationary phase: track
    the current run; once it reaches `initiation_context` copies, any
    differing symbol opens a behavior rooted at the stationary symbol.
    In-behavior: every symbol joins the path (repeats below the plateau
    length stay as separate path nodes); when a run reaches
    `termination_run` copies the behavior closes with that symbol kept
    exactly once, and the plateau becomes the stationary context for the
    next behavior.
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
        self._phase = _STATIONARY
        self._last_symbol: Optional[int] = None
        self._run_count = 0
        self._run_start = 0
        self._path: List[int] = []
        self._db_start = 0
        self._run_first_end = 0
        self._last_end = 0

    def step(self, rs: ReducedSymbol) -> Optional[DiscoveredBehavior]:
        if self._phase == _STATIONARY:
            self._step_stationary(rs)
            return None
        return self._step_in_behavior(rs)

    def _step_stationary(self, rs: ReducedSymbol) -> None:
        if self._last_symbol is None or (
            rs.symbol != self._last_symbol and self._run_count < self.initiation_context
        ):
            # No usable context yet; (re)start stationary tracking here.
            self._last_symbol = rs.symbol
            self._run_count = 1
            self._run_start = rs.raw_span[0]
            return
        if rs.symbol == self._last_symbol:
            self._run_count += 1
            return
        # Context established and the symbol broke it: open a behavior.
        self._phase = _IN_BEHAVIOR
        self._path = [self._last_symbol, rs.symbol]
        self._db_start = self._run_start
        self._last_symbol = rs.symbol
        self._run_count = 1
        self._run_start = rs.raw_span[0]
        self._run_first_end = rs.raw_span[1]
        self._last_end = rs.raw_span[1]

    def _step_in_behavior(self, rs: ReducedSymbol) -> Optional[DiscoveredBehavior]:
        self._last_end = rs.raw_span[1]
        if rs.symbol != self._last_symbol:
            self._path.append(rs.symbol)
            self._last_symbol = rs.symbol
            self._run_count = 1
            self._run_start = rs.raw_span[0]
            self._run_first_end = rs.raw_span[1]
            return None
        self._run_count += 1
        if self._run_count < self.termination_run:
            self._path.append(rs.symbol)
            return None
        # Plateau reached: the path keeps this symbol exactly once.
        del self._path[len(self._path) - (self.termination_run - 2) :]
        behavior = DiscoveredBehavior(
            path=tuple(self._path),
            raw_span=(self._db_start, self._run_first_end),
            termination=TERMINATED_BY_PLATEAU,
        )
        # The plateau is the next stationary context; its run keeps counting.
        self._phase = _STATIONARY
        self._path = []
        return behavior

    def flush(self) -> Optional[DiscoveredBehavior]:
        """Close an open behavior at end of stream and reset the detector."""
        behavior = None
        if self._phase == _IN_BEHAVIOR:
            assert len(self._path) >= 2
            behavior = DiscoveredBehavior(
                path=tuple(self._path),
                raw_span=(self._db_start, self._last_end),
                termination=TERMINATED_BY_STREAM_END,
            )
        self._reset()
        return behavior


class RunBehaviorDetector(BehaviorDetector):
    """Behavior detector whose `step` loops once per run.

    The reference for `forest.BehaviorDetector.step`, which loops once per
    behavior instead; both share the state that `flush` reads.
    """

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


def node_at(forest, path: Sequence[int]):
    """The node at `path`, reached from `forest.roots` through `children`, or None.

    Serves `BehaviorForest` views and `ObjectForest` nodes alike.
    """
    node = forest.roots.get(path[0]) if path else None
    for symbol in path[1:]:
        if node is None:
            return None
        node = node.children.get(symbol)
    return node


class ObjectNode:
    """One symbol position in a prefix tree."""

    __slots__ = ("symbol", "children", "edge_weight", "terminal_count")

    def __init__(self, symbol: int):
        self.symbol = symbol
        self.children: Dict[int, "ObjectNode"] = {}
        self.edge_weight = 0  # traversals of the edge from the parent
        self.terminal_count = 0  # behaviors that ended exactly here


class ObjectForest:
    """Prefix forest holding one node object per path position.

    The reference for `forest.BehaviorForest`, which stores chains of
    one-child nodes as single edges: both must serve the same logical
    nodes, receipts and counts.
    """

    def __init__(self) -> None:
        self.roots: Dict[int, ObjectNode] = {}
        self.total_insertions = 0

    def insert(self, path: Sequence[int]) -> InsertionReceipt:
        if len(path) < 2:
            raise ValueError(f"behavior path needs >= 2 symbols, got {tuple(path)}")
        created = False
        node = self.roots.get(path[0])
        if node is None:
            node = ObjectNode(path[0])
            self.roots[path[0]] = node
            created = True
        for symbol in path[1:]:
            child = node.children.get(symbol)
            if child is None:
                child = ObjectNode(symbol)
                node.children[symbol] = child
                created = True
            child.edge_weight += 1
            node = child
        prior = node.terminal_count
        node.terminal_count += 1
        self.total_insertions += 1
        return InsertionReceipt(created_new_node=created, prior_terminal_count=prior)

    def occurrence_count(self, path: Sequence[int]) -> int:
        node = node_at(self, path)
        return node.terminal_count if node is not None else 0

    def iter_nodes(self) -> Iterator[Tuple[int, ObjectNode]]:
        """Pre-order walk yielding (depth, node): roots at depth 1, children by symbol."""
        stack = [(1, node) for _, node in sorted(self.roots.items(), reverse=True)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for _, child in sorted(node.children.items(), reverse=True):
                stack.append((depth + 1, child))

    def terminal_paths(self) -> Dict[Tuple[int, ...], int]:
        paths: Dict[Tuple[int, ...], int] = {}
        path: List[int] = []
        for depth, node in self.iter_nodes():
            del path[depth - 1 :]
            path.append(node.symbol)
            if node.terminal_count > 0:
                paths[tuple(path)] = node.terminal_count
        return paths

    @classmethod
    def restore(cls, doc: dict) -> "ObjectForest":
        """The forest of a valid v1 snapshot document, node for node."""
        forest = cls()
        stack = [(entry, None) for entry in reversed(doc["roots"])]
        while stack:
            link, parent = stack.pop()
            node_doc = link["node"]
            node = ObjectNode(node_doc["symbol"])
            node.terminal_count = node_doc["terminal_count"]
            node.edge_weight = 0 if parent is None else link["edge_weight"]
            (forest.roots if parent is None else parent.children)[node.symbol] = node
            stack.extend((child, node) for child in reversed(node_doc["children"]))
        forest.total_insertions = doc["total_insertions"]
        return forest

    def snapshot(self, config_hash: str) -> dict:
        """The v1 document that `forest_snapshot` must build for this forest."""
        links: List[List[dict]] = [[]]
        for depth, node in self.iter_nodes():
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
            "total_insertions": self.total_insertions,
        }

    def dot(self) -> str:
        """The Graphviz text that `forest.forest_to_dot` must render for this forest."""
        nodes: List[str] = []
        edges: List[str] = []
        ids: List[int] = []  # ids[d - 1]: number of the last node seen at depth d
        for i, (depth, node) in enumerate(self.iter_nodes()):
            nodes.append(f'  n{i} [label="{node.symbol} [{node.terminal_count}]"];')
            del ids[depth - 1 :]
            if ids:
                edges.append(f'  n{ids[-1]} -> n{i} [label="{node.edge_weight}"];')
            ids.append(i)
        return "\n".join(["digraph behavior_forest {", *nodes, *edges, "}"]) + "\n"


def forest_snapshot(forest, config_hash: str) -> dict:
    """The v1 document of a `BehaviorForest`, built from its `iter_nodes` rows.

    `forest.snapshot_dumps` must write this document as `json.dumps(doc,
    indent=2, sort_keys=True)` does, and `forest.forest_restore` must read it.
    """
    # links[d - 1] is the list a depth-d node's link goes into: the root
    # entries {"symbol", "node"} or its parent's {"edge_weight", "node"} links.
    links: List[List[dict]] = [[]]
    for depth, symbol, weight, terminal in forest.iter_nodes():
        doc = {"symbol": symbol, "terminal_count": terminal, "children": []}
        link = {"symbol": symbol} if depth == 1 else {"edge_weight": weight}
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


def loop_window_variances(series: np.ndarray, window_length: int) -> np.ndarray:
    """`segment_variance` of each half-overlapping window, one call per window.

    The reference for `analysis.sliding_window_variances`, which must give
    the same bytes.
    """
    x = np.asarray(series, dtype=np.float64)
    starts = range(0, len(x) - window_length + 1, (window_length + 1) // 2)
    return np.array(
        [segment_variance(x[s : s + window_length]) for s in starts], dtype=np.float64
    )


def csv_write_series(
    path: str,
    t: np.ndarray,
    values: np.ndarray,
    channel_names: Optional[Sequence[str]] = None,
) -> None:
    """Series file written one `csv.writer` row per sample.

    The reference for `io.write_series`, whose block-formatted output must
    match these bytes exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    names = list(channel_names) if channel_names else [f"ch{i + 1}" for i in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} channel names for {d} channels")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *names])
        for ti, row in zip(np.asarray(t, dtype=np.float64), values):
            writer.writerow([repr(float(ti)), *(repr(float(v)) for v in row)])


def path_id_dot(forest) -> str:
    """Graphviz text of a forest whose node ids spell their full path, `n1_2_3`.

    The reference for `forest.forest_to_dot`, which numbers nodes in
    pre-order instead: renaming its `n<i>` to the path id of the i-th
    pre-order node must give these bytes.  The ids make it quadratic in depth.
    """
    nodes: List[str] = []
    edges: List[str] = []
    stack = [((symbol,), node) for symbol, node in sorted(forest.roots.items(), reverse=True)]
    while stack:
        path, node = stack.pop()
        nid = "n" + "_".join(str(s) for s in path)
        nodes.append(f'  {nid} [label="{node.symbol} [{node.terminal_count}]"];')
        if len(path) > 1:
            pid = "n" + "_".join(str(s) for s in path[:-1])
            edges.append(f'  {pid} -> {nid} [label="{node.edge_weight}"];')
        for symbol, child in sorted(node.children.items(), reverse=True):
            stack.append((path + (symbol,), child))
    return "\n".join(["digraph behavior_forest {", *nodes, *edges, "}"]) + "\n"
