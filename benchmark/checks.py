"""Output checks, run outside the timed region after every call.

The forest is walked here with an explicit stack over `roots` and
`children`, never through `n_nodes`, `checked_total`, `terminal_paths`,
`iter_nodes` or `snapshot_dumps`: on the flicker chain of ~271k nodes
those are quadratic or recurse past Python's limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from workloads import ForestView, Outcome, Segment


@dataclass
class ForestFacts:
    nodes: int
    roots: int
    max_depth: int
    terminal_sum: int
    flow_errors: int  # non-root nodes whose edge weight != terminal + children's weights
    digest: str


def walk_forest(view: ForestView) -> ForestFacts:
    """Pre-order walk in symbol order: sizes, conservation and a digest.

    The digest hashes (depth, symbol, edge_weight, terminal_count) of every
    node in walk order as little-endian int64.
    """
    expand = view.expand
    records = []
    terminal_sum = flow_errors = 0
    stack = [(1, expand(root)) for root in reversed(view.roots)]
    while stack:
        depth, (symbol, weight, terminal, children) = stack.pop()
        records.append((depth, symbol, weight, terminal))
        terminal_sum += terminal
        below = 0
        for child in reversed(children):
            opened = expand(child)
            below += opened[1]
            stack.append((depth + 1, opened))
        if depth > 1 and weight != terminal + below:
            flow_errors += 1
    table = np.array(records, dtype="<i8").reshape(-1, 4)
    return ForestFacts(
        nodes=len(records),
        roots=len(view.roots),
        max_depth=int(table[:, 0].max(initial=0)),
        terminal_sum=terminal_sum,
        flow_errors=flow_errors,
        digest=hashlib.sha256(table.tobytes()).hexdigest(),
    )


def union_length(spans: Sequence[Tuple[int, int]]) -> int:
    """Samples covered by half-open spans, computed apart from the library."""
    total, reach = 0, None
    for start, end in sorted(spans):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def manifest_digest(segments: Sequence[Segment], forest_digest: str, total: int) -> str:
    h = hashlib.sha256()
    for s in segments:
        h.update(
            f"{s.segment_id},{s.stream_id},{s.span[0]},{s.span[1]},"
            f"{s.path_id},{s.reason},{s.occurrence_index}\n".encode()
        )
    h.update(f"forest {forest_digest} {total}\n".encode())
    return h.hexdigest()


def check_outcome(
    outcome: Outcome,
    t: np.ndarray,
    values: np.ndarray,
    expected_digest: Optional[str] = None,
) -> Tuple[List[str], ForestFacts, str]:
    """Every failed property as a message, plus the forest facts and digest."""
    errors: List[str] = []
    n = len(t)
    for seg in outcome.segments:
        start, end = seg.span
        if not 0 <= start < end <= n:
            errors.append(f"segment {seg.segment_id}: span {seg.span} outside [0, {n})")
            continue
        if not (_same_bits(seg.t, t[start:end]) and _same_bits(seg.values, values[start:end])):
            errors.append(f"segment {seg.segment_id}: samples differ from input {seg.span}")
    if outcome.recorded != len(outcome.segments):
        errors.append(f"{outcome.recorded} recorded but {len(outcome.segments)} segments")
    union = union_length([s.span for s in outcome.segments])
    if outcome.recorded_samples != union:
        errors.append(
            f"recorded_sample_count {outcome.recorded_samples} != span union {union}"
        )
    if outcome.total_samples != n:
        errors.append(f"total_sample_count {outcome.total_samples} != {n} input samples")

    facts = walk_forest(outcome.forest)
    if not facts.terminal_sum == outcome.total_insertions == outcome.detected:
        errors.append(
            f"terminal counts sum to {facts.terminal_sum}, total_insertions "
            f"{outcome.total_insertions}, detected {outcome.detected}"
        )
    if facts.flow_errors:
        errors.append(f"{facts.flow_errors} nodes break edge-weight conservation")
    if outcome.dot is not None:
        lines = outcome.dot.splitlines()
        edges = sum(1 for line in lines if " -> " in line)
        labels = sum(1 for line in lines if "[label=" in line) - edges
        if labels != facts.nodes or edges != facts.nodes - facts.roots:
            errors.append(
                f"DOT has {labels} nodes and {edges} edges for a forest of "
                f"{facts.nodes} nodes and {facts.roots} roots"
            )

    digest = manifest_digest(outcome.segments, facts.digest, outcome.total_insertions)
    if expected_digest is not None and digest != expected_digest:
        errors.append(f"digest {digest} != committed {expected_digest}")
    return errors, facts, digest
