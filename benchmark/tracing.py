"""Spans around the public callables of behaviorforest, recorded from outside.

Each wrapper sits at the name its caller looks up (a module attribute or a
class method), so the program itself is unchanged.  A span is its name,
start, end, parent span and the id of the call (`op`) it belongs to; spans
stay in memory in flat arrays and are written out once, when the run ends.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from typing import Dict, List

import numpy as np

MB = float(1 << 20)


def _column(values: array, lo: int = 0) -> np.ndarray:
    # Slicing copies, so the recording array never exports its buffer and
    # can keep growing.
    return np.frombuffer(values[lo:], dtype=np.int64)


def _count_batch(tracer, args, result):
    tracer.counts["preprocess.samples"] += len(args[1])
    tracer.counts["preprocess.reduced_symbols"] += len(result)


def _count_reduced(tracer, args, result):
    tracer.counts["preprocess.reduced_symbols"] += len(result)


def _count_novel(tracer, args, result):
    tracer.counts["forest.novel"] += result.created_new_node


def _count_rows(tracer, args, result):
    tracer.counts["io.read_series.rows"] += len(result[0])


def _count_written(tracer, args, result):
    tracer.counts["io.write_segments.files"] += len(args[1]) + 1  # + manifest
    tracer.written.append((result, [s.segment_id for s in args[1]]))


def _count_snapshot(tracer, args, result):
    tracer.counts["forest.snapshot.bytes"] += len(result)


def _count_dot(tracer, args, result):
    tracer.counts["forest.dot.bytes"] += len(result)


def _targets(bf):
    """(owner, attribute, span name, counter hook) of every traced callable."""
    engine, cli, io = bf.engine, bf.cli, bf.io
    pre, forest, sel = bf.preprocess, bf.forest, bf.selection
    return [
        (cli, "main", "cli.main", None),
        (engine, "discover", "engine.discover", None),
        (cli, "discover", "engine.discover", None),
        (engine.DiscoveryEngine, "process_stream", "engine.process_stream", None),
        (sel.SampleBuffer, "extend", "selection.buffer_extend", None),
        (sel.SampleBuffer, "extract", "selection.buffer_extract", None),
        (engine, "decide", "selection.decide", None),
        (engine, "materialize", "selection.materialize", None),
        (pre.PreprocessPipeline, "process_batch", "preprocess.process_batch", _count_batch),
        (pre.PreprocessPipeline, "flush", "preprocess.flush", _count_reduced),
        (pre.HysteresisFilter, "run", "preprocess.hysteresis", None),
        (forest.BehaviorDetector, "step", "forest.detect", None),
        (forest.BehaviorDetector, "flush", "forest.detect", None),
        (forest.BehaviorForest, "insert", "forest.insert", _count_novel),
        (io, "read_series", "io.read_series", _count_rows),
        (io, "write_segments", "io.write_segments", _count_written),
        (cli, "snapshot_dumps", "forest.snapshot", _count_snapshot),
        (cli, "forest_to_dot", "forest.dot", _count_dot),
    ]


class Tracer:
    """Installs span-recording wrappers for the duration of one call."""

    def __init__(self, bf):
        self._targets = _targets(bf)
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op = -1
        self._op_first: Dict[int, int] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.written: list = []
        self._saved: list = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _wrap(self, fn, span: str, hook):
        nid = self._name_id(span)
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            op.append(tracer._op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self, op_index: int) -> None:
        """Start recording the spans of call `op_index`."""
        self._op = op_index
        self._op_first[op_index] = len(self.start)
        self.counts = defaultdict(float)
        self.written = []
        for owner, attr, span, hook in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, hook))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op_metrics(self, op_index: int, wall_s: float) -> Dict[str, float]:
        """Per-layer totals, self times and counts of one traced call."""
        lo = self._op_first[op_index]
        start, end, parent, name = (
            _column(a, lo) for a in (self.start, self.end, self.parent, self.name)
        )
        parent = parent - lo
        dur = (end - start) / 1e9
        nested = parent >= 0
        children = np.zeros(len(dur))
        np.add.at(children, parent[nested], dur[nested])
        own = dur - children
        k = len(self.names)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        calls = np.bincount(name, minlength=k)

        def T(span):
            return float(total[self._ids[span]]) if span in self._ids else 0.0

        def S(span):
            return float(self_s[self._ids[span]]) if span in self._ids else 0.0

        def C(span):
            return int(calls[self._ids[span]]) if span in self._ids else 0

        c = self.counts
        written = 0
        for manifest, seg_ids in self.written:
            seg_dir = os.path.join(os.path.dirname(manifest), "segments")
            written += os.path.getsize(manifest) + sum(
                os.path.getsize(os.path.join(seg_dir, f"segment_{i:05d}.csv")) for i in seg_ids
            )
        behaviors = C("forest.insert")
        samples = c["preprocess.samples"]
        return {
            "selection.buffer_extend.s": T("selection.buffer_extend"),
            "preprocess.hysteresis.s": T("preprocess.hysteresis"),
            "preprocess.self.s": S("preprocess.process_batch") + S("preprocess.flush"),
            "preprocess.samples": samples,
            "preprocess.reduced_symbols": c["preprocess.reduced_symbols"],
            "preprocess.reduction_ratio": (
                c["preprocess.reduced_symbols"] / samples if samples else 0.0
            ),
            "forest.detect.s": T("forest.detect"),
            "forest.detect.calls": C("forest.detect"),
            "forest.insert.s": T("forest.insert"),
            "forest.behaviors": behaviors,
            "forest.novel_ratio": c["forest.novel"] / behaviors if behaviors else 0.0,
            "selection.decide.s": T("selection.decide"),
            "selection.materialize.s": T("selection.materialize"),
            "selection.buffer_extract.s": T("selection.buffer_extract"),
            "io.read_series.s": T("io.read_series"),
            "io.read_series.rows": c["io.read_series.rows"],
            "io.write_segments.s": T("io.write_segments"),
            "io.write_segments.files": c["io.write_segments.files"],
            "io.write_segments.mb": written / MB,
            "forest.snapshot.s": T("forest.snapshot"),
            "forest.snapshot.mb": c["forest.snapshot.bytes"] / MB,
            "forest.dot.s": T("forest.dot"),
            "forest.dot.mb": c["forest.dot.bytes"] / MB,
            "engine.process_stream.s": T("engine.process_stream"),
            "engine.self.s": S("engine.discover") + S("engine.process_stream"),
            "cli.main.s": T("cli.main"),
            "cli.self.s": S("cli.main"),
            "trace.accounted_ratio": float(own.sum()) / wall_s,
        }

    def chunk_ms(self, op_index: int) -> List[float]:
        """Milliseconds from each buffer extend to the next in call `op_index`.

        The last chunk of a stream ends where its `process_stream` ends.
        """
        if "selection.buffer_extend" not in self._ids:
            return []
        lo = self._op_first[op_index]
        hi = len(self.start)
        extend = self._ids["selection.buffer_extend"]
        by_stream: Dict[int, List[int]] = defaultdict(list)
        for i in range(lo, hi):
            if self.name[i] == extend:
                by_stream[self.parent[i]].append(self.start[i])
        out: List[float] = []
        for stream_span, starts in by_stream.items():
            bounds = np.array(starts + [self.end[stream_span]], dtype=np.int64)
            out.extend((np.diff(bounds) / 1e6).tolist())
        return out

    def save(self, path: str) -> None:
        """Write every span recorded so far as flat arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            start_ns=_column(self.start),
            end_ns=_column(self.end),
            parent=_column(self.parent),
            name=_column(self.name),
            op=_column(self.op),
        )
