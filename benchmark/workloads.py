"""The benchmark's workloads: seeded inputs, the timed call and its premise.

Each workload builds its input from the seed alone and hands the program
only arrays (through `discover`) or a CSV file (through the CLI).  After a
call, `collect` turns whatever the program produced into an `Outcome`,
which `checks.py` verifies outside the timed region.

- steady: the paper's target regime.  Long quiet stretches and four
  repeating burst patterns, so almost every behavior is a discard and work
  that grows with the sample count dominates.
- flicker: noise straddling a breakpoint after a quiet lead-in.  Hysteresis
  chatters, so per-run work dominates and the whole tail becomes a single
  end-of-stream behavior with a very deep forest chain.
- cli_novel: a non-stationary stream through `behaviorforest discover`.
  Almost every behavior is novel or under threshold, so the recording path
  (materialize, segment files, snapshot, DOT) and the CSV read dominate.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

STEADY_BURSTS_PER_PATTERN = 250
FLICKER_SAMPLES = 400_000
FLICKER_LEAD_IN = 1_000
NOVEL_SAMPLES = 400_000
NOVEL_HOLD = (5, 399)  # inclusive range of samples a level is held
FLICKER_CONFIG = {"breakpoints": [[-0.5, 0.5], [-0.5, 0.5]]}
NOVEL_CONFIG = {"alphabet_sizes": [4, 4]}


def flicker_series(seed: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """1,000 samples at 0.0, then N(0.5, 0.3) on both channels.

    The quiet lead-in gives the detector its stationary context, so the
    chattering tail opens exactly one behavior that never reaches a
    plateau.  Without it the detector arms only by chance.
    """
    rng = np.random.default_rng(seed)
    lead = min(FLICKER_LEAD_IN, n)
    values = np.concatenate(
        [np.zeros((lead, 2)), rng.normal(0.5, 0.3, (n - lead, 2))]
    )
    return np.arange(n, dtype=np.float64), values


def piecewise_series(seed: int, n: int, channels: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    """Each channel holds N(0, 1) levels for 5-399 samples, plus N(0, 0.02) noise."""
    rng = np.random.default_rng(seed)
    lo, hi = NOVEL_HOLD
    columns = []
    for _ in range(channels):
        holds = rng.integers(lo, hi + 1, size=n // lo + 1)
        k = int(np.searchsorted(np.cumsum(holds), n)) + 1
        levels = rng.normal(0.0, 1.0, size=k)
        columns.append(np.repeat(levels, holds[:k])[:n])
    values = np.stack(columns, axis=1) + rng.normal(0.0, 0.02, (n, channels))
    return np.arange(n, dtype=np.float64), values


def write_csv(path: str, t: np.ndarray, values: np.ndarray) -> None:
    """Series CSV in the format `read_series` takes; repr() round-trips exactly."""
    columns = [t.tolist(), *(values[:, c].tolist() for c in range(values.shape[1]))]
    header = ",".join(["t", *(f"ch{c + 1}" for c in range(values.shape[1]))])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def read_csv_floats(path: str) -> np.ndarray:
    """All data rows of a series CSV as float64, parsed without the library."""
    with open(path, "r", encoding="utf-8") as fh:
        width = fh.readline().count(",") + 1
        body = fh.read()
    values = list(map(float, body.replace(",", " ").split()))
    return np.array(values, dtype=np.float64).reshape(-1, width)


@dataclass
class Segment:
    """One recorded segment as the benchmark sees it."""

    segment_id: int
    stream_id: str
    span: Tuple[int, int]
    path_id: str
    reason: str
    occurrence_index: int
    t: np.ndarray
    values: np.ndarray


@dataclass
class ForestView:
    """Roots of a forest plus how to open one node.

    `expand(node)` returns (symbol, edge_weight, terminal_count, children),
    children sorted by symbol, so live forests and snapshot documents are
    walked the same way.
    """

    roots: Sequence[object]
    expand: Callable[[object], Tuple[int, int, int, Sequence[object]]]

    @classmethod
    def of_live(cls, forest) -> "ForestView":
        def expand(node):
            kids = node.children
            children = [kids[s] for s in sorted(kids)]
            return node.symbol, node.edge_weight, node.terminal_count, children

        return cls([n for _, n in sorted(forest.roots.items())], expand)

    @classmethod
    def of_snapshot(cls, doc: dict) -> "ForestView":
        # Snapshot nodes carry no edge weight; the parent's link holds it.
        def expand(item):
            weight, node = item
            links = sorted(node["children"], key=lambda link: link["node"]["symbol"])
            children = [(link["edge_weight"], link["node"]) for link in links]
            return node["symbol"], weight, node["terminal_count"], children

        roots = sorted(doc["roots"], key=lambda entry: entry["symbol"])
        return cls([(0, entry["node"]) for entry in roots], expand)


@dataclass
class Outcome:
    """What one call produced, as the benchmark read it back."""

    segments: List[Segment]
    detected: int
    recorded: int
    recorded_samples: int
    total_samples: int
    total_insertions: int
    forest: ForestView
    end_of_stream_closures: Optional[int] = None  # None where not observable
    dot: Optional[str] = None


class Workload:
    """Inputs, the timed call and the premise of one workload.

    run.py calls `generate` and `prepare` during set-up; the measurement
    process calls `load` once, then `reset`, `run` and `collect` per call.
    """

    name = ""

    def __init__(self, bf, root: str, work: str, scale: float = 1.0):
        self.bf = bf
        self.root = root
        self.work = work
        self.scale = scale
        self._inputs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def generate(self, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def config_path(self) -> str:
        return os.path.join(self.work, "config.json")

    def prepare(self, t: np.ndarray, values: np.ndarray) -> None:
        np.save(os.path.join(self.work, "t.npy"), t)
        np.save(os.path.join(self.work, "values.npy"), values)

    def inputs(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._inputs is None:
            self._inputs = (
                np.load(os.path.join(self.work, "t.npy")),
                np.load(os.path.join(self.work, "values.npy")),
            )
        return self._inputs

    def load(self) -> None:
        """Everything the call needs in memory before the first call."""

    def reset(self) -> None:
        """Undo the previous call's side effects."""

    def run(self):
        raise NotImplementedError

    def collect(self, output) -> Outcome:
        raise NotImplementedError

    def premise(self, outcome: Outcome) -> List[str]:
        return []


class _DiscoverWorkload(Workload):
    """Calls `behaviorforest.engine.discover` on in-memory arrays."""

    def load(self) -> None:
        self.config = self.bf.io.load_config(self.config_path())
        self.inputs()
        self._closures = 0

    def run(self):
        # Counts end-of-stream closures, the one fact about a behavior that
        # neither the result nor the forest keeps.  One call per stream.
        detector = self.bf.forest.BehaviorDetector
        flush = detector.flush
        self._closures = 0

        def counting_flush(det):
            behavior = flush(det)
            if behavior is not None:
                self._closures += 1
            return behavior

        detector.flush = counting_flush
        try:
            t, values = self.inputs()
            return self.bf.engine.discover(self.config, [(self.name, t, values)])
        finally:
            detector.flush = flush

    def collect(self, output) -> Outcome:
        engine, result = output
        stats = result.stats
        segments = [
            Segment(s.segment_id, s.stream_id, tuple(s.raw_span), s.path_id,
                    s.reason, s.occurrence_index, s.t, s.values)
            for s in result.segments
        ]
        return Outcome(
            segments=segments,
            detected=stats.detected_db_count,
            recorded=stats.recorded_db_count,
            recorded_samples=stats.recorded_sample_count,
            total_samples=stats.total_sample_count,
            total_insertions=engine.forest.total_insertions,
            forest=ForestView.of_live(engine.forest),
            end_of_stream_closures=self._closures,
        )


class Steady(_DiscoverWorkload):
    name = "steady"

    def generate(self, seed):
        bursts = max(1, round(STEADY_BURSTS_PER_PATTERN * self.scale))
        return self.bf.analysis.generate_synthetic(seed, bursts_per_pattern=bursts)

    def config_path(self) -> str:
        return os.path.join(self.root, "configs", "synthetic.json")

    def premise(self, outcome):
        errors = []
        paths = {s.path_id for s in outcome.segments}
        if len(paths) < 4:
            errors.append(f"steady premise: {len(paths)} distinct recorded paths, need >= 4")
        share = outcome.recorded_samples / outcome.total_samples
        if share >= 0.05:
            errors.append(f"steady premise: {share:.2%} of samples recorded, need < 5%")
        return errors


class Flicker(_DiscoverWorkload):
    name = "flicker"

    def generate(self, seed):
        return flicker_series(seed, max(2 * FLICKER_LEAD_IN, round(FLICKER_SAMPLES * self.scale)))

    def prepare(self, t, values):
        super().prepare(t, values)
        with open(self.config_path(), "w", encoding="utf-8") as fh:
            json.dump(FLICKER_CONFIG, fh)

    def premise(self, outcome):
        if outcome.detected != 1 or outcome.end_of_stream_closures != 1:
            return [
                f"flicker premise: {outcome.detected} behaviors, "
                f"{outcome.end_of_stream_closures} closed at end of stream; need 1 and 1"
            ]
        longest = max((s.path_id.count("-") + 1 for s in outcome.segments), default=0)
        if 2 * longest <= outcome.total_samples:
            return [f"flicker premise: path of {longest} symbols is not over half "
                    f"of {outcome.total_samples} samples"]
        return []


class CliNovel(Workload):
    """Calls `behaviorforest.cli.main(["discover", ...])` on a CSV file."""

    name = "cli_novel"

    def generate(self, seed):
        return piecewise_series(seed, max(1_000, round(NOVEL_SAMPLES * self.scale)))

    def prepare(self, t, values):
        super().prepare(t, values)
        write_csv(self.csv_path, t, values)
        with open(self.config_path(), "w", encoding="utf-8") as fh:
            json.dump(NOVEL_CONFIG, fh)

    @property
    def csv_path(self) -> str:
        return os.path.join(self.work, "input.csv")

    @property
    def out_dir(self) -> str:
        return os.path.join(self.work, "out")

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        argv = ["discover", self.csv_path, "--config", self.config_path(), "--out", self.out_dir]
        code = self.bf.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"behaviorforest discover exited with {code}")
        return code

    def collect(self, output) -> Outcome:
        out = self.out_dir
        with open(os.path.join(out, "stats.json"), encoding="utf-8") as fh:
            stats = json.load(fh)
        with open(os.path.join(out, "forest.json"), encoding="utf-8") as fh:
            snapshot = json.load(fh)
        with open(os.path.join(out, "forest.dot"), encoding="utf-8") as fh:
            dot = fh.read()
        segments = []
        with open(os.path.join(out, "segments.csv"), encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                seg_id = int(row["segment_id"])
                data = read_csv_floats(
                    os.path.join(out, "segments", f"segment_{seg_id:05d}.csv")
                )
                segments.append(Segment(
                    seg_id, row["stream_id"],
                    (int(row["start_index"]), int(row["end_index"])),
                    row["path"], row["reason"], int(row["occurrence_index"]),
                    np.ascontiguousarray(data[:, 0]), np.ascontiguousarray(data[:, 1:]),
                ))
        return Outcome(
            segments=segments,
            detected=stats["detected_db_count"],
            recorded=stats["recorded_db_count"],
            recorded_samples=stats["recorded_sample_count"],
            total_samples=stats["total_sample_count"],
            total_insertions=snapshot["total_insertions"],
            forest=ForestView.of_snapshot(snapshot),
            dot=dot,
        )

    def premise(self, outcome):
        share = outcome.recorded_samples / outcome.total_samples
        if share < 0.9:
            return [f"cli_novel premise: {share:.2%} of samples recorded, need >= 90%"]
        return []


WORKLOADS = {w.name: w for w in (Steady, Flicker, CliNovel)}
