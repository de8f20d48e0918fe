"""File formats: series, configs, snapshots and exports; the only module that opens files.

Series files are comma-delimited text with a mandatory header row; the
first column is the timestamp, every further column one channel.  The
bytes `write_series` produces are fixed: a header row quoted by the csv
module, then one row per sample whose values are the shortest round-trip
`repr` of each float64, every line ending in "\r\n".  Configs are JSON
with either explicit per-channel breakpoints or alphabet sizes to derive
equiprobable-Gaussian ones.  Config and snapshot JSON share one reader.
Every file written replaces its target whole by a rename from a temporary
sibling, only once complete, but for a run's segment files: `write_segments`
writes them in place, into a `segments/` directory it makes.  This module
alone names the files of a run directory, and a new run replaces that
directory whole (`replacing_run`), so it never holds files of two runs.
Segment files are written, and a long series file parsed, by up to one
process per CPU in the affinity mask, with the same bytes as from one.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import dataclasses
import fnmatch
import itertools
import json
import os
import shutil
import warnings
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .analysis import FEATURE_NAMES, VarianceComparison, extract_features
from .core import BreakpointSpec, ConfigError, EngineConfig, SnapshotError, _config_doc, _is_real
from .forest import BehaviorForest, forest_restore
from .selection import RecordedSegment, RunStats, cumulative_fractions

# The EngineConfig fields a config document sets as they are.
_SCALAR_KEYS = tuple(f.name for f in dataclasses.fields(EngineConfig) if f.name != "breakpoints")
_CONFIG_KEYS = {"breakpoints", "alphabet_sizes", *_SCALAR_KEYS}

# Rows formatted per block of a series file; bounds its memory for any length.
_ROW_BLOCK = 1 << 14
# Bytes of a series file's body that fill one parse process at least.
_PARSE_BLOCK = 1 << 20

# The files of a run directory, named nowhere else; `cli` reads the two
# that are defaults of `features`.
_MANIFEST = "segments.csv"
_SEGMENT = os.path.join("segments", "segment_%05d.csv")
_STATS = "stats.json"
FOREST = "forest.json"
_DOT = "forest.dot"
_REPLAY = "replay.csv"
FEATURES = "features.csv"
_VARIANCE = ("variance_long.csv", "variance_summary.csv")
_RUN_FILES = (_MANIFEST, _STATS, FOREST, _DOT, _REPLAY, FEATURES, *_VARIANCE)


def _read_json(path: str, error: type) -> object:
    """The document in a JSON file; undecodable or too deeply nested text is `error`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise error(f"{path}: JSON nests too deeply to read") from None


@contextlib.contextmanager
def _replacing(path: str):
    """A temporary sibling text file that replaces `path`, by one rename, only on success.

    This guards against failures inside the process; the file is not synced
    to disk, so a power loss may still lose it.  The new file takes its mode
    from the umask, and the target's directory must be writable.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        # A device or pipe, such as /dev/null, is written to, never replaced.
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    path = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text(path: str, text: str) -> None:
    """Replace `path` with `text`; on failure the old file stays as it was."""
    with _replacing(path) as fh:
        fh.write(text)


def _write_json(path: str, doc: object) -> None:
    write_text(path, json.dumps(doc, indent=2) + "\n")


def _write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Replace `path` with a CSV table; rows may be a generator."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_config(path: str) -> EngineConfig:
    """Read an engine config from JSON; see `config_from_dict`."""
    return config_from_dict(_read_json(path, ConfigError), source=path)


def config_from_dict(doc: dict, source: str = "config") -> EngineConfig:
    """An engine config from a JSON object; unknown keys are rejected loudly."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
    if "breakpoints" in doc:
        raw = doc["breakpoints"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{source}: breakpoints must be a non-empty list")
        # A flat number list is shorthand for a single channel.
        if all(_is_real(b) for b in raw):
            raw = [raw]
        try:
            spec = BreakpointSpec(tuple(tuple(ch) for ch in raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: malformed breakpoints ({exc})") from exc
    elif "alphabet_sizes" in doc:
        sizes = doc["alphabet_sizes"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError(f"{source}: alphabet_sizes must be a non-empty list")
        spec = BreakpointSpec.from_alphabet_sizes(sizes)
    else:
        raise ConfigError(f"{source}: provide breakpoints or alphabet_sizes")
    kwargs = {key: doc[key] for key in _SCALAR_KEYS if key in doc}
    return EngineConfig(breakpoints=spec, **kwargs)


def save_config(path: str, config: EngineConfig) -> None:
    _write_json(path, _config_doc(config))


def read_snapshot(path: str, expected_hash: Optional[str] = None) -> BehaviorForest:
    """The forest in a snapshot file; a malformed or too deep one is a SnapshotError."""
    return forest_restore(_read_json(path, SnapshotError), expected_config_hash=expected_hash)


def _processes(amount: int, block: int) -> int:
    """Processes for `amount` of work: one per CPU, no more than it fills blocks, 1 without fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), -(-amount // block)))


def _loadtxt(fh, width: int = 0) -> np.ndarray:
    """The rows of the rest of text file `fh`, `width` numbers each if given, or ValueError."""
    with warnings.catch_warnings():
        # Zero data rows are legitimate; loadtxt warns about them.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    if width and data.size and data.shape[1] != width:
        raise ValueError(f"rows of {data.shape[1]} columns")
    return data.reshape(-1, width) if width else data


def _parse_parts(path: str, fh, width: int) -> Optional[np.ndarray]:
    """The rows of series file `path` after its header, parsed in parts; None if not cut.

    The body is cut at line starts, a part per process (`_processes`).  A
    forked child parses each part but the last, which this process streams
    from `fh`, its text handle just past the header.  All children are waited
    for; if a part fails or has not `width` columns, `fh` is put back and the
    result is None too.
    """
    from io import BytesIO, TextIOWrapper

    def parse(lo: int, hi: int) -> bytes:  # in a child
        with open(path, "rb") as raw:
            raw.seek(lo)
            text = TextIOWrapper(BytesIO(raw.read(hi - lo)), encoding="utf-8")
        return _loadtxt(text, width).tobytes()

    size = os.fstat(fh.fileno()).st_size
    with open(path, "rb") as raw:
        if b"\r" in raw.readline()[:-2]:
            return None  # the text handle's header ends at this lone carriage return
        lo = raw.tell()
        n = _processes(size - lo, _PARSE_BLOCK)
        cuts = [lo]
        for j in range(1, n):
            raw.seek(lo + (size - lo) * j // n)
            raw.readline()
            cuts.append(raw.tell())
    if n == 1:
        return None
    children, last = [], None
    try:
        for start, stop in zip(cuts, cuts[1:]):
            children.append(_fork(parse, start, stop))
        fh.seek(cuts[-1])
        with contextlib.suppress(ValueError):
            last = _loadtxt(fh, width)
    finally:
        sent = [_reap(*child) for child in children]
    if last is None or any(error for _, error in sent):
        fh.seek(lo)
        return None
    return np.concatenate([*(np.frombuffer(b).reshape(-1, width) for b, _ in sent), last])


def read_series(path: str) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Load a delimited series file: (t, values[n, d], channel names).

    A regular file is parsed in parts (`_parse_parts`) and, should that fail,
    again whole, so the arrays and errors are those of one parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.strip():
            raise ValueError(f"{path}: missing header row")
        names = [c.strip() for c in next(csv.reader([header]))]
        if len(names) < 2:
            raise ValueError(f"{path}: need a timestamp column plus channels")
        data = _parse_parts(path, fh, len(names)) if os.path.isfile(path) else None
        try:
            if data is None:
                data = _loadtxt(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed numeric data ({exc})") from exc
    if data.size == 0:
        return (
            np.empty(0, dtype=np.float64),
            np.empty((0, len(names) - 1), dtype=np.float64),
            names[1:],
        )
    if data.shape[1] != len(names):
        raise ValueError(
            f"{path}: header names {len(names)} columns, rows have {data.shape[1]}"
        )
    return data[:, 0], data[:, 1:], names[1:]


def _series(
    t: np.ndarray, values: np.ndarray, channel_names: Optional[Sequence[str]]
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """(t, values[n, d], header row) of a series to write, checked."""
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if len(t) != len(values):
        raise ValueError(f"{len(t)} timestamps for {len(values)} samples")
    d = values.shape[1]
    names = list(channel_names) if channel_names else [f"ch{i + 1}" for i in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} channel names for {d} channels")
    return t, values, ["t", *names]


def _rows(t: np.ndarray, values: np.ndarray, start: int, stop: int) -> str:
    """The text of rows [start, stop) of a series file."""
    # "%r" % x is repr(x) and "\r\n" is csv's line terminator, so a block of
    # rows is formatted by one %-operation with the bytes csv.writer gives.
    block = np.column_stack([t[start:stop], values[start:stop]])
    row = ",".join(["%r"] * block.shape[1]) + "\r\n"
    return row * len(block) % tuple(block.ravel().tolist())


def _create(path: str):
    """A new text file at `path`, written in place; an existing one is FileExistsError."""
    return open(path, "x", encoding="utf-8", newline="")


def _write_rows(path: str, header: Sequence[str], texts: Iterable[str]) -> None:
    """Write a new series file in place: the header row, then the row texts."""
    with _create(path) as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(texts)


def write_series(
    path: str,
    t: np.ndarray,
    values: np.ndarray,
    channel_names: Optional[Sequence[str]] = None,
) -> None:
    t, values, header = _series(t, values, channel_names)
    with _replacing(path) as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(_rows(t, values, lo, lo + _ROW_BLOCK) for lo in range(0, len(t), _ROW_BLOCK))


MANIFEST_COLUMNS = (
    "segment_id",
    "stream_id",
    "start_index",
    "end_index",
    "start_t",
    "end_t",
    "path",
    "reason",
    "occurrence_index",
)


@contextlib.contextmanager
def replacing_run(out_dir: str):
    """A fresh `out_dir` for a run, replacing the previous one whole only on success.

    Yields the resolved path, to write through even from a working directory
    inside `out_dir`.  An existing `out_dir` holding anything but run files
    (`_RUN_FILES`, `segments/segment_*.csv`) is a ValueError naming that entry.
    Otherwise it is renamed aside to `<out_dir>.<pid>.old`, so it must be no
    mount point and its parent writable; renamed back if the block fails, and
    removed once it succeeds.  A crash, or an undo that itself fails (raised
    with the block's error as context), leaves the previous run whole in
    `.old`.  A symlink keeps its link and has its target replaced.
    """
    out_dir = os.path.realpath(out_dir)
    old = None
    if os.path.lexists(out_dir):
        segment_dir, segment = os.path.split(os.path.join(out_dir, _SEGMENT.replace("%05d", "*")))
        entries = [e.path for e in os.scandir(out_dir) if not (e.name in _RUN_FILES and e.is_file())]
        if os.path.isdir(segment_dir):
            entries.remove(segment_dir)
            entries += [e.path for e in os.scandir(segment_dir)
                        if not (fnmatch.fnmatch(e.name, segment) and e.is_file())]
        if entries:
            raise ValueError(f"{entries[0]}: not a file of a run, so {out_dir} is not replaced")
        old = f"{out_dir}.{os.getpid()}.old"
        os.rename(out_dir, old)
    try:
        os.makedirs(out_dir)
        yield out_dir
    except BaseException:
        if os.path.lexists(out_dir):
            shutil.rmtree(out_dir)
        if old is not None:
            os.rename(old, out_dir)
        raise
    if old is not None:
        shutil.rmtree(old)


class _SegmentFile(NamedTuple):
    path: str
    span: Tuple[int, int]
    t: np.ndarray
    values: np.ndarray
    header: List[str]


def _shared_rows(prev: _SegmentFile, nxt: _SegmentFile) -> int:
    """How many last rows of `prev` are the first rows of `nxt`, at most one block.

    Consecutive behaviors of a stream share their boundary run, so their
    spans say how far they overlap; the samples must agree bit for bit too,
    for a segment's arrays are not bound to its span.
    """
    k = prev.span[1] - nxt.span[0]
    if not 0 < k <= min(_ROW_BLOCK, len(prev.t), len(nxt.t)):
        return 0
    same = (prev.t[-k:].tobytes() == nxt.t[:k].tobytes()
            and prev.values[-k:].tobytes() == nxt.values[:k].tobytes())
    return k if same else 0


def _write_segment_files(files: Sequence[_SegmentFile]) -> None:
    """Write consecutive segment files, formatting the rows each shares with the next once."""
    shared, h = "", 0  # the previous file's last rows, which are this file's first h
    for i, (path, _, t, values, header) in enumerate(files):
        n = len(t)
        k = _shared_rows(files[i], files[i + 1]) if i + 1 < len(files) else 0
        if h + k > n:
            k = 0
        tail = _rows(t, values, n - k, n) if k else ""
        middle = (_rows(t, values, lo, min(lo + _ROW_BLOCK, n - k))
                  for lo in range(h, n - k, _ROW_BLOCK))
        _write_rows(path, header, itertools.chain((shared,), middle, (tail,)))
        shared, h = tail, k


def _writer_groups(files: Sequence[_SegmentFile]) -> List[Sequence[_SegmentFile]]:
    """`files` cut into contiguous groups of about equal rows, one per writer process."""
    ends = list(itertools.accumulate(len(f.t) for f in files))
    rows = ends[-1] if ends else 0
    n = _processes(rows, _ROW_BLOCK)
    cuts = [0, *(bisect.bisect_left(ends, rows * j / n) + 1 for j in range(1, n)), len(files)]
    return [files[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _fork(work, *args) -> Tuple[int, int]:
    """Run `work(*args)` in a child process; returns its pid and the pipe its output comes on.

    The child sends the bytes `work` returns, if any, or its error's message.
    It leaves by `os._exit` whatever happens, so it never returns into the
    caller's frames nor flushes the stdio buffers it inherited.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                try:
                    fh.write(work(*args) or b"")
                    status = 0
                except BaseException as exc:
                    fh.write((str(exc) or type(exc).__name__).encode("utf-8", "replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _reap(pid: int, read_end: int) -> Tuple[bytes, str]:
    """Wait for a child of `_fork`: the bytes it sent and "", or b"" and its error message."""
    try:
        with os.fdopen(read_end, "rb") as fh:
            sent = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return sent, ""
    return b"", sent.decode("utf-8", "replace") or f"child process {pid} exited with {code}"


def write_segments(
    out_dir: str, segments: Sequence[RecordedSegment], channel_names: Optional[Sequence[str]] = None
) -> str:
    """Write one raw file per segment, then the manifest; returns the manifest's path.

    `out_dir/segments/` is made here and must not exist.  Its files are cut
    into contiguous groups (`_writer_groups`): this process writes the first
    and a forked child each other one, each file in place.  All children are
    waited for, even on failure, and the first child's error is raised as
    OSError.  The manifest is written, by replacement, only once every
    segment file is; `replacing_run` keeps a failed run's files from sight.
    """
    os.makedirs(os.path.join(out_dir, os.path.dirname(_SEGMENT)))
    files = [
        _SegmentFile(os.path.join(out_dir, _SEGMENT % seg.segment_id), seg.raw_span,
                     *_series(seg.t, seg.values, channel_names))
        for seg in segments
    ]
    groups = _writer_groups(files)
    children = []
    try:
        for group in groups[1:]:
            children.append(_fork(_write_segment_files, group))
        if groups:
            _write_segment_files(groups[0])
    finally:
        errors = [_reap(*child)[1] for child in children]
    error = next(filter(None, errors), None)
    if error:
        raise OSError(error)
    rows = (
        (seg.segment_id, seg.stream_id, *seg.raw_span, repr(seg.start_t), repr(seg.end_t),
         seg.path_id, seg.reason, seg.occurrence_index)
        for seg in segments
    )
    manifest_path = os.path.join(out_dir, _MANIFEST)
    _write_table(manifest_path, MANIFEST_COLUMNS, rows)
    return manifest_path


def read_segments(out_dir: str) -> List[RecordedSegment]:
    """Load a discover output directory back into RecordedSegment objects."""
    manifest_path = os.path.join(out_dir, _MANIFEST)
    segments: List[RecordedSegment] = []
    with open(manifest_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise ValueError(f"{manifest_path}: unexpected manifest columns")
        for row in reader:
            seg_id = int(row["segment_id"])
            t, values, _ = read_series(os.path.join(out_dir, _SEGMENT % seg_id))
            segments.append(
                RecordedSegment(
                    segment_id=seg_id,
                    stream_id=row["stream_id"],
                    raw_span=(int(row["start_index"]), int(row["end_index"])),
                    path=tuple(int(s) for s in row["path"].split("-")),
                    reason=row["reason"],
                    occurrence_index=int(row["occurrence_index"]),
                    t=t,
                    values=values,
                )
            )
    return segments


def write_run(out_dir: str, stats: RunStats, forest_texts: Tuple[str, str]) -> None:
    """Close a run: its stats, then the forest snapshot and Graphviz texts."""
    doc = {**dataclasses.asdict(stats), "recording_fraction": stats.recording_fraction}
    _write_json(os.path.join(out_dir, _STATS), doc)
    for name, text in zip((FOREST, _DOT), forest_texts):
        write_text(os.path.join(out_dir, name), text)


def write_replay_table(out_dir: str, runs: Sequence[RunStats]) -> None:
    """Counts, per-run % and cumulative % per run."""
    header = (
        "run", "detected_db", "recorded_db", "recorded_samples", "total_samples",
        "recording_pct", "cumulative_recording_pct",
    )
    rows = (
        (run.run_index, run.detected_db_count, run.recorded_db_count, run.recorded_sample_count,
         run.total_sample_count, f"{100.0 * run.recording_fraction:.2f}", f"{100.0 * cum:.2f}")
        for run, cum in zip(runs, cumulative_fractions(runs))
    )
    _write_table(os.path.join(out_dir, _REPLAY), header, rows)


def write_features(
    path: str, segments: Sequence[RecordedSegment], forest: BehaviorForest
) -> None:
    """One row per distinct recorded pattern with the nine features.

    Features are computed over all member segments' values concatenated;
    occurrences is the forest's total count for the path, n_segments how
    many of those were recorded here.
    """
    groups: Dict[Tuple[int, ...], List[RecordedSegment]] = {}
    for seg in segments:
        groups.setdefault(seg.path, []).append(seg)

    def rows():
        for p in sorted(groups):
            members = groups[p]
            feats = extract_features(np.concatenate([seg.values.ravel() for seg in members]))
            counts = (members[0].path_id, forest.occurrence_count(p), len(members))
            yield (*counts, *map(repr, feats))

    _write_table(path, ["path_id", "occurrences", "n_segments", *FEATURE_NAMES], rows())


def write_variance(out_dir: str, comparison: VarianceComparison) -> None:
    """Long-format variances plus a five-number summary per group, into `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    long_path, summary_path = (os.path.join(out_dir, name) for name in _VARIANCE)
    groups = (
        ("db", comparison.db_variances, comparison.db_summary),
        ("window", comparison.window_variances, comparison.window_summary),
    )
    long_rows = ((group, repr(v)) for group, values, _ in groups for v in values)
    _write_table(long_path, ["group", "variance"], long_rows)
    _write_table(
        summary_path,
        ["group", "n", "window_length", "lower_whisker", "p25", "median", "p75", "upper_whisker"],
        (
            (group, len(values), comparison.window_length, *map(repr, s))
            for group, values, s in groups
        ),
    )
