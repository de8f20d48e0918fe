"""File layer: series byte identity and memory, golden CLI output, replace-on-success writers."""

import contextlib
import hashlib
import os
import signal
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from behaviorforest import cli
from behaviorforest import io as bfio
from behaviorforest.analysis import generate_synthetic
from behaviorforest.engine import discover
from behaviorforest.selection import RecordedSegment
from oracles import csv_write_series

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

SPECIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    2.225073858507201e-308,
    1e-310,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    float("inf"),
    float("-inf"),
    1.0,
    -3.0,
    1e16,
    123456789.0,
    0.1 + 0.2,
    1e-05,
    1e-17,
]

floats = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
names_alphabet = st.sampled_from(['a', 'Z', '1', ' ', '"', ',', "'", '_'])


@st.composite
def series(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    one_d = d == 1 and draw(st.booleans())
    shape = (n,) if one_d else (n, d)
    t = draw(hnp.arrays(np.float64, (n,), elements=floats))
    values = draw(hnp.arrays(np.float64, shape, elements=floats))
    names = draw(
        st.none()
        | st.lists(st.text(names_alphabet, min_size=1, max_size=6), min_size=d, max_size=d)
    )
    return t, values, names


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestWriteSeries:
    @pytest.mark.parametrize("block", [1, 7, bfio._ROW_BLOCK])
    @given(case=series())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bytes_match_csv_oracle(self, tmp_path, monkeypatch, block, case):
        monkeypatch.setattr(bfio, "_ROW_BLOCK", block)
        t, values, names = case
        got, want = str(tmp_path / "got.csv"), str(tmp_path / "want.csv")
        bfio.write_series(got, t, values, names)
        csv_write_series(want, t, values, names)
        assert read_bytes(got) == read_bytes(want)

    @pytest.mark.parametrize("block", [1, 7, bfio._ROW_BLOCK])
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 15, 40])
    def test_special_values_across_block_edges(self, tmp_path, monkeypatch, block, n):
        monkeypatch.setattr(bfio, "_ROW_BLOCK", block)
        pool = np.array(SPECIAL_FLOATS)
        t = np.resize(pool, n)
        values = np.resize(pool[::-1], (n, 2))
        names = ['say "hi"', "a,b"]
        got, want = str(tmp_path / "got.csv"), str(tmp_path / "want.csv")
        bfio.write_series(got, t, values, names)
        csv_write_series(want, t, values, names)
        assert read_bytes(got) == read_bytes(want)
        assert read_bytes(got).count(b"\r\n") == n + 1

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="5 timestamps for 3 samples"):
            bfio.write_series(str(path), np.arange(5.0), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="2 timestamps for 4 samples"):
            bfio.write_series(str(path), np.arange(2.0), np.zeros(4))

    def test_memory_bounded_by_block(self):
        n = 300_000
        t = np.arange(n, dtype=np.float64)
        values = np.zeros((n, 2))
        tracemalloc.start()
        try:
            bfio.write_series(os.devnull, t, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The default block peaks near 2.4 MB at any n.  One row-stacked copy of
        # the whole input alone would be 7.2 MB; formatting it as one block, 44 MB.
        assert peak < 6 * 2**20


def stream_segments():
    """Hand-cut segments of two streams: overlaps shared or not, and spans that lie.

    With 8-row blocks, the first segment spans four blocks; neighbours share
    up to 3 rows, or a whole segment; the spans of the first "b" segment
    overlap the last "a" one on paper only, and the last segment's rows
    disagree with its predecessor's only in the sign of zero.
    """
    rng = np.random.default_rng(7)
    streams = {"a": (np.arange(60.0), rng.normal(size=(60, 2))),
               "b": (np.arange(80.0) / 8, rng.normal(size=(80, 2)))}
    streams["b"][1][17:20] = 0.0
    spans = [("a", (0, 25)), ("a", (22, 30)), ("a", (27, 30)), ("a", (28, 45)), ("a", (40, 44)),
             ("a", (43, 60)), ("b", (55, 70)), ("b", (0, 12)), ("b", (9, 20)), ("b", (17, 30))]
    segments = []
    for segment_id, (stream_id, (lo, hi)) in enumerate(spans):
        t, values = (a[lo:hi].copy() for a in streams[stream_id])
        if segment_id == len(spans) - 1:
            values[values == 0.0] = -0.0
        segments.append(RecordedSegment(
            segment_id, stream_id, (lo, hi), (1, 2), "novel", 1, t, values))
    return segments


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def force_processes(monkeypatch, workers, **blocks):
    """Make io fork up to `workers - 1` children for work that fills the given
    blocks (`_ROW_BLOCK`, `_PARSE_BLOCK`); returns the fork pids."""
    for name, size in blocks.items():
        monkeypatch.setattr(bfio, name, size)
    monkeypatch.setattr(bfio.os, "sched_getaffinity", lambda pid: set(range(workers)))
    forked, fork = [], os.fork
    monkeypatch.setattr(bfio.os, "fork", lambda: forked.append(fork()) or forked[-1])
    return forked


def force_writers(monkeypatch, workers, block=8):
    """Make write_segments fork `workers - 1` children for enough rows; returns the fork pids."""
    return force_processes(monkeypatch, workers, _ROW_BLOCK=block)


class TestWriteSegments:
    @pytest.mark.parametrize("segments", [stream_segments(), []], ids=["two_streams", "none"])
    def test_bytes_do_not_depend_on_writer_count(self, tmp_path, monkeypatch, segments):
        trees = []
        for workers in (1, 2, 3):
            forked = force_writers(monkeypatch, workers)
            out = tmp_path / f"w{workers}"
            bfio.write_segments(str(out), segments, ["x", "y"])
            assert len(forked) == (workers - 1 if segments else 0)
            assert (out / "segments").is_dir()
            trees.append(tree(out))
        assert trees[0] == trees[1] == trees[2]
        assert len(trees[0]) == len(segments) + 1
        for seg in segments:
            want = str(tmp_path / "want.csv")
            csv_write_series(want, seg.t, seg.values, ["x", "y"])
            assert trees[0][f"segments/segment_{seg.segment_id:05d}.csv"] == read_bytes(want)

    @pytest.mark.parametrize("rerun", [False, True], ids=["empty", "rerun"])
    def test_failed_child_is_raised_and_leaves_no_manifest(self, tmp_path, monkeypatch, rerun):
        segments = stream_segments()
        out = tmp_path / "o"
        if rerun:
            bfio.write_segments(str(out), segments)
            before = tree(out)
        forked = force_writers(monkeypatch, 2)
        parent, write_rows = os.getpid(), bfio._write_rows

        def texts_then_fail(texts):
            yield from texts
            raise OSError(f"disk full in writer {os.getpid()}")

        def failing_in_child(path, header, texts):
            write_rows(path, header, texts if os.getpid() == parent else texts_then_fail(texts))

        monkeypatch.setattr(bfio, "_write_rows", failing_in_child)
        with pytest.raises(OSError, match=r"^disk full in writer (\d+)$") as info:
            with bfio.replacing_run(str(out)) if rerun else contextlib.nullcontext():
                bfio.write_segments(str(out), segments)
        assert info.match(f"writer {forked[0]}$")
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        if rerun:
            assert tree(out) == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
        else:
            assert not (out / "segments.csv").exists()
            # The parent's own group is complete.
            assert (out / "segments" / "segment_00000.csv").is_file()

    def test_child_killed_is_raised(self, tmp_path, monkeypatch):
        forked = force_writers(monkeypatch, 2)
        parent, write_rows = os.getpid(), bfio._write_rows

        def killed_in_child(path, header, texts):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            write_rows(path, header, texts)

        monkeypatch.setattr(bfio, "_write_rows", killed_in_child)
        with pytest.raises(OSError, match="exited with -9") as info:
            bfio.write_segments(str(tmp_path / "o"), stream_segments())
        assert info.match(f"process {forked[0]} ")
        assert not (tmp_path / "o" / "segments.csv").exists()

    def test_files_are_created_in_place_into_a_new_directory(self, tmp_path, monkeypatch):
        segments = stream_segments()
        force_writers(monkeypatch, 2)
        replaced, replace = [], os.replace
        monkeypatch.setattr(bfio.os, "replace", lambda *a: replaced.append(a[1]) or replace(*a))
        out = tmp_path / "o"
        manifest = bfio.write_segments(str(out), segments)
        # Only the manifest is written by replacement; no temporary file is left.
        assert replaced == [os.path.realpath(manifest)]
        assert manifest == str(out / "segments.csv")
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert len(list((out / "segments").iterdir())) == len(segments)
        before = tree(out)
        with pytest.raises(FileExistsError):
            bfio.write_segments(str(out), segments[:1])
        assert tree(out) == before
        # Even an empty segments/ directory is refused: it is made, not reused.
        (tmp_path / "e" / "segments").mkdir(parents=True)
        with pytest.raises(FileExistsError):
            bfio.write_segments(str(tmp_path / "e"), [])

    def test_memory_bounded_by_block(self, tmp_path):
        n = 100_000
        t = np.arange(n, dtype=np.float64)
        values = np.random.default_rng(0).normal(size=(n, 2))
        block = len(bfio._rows(t, values, 0, bfio._ROW_BLOCK))
        seg = RecordedSegment(0, "s", (0, n), (1,), "novel", 1, t, values)
        tracemalloc.start()
        try:
            bfio.write_segments(str(tmp_path), [seg])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # About 5 blocks of text: a block's floats, their tuple and its text.
        # Holding the whole file's text, 6.2 blocks, while formatting the last
        # block would pass 11.
        assert peak < 7 * block


# Printable names without line breaks or edge whitespace, csv's specials often.
name_chars = st.sampled_from(',"\' ') | st.characters().filter(str.isprintable)
channel_names = st.text(name_chars, min_size=1, max_size=8).filter(
    lambda name: name == name.strip()
)


class TestReadSeries:
    @given(names=st.lists(channel_names, min_size=1, max_size=4))
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_channel_names_round_trip(self, tmp_path, names):
        path = str(tmp_path / "s.csv")
        values = np.arange(2.0 * len(names)).reshape(2, len(names))
        bfio.write_series(path, np.arange(2.0), values, names)
        _, got_values, got_names = bfio.read_series(path)
        assert got_names == names
        assert got_values.tolist() == values.tolist()

    @pytest.mark.parametrize("names", [["a,b", 'say "hi"'], ['say "hi"']])
    def test_quoted_names_round_trip(self, tmp_path, names):
        path = str(tmp_path / "s.csv")
        bfio.write_series(path, np.arange(3.0), np.zeros((3, len(names))), names)
        assert bfio.read_series(path)[2] == names


PARSE_VALUES = ["0.0", "-0.0", "5e-324", "1e+308", "-inf", "nan", "0.1", "2", " 3.5 ", "1e-05"]


@st.composite
def series_text(draw):
    """The bytes of a series file: comment and blank lines, LF, CRLF and lone
    CR endings, maybe no final newline, and maybe one malformed value or
    jagged row."""
    width = draw(st.integers(1, 3))
    lines = ["t," + ",".join(f"c{j}" for j in range(width))]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "row":
            lines.append(",".join(draw(st.lists(
                st.sampled_from(PARSE_VALUES), min_size=width + 1, max_size=width + 1))))
        else:
            lines.append("# a comment, 1,2" if kind == "comment" else "")
    rows = [i for i, line in enumerate(lines) if i and line and not line.startswith("#")]
    fault = draw(st.sampled_from(["none", "none", "value", "short", "long"]))
    if rows and fault != "none":
        i = draw(st.sampled_from(rows))
        cells = lines[i].split(",")
        if fault == "value":
            cells[draw(st.integers(0, width))] = draw(st.sampled_from(["x", "1..2", "", "0x1"]))
        lines[i] = ",".join(cells[:-1] if fault == "short" else cells + ["1.0"] * (fault == "long"))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def parse_outcome(path):
    """What read_series gives for `path`: its arrays' shapes and bytes, or its error text."""
    try:
        t, values, names = bfio.read_series(path)
    except ValueError as exc:
        return str(exc)
    return t.shape, t.tobytes(), values.shape, values.tobytes(), names


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitParse:
    @given(text=series_text(), cpus=st.integers(1, 3), block=st.integers(1, 64))
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_parts_parse_as_one(self, tmp_path, monkeypatch, text, cpus, block):
        path = tmp_path / "s.csv"
        path.write_bytes(text)
        monkeypatch.setattr(bfio, "_PARSE_BLOCK", 1 << 62)
        want = parse_outcome(str(path))
        forked = force_processes(monkeypatch, cpus, _PARSE_BLOCK=block)
        loadtxt, calls = bfio._loadtxt, []

        def counted(*args):
            calls.append(args)  # a child's calls stay in the child
            return loadtxt(*args)

        monkeypatch.setattr(bfio, "_loadtxt", counted)
        assert parse_outcome(str(path)) == want
        head = text.split(b"\n", 1)[0]
        body = len(text) - len(head) - 1 if b"\n" in text else 0
        # A header line that ends at a lone CR is not found in bytes, so its
        # file is parsed whole.
        parts = 1 if b"\r" in head[:-1] else max(1, min(cpus, -(-body // block)))
        assert len(forked) == parts - 1
        # A sound file is parsed once, in parts; a faulty one then again whole.
        assert len(calls) == 1 + (parts > 1 and isinstance(want, str))
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["none", "value", "jagged"])
    def test_error_in_any_part_is_that_of_one_parse(self, tmp_path, monkeypatch, fault):
        lines = [f"{i}.0,{i * 0.5!r}" for i in range(60)]
        for i in (3, 58):  # one row in the first part, one in the last
            path = tmp_path / f"s{i}.csv"
            bad = list(lines)
            bad[i] = {"none": bad[i], "value": f"{i}.0,1e", "jagged": f"{i}.0"}[fault]
            path.write_text("t,x\n# written by hand\n" + "\r\n".join(bad) + "\n")
            monkeypatch.setattr(bfio, "_PARSE_BLOCK", 1 << 62)
            want = parse_outcome(str(path))
            assert isinstance(want, str) == (fault != "none")
            forked = force_processes(monkeypatch, 3, _PARSE_BLOCK=64)
            assert parse_outcome(str(path)) == want
            assert len(forked) == 2
            assert_no_child_left()

    def test_killed_child_is_parsed_again(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.csv")
        bfio.write_series(path, np.arange(200.0), np.arange(400.0).reshape(200, 2))
        want = parse_outcome(path)
        forked = force_processes(monkeypatch, 2, _PARSE_BLOCK=256)
        parent, loadtxt = os.getpid(), bfio._loadtxt

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return loadtxt(*args)

        monkeypatch.setattr(bfio, "_loadtxt", killed_in_child)
        assert parse_outcome(path) == want
        assert len(forked) == 1
        assert_no_child_left()

    def test_segments_of_a_long_novel_run_are_parsed_by_one_process(self, tmp_path, monkeypatch):
        # 400k samples of two channels holding N(0, 1) levels for 5-399
        # samples: over 90% is recorded, in some 1,300 segment files.
        rng = np.random.default_rng(0)
        n = 400_000
        levels = [np.repeat(rng.normal(size=n // 100), rng.integers(5, 400, n // 100))[:n]
                  for _ in range(2)]
        values = np.stack(levels, axis=1) + rng.normal(0.0, 0.02, (n, 2))
        config = bfio.config_from_dict({"alphabet_sizes": [4, 4]})
        _, result = discover(config, [("s", np.arange(float(n)), values)])
        assert len(result.segments) > 1000
        out = str(tmp_path / "o")
        bfio.write_segments(out, result.segments)

        def no_fork():
            raise AssertionError("a segment file was parsed in parts")

        monkeypatch.setattr(bfio.os, "fork", no_fork)
        assert len(bfio.read_segments(out)) == len(result.segments)


# sha256 of every file `discover` writes for generate_synthetic(0,
# bursts_per_pattern=3) under configs/synthetic.json, as written by the
# per-row csv writer before series files were block-formatted.  forest.dot
# numbers its nodes in pre-order (n0, n1, ...).
GOLDEN_INPUT = "e9bd936f0ee91151d7d2fe154260fb064622d198ea2e0b5096c38c1f998e6919"
GOLDEN_OUTPUT = {
    "forest.dot": "48567587da2e6fdd8966baf0cd48271b09fb9df70e3e244c33770ad5b90fc22c",
    "forest.json": "2f8fca0d5e0f3768758343db1c28a5247d9d9064723d092934af72153747bbdd",
    "segments.csv": "4ec534e62ffb961b5216bf75bc63290b38ee34dd2a1885b26731864a5eb03962",
    "stats.json": "7750a94f3d6f9ca2a177e989f23584de366f4e0d39bcfac58264ab83226fdbad",
    "segments/segment_00000.csv": "1793e3033c46c24f372e0b99ae78cb4ae5fb27eff3a3bf7c3dacfe0a15021c71",
    "segments/segment_00001.csv": "6734ac740c62934e135924b70c55c11e063b78200536c154cedb2887b0e73336",
    "segments/segment_00002.csv": "f79be9617a12a60cf358b1ad49056425fd5229d250ffc70a1b9b1bf6e117b6f5",
    "segments/segment_00003.csv": "e5ddb20d8fb6619226d337c8362f017bbb34dae8be4e1d3b698bea110c010d48",
    "segments/segment_00004.csv": "1bbdd6e2320a0f0cd2ac52f9cbc17cae85023d8c185a8354cce6626446aacaef",
    "segments/segment_00005.csv": "f179abf3feaf29cd17f51e06b41669112742b5cf39ef6b5efbed000b0aeb4e67",
    "segments/segment_00006.csv": "8ac492c23b671d039aeaedb2a2cebfb196a991aa12ca4517706b410945345a57",
    "segments/segment_00007.csv": "ff83b1e0976fe0b84e1c6995bdeaf8bd527f6c4afe40e49439872b68050f0559",
    "segments/segment_00008.csv": "3e0021187c4916e54fdc9651665bf8b7398190a980d7100d24de747d424f8482",
    "segments/segment_00009.csv": "163f6b90a8ec2b9700f156dda7df22f1634ae8675fa0e630d39d2df2d8b54a59",
    "segments/segment_00010.csv": "346e1994d2eb1a340f2992c2938a38c1393165c413e2e45d0a9dc2378527d392",
    "segments/segment_00011.csv": "1532155425ac115066e8699abab5dd9951827436e2a74ff7f0f197ca9d7c2c15",
}


def sha256(path):
    return hashlib.sha256(read_bytes(path)).hexdigest()


def test_discover_output_matches_golden_digests(tmp_path):
    t, values = generate_synthetic(0, bursts_per_pattern=3)
    src = str(tmp_path / "s.csv")
    bfio.write_series(src, t, values)
    assert sha256(src) == GOLDEN_INPUT
    out = tmp_path / "o"
    rc = cli.main(
        ["discover", src, "--config", os.path.join(CONFIG_DIR, "synthetic.json"), "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    written = {
        p.relative_to(out).as_posix(): sha256(p) for p in out.rglob("*") if p.is_file()
    }
    assert written == GOLDEN_OUTPUT


# sha256 of what replay, features, variance and dot write for the same
# input and config, recorded before the writers shared one replacing writer.
GOLDEN_DERIVED = {
    "f.dot": "48567587da2e6fdd8966baf0cd48271b09fb9df70e3e244c33770ad5b90fc22c",
    "o/features.csv": "6e30383589f899d163e03ef8a222512ea156e8e0a3290622a7b850978e1aaa1e",
    "o/variance_long.csv": "22ef03c5a49ab25c1931f422f0c554f82f4a875f8ab7d81d5c1201b7ae8dbed8",
    "o/variance_summary.csv": "4e6cd35aff14eb426bcfac53cbd6aec1168731a7049385ee96ef5aeb04b48fd9",
    "r/replay.csv": "d9cc1e16941657917b3d96724cd7629b2de09cff46b39b82a3fc45eb238d529d",
    # Recorded before io took over naming and clearing the run directory.
    "r/stats.json": "03fe7d0027a32202214524e0a45e52b6b29d10a60e3ec9d9cee75a6456e0b03b",
    "r/forest.json": "2125d93e3645f341d8615e8d89dae51aecf2e9328dbf012b1a1afb95b57c77a0",
}


def test_replay_features_variance_dot_match_golden_digests(tmp_path):
    t, values = generate_synthetic(0, bursts_per_pattern=3)
    src = str(tmp_path / "s.csv")
    bfio.write_series(src, t, values)
    cfg = os.path.join(CONFIG_DIR, "synthetic.json")
    o, r, dot = str(tmp_path / "o"), str(tmp_path / "r"), str(tmp_path / "f.dot")
    for argv in (
        ["discover", src, "--config", cfg, "--out", o],
        ["replay", src, "--config", cfg, "--out", r, "--runs", "3"],
        ["features", "--segments", o],
        ["variance", "--segments", o, "--input", src],
        ["dot", "--snapshot", os.path.join(o, "forest.json"), "--out", dot],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv
    for name, digest in GOLDEN_DERIVED.items():
        assert sha256(tmp_path / name) == digest, name
    # replay writes no manifest and no segment directory.
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
        "forest.dot", "forest.json", "replay.csv", "stats.json"
    ]
    # Every file is in place under its own name: no temporary file is left.
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


class TestReplacingWriters:
    def test_failed_table_leaves_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        bfio._write_table(str(path), ["a", "b"], [(1, 2), (3, 4)])
        before = read_bytes(path)

        def rows():
            yield (5, 6)
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            bfio._write_table(str(path), ["a", "b"], rows())
        assert read_bytes(path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_write_text_replaces_whole_file(self, tmp_path):
        path = tmp_path / "f.txt"
        bfio.write_text(str(path), "a much longer first text\n")
        bfio.write_text(str(path), "short\n")
        assert read_bytes(path) == b"short\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_symlink_target_replaced_not_link(self, tmp_path):
        target = tmp_path / "forest.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        bfio.write_text(str(link), "new\n")
        assert link.is_symlink()
        assert read_bytes(target) == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["forest.json", "link.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_not_replaced(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        bfio.write_text(str(pipe), "digraph {}\n")
        reader.join(timeout=10)
        assert received == [b"digraph {}\n"]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_failed_series_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        bfio.write_series(str(path), np.arange(3.0), np.ones(3))
        before = read_bytes(path)

        def failing_column_stack(arrays):
            raise MemoryError("block failed")

        monkeypatch.setattr(bfio.np, "column_stack", failing_column_stack)
        with pytest.raises(MemoryError, match="block failed"):
            bfio.write_series(str(path), np.arange(5.0), np.zeros(5))
        assert read_bytes(path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_failed_undo_is_raised_and_leaves_the_previous_run_aside(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        out.mkdir()
        (out / "stats.json").write_text("{}\n")

        def failing_rmtree(path, *args, **kwargs):
            raise OSError("device busy")

        with pytest.raises(OSError, match="device busy") as info:
            with bfio.replacing_run(str(out)) as path:
                assert path == os.path.realpath(out)
                monkeypatch.setattr(bfio.shutil, "rmtree", failing_rmtree)
                raise ValueError("run failed")
        assert isinstance(info.value.__context__, ValueError)
        assert (tmp_path / f"o.{os.getpid()}.old" / "stats.json").read_text() == "{}\n"

    @pytest.mark.parametrize("rerun", [False, True], ids=["empty", "rerun"])
    def test_manifest_written_after_segment_files(self, tmp_path, monkeypatch, rerun):
        t, values = generate_synthetic(0, bursts_per_pattern=3)
        _, result = discover(bfio.load_config(os.path.join(CONFIG_DIR, "synthetic.json")),
                             [("s", t, values)])
        assert len(result.segments) > 2
        out = tmp_path / "o"
        if rerun:
            # A previous run's complete output, manifest included.
            bfio.write_segments(str(out), result.segments)
            assert (out / "segments.csv").is_file()
            before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        written = []

        def failing_write_rows(path, *args):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(path)

        monkeypatch.setattr(bfio, "_write_rows", failing_write_rows)
        with pytest.raises(OSError, match="disk full"):
            with bfio.replacing_run(str(out)) if rerun else contextlib.nullcontext():
                bfio.write_segments(str(out), result.segments)
        if rerun:
            # The failed run is gone and the previous one is back, whole.
            assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]
        else:
            # No manifest lists segment files that this run did not write in full.
            assert sorted(p.name for p in out.iterdir()) == ["segments"]
