"""Every demo script runs to completion from a plain checkout."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_synthetic_discovery_demo_replaces_its_out(tmp_path):
    demo = ROOT / "demos" / "03_synthetic_discovery.py"
    # The noisier stream records more segments than the default one.
    run_demo(demo, tmp_path, "--noise-sigma", "0.2", "--out", "out")
    run_demo(demo, tmp_path, "--out", "out")
    with open(tmp_path / "out" / "segments.csv", newline="") as fh:
        listed = {f"segment_{int(row['segment_id']):05d}.csv" for row in csv.DictReader(fh)}
    assert {p.name for p in (tmp_path / "out" / "segments").iterdir()} == listed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
