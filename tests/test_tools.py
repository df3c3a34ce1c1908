"""The scripts in tools/ run against the source tree.

``tools/bench_witness.py`` routes every point through ``search.decide`` and
reaches into ``search._exact_witness`` and ``search._tight_faces`` to name
the route that decided it, so a refactor of the witness search can break it
without any other test noticing.  From ``perfbench/`` it takes only the
certify panel: the routing it measures is the library's, not the
benchmark's.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def bench_witness(*args):
    result = subprocess.run(
        [sys.executable, "tools/bench_witness.py", *args, "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "args",
    [
        ["--repeat", "0"],
        ["--sweep", "0"],
        ["--sweep", "13"],
        ["--panel", "13"],
        # only 12 distinct rank-one triples exist with k ≤ 12, so a panel of
        # 40 would never fill; the timeout keeps a regression from hanging
        ["--panel", "1"],
    ],
)
def test_bench_witness_refuses_bad_arguments(args):
    result = subprocess.run(
        [sys.executable, "tools/bench_witness.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "usage:" in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""


def test_bench_witness_rank_two_panel():
    row = bench_witness("--panel", "2")["exact m=2"]
    assert (row["instances"], row["decided"]) == (40, 40)


def test_bench_witness_rank_two_sweep():
    report = bench_witness("--sweep", "2", "--kmax", "12")
    assert report["sweep"] == {
        "R": 2, "kmax": 12,
        "outside": 126, "exact": 197, "face": 0, "float": 0, "undecided": 0,
    }


def test_bench_witness_rank_three_sweep():
    report = bench_witness("--sweep", "3", "--kmax", "6")
    assert report["sweep"] == {
        "R": 3, "kmax": 6,
        "outside": 36, "exact": 67, "face": 1, "float": 1, "undecided": 0,
    }
    assert report["face m=3"]["decided"] == 1


def test_bench_witness_takes_only_the_panel_from_perfbench():
    tree = ast.parse((ROOT / "tools" / "bench_witness.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "workloads"
        for alias in node.names
    ]
    plain = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "workloads"
    ]
    assert (imported, plain) == (["certify_panel"], [])
