"""The scripts in tools/ run against the source tree.

``tools/bench_witness.py`` routes every point through ``search.decide`` and
wraps ``search.scale`` and ``scaling._pass`` to name the route that decided
it (a witness with no scaling is the exact route's) and count its passes,
so a refactor of the witness search can break it without any other test
noticing.  From ``perfbench/`` it takes only the
certify panel: the routing it measures is the library's, not the
benchmark's.  ``tools/bench_lp.py`` counts pivots by wrapping
``exactlp._pivot`` from outside, so it breaks if its signature changes.
``tools/bench_verify.py`` reads the verify pool and checks every verdict
against the pool's expected one.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from kronkit import scaling

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
        # an empty sweep, and options the chosen instances would ignore
        ["--sweep", "3", "--kmax", "2"],
        ["--kmax", "-4"],
        ["--panel", "2", "--kmax", "5"],
        ["--sweep", "2", "--seed", "1"],
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
        "outside": 126, "exact": 197, "face": 0, "plain": 0, "undecided": 0,
    }


def test_bench_witness_rank_three_sweep():
    report = bench_witness("--sweep", "3", "--kmax", "6")
    assert report["sweep"] == {
        "R": 3, "kmax": 6,
        "outside": 36, "exact": 67, "face": 1, "plain": 1, "undecided": 0,
    }
    assert report["face m=3"]["decided"] == 1
    for route in ("face m=3", "plain m=3"):
        assert 0 < report[route]["passes_max"] <= scaling.MAX_PASSES


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


@pytest.fixture
def bench_lp(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_lp")


def test_bench_lp_counts_the_sample_pivots(bench_lp):
    # the reduce-m3 sample's pivots in chamber coordinates (BENCH_lp.json)
    lps = bench_lp.recorded_lps(bench_lp.runs()["reduce_m3_sample"])
    row = bench_lp.measure(lps, 1)
    assert row["lps"] == 40
    assert row["pivots"] == {"degenerate": 43, "total": 161}


def test_bench_lp_panel_keeps_its_witness_pivots(bench_lp):
    # the free-support LPs of the rank-4 panel pivot exactly as recorded in
    # BENCH_lp.json: a change to the pricing, the ratio test or the start
    # shows here
    # (the diagonal takes no LP, so no instance of the panel, whose rows
    # are never all equal, spends one there)
    lps = bench_lp.recorded_lps(bench_lp.runs()["panel"])
    assert len(lps) == 948
    assert bench_lp.count_pivots(lps) == {"degenerate": 4212, "total": 8637}


def test_bench_lp_certify_records_the_find_witness_lps(bench_lp):
    # the certify panel's instances that no committed facet cuts, those the
    # certify workload sends to find-witness, make 92 solve_lp calls, none
    # on the diagonal (BENCH_lp.json)
    lps = bench_lp.recorded_lps(bench_lp.runs()["certify"])
    assert len(lps) == 92


def test_bench_verify_lists_every_class():
    result = subprocess.run(
        [sys.executable, "tools/bench_verify.py", "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    pool = json.loads(
        (ROOT / "perfbench" / "fixtures" / "verify_pool.json").read_text(encoding="utf-8")
    )["items"]
    assert sorted(report) == sorted({item["class"] for item in pool})
    assert sum(row["items"] for row in report.values()) == len(pool)
    assert all(row["us_per_check"] > 0 for row in report.values())
