"""The scripts in tools/ run against the source tree.

``tools/bench_witness.py`` reaches into ``search._exact_witness``, so a
refactor of the witness search can break it without any other test noticing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_witness_rank_two_panel():
    result = subprocess.run(
        [sys.executable, "tools/bench_witness.py", "--panel", "2", "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    row = json.loads(result.stdout)["exact m=2"]
    assert (row["instances"], row["decided"]) == (40, 40)
