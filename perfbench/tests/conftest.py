import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def fx():
    """The committed fixtures, loaded and re-checked once."""
    import workloads

    return workloads.load_fixtures()
