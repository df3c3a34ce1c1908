"""Time per exact verification, one certificate class at a time.

Run from the repository root:

    python3 tools/bench_verify.py [--repeat 5]

The certificates are those of the perfbench verify workload, read from
``perfbench/fixtures/verify_pool.json`` and not changed, and grouped by
class with ``pool_classes`` from ``perfbench/workloads.py``.  A check is what
one operation of that workload does: read the certificate from its JSON
form and run ``verify_nonmembership`` or ``verify_membership`` on it.  The
instances are read once, outside the timing.

One run of a class checks each of its items 50 times when the class is a
nonmembership one (such a check takes tens of µs) and 5 times when it is a
membership one (0.05-2 ms).  A class's time is the best of ``--repeat``
runs, in µs per check.  Every verdict is compared with the pool's expected
one; a mismatch is printed on stderr and the exit status is 1.  Prints one
JSON object: per class, the number of items, the checks per run and the µs
per check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kronkit.cli import _positive_int  # noqa: E402
from kronkit.diagrams import KronInstance  # noqa: E402
from kronkit.marginals import MembershipCertificate, verify_membership  # noqa: E402
from kronkit.ressayre import RessayreCertificate, verify_nonmembership  # noqa: E402
from workloads import pool_classes  # noqa: E402

POOL = ROOT / "perfbench" / "fixtures" / "verify_pool.json"
LOOPS = {"nonmember": 50, "member": 5}

READ_AND_VERIFY = {
    "nonmember": (RessayreCertificate.from_json, verify_nonmembership),
    "member": (MembershipCertificate.from_json, verify_membership),
}


def run_class(items: list[dict], loops: int) -> tuple[float, list[str]]:
    """Seconds for ``loops`` checks of every item, and the last verdicts."""
    read, verify = READ_AND_VERIFY[items[0]["kind"]]
    checks = [
        (KronInstance.from_json(item["instance"]), item["certificate"])
        for item in items
    ]
    verdicts = []
    start = time.perf_counter()
    for _ in range(loops):
        verdicts = [str(verify(inst, read(cert))) for inst, cert in checks]
    return time.perf_counter() - start, verdicts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_positive_int, default=5)
    args = parser.parse_args()
    report, wrong = {}, []
    pool = json.loads(POOL.read_text(encoding="utf-8"))["items"]
    for name, items in pool_classes(pool).items():
        loops = LOOPS[items[0]["kind"]]
        best = float("inf")
        for _ in range(args.repeat):
            seconds, verdicts = run_class(items, loops)
            best = min(best, seconds)
        wrong += [
            f"{name}: got {got}, expected {item['expected']}"
            for item, got in zip(items, verdicts)
            if got != item["expected"]
        ]
        checks = loops * len(items)
        report[name] = {
            "items": len(items),
            "checks_per_run": checks,
            "us_per_check": round(1e6 * best / checks, 2),
        }
    print(json.dumps(report, indent=2))
    for line in wrong:
        print(line, file=sys.stderr)
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
