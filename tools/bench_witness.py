"""Time per membership witness, split by the route that decides it.

Run from the repository root:

    python3 tools/bench_witness.py [--repeat 3]
    python3 tools/bench_witness.py --panel R [--seed S] [--repeat 1]
    python3 tools/bench_witness.py --sweep R [--kmax K] [--repeat 1]

Without ``--panel`` or ``--sweep`` the instances are those of the perfbench
certify panel: the panel is imported from ``perfbench/workloads.py`` and not
changed.  With ``--panel R`` (2 ≤ R ≤ 12) they are 40 distinct seeded
triples with at most R rows, one of exactly R, k from R to 12 and
``oracle.kron_coeff`` > 0, drawn like the rank-four panel of
``tests/test_search.py``.  With ``--sweep R`` (1 ≤ R ≤ 12, the weight cap)
they are every triple with largest height R, k ≤ K (default 12) and
λ_A ≥ λ_B ≥ λ_C as tuples.  A value out of range exits 2 with a usage error.

Each instance is first decided by ``search.decide(inst, seed=0)``.  Those it
answers with a committed facet (m = 2 and 3) are counted as outside and not
timed.  Each other instance is decided ``--repeat`` times by
``search_witness(inst, seed=0)``, the call behind ``kronkit find-witness
--seed 0`` and behind ``decide`` once no facet is violated, and its median
time is kept.  The route is "exact" when ``search._exact_witness`` returns a
witness; "face" when it does not and the witness lies on the level set of
an element that ``search._tight_faces`` returns; "float" otherwise, decided
by the plain scaling or not at all.  An exact witness whose entries all lie
on the diagonal {(i,i,i)} is also counted under ``on_diagonal``.  Prints one
JSON object: per route and rank, the count, how many were decided (and on
the diagonal), the total and the median time per instance; a sweep adds the
counts of outside, exact, face, float and undecided points.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kronkit import floats, search  # noqa: E402, F401  (numpy loads before any timing)
from kronkit.cli import _positive_int  # noqa: E402
from kronkit.diagrams import make_instance, parse_young  # noqa: E402
from kronkit.oracle import DEFAULT_ORACLE_CAP, kron_coeff, partitions  # noqa: E402
from kronkit.ressayre import RessayreCertificate  # noqa: E402
from kronkit.weights import WEIGHT_CAP, split_weights  # noqa: E402
from workloads import certify_panel  # noqa: E402


def certify_instances():
    for triple, _ in certify_panel(search.committed_system(3)):
        yield make_instance(*(parse_young(lam) for lam in triple), sum(triple[0]))


def sweep_instances(rank: int, kmax: int):
    for k in range(rank, kmax + 1):
        shapes = [p for p in partitions(k) if len(p) <= rank]
        for triple in product(shapes, repeat=3):
            if max(map(len, triple)) == rank and triple[0] >= triple[1] >= triple[2]:
                yield make_instance(*(parse_young(lam) for lam in triple), k)


def kron_panel_instances(
    rank: int, seed: int, size: int = 40, kmax: int = DEFAULT_ORACLE_CAP
):
    rng = random.Random(seed)
    shapes = {
        k: [p for p in partitions(k) if len(p) <= rank] for k in range(rank, kmax + 1)
    }
    panel: list[tuple] = []
    while len(panel) < size:
        k = rng.randint(rank, kmax)
        triple = tuple(rng.choice(shapes[k]) for _ in range(3))
        if max(map(len, triple)) != rank or triple in panel:
            continue
        if kron_coeff(*(parse_young(lam) for lam in triple)) > 0:
            panel.append(triple)
    for triple in panel:
        yield make_instance(*(parse_young(lam) for lam in triple), sum(triple[0]))


def on_tight_face(inst, cert) -> bool:
    entries = set(cert.entries)
    return any(
        entries <= set(split_weights(h, inst.m)[0]) for h in search._tight_faces(inst)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=_positive_int, default=3)
    group = parser.add_mutually_exclusive_group()
    # k runs up to the oracle cap, and a rank-one panel has only that many
    # distinct triples, never 40
    group.add_argument(
        "--panel", type=int, choices=range(2, DEFAULT_ORACLE_CAP + 1), metavar="R"
    )
    group.add_argument(
        "--sweep", type=int, choices=range(1, WEIGHT_CAP + 1), metavar="R"
    )
    parser.add_argument("--kmax", type=int, default=12, metavar="K")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    counts = dict.fromkeys(("outside", "exact", "face", "float", "undecided"), 0)
    if args.sweep is not None:
        instances = sweep_instances(args.sweep, args.kmax)
    elif args.panel is not None:
        instances = kron_panel_instances(args.panel, args.seed)
    else:
        instances = certify_instances()
    rows: dict[str, dict] = {}
    for inst in instances:
        cert = search.decide(inst, seed=0)
        if isinstance(cert, RessayreCertificate):
            counts["outside"] += 1
            continue
        exact = search._exact_witness(inst)
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            search.search_witness(inst, seed=0)
            times.append(time.perf_counter() - start)
        if exact is not None:
            route = "exact"
        elif cert is not None and on_tight_face(inst, cert):
            route = "face"
        else:
            route = "float"
        counts[route if cert is not None else "undecided"] += 1
        row = rows.setdefault(
            f"{route} m={inst.m}", {"times": [], "decided": 0, "on_diagonal": 0}
        )
        row["times"].append(statistics.median(times))
        row["decided"] += cert is not None
        row["on_diagonal"] += exact is not None and all(
            i == j == l for i, j, l in exact.entries
        )
    report = {
        key: {
            "instances": len(row["times"]),
            "decided": row["decided"],
            "on_diagonal": row["on_diagonal"],
            "total_s": round(sum(row["times"]), 4),
            "median_ms": round(1000 * statistics.median(row["times"]), 3),
        }
        for key, row in sorted(rows.items())
    }
    if args.sweep is not None:
        report["sweep"] = {"R": args.sweep, "kmax": args.kmax, **counts}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
