"""Time per membership witness, split by the route that decides it.

Run from the repository root:

    python3 tools/bench_witness.py [--repeat 3]
    python3 tools/bench_witness.py --panel R [--seed S] [--repeat 1]

Without ``--panel`` the instances are those of the perfbench certify panel
that reach ``find-witness`` (they violate no committed facet): the panel is
imported from ``perfbench/workloads.py`` and not changed.  With ``--panel R``
they are 40 distinct seeded triples with at most R rows, one of exactly R,
k from R to 12 and ``oracle.kron_coeff`` > 0, drawn like the rank-four panel
of ``tests/test_search.py``.

Each instance is decided ``--repeat`` times by ``search_witness(inst,
seed=0)``, the call behind ``kronkit find-witness --seed 0``, and its median
time is kept.  The route is "exact" when ``search._exact_witness`` returns a
witness and "float" otherwise; an exact witness whose entries all lie on
the diagonal {(i,i,i)} is also counted under ``on_diagonal``.  Prints one
JSON object: per route and rank, the count, how many were decided (and on
the diagonal), the total and the median time per instance.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kronkit import search  # noqa: E402
from kronkit.diagrams import make_instance, parse_young  # noqa: E402
from kronkit.oracle import kron_coeff, partitions  # noqa: E402
from workloads import certify_panel, load_facets, violated  # noqa: E402


def find_witness_instances():
    systems = {
        2: load_facets("facets_m2_irredundant.json"),
        3: load_facets("facets_m3_irredundant.json"),
    }
    for triple, _ in certify_panel(systems[3]):
        inst = make_instance(*(parse_young(lam) for lam in triple), sum(triple[0]))
        if violated(systems.get(inst.m), inst.padded_rows(), inst.k) is None:
            yield inst


def kron_panel_instances(rank: int, seed: int, size: int = 40, kmax: int = 12):
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--panel", type=int, metavar="R")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.panel is None:
        instances = find_witness_instances()
    else:
        instances = kron_panel_instances(args.panel, args.seed)
    rows: dict[str, dict] = {}
    for inst in instances:
        exact = search._exact_witness(inst)
        route = "exact" if exact is not None else "float"
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            cert = search.search_witness(inst, seed=0)
            times.append(time.perf_counter() - start)
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
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
