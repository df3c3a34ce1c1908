"""Pivots and time per exact LP solve, on the inputs that run the simplex.

Run from the repository root, with no arguments:

    python3 tools/bench_lp.py

Four inputs, each the list of ``solve_lp`` calls that kronkit makes on it,
recorded once and then solved again on their own:

* ``reduce_m3_sample`` — ``search.reduce_irredundant`` on the perfbench
  reduce-m3 sample, 40 of the 114 elements of the committed m = 3
  enumeration (``reduce_sample`` and the fixture are imported from
  ``perfbench/workloads.py`` and not changed);
* ``reduction_m3`` — the full 114 → 39 reduction of the same enumeration;
* ``panel`` — ``search._exact_witness`` on each instance of the seeded
  kron > 0 panel of ``tools/bench_witness.py --panel 4 --seed 0``: its
  free-support LPs, up to the first feasible one;
* ``certify`` — ``search.search_witness(inst, seed=0)`` on each instance of
  the perfbench certify panel that no committed facet cuts
  (``workloads.violated`` is None), the instances that the certify workload
  sends to ``find-witness``.  The panel comes from ``tools/bench_witness.py``
  and ``violated`` from ``perfbench/workloads.py``, neither changed.

Every solve is phase 1 alone, so pivots are counted in one untimed pass by
wrapping ``exactlp._pivot`` from outside: ``total`` and ``degenerate`` (the
leaving row's right-hand side is 0).  The time is the median of nine passes
without the wrapper, with the process pinned to one CPU where the platform
allows it, and its interquartile range says how far a difference between
two runs can be told from the spread.  Prints one JSON object: per input,
the number of LPs, the pivot counts, the total time and its interquartile
range, and the per-LP time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bench_witness import certify_instances, kron_panel_instances  # noqa: E402
from kronkit import exactlp, search  # noqa: E402
from kronkit.search import FacetSystem  # noqa: E402
from workloads import load_facets, reduce_sample, violated  # noqa: E402

PANEL_RANK, PANEL_SEED = 4, 0
REPEAT = 9


def recorded_lps(run) -> list[tuple]:
    """The arguments of every ``search.solve_lp`` call that run() makes."""
    lps = []

    def record(*args):
        lps.append(args)
        return exactlp.solve_lp(*args)

    search.solve_lp = record
    try:
        run()
    finally:
        search.solve_lp = exactlp.solve_lp
    return lps


def count_pivots(lps: list[tuple]) -> dict[str, int]:
    counts = dict.fromkeys(("degenerate", "total"), 0)
    real_pivot = exactlp._pivot

    def pivot(tab, basis, row, col, d):
        counts["degenerate"] += tab[row][-1] == 0
        counts["total"] += 1
        return real_pivot(tab, basis, row, col, d)

    exactlp._pivot = pivot
    try:
        for lp in lps:
            exactlp.solve_lp(*lp)
    finally:
        exactlp._pivot = real_pivot
    return counts


def measure(lps: list[tuple], repeat: int) -> dict:
    pivots = count_pivots(lps)
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for lp in lps:
            exactlp.solve_lp(*lp)
        times.append(time.perf_counter() - start)
    total = statistics.median(times)
    q1, _, q3 = statistics.quantiles(times, n=4) if repeat > 1 else (total,) * 3
    return {
        "lps": len(lps),
        "pivots": pivots,
        "total_s": round(total, 4),
        "iqr_s": round(q3 - q1, 4),
        "ms_per_lp": round(1000 * total / len(lps), 3),
    }


def runs() -> dict:
    """Per input, the kronkit call whose LPs it measures."""
    enumerated = load_facets("facets_m3.json")
    sample = FacetSystem(
        3,
        tuple(enumerated.nontrivial[i] for i in reduce_sample(len(enumerated.nontrivial))),
        enumerated.chamber,
    )
    return {
        "reduce_m3_sample": lambda: search.reduce_irredundant(sample),
        "reduction_m3": lambda: search.reduce_irredundant(enumerated),
        "panel": lambda: [
            search._exact_witness(inst)
            for inst in kron_panel_instances(PANEL_RANK, PANEL_SEED)
        ],
        "certify": lambda: [
            search.search_witness(inst, seed=0)
            for inst in certify_instances()
            if violated(search.committed_system(inst.m), inst.padded_rows(), inst.k)
            is None
        ],
    }


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if hasattr(os, "sched_setaffinity"):  # one CPU: no migration mid-pass
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    report = {name: measure(recorded_lps(run), REPEAT) for name, run in runs().items()}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
