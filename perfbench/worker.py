"""One workload in one fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1
                                --t0 MONOTONIC --work DIR [--setup-only]

Set-up runs from process start (``--t0``, the parent's ``time.monotonic()``
just before it started this process) to ready: interpreter start, import,
fixture load and re-check, input generation and one warm-up call.  Then whole
passes over the workload's operations run until ``--seconds`` of timed work,
at least one; the correctness gates run after each pass, outside the timed
region.  The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# operation kind -> report name of its latency percentiles
KIND_METRIC = {
    "instance": "instance_ms",
    "nonmember": "nonmember_check_ms",
    "member": "member_check_ms",
}


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole passes until ``seconds`` of timed work, at least one pass.

    The correctness gates run after each pass, outside the timed region and
    outside the trace.  An operation that raises yields a ``Raised`` result.
    """
    from workloads import Raised  # imports kronkit: main() sets the path first

    ops = workload.operations()
    kinds = workload.kinds()
    walls: list[float] = []
    latencies: dict[str, array] = {kind: array("d") for kind in kinds}
    gates = []
    while not walls or sum(walls) < seconds:
        workload.start_pass()
        results = []
        t_pass = time.perf_counter()
        for op_id, op in enumerate(ops):
            t_op = time.perf_counter()
            try:
                if tracer is None:
                    result = op()
                else:
                    with tracer.operation(op_id):
                        result = op()
            except Exception as exc:  # an operation that raises is a failure
                result = Raised(exc)
            latencies[kinds[op_id]].append(time.perf_counter() - t_op)
            results.append(result)
        walls.append(time.perf_counter() - t_pass)
        if tracer is None:
            gates.append(workload.check(results))
        else:
            with tracer.paused():
                gates.append(workload.check(results))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = summarize(walls, latencies, gates)
    result["metrics"]["peak_rss_mib"] = peak_rss_mib
    return result


def summarize(walls: list[float], latencies: dict[str, array], gates: list) -> dict:
    """Metrics, counts and gate outcomes of a run."""
    failed = sum(sum(g.failed) for g in gates)
    attempted = sum(len(lats) for lats in latencies.values())
    metrics = {
        "wall_s": percentile(walls, 0.5),
        "ops_per_s": (attempted - failed) / sum(walls),
        "fail_ratio": failed / attempted,
    }
    counts = {"passes": len(walls), "ops": attempted}
    for kind, lats in latencies.items():
        name = KIND_METRIC.get(kind)
        if name:
            ms = [lat * 1e3 for lat in lats]
            metrics[f"{name}_p50"] = percentile(ms, 0.5)
            metrics[f"{name}_p90"] = percentile(ms, 0.9)
            counts[name] = len(ms)
    problems = sorted({p for g in gates for p in g.problems})
    return {
        "metrics": metrics,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "notes": gates[0].notes,  # every pass repeats the same inputs
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import kronkit
    import workloads

    if not Path(kronkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kronkit imported from {kronkit.__file__}, not {ROOT / 'src'}")
    work = Path(args.work)
    fx = workloads.load_fixtures()
    workload = workloads.WORKLOADS[args.workload](fx, args.seed, work)
    workload.warm_up()
    setup_s = time.monotonic() - args.t0
    out: dict = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        out.update(measure(workload, args.seconds, tracer))
        if tracer is not None:
            passes = out["counts"]["passes"]
            out["layers"] = tracer.layer_metrics(passes)
            out["trace_file"] = str(work.parent / f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(
                out["trace_file"], workload=args.workload, seed=args.seed, passes=passes
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
