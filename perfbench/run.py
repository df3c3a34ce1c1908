"""kronkit benchmark: one workload per call, or the whole suite.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds T]

Run from the repository root.  Each call starts the workload in fresh worker
processes (``worker.py``) with a pinned environment, prints a report, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass with ``--trace 1``.  ``--all`` runs every workload
untraced and traced, and prints every metric, one correctness line per
workload and the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("enumerate-m3", "reduce-m3", "certify", "verify")
SETUP_SAMPLES = 9  # set-up is measured in this many fresh processes
RUN_LIMIT_S = 170  # a call must end within 180 s

# The gated end-to-end metrics (BENCHMARK.json): every workload reports them.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]
# Reported, not gated: zero on some workloads, absent on others, or (the
# latency percentiles of certify) single order statistics of a bimodal
# distribution that moved by 13-21% between runs of the same inputs.
REPORT_ONLY = [
    ("fail_ratio", "ratio"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("nonmember_check_ms_p50", "ms"),
    ("nonmember_check_ms_p90", "ms"),
    ("member_check_ms_p50", "ms"),
    ("member_check_ms_p90", "ms"),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env() -> dict[str, str]:
    """Single-threaded, hash-seeded environment that imports ./src."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "KRONKIT_THREADS" and not k.startswith("PYTHON")
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def environment() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "KRONKIT_THREADS": "unset in workers",
    }


def worker(workload: str, seed: int, seconds: float, trace: int, work: Path,
           setup_only: bool, deadline: float) -> dict:
    """Start one fresh worker process and return its JSON result."""
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(t0), "--work", str(work),
    ]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, limit: float) -> dict:
    """Set-up samples plus one measured worker; returns the merged result."""
    deadline = time.monotonic() + limit
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(worker(workload, seed, seconds, 0, work, True, deadline)["setup_s"])
        res = worker(workload, seed, seconds, trace, work, False, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setups)
    res["counts"]["setup_samples"] = len(setups)
    return res


def print_report(workload: str, res: dict, trace: int) -> None:
    counts = res["counts"]
    print(
        f"== {workload}: {counts['passes']} pass(es), {counts['ops']} operations "
        f"({res['attempted']} attempted, {res['failed']} failed)"
    )
    if not trace:
        for name, unit in END_TO_END + REPORT_ONLY:
            if name in res["metrics"]:
                sample = counts.get(name.rsplit("_p", 1)[0]) if "_ms_p" in name else None
                n = f"  (n={sample})" if sample else ""
                print(f"  {name:<24} {res['metrics'][name]:>14.6g} {unit}{n}")
        print(f"  setup samples: {counts['setup_samples']}")
    else:
        for name, unit in spans.layer_metric_names():
            print(f"  {name:<46} {res['layers'][name]:>14.6g} {unit}")
        print(f"  {'trace.wall_s':<46} {res['metrics']['wall_s']:>14.6g} s")
        print(f"  spans written to {res['trace_file']}")
    for note in res["notes"]:
        print(f"  note: {note}")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"correctness {workload}: {'PASS' if res['correct'] else 'FAIL'}")


def result_line(res: dict, trace: int) -> str:
    if trace:
        metrics = {
            name: {"value": res["layers"][name], "unit": unit}
            for name, unit in spans.layer_metric_names()
        }
        metrics["trace.wall_s"] = {"value": res["metrics"]["wall_s"], "unit": "s"}
    else:
        metrics = {
            name: {"value": res["metrics"][name], "unit": unit} for name, unit in END_TO_END
        }
    return json.dumps(
        {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": metrics,
        }
    )


def check_checkout() -> None:
    missing = [
        p for p in (ROOT / "src" / "kronkit" / "__init__.py", HERE / "fixtures")
        if not p.exists()
    ]
    if missing:
        raise BenchError(
            "not a kronkit checkout: missing " + ", ".join(str(p) for p in missing)
        )


def suite(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced; overhead is the wall difference."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    ok = True
    for workload in WORKLOADS:
        if workload not in declared:
            print(f"note: {workload} is not declared in BENCHMARK.json, so its runs "
                  "gate nothing; see perfbench/README.md")
        plain = run_one(workload, seed, seconds, 0, 900)
        print_report(workload, plain, 0)
        traced = run_one(workload, seed, seconds, 1, 900)
        print_report(workload, traced, 1)
        overhead = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        print(f"  trace.overhead_s {overhead:.6g} s "
              f"({overhead / plain['metrics']['wall_s']:.1%} of wall_s)")
        ok = ok and plain["correct"] and traced["correct"]
        sys.stdout.flush()
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="kronkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run the whole suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        check_checkout()
        print("environment: " + json.dumps(environment()))
        if args.all:
            return suite(args.seed, args.seconds)
        res = run_one(args.workload, args.seed, args.seconds, args.trace, RUN_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, res, args.trace)
    print(result_line(res, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
