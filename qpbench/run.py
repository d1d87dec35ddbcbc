"""Layer-by-layer benchmark of qpdiff: arcs, a K_pp portrait, factor points.

    python3 qpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qpbench/run.py --quick        # every workload once, reduced size

Each round runs in a fresh process (``rounds.py``), so every round starts
as cold as a ``qpdiff`` CLI invocation.  Rounds are repeated while the
next one is expected to end within ``--seconds``; the figures are
medians over rounds, with times rescaled to the reference machine speed
by the yardstick each round times around its job.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("diffcoef_arcs", "kpp_portrait", "factor_points")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
TAIL_PERCENTILES = (50, 75, 90, 95, 99)


def metric_units():
    """Unit of every metric, as declared in the checkout's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def child_env():
    """Default user settings: one row worker, BLAS threads at most nproc."""
    env = dict(os.environ)
    env.pop("QPDIFF_WORKERS", None)
    env.pop("PYTHONPATH", None)
    if "OPENBLAS_NUM_THREADS" not in env and "OMP_NUM_THREADS" not in env:
        env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_round(workload, seed, trace, quick, live, deadline):
    cmd = [sys.executable, str(HERE / "rounds.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--quick"] * quick + ["--live"] * live
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"qpbench: {workload} round passed the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"qpbench: {workload} round exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"qpbench: {workload}: {problem}", file=sys.stderr)
    return result


def package_loc():
    """Lines of the non-generated sources under src/qpdiff."""
    total = 0
    for path in sorted((ROOT / "src" / "qpdiff").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            with open(path, encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def tail_percentile(rows_per_round):
    """Highest listed percentile with at least ten rows of one round beyond it."""
    fits = [p for p in TAIL_PERCENTILES if rows_per_round * (100 - p) / 100 >= 10]
    return max(fits) if fits else 50


def end_to_end(rounds):
    """Medians over rounds; times rescaled to the reference machine speed."""
    return {
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in rounds),
        "ops_per_s": statistics.median(r["attempted"] / r["job_s"] / r["speed"]
                                       for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }


def wall_clock(rounds):
    """The same figures as measured, before rescaling, and the yardstick."""
    return {
        "wall.setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall.ops_per_s": statistics.median(r["attempted"] / r["job_s"]
                                            for r in rounds),
        "machine.yardstick_s": statistics.median(r["yardstick_s"] for r in rounds),
    }


def per_layer(traced, plain):
    names = sorted(set().union(*(r["layers"] for r in traced)))
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    if "farfield.rows" in metrics:
        rows = sorted(ms for r in traced for ms in r["row_ms"])

        def percentile(q):
            return rows[min(len(rows) - 1, int(q / 100 * len(rows)))] if rows else 0.0

        metrics["farfield.row_ms_p50"] = percentile(50)
        metrics["farfield.row_ms_tail"] = percentile(
            tail_percentile(len(traced[0]["row_ms"])))
    metrics["trace.overhead_s"] = (statistics.median(r["job_s"] for r in traced)
                                   - statistics.median(r["job_s"] for r in plain))
    metrics["package.loc"] = package_loc()
    metrics.update(wall_clock(plain))
    return metrics


def report(rounds, metrics):
    units = metric_units()
    return {
        "correct": all(not r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: every workload once at reduced size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qpdiff" / "__init__.py").is_file():
        print(f"qpbench: no qpdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    if args.quick:
        ok = True
        for workload in WORKLOADS:
            r = run_round(workload, args.seed, False, True, True, deadline)
            line = report([r], end_to_end([r]))
            ok = ok and line["correct"] and line["failed"] == 0
            print(json.dumps({"workload": workload, **line}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required (or --quick)")

    plain, traced, walls = [], [], []
    while True:
        enough = plain and (traced or not args.trace)
        elapsed = time.monotonic() - start
        # start no round that would end past --seconds
        if enough and elapsed + statistics.median(walls) > args.seconds:
            break
        tracing_round = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        r = run_round(args.workload, args.seed, tracing_round, False,
                      not plain, deadline)
        walls.append(time.monotonic() - t0)
        (traced if tracing_round else plain).append(r)
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain)
    print(json.dumps(report(plain + traced, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
