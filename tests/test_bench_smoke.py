"""The benchmark's quick mode: every workload once, with its independent checks."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: per-layer metrics that run.py derives from its rounds, not from a round's
#: ``layers``
DERIVED = {"farfield.row_ms_p50", "farfield.row_ms_tail", "trace.overhead_s",
           "package.loc", "wall.setup_s", "wall.ops_per_s",
           "machine.yardstick_s"}


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_quick_benchmark_is_correct():
    proc = subprocess.run([sys.executable, str(ROOT / "qpbench" / "run.py"), "--quick"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert proc.returncode == 0, proc.stderr
    assert [line["workload"] for line in lines] == [
        "diffcoef_arcs", "kpp_portrait", "factor_points"]
    for line in lines:
        assert line["correct"] is True, (line, proc.stderr)
        assert line["failed"] == 0, (line, proc.stderr)


@pytest.mark.parametrize("workload", ["diffcoef_arcs", "kpp_portrait",
                                      "factor_points"])
def test_traced_quick_round_is_correct(workload):
    # the traced hooks read the library's contracts: a round that breaks
    # one fails here, not only in a traced benchmark run
    proc = subprocess.run([sys.executable, str(ROOT / "qpbench" / "rounds.py"),
                           "--workload", workload, "--seed", "0", "--quick",
                           "--trace"],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the last line is the result, in strict JSON: no NaN or Infinity
    line = json.loads(proc.stdout.strip().splitlines()[-1],
                      parse_constant=_strict)
    assert line["problems"] == [], (line["problems"], proc.stderr)
    assert line["failed"] == 0
    # a hook whose name the library lost is skipped and its metrics go
    # missing: every declared per-layer metric must be in the round
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - DERIVED - line["layers"].keys()
    assert not missing, missing
    assert all(math.isfinite(v) for v in line["layers"].values()), line["layers"]
    if workload != "kpp_portrait":  # its pixels take Cauchy sums, no integral
        # the quadrature hook wraps whfactor.integrate_over_shifted by name
        # and reads its QuadResult: a renamed entry point reads blank here
        for name in ("integrals", "evals", "panels"):
            assert line["layers"].get(f"quadrature.{name}", 0) > 0, name
