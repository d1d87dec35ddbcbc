"""The benchmark's quick mode: every workload once, with its independent checks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
