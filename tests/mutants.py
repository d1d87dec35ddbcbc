"""Mutation audit of the tier-1 suite: which small edits of the library
does no test notice?

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant is a file under ``src/qpdiff``, an exact old text, the new
text and what the edit breaks.  It is applied to a copy of the
repository in a temporary directory, where the tier-1 suite runs with
``-x -q``: a failing suite kills the mutant.  One JSON line is printed
per mutant, then the score.  An old text that does not occur exactly
once in its file is an error (exit status 1), so the list cannot go
stale silently.  The file has no ``test_`` prefix, so pytest does not
collect it; a full run takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FD = "values[part] = K_REF * got[0] / (4j * np.pi ** 2)"

#: (name, file, old text, new text, what it breaks)
MUTANTS = [
    ("prefactor_x2", "farfield.py", _FD,
     "values[part] = 2 * K_REF * got[0] / (4j * np.pi ** 2)",
     "f_d's normalisation, doubled"),
    ("prefactor_negated", "farfield.py", _FD,
     "values[part] = -K_REF * got[0] / (4j * np.pi ** 2)",
     "f_d's sign"),
    ("prefactor_1e-3", "farfield.py", _FD,
     "values[part] = (1 + 1e-3) * K_REF * got[0] / (4j * np.pi ** 2)",
     "f_d's normalisation, by 1e-3"),
    ("prefactor_1e-6", "farfield.py", _FD,
     "values[part] = (1 + 1e-6) * K_REF * got[0] / (4j * np.pi ** 2)",
     "f_d's normalisation, by 1e-6"),
    ("prefactor_2pi", "farfield.py", _FD,
     "values[part] = K_REF * got[0] / (8j * np.pi ** 3)",
     "f_d's normalisation, a wrong factor of 2 pi"),
    ("default_eps", "farfield.py", "eps_shift: float = 0.0) -> Incidence:",
     "eps_shift: float = 3e-8) -> Incidence:",
     "the default forcing-pole shift: 1e-8 k at k = 3, a bias in f_d"),
    ("real_branch_threshold", "farfield.py", "REAL_BRANCH_THRESHOLD = 1e-3",
     "REAL_BRANCH_THRESHOLD = 1e-2", "the real_branch flag's boundary"),
    ("near_pole_threshold", "farfield.py", "NEAR_POLE_THRESHOLD = 1e-3",
     "NEAR_POLE_THRESHOLD = 1e-4", "the near_pole flag's band"),
    ("fpp_phase_1e-6", "farfield.py",
     "value = forcing / (kpp * kmp * values[-1] * kpm)",
     "value = (1 + 1e-6j) * forcing / (kpp * kmp * values[-1] * kpm)",
     "F_pp's phase, by 1e-6"),
    ("default_rel_tol", "quadrature.py", "rel_tol: float = 1e-8",
     "rel_tol: float = 1e-6", "the default quadrature tolerance"),
    ("inner_hump_breaks", "whfactor.py",
     "_HUMP = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])",
     "_HUMP = np.array([-2.0, -1.0, 1.0, 2.0])",
     "the panel breaks of a large |alpha1|"),
    ("continuation_constant_sign", "whfactor.py", "    return complex(c)\n",
     "    return -complex(c)\n", "the alpha1 continuation's branch constant"),
    ("default_alpha1_half_negated", "whfactor.py",
     "half[:m] if cst is None else", "-half[:m] if cst is None else",
     "the alpha1 routes on the default contour, where no constant is measured"),
    ("swapped_half_factor", "whfactor.py",
     "args[0], args[1],", "args[1], args[0],",
     "the half factors of the continuation, inner and outer swapped"),
    ("factor_scale", "contour.py", "(k / K_REF) ** -0.25", "(k / K_REF) ** 0.25",
     "a quarter factor's scale from K_REF back to k"),
    ("variable_map", "contour.py", "return K_REF / k,", "return k / K_REF,",
     "the map of spectral variables from k to K_REF"),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".qpbench_out"))


def run(mutant, workdir: Path) -> dict:
    """Apply one mutant to a fresh copy and run tier-1 there."""
    name, rel, old, new, breaks = mutant
    tree = workdir / name
    _copy(tree)
    path = tree / "src" / "qpdiff" / rel
    text = path.read_text()
    if text.count(old) != 1:
        shutil.rmtree(tree)
        return {"mutant": name, "status": "error",
                "reason": f"old text occurs {text.count(old)} times in {rel}"}
    path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    shutil.rmtree(tree)
    lines = proc.stdout.strip().splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAILED")]
    return {"mutant": name, "status": "killed" if proc.returncode else "survived",
            "by": failed[0] if failed else None,
            "seconds": round(time.perf_counter() - t0, 1), "breaks": breaks}


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory(prefix="qpdiff-mutants-") as tmp:
        for mutant in chosen:
            results.append(run(mutant, Path(tmp)))
            print(json.dumps(results[-1]), flush=True)
    killed = [r["mutant"] for r in results if r["status"] == "killed"]
    errors = [r["mutant"] for r in results if r["status"] == "error"]
    print(json.dumps({"killed": len(killed), "total": len(results),
                      "survived": [r["mutant"] for r in results
                                   if r["status"] == "survived"],
                      "errors": errors}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
