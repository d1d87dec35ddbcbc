"""One cold round of a benchmark workload, run in a fresh process.

    python3 qpbench/rounds.py --workload diffcoef_arcs --seed 1 \
        [--trace] [--quick] [--live]

A round is what one ``qpdiff`` CLI invocation does: import the package,
gate the contour (``validate_contour(..., raise_on_failure=True)``) and
run one job.  Because every round is a new process, the lazily built
state -- ``whfactor.continuation_constant``'s cache and the contour
geometry cache -- is built inside every round, as it is for a user.

The round prints one JSON line: set-up and job wall times, operations
attempted and failed, peak resident memory, the problems its checks
found and, with ``--trace``, the per-layer figures of ``tracing``.

The checks compare against ``reference`` (independent mpmath code) or
against properties the method must have; none compares against a stored
copy of the program's own output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".qpbench_out"
K = 3.0
THETA0, PHI0 = math.pi / 4, -3 * math.pi / 4
ARC_PHIS = [j * math.pi / 4 for j in range(8)]
#: (phi, pi/2 - phi) arcs that the diagonal mirror maps onto each other
MIRROR_PAIRS = [(0, 2), (3, 7), (4, 6)]
OASIS = 4  # phi = pi: a pole-free arc where f_d is purely imaginary
CSV_HEADER = "theta,phi,theta0,phi0,k,re_fd,im_fd,flag"
MIRROR_TOL = 1e-7  # ten times the default quadrature rel_tol
OASIS_RATIO = 1e-3
RECON_TOL = 1e-6  # acceptance criterion 3
NEAR = 1e-3  # the singular-direction rule's distance to a forcing pole

SIZES = {
    "full": {"n_theta": 21, "res": 200, "points": 64, "live_pixels": 2},
    "quick": {"n_theta": 5, "res": 40, "points": 4, "live_pixels": 1},
}


def import_qpdiff():
    """The qpdiff modules of this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "qpdiff" / "__init__.py").is_file():
        raise SystemExit(f"qpbench: no qpdiff sources under {src}")
    sys.path.insert(0, str(src))
    import qpdiff
    from qpdiff import contour, farfield, grid_eval, portrait, quadrature, whfactor
    if Path(qpdiff.__file__).resolve().parent != (src / "qpdiff").resolve():
        raise SystemExit(f"qpbench: imported qpdiff from {qpdiff.__file__}")
    return {"contour": contour, "farfield": farfield, "grid_eval": grid_eval,
            "portrait": portrait, "quadrature": quadrature, "whfactor": whfactor}


# -- machine speed -------------------------------------------------------------

#: the two yardstick runs of a round on the reference machine (README.md, "Noise")
YARDSTICK_REF_S = 0.4


def yardstick():
    """Wall time of fixed work that does not touch qpdiff.

    It mixes what the workloads spend their time on: numpy calls on
    scalars from a Python loop, element-wise complex array arithmetic,
    and Cauchy-kernel-like matrix-vector products through BLAS.  Taken
    right before and after the job, it tells how fast the machine is
    running while the job runs.
    """
    import numpy as np  # not at the top: set-up time counts numpy's import


    t0 = time.perf_counter()
    a, c = 0.0012 + 0.0006j, 1000j
    acc = 0.0
    for i in range(2000):
        s = np.asarray(1e-3 * i)
        acc += float(np.real(s + s / (a * (s.astype(np.complex128) ** 4 + c))))
    z = np.linspace(-5.0, 5.0, 20000) + 0.1j
    for _ in range(10):
        acc += float(np.abs(np.sqrt(9.0 - z * z) * np.log(1.0 + 1.0 / (z + 3j))).sum())
    nodes = np.linspace(-8.0, 8.0, 1500) - 0.5j
    coef = np.ones(nodes.size, dtype=np.complex128)
    for j in range(30):  # small blocks, so the round's peak memory is the job's
        targets = np.linspace(-6.0, 6.0, 200) + 0.1j * j
        acc += float(np.abs((1.0 / (nodes[None, :] - targets[:, None])) @ coef).sum())
    if not math.isfinite(acc):
        raise SystemExit("qpbench: yardstick produced a non-finite sum")
    return time.perf_counter() - t0


# -- inputs --------------------------------------------------------------------

def make_inputs(workload, seed, size):
    """Everything a round feeds the program, drawn from the seed alone."""
    rng = random.Random(seed)
    if workload == "diffcoef_arcs":
        order = list(range(len(ARC_PHIS)))
        rng.shuffle(order)
        return {"order": order, "n_theta": size["n_theta"]}
    if workload == "kpp_portrait":
        res = size["res"]
        live = []
        while len(live) < size["live_pixels"]:
            row, col = rng.randrange(res), rng.randrange(res)
            if abs(reference.contour_gap(reference.pixel_centre(row, col, res))) > 0.25:
                live.append((row, col))
        return {"res": res, "live": live}
    if workload == "factor_points":
        return {"points": factor_points(rng, size["points"])}
    raise SystemExit(f"qpbench: unknown workload {workload!r}")


def factor_points(rng, n):
    """Half on the real square (-0.9k, 0.9k)^2, half complex off both contours.

    The complex half keeps |alpha1|^2 + |alpha2|^2 <= (0.9k)^2: outside
    that ball the nested closed form ``big_k`` takes the other sign at
    some complex points, so the reconstruction identity has no single
    reference value there.
    """
    box = 0.9 * K
    pts = [(complex(rng.uniform(-box, box)), complex(rng.uniform(-box, box)))
           for _ in range(n // 2)]
    while len(pts) < n:
        a1, a2 = (complex(rng.uniform(-box, box), rng.uniform(-1.5, 1.5))
                  for _ in range(2))
        if abs(a1) ** 2 + abs(a2) ** 2 > box ** 2:
            continue
        if min(abs(reference.contour_gap(a1)), abs(reference.contour_gap(a2))) < 0.1:
            continue
        pts.append((a1, a2))
    return pts


# -- jobs (the timed part) -----------------------------------------------------

def job_arcs(lib, spec, inputs, tracer):
    """The README's ``qpdiff diffcoef`` job: 8 arcs, one CSV per arc."""
    ff = lib["farfield"]
    outdir = OUT / "arcs"
    outdir.mkdir(parents=True, exist_ok=True)
    inc = ff.make_incidence(THETA0, PHI0, K)
    evaluator = ff.AnsatzEvaluator(inc, contour=spec,
                                   cfg=lib["quadrature"].QuadratureConfig())
    arcs = {}
    for j in inputs["order"]:
        phi = ARC_PHIS[j]
        if tracer is not None:
            tracer.op = f"arc:phi={phi:.6f}"
        result = evaluator.arc_sweep(phi, inputs["n_theta"], workers=1)
        path = outdir / f"arc_phi_{phi:.12g}.csv"
        result.to_csv(str(path))
        arcs[j] = {"phi": phi, "thetas": [float(t) for t in result.thetas],
                   "values": [complex(v) for v in result.values],
                   "flags": list(result.flags), "csv": str(path)}
    return {"arcs": arcs, "inc": (inc.xi0, inc.eta0)}


def job_portrait(lib, spec, inputs, tracer):
    """The README's ``qpdiff portrait --function k_pp --alpha1 A1:10`` job."""
    portrait = lib["portrait"]
    alpha1 = lib["contour"].contour_point(spec, reference.ALPHA1_ANCHOR)
    res = inputs["res"]
    pspec = portrait.PortraitSpec(window=reference.WINDOW,
                                  resolution=(res, res), function="k_pp",
                                  params=(("k", K), ("alpha1", alpha1)))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "k_pp.ppm"
    image = portrait.render(pspec, contour=spec)
    portrait.write_image(image, str(path))
    return {"image": image, "ppm": str(path), "alpha1": alpha1}


def job_points(lib, spec, inputs, tracer):
    """All four labels at every point through ``continue_factor``."""
    wh = lib["whfactor"]
    cfg = lib["quadrature"].QuadratureConfig()
    rows = []
    for i, (a1, a2) in enumerate(inputs["points"]):
        if tracer is not None:
            tracer.op = f"point:{i}"
        values = []
        for label in wh.ALL_LABELS:
            try:
                value, _ = wh.continue_factor(label, a1, a2, K, spec, cfg,
                                              with_route=True)
                values.append(complex(value))
            except Exception as exc:  # a raising call is one failed operation
                values.append(repr(exc))
        rows.append({"alpha1": a1, "alpha2": a2, "values": values})
    return {"points": rows}


# -- checks ----------------------------------------------------------------------

def _finite(v):
    return isinstance(v, complex) and math.isfinite(v.real) and math.isfinite(v.imag)


def singular_row(theta, phi, inc):
    """The benchmark's own rule, from the angles alone."""
    xi0, eta0 = inc
    xi = math.cos(phi) * math.sin(theta)
    eta = math.sin(phi) * math.sin(theta)
    return theta == math.pi / 2 or abs(xi + xi0) < NEAR or abs(eta + eta0) < NEAR


def arc_failures(out):
    """Rows that are non-finite or near_pole at a non-singular direction."""
    failed = 0
    for arc in out["arcs"].values():
        for theta, value, flag in zip(arc["thetas"], arc["values"], arc["flags"]):
            if singular_row(theta, arc["phi"], out["inc"]):
                continue
            if not _finite(value) or flag == "near_pole":
                failed += 1
    return failed


def check_csv(arc):
    """The CSV parses back, bit for bit, to the values returned."""
    with open(arc["csv"]) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{arc['csv']}: header is not {CSV_HEADER!r}"]
    if len(lines) - 1 != len(arc["thetas"]):
        return [f"{arc['csv']}: {len(lines) - 1} rows, expected {len(arc['thetas'])}"]
    problems = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        want = [arc["thetas"][i], arc["phi"], THETA0, PHI0, K,
                arc["values"][i].real, arc["values"][i].imag]
        got = [float(c) for c in cells[:7]]
        same = all(g == w or (math.isnan(g) and math.isnan(w))
                   for g, w in zip(got, want))
        if len(cells) != 8 or not same or cells[7] != arc["flags"][i]:
            problems.append(f"{arc['csv']}: row {i} differs from the values returned")
    return problems


def check_mirror(out):
    """f_d(theta, phi) = f_d(theta, pi/2 - phi) on the non-singular rows."""
    problems = []
    arcs = out["arcs"]
    for a, b in MIRROR_PAIRS:
        if a not in arcs or b not in arcs:
            continue
        one, two = arcs[a], arcs[b]
        if one["thetas"] != two["thetas"]:
            problems.append(f"mirror arcs {a}/{b}: different theta grids")
            continue
        for theta, u, v in zip(one["thetas"], one["values"], two["values"]):
            if singular_row(theta, one["phi"], out["inc"]):
                continue
            if not (_finite(u) and _finite(v)):
                continue  # counted as a failed row
            gap = abs(u - v) / max(abs(u), abs(v))
            if gap > MIRROR_TOL:
                problems.append(f"mirror arcs phi={one['phi']:.4f}/{two['phi']:.4f} "
                                f"disagree at theta={theta:.6f}: {gap:.2e}")
    return problems


def check_oasis(out):
    arc = out["arcs"].get(OASIS)
    if arc is None:
        return []
    problems = []
    if any(f != "ok" for f in arc["flags"]):
        problems.append(f"oasis arc flags {sorted(set(arc['flags']))}, expected all ok")
    if all(_finite(v) for v in arc["values"]):
        re_max = max(abs(v.real) for v in arc["values"])
        im_max = max(abs(v.imag) for v in arc["values"])
        if not re_max < OASIS_RATIO * im_max:
            problems.append(f"oasis arc not purely imaginary: max|Re|/max|Im| = "
                            f"{re_max / im_max if im_max else math.inf:.2e}")
    else:
        problems.append("oasis arc has non-finite values")
    return problems


def check_arcs(out):
    problems = check_mirror(out) + check_oasis(out)
    for arc in out["arcs"].values():
        problems += check_csv(arc)
    ops = sum(len(a["thetas"]) for a in out["arcs"].values())
    return problems, ops, arc_failures(out)


def _rgb_close(got, want):
    return max(abs(int(g) - int(w)) for g, w in zip(got, want)) <= 1


def check_portrait(out, inputs, live_values=None):
    image = out["image"]  # (res, res, 3) uint8, top row first
    res = image.shape[0]
    problems = []
    black = int((image.max(axis=2) == 0).sum())
    with open(out["ppm"], "rb") as handle:
        data = handle.read()
    header = f"P6\n{res} {res}\n255\n".encode("ascii")
    if data != header + image.tobytes():
        problems.append("PPM file does not hold the rendered buffer")
    table = reference.load_table()
    if abs(complex(*table["alpha1"]) - out["alpha1"]) > 1e-12:
        problems.append("alpha1 differs from the reference table's A(10)")
    for point in table["points"]:
        idx = reference.pixel_index(complex(*point["alpha2"]), res)
        if idx is None:
            continue
        want = reference.phase_rgb(complex(*point["k_pp"]))
        got = image[idx].tolist()
        if not _rgb_close(got, want):
            problems.append(f"pixel {idx}: {got} vs reference {list(want)}")
    for (row, col), value in zip(inputs["live"], live_values or []):
        want = reference.phase_rgb(value)
        got = image[row, col].tolist()
        if not _rgb_close(got, want):
            problems.append(f"live pixel {(row, col)}: {got} vs reference {list(want)}")
    return problems, res * res, black


def live_reference(out, inputs):
    """mpmath K_pp at the seed's extra pixels (outside the timed region)."""
    res = inputs["res"]
    return [reference.k_pp(out["alpha1"], reference.pixel_centre(r, c, res))
            for r, c in inputs["live"]]


def check_points(out):
    problems = []
    failed = 0
    for row in out["points"]:
        bad = [v for v in row["values"] if not _finite(v)]
        failed += len(bad)
        if bad:
            continue
        prod = 1.0 + 0.0j
        for v in row["values"]:
            prod *= v
        want = reference.big_k(row["alpha1"], row["alpha2"])
        err = abs(prod - want) / abs(want)
        if not err < RECON_TOL:
            problems.append(f"reconstruction at ({row['alpha1']:.4g}, "
                            f"{row['alpha2']:.4g}): relative error {err:.2e}")
    return problems, 4 * len(out["points"]), failed


JOBS = {"diffcoef_arcs": job_arcs, "kpp_portrait": job_portrait,
        "factor_points": job_points}


def check(workload, out, inputs, live):
    """(problems, operations attempted, operations failed) of one round.

    ``live`` adds the seed's mpmath pixels (about 0.4 s each) to the
    portrait checks; the benchmark asks for them once per run.
    """
    if workload == "diffcoef_arcs":
        return check_arcs(out)
    if workload == "kpp_portrait":
        values = live_reference(out, inputs) if live else None
        return check_portrait(out, inputs, values)
    return check_points(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--live", action="store_true",
                        help="also check the seed's pixels against mpmath")
    args = parser.parse_args(argv)
    if "numpy" in sys.modules:
        raise SystemExit("qpbench: numpy imported before the set-up timer")

    t0 = time.perf_counter()
    lib = import_qpdiff()
    spec = lib["contour"].default_contour(K)
    t_gate = time.perf_counter()
    lib["contour"].validate_contour(spec, K, raise_on_failure=True)
    t1 = time.perf_counter()

    inputs = make_inputs(args.workload, args.seed,
                         SIZES["quick" if args.quick else "full"])
    tracer = restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, lib)
    yard_s = yardstick()
    t2 = time.perf_counter()
    out = JOBS[args.workload](lib, spec, inputs, tracer)
    job_s = time.perf_counter() - t2
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        restore()
    yard_s += yardstick()
    result = {"setup_s": t1 - t0, "job_s": job_s, "peak_rss_mib": rss_mib,
              "yardstick_s": yard_s, "speed": YARDSTICK_REF_S / yard_s}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["contour.gate_s"] = t1 - t_gate
        result["row_ms"] = tracer.row_ms
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    problems, ops, failed = check(args.workload, out, inputs, args.live)
    result.update(attempted=ops, failed=failed, problems=problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
