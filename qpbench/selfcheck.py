"""Self-tests of the benchmark's checks: each must reject a broken output.

    python3 qpbench/selfcheck.py

Runs every workload once at the reduced (``--quick``) size in this
process, confirms the clean outputs pass, then breaks copies of them --
an arc replaced by its conjugate, mirror arcs swapped with a shifted
theta, a recoloured pixel, a factor with its sign flipped, ... -- and
confirms that the matching check reports each one.  Exits 1 if any
check lets a broken output through.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import math
import sys

import rounds

FAILURES = []


def expect(name, got_problems, want_problems=True, failed=None, want_failed=None):
    ok = bool(got_problems) == want_problems
    if want_failed is not None:
        ok = ok and failed == want_failed
    print(f"{'ok  ' if ok else 'FAIL'}  {name}"
          + (f"  ({got_problems[0]})" if got_problems and ok else ""))
    if not ok:
        FAILURES.append(name)


def arcs_cases(out, inputs):
    problems, _, failed = rounds.check_arcs(out)
    expect("arcs: clean output passes", problems, False, failed, 0)

    broken = copy.deepcopy(out)
    broken["arcs"][0]["values"] = [v.conjugate() for v in broken["arcs"][0]["values"]]
    expect("arcs: arc phi=0 replaced by its conjugate", rounds.check_mirror(broken))

    broken = copy.deepcopy(out)
    vals = broken["arcs"][0]["values"]
    broken["arcs"][2]["values"] = vals[1:] + vals[:1]
    expect("arcs: mirror arc swapped in with theta shifted one row",
           rounds.check_mirror(broken))

    broken = copy.deepcopy(out)
    oasis = broken["arcs"][rounds.OASIS]
    oasis["values"] = [v + 0.01 * abs(v) for v in oasis["values"]]
    expect("arcs: oasis arc given a real part", rounds.check_oasis(broken))

    broken = copy.deepcopy(out)
    broken["arcs"][rounds.OASIS]["flags"][1] = "continued"
    expect("arcs: oasis row not flagged ok", rounds.check_oasis(broken))

    broken = copy.deepcopy(out)
    arc = broken["arcs"][3]
    v = arc["values"][1]
    arc["values"][1] = complex(math.nextafter(v.real, math.inf), v.imag)
    expect("arcs: CSV one ulp away from the value returned",
           rounds.check_csv(arc))

    broken = copy.deepcopy(out)
    broken["arcs"][5]["values"][1] = complex(math.nan, math.nan)
    broken["arcs"][5]["flags"][2] = "near_pole"
    expect("arcs: NaN and near_pole rows at regular directions count as failed",
           [], False, rounds.arc_failures(broken), 2)

    last = len(out["arcs"][0]["thetas"]) - 1
    broken = copy.deepcopy(out)
    broken["arcs"][5]["values"][last] = complex(math.nan, math.nan)
    broken["arcs"][5]["flags"][last] = "near_pole"
    expect("arcs: a NaN row at theta = pi/2 is singular, not failed",
           [], False, rounds.arc_failures(broken), 0)


def portrait_cases(out, inputs):
    live = rounds.live_reference(out, inputs)
    problems, _, failed = rounds.check_portrait(out, inputs, live)
    expect("portrait: clean output passes", problems, False, failed, 0)

    table = rounds.reference.load_table()
    res = out["image"].shape[0]
    idx = next(i for i in (rounds.reference.pixel_index(complex(*p["alpha2"]), res)
                           for p in table["points"]) if i is not None)

    def with_image(image):
        broken = dict(out, image=image, ppm=str(rounds.OUT / "selfcheck.ppm"))
        header = f"P6\n{res} {res}\n255\n".encode("ascii")
        with open(broken["ppm"], "wb") as handle:
            handle.write(header + image.tobytes())
        return broken

    image = out["image"].copy()
    image[idx] = (255, 0, 0)
    expect("portrait: reference pixel recoloured",
           rounds.check_portrait(with_image(image), inputs)[0])

    image = out["image"].copy()
    image[idx][2] = min(255, int(image[idx][2]) + 2) if image[idx][2] < 254 \
        else image[idx][2] - 2
    expect("portrait: reference pixel two RGB levels off",
           rounds.check_portrait(with_image(image), inputs)[0])

    image = out["image"].copy()
    image[0, 0] = (0, 0, 0)
    _, _, failed = rounds.check_portrait(with_image(image), inputs)
    expect("portrait: a black pixel is one failed operation", [], False, failed, 1)

    image = out["image"].copy()
    image[-1, -1] = (0, 255, 0)
    broken = with_image(image)
    broken["image"] = out["image"]
    expect("portrait: PPM file differs from the rendered buffer",
           rounds.check_portrait(broken, inputs)[0])

    wrong = [v * complex(math.cos(0.1), math.sin(0.1)) for v in live]
    expect("portrait: live mpmath pixel disagrees",
           rounds.check_portrait(out, inputs, wrong)[0])


def points_cases(out, inputs):
    problems, _, failed = rounds.check_points(out)
    expect("points: clean output passes", problems, False, failed, 0)

    broken = copy.deepcopy(out)
    broken["points"][0]["values"][2] *= -1
    expect("points: one factor with its sign flipped",
           rounds.check_points(broken)[0])

    broken = copy.deepcopy(out)
    broken["points"][1]["values"][0] *= 1 + 1e-5
    expect("points: one factor off by 1e-5", rounds.check_points(broken)[0])

    broken = copy.deepcopy(out)
    broken["points"][0]["values"][1] = "ContinuationError('...')"
    broken["points"][1]["values"][3] = complex(math.inf, 0.0)
    _, _, failed = rounds.check_points(broken)
    expect("points: a raising and a non-finite call are two failed operations",
           [], False, failed, 2)


def main():
    lib = rounds.import_qpdiff()
    spec = lib["contour"].default_contour(rounds.K)
    lib["contour"].validate_contour(spec, rounds.K, raise_on_failure=True)
    cases = {"diffcoef_arcs": arcs_cases, "kpp_portrait": portrait_cases,
             "factor_points": points_cases}
    for workload, run_cases in cases.items():
        inputs = rounds.make_inputs(workload, 1, rounds.SIZES["quick"])
        out = rounds.JOBS[workload](lib, spec, inputs, None)
        run_cases(out, inputs)
    print(f"{len(FAILURES)} check(s) let a broken output through")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
