"""Independent reference values for the benchmark's correctness checks.

Everything here is written from the formulas alone, with mpmath (and
plain Python complex arithmetic for the cheap geometry), and imports
nothing from qpdiff:

* ``sqrt_down`` (cut down the negative imaginary axis), ``diag_log``
  (cut along arg = -3 pi/4), ``kappa`` and the nested kernel ``big_k``;
* the k = 3 inversion contour ``A(s) = s + s / (a (s^4 + c))``, its
  derivative and the vertical gap of a point to it;
* ``K_pp(alpha1, alpha2)`` by its Cauchy integral along the contour
  (tanh-sinh quadrature over the whole line).  Below the contour it is
  the explicit half factor ``1 / sqrt_down(kappa(k, alpha2) + alpha1)``
  divided by K_pm's integral;
* the phase colouring hue = (arg f + pi) / (2 pi) -> RGB, through
  ``colorsys``.

The stored table ``kpp_reference.json`` holds K_pp at a fixed sample of
portrait pixels on both sides of the contour.  Regenerate it with

    python3 qpbench/reference.py --regenerate

which takes about half a minute.
"""

from __future__ import annotations

import argparse
import colorsys
import json
import math
import os

import mpmath as mp

K = 3.0
CONTOUR_A = 0.0012 + 0.0006j
CONTOUR_C = 1000j
ALPHA1_ANCHOR = 10.0  # the CLI's "A1:10": alpha1 = A(10)
WINDOW = (-6.0, 6.0, -6.0, 6.0)
TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "kpp_reference.json")
#: coarsest portrait grid whose pixel centres the stored sample uses; every
#: resolution that is an odd multiple of it contains those centres.
TABLE_RES = 40

mp.mp.dps = 20
_ROT = mp.expjpi(mp.mpf(1) / 4)


# -- branch-controlled functions (mpmath) ------------------------------------

def sqrt_down(z):
    return _ROT * mp.sqrt(-1j * z)


def diag_log(z):
    return mp.log(z / _ROT) + 1j * mp.pi / 4


def kappa(kk, z):
    return sqrt_down(kk - z) * sqrt_down(kk + z)


def big_k(alpha1, alpha2, k=K) -> complex:
    """The kernel ``1 / kappa(kappa(k, alpha2), alpha1)``."""
    a1 = mp.mpc(alpha1)
    a2 = mp.mpc(alpha2)
    return complex(1 / kappa(kappa(mp.mpf(k), a2), a1))


# -- contour geometry ----------------------------------------------------------

def contour(s):
    """A(s); works for floats and mpmath numbers alike."""
    return s + s / (CONTOUR_A * (s ** 4 + CONTOUR_C))


def contour_slope(s):
    return 1 + (CONTOUR_C - 3 * s ** 4) / (CONTOUR_A * (s ** 4 + CONTOUR_C) ** 2)


def projection(x, iters=80):
    """Parameter s with Re A(s) = x, by bisection (Re A is increasing)."""
    lo, hi = x - 20.0, x + 20.0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if contour(mid).real < x:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def contour_gap(z: complex) -> float:
    """Im z minus Im A at the same real part (positive above the contour)."""
    z = complex(z)
    return z.imag - contour(projection(z.real, iters=60)).imag


def alpha1_anchor() -> complex:
    return complex(contour(mp.mpf(ALPHA1_ANCHOR)))


# -- K_pp by its Cauchy integral -----------------------------------------------

def _log_integral(alpha1, alpha2):
    """int diag_log(1 + alpha1 / kappa(k, z)) / (z - alpha2) dz along A."""
    kk = mp.mpf(K)
    a1 = mp.mpc(alpha1)
    a2 = mp.mpc(alpha2)

    def f(s):
        z = contour(s)
        return diag_log(1 + a1 / kappa(kk, z)) / (z - a2) * contour_slope(s)

    s_star = mp.mpf(projection(float(a2.real)))
    breaks = {-40, -12, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 12, 40}
    pts = [-mp.inf] + sorted([mp.mpf(b) for b in breaks] + [s_star]) + [mp.inf]
    return mp.quad(f, pts)


def k_pp(alpha1, alpha2) -> complex:
    """K_pp at one point; the side of alpha2 picks the representation."""
    kk = mp.mpf(K)
    a1 = mp.mpc(alpha1)
    a2 = mp.mpc(alpha2)
    integral = _log_integral(a1, a2)
    if contour_gap(complex(a2)) > 0:
        value = mp.exp(-integral / (4j * mp.pi)) / sqrt_down(sqrt_down(kk + a2))
    else:
        k_pm = mp.exp(integral / (4j * mp.pi)) / sqrt_down(sqrt_down(kk - a2))
        value = 1 / sqrt_down(kappa(kk, a2) + a1) / k_pm
    return complex(value)


def phase_rgb(value: complex):
    """Phase colouring of one value: full saturation and value."""
    hue = (math.atan2(value.imag, value.real) + math.pi) / (2 * math.pi)
    return tuple(int(round(255 * c)) for c in colorsys.hsv_to_rgb(hue % 1.0, 1.0, 1.0))


# -- pixel geometry ----------------------------------------------------------------

def pixel_centre(row: int, col: int, res: int) -> complex:
    re_min, re_max, im_min, im_max = WINDOW
    re = re_min + (col + 0.5) * (re_max - re_min) / res
    im = im_max - (row + 0.5) * (im_max - im_min) / res
    return complex(re, im)


def pixel_index(z: complex, res: int):
    """(row, col) of the pixel centred on z at resolution res, else None."""
    re_min, re_max, im_min, im_max = WINDOW
    col = (z.real - re_min) * res / (re_max - re_min) - 0.5
    row = (im_max - z.imag) * res / (im_max - im_min) - 0.5
    if abs(col - round(col)) > 1e-6 or abs(row - round(row)) > 1e-6:
        return None
    return int(round(row)), int(round(col))


def load_table():
    with open(TABLE_PATH) as handle:
        return json.load(handle)


def _sample_pixels():
    """A fixed spread of coarse-grid pixels: far, mid and close on each side."""
    bands = [(1.5, 99.0, 7), (0.3, 1.5, 7), (0.05, 0.3, 6)]
    picked = []
    for sign in (+1, -1):
        for lo, hi, count in bands:
            cands = []
            for row in range(TABLE_RES):
                for col in range(TABLE_RES):
                    z = pixel_centre(row, col, TABLE_RES)
                    gap = sign * contour_gap(z)
                    if lo <= gap < hi:
                        cands.append((row, col))
            step = max(1, len(cands) // count)
            picked.extend(cands[(step // 2)::step][:count])
    return picked


def regenerate() -> None:
    a1 = alpha1_anchor()
    rows = []
    for row, col in _sample_pixels():
        z = pixel_centre(row, col, TABLE_RES)
        value = k_pp(a1, z)
        rows.append({"alpha2": [z.real, z.imag], "gap": contour_gap(z),
                     "k_pp": [value.real, value.imag]})
    table = {
        "about": "K_pp(A(10), alpha2) at k = 3 from qpbench/reference.py "
                 "(mpmath, 20 digits); regenerate with "
                 "python3 qpbench/reference.py --regenerate",
        "alpha1": [a1.real, a1.imag],
        "grid_res": TABLE_RES,
        "window": list(WINDOW),
        "points": rows,
    }
    with open(TABLE_PATH, "w") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    print(f"wrote {TABLE_PATH} ({len(rows)} points)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="recompute and rewrite kpp_reference.json")
    if parser.parse_args().regenerate:
        regenerate()
    else:
        parser.print_help()
