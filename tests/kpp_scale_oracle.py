"""An independent table of K_pp at three wavenumbers: the scale oracle.

    python3 tests/kpp_scale_oracle.py     # rewrites kpp_scale_table.json

K_pp is written here from its formula alone, with mpmath at 20 digits,
the way ``qpbench/reference.py`` writes it at k = 3, and nothing is
imported from qpdiff or qpbench:

* ``sqrt_down`` (cut down the negative imaginary axis), ``diag_log``
  (cut along arg = -3 pi/4) and ``kappa``;
* the inversion contour at wavenumber k, ``A(s) = s + s / (a (s^4 + c))``
  with ``a = a0 (3/k)^4`` and ``c = c0 (k/3)^4`` (the k = 3 constants
  ``a0 = 0.0012 + 0.0006j``, ``c0 = 1000j`` scaled by similarity), and
  the vertical gap of a point to it, by bisection;
* above the contour, ``K_pp = exp(-I / (4 i pi)) / sqrt_down(sqrt_down(k
  + alpha2))`` with ``I = int diag_log(1 + alpha1 / kappa(k, z)) / (z -
  alpha2) dz`` along A (tanh-sinh quadrature over the whole line, breaks
  scaled with k); below it, the half factor ``1 / sqrt_down(kappa(k,
  alpha2) + alpha1)`` divided by K_pm's integral.

The points are ``alpha = k u`` at eight fixed ``u`` with ``|u| <= 0.9``:
alpha1 above the contour, alpha2 on both sides.  Each k integrates on
its own contour with its own wavenumber, so the table tests the scale
covariance of the engine, which runs at one wavenumber, from outside.
It takes about half a minute.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

mp.mp.dps = 20
A0 = mp.mpc("0.0012", "0.0006")
C0 = mp.mpc(0, 1000)
WAVENUMBERS = (0.5, 3.0, 10.0)
#: (u1, u2): alpha1 = k u1 above the contour, alpha2 = k u2 on either side
POINTS = [(0.3 + 0.2j, 0.4 + 0.3j), (0.5 + 0.1j, -0.2 + 0.4j),
          (0.6, 0.1 + 0.6j), (0.1 + 0.5j, 0.7 + 0.2j),
          (0.2 + 0.3j, -0.4 - 0.2j), (-0.3 + 0.6j, 0.1 - 0.3j),
          (0.45 + 0.05j, -0.6 - 0.1j), (0.15 + 0.4j, 0.3 - 0.5j)]
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "kpp_scale_table.json")
_ROT = mp.expjpi(mp.mpf(1) / 4)


def sqrt_down(z):
    return _ROT * mp.sqrt(-1j * z)


def diag_log(z):
    return mp.log(z / _ROT) + 1j * mp.pi / 4


def kappa(kk, z):
    return sqrt_down(kk - z) * sqrt_down(kk + z)


class Contour:
    """The similarity-scaled inversion contour at wavenumber k."""

    def __init__(self, k):
        self.k = mp.mpf(k)
        self.a = A0 * (3 / self.k) ** 4
        self.c = C0 * (self.k / 3) ** 4

    def point(self, s):
        return s + s / (self.a * (s ** 4 + self.c))

    def slope(self, s):
        return 1 + (self.c - 3 * s ** 4) / (self.a * (s ** 4 + self.c) ** 2)

    def projection(self, x):
        """The parameter s with Re A(s) = x, by bisection."""
        lo, hi = x - 20 * self.k, x + 20 * self.k
        for _ in range(100):
            mid = (lo + hi) / 2
            if self.point(mid).real < x:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def gap(self, z):
        """Im z minus Im A at the same real part (positive above)."""
        return z.imag - self.point(self.projection(z.real)).imag


def log_integral(contour, alpha1, alpha2):
    """int diag_log(1 + alpha1 / kappa(k, z)) / (z - alpha2) dz along A."""
    kk = contour.k

    def f(s):
        z = contour.point(s)
        return diag_log(1 + alpha1 / kappa(kk, z)) / (z - alpha2) * contour.slope(s)

    scale = kk / 3
    breaks = [b * scale for b in (-40, -12, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 12, 40)]
    pts = sorted(breaks + [contour.projection(alpha2.real)])
    return mp.quad(f, [-mp.inf] + pts + [mp.inf])


def k_pp(k, alpha1, alpha2):
    """K_pp at one point; the side of alpha2 picks the representation."""
    contour = Contour(k)
    kk = contour.k
    integral = log_integral(contour, alpha1, alpha2)
    if contour.gap(alpha2) > 0:
        return mp.exp(-integral / (4j * mp.pi)) / sqrt_down(sqrt_down(kk + alpha2))
    k_pm = mp.exp(integral / (4j * mp.pi)) / sqrt_down(sqrt_down(kk - alpha2))
    return 1 / sqrt_down(kappa(kk, alpha2) + alpha1) / k_pm


def regenerate() -> None:
    rows = []
    for k in WAVENUMBERS:
        contour = Contour(k)
        for u1, u2 in POINTS:
            alpha1, alpha2 = k * u1, k * u2
            a1, a2 = mp.mpc(alpha1), mp.mpc(alpha2)
            gaps = [float(contour.gap(a)) / k for a in (a1, a2)]
            if gaps[0] <= 0:
                raise SystemExit(f"alpha1 = {alpha1} is not above the contour")
            value = complex(k_pp(k, a1, a2))
            rows.append({"k": k, "alpha1": [alpha1.real, alpha1.imag],
                         "alpha2": [alpha2.real, alpha2.imag],
                         "gap_over_k": gaps, "k_pp": [value.real, value.imag]})
            print(json.dumps(rows[-1]))
    lines = ["{", ' "about": ' + json.dumps(
        "K_pp(alpha1, alpha2) at k = 0.5, 3 and 10 from tests/kpp_scale_oracle.py "
        "(mpmath, 20 digits, nothing imported from qpdiff); regenerate with "
        "python3 tests/kpp_scale_oracle.py") + ",", ' "rows": [']
    lines += ["  " + json.dumps(row) + "," for row in rows]
    lines[-1] = lines[-1][:-1]
    lines += [" ]", "}"]
    with open(TABLE, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {TABLE} ({len(rows)} points)")


if __name__ == "__main__":
    regenerate()
