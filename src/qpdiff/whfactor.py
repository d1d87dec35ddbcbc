"""Cauchy-integral machinery and the four quarter-plane kernel factors.

The kernel splits multiplicatively across both spectral planes,

    K = K_pp * K_pm * K_mp * K_mm,

with each *quarter factor* analytic on a product of half-planes fixed by
its label (first character: alpha1 side, second: alpha2 side; ``p`` for
above the contour, ``m`` for below).  Each factor is an exponentiated
Cauchy integral along a shifted inversion contour,

    K_s1,s2(a1, a2) = fourth_root_down(k +- a2)^-1
        * exp( -+1/(4 i pi) * int diag_log(1 +- a1/kappa(k, z)) / (z - a2) dz ),

where the sign inside the log is the alpha1 subscript, and the alpha2
subscript selects the shifted contour (below for ``p``, above for
``m``), the prefactor argument (``k + a2`` vs ``k - a2``) and the
exponent sign.  The diagonally-cut logarithm and the strict
double-``sqrt_down`` prefactor are what keep the integrand cut-free
along the contour; both choices are checked at run time rather than
assumed.

The pieces of this formula are private helpers here, shared by the
scalar ``quarter_factor`` and the many-target ``grid_eval``.  One routine,
``_cauchy_integral``, computes every Cauchy integral: the quarter factors
and the sum-split of a function analytic on a strip around the contour
(``cauchy_split``; ``cauchy_factorize`` is ``exp`` of the split of
``log g``).  ``continue_factor`` extends each quarter factor past its
natural domain by dividing the explicit half-plane factors by the
complementary quarter factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .contour import (ContourSpec, ShiftedContour, contour_point,
                      contour_projection, default_shift, gap_side, side_sign)
from .errors import (BranchCrossingError, ContinuationError, DomainError,
                     NonFiniteInputError, WindingError)
from .quadrature import QuadratureConfig, integrate_over_shifted
from .specfun import _kappa_raw, diag_log, fourth_root_down, half_factor

_ROT_BACK = np.exp(-0.25j * np.pi)  # undoes the diag_log cut rotation


@dataclass(frozen=True)
class FactorLabel:
    """One of the four quarter factors and its analyticity bookkeeping."""

    tag: str  # 'pp', 'pm', 'mp', 'mm'

    def __post_init__(self):
        if self.tag not in ("pp", "pm", "mp", "mm"):
            raise DomainError(f"unknown factor tag {self.tag!r}")

    @property
    def sign1(self) -> int:
        """Sign of alpha1 inside the log (+1 for 'p?', -1 for 'm?')."""
        return +1 if self.tag[0] == "p" else -1

    @property
    def side2(self) -> int:
        """Natural alpha2 half-plane (+1 above the contour, -1 below)."""
        return +1 if self.tag[1] == "p" else -1

    @property
    def side1(self) -> int:
        """Natural alpha1 half-plane."""
        return self.sign1

    def flip1(self) -> "FactorLabel":
        return FactorLabel(("m" if self.tag[0] == "p" else "p") + self.tag[1])

    def flip2(self) -> "FactorLabel":
        return FactorLabel(self.tag[0] + ("m" if self.tag[1] == "p" else "p"))


PP = FactorLabel("pp")
PM = FactorLabel("pm")
MP = FactorLabel("mp")
MM = FactorLabel("mm")
ALL_LABELS = (PP, PM, MP, MM)

_HALF_CH = {"p": "+", "m": "-"}


def _side_ok(side: int, required: int) -> bool:
    """A side sign (+1 above, 0 on, -1 below) inside a required half-plane."""
    return side == 0 or side == required


def _shifted_for(contour: ContourSpec, side2: int, eps: float) -> ShiftedContour:
    """The integration contour serving an alpha2 half-plane: opposite shift."""
    return ShiftedContour(contour, -eps if side2 > 0 else +eps)


# --------------------------------------------------------------------------
# generic sum-split and factorisation (strip functions)
# --------------------------------------------------------------------------

def _split_guard(contour: ShiftedContour, target: complex) -> float:
    """Reject targets the Cauchy kernel cannot survive.

    The sum-split formulae put targets on the base contour, one shift
    away from the integration path, which adaptive refinement resolves
    comfortably; what destroys accuracy is a target hugging the shifted
    contour itself.  Hence the guard triggers on separations below half
    a shift, asking the caller for a different eps.  Returns the
    target's projection onto the base contour, for the panel breaks.
    """
    s_star, base_gap = contour_projection(contour.base, target)
    gap = abs(base_gap - contour.offset)
    if gap < 0.5 * abs(contour.offset):
        raise DomainError(
            f"target is within half a shift of the shifted contour "
            f"(gap {gap:.3e}, eps {abs(contour.offset):.3e}); "
            "request a different eps"
        )
    return s_star


def _cauchy_integral(density, target, s_star, shifted: ShiftedContour,
                     cfg: QuadratureConfig, scale: float, extra_breaks=()):
    """``int density(z) / (z - target) dz`` along ``shifted``.

    Panel edges cluster around ``s_star``, the target's projection
    parameter on the base contour, at multiples of the shift;
    ``extra_breaks`` adds further edges.
    """
    def integrand(z):
        return density(z) / (z - target)

    widths = abs(shifted.offset) * np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    breaks = np.concatenate([[s_star], s_star + widths, s_star - widths,
                             extra_breaks])
    return integrate_over_shifted(integrand, shifted, cfg, scale,
                                  inner_breaks=breaks).value


def cauchy_split(f, target, side: str, contour: ShiftedContour,
                 cfg: QuadratureConfig, scale: float = 3.0) -> complex:
    """One half of the additive split of a strip-analytic function.

    ``side="plus"`` returns the part analytic above the base contour,
    computed as ``1/(2 i pi) int f(z)/(z - target) dz`` along the
    below-shifted copy; ``side="minus"`` the part analytic below, with
    the opposite sign along the above-shifted copy.  ``f`` must decay
    like ``|z|^-lambda`` (lambda > 0) on the strip.
    """
    target = complex(target)
    if not np.isfinite(target):
        raise NonFiniteInputError("target contains NaN/Inf")
    if side == "plus":
        if contour.offset >= 0:
            raise DomainError("plus part integrates over the below-shifted contour")
        coef = 1.0 / (2j * np.pi)
    elif side == "minus":
        if contour.offset <= 0:
            raise DomainError("minus part integrates over the above-shifted contour")
        coef = -1.0 / (2j * np.pi)
    else:
        raise DomainError("side must be 'plus' or 'minus'")
    s_star = _split_guard(contour, target)
    return coef * _cauchy_integral(
        lambda z: np.asarray(f(z), dtype=np.complex128), target, s_star,
        contour, cfg, scale)


def cauchy_factorize(g, target, side: str, contour: ShiftedContour,
                     cfg: QuadratureConfig, scale: float = 3.0) -> complex:
    """One factor of the multiplicative split of a strip function.

    The factor is ``exp`` of the ``cauchy_split`` part of ``log g``.
    Requires ``g -> 1`` at the strip ends and ``g`` nonvanishing with
    single-valued log along the contour; the winding number of ``g`` is
    measured on the quadrature samples and a nonzero value raises
    ``WindingError`` rather than returning a wrong branch.
    """
    samples = []

    def log_g(z):
        gz = np.asarray(g(z), dtype=np.complex128)
        if np.any(gz == 0):
            raise DomainError("g vanishes on the contour; cannot factorise")
        samples.append((np.asarray(z).real.copy(), gz.copy()))
        return np.log(gz)

    value = np.exp(cauchy_split(log_g, target, side, contour, cfg, scale))

    re, gz = (np.concatenate(part) for part in zip(*samples))
    order = np.argsort(re)
    unwrapped = np.unwrap(np.angle(gz[order]))
    winding = (unwrapped[-1] - unwrapped[0]) / (2.0 * np.pi)
    if abs(winding) > 0.5:
        raise WindingError(
            f"log g is not single-valued along the contour "
            f"(winding number {winding:+.2f})"
        )
    return value


# --------------------------------------------------------------------------
# quarter factors
# --------------------------------------------------------------------------

def _log_density(label: FactorLabel, a1: complex, k: float, z):
    """The log argument ``w = 1 +- a1/kappa(k, z)`` and ``diag_log(w)``.

    Raises ``BranchCrossingError`` where ``w`` vanishes: the factor's
    integral does not exist there.
    """
    w = 1.0 + label.sign1 * a1 / _kappa_raw(np.complex128(k), z)
    if np.any(np.abs(w) < 1e-12):
        raise BranchCrossingError(
            "log argument vanished on the integration contour"
        )
    return w, diag_log(w)


def _check_log_track(rotated_samples):
    """Detect a crossing of the diagonal log cut along the contour.

    ``rotated_samples`` are ``exp(-i pi/4) * w`` ordered by contour
    parameter; the cut of ``diag_log`` maps to the negative real axis,
    so a sign change of the imaginary part while the real part is
    negative marks a crossing.
    """
    im = rotated_samples.imag
    re = rotated_samples.real
    crossed = (im[:-1] * im[1:] < 0.0) & ((re[:-1] < 0.0) | (re[1:] < 0.0))
    if np.any(crossed):
        raise BranchCrossingError(
            "the log argument crossed its diagonal branch cut along the "
            "contour; the point is outside this factor's reachable domain"
        )


def _quarter_value(label: FactorLabel, a1: complex, a2, k: float, integral):
    """``exp(coef I) / fourth_root_down(k +- a2)``, scalar or array ``a2``.

    ``integral()`` returns ``I``, the Cauchy integral of the log
    density; it is not called when ``a1 = 0``, where the log argument is
    identically 1 and the integral vanishes exactly.
    """
    pref = fourth_root_down(k + a2 if label.side2 > 0 else k - a2)
    if a1 == 0:
        return 1.0 / pref
    coef = -1.0 / (4j * np.pi) if label.side2 > 0 else 1.0 / (4j * np.pi)
    return np.exp(coef * integral()) / pref


def quarter_factor(label: FactorLabel, alpha1, alpha2, k: float,
                   contour: ContourSpec, cfg: QuadratureConfig,
                   eps: float | None = None,
                   enforce_domain: bool = True) -> complex:
    """One quarter factor by its own integral representation.

    Valid for points in the label's natural domain (boundary included);
    callers needing other points go through ``continue_factor``.  The
    shift ``eps`` defaults to the guarded rule in
    ``contour.default_shift`` and is reduced automatically for targets
    close to the contour.  Alpha2 is projected onto the contour once;
    its gap feeds the domain check and the shift, its parameter the
    panel breaks.  Callers that have already placed both variables (as
    ``continue_factor`` has) turn ``enforce_domain`` off.

    Raises
    ------
    DomainError
        If the point is outside the label's natural domain.
    BranchCrossingError
        If the log argument vanishes on, or crosses its cut along, the
        integration contour (the factorisation does not reach there).
    """
    a1 = complex(alpha1)
    a2 = complex(alpha2)
    if not (np.isfinite(a1) and np.isfinite(a2)):
        raise NonFiniteInputError("spectral point contains NaN/Inf")
    s2, gap2 = contour_projection(contour, a2)
    if enforce_domain:
        gap1 = contour_projection(contour, a1)[1]
        for name, gap, required in (("alpha1", gap1, label.side1),
                                    ("alpha2", gap2, label.side2)):
            if not _side_ok(gap_side(gap), required):
                raise DomainError(
                    f"{name} outside the natural domain of K_{label.tag}; "
                    "use continue_factor"
                )

    samples = []

    def density(z):
        w, log_w = _log_density(label, a1, k, z)
        samples.append((z.real, w))
        return log_w

    def integral():
        shift = default_shift(k, abs(gap2)) if eps is None else eps
        hump = ()
        if abs(a1) > 4.0 * k:
            # the log term stays O(log) out to |z| ~ |alpha1|
            hump = abs(a1) * np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        value = _cauchy_integral(density, a2, s2,
                                 _shifted_for(contour, label.side2, shift),
                                 cfg, k, hump)
        re, ws = (np.concatenate(part) for part in zip(*samples))
        _check_log_track((_ROT_BACK * ws)[np.argsort(re)])
        return value

    return _quarter_value(label, a1, a2, k, integral)


@functools.lru_cache(maxsize=64)
def continuation_constant(label: FactorLabel, k: float, contour: ContourSpec,
                          cfg: QuadratureConfig) -> complex:
    """Branch constant of the alpha1-plane continuation, measured once.

    The swapped half-plane factors give ``K_label = C * K_o? / K_comp``
    with ``comp`` the alpha1-flipped label; no closed form fixes ``C``,
    so it is measured on an overlap set (alpha1 on the contour, alpha2
    strictly inside the natural half-plane), checked to be constant and
    unimodular, and then applied uniformly.

    Raises
    ------
    ContinuationError
        If the measured ratios are not constant or not unimodular.
    """
    comp = label.flip1()
    tag2 = label.tag[1]
    ratios = []
    for s1 in (-5.0, -1.5, 1.5, 5.0):
        a1 = contour_point(contour, s1)
        for s2 in (-2.2, 0.0, 3.0):
            # in both labels' domains by construction: alpha1 on the
            # contour, alpha2 0.8 k/3 inside its half-plane
            a2 = contour_point(contour, s2) + 1j * label.side2 * 0.8 * k / 3.0
            direct = quarter_factor(label, a1, a2, k, contour, cfg,
                                    enforce_domain=False)
            comp_val = quarter_factor(comp, a1, a2, k, contour, cfg,
                                      enforce_domain=False)
            swapped = half_factor("o" + _HALF_CH[tag2], a1, a2, k)
            ratios.append(direct * comp_val / swapped)
    ratios = np.array(ratios)
    c = ratios.mean()
    if np.max(np.abs(ratios - c)) > 2e-4 or abs(abs(c) - 1.0) > 2e-4:
        raise ContinuationError(
            f"alpha1 continuation of K_{label.tag} failed its branch "
            f"consistency check: ratios {ratios}"
        )
    return complex(c)


def _alpha2_div(label: FactorLabel, a1, a2, k: float, flipped):
    """``K_label`` across its alpha2 half-plane boundary.

    The explicit alpha1-plane half-factor divided by the alpha2-flipped
    quarter factor, whose integral is valid there; ``flipped(comp)``
    evaluates that factor for the label ``comp``.
    """
    own_half = half_factor(_HALF_CH[label.tag[0]] + "o", a1, a2, k)
    return own_half / flipped(label.flip2())


def continue_factor(label: FactorLabel, alpha1, alpha2, k: float,
                    contour: ContourSpec, cfg: QuadratureConfig,
                    with_route: bool = False):
    """A quarter factor anywhere off the explicit half-factor cuts.

    Dispatches on which side of the contour each variable falls:

    * natural domain: the factor's own integral;
    * alpha2 on the wrong side: divide the explicit alpha1-plane
      half-factor by the complementary (alpha2-flipped) quarter factor,
      whose integral is valid there;
    * alpha1 on the wrong side: divide the swapped half-plane factor by
      the alpha1-flipped quarter factor, times the session branch
      constant;
    * both wrong: compose the two continuations.

    Each variable is classified once per call; the factor integrals
    below skip their own domain check.

    Returns the complex value, or ``(value, route)`` when
    ``with_route`` is set.
    """
    a1 = complex(alpha1)
    a2 = complex(alpha2)
    sides = (side_sign(contour, a1), side_sign(contour, a2))
    value, route = _continued(label, a1, a2, sides, k, contour, cfg)
    return (value, route) if with_route else value


def _continued(label: FactorLabel, a1: complex, a2: complex, sides,
               k: float, contour: ContourSpec, cfg: QuadratureConfig):
    """``continue_factor`` for variables whose side signs are ``sides``."""
    ok1 = _side_ok(sides[0], label.side1)
    ok2 = _side_ok(sides[1], label.side2)
    if ok1 and ok2:
        value = quarter_factor(label, a1, a2, k, contour, cfg,
                               enforce_domain=False)
        route = "direct"
    elif ok1:
        value = _alpha2_div(
            label, a1, a2, k,
            lambda comp: quarter_factor(comp, a1, a2, k, contour, cfg,
                                        enforce_domain=False))
        route = "alpha2-div"
    else:
        cst = continuation_constant(label, k, contour, cfg)
        swapped = half_factor("o" + _HALF_CH[label.tag[1]], a1, a2, k)
        if ok2:
            comp = quarter_factor(label.flip1(), a1, a2, k, contour, cfg,
                                  enforce_domain=False)
            value, route = cst * swapped / comp, "alpha1-div"
        else:
            comp = _continued(label.flip1(), a1, a2, sides, k, contour,
                              cfg)[0]
            value, route = cst * swapped / comp, "alpha1+alpha2"
    return value, route
