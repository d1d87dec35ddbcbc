"""Indented inversion contours and their diagnostics.

The inversion contours in both spectral planes are realised by the
rational parametrisation ``A(s) = s + s / (a (s^4 + c))`` with complex
shape constants ``a`` and ``c``.  With the reference constants
(``k = 3``, ``a = 0.0012 + 0.0006j``, ``c = 1000j``) the contour passes
through the origin, above ``-k`` and below ``+k``, and returns to the
real axis like ``1/(a s^3)``.

Because no scaling rule for ``(a, c)`` comes with the method, constants
for other wavenumbers are derived by exact geometric similarity
(``a -> a (k0/k)^4``, ``c -> c (k/k0)^4``) or supplied by the user, and
either way are gated at startup by the two quantitative diagnostics
below: the sign-compatibility scan (``Im(1/K) >= 0`` on the contour
product) and the branch-loci clearance (the contour keeps a positive
distance from the curves ``+-kappa(k, A(s))``).

The same similarity makes k a unit: every entry point maps a problem at
k onto ``K_REF`` and back (``to_reference``); the engine runs at ``K_REF``.

Every geometric question about a point -- its projection parameter,
which side of the contour it lies on, how far away it is -- is answered
by one safeguarded Newton solve of ``Re A(s) = Re z``
(``contour_projection``), for a single point or an array of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, DomainError, NonFiniteInputError
from .specfun import _kappa_raw

K_REF = 3.0
A_REF = 0.0012 + 0.0006j
C_REF = 1000j


@dataclass(frozen=True)
class ContourSpec:
    """Shape constants of one inversion contour.

    The same constants serve both spectral planes.  The integrals along
    it run over the whole parameter line; ``quadrature`` maps each tail
    onto a finite interval.
    """

    a: complex
    c: complex

    def __post_init__(self):
        if self.a == 0:
            raise ContourError("contour constant a must be nonzero")


@dataclass(frozen=True)
class ShiftedContour:
    """A contour translated off the base by ``1j * offset`` (positive = above)."""

    base: ContourSpec
    offset: float

    def __post_init__(self):
        if self.offset == 0:
            raise DomainError("shifted contour requires a nonzero offset")

    def point(self, s):
        return contour_point(self.base, s) + 1j * self.offset


def _point_and_derivative(spec: ContourSpec, s, derivative: bool = True):
    """``A(s)`` and ``A'(s)`` (None unless ``derivative``) at a finite float array
    ``s``; ``s^4`` (the complex power's value) and ``s^4 + c`` are formed once.
    Factors of a product with a complex constant are named: from a 256 KiB
    temporary up, numpy computes ``a * tmp`` in place as ``tmp * a``, rounding differently."""
    s4 = np.square(s * s)
    q = s4 + spec.c
    aq = spec.a * q
    if np.count_nonzero(aq) < aq.size:
        raise ContourError("degenerate contour constants: a (s^4 + c) = 0")
    if not derivative:
        return s + s / aq, None
    q2 = q ** 2
    return s + s / aq, 1.0 + (spec.c - 3.0 * s4) / (spec.a * q2)


def contour_point(spec: ContourSpec, s):
    """Contour point ``A(s) = s + s / (a (s^4 + c))``."""
    return _at(spec, s, 0)


def contour_derivative(spec: ContourSpec, s):
    """Closed-form ``dA/ds = 1 + (c - 3 s^4) / (a (s^4 + c)^2)``."""
    return _at(spec, s, 1)


def _at(spec: ContourSpec, s, which: int):
    """Entry ``which`` of ``_point_and_derivative``; a scalar is a batch of one."""
    s = np.asarray(s, dtype=np.float64)
    if not np.isfinite(s).all():
        raise NonFiniteInputError("contour parameter contains NaN/Inf")
    # 1-D: numpy's scalar arithmetic rounds unlike its array loop
    out = _point_and_derivative(spec, s.reshape(-1), which == 1)[which]
    return complex(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def scaled_constants(k: float):
    """Shape constants for wavenumber ``k`` by geometric similarity.

    ``A_k(s) = (k/K_REF) A_ref(s K_REF / k)`` maps the reference contour
    onto one whose indentation sits at ``-+k`` instead of ``-+K_REF``.
    """
    if not 0 < k < np.inf:  # NaN fails the chained test too
        raise DomainError("wavenumber must be finite and positive")
    ratio = K_REF / k
    return A_REF * ratio ** 4, C_REF / ratio ** 4


def default_contour(k: float = K_REF) -> ContourSpec:
    """Reference contour for ``k = 3``; exact similarity scaling otherwise."""
    a, c = scaled_constants(k)
    return ContourSpec(a=a, c=c)


@functools.lru_cache(maxsize=64)
def to_reference(k: float, spec: ContourSpec):
    """The problem at wavenumber ``k`` on ``spec``, at ``K_REF``: the factor
    ``K_REF / k`` of spectral variables, the factor ``(k/K_REF)^(-1/4)`` of
    a quarter factor going back (the kernel is homogeneous), and the similar
    contour ``(a (k/K_REF)^4, c (K_REF/k)^4)``, part by part, or the default
    for the default at k.  At ``k = K_REF`` no bit changes.  Cached: a call
    costs a lookup, and the memos see the same contour object."""
    grow = (k / K_REF) ** 4
    # default_contour(k) rejects a k that is not finite and positive
    ref = default_contour() if spec == default_contour(k) else ContourSpec(
        a=complex(spec.a.real * grow, spec.a.imag * grow),
        c=complex(spec.c.real / grow, spec.c.imag / grow))
    return K_REF / k, (k / K_REF) ** -0.25, ref


def rescaled(z, factor: float):
    """Complex ``z`` times a real ``factor``, part by part, flat: at 1 every
    bit stays, a zero's sign too (complex products add ``x * 0``).  At 1
    no product is taken: the result may be a view of ``z``, which no
    caller writes through."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    return z if factor == 1.0 else (z.view(np.float64) * factor).view(np.complex128)


# --------------------------------------------------------------------------
# geometry helpers: projection, side classification
# --------------------------------------------------------------------------

#: |gap| at or below which a point counts as on the contour
SIDE_TOL = 1e-12

_SIDE_NAME = {1: "above", 0: "on", -1: "below"}

_NEWTON_MAXIT = 100

#: targets solved together; bounds the iteration's temporaries
_BLOCK = 4096

#: the parameter samples of every contour's geometry: one shared,
#: read-only array
_GEOMETRY_S = np.linspace(-60.0, 60.0, 10001)
_GEOMETRY_S.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _geometry(spec: ContourSpec):
    """Cached monotonicity check, bump bound and samples for a contour.

    Verifies once per constants that Re A(s) is strictly increasing
    (sampled at 10^4 points; required by side classification), records
    max |A(s) - s| for projection bracketing, and keeps the samples
    ``(s, Re A(s))`` that seed the projection's Newton iteration; ``s`` is
    ``_GEOMETRY_S``, shared by every contour.  Keeps the last 64 contours
    (78 KiB each); a ``ContourError`` is not kept.
    """
    s = _GEOMETRY_S
    pts = contour_point(spec, s)
    re = pts.real
    if np.any(np.diff(re) <= 0):
        raise ContourError(
            "Re A(s) is not strictly increasing; side classification "
            "is undefined for these constants"
        )
    bump = float(np.max(np.abs(pts - s)))
    # a copy: a view of Re A(s) would keep the complex samples alive
    return {"bump": bump, "s": s, "re": re.copy()}


def _solve_projection(spec: ContourSpec, x):
    """Safeguarded Newton solve of ``Re A(s) = x`` for a 1-D array ``x``.

    The sign bracket ``(lo, hi)``, with ``Re A(lo) < x < Re A(hi)``, starts
    at ``x -+ (bump + 1)`` and is widened by doubling; the seed is the
    sampled inverse, clipped to it.  The bracket's ends and the seed are
    one ``_point_and_derivative`` call, which is also the first Newton
    evaluation.  Newton steps use the closed-form ``Re A'(s)``; a step
    that leaves the bracket, meets a nonpositive slope, or fails to halve
    the previous step is replaced by bisection (as in Numerical Recipes'
    ``rtsafe``).  Only unconverged entries are iterated.  Returns ``s``
    and ``A(s)`` (to first order in the last step, which is below the
    tolerance ``1e-14 (1 + |x|)``).
    """
    geo = _geometry(spec)
    n, pad = x.size, geo["bump"] + 1.0
    inside = (x > geo["re"][0]) & (x < geo["re"][-1])
    seed = np.where(inside, np.interp(x, geo["re"], geo["s"]), x)
    for _ in range(8):
        lo, hi = x - pad, x + pad
        s = np.minimum(np.maximum(seed, lo), hi)  # np.clip, without its wrapper
        p, d = _point_and_derivative(spec, np.concatenate([lo, hi, s]))
        f = p.real
        ok = (f[:n] < x) & (x < f[n:2 * n])
        if np.count_nonzero(ok) == n:
            break
        pad = np.where(ok, pad, 2.0 * pad)
    else:
        raise ContourError("projection bracket not found; invalid contour")
    p, d = p[2 * n:], d[2 * n:]
    tol = 1e-14 * (1.0 + np.abs(x))
    size = np.abs(hi - lo)  # |last step|, the bracket's width at first
    idx = np.arange(n)
    s_out = np.empty(n)
    pts = np.empty(n, dtype=np.complex128)
    for _ in range(_NEWTON_MAXIT):
        f = p.real - x
        below = f < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        slope = d.real
        step = f / slope
        new = s - step
        bisect = ((new < lo) | (new > hi) | ~(slope > 0.0)
                  | (np.abs(step) > 0.5 * size))
        if np.count_nonzero(bisect):
            new = np.where(bisect, 0.5 * (lo + hi), new)
        last = new - s
        size = np.abs(last)
        done = size < tol
        if ended := np.count_nonzero(done):
            fin = idx[done]
            s_out[fin] = new[done]
            pts[fin] = (p + d * last)[done]
            if ended == idx.size:
                return s_out, pts
            keep = ~done
            new, x, lo, hi, size, tol, idx = (
                v[keep] for v in (new, x, lo, hi, size, tol, idx))
        s = new
        p, d = _point_and_derivative(spec, s)
    raise ContourError("contour projection did not converge; invalid contour")


def contour_projection(spec: ContourSpec, z):
    """Projection ``s*`` and signed gap of ``z``, for a scalar or an array.

    ``s*`` solves ``Re A(s*) = Re z`` once per distinct ``Re z`` (bit for
    bit) by the safeguarded Newton iteration of ``_solve_projection`` on
    the contour's cached sign bracket; the gap ``Im z - Im A(s*)`` is
    positive above the contour and is what every side and distance test
    reads.  Returns ``(s*, gap)``, floats for a scalar ``z`` and arrays of
    its shape otherwise.

    Raises
    ------
    NonFiniteInputError
        If ``z`` contains NaN/Inf.
    ContourError
        If the constants are degenerate or not Re-monotone, no bracket
        is found, or the iteration does not converge.
    """
    z = np.asarray(z)
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise NonFiniteInputError("projected point contains NaN/Inf")
    bits, back = np.unique(z.real.astype(np.float64).view(np.int64).ravel(),
                           return_inverse=True)
    x = bits.view(np.float64)
    s, pts = np.empty(x.size), np.empty(x.size, dtype=np.complex128)
    for i in range(0, x.size, _BLOCK):
        s[i:i + _BLOCK], pts[i:i + _BLOCK] = _solve_projection(spec, x[i:i + _BLOCK])
    s, pts = s[back], pts[back]
    if z.ndim == 0:
        return float(s[0]), float(z.imag - pts[0].imag)
    return s.reshape(z.shape), z.imag - pts.imag.reshape(z.shape)


def gap_side(gap):
    """Side sign of a signed gap: +1 above, 0 on (``|gap| <= SIDE_TOL``), -1 below."""
    side = np.greater(gap, SIDE_TOL).astype(np.int8) - np.less(gap, -SIDE_TOL)
    return int(side) if np.ndim(side) == 0 else side


def side_sign(spec: ContourSpec, z):
    """The side classifier: +1 above, 0 on, -1 below, for a scalar or an array."""
    return gap_side(contour_projection(spec, z)[1])


def classify_side(spec: ContourSpec, z: complex) -> str:
    """Which side of the contour ``z`` lies on: ``"above"``, ``"on"`` or ``"below"``."""
    return _SIDE_NAME[side_sign(spec, complex(z))]


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SignScanReport:
    """Result of the sign-compatibility scan over a parameter grid."""

    min_value: float
    s1_at_min: float
    s2_at_min: float
    n: int
    s_range: float

    @property
    def ok(self) -> bool:
        return self.min_value >= -1e-10


def sign_compatibility_scan(spec1: ContourSpec, spec2: ContourSpec, k: float,
                            n: int, s_range: float = 10.0) -> SignScanReport:
    """Scan ``Im(1/K(A1(s1), A2(s2)))`` on an n-by-n parameter grid.

    A valid contour pair keeps this quantity nonnegative, vanishing only
    at the origin of both planes; a negative minimum flags constants
    that are unusable for the factorisation.
    """
    if n < 2:
        raise DomainError("scan grid needs n >= 2")
    s = np.linspace(-s_range, s_range, n)
    a1 = contour_point(spec1, s)
    a2 = contour_point(spec2, s)
    inner = _kappa_raw(np.complex128(k), a2)  # kappa(k, A2(s2)), shape (n,)
    vals = _kappa_raw(inner[None, :], a1[:, None]).imag  # Im 1/K on the grid
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    return SignScanReport(
        min_value=float(vals[idx]),
        s1_at_min=float(s[idx[0]]),
        s2_at_min=float(s[idx[1]]),
        n=n,
        s_range=s_range,
    )


def branch_loci(spec: ContourSpec, k: float, n: int, s_range: float = 30.0):
    """The loci ``+-kappa(k, A(s))`` sampled at ``n`` parameters.

    These curves are the branch-point trajectories the *other* plane's
    contour must avoid; returned as a flat array of ``2 n`` points for
    overlays and clearance measurements.
    """
    s = np.linspace(-s_range, s_range, n)
    kap = _kappa_raw(np.complex128(k), contour_point(spec, s))
    return np.concatenate([kap, -kap])


def loci_clearance(spec: ContourSpec, loci_spec: ContourSpec, k: float,
                   n: int = 1500, s_range: float = 30.0) -> float:
    """Minimum distance from contour samples to the branch loci set.

    This is the quantitative form of the visual validity argument: the
    factorisation integrals are safe as long as the margin is positive.
    Both sample sets are cut into blocks of 100, and block pairs are
    visited in order of their bounding boxes' distance ``hypot(dx, dy)``;
    a pair is computed only while that bound is at most the best distance
    so far.  This is the dense minimum bit for bit: float subtraction is
    monotone, so ``dx`` and ``dy`` never exceed a computed ``|Re(p - l)|``
    and ``|Im(p - l)|`` within the pair, ``hypot`` (which ``abs`` uses) is
    monotone, and the same elementwise ``abs(p - l)`` values are compared.
    """
    s = np.linspace(-s_range, s_range, n)
    pts = contour_point(spec, s)
    loci = branch_loci(loci_spec, k, n, s_range)
    # [lo, hi] per block of 100: Re pts, Im pts, Re loci, Im loci
    box = [[f.reduceat(x, np.arange(0, x.size, 100)) for f in (np.minimum, np.maximum)]
           for z in (pts, loci) for x in (z.real, z.imag)]
    bound = np.hypot(*(np.maximum(np.maximum(lo - p_hi[:, None], p_lo[:, None] - hi), 0)
                       for (p_lo, p_hi), (lo, hi) in zip(box[:2], box[2:])))
    best = np.inf
    order = np.unravel_index(np.argsort(bound, axis=None), bound.shape)
    for i, j in zip(*order):
        if bound[i, j] > best:
            break
        best = min(best, np.abs(pts[100 * i:100 * i + 100, None]
                                - loci[100 * j:100 * j + 100]).min())
    return float(best)


@dataclass(frozen=True)
class ContourReport:
    """Validation summary produced by ``validate_contour``."""

    passes_origin: bool
    asymptotic_rel_error: float
    monotone: bool
    indentation_ok: bool
    scan: SignScanReport
    clearance: float

    @property
    def ok(self) -> bool:
        return (self.passes_origin and self.asymptotic_rel_error < 1e-6
                and self.monotone and self.indentation_ok
                and self.scan.ok and self.clearance > 0.0)


def validate_contour(spec: ContourSpec, k: float,
                     raise_on_failure: bool = False) -> ContourReport:
    """Run the acceptance diagnostics for a contour at wavenumber ``k``.

    The figures are the similar ``K_REF`` contour's (``to_reference``).
    Checks, in order: A(0) = 0; the relative asymptote |A(s)/s - 1| at
    s = +-10^3; Re-monotonicity (sampled, not proven); indentation above
    -K_REF / below +K_REF; the 120-by-120 sign-compatibility scan; the loci
    clearance.  A wavenumber that is not finite and positive is a ``DomainError``.
    """
    spec = to_reference(k, spec)[2]
    passes_origin = contour_point(spec, 0.0) == 0.0
    rel = max(abs(contour_point(spec, s) - s) / 1e3 for s in (-1e3, 1e3))
    try:
        _geometry(spec)
        monotone = True
    except ContourError:
        monotone = False
    indentation_ok = False
    if monotone:
        # the contour passes above -K_REF and below +K_REF
        gaps = contour_projection(spec, np.array([-K_REF, K_REF]))[1]
        indentation_ok = gaps[0] < 0.0 < gaps[1]
    scan = sign_compatibility_scan(spec, spec, K_REF, 120)
    clearance = loci_clearance(spec, spec, K_REF) if monotone else 0.0
    report = ContourReport(
        passes_origin=bool(passes_origin),
        asymptotic_rel_error=float(rel),
        monotone=monotone,
        indentation_ok=bool(indentation_ok),
        scan=scan,
        clearance=clearance,
    )
    if raise_on_failure and not report.ok:
        raise ContourError(f"contour failed validation: {report}")
    return report


def default_shift(distance: float) -> float:
    """Shift magnitude for the Cauchy contours serving a given target.

    Takes the smaller of 0.05 K_REF (strip safety) and a ninth of the
    target's ``distance`` to the base contour (the absolute gap that
    ``contour_projection`` returns), so that the target stays at least
    ten shifts away from the shifted contour; clamped below at 1e-3.
    """
    return np.maximum(1e-3, np.minimum(0.05 * K_REF, np.divide(distance, 9.0)))
