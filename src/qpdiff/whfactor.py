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

``quarter_factor`` and ``continue_factor`` map a point, contour and
value at wavenumber k onto ``K_REF`` and back (``contour.to_reference``);
everything below them runs at ``K_REF``, so one memo entry serves every k.

The pieces of this formula are private helpers here, shared by the
adaptive ``quarter_factor`` and the many-target ``grid_eval``.  One
routine, ``quadrature.integrate_over_shifted``, computes every Cauchy
integral: the quarter factors and the sum-split of a function analytic
on a strip around the contour (``cauchy_split``; ``cauchy_factorize`` is
``exp`` of the split of ``log g``).  It takes a batch of integrals, each
with its own target, shift and panel breaks, refined in lockstep; a
scalar call is a batch of one.  The node stage given here
(``kappa(K_REF, z)``) runs once per node shared by integrals of one target
and shift, the member stage (the log density) once per integral.
``continue_factor`` extends each quarter factor past its natural domain
by dividing the explicit half-plane factors by the complementary quarter
factor; ``_continued`` does so for a batch of points with one pass of
explicit half-factors and one batch of integrals.  The alpha1 routes'
branch constant is exactly 1 on the K_REF default contour and is
measured only on other contours (``continuation_constant``).

Two bounded process-wide memos keep work from being done twice.
``_projection_memo`` holds ``s + i gap``, the contour projection of
every alpha1 and alpha2 that ``quarter_factor`` and ``_continued``
place (at most 4096 variables, under 0.7 MiB), so each variable is
projected once; ``_integral_memo`` holds the quarter value
``exp(coef I) / fourth_root_down(K_REF +- a2)`` of every point that takes
an integral (at most 2048, under 0.7 MiB), so each integral is taken
once: off both contours, the four labels at a point need one and the
same integral.  Both evict their oldest entries first, compare
variables bit for bit and hash a batch's contour (and rule) once.

A scalar ``continue_factor`` call is a batch of one, so its cost is
mostly fixed: a few dozen numpy calls on one- and two-entry arrays; at
``k = K_REF`` the edge's rescales take no product.  A label at a point
already projected and integrated reads both memos and takes one
half-factor pass; it evaluates no contour point and takes no integral.
A fresh point adds one projection of its two variables (the sign
bracket's ends and the Newton seed are one contour evaluation) and one
integral, a batch of one of ``integrate_over_shifted``.  On the default
contour that is all, whatever the route; on any other, each label's
first alpha1 route also measures its branch constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._memo import Memo
from .contour import (K_REF, SIDE_TOL, ContourSpec, ShiftedContour,
                      contour_point, contour_projection, default_contour,
                      default_shift, gap_side, rescaled, to_reference)
from .errors import (BranchCrossingError, ContinuationError, DomainError,
                     NonFiniteInputError, OnBranchCutError, QpdiffError,
                     WindingError)
from .quadrature import QuadratureConfig, integrate_over_shifted
from .specfun import (_ROT_BACK, _diag_log_rotated, _half_factor_raw,
                      _kappa_raw, _sqrt_down_raw)

#: panel breaks for |alpha1| > 4 K_REF, in |alpha1|: the log term stays
#: O(log) out to |z| ~ |alpha1|
_HUMP = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


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

    def flip2(self) -> "FactorLabel":
        return FactorLabel(self.tag[0] + ("m" if self.tag[1] == "p" else "p"))


PP = FactorLabel("pp")
PM = FactorLabel("pm")
MP = FactorLabel("mp")
MM = FactorLabel("mm")
ALL_LABELS = (PP, PM, MP, MM)
_LABELS = {lab.tag: lab for lab in ALL_LABELS}
#: the natural (alpha1, alpha2) sides of each label, by tag
_REQUIRED = {lab.tag: (lab.sign1, lab.side2) for lab in ALL_LABELS}
#: the contour ``to_reference`` gives for ``default_contour(k)`` at every k,
#: where the alpha1 continuation's branch constant is exactly 1
_DEFAULT = default_contour()


def _pairs(alpha1, alpha2, ratio: float):
    """Both variables times ``ratio``, flat (``rescaled``), and their shape."""
    a1, a2 = (np.asarray(a, dtype=np.complex128) for a in (alpha1, alpha2))
    a1, a2 = (a1, a2) if a1.shape == a2.shape else np.broadcast_arrays(a1, a2)
    return rescaled(a1, ratio), rescaled(a2, ratio), a1.shape


def _hump_breaks(a1):
    """Breaks (values of ``s``) for ``|a1| > 4 K_REF``, a row per entry of ``a1``."""
    mag = np.hypot(a1.real, a1.imag)  # numpy's complex abs rounds unlike abs()
    wide = mag > 4.0 * K_REF
    return (np.where(wide[:, None], mag[:, None] * _HUMP, np.nan)
            if np.count_nonzero(wide) else np.empty((a1.size, 0)))


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


def cauchy_split(f, target, side: str, contour: ShiftedContour,
                 cfg: QuadratureConfig) -> complex:
    """One half of the additive split of a strip-analytic function.

    ``side="plus"`` returns the part analytic above the base contour,
    computed as ``1/(2 i pi) int f(z)/(z - target) dz`` along the
    below-shifted copy; ``side="minus"`` the part analytic below, with
    the opposite sign along the above-shifted copy.  ``f`` must decay
    like ``|z|^-lambda`` (lambda > 0) on the strip, meshed at scale ``K_REF``.
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
    density = (lambda z, j: (np.asarray(f(z), dtype=np.complex128),),
               lambda data, owner: data[0])
    return coef * integrate_over_shifted(density, [contour], np.array([target]),
                                         [s_star], cfg, [()]).value[0]


def cauchy_factorize(g, target, side: str, contour: ShiftedContour,
                     cfg: QuadratureConfig) -> complex:
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

    value = np.exp(cauchy_split(log_g, target, side, contour, cfg))

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

def _log_density(scaled, z, kap=None):
    """The rotated log argument ``exp(-i pi/4) w`` and ``diag_log(w)``.

    ``w = 1 + scaled/kappa(K_REF, z)``, ``scaled = +-a1`` signed by the
    label's alpha1 sign, maybe an array matching ``z``.  A node stage passes
    ``kap`` instead of ``z``.  Each sample is validated
    once, here: raises ``BranchCrossingError`` where ``w`` vanishes, the
    factor's integral does not exist there.  The rotated samples are
    what ``_check_log_track`` reads.
    """
    kap = _kappa_raw(np.complex128(K_REF), z) if kap is None else kap
    w = 1.0 + scaled / kap
    if np.count_nonzero(np.abs(w) < 1e-12):
        raise BranchCrossingError(
            "log argument vanished on the integration contour"
        )
    rotated = np.multiply(_ROT_BACK, w)
    return rotated, _diag_log_rotated(rotated)


def _check_log_track(rotated_samples, owner=None):
    """Detect a crossing of the diagonal log cut along the contour.

    ``rotated_samples`` are ``exp(-i pi/4) * w`` ordered by contour
    parameter; the cut of ``diag_log`` maps to the negative real axis,
    so a sign change of the imaginary part while the real part is
    negative marks a crossing.  With ``owner``, the samples hold one
    such track per integral, each in order and told apart by ``owner``.
    """
    im = rotated_samples.imag
    re = rotated_samples.real
    crossed = (im[:-1] * im[1:] < 0.0) & ((re[:-1] < 0.0) | (re[1:] < 0.0))
    if owner is not None:
        crossed &= owner[:-1] == owner[1:]
    if np.any(crossed):
        raise BranchCrossingError(
            "the log argument crossed its diagonal branch cut along the "
            "contour; the point is outside this factor's reachable domain"
        )


def _track_order(owner, re):
    """``np.lexsort((re, owner))``, as one stable sort of ``owner + i re``."""
    return np.argsort(owner + 1j * re, kind="stable")


def _quarter_value(side2, a1, a2, integral):
    """``exp(coef I) / fourth_root_down(K_REF +- a2)`` for an array ``a2``.

    ``integral(live)`` returns ``I``, the Cauchy integral of the log
    density, where ``a1 != 0``; where ``a1 = 0`` the log argument is 1
    and the integral vanishes exactly.  ``side2`` is the label's alpha2
    half-plane; ``side2``, ``a1`` and ``a2`` are arrays of one shape.
    """
    pref = _sqrt_down_raw(_sqrt_down_raw(np.where(side2 > 0, K_REF + a2, K_REF - a2)))
    value = np.reciprocal(pref)  # rounds as Python's 1.0 / pref does
    live = a1 != 0
    if np.count_nonzero(live):
        coef = np.where(side2[live] > 0, -1.0 / (4j * np.pi),
                        1.0 / (4j * np.pi))
        value[live] = np.exp(coef * integral(live)) / pref[live]
    return value


#: ``s + i gap`` of every variable ``_projected`` places; 4096 of them
#: take under 0.7 MiB
_projection_memo = Memo(4096)
#: every ``_quarter_batch`` value that takes an integral; 2048 of them
#: take under 0.7 MiB
_integral_memo = Memo(2048)


def _projected(contour: ContourSpec, z):
    """``contour_projection(contour, z)`` for a flat complex array ``z``.

    Each distinct variable, compared bit for bit (-0.0 is not 0.0), is
    projected once per process: ``_projection_memo`` keys it by
    ``(contour's token, its 16 bytes)``.  The projection is element-wise,
    so a stored ``(s, gap)`` is the one a fresh call returns, bit for bit.
    """
    raw = z.tobytes()
    distinct = {}  # bytes of each distinct variable -> its position
    inverse = [distinct.setdefault(raw[i:i + 16], len(distinct))
               for i in range(0, len(raw), 16)]

    def project(pos):
        points = np.frombuffer(b"".join(distinct), dtype=np.complex128)
        s, gap = contour_projection(contour, points[pos])
        both = np.empty(pos.size, dtype=np.complex128)
        both.real, both.imag = s, gap
        return both

    token = _projection_memo.token(contour)
    both = _projection_memo.lookup([(token, b) for b in distinct], project)
    if len(distinct) < len(inverse):
        both = both[inverse]
    return both.real, both.imag


def _quarter_batch(sign1, side2, a1, a2, s2, gap2, contour: ContourSpec,
                   cfg: QuadratureConfig):
    """Quarter factors at M points by their integrals, in one batch.

    Point ``j`` has the label of alpha1 sign ``sign1[j]`` and alpha2
    half-plane ``side2[j]``; ``s2``, ``gap2`` are alpha2's projection
    parameter and gap.  Each point keeps its own shift, panel breaks and
    branch-crossing check; a point that raises raises for the batch.
    Points with one alpha2 and shift share the node stage,
    ``kappa(K_REF, z)``.  ``_integral_memo`` holds the quarter value,
    ``exp(coef I) / fourth_root_down(K_REF +- a2)``, of every point that
    takes an integral (``a1 != 0``), so a hit skips the prefactor and the
    ``exp`` as well; points with ``a1 = 0`` are computed directly and not
    stored.  It keys a value by ``(sign1, side2, a1, a2)``, compared bit
    for bit (-0.0 is not 0.0), and the token of ``(contour, cfg)``, which
    with the gap fix its shift, breaks and rule.  A stored value is its
    first batch's.
    """
    def quarter(idx):
        return _quarter_value(side2[idx], a1[idx], a2[idx],
                              lambda live: integrate(idx[live]))

    def integrate(idx):
        shift = default_shift(np.abs(gap2[idx]))  # opposite alpha2's side
        shifted = [ShiftedContour(contour, offset) for offset
                   in np.where(side2[idx] > 0, -shift, shift).tolist()]
        scaled, humps = sign1[idx] * a1[idx], _hump_breaks(a1[idx])
        samples = []
        # only a track with a sample left of the imaginary axis can cross
        crossable = np.zeros(idx.size, dtype=bool)

        def node(z, j):
            return z.real, _kappa_raw(np.complex128(K_REF), z)

        def member(data, owner):
            re, kap = data
            rotated, log_w = _log_density(scaled[owner], None, kap=kap)
            samples.append((owner, re, rotated))
            crossable[owner[rotated.real < 0.0]] = True
            return log_w

        value = integrate_over_shifted((node, member), shifted, a2[idx],
                                       s2[idx], cfg, humps).value
        if np.count_nonzero(crossable):
            owner, re, rotated = (np.concatenate(part) for part in zip(*samples))
            keep = crossable[owner]
            order = _track_order(owner[keep], re[keep])
            _check_log_track(rotated[keep][order], owner[keep][order])
        return value

    live = a1.nonzero()[0]
    if live.size < a1.size:  # the log argument is 1: no integral, nothing stored
        value = np.empty(a1.size, dtype=np.complex128)
        value[a1 == 0] = quarter((a1 == 0).nonzero()[0])
    raw1, raw2, sign, side = a1.tobytes(), a2.tobytes(), sign1.tolist(), side2.tolist()
    token = _integral_memo.token((contour, cfg))
    found = _integral_memo.lookup(
        [(token, sign[j], side[j], raw1[16 * j:16 * j + 16], raw2[16 * j:16 * j + 16])
         for j in live.tolist()], lambda pos: quarter(live[pos]))
    if live.size == a1.size:
        return found
    value[live] = found
    return value


def quarter_factor(label: FactorLabel, alpha1, alpha2, k: float,
                   contour: ContourSpec, cfg: QuadratureConfig):
    """One quarter factor by its own integral representation.

    Valid for points in the label's natural domain (boundary included);
    callers needing other points go through ``continue_factor``.  The
    shift of each point's integration contour is the guarded rule in
    ``contour.default_shift``, reduced for targets close to the
    contour.  Alpha2 is projected onto the contour once per
    process (``_projected``); its gap feeds the domain check and the
    shift, its parameter the panel breaks.  ``alpha1`` and ``alpha2``
    broadcast: arrays are one batch of the adaptive rule, a scalar call a
    batch of one.

    Raises
    ------
    DomainError
        If a point is outside the label's natural domain.
    BranchCrossingError
        If the log argument vanishes on, or crosses its cut along, the
        integration contour (the factorisation does not reach there).
    """
    ratio, scale, contour = to_reference(k, contour)
    a1, a2, shape = _pairs(alpha1, alpha2, ratio)
    m = a2.size
    s, gap = _projected(contour, np.concatenate([a2, a1]))
    sides = gap_side(gap)
    for name, side, required in (("alpha1", sides[m:], label.side1),
                                 ("alpha2", sides[:m], label.side2)):
        if np.any(side * required < 0):
            raise DomainError(f"{name} outside the natural domain of "
                              f"K_{label.tag}; use continue_factor")
    values = rescaled(_quarter_batch(np.full(m, label.sign1), np.full(m, label.side2),
                                     a1, a2, s[:m], gap[:m], contour, cfg), scale)
    return complex(values[0]) if not shape else values.reshape(shape)


def continuation_constant(label: FactorLabel, contour: ContourSpec,
                          cfg: QuadratureConfig) -> complex:
    """Branch constant of the alpha1 continuation at ``K_REF``, measured once.

    The swapped half-plane factors give ``K_label = C * K_o? / K_comp`` with
    ``comp`` the alpha1-flipped label.  ``C`` is measured on an overlap set
    (alpha1 on the contour, alpha2 inside its half-plane; 24 integrals in
    one batch) and checked to be constant and unimodular: that check
    catches a user-supplied contour that puts the factors on other
    branches.  ``mp`` and ``mm`` take the integrals of ``pp`` and ``pm``
    from the integral memo: the four take 48, not 96.  A failed
    measurement is not repeated: its error is raised again.

    On the K_REF default contour ``C`` is exactly 1 by the kernel's swap
    symmetry (the swapped label's alpha2 route takes the same half factor
    and integral), and this measurement reads 1 to within 1.5e-15; the
    tests that pin it there let ``_continued`` take 1 without asking.

    Raises
    ------
    ContinuationError
        If the measured ratios are not constant or not unimodular.
    """
    c = _measured_constant(label, contour, cfg)
    if isinstance(c, QpdiffError):
        raise c.with_traceback(None)
    return c


@functools.lru_cache(maxsize=64)
def _measured_constant(label, contour, cfg):
    """``continuation_constant``'s value, or the ``QpdiffError`` it raised."""
    # in both labels' domains by construction: alpha1 on the contour,
    # alpha2 0.8 K_REF / 3 inside its half-plane
    a1 = contour_point(contour, np.repeat([-5.0, -1.5, 1.5, 5.0], 3))
    a2 = (contour_point(contour, np.tile([-2.2, 0.0, 3.0], 4))
          + 1j * label.side2 * 0.8 * K_REF / 3.0)
    n = a1.size
    try:
        s2, gap2 = contour_projection(contour, a2)
        values = _quarter_batch(np.repeat([label.sign1, -label.sign1], n),
                                np.full(2 * n, label.side2), np.tile(a1, 2),
                                np.tile(a2, 2), np.tile(s2, 2),
                                np.tile(gap2, 2), contour, cfg)
        ratios = values[:n] * values[n:] / _half_factor_raw(
            np.complex128(K_REF), a1, a2, float(label.side2))
        c = ratios.mean()
        if np.max(np.abs(ratios - c)) > 2e-4 or abs(abs(c) - 1.0) > 2e-4:
            raise ContinuationError(
                f"alpha1 continuation of K_{label.tag} failed its branch "
                f"consistency check: ratios {ratios}"
            )
    except QpdiffError as exc:
        exc.mask = None  # its entries are the overlap set's, not a caller's
        return exc
    return complex(c)


_ROUTES = ("direct", "alpha2-div", "alpha1-div", "alpha1+alpha2")


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

    Off both contours all four labels need the integral of the label of
    the point's own sides; the integral memo takes it once for all four.

    Returns the value, or ``(value, route)`` when ``with_route`` is set.
    ``alpha1`` and ``alpha2`` broadcast: arrays are one batch
    (``_continued``) and give arrays of values and routes; a scalar call
    is a batch of one and gives a complex and a str.
    """
    ratio, scale, contour = to_reference(k, contour)
    a1, a2, shape = _pairs(alpha1, alpha2, ratio)
    values, routes = _continued([label] * a1.size, a1, a2, contour, cfg)
    values = rescaled(values, scale)
    value, route = (complex(values[0]), _ROUTES[routes[0]]) if not shape else (
        values.reshape(shape), np.array(_ROUTES)[routes].reshape(shape))
    return (value, route) if with_route else value


def _continued(labels, a1, a2, contour: ContourSpec, cfg: QuadratureConfig):
    """``continue_factor`` at ``K_REF``: ``labels[j]`` at ``(a1[j], a2[j])``.

    One ``_projected`` call places both variables of every point, then
    one ``_half_factor_raw`` pass takes the swapped ``o+-`` and the own
    ``+-o`` half-factors of every point, so a half factor's branch point
    is named before any integral.  Each point needs one integral, of its
    label flipped in each variable on the wrong side; all are one batch.
    Each division is one ``np.divide`` over the batch, masked to the
    points off that side.  An alpha1 route multiplies its half factor by
    the label's branch constant (``continuation_constant``), except on
    the K_REF default contour, where it is exactly 1 and not measured.
    Returns the values and routes (indices into ``_ROUTES``).
    """
    m = len(labels)
    # every sign1, then every side2
    required = np.array([_REQUIRED[lab.tag] for lab in labels], dtype=float).T.ravel()
    # the variables, then the other variable of each: the halves' arguments
    z = np.concatenate([a1, a2, a2, a1])
    s, gap = _projected(contour, z[:2 * m])
    off = gap * required < -SIDE_TOL  # gap_side(gap) * required < 0
    off1, off2 = off[:m], off[m:]
    # the label whose integral a point needs: flipped where off its side
    need = np.where(off, -required, required)
    if anyoff := np.count_nonzero(off):  # halves no point needs are taken
        args = np.where(off, z.reshape(2, 2 * m), 0)  # at (0, 0): none fails
        try:
            half = _half_factor_raw(np.complex128(K_REF), args[0], args[1],
                                    np.concatenate([required[m:], need[:m]]))
        except OnBranchCutError as exc:
            exc.mask = exc.mask[:m] | exc.mask[m:]
            raise
    cst = None  # the branch constants; exactly 1 on the K_REF default
    if (any1 := np.count_nonzero(off1)) and contour != _DEFAULT:
        cst = dict.fromkeys(lab.tag for lab, o in zip(labels, off1.tolist()) if o)
        for tag in cst:
            cst[tag] = continuation_constant(_LABELS[tag], contour, cfg)
        cst = np.array([cst.get(lab.tag, 1.0) for lab in labels], dtype=np.complex128)
    value = _quarter_batch(need[:m], need[m:], a1, a2, s[m:], gap[m:],
                           contour, cfg)
    if anyoff:
        np.divide(half[m:], value, out=value, where=off2)
    if any1:
        np.divide(half[:m] if cst is None else cst * half[:m], value,
                  out=value, where=off1)
    return value, 2 * off1 + off2


def _split_on_error(evaluate, items):
    """``(part, evaluate(part))`` pairs covering the index array ``items``.

    An entry that raises a ``QpdiffError`` gets the exception as its
    result, in a part of its own.  Entries the error's ``mask`` names
    (they failed a check before any integral) cost one retry of the rest;
    an error naming none halves the part, each half retried: O(log n).
    """
    if not items.size:
        return []
    try:
        return [(items, evaluate(items))]
    except QpdiffError as exc:
        named = exc.mask
        if named is not None and named.size == items.size and named.any():
            return ([(items[[i]], exc) for i in np.flatnonzero(named)]
                    + _split_on_error(evaluate, items[~named]))
        if items.size == 1:
            return [(items, exc)]
        half = items.size // 2
        return (_split_on_error(evaluate, items[:half])
                + _split_on_error(evaluate, items[half:]))
