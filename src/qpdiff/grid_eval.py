"""Vectorised quarter-factor evaluation over many targets at once.

A phase portrait of ``K_label(alpha1*, .)`` needs the factor at every
pixel of an alpha2 window.  With alpha1 fixed, the expensive part of
the integrand -- the log density ``diag_log(1 +- alpha1/kappa(k, z))``
times ``A'(s)`` -- is the same for every pixel; only the Cauchy kernel
``1/(z - alpha2)`` changes.  So the density is sampled once per mesh
level on a composite GK15 mesh and the per-pixel sums go to the kernel
``cauchy_pair_sums``, which sums the nodes near a pixel's lattice box
directly and the far ones through the box's local expansion.  The rest
of the formula comes from the ``whfactor`` helpers that the adaptive
``quarter_factor`` uses.

Like the adaptive rule, the grid runs at ``K_REF``, where ``factor_field``
maps k (``contour.to_reference``): its lengths (``_H_FINE``, ``_EPS``, the
lattice) hold at every k, and a window scaled with k takes the same levels.

The coarsest mesh is ``quadrature._starting_mesh``'s, as for the
adaptive rule (tails mapped, nothing cut off, the breaks where
|alpha1| > 4 K_REF); each finer level bisects every panel of the one
before (``_levels``).  Each pixel keeps the first level, coarse to fine,
whose Kronrod and Gauss sums agree.  On every level the terms of each
panel close to a pixel are replaced by interpolatory product quadrature
of the sampled density (close evaluation, Helsing & Ojala 2008), so a
pixel next to the contour settles as early as a far one: an exact
prefilter finds the near (pixel, panel) pairs, and ``(15, pairs)``
blocks, one column a pair, carry the product rule and the replaced
kernel terms (``_close_pair_sums``).  The branch-crossing check always
runs on the finest level's samples, the densest everywhere.  Only pixels
that fail the (relaxed) tolerance on the finest level, or come out
non-finite, are computed by the adaptive rule, all in one batch, and
pixels where even that fails are reported in the mask rather than
raising.
"""

from __future__ import annotations

import numpy as np

from ._cauchy_numpy import cauchy_pair_sums
from .contour import (K_REF, ContourSpec, _point_and_derivative, rescaled,
                      side_sign, to_reference)
from .errors import DomainError, QpdiffError
from .quadrature import (QuadratureConfig, _WG, _WK, _XK, _s_of_u,
                         _starting_mesh)
from .specfun import _diag_log_rotated, half_factor
from .whfactor import (FactorLabel, _check_log_track, _hump_breaks,
                       _log_argument, _quarter_value, _shifted_for,
                       _split_on_error, quarter_factor)


#: the finest mesh spacing; the coarsest is ``_COARSEST`` (a power of 2)
#: times wider and each level halves it down to ``_H_FINE``
_H_FINE = 0.05
_COARSEST = 16
#: shift of the integration contour off the base contour
_EPS = 1e-3
#: the finest mesh's pair rule tolerance, in plain tolerances
_TOL_RELAX = 100.0
#: a target's panel term is replaced by product quadrature when its
#: panel coordinate ``u0 = (t - c) / h`` has ``|u0| < _NEAR``
_NEAR = 2.0
#: close-evaluation pairs per block: a (15, _PAIRS) complex array is under
#: 128 KiB (glibc's mmap threshold), so blocks reuse cached heap memory
_PAIRS = 512


def _levels(targets, alpha1: complex):
    """The panel edges of every mesh level, coarsest first.

    The coarsest is ``quadrature._starting_mesh`` over the targets' Re
    range with spacing ``_COARSEST * _H_FINE``, reach twice the largest
    ``|target|`` and the adaptive rule's breaks for a large ``|alpha1|``;
    each further level bisects every panel of the one before, tails
    included, down to spacing ``_H_FINE``.
    """
    edges = _starting_mesh((targets.real.min(), targets.real.max()), K_REF,
                           _COARSEST * _H_FINE, 2.0 * np.abs(targets).max(),
                           _hump_breaks(np.array([alpha1])))[0]
    levels = [edges[~np.isnan(edges)]]
    for _ in range(_COARSEST.bit_length() - 1):
        coarse = levels[-1]
        fine = np.empty(2 * coarse.size - 1)
        fine[::2] = coarse
        fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
        levels.append(fine)
    return levels


def _sample_nodes(label: FactorLabel, alpha1: complex, shifted, edges):
    """The GK nodes ``z`` on ``edges``, the rotated log argument there,
    checked where it vanishes (``_log_argument``), ``A'(s) ds/du`` and the
    panels' half widths: what ``_check_log_track`` and ``_rule`` read."""
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s, ds_du = _s_of_u((mid[:, None] + half[:, None] * _XK[None, :]).ravel(),
                       0.5 * edges[-1])
    point, slope = _point_and_derivative(shifted.base, s)
    z = point + 1j * shifted.offset
    return z, _log_argument(label.sign1 * alpha1, z), slope * ds_du, half


def _rule(z, rotated, weight, half):
    """``(z, coef_hi, coef_lo)`` for ``cauchy_pair_sums`` and the log
    density at ``z``, from ``_sample_nodes``."""
    log_w = _diag_log_rotated(rotated)
    base = log_w * weight
    hw = np.repeat(half, _XK.size)
    coef_hi = base * hw * np.tile(_WK, half.size)
    coef_lo = base * hw * np.tile(_WG, half.size)
    return (z, coef_hi, coef_lo), log_w


def _product_rule(u, density, panel, u0):
    """Both pair-rule integrals of ``density(u) / (u - u0) du``, close up.

    Row ``p`` of ``u`` holds a panel's 15 GK nodes in its own coordinate
    (end points at -1 and 1) and row ``p`` of ``density`` the density
    there; pair ``i`` integrates panel ``panel[i]`` against ``u0[i]``.
    The density is interpolated by monomials in ``u`` and each
    ``u^j / (u - u0)`` is integrated exactly along the panel (Helsing &
    Ojala, J. Comput. Phys. 227 (2008) 2899-2921):

        p_0 = log(1 - u0) - log(-1 - u0),  -+2 pi i where u0 lies
              between the panel and its chord [-1, 1],
        p_{j+1} = u0 p_j + (1 - (-1)^{j+1}) / (j + 1).

    p_0 comes from real parts on the same principal branch: half the log of
    ``|1 - u0|^2 / |-1 - u0|^2`` and two ``arctan2`` of ``+-1 - u0``'s parts as
    complex subtraction forms them.  The p_j fill ``(15, _PAIRS)`` blocks, a
    column per pair, and ``einsum`` adds a column row by row, so a pair's values
    depend on its panel and ``u0`` alone.  The Kronrod value interpolates at all
    15 nodes, the Gauss value at the 7 Gauss nodes.  Returns ``(kronrod, gauss)``.
    """
    def monomial_fit(x, y):  # row j: every panel's coefficient of u^j
        powers = np.repeat(x[..., None], x.shape[-1], axis=-1)
        powers[..., 0] = 1.0  # then x^j by repeated products
        return np.linalg.solve(np.multiply.accumulate(powers, axis=-1),
                               y[..., None])[..., 0].T

    x, y = u0.real, u0.imag
    # the panel's height over its chord, a polynomial in Re u read at Re u0,
    # at most the sum of its |coefficients|: a target strictly between the
    # two is enclosed by them, and the chord's logarithm is one residue off
    chord = monomial_fit(u.real, u.imag)
    low = np.flatnonzero((np.abs(x) < 1.0)
                         & (np.abs(y) < 2.0 * np.abs(chord).sum(axis=0)[panel]))
    rise = np.zeros(low.size)
    for coef in chord[::-1, panel[low]]:
        rise = rise * x[low] + coef
    above = y[low] > 0  # on the chord itself p_0 is the value from below
    between = np.where(rise > 0, above & (y[low] < rise), ~above & (y[low] > rise))
    right, left, down = 1.0 - x, -1.0 - x, 0.0 - y
    arg = np.arctan2(down, right) - np.arctan2(down, left)
    arg[low[between]] -= 2.0 * np.pi * np.sign(rise[between])
    p0 = 0.5 * np.log((right**2 + down**2) / (left**2 + down**2)) + 1j * arg
    fits = monomial_fit(u, density), monomial_fit(u[:, 1::2], density[:, 1::2])
    sums = np.empty((2, u0.size), dtype=np.complex128)
    for cols in (slice(i, i + _PAIRS) for i in range(0, u0.size, _PAIRS)):
        p = np.empty((_XK.size, u0[cols].size), dtype=np.complex128)
        p[0] = p0[cols]
        for j in range(1, _XK.size):
            np.multiply(u0[cols], p[j - 1], out=p[j])
            p[j] += (1 - (-1) ** j) / j
        for out, fit in zip(sums, fits):
            out[cols] = np.einsum("jn,jn->n", np.take(fit, panel[cols], axis=1),
                                  p[:fit.shape[0]])
    return sums


def _close_pair_sums(nodes, density, ends, targets):
    """``cauchy_pair_sums`` with close evaluation of the near panels.

    ``nodes`` and ``density`` hold the GK15 nodes, rule coefficients and
    density values of consecutive panels: first and last the mapped tail
    panel whose far end is at infinity, which is never close, and in
    between the panels with end points ``ends`` on the contour.  For
    every (target, panel) pair of these whose panel coordinate
    ``u0 = (t - c)/h`` (``c``, ``h``: midpoint and half-difference of the
    panel's end points) has ``|u0| < _NEAR``, the panel's terms in both
    sums are replaced by ``_product_rule``.  Only candidates (``|Re(t - c)|
    < _NEAR |h|``, on sorted Re t) with ``|Im(t - c)| < 1.01 _NEAR |h|``,
    a margin far beyond rounding, are divided and tested, so the near set
    and every ``u0`` are exact.  The replaced terms are subtracted from the
    kernel's sums in ``(15, _PAIRS)`` blocks, which costs digits only for
    a target within a small fraction of a node spacing of a node; grid
    targets keep at least the shift ``_EPS`` from the integration contour.
    """
    i_hi, i_lo = cauchy_pair_sums(*nodes, targets)
    z, coef_hi, coef_lo, density = (np.reshape(a, (-1, _XK.size))[1:-1]
                                    for a in nodes + (density,))
    c = 0.5 * (ends[1:] + ends[:-1])
    h = 0.5 * (ends[1:] - ends[:-1])
    order = np.argsort(targets.real, kind="stable")
    re_sorted = targets.real[order]
    reach = _NEAR * np.abs(h)
    first = np.searchsorted(re_sorted, c.real - reach, side="right")
    count = np.searchsorted(re_sorted, c.real + reach, side="left") - first
    panel = np.repeat(np.arange(c.size), count)
    at = order[np.arange(panel.size) + np.repeat(first - count.cumsum() + count, count)]
    keep = np.flatnonzero(np.abs(targets.imag[at] - c.imag[panel]) < 1.01 * reach[panel])
    target, panel = at[keep], panel[keep]
    u0 = (targets[target] - c[panel]) / h[panel]
    near = np.flatnonzero(np.abs(u0) < _NEAR)
    target, panel, u0 = target[near], panel[near], u0[near]
    used = np.flatnonzero(np.bincount(panel, minlength=c.size))
    panel = np.searchsorted(used, panel)
    z, coefs = z[used], (coef_hi[used].T, coef_lo[used].T)
    close = _product_rule((z - c[used, None]) / h[used, None], density[used], panel, u0)
    for cols in (slice(i, i + _PAIRS) for i in range(0, u0.size, _PAIRS)):
        kernel = 1.0 / (np.take(z.T, panel[cols], axis=1) - targets[target[cols]])
        for sums, coef, rows in zip(close, coefs, (slice(None), slice(1, None, 2))):
            sums[cols] -= np.einsum("jn,jn->n", np.take(coef[rows], panel[cols], axis=1),
                                    kernel[rows])
    np.add.at(i_hi, target, close[0])
    np.add.at(i_lo, target, close[1])
    return i_hi, i_lo


def quarter_factor_grid(label: FactorLabel, alpha1, targets,
                        contour: ContourSpec, cfg: QuadratureConfig):
    """The integral formula of one quarter factor at many alpha2 targets,
    at ``K_REF`` (``factor_field`` maps a wavenumber k onto it).

    Targets are taken to lie in the label's natural alpha2 half-plane
    (callers split mixed target sets; see ``factor_field``).  Each target
    keeps the coarsest mesh whose pair rule, with close evaluation of the
    panels near it (``_close_pair_sums``), meets the tolerance.
    Finest-mesh rejects and non-finite values are recomputed by the
    adaptive ``quarter_factor`` in one batch, where a raising pixel is
    isolated by halves (``_split_on_error``).  Returns ``(values, ok)``;
    ``ok`` is False only where both the grid rule and the adaptive rule
    failed.
    """
    alpha1 = complex(alpha1)
    targets = np.asarray(targets, dtype=np.complex128)
    flat = targets.ravel()
    ok = np.ones(flat.shape, dtype=bool)
    redo = np.zeros(flat.shape, dtype=bool)
    shifted = _shifted_for(contour, label.side2, _EPS)

    def pair_rule(edges, sampled, idx):
        """The Kronrod sums at ``flat[idx]`` and their error/tolerance ratios."""
        ends = shifted.point(_s_of_u(edges[1:-1], 0.5 * edges[-1])[0])
        i_hi, i_lo = _close_pair_sums(*sampled, ends, flat[idx])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i_hi))
        return i_hi, np.abs(i_hi - i_lo) / tol

    def integral():
        *coarse, fine_edges = _levels(flat, alpha1)
        # the guard reads the finest level's samples; its rule waits for a pixel
        finest = _sample_nodes(label, alpha1, shifted, fine_edges)
        _check_log_track(finest[1])  # s is already sorted per panel row-major
        result = np.full(flat.shape, np.nan, dtype=np.complex128)
        pending = np.arange(flat.size)
        # Coarse meshes hold to the plain tolerance: a pixel they reject
        # only moves on to the next finer mesh.  The relaxed one is for
        # the finest mesh, whose rejects take the adaptive rule.
        for edges in coarse:
            if not pending.size:
                break
            i_hi, ratio = pair_rule(edges, _rule(*_sample_nodes(
                label, alpha1, shifted, edges)), pending)
            good = ratio <= 1.0
            result[pending[good]] = i_hi[good]
            pending = pending[~good]
        if pending.size:
            result[pending], ratio = pair_rule(fine_edges, _rule(*finest), pending)
            redo[pending] = ratio > _TOL_RELAX
        return result

    values = _quarter_value(np.broadcast_to(label.side2, flat.shape), flat,
                            integral if alpha1 != 0 and flat.size else None)

    redo |= ~np.isfinite(values)
    for part, got in _split_on_error(
            lambda part: quarter_factor(label, alpha1, flat[part], K_REF,
                                        contour, cfg),
            np.flatnonzero(redo)):
        if isinstance(got, QpdiffError):
            ok[part] = False
            got = np.nan
        values[part] = got
    return values.reshape(targets.shape), ok.reshape(targets.shape)


def factor_field(label: FactorLabel, alpha1, targets, k: float,
                 contour: ContourSpec, cfg: QuadratureConfig):
    """A quarter factor over an arbitrary alpha2 target set.

    Natural-side targets use the factor's own integral; opposite-side
    targets are continued by dividing the explicit alpha1-plane
    half-factor by the complementary factor's integral (which is the
    natural one there).  ``alpha1`` must lie in the label's natural
    alpha1 half-plane or on the contour, else ``DomainError``.
    """
    ratio, scale, contour = to_reference(k, contour)
    alpha1 = complex(rescaled(complex(alpha1), ratio)[0])
    side1 = side_sign(contour, alpha1)
    if side1 != 0 and side1 != label.side1:
        raise DomainError(
            f"alpha1 is outside the natural half-plane of K_{label.tag}; "
            "pointwise continuation is required (continue_factor)"
        )
    targets = np.asarray(targets, dtype=np.complex128)
    flat = targets.ravel()
    values = np.empty(flat.shape, dtype=np.complex128)
    ok = np.ones(flat.shape, dtype=bool)

    sides = side_sign(contour, rescaled(flat, ratio))

    # points on the contour belong to both half-planes; take the natural one
    natural = (sides == label.side2) | (sides == 0)
    other = ~natural

    def grid(lab, part):
        """``lab`` at the targets ``flat[part]`` mapped to K_REF, and those."""
        at = rescaled(flat[part], ratio)
        v, ok[part] = quarter_factor_grid(lab, alpha1, at, contour, cfg)
        return v, at

    if natural.any():
        values[natural] = grid(label, natural)[0]
    if other.any():
        v, at = grid(label.flip2(), other)
        values[other] = half_factor("+o" if label.sign1 > 0 else "-o",
                                    alpha1, at, K_REF) / v
    return rescaled(values, scale).reshape(targets.shape), ok.reshape(targets.shape)
