"""Vectorised quarter-factor evaluation over many targets at once.

A phase portrait of ``K_label(alpha1*, .)`` needs the factor at every
pixel of an alpha2 window.  With alpha1 fixed, the expensive part of
the integrand -- the log density ``diag_log(1 +- alpha1/kappa(k, z))``
times ``A'(s)`` -- is the same for every pixel; only the Cauchy kernel
``1/(z - alpha2)`` changes.  So the density is sampled once per mesh on
a composite GK15 mesh (uniform across the window's parameter range and
the indentation, geometric in the tails) and the per-pixel sums go to
the numpy kernel ``cauchy_pair_sums``.  The rest of the formula comes
from the ``whfactor`` helpers that the scalar ``quarter_factor`` uses.

Meshes are taken coarse to fine: a pixel far from the contour meets the
pair-rule tolerance on a mesh much coarser than the one a pixel near it
needs, so each pixel keeps the first mesh whose Kronrod and Gauss sums
agree, and only the pixels still pending are summed on the next finer
mesh.  The branch-crossing check always runs on the finest mesh.

Targets are placed relative to the contour by the array form of
``contour.contour_projection``: ``side_sign`` (the same classifier the
scalar path uses) splits them into half-planes, and the signed gap sets
the width of the fallback band.  Pixels that fail the (relaxed)
tolerance on the finest mesh, plus the thin band hugging the contour,
are computed through the scalar adaptive path, and pixels where even
that fails are reported in the mask rather than raising.
"""

from __future__ import annotations

import numpy as np

from ._cauchy_numpy import cauchy_pair_sums
from .contour import ContourSpec, contour_projection, side_sign
from .errors import QpdiffError
from .quadrature import QuadratureConfig, _WG, _WK, _XK
from .whfactor import (_ROT_BACK, FactorLabel, _alpha2_div, _check_log_track,
                       _log_density, _quarter_value, _shifted_for,
                       quarter_factor)


#: the finest mesh spacing; the coarsest is ``_COARSEST`` times wider
#: and the levels halve it down to ``_H_FINE``
_H_FINE = 0.05
_COARSEST = 16
#: shift of the integration contour off the base contour
_EPS = 1e-3
#: the finest mesh's pair rule tolerance, in plain tolerances
_TOL_RELAX = 100.0


def _grid_mesh(re_lo: float, re_hi: float, k: float, s_max: float, h: float):
    """Panel edges: spacing ``h`` across the window, geometric tails.

    The uniform part always spans the indentation ``[-(2 + k), 2 + k]``
    as well, so no panel bridges it when the window excludes 0.  Tail
    edges grow by 1.7, but by at most ``1.7^n (2 + k)`` at the n-th
    step, so the first tail panels of a window far from 0 stay narrow.
    """
    pad = 2.0 + k
    lo, hi = min(re_lo - pad, -pad), max(re_hi + pad, pad)
    n_uniform = max(8, int(np.ceil((hi - lo) / h)))
    edges = [np.linspace(lo, hi, n_uniform + 1)]
    for sign, e in ((-1.0, -lo), (1.0, hi)):
        tail = []
        w = 1.7 * pad
        while e < s_max:
            e = min(1.7 * e, e + w)
            w *= 1.7
            tail.append(sign * min(e, s_max))
        edges.append(np.array(tail))
    return np.unique(np.concatenate(edges))


def _sample_density(label: FactorLabel, alpha1: complex, k: float,
                    shifted, edges, guard: bool):
    """GK nodes, Cauchy-free density samples, and rule coefficients.

    ``guard`` runs the branch-crossing check on the samples; it is
    meaningful on the finest mesh only.
    """
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    z = shifted.point(s)
    w, log_w = _log_density(label, alpha1, k, z)
    if guard:
        _check_log_track(_ROT_BACK * w)  # s is already sorted per panel row-major
    base = log_w * shifted.derivative(s)
    hw = np.repeat(half, _XK.size)
    coef_hi = base * hw * np.tile(_WK, mid.size)
    coef_lo = base * hw * np.tile(_WG, mid.size)
    return z, coef_hi, coef_lo


def quarter_factor_grid(label: FactorLabel, alpha1, targets, k: float,
                        contour: ContourSpec, cfg: QuadratureConfig):
    """The integral formula of one quarter factor at many alpha2 targets.

    Targets are taken to lie in the label's natural alpha2 half-plane
    (callers split mixed target sets; see ``factor_field``).  Returns
    ``(values, ok)``; ``ok`` is False only where both the grid rule and
    the scalar fallback failed.
    """
    alpha1 = complex(alpha1)
    targets = np.asarray(targets, dtype=np.complex128)
    flat = targets.ravel()
    ok = np.ones(flat.shape, dtype=bool)
    redo = np.zeros(flat.shape, dtype=bool)
    shifted = _shifted_for(contour, label.side2, _EPS)

    def mesh(h):
        return _grid_mesh(float(flat.real.min()), float(flat.real.max()), k,
                          cfg.s_max, h)

    def pair_rule(nodes, idx):
        i_hi, i_lo = cauchy_pair_sums(*nodes, flat[idx])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i_hi))
        return i_hi, np.abs(i_hi - i_lo) / tol

    def integral():
        finest = _sample_density(label, alpha1, k, shifted, mesh(_H_FINE),
                                 guard=True)
        # the thin band hugging the contour always takes the scalar path
        redo[:] = np.abs(contour_projection(contour, flat)[1]) < 2.0 * _H_FINE
        result = np.full(flat.shape, np.nan, dtype=np.complex128)
        pending = np.nonzero(~redo)[0]
        # Coarse meshes hold to the plain tolerance: a pixel they reject
        # only moves on to the next finer mesh.  The relaxed one is for
        # the finest mesh, whose rejects take the scalar path.
        scale = _COARSEST
        while pending.size and scale > 1:
            coarse = _sample_density(label, alpha1, k, shifted,
                                     mesh(scale * _H_FINE), guard=False)
            i_hi, ratio = pair_rule(coarse, pending)
            good = ratio <= 1.0
            result[pending[good]] = i_hi[good]
            pending = pending[~good]
            scale //= 2
        if pending.size:
            result[pending], ratio = pair_rule(finest, pending)
            redo[pending] = ratio > _TOL_RELAX
        return result

    values = _quarter_value(label, alpha1, flat, k, integral)

    redo |= ~np.isfinite(values)
    for idx in np.nonzero(redo)[0]:
        try:
            values[idx] = quarter_factor(label, alpha1, flat[idx], k, contour,
                                          cfg, enforce_domain=False)
        except QpdiffError:
            ok[idx] = False
            values[idx] = np.nan
    return values.reshape(targets.shape), ok.reshape(targets.shape)


def factor_field(label: FactorLabel, alpha1, targets, k: float,
                 contour: ContourSpec, cfg: QuadratureConfig):
    """A quarter factor over an arbitrary alpha2 target set.

    Natural-side targets use the factor's own integral; opposite-side
    targets are continued by dividing the explicit alpha1-plane
    half-factor by the complementary factor's integral (which is the
    natural one there).  ``alpha1`` must lie in the label's natural
    alpha1 half-plane or on the contour.
    """
    side1 = side_sign(contour, complex(alpha1))
    if side1 != 0 and side1 != label.side1:
        raise QpdiffError(
            f"alpha1 is outside the natural half-plane of K_{label.tag}; "
            "pointwise continuation is required (continue_factor)"
        )
    targets = np.asarray(targets, dtype=np.complex128)
    flat = targets.ravel()
    values = np.empty(flat.shape, dtype=np.complex128)
    ok = np.ones(flat.shape, dtype=bool)

    sides = side_sign(contour, flat)

    # points on the contour belong to both half-planes; take the natural one
    natural = (sides == label.side2) | (sides == 0)
    other = ~natural

    def grid(lab, part):
        v, ok[part] = quarter_factor_grid(lab, alpha1, flat[part], k, contour,
                                          cfg)
        return v

    if natural.any():
        values[natural] = grid(label, natural)
    if other.any():
        values[other] = _alpha2_div(label, alpha1, flat[other], k,
                                    lambda comp: grid(comp, other))
    return values.reshape(targets.shape), ok.reshape(targets.shape)
