"""Vectorised quarter-factor evaluation over many targets at once.

A phase portrait of ``K_label(alpha1*, .)`` needs the factor at every
pixel of an alpha2 window.  With alpha1 fixed, the expensive part of
the integrand -- ``diag_log(1 +- alpha1/kappa(k, z)) A'(s)`` -- is the
same for every pixel; only the Cauchy kernel ``1/(z - alpha2)``
changes.  So the integrand is sampled once per mesh on a composite GK15
mesh (uniform across the window's parameter range and the indentation,
geometric in the tails) and the per-pixel sums go to the numpy kernel
``cauchy_pair_sums``.

Meshes are taken coarse to fine: a pixel far from the contour meets the
pair-rule tolerance on a mesh much coarser than the one a pixel near it
needs, so each pixel keeps the first mesh whose Kronrod and Gauss sums
agree, and only the pixels still pending are summed on the next finer
mesh.  The branch guards always run on the finest mesh.

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
from .contour import (ContourSpec, contour_derivative, contour_point,
                      contour_projection, side_sign)
from .errors import QpdiffError
from .quadrature import QuadratureConfig, _WG, _WK, _XK
from .specfun import _kappa_raw, diag_log, fourth_root_down, half_factor
from .whfactor import FactorLabel, _check_log_track, _HALF_CH, _ROT_BACK, quarter_factor


#: the coarsest mesh spacing, as a multiple of ``h_fine``; the levels
#: halve it down to ``h_fine``
_COARSEST = 16


def _grid_mesh(re_lo: float, re_hi: float, k: float, s_max: float, h: float):
    """Panel edges: spacing ``h`` across the window, geometric tails.

    The uniform part always spans the indentation ``[-(2 + k), 2 + k]``
    as well, so no panel bridges it when the window excludes 0.
    """
    pad = 2.0 + k
    lo, hi = min(re_lo - pad, -pad), max(re_hi + pad, pad)
    n_uniform = max(8, int(np.ceil((hi - lo) / h)))
    edges = [np.linspace(lo, hi, n_uniform + 1)]
    for sign, e in ((-1.0, -lo), (1.0, hi)):
        tail = []
        while e < s_max:
            e *= 1.7
            tail.append(sign * min(e, s_max))
        edges.append(np.array(tail))
    return np.unique(np.concatenate(edges))


def _sample_integrand(label: FactorLabel, alpha1: complex, k: float,
                      spec: ContourSpec, eps: float, edges, guard: bool):
    """GK nodes, Cauchy-free integrand samples, and rule coefficients.

    ``guard`` runs the vanishing-log and branch-crossing checks on the
    samples; they are meaningful on the finest mesh only.
    """
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    shift = -1j * eps if label.side2 > 0 else 1j * eps
    z = contour_point(spec, s) + shift
    w = 1.0 + label.sign1 * alpha1 / _kappa_raw(np.complex128(k), z)
    if guard:
        if np.any(np.abs(w) < 1e-12):
            raise QpdiffError("log argument vanished on the integration contour")
        _check_log_track(_ROT_BACK * w)  # s is already sorted per panel row-major
    base = diag_log(w) * contour_derivative(spec, s)
    hw = np.repeat(half, _XK.size)
    coef_hi = base * hw * np.tile(_WK, mid.size)
    coef_lo = base * hw * np.tile(_WG, mid.size)
    return z, coef_hi, coef_lo


def quarter_factor_grid(label: FactorLabel, alpha1, targets, k: float,
                        contour: ContourSpec, cfg: QuadratureConfig,
                        eps: float = 1e-3, h_fine: float = 0.05,
                        tol_relax: float = 100.0):
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

    pref_arg = k + flat if label.side2 > 0 else k - flat
    pref = fourth_root_down(pref_arg)
    coef = -1.0 / (4j * np.pi) if label.side2 > 0 else 1.0 / (4j * np.pi)

    if alpha1 == 0:
        return (1.0 / pref).reshape(targets.shape), ok.reshape(targets.shape)

    def mesh(h):
        return _grid_mesh(float(flat.real.min()), float(flat.real.max()), k,
                          cfg.s_max, h)

    def pair_rule(nodes, idx):
        i_hi, i_lo = cauchy_pair_sums(*nodes, flat[idx])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i_hi))
        return i_hi, np.abs(i_hi - i_lo) / tol

    finest = _sample_integrand(label, alpha1, k, contour, eps, mesh(h_fine),
                               guard=True)
    # the thin band hugging the contour always takes the scalar path
    redo = np.abs(contour_projection(contour, flat)[1]) < 2.0 * h_fine
    integral = np.full(flat.shape, np.nan, dtype=np.complex128)
    pending = np.nonzero(~redo)[0]
    # Coarse meshes hold to the plain tolerance: a pixel they reject only
    # moves on to the next finer mesh.  The relaxed one is for the finest
    # mesh, whose rejects take the scalar path.
    scale = _COARSEST
    while pending.size and scale > 1:
        coarse = _sample_integrand(label, alpha1, k, contour, eps,
                                   mesh(scale * h_fine), guard=False)
        i_hi, ratio = pair_rule(coarse, pending)
        good = ratio <= 1.0
        integral[pending[good]] = i_hi[good]
        pending = pending[~good]
        scale //= 2
    if pending.size:
        integral[pending], ratio = pair_rule(finest, pending)
        redo[pending] = ratio > tol_relax
    values = np.exp(coef * integral) / pref

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
                 contour: ContourSpec, cfg: QuadratureConfig, **grid_kw):
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
    if natural.any():
        v, m = quarter_factor_grid(label, alpha1, flat[natural], k, contour,
                                   cfg, **grid_kw)
        values[natural] = v
        ok[natural] = m
    other = ~natural
    if other.any():
        comp = label.flip2()
        v, m = quarter_factor_grid(comp, alpha1, flat[other], k, contour,
                                   cfg, **grid_kw)
        half = half_factor(_HALF_CH[label.tag[0]] + "o", alpha1, flat[other], k)
        values[other] = half / v
        ok[other] = m
    return values.reshape(targets.shape), ok.reshape(targets.shape)
