"""Vectorised quarter-factor evaluation over many targets at once.

A phase portrait of ``K_label(alpha1*, .)`` needs the factor at every
pixel of an alpha2 window.  With alpha1 fixed, the expensive part of
the integrand -- ``diag_log(1 +- alpha1/kappa(k, z)) A'(s)`` -- is the
same for every pixel; only the Cauchy kernel ``1/(z - alpha2)``
changes.  So the integrand is sampled once on a composite GK15 mesh
(uniformly fine across the window's parameter range, geometric in the
tails) and the per-pixel sums are delegated to the Cauchy-sum backend
(compiled extension when built, numpy otherwise).

Targets are placed relative to the contour by the array form of
``contour.contour_projection``: ``side_sign`` (the same classifier the
scalar path uses) splits them into half-planes, and the signed gap sets
the width of the fallback band.  Per-pixel accuracy is monitored
through the embedded Gauss rule; pixels whose error estimate fails the
(relaxed) tolerance, plus the thin band hugging the contour, are
recomputed through the scalar adaptive path, and pixels where even
that fails are reported in the mask rather than raising.
"""

from __future__ import annotations

import numpy as np

from ._backend import cauchy_pair_sums
from .contour import (ContourSpec, contour_derivative, contour_point,
                      contour_projection, side_sign)
from .errors import QpdiffError
from .quadrature import QuadratureConfig, _WG, _WK, _XK
from .specfun import _kappa_raw, diag_log, fourth_root_down, half_factor
from .whfactor import FactorLabel, _check_log_track, _HALF_CH, _ROT_BACK, quarter_factor


def _grid_mesh(spec: ContourSpec, re_lo: float, re_hi: float, k: float,
               s_max: float, h_fine: float):
    """Panel edges: uniform spacing across the window, geometric tails.

    Each tail walk starts at least ``h_fine`` from the origin, so a
    window edge at exactly ``-+(2 + k)`` cannot stall it at zero.
    """
    pad = 2.0 + k
    lo, hi = re_lo - pad, re_hi + pad
    n_fine = max(8, int(np.ceil((hi - lo) / h_fine)))
    edges = [np.linspace(lo, hi, n_fine + 1)]
    left = []
    e = max(abs(lo), h_fine)
    while e < s_max:
        e *= 1.7
        left.append(-min(e, s_max))
    edges.append(np.array(sorted(left)))
    right = []
    e = max(abs(hi), h_fine)
    while e < s_max:
        e *= 1.7
        right.append(min(e, s_max))
    edges.append(np.array(right))
    return np.unique(np.concatenate(edges))


def _sample_integrand(label: FactorLabel, alpha1: complex, k: float,
                      spec: ContourSpec, eps: float, edges):
    """GK nodes, Cauchy-free integrand samples, and rule coefficients."""
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    shift = -1j * eps if label.side2 > 0 else 1j * eps
    z = contour_point(spec, s) + shift
    w = 1.0 + label.sign1 * alpha1 / _kappa_raw(np.complex128(k), z)
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
    values = np.empty(flat.shape, dtype=np.complex128)
    ok = np.ones(flat.shape, dtype=bool)

    pref_arg = k + flat if label.side2 > 0 else k - flat
    pref = fourth_root_down(pref_arg)
    coef = -1.0 / (4j * np.pi) if label.side2 > 0 else 1.0 / (4j * np.pi)

    if alpha1 == 0:
        return (1.0 / pref).reshape(targets.shape), ok.reshape(targets.shape)

    s_max = cfg.s_max
    edges = _grid_mesh(contour, float(flat.real.min()), float(flat.real.max()),
                       k, s_max, h_fine)
    z, coef_k, coef_g = _sample_integrand(label, alpha1, k, contour, eps, edges)
    i_hi, i_lo = cauchy_pair_sums(z, coef_k, coef_g, flat)
    err = np.abs(i_hi - i_lo)
    tol = tol_relax * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(i_hi))
    values = np.exp(coef * i_hi) / pref

    # thin band hugging the contour, plus any pixel the pair rule flags
    gap = contour_projection(contour, flat)[1]
    redo = ~np.isfinite(values) | (err > tol) | (np.abs(gap) < 2.0 * h_fine)
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
