"""Adaptive Gauss-Kronrod quadrature along shifted inversion contours.

The factor integrals all take the form ``int f(z) dz`` over a shifted
contour ``A(s) +- i eps`` with an integrand that decays like ``s^-2`` at
the truncation ends.  The engine below works on the real parameter
``s``: a composite (G7, K15) pair rule on a panel mesh, refined by
bisecting the panels carrying the largest error estimates, with all
panels of a refinement round evaluated in one vectorised call.

Truncation at ``s_max`` is accounted for explicitly.  Because panels are
truncated symmetrically and the two tails of a Cauchy-kernel integrand
cancel to leading order, the recorded tail estimate is
``|g(s_max) + g(-s_max)| * s_max / 2`` (the integral of an ``s^-3``
bound matched to the endpoint values).  Policy ``"truncate"`` adds the
estimate to the reported error; ``"bound-check"`` raises when it exceeds
``abs_tol``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .contour import ShiftedContour, contour_derivative, contour_point
from .errors import DomainError, QuadratureError

# 15-point Kronrod extension of the 7-point Gauss rule (QUADPACK values).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.zeros(15)
_WG[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
             0.417959183673469, 0.381830050505119, 0.279705391489277,
             0.129484966168870]

_PANEL_CAP = 16384


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation policy for all Cauchy integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 60
    s_max: float = 1e4
    tail_policy: str = "truncate"

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.s_max <= 0:
            raise DomainError("s_max must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")
        if self.tail_policy not in ("truncate", "bound-check"):
            raise DomainError("tail_policy must be 'truncate' or 'bound-check'")

    def with_(self, **kw) -> "QuadratureConfig":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    tail: float
    n_evals: int
    n_panels: int


def _panel_sums(fvec, lo, hi):
    """Evaluate the (G7, K15) pair on a batch of panels.

    Returns the K15 values, the |K15 - G7| error estimates, and the
    number of integrand evaluations spent.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _XK[None, :]
    y = np.asarray(fvec(x.ravel()), dtype=np.complex128).reshape(x.shape)
    i_k = (y * _WK[None, :]).sum(axis=1) * half
    i_g = (y * _WG[None, :]).sum(axis=1) * half
    return i_k, np.abs(i_k - i_g), x.size


def adaptive_panels(fvec, edges, cfg: QuadratureConfig):
    """Adaptively refine a composite GK15 rule on the given panel mesh.

    ``fvec`` maps an array of parameters to integrand values.  Panels
    whose error exceeds their share of the tolerance are bisected, a
    whole refinement round per vectorised call, until the summed error
    estimate meets ``max(abs_tol, rel_tol |I|)``.

    Raises
    ------
    QuadratureError
        If a panel would exceed ``max_subdivisions`` bisections, the
        panel budget is exhausted, or a panel width underflows (which
        indicates a genuinely singular integrand).
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise DomainError("edges must be a strictly increasing 1-D array")
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    depth = np.zeros(lo.size, dtype=np.int64)
    vals, errs, n_evals = _panel_sums(fvec, lo, hi)

    while True:
        total = vals.sum()
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        err_total = float(errs.sum())
        if err_total <= tol:
            return complex(total), err_total, n_evals, lo.size
        share = tol / (2.0 * lo.size)
        split = errs > share
        if not split.any():
            split = errs >= errs.max()
        if np.any(depth[split] >= cfg.max_subdivisions):
            raise QuadratureError(
                f"subdivision limit {cfg.max_subdivisions} reached "
                f"(error estimate {err_total:.3e} vs tolerance {tol:.3e})"
            )
        if lo.size + split.sum() > _PANEL_CAP:
            raise QuadratureError("panel budget exhausted; integrand too hard")
        w = hi[split] - lo[split]
        if np.any(w < 1e-14 * (1.0 + np.abs(lo[split]))):
            raise QuadratureError("panel width underflow: singular integrand")

        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[~split], lo[split], mid])
        new_hi = np.concatenate([hi[~split], mid, hi[split]])
        new_depth = np.concatenate([depth[~split], depth[split] + 1,
                                    depth[split] + 1])
        keep_vals = vals[~split]
        keep_errs = errs[~split]
        fresh_vals, fresh_errs, extra = _panel_sums(
            fvec, new_lo[keep_vals.size:], new_hi[keep_vals.size:])
        n_evals += extra
        lo, hi, depth = new_lo, new_hi, new_depth
        vals = np.concatenate([keep_vals, fresh_vals])
        errs = np.concatenate([keep_errs, fresh_errs])


def default_edges(scale: float, s_max: float, inner_breaks=()):
    """Symmetric panel mesh: fine through the indentation, geometric tails.

    ``scale`` is the feature size of the integrand near the origin (the
    wavenumber, for the factor integrals).
    """
    base = [0.0, scale / 8, scale / 4, scale / 2, 0.75 * scale, scale,
            1.25 * scale, 1.5 * scale, 2.0 * scale, 3.0 * scale, 4.0 * scale]
    e = 4.0 * scale
    while e < s_max:
        e *= 2.0
        base.append(min(e, s_max))
    pts = np.array(base)
    edges = np.concatenate([-pts[::-1], pts[1:]])
    if len(inner_breaks):
        ib = np.asarray(inner_breaks, dtype=np.float64)
        ib = ib[(ib > -s_max) & (ib < s_max)]
        edges = np.concatenate([edges, ib])
    edges = np.unique(edges)
    return edges


def integrate_over_shifted(integrand, shifted: ShiftedContour,
                           cfg: QuadratureConfig, scale: float,
                           inner_breaks=()) -> QuadResult:
    """Integrate ``integrand(z) dz`` along a shifted contour.

    The parametrised form ``integrand(A(s) + i offset) A'(s) ds`` is fed
    to the adaptive engine on ``[-s_max, s_max]``; the symmetric-pair
    tail estimate is then applied according to the configured policy.
    """
    spec = shifted.base
    s_max = cfg.s_max
    shift = 1j * shifted.offset

    def fvec(s):
        z = contour_point(spec, s) + shift
        return integrand(z) * contour_derivative(spec, s)

    edges = default_edges(scale, s_max, inner_breaks)
    value, err, n_evals, n_panels = adaptive_panels(fvec, edges, cfg)

    g_ends = fvec(np.array([-s_max, s_max]))
    tail = 0.5 * s_max * abs(g_ends[0] + g_ends[1])
    if cfg.tail_policy == "bound-check" and tail > cfg.abs_tol:
        raise QuadratureError(
            f"truncation tail estimate {tail:.3e} exceeds abs_tol "
            f"{cfg.abs_tol:.3e}; increase s_max"
        )
    return QuadResult(value=value, error=err + tail, tail=tail,
                      n_evals=n_evals + 2, n_panels=n_panels)
