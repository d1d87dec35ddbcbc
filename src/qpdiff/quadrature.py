"""Adaptive Gauss-Kronrod quadrature along shifted inversion contours.

Every factor integral is a Cauchy integral ``int density(z) / (z - t) dz``
over a whole shifted contour ``A(s) +- i eps``, ``s`` running over the
real line, with an integrand that decays like ``s^-2`` or faster; the
one entry point, ``integrate_over_shifted``, takes a batch of them, each
with its own target ``t`` and shift (a single integral is a batch of
one), at ``K_REF``, where the entry points of ``whfactor`` and
``grid_eval`` map any k, so its lengths do not depend on k.  The engine
works on a mapped coordinate ``u`` in ``(-2S, 2S)``
(QUADPACK's QAGI idea): ``s = u`` for ``|u| <= S``, and each tail
``S < |s| < oo`` maps onto one finite interval by
``s = sign(u) S^2 / (2S - |u|)``, ``ds/du = s^2/S^2`` (``_s_of_u``), so
no part of the contour is cut off.  On ``u`` runs a composite (G7, K15)
pair rule on a panel mesh, refined by bisecting the panels carrying the
largest error estimates, with all panels of a refinement round, for
every integral of a batch, evaluated in one vectorised call.  One
builder (``_starting_mesh``) lays out the starting meshes of both
engines: a batch's rows here, with one sort, and the coarsest mesh of
``grid_eval``, whose finer levels bisect it.  The integrand runs in two
stages: a node stage (the contour point, what the caller derives from it
alone, and the Cauchy factor) once per distinct panel of the integrals
with one target and shift, and a member stage (the density) once per
integral.  Both stages run in parts of at most ``_NODE_BUDGET`` nodes,
so a round's memory is bounded whatever the batch; a panel's sums are
the same bits in any part.  A batch of one pays a fixed cost per
integral (its mesh and the refinement's set-up, several dozen numpy
calls) and per refinement round (the bookkeeping and one part of each
stage), on top of the arithmetic of its nodes, about 500 for a quarter
factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contour import K_REF, _point_and_derivative
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
#: nodes in one part of a ``_panel_sums`` call: its node and member stages
#: hold about ten complex values a node, about 10 MiB a part.  Each part
#: pays the stages' fixed numpy calls: at 4096 nodes, 8 arcs of 21 rows
#: at the reference incidence run 78 parts, not 22, and take 10 % longer
_NODE_BUDGET = 65536
#: panel breaks around a target's projection, in shifts
_WIDTHS = np.array([1.0, 4.0, 16.0, 64.0, 256.0])
#: ``_starting_mesh``'s span, scale, spacing and reach for every adaptive
#: integral: the ``K_REF`` contour's indentation, ``K_REF / 4``, ``4 K_REF``
_MESH = ((0.0, 0.0), K_REF, 0.25 * K_REF, 4.0 * K_REF)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the bisection limit for all Cauchy integrals."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 60

    def __post_init__(self):
        # NaN and +-inf fail the chained test: no estimate could meet them
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise DomainError("quadrature tolerances must be finite and positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    """Values and error estimates, an entry per integral, and the cost."""

    value: np.ndarray
    error: np.ndarray
    n_evals: int
    n_panels: int


def _starts(order, *keys):
    """Flags along ``order``: True where an entry differs from the one
    before it in some key; ``order`` sorts equal entries next to each other."""
    return np.append(True, np.any([np.diff(k[order]) != 0 for k in keys], axis=0))


def _distinct(order, *keys):
    """``first``, ``back`` with ``key[first][back] == key`` for each key."""
    new = _starts(order, *keys)
    back = np.empty_like(order)
    back[order] = np.cumsum(new) - 1
    return order[new], back


def _panel_sums(fvec, lo, hi, owner):
    """K15 values and |K15 - G7| estimates; panel p serves integral owner[p].

    ``fvec = (node, member, rep)``: ``node(x, j)`` runs once per distinct
    ``(rep[owner], lo, hi)`` panel (per panel when ``rep`` is None) with
    ``j`` the integral that stands for it, ``member(data, owner)`` on
    every panel's share of its result.  The panels run in parts of at
    most ``_NODE_BUDGET`` nodes, so a call's memory does not grow with
    its batch.  With ``rep``, they are taken in order of ``rep[owner]``
    and midpoint, so the panels sharing a node stage are neighbours: a
    part runs that stage once, and a stage runs again only for a run of
    sharers that a part boundary cuts.  A panel's sums are the same bits
    in any part.
    """
    node, member, rep = fvec
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if rep is not None:
        key = rep[owner]
        order = np.argsort(key + 1j * mid, kind="stable")
        new = _starts(order, key, lo, hi)
    i_k, err = np.empty(lo.size, dtype=np.complex128), np.empty(lo.size)
    size = _NODE_BUDGET // _XK.size
    for start in range(0, lo.size, size):
        if rep is None:  # each panel its own node stage
            part = stage = slice(start, start + size)
            j = owner[part]
        else:
            part = order[start:start + size]
            runs = new[start:start + size].copy()
            runs[0] = True
            stage = part[runs]
            j = key[stage]
        x = mid[stage, None] + half[stage, None] * _XK
        at = np.repeat(j, _XK.size)
        data = node(x.ravel(), at)
        if rep is not None:
            back = np.cumsum(runs) - 1
            data = tuple(d.reshape(x.shape)[back].ravel() for d in data)
            at = np.repeat(owner[part], _XK.size)
        y = np.asarray(member(data, at), dtype=np.complex128).reshape(-1, _XK.size)
        i_k[part] = value = np.add.reduce(y * _WK, axis=1) * half[part]
        err[part] = np.abs(value - np.add.reduce(y * _WG, axis=1) * half[part])
    return i_k, err


def _padded(rows):
    """Ragged 1-D rows (or a 2-D array) as one NaN-padded ``(m, L)`` array."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    sizes = np.array([r.size for r in rows])
    out = np.full((sizes.size, sizes.max()), np.nan)
    out[np.arange(out.shape[1]) < sizes[:, None]] = np.concatenate(rows)
    return out


def _s_of_u(u, big: float):
    """``s`` and ``ds/du`` at mapped coordinates ``u`` in ``[-2 big, 2 big]``."""
    mag = np.abs(u)
    far = mag > big
    # a node of a panel bisected to a few ulps may round onto -+2 big
    gap = np.maximum(2.0 * big - mag, 0.5 * math.ulp(2.0 * big))
    s = np.where(far, np.copysign(big * big, u) / gap, u)
    return s, np.where(far, np.square(s / big), 1.0)


def _u_of_s(s, big: float):
    """The mapped coordinate of the parameters ``s``: ``_s_of_u`` inverted."""
    mag = np.abs(s)
    return np.where(mag > big,
                    np.copysign(2.0 * big - big * big / np.maximum(mag, big), s), s)


def _starting_mesh(span, scale: float, h: float, reach: float, breaks):
    """The starting mesh of both engines, a row per break set of ``breaks``.

    Edges are mapped coordinates ``u`` (``_s_of_u``): spacing at most
    ``h`` across the parameter range ``span`` and the indentation
    ``[-(2 + scale), 2 + scale]``; then a walk on each side until an edge
    reaches ``reach``, growing by 1.7 but by at most ``1.7^n (2 + scale)``
    at step n, so the panels next to a far span stay narrow; from ``S``,
    the farther walk end, one panel ``[S, 2S]`` maps each tail.  Row
    ``j`` joins these to ``breaks[j]`` (values of ``s``, ragged or
    NaN-padded), mapped; after one sort, repeated edges become NaN.
    """
    base, big = _base_edges(tuple(span), scale, h, reach)
    rows = _u_of_s(_padded(breaks), big)
    edges = np.hstack([base[None, :].repeat(len(rows), axis=0), rows])
    edges.sort(axis=1)
    edges[:, 1:][edges[:, 1:] == edges[:, :-1]] = np.nan
    return edges


@functools.lru_cache(maxsize=64)
def _base_edges(span, scale: float, h: float, reach: float):
    """The edges ``_starting_mesh`` joins to the breaks (shared), and ``S``."""
    pad = 2.0 + scale
    lo = min(span[0] - pad, -pad)
    hi = max(span[1] + pad, pad)
    edges = [np.linspace(lo, hi, max(8, int(np.ceil((hi - lo) / h))) + 1)]
    for sign, e in ((-1.0, -lo), (1.0, hi)):
        walk = [e]
        w = 1.7 * pad
        while walk[-1] < reach:
            walk.append(min(1.7 * walk[-1], walk[-1] + w))
            w *= 1.7
        edges.append(sign * np.array(walk))
    big = max(-edges[1][-1], edges[2][-1])
    edges.append(big * np.array([-2.0, -1.0, 1.0, 2.0]))
    return np.concatenate(edges), big


def _refine(fvec, edges, cfg: QuadratureConfig):
    """Adaptively refine composite GK15 rules for several integrals at once.

    Integral ``j`` starts on the mesh ``edges[j]``, a row of a 2-D array
    whose NaN entries are skipped; ``fvec`` is a staged integrand
    (``_panel_sums``).  Panels over their share of their integral's
    tolerance ``max(abs_tol, rel_tol |I|)`` are bisected, one
    ``_panel_sums`` call a round for all unfinished integrals, until each
    summed error estimate meets its tolerance.  An integral bisects
    exactly the panels it would bisect alone.  Returns values, error
    estimates, evaluation and panel counts, an entry per integral.

    Raises
    ------
    QuadratureError
        If a panel would exceed ``max_subdivisions`` bisections, a panel
        budget is exhausted, or a panel width underflows (which
        indicates a genuinely singular integrand).
    """
    m, kept = len(edges), ~np.isnan(edges)
    row, flat = kept.nonzero()[0], edges[kept]
    same = row[1:] == row[:-1]  # the panels of one integral stay in order
    lo, hi, owner = flat[:-1][same], flat[1:][same], row[1:][same]
    count = np.bincount(owner, minlength=m)
    if np.count_nonzero(hi <= lo) or np.count_nonzero(count) < m:
        raise DomainError("edges must be a strictly increasing 1-D array")
    depth = np.zeros(lo.size, dtype=np.int64)
    vals, errs = _panel_sums(fvec, lo, hi, owner)
    n_evals = _XK.size * count
    value, error = np.empty(m, dtype=np.complex128), np.empty(m)
    n_panels = np.empty(m, dtype=np.int64)
    ids = np.arange(m)  # the unfinished integrals: group g is ids[g]

    while True:
        # the count[g] panels of group g are consecutive, from starts[g]
        starts = count.cumsum() - count
        total = np.add.reduceat(vals, starts)
        err_total = np.add.reduceat(errs, starts)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        done = err_total <= tol
        # stored every round: an integral's last store is its final one
        value[ids], error[ids], n_panels[ids] = total, err_total, count
        if np.count_nonzero(done) == ids.size:
            return value, error, n_evals, n_panels
        group = np.repeat(np.arange(ids.size), count)
        split = errs > (tol / (2.0 * count))[group]
        # an integral with no panel over its share bisects its worst ones
        idle = np.bincount(group[split], minlength=ids.size) == 0
        split |= idle[group] & (errs >= np.maximum.reduceat(errs, starts)[group])
        split &= ~done[group]
        deep = group[split & (depth >= cfg.max_subdivisions)]
        if deep.size:
            raise QuadratureError(
                f"subdivision limit {cfg.max_subdivisions} reached (error "
                f"estimate {err_total[deep[0]]:.3e} vs tolerance {tol[deep[0]]:.3e})"
            )
        halves = np.bincount(group[split], minlength=ids.size)
        if np.count_nonzero(count + halves > _PANEL_CAP):
            raise QuadratureError("panel budget exhausted; integrand too hard")
        lo_s, hi_s = lo[split], hi[split]
        if np.count_nonzero(hi_s - lo_s < 1e-14 * (1.0 + np.abs(lo_s))):
            raise QuadratureError("panel width underflow: singular integrand")

        mid = 0.5 * (lo_s + hi_s)
        fresh = (np.concatenate([lo_s, mid]), np.concatenate([mid, hi_s]),
                 np.concatenate([owner[split]] * 2))
        fresh += _panel_sums(fvec, *fresh) + (np.concatenate([depth[split] + 1] * 2),)
        n_evals[ids] += 2 * _XK.size * halves
        count, ids = (count + halves)[~done], ids[~done]
        # each integral's kept panels, then its left and right halves
        keep = ~split & ~done[group]
        order = np.argsort(np.concatenate([owner[keep], fresh[2]]), kind="stable")
        lo, hi, owner, vals, errs, depth = (
            np.concatenate([old[keep], new])[order]
            for old, new in zip((lo, hi, owner, vals, errs, depth), fresh))


def integrate_over_shifted(density, shifted, targets, s_star,
                           cfg: QuadratureConfig, extra_breaks) -> QuadResult:
    """``int density(z, j) / (z - targets[j]) dz`` along ``shifted[j]``, every j.

    One batch of the adaptive rule (``_refine``) over ``u``; the shifted
    contours share one base contour, ``targets`` is a complex array.
    Integral ``j`` starts on the mesh ``_MESH`` of ``_starting_mesh``,
    whose tail panel fixes ``S``, joined to the breaks
    (values of ``s``) ``s_star[j]``, its target's projection parameter on
    the base contour, ``s_star[j] +- |shift| _WIDTHS`` and
    ``extra_breaks[j]``.  ``density = (node, member)``: ``node(z, j)``
    returns a tuple of arrays, once per distinct panel of the integrals
    with ``j``'s target and shift, to which ``A'(s) ds/du / (z - t)`` is
    appended; ``member(data, owner)`` makes each integral's density of
    it.  ``n_evals`` and ``n_panels`` of the result are totals.
    """
    node, member = density
    spec = shifted[0].base
    m, offset = len(shifted), np.array([sh.offset for sh in shifted])
    first, back = (_distinct(np.lexsort((offset, targets.imag, targets.real)),
                             targets, offset) if m > 1 else ([0], None))
    rep = first[back] if len(first) < m else None  # integrals of one node stage
    s = np.asarray(s_star, dtype=np.float64)[:, None]
    width = np.abs(offset)[:, None] * _WIDTHS
    breaks = np.concatenate([s, s + width, s - width, _padded(extra_breaks)],
                            axis=1)

    edges, big = _starting_mesh(*_MESH, breaks), _base_edges(*_MESH)[1]
    lift = 1j * offset

    def nodes(u, j):
        s, ds_du = _s_of_u(u, big)
        point, slope = _point_and_derivative(spec, s)
        z = point + lift[j]
        return node(z, j) + (slope * ds_du / (z - targets[j]),)

    def members(data, owner):
        return member(data[:-1], owner) * data[-1]

    value, err, n_evals, n_panels = _refine((nodes, members, rep), edges, cfg)
    return QuadResult(value=value, error=err, n_evals=int(n_evals.sum()),
                      n_panels=int(n_panels.sum()))
