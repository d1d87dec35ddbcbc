"""The multi-target Cauchy-sum kernel.

Given quadrature nodes ``z`` and two coefficient vectors (the Kronrod-
and Gauss-weighted integrand samples), accumulate

    hi[m] = sum_j coef_hi[j] / (z[j] - t[m])
    lo[m] = sum_j coef_lo[j] / (z[j] - t[m])

for every target ``t[m]``.  Near nodes are summed directly and far ones
through local expansions, as in a treecode or fast multipole method
(Greengard & Rokhlin, J. Comput. Phys. 73 (1987) 325-348).

Lattice.  Targets are binned on the fixed square lattice of side
``_SIDE`` anchored at 0: box (i, j) is [i, i + 1) x [j, j + 1) times
``_SIDE``, with centre T.  Every target of a box lies within
r = ``_SIDE``/sqrt(2) of T.  The lattice does not depend on the call, so
a target's box, and so its sums, do not depend on the other targets.
Smaller boxes multiply the coefficients' cost, larger ones lengthen the
near lists: on the README's 200^2 portrait of [-6, 6]^2 the two kernel
calls took 46, 20 and 30 ms with sides 0.5, 1 and 2 (one thread, 2 cores).

Local expansions.  A node with |z - T| >= 3r (3 is ``_SEPARATION``) is
far from the box, and

    1/(z - t) = sum_{k<P} (t - T)^k / (z - T)^(k+1) + w^P / (z - t),
    w = (t - T) / (z - T),  |w| <= 1/3.

So the far nodes of a box collapse into P local coefficients
L_k = sum_j c_j (z_j - T)^-(k+1), for both rules at once, and each
target takes sum_k L_k (t - T)^k.  The truncation is at most 3^-P of
sum_j |c_j / (z_j - t)|; ``_TERMS`` = P = 34 is the smallest P with
3^-P <= 2^-53 (3^-34 = 6.0e-17).  Rounding adds a few units of 2^-53
times sum_j |c_j| / |z_j - T|, which is at most 4/3 of
sum_j |c_j / (z_j - t)|: the powers carry about (k + 1) roundings each,
and their terms fall like 3^-k.

Near nodes, |z - T| < 3r, are summed directly with ``1/(z - t)``.  A box
with fewer targets than terms sums every node directly: its expansion
would cost more than the sums it replaces.

Each box's targets form a product ``(rows, P + near) @ (P + near, 2)``
whose rows hold the powers (t - T)^k and the near ``1/(z - t)``.  Every
product has M N K <= 2 ``_BLOCK`` = 65536 whenever there are at most
``_BLOCK`` nodes, so OpenBLAS runs it on one thread and the sums do not
depend on the BLAS thread count.  Products are cut into equal parts, so
no part has one row: numpy multiplies a lone row by BLAS's
matrix-vector routine, which rounds differently.
"""

from __future__ import annotations

import math

import numpy as np

_SIDE = 1.0  # lattice spacing, in alpha2 units
_RADIUS = _SIDE * math.sqrt(0.5)  # a box's targets lie this close to its centre
_SEPARATION = 3.0  # nodes _SEPARATION * _RADIUS from a box's centre are far
_FAR = _SEPARATION * _RADIUS
_TERMS = math.ceil(53 / math.log2(_SEPARATION))  # 34: 3^-P <= 2^-53
_BLOCK = 1 << 15  # complex entries of a product's left operand: 512 KiB


def _cuts(count, most):
    """Bounds of ``count`` items cut into equal parts of at most ``most``."""
    parts = -(-count // max(1, most))
    return [q * count // parts for q in range(parts + 1)] if parts else [0]


def _sum_rows(sums, targets, rows, centre, z, rhs, buf):
    """``sums[rows]``: local terms about ``centre``, then nodes ``z`` directly.

    ``rhs`` stacks the local coefficients (none, or ``_TERMS`` rows) over
    the coefficients of ``z``.
    """
    lead = rhs.shape[0] - z.size
    cuts = _cuts(rows.size, _BLOCK // rhs.shape[0])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = rows[lo:hi]
        t = targets[part]
        a = buf[:rhs.shape[0] * t.size].reshape(rhs.shape[0], t.size)
        if lead:
            a[0] = 1.0
            np.subtract(t, centre, out=a[1])
            j = 2
            while j < lead:  # a[:j] holds (t - T)^0 .. (t - T)^(j-1)
                top = min(2 * j, lead)
                np.multiply(a[j - 1], a[1], out=a[j])
                np.multiply(a[1:top - j], a[j], out=a[j + 1:top])
                j = top
        np.subtract(z[:, None], t, out=a[lead:])
        np.reciprocal(a[lead:], out=a[lead:])
        sums[part] = a.T @ rhs


def _local(nodes, coefs, centres, buf):
    """Local coefficients of the far nodes about ``centres``, and the near mask.

    Returns ``local``, where ``local[k, b]`` is L_k about ``centres[b]``
    for both rules, and ``near[b, j]``, True where node ``j`` is near.
    """
    w = nodes - centres[:, None]
    near = np.abs(w) < _FAR
    np.reciprocal(w, out=w)
    w[near] = 0.0
    local = np.empty((_TERMS, centres.size, 2), dtype=np.complex128)
    power = buf[:w.size].reshape(w.shape)
    power[...] = w
    for k in range(_TERMS):  # power = (z - T)^-(k+1) at the far nodes
        np.matmul(power, coefs, out=local[k])
        power *= w
    return local, near


def cauchy_pair_sums(nodes, coef_hi, coef_lo, targets):
    """Both rules' sums ``(hi, lo)`` at every target; see the module docstring."""
    nodes = np.ascontiguousarray(nodes, dtype=np.complex128)
    coefs = np.stack([coef_hi, coef_lo], axis=1).astype(np.complex128, copy=False)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    n = nodes.size
    sums = np.zeros((targets.size, 2), dtype=np.complex128)
    if n and targets.size:
        buf = np.empty(max(_BLOCK, _TERMS + n), dtype=np.complex128)
        cell = (np.floor(targets.real / _SIDE)
                + 1j * np.floor(targets.imag / _SIDE))
        order = np.lexsort((cell.imag, cell.real))
        cell = cell[order]
        # box b holds the targets order[ends[b]:ends[b + 1]]
        ends = np.flatnonzero(np.concatenate(
            ([True], cell[1:] != cell[:-1], [True])))
        counts = np.diff(ends)
        centres = (cell[ends[:-1]] + (0.5 + 0.5j)) * _SIDE
        dense = (counts >= _TERMS) & np.isfinite(centres)
        _sum_rows(sums, targets, order[np.repeat(~dense, counts)], 0.0,
                  nodes, coefs, buf)
        boxes = np.flatnonzero(dense)
        cuts = _cuts(boxes.size, _BLOCK // n)
        for block in (boxes[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])):
            local, near = _local(nodes, coefs, centres[block], buf)
            for i, b in enumerate(block):
                close = np.flatnonzero(near[i])
                _sum_rows(sums, targets, order[ends[b]:ends[b + 1]], centres[b],
                          nodes[close],
                          np.concatenate((local[:, i], coefs[close])), buf)
    return sums[:, 0].copy(), sums[:, 1].copy()
