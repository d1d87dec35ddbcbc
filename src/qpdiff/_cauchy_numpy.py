"""The multi-target Cauchy-sum kernel.

Given quadrature nodes ``z`` and two coefficient vectors (the Kronrod-
and Gauss-weighted integrand samples), accumulate

    hi[m] = sum_j coef_hi[j] / (z[j] - t[m])
    lo[m] = sum_j coef_lo[j] / (z[j] - t[m])

for every target ``t[m]``.  Targets are processed in chunks whose one
temporary, the ``(chunk, N)`` block of ``1/(z - t)``, fits a few MiB of
cache; the block is formed and inverted in place and both sums come from
one ``(chunk, N) @ (N, 2)`` product.
"""

from __future__ import annotations

import numpy as np

_CHUNK_ENTRIES = 1 << 18  # complex entries in the reused block: 4 MiB


def cauchy_pair_sums(nodes, coef_hi, coef_lo, targets):
    nodes = np.ascontiguousarray(nodes, dtype=np.complex128)
    coefs = np.stack([coef_hi, coef_lo], axis=1).astype(np.complex128, copy=False)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    n = nodes.size
    m = targets.size
    sums = np.empty((m, 2), dtype=np.complex128)
    rows = max(1, _CHUNK_ENTRIES // max(n, 1))
    block = np.empty((min(rows, m), n), dtype=np.complex128)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        inv = block[:stop - start]
        np.subtract(nodes[None, :], targets[start:stop, None], out=inv)
        np.reciprocal(inv, out=inv)
        np.matmul(inv, coefs, out=sums[start:stop])
    return sums[:, 0].copy(), sums[:, 1].copy()
