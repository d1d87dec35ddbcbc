"""The multi-target Cauchy-sum kernel.

Given quadrature nodes ``z`` and two coefficient vectors (the Kronrod-
and Gauss-weighted integrand samples), accumulate

    hi[m] = sum_j coef_hi[j] / (z[j] - t[m])
    lo[m] = sum_j coef_lo[j] / (z[j] - t[m])

for every target ``t[m]``.  Targets are taken in blocks of
``_CHUNK_ENTRIES // N`` rows; a block of ``1/(z - t)`` is formed and
inverted in place, and one ``(rows, N) @ (N, 2)`` product gives both
sums.  The blocks are dealt in contiguous runs to the calling thread and
``_CPUS - 1`` more, one per CPU the process may run on, each with its
own block.  Every block is the one a one-CPU run takes, so the sums do
not depend on the CPU count.  A block holds 512 KiB, so a product has
M N K <= 65536 and OpenBLAS runs it on one thread: with 1 MiB and more
the workers' products went multi-threaded, contended, and ran slower
than one worker.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_CHUNK_ENTRIES = 1 << 15  # complex entries in each worker's block: 512 KiB

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)  # CPUs this process may run on


def cauchy_pair_sums(nodes, coef_hi, coef_lo, targets):
    nodes = np.ascontiguousarray(nodes, dtype=np.complex128)
    coefs = np.stack([coef_hi, coef_lo], axis=1).astype(np.complex128, copy=False)
    targets = np.ascontiguousarray(targets, dtype=np.complex128)
    n = nodes.size
    m = targets.size
    sums = np.empty((m, 2), dtype=np.complex128)
    rows = max(1, _CHUNK_ENTRIES // max(n, 1))
    starts = np.arange(0, m, rows)
    runs = np.array_split(starts, max(1, min(_CPUS, starts.size)))
    errors = []

    def work(run):
        try:
            block = np.empty((min(rows, m), n), dtype=np.complex128)
            for start in run:
                stop = min(start + rows, m)
                inv = block[:stop - start]
                np.subtract(nodes[None, :], targets[start:stop, None], out=inv)
                np.reciprocal(inv, out=inv)
                np.matmul(inv, coefs, out=sums[start:stop])
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(run,)) for run in runs[1:]]
    try:
        for thread in threads:
            thread.start()
        work(runs[0])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return sums[:, 0].copy(), sums[:, 1].copy()
