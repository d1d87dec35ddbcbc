"""The multi-target Cauchy-sum kernel against explicit sums."""

import numpy as np
import pytest

from qpdiff import _cauchy_numpy as kernel
from qpdiff._cauchy_numpy import cauchy_pair_sums


def _case(seed, n, m):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-20.0, 20.0, n)) - 1j * rng.uniform(0.0, 1.0, n)
    coef_hi = rng.normal(size=n) + 1j * rng.normal(size=n)
    coef_lo = rng.normal(size=n) + 1j * rng.normal(size=n)
    targets = rng.uniform(-6.0, 6.0, m) + 1j * rng.uniform(0.1, 6.0, m)
    return nodes, coef_hi, coef_lo, targets


def _explicit(nodes, coef, targets):
    return np.array([(coef / (nodes - t)).sum() for t in targets])


@pytest.mark.parametrize("n, m, chunks", [
    (2000, 1000, 8),                     # several chunks, the last one partial
    (500, 1, 1),                         # a single target
    (kernel._CHUNK_ENTRIES + 5, 3, 3),   # more nodes than the budget
])
def test_matches_explicit_sums(n, m, chunks):
    nodes, coef_hi, coef_lo, targets = _case(n + m, n, m)
    rows = max(1, kernel._CHUNK_ENTRIES // n)
    assert -(-m // rows) == chunks
    hi, lo = cauchy_pair_sums(nodes, coef_hi, coef_lo, targets)
    assert hi.shape == lo.shape == (m,)
    for got, coef in ((hi, coef_hi), (lo, coef_lo)):
        want = _explicit(nodes, coef, targets)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

