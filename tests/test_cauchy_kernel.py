"""The multi-target Cauchy-sum kernel against explicit sums."""

import threading

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
    (2000, 120, 8),                      # several chunks, the last one partial
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


def test_sums_do_not_depend_on_the_cpu_count(monkeypatch):
    # 495 nodes as on a portrait's coarsest mesh: 31 blocks, the last
    # one partial, dealt to 1, 2, 3 or 7 workers
    case = _case(7, 495, 2000)
    runs = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(kernel, "_CPUS", cpus)
        runs.append(np.concatenate(cauchy_pair_sums(*case)))
    for got in runs[1:]:
        assert got.tobytes() == runs[0].tobytes()


@pytest.mark.parametrize("raiser", ["caller", "helper"])
def test_a_failing_part_reaches_the_caller(monkeypatch, raiser):
    monkeypatch.setattr(kernel, "_CPUS", 3)
    matmul = np.matmul

    def failing(*args, **kwargs):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (raiser == "caller"):
            raise MemoryError(raiser)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match=raiser):
        cauchy_pair_sums(*_case(3, 495, 2000))
    assert threading.active_count() == before


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(kernel, "_CPUS", 7)
    started = []
    thread = threading.Thread

    def spy(*args, **kwargs):
        started.append(args)
        return thread(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", spy)
    rows = kernel._CHUNK_ENTRIES // 495
    cauchy_pair_sums(*_case(5, 495, rows))
    assert started == []
    cauchy_pair_sums(*_case(5, 495, rows + 1))  # two blocks, one helper
    assert len(started) == 1
