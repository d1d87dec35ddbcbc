"""The multi-target Cauchy-sum kernel against explicit sums."""

import os
import subprocess
import sys

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


def _explicit_and_scale(nodes, coef, targets):
    """Explicit sums and their scales ``sum_j |c_j / (z_j - t)|``."""
    want = np.empty(targets.size, dtype=np.complex128)
    scale = np.empty(targets.size)
    for lo in range(0, targets.size, 500):
        terms = coef / (nodes - targets[lo:lo + 500, None])
        want[lo:lo + 500] = terms.sum(axis=1)
        scale[lo:lo + 500] = np.abs(terms).sum(axis=1)
    return want, scale


def _assert_within_conditioning(case, bound=1e-15):
    """Both sums within ``bound`` of their scales; the worst error ratio."""
    nodes, coef_hi, coef_lo, targets = case
    worst = 0.0
    for got, coef in zip(cauchy_pair_sums(*case), (coef_hi, coef_lo)):
        want, scale = _explicit_and_scale(nodes, coef, targets)
        ratio = np.abs(got - want) / scale
        assert np.all(ratio <= bound), ratio.max()
        worst = max(worst, ratio.max())
    return worst


def _expanded_boxes(targets):
    """Lattice boxes with at least ``_TERMS`` targets: those expanded."""
    cells = np.floor(targets.real / kernel._SIDE) + 1j * np.floor(
        targets.imag / kernel._SIDE)
    _, counts = np.unique(cells, return_counts=True)
    return int((counts >= kernel._TERMS).sum())


@pytest.mark.parametrize("n, m, parts", [
    (2000, 120, 8),           # several products, every node directly
    (500, 1, 1),              # a single target
    (kernel._BLOCK + 5, 3, 3),  # more nodes than a product's budget
])
def test_matches_explicit_sums(n, m, parts):
    # fewer targets per box than terms: each product sums every node
    nodes, coef_hi, coef_lo, targets = _case(n + m, n, m)
    assert _expanded_boxes(targets) == 0
    assert len(kernel._cuts(m, kernel._BLOCK // n)) - 1 == parts
    hi, lo = cauchy_pair_sums(nodes, coef_hi, coef_lo, targets)
    assert hi.shape == lo.shape == (m,)
    for got, coef in ((hi, coef_hi), (lo, coef_lo)):
        want = _explicit(nodes, coef, targets)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_error_is_bounded_by_the_sum_of_term_moduli():
    # a portrait's coarsest mesh against 20,000 pixels; a plain relative
    # bound would fail at the worst-conditioned targets, where
    # |sum| << sum |terms|, for any order of summation
    case = _case(20495, 495, 20000)
    assert _expanded_boxes(case[3]) >= 60
    assert _assert_within_conditioning(case) < 5e-16


def test_empty_targets_and_empty_nodes():
    nodes, coef_hi, coef_lo, targets = _case(1, 40, 50)
    hi, lo = cauchy_pair_sums(nodes, coef_hi, coef_lo, targets[:0])
    assert hi.shape == lo.shape == (0,)
    assert hi.dtype == lo.dtype == np.complex128
    hi, lo = cauchy_pair_sums(nodes[:0], coef_hi[:0], coef_lo[:0], targets)
    assert hi.shape == lo.shape == (50,)
    assert not hi.any() and not lo.any()


def test_a_single_target():
    for seed in range(4):
        _assert_within_conditioning(_case(seed, 495, 1))


def test_mapped_tail_nodes_far_out():
    # mapped tails put nodes at |z| of 1e6 and beyond, with large weights
    nodes, coef_hi, coef_lo, targets = _case(11, 495, 4000)
    rng = np.random.default_rng(12)
    far = np.concatenate([-np.geomspace(1e6, 1e9, 15), np.geomspace(1e6, 1e9, 15)])
    tails = far * (1 - 1e-3j)
    weights = far * (rng.normal(size=30) + 1j * rng.normal(size=30))
    case = (np.concatenate([tails[:15], nodes, tails[15:]]),
            np.concatenate([weights[:15], coef_hi, weights[15:]]),
            np.concatenate([weights[15:], coef_lo, weights[:15]]), targets)
    assert _expanded_boxes(targets) > 0
    _assert_within_conditioning(case)


def test_targets_straddle_the_near_far_threshold():
    # one box centred at 0.5 + 0.5i, its targets out to its corners, and
    # nodes at 3r from the centre within a relative 1e-12 on either side
    side, radius = kernel._SIDE, kernel._RADIUS
    centre = 0.5 * side * (1 + 1j)
    rng = np.random.default_rng(5)
    edge = np.linspace(0.0, side, 21)
    targets = np.concatenate([
        rng.uniform(0.0, side, 200) + 1j * rng.uniform(0.0, side, 200),
        edge, edge + 1j * np.nextafter(side, 0.0), 1j * edge,
        np.nextafter(side, 0.0) + 1j * edge])
    angle = np.linspace(0.0, 2 * np.pi, 97)[:-1]
    nodes = centre + 3.0 * radius * np.exp(1j * angle) * np.repeat(
        [1 - 1e-12, 1.0, 1 + 1e-12], 32)
    coef_hi = rng.normal(size=96) + 1j * rng.normal(size=96)
    coef_lo = rng.normal(size=96) + 1j * rng.normal(size=96)
    case = (nodes, coef_hi, coef_lo, targets)
    assert _expanded_boxes(targets) == 1
    far = np.abs(nodes - centre) >= kernel._FAR
    assert 0 < far.sum() < nodes.size
    _assert_within_conditioning(case)


def test_sparse_boxes_sum_every_node_directly():
    # P - 1 targets in one box are summed directly, P of them expanded;
    # both within the bound, and the expanded box's targets keep their
    # sums when a sparse box joins the call
    nodes, coef_hi, coef_lo, _ = _case(8, 495, 0)
    rng = np.random.default_rng(9)
    terms = kernel._TERMS
    box = 2.0 + 1j + rng.uniform(0, 1, terms) + 1j * rng.uniform(0, 1, terms)
    lone = -4.0 + 3j + rng.uniform(0, 1, terms - 1) * (1 + 1j)
    for targets in (box, lone, np.concatenate([box, lone])):
        _assert_within_conditioning((nodes, coef_hi, coef_lo, targets))
    alone = cauchy_pair_sums(nodes, coef_hi, coef_lo, box)
    joined = cauchy_pair_sums(nodes, coef_hi, coef_lo, np.concatenate([box, lone]))
    for got, want in zip(joined, alone):
        assert got[:terms].tobytes() == want.tobytes()


def test_a_subset_of_targets_keeps_its_sums():
    # the lattice is fixed, so a target's box and expansion do not depend
    # on the other targets: bitwise while every box stays expanded, and
    # within the bound where a box drops below P targets
    case = _case(20495, 495, 20000)
    nodes, coef_hi, coef_lo, targets = case
    full = cauchy_pair_sums(*case)
    half = slice(1, None, 2)
    assert _expanded_boxes(targets[half]) == _expanded_boxes(targets)
    for got, want in zip(cauchy_pair_sums(nodes, coef_hi, coef_lo,
                                          targets[half]), full):
        assert got.tobytes() == want[half].tobytes()
    # a product sums at most ``rows`` targets over every node: 4 rows + 1
    # of them are cut into five equal parts, not four and a lone row,
    # which numpy would multiply by BLAS's matrix-vector routine
    rows = kernel._BLOCK // nodes.size
    few = slice(0, 4 * rows + 1)
    assert _expanded_boxes(targets[few]) == 0
    sparse = cauchy_pair_sums(nodes, coef_hi, coef_lo, targets[few])
    for got, want, coef in zip(sparse, full, (coef_hi, coef_lo)):
        _, scale = _explicit_and_scale(nodes, coef, targets[few])
        assert np.all(np.abs(got - want[few]) <= 1e-15 * scale)
    for got, want in zip(cauchy_pair_sums(nodes, coef_hi, coef_lo,
                                          targets[1:4 * rows + 1]), sparse):
        assert got.tobytes() == want[1:].tobytes()


def test_field_does_not_depend_on_the_blas_thread_count():
    # every product stays below OpenBLAS's threading threshold, so a
    # 60x60 k_pp field (five mesh levels, up to 3435 nodes) is the same
    # bit for bit on one BLAS thread and on two
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from qpdiff import contour, grid_eval\n"
        "from qpdiff.quadrature import QuadratureConfig\n"
        "from qpdiff.whfactor import PP\n"
        "spec = contour.default_contour(3.0)\n"
        "x = np.linspace(-1.0, 1.0, 60)\n"
        "y = np.linspace(-0.3, 0.3, 60)\n"
        "z = x[None, :] + 1j * y[:, None]\n"
        "v, ok = grid_eval.factor_field(PP, contour.contour_point(spec, 30.0),\n"
        "                               z, 3.0, spec, QuadratureConfig())\n"
        "print(hashlib.sha256(v.tobytes() + ok.tobytes()).hexdigest())\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        env.pop("OMP_NUM_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]
