"""Grid evaluation of quarter factors: mesh levels, mesh extent, guards."""

import collections
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from qpdiff import contour as ct
from qpdiff import grid_eval as ge
from qpdiff import whfactor as wf
from qpdiff.contour import contour_point, contour_projection
from qpdiff.whfactor import PP, FactorLabel, continue_factor


@pytest.fixture()
def alpha1(contour3):
    return contour_point(contour3, 10.0)


def _spy(monkeypatch, name, record):
    """Replace ``grid_eval.<name>`` by a pass-through that records its args."""
    original = getattr(ge, name)

    def spy(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ge, name, spy)


def test_gap_classes_settle_on_the_coarsest_mesh(monkeypatch, contour3, cfg,
                                                 k3, alpha1):
    # with close evaluation on every mesh, pixels near the contour settle
    # on the coarsest mesh as the far ones do; every class must still
    # match the scalar path
    settled = {}

    def record(nodes, coef_hi, coef_lo, targets):
        settled.update((complex(t), nodes.size) for t in targets)

    _spy(monkeypatch, "cauchy_pair_sums", record)
    x = np.linspace(-6.0, 6.0, 40)
    z = (x[None, :] + 1j * x[:, None]).ravel()
    vals, ok = ge.factor_field(PP, alpha1, z, k3, contour3, cfg)
    assert ok.all()
    gap = np.abs(contour_projection(contour3, z)[1])
    modal_nodes = []
    for lo, hi in [(0.1, 0.2), (0.2, 0.4), (0.4, 0.8), (0.8, np.inf)]:
        members = np.nonzero((gap >= lo) & (gap < hi))[0]
        assert members.size >= 4
        levels = collections.Counter(settled[complex(z[i])] for i in members)
        modal_nodes.append(levels.most_common(1)[0][0])
        for i in members[::members.size // 4][:4]:
            ref = continue_factor(PP, alpha1, z[i], k3, contour3, cfg)
            assert abs(vals[i] - ref) / abs(ref) < 1e-7
    coarsest = ge._levels(z, alpha1)[0]
    assert modal_nodes == [ge._XK.size * (coarsest.size - 1)] * 4


def test_finest_mesh_guarded_when_all_pixels_settle_coarse(monkeypatch, contour3,
                                                           cfg, alpha1):
    tracks, summed = [], []
    _spy(monkeypatch, "_check_log_track", lambda samples: tracks.append(samples.size))
    _spy(monkeypatch, "cauchy_pair_sums",
         lambda nodes, *rest: summed.append(nodes.size))
    targets = np.linspace(-6.0, 6.0, 9) + 5.0j
    vals, ok = ge.quarter_factor_grid(PP, alpha1, targets, contour3, cfg)
    assert ok.all()
    fine_edges = ge._levels(targets, alpha1)[-1]
    fine_nodes = ge._XK.size * (fine_edges.size - 1)
    assert tracks == [fine_nodes]
    assert summed and fine_nodes not in summed


_FAR = list(np.linspace(20.0, 100.0, 9) + 3j)


@pytest.mark.parametrize("targets", [[25 + 4j, 28 + 4j, 22 + 1j],
                                     [-25 + 4j, -28 + 4j],
                                     # far windows: the first tail panels
                                     # must stay narrow next to the edge
                                     [30 + 2j, 60 + 3j],
                                     [-30 + 2j, -60 + 3j],
                                     _FAR,
                                     [-z.conjugate() for z in _FAR]])
def test_window_excluding_zero_needs_no_fallback(monkeypatch, contour3, cfg, k3,
                                                 alpha1, targets):
    fallbacks = []
    _spy(monkeypatch, "quarter_factor", lambda *args: fallbacks.append(args[2]))
    vals, ok = ge.factor_field(PP, alpha1, np.array(targets), k3, contour3, cfg)
    assert ok.all()
    assert fallbacks == []
    for z, v in zip(targets, vals):
        ref = continue_factor(PP, alpha1, z, k3, contour3, cfg)
        assert abs(v - ref) / abs(ref) < 1e-7


def test_tall_window_needs_no_fallback(monkeypatch, contour3, cfg, k3, alpha1):
    # the walks reach twice the largest |target|, not only the largest
    # |Re|: the mapped tail panels stay accurate for targets far above
    # the contour, and nothing is cut off
    fallbacks = []
    _spy(monkeypatch, "quarter_factor", lambda *args: fallbacks.append(args[2]))
    targets = np.array([-5.0 + 60.0j, -1.0 + 55.0j, 0.5 + 30.0j, 6.0 + 45.0j])
    vals, ok = ge.factor_field(PP, alpha1, targets, k3, contour3, cfg)
    assert ok.all()
    assert fallbacks == []
    fine = dataclasses.replace(cfg, abs_tol=1e-15, rel_tol=1e-13)
    ref = wf.quarter_factor(PP, alpha1, targets, k3, contour3, fine)
    assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-12


def _window(contour, name, n=24):
    """alpha1 and an n x n pixel window: far off the origin, small, far
    out along the contour just above it."""
    if name == "far":
        x, y = np.linspace(20.0, 30.0, n), np.linspace(-3.0, 3.0, n)
        return contour_point(contour, 10.0), x[None, :] + 1j * y[:, None]
    if name == "small":
        x, y = np.linspace(-1.0, 1.0, n), np.linspace(-0.3, 0.3, n)
        return contour_point(contour, 30.0), x[None, :] + 1j * y[:, None]
    return (contour_point(contour, 40.0),
            contour_point(contour, np.linspace(30.0, 50.0, n))[None, :]
            + 1j * np.linspace(0.1, 3.0, n)[:, None])


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0])
@pytest.mark.parametrize("name", ["far", "small", "above"])
def test_windows_settle_by_the_second_level(monkeypatch, contour3, cfg, name,
                                            k):
    # every level bisects the whole mesh, the walk and tails too, so the
    # density's far reaches are resolved as the window's part is; no
    # pixel gets past the second level or falls back to the adaptive
    # rule, and every one matches a tight adaptive reference.  The grid
    # runs at K_REF, so the window scaled by k / 3 sums the same levels in
    # every grid call at every k
    def levels(k):
        contour = ct.default_contour(k)
        alpha1, targets = _window(contour3, name)
        alpha1, targets = alpha1 * (k / 3.0), targets * (k / 3.0)
        calls.clear()
        vals, ok = ge.factor_field(PP, alpha1, targets, k, contour, cfg)
        assert ok.all() and fallbacks == []
        fine = dataclasses.replace(cfg, abs_tol=1e-15, rel_tol=1e-13)
        ref = continue_factor(PP, alpha1, targets, k, contour, fine)
        assert np.max(np.abs(vals - ref) / np.abs(ref)) < 1e-10
        return [len(sizes) for sizes in calls]

    calls, fallbacks = [], []
    _spy(monkeypatch, "quarter_factor_grid", lambda *args: calls.append([]))
    _spy(monkeypatch, "cauchy_pair_sums",
         lambda nodes, *rest: calls[-1].append(nodes.size))
    _spy(monkeypatch, "quarter_factor", lambda *args: fallbacks.append(args[2]))
    summed = levels(k)
    assert summed and all(1 <= n <= 2 for n in summed)
    assert summed == levels(3.0)


@pytest.mark.parametrize("name", ["far", "small", "above"])
def test_each_level_bisects_the_one_before(contour3, name):
    # the coarsest level is the shared starting-mesh builder's, with the
    # adaptive rule's hump breaks where |alpha1| > 4 K_REF; each further
    # level keeps every edge and adds every panel's midpoint
    alpha1, targets = _window(contour3, name)
    flat = targets.ravel()
    levels = ge._levels(flat, alpha1)
    assert len(levels) == ge._COARSEST.bit_length()
    humps = abs(alpha1) * wf._HUMP if abs(alpha1) > 4 * ct.K_REF else ()
    coarsest = ge._starting_mesh((flat.real.min(), flat.real.max()), ct.K_REF,
                                 ge._COARSEST * ge._H_FINE,
                                 2.0 * np.abs(flat).max(), [humps])[0]
    assert np.array_equal(levels[0], coarsest[~np.isnan(coarsest)])
    for coarse, fine in zip(levels, levels[1:]):
        assert fine.size == 2 * coarse.size - 1
        assert np.array_equal(fine[::2], coarse)
        assert np.all((coarse[:-1] < fine[1::2]) & (fine[1::2] < coarse[1:]))


@pytest.mark.parametrize("re_lo, re_hi", [(22.0, 28.0), (-28.0, -25.0),
                                          (-6.0, 6.0), (5.0, 5.0)])
def test_mesh_spans_window_and_indentation(alpha1, re_lo, re_hi):
    # the whole line on every level: the walks reach twice the largest
    # |target|, and mapped panels from S to 2S cover each tail beyond S;
    # each level halves the spacing, down to _H_FINE on the finest
    pad = 2.0 + ct.K_REF
    levels = ge._levels(np.array([re_lo, re_hi]), alpha1)
    assert len(levels) == 5
    big = 0.5 * levels[0][-1]
    assert big >= 2.0 * max(abs(re_lo), abs(re_hi))
    lo, hi = min(re_lo - pad, -pad), max(re_hi + pad, pad)
    for n, edges in enumerate(levels):
        assert edges[0] == -2.0 * big and edges[-1] == 2.0 * big
        assert -big in edges and big in edges
        assert np.all(np.diff(edges) > 0)
        walk = edges[(np.abs(edges) >= pad) & (np.abs(edges) <= big)]
        assert np.all(np.abs(walk[1:] / walk[:-1]) <= 1.7 * (1 + 1e-12))
        uniform = edges[(edges >= lo) & (edges <= hi)]
        assert uniform[0] == lo and uniform[-1] == hi
        h = ge._COARSEST * ge._H_FINE / 2 ** n
        assert np.diff(uniform).max() <= h * (1 + 1e-12)


@pytest.mark.parametrize("re_lo, re_hi", [(22.0, 28.0), (-28.0, -25.0),
                                          (-6.0, 6.0), (5.0, 5.0)])
def test_mesh_equals_unique_of_its_edges(alpha1, re_lo, re_hi):
    # the coarsest level is the sorted unique union of the base edges and
    # the mapped breaks; the walks start on the uniform part's end points,
    # so equal edges are always there to drop
    from qpdiff.quadrature import _base_edges, _u_of_s
    span = np.array([re_lo, re_hi])
    base, big = _base_edges((re_lo, re_hi), ct.K_REF, ge._COARSEST * ge._H_FINE,
                            2.0 * np.abs(span).max())
    breaks = wf._hump_breaks(np.array([alpha1]))[0]
    joined = np.concatenate([base, _u_of_s(breaks, big)])
    edges = ge._levels(span, alpha1)[0]
    assert joined.size > edges.size
    want = np.unique(joined)
    assert edges.dtype == want.dtype and edges.tobytes() == want.tobytes()


def test_portrait_job_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, inside the timed job
    script = (
        "import sys\n"
        "from qpdiff import contour, portrait\n"
        "spec = contour.default_contour(3.0)\n"
        "p = portrait.PortraitSpec(window=(-6, 6, -6, 6), resolution=(20, 20),\n"
        "    function='k_pp', params=(('k', 3.0),\n"
        "    ('alpha1', contour.contour_point(spec, 10.0))))\n"
        "portrait.render(p, contour=spec)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_product_rule_on_curved_panel():
    # one parabolic panel, an analytic density, targets from 1e-10 to 2
    # half-widths off the panel on both sides, and one target between
    # the panel and its chord (where p_0 takes the -2 pi i correction)
    mp = pytest.importorskip("mpmath")
    c0, half, bend = 0.2 + 0.1j, 0.05 * np.exp(0.3j), 0.3

    def panel(x):
        return c0 + half * (x + 1j * bend * (1 - x * x))

    def tangent(x):
        return half * (1 - 2j * bend * x)

    u = ((panel(ge._XK) - c0) / half)[None, :]
    density = np.exp(panel(ge._XK)) / (panel(ge._XK) - 3.0)
    cases = [(0.0, c0 + 0.5j * bend * half)]
    for x in (-0.7, 0.0, 0.95):
        normal = 1j * tangent(x) / abs(tangent(x))
        for d in (1e-10, 1e-4, 0.1, 1.0, 2.0):
            cases += [(x, panel(x) + side * normal * d * abs(half))
                      for side in (1.0, -1.0)]
    targets = np.array([t for _, t in cases])
    u0 = (targets - c0) / half
    kronrod, gauss = ge._product_rule(u, density[None, :],
                                      np.zeros(targets.size, dtype=int), u0)

    zc, hc = mp.mpc(c0), mp.mpc(half)
    for (x, t), k_val, g_val in zip(cases, kronrod, gauss):
        def integrand(s, t=mp.mpc(t)):
            z = zc + hc * (s + 1j * bend * (1 - s * s))
            return mp.exp(z) / (z - 3) * hc * (1 - 2j * bend * s) / (z - t)

        with mp.workdps(20):
            ref = complex(mp.quad(integrand, sorted({-1.0, x, 1.0})))
        assert abs(k_val - ref) < 1e-12 * abs(ref)
        assert abs(g_val - ref) < 1e-12 * abs(ref)


#: (midpoint, half-difference, bend) of three parabolic panels
_PANELS = [(0.2 + 0.1j, 0.05 * np.exp(0.3j), 0.3),
           (-1.0 + 0.4j, 0.04 * np.exp(-0.5j), -0.2),
           (0.7 - 0.6j, 0.02 * np.exp(1.2j), 0.1)]


def _on_panel(n, x):
    c0, half, bend = _PANELS[n]
    return c0 + half * (x + 1j * bend * (1 - x * x))


def _panel_rows():
    """``u`` and ``density`` rows of the three panels, for ``_product_rule``."""
    z = np.array([_on_panel(n, ge._XK) for n in range(len(_PANELS))])
    c0, half = (np.array([p[i] for p in _PANELS])[:, None] for i in (0, 1))
    return (z - c0) / half, np.exp(z) / (z - 3.0)


def test_product_rule_on_three_curved_panels():
    # the mpmath check of one curved panel, on three panels whose pairs
    # come interleaved in one call: targets from 1e-10 to 2 half-widths
    # off each panel on both sides, and one between panel and chord
    mp = pytest.importorskip("mpmath")
    cases = []
    for n, (c0, half, bend) in enumerate(_PANELS):
        cases.append((n, 0.0, c0 + 0.5j * bend * half))
        for x in (-0.7, 0.95):
            normal = 1j * half * (1 - 2j * bend * x)
            normal /= abs(normal)
            cases += [(n, x, _on_panel(n, x) + side * normal * d * abs(half))
                      for d in (1e-10, 0.5, 2.0) for side in (1.0, -1.0)]
    cases = [cases[i] for i in np.random.default_rng(3).permutation(len(cases))]
    panel = np.array([n for n, _, _ in cases])
    targets = np.array([t for _, _, t in cases])
    c0, half = (np.array([_PANELS[n][i] for n in panel]) for i in (0, 1))
    u, density = _panel_rows()
    kronrod, gauss = ge._product_rule(u, density, panel, (targets - c0) / half)
    for (n, x, t), k_val, g_val in zip(cases, kronrod, gauss):
        zc, hc, bend = (mp.mpc(v) for v in _PANELS[n])

        def integrand(s, t=mp.mpc(t)):
            z = zc + hc * (s + 1j * bend * (1 - s * s))
            return mp.exp(z) / (z - 3) * hc * (1 - 2j * bend * s) / (z - t)

        with mp.workdps(20):
            ref = complex(mp.quad(integrand, sorted({-1.0, x, 1.0})))
        assert abs(k_val - ref) < 1e-12 * abs(ref)
        assert abs(g_val - ref) < 1e-12 * abs(ref)


def test_product_rule_works_pair_by_pair():
    # a pair's values depend on its panel and u0 alone: a subset, a
    # permutation and single pairs give the full call's values bit for
    # bit, however the pairs fall into the blocks of _PAIRS
    rng = np.random.default_rng(28)
    u, density = _panel_rows()
    n = 3 * ge._PAIRS + 7
    panel = rng.integers(0, len(_PANELS), n)
    u0 = (2.0 * np.sqrt(rng.uniform(0.0, 1.0, n))
          * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
    u0[::50] = u[panel[::50], 5] + 1e-9j  # next to a node
    u0[1::50] = 0.3 + 0.5j * u[panel[1::50], 7].imag  # between panel and chord
    whole = ge._product_rule(u, density, panel, u0)
    subset = rng.choice(n, 500, replace=False)
    for pick in (subset, rng.permutation(n), np.arange(n)[::-1]):
        got = ge._product_rule(u, density, panel[pick], u0[pick])
        for part, ref in zip(got, whole):
            assert part.tobytes() == ref[pick].tobytes()
    for i in range(0, n, 97):
        got = ge._product_rule(u, density, panel[i:i + 1], u0[i:i + 1])
        assert [part.tobytes() for part in got] == [ref[i:i + 1].tobytes()
                                                    for ref in whole]


def test_near_set_is_exact(monkeypatch, contour3, alpha1):
    # targets just inside and just outside |u0| = _NEAR around several
    # panels, twelve directions each and none on the contour: the pairs
    # that reach _product_rule are those of dividing every pair, bitwise
    x = np.linspace(-6.0, 6.0, 40)
    window = (x[None, :] + 1j * x[:, None]).ravel()
    shifted = wf._shifted_for(contour3, PP.side2, ge._EPS)
    got, want = [], []
    _spy(monkeypatch, "_product_rule", lambda u, d, panel, u0: got.append(u0))
    for edges in ge._levels(window, alpha1)[::4]:
        ends = shifted.point(ge._s_of_u(edges[1:-1], 0.5 * edges[-1])[0])
        c, h = 0.5 * (ends[1:] + ends[:-1]), 0.5 * (ends[1:] - ends[:-1])
        mid = np.flatnonzero(np.abs(c) < 4.0)[::3]
        turn = h[mid, None] / np.abs(h[mid, None]) * np.exp(
            2j * np.pi * (np.arange(12) + 0.5) / 12)
        rings = [c[mid, None] + ge._NEAR * np.abs(h[mid, None]) * f * turn
                 for f in (1 - 1e-12, 1 + 1e-12)]
        targets = np.concatenate([window] + [r.ravel() for r in rings])
        sampled = ge._sample_density(PP, alpha1, shifted, edges, guard=False)
        assert np.abs(targets[:, None] - sampled[0][0][None, :]).min() > 1e-4
        ge._close_pair_sums(*sampled, ends, targets)
        u = (targets[:, None] - c[None, :]) / h[None, :]
        want.append(u[np.abs(u) < ge._NEAR])
        assert np.sum((np.abs(u) < ge._NEAR) & (np.abs(u) > 1.99)) >= 12 * mid.size

    def multiset(values):
        values = np.concatenate(values)
        return values[np.lexsort((values.imag, values.real))].tobytes()

    assert len(got) == 2 and multiset(got) == multiset(want)


@pytest.mark.parametrize("tag", ["pp", "pm", "mp", "mm"])
def test_band_needs_no_fallback(monkeypatch, contour3, cfg, k3, tag):
    # targets with |gap| < 2 h_fine, on the contour and over the finest
    # mesh's panel edges, on both sides: close evaluation, no scalar path
    label = FactorLabel(tag)
    alpha1 = (0.8 + 0.9j) * label.sign1
    ends = np.array([-4.0, 4.0])
    edges = ge._levels(contour_point(contour3, ends).real, alpha1)[-1]
    inner = edges[np.abs(edges) < 3.5]
    s = np.concatenate([ends, inner[::23], inner[::23] + 0.3 * ge._H_FINE,
                        [-0.6, 0.0, 1.7]])
    base = contour_point(contour3, s)
    targets = np.concatenate(
        [base + 1j * gap for gap in (0.0, 0.03, -0.03, 0.099, -0.099)])
    gaps = contour_projection(contour3, targets)[1]
    assert np.all(np.abs(gaps) < 2.0 * ge._H_FINE)
    assert np.sum(np.abs(gaps) < 1e-10) == s.size

    fallbacks, close, finest, summed = [], [], [], []
    _spy(monkeypatch, "quarter_factor", lambda *args: fallbacks.append(args[2]))
    _spy(monkeypatch, "_product_rule", lambda *args: close.append(args[3].size))
    _spy(monkeypatch, "_check_log_track",
         lambda samples: finest.append(samples.size))
    _spy(monkeypatch, "cauchy_pair_sums",
         lambda nodes, *rest: summed.append((finest[-1], nodes.size)))
    vals, ok = ge.factor_field(label, alpha1, targets, k3, contour3, cfg)
    assert ok.all()
    assert fallbacks == []
    assert close
    # each grid call guards its finest mesh before summing; no band
    # target is summed on it
    assert summed and all(fine != n for fine, n in summed)
    for z, v in zip(targets, vals):
        ref = continue_factor(label, alpha1, z, k3, contour3, cfg)
        assert abs(v - ref) < 1e-7 * abs(ref)


def test_each_target_is_projected_once(monkeypatch, contour3, cfg, k3, alpha1):
    x = np.linspace(-6.0, 6.0, 12)
    targets = (x[None, :] + 1j * x[:, None]).ravel()
    sides = ct.side_sign(contour3, targets)
    assert (sides > 0).any() and (sides < 0).any()
    projected = []
    original = ct.contour_projection

    def spy(spec, z, *args, **kwargs):
        projected.append(np.size(z))
        return original(spec, z, *args, **kwargs)

    for module in (ct, ge, wf):
        if hasattr(module, "contour_projection"):
            monkeypatch.setattr(module, "contour_projection", spy)
    vals, ok = ge.factor_field(PP, alpha1, targets, k3, contour3, cfg)
    assert ok.all()
    assert sum(projected) == targets.size + 1  # every target, and alpha1


def test_rescue_pixels_are_one_adaptive_batch(monkeypatch, contour3, cfg, k3,
                                              alpha1):
    # with a single mesh level and a zero relaxed tolerance every pixel is
    # a finest-mesh reject: all of them go to the adaptive rule at once
    monkeypatch.setattr(ge, "_COARSEST", 1)
    monkeypatch.setattr(ge, "_TOL_RELAX", 0.0)
    calls = []
    _spy(monkeypatch, "quarter_factor", lambda *args: calls.append(args[2]))
    targets = np.linspace(-4.0, 4.0, 7) + 4.0j
    vals, ok = ge.quarter_factor_grid(PP, alpha1, targets, contour3, cfg)
    assert ok.all()
    assert len(calls) == 1 and np.array_equal(calls[0], targets)
    wf._integral_memo.clear()  # the pixels alone integrate again
    for z, v in zip(targets, vals):
        assert v == wf.quarter_factor(PP, alpha1, z, k3, contour3, cfg)
