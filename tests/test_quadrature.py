"""Adaptive GK engine: accuracy, budgets, the mapped coordinate."""

import dataclasses

import numpy as np
import pytest

from qpdiff.contour import A_REF, C_REF, K_REF, ContourSpec, ShiftedContour
from qpdiff.errors import DomainError, QuadratureError
from qpdiff.quadrature import (_WIDTHS, QuadratureConfig, _padded, _refine,
                               _s_of_u, _starting_mesh, _u_of_s,
                               integrate_over_shifted)


def _staged(f):
    """``f(s, owner)`` as a staged integrand with no shared node stage."""
    return f, lambda data, owner: data, None


def _one(fvec, edges, cfg):
    """``_refine`` for one integral of ``fvec(s)`` on the mesh ``edges``."""
    value, error, n_evals, n_panels = _refine(
        _staged(lambda s, owner: fvec(s)), edges[None, :], cfg)
    return complex(value[0]), float(error[0]), int(n_evals[0]), int(n_panels[0])


def _cauchy(density, shifted, targets, s_star, cfg, extra_breaks):
    """``integrate_over_shifted`` of a plain ``density(z, j)``."""
    return integrate_over_shifted(
        (lambda z, j: (density(z, j),), lambda data, owner: data[0]),
        shifted, np.asarray(targets, dtype=np.complex128), s_star, cfg,
        extra_breaks)


def _mesh(scale, breaks=()):
    """One adaptive integral's starting mesh, as ``integrate_over_shifted``
    builds it for a batch of one."""
    edges = _starting_mesh((0.0, 0.0), scale,
                           max(0.25 * scale, (2.0 + scale) / 7.0),
                           4.0 * scale, [breaks])[0]
    return edges[~np.isnan(edges)]


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-10
        assert cfg.rel_tol == 1e-8
        assert cfg.max_subdivisions == 60

    @pytest.mark.parametrize("kw", [
        {"abs_tol": 0.0}, {"rel_tol": -1e-9}, {"s_max": 1e4},
        {"max_subdivisions": 0}, {"tail_policy": "truncate"},
        {"abs_tol": np.nan}, {"rel_tol": np.nan}, {"rel_tol": np.inf},
        {"abs_tol": -np.inf},
    ])
    def test_invalid_rejected(self, kw):
        # the truncation knobs are gone: no integral is cut off
        removed = {"s_max", "tail_policy"} & kw.keys()
        with pytest.raises(TypeError if removed else DomainError):
            QuadratureConfig(**kw)

    def test_with_override(self):
        cfg = dataclasses.replace(QuadratureConfig(), rel_tol=1e-12)
        assert cfg.rel_tol == 1e-12
        assert cfg.abs_tol == 1e-10
        with pytest.raises(DomainError):  # a replaced field is checked too
            dataclasses.replace(cfg, abs_tol=0.0)


class TestEngine:
    def test_smooth_integral(self, cfg):
        val, err, _, _ = _one(np.exp, np.array([0.0, 1.0]), cfg)
        assert val == pytest.approx(np.e - 1.0, abs=1e-13)
        assert err < 1e-10

    def test_oscillatory_integral(self, cfg):
        # int_0^10 exp(50 i x) dx, highly oscillatory on the coarse mesh
        exact = (np.exp(500j) - 1.0) / 50j
        val, err, _, _ = _one(lambda x: np.exp(50j * x),
                              np.array([0.0, 10.0]), cfg)
        assert abs(val - exact) < 1e-9

    def test_near_singular_peak(self, cfg):
        # Lorentzian of width 1e-3 hidden inside a wide panel mesh
        w = 1e-3
        val, err, _, _ = _one(
            lambda x: w / (w ** 2 + (x - 0.3) ** 2),
            np.array([-50.0, -1.0, 1.0, 50.0]), cfg)
        exact = np.arctan((50 - 0.3) / w) + np.arctan((50 + 0.3) / w)
        assert abs(val - exact) < 1e-8

    def test_subdivision_limit_raises(self):
        cfg = QuadratureConfig(max_subdivisions=3)
        with pytest.raises(QuadratureError):
            _one(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                 np.array([-1.0, 1.0]), cfg)

    def test_bad_edges_rejected(self, cfg):
        with pytest.raises(DomainError):
            _one(np.exp, np.array([1.0, 0.0]), cfg)

    def test_batch_refines_each_integral_as_alone(self, cfg):
        # Lorentzians of very different sizes and widths on different
        # meshes: a tolerance or stopping rule shared across the batch
        # would change the panels of some of them
        height = np.array([1e-6, 1.0, 1e3, 1e-3, 2e-9])
        width = np.array([1e-3, 0.2, 1e-2, 5e-2, 3e-4])
        centre = np.array([0.3, -2.0, 7.5, 0.0, -0.45])

        def f(s, owner):
            return height[owner] * width[owner] / (
                width[owner] ** 2 + (s - centre[owner]) ** 2)

        edges = [np.array([-50.0, -1.0, 1.0, 50.0]), np.array([-9.0, 9.0]),
                 np.linspace(-20.0, 20.0, 7), np.array([-1.0, 0.5, 3.0]),
                 np.array([-2.0, 2.0])]
        values, errors, n_evals, n_panels = _refine(_staged(f), _padded(edges),
                                                    cfg)
        for j, mesh in enumerate(edges):
            one = _refine(_staged(lambda s, owner: f(s, np.full(s.shape, j))),
                          mesh[None, :], cfg)
            assert (n_evals[j], n_panels[j]) == (one[2][0], one[3][0])
            assert values[j] == one[0][0] and errors[j] == one[1][0]


class TestShiftedContourIntegrals:
    def test_cauchy_residue_value(self, contour3, cfg):
        # int 1/(z^2+9) dz along the real-ish contour equals pi/3 (arctan
        # limits), independent of indentation; its s^-2 tails are
        # integrated whole, not cut off.  The density (z - t)/(z^2 + 9)
        # cancels the Cauchy factor of the target t.
        shifted, t = ShiftedContour(contour3, -0.2), 0.5j
        res = _cauchy(lambda z, j: (z - t) / (z * z + 9.0), [shifted], [t],
                      [0.0], cfg, [()])
        value, error = complex(res.value[0]), float(res.error[0])
        assert abs(value - np.pi / 3) < 1e-12
        assert error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))

    def test_pair_cancellation_for_odd_kernel(self, contour3, cfg):
        # Cauchy-type integrand: closing below leaves the residue at -4i
        shifted = ShiftedContour(contour3, -0.2)
        res = _cauchy(lambda z, j: 1.0 / (z * z + 16.0), [shifted], [0.5j],
                      [0.0], cfg, [()])
        assert abs(res.value[0] - 2j * np.pi / 36.0) < 1e-12

    def test_shared_node_stage(self, contour3, cfg):
        # integrals 0 and 2 share their target and shift, 1 only the
        # target, 3 only the shift; 2 also has a break of its own.  The
        # shared node stage changes neither a value nor the refinement.
        offset = np.array([-0.2, 0.2, -0.2, -0.2])
        targets = np.array([0.5j, 0.5j, 0.5j, 1.0 + 0.5j])
        shifted = [ShiftedContour(contour3, o) for o in offset]
        breaks = [[], [], [0.3], []]
        weight = np.array([1.0, 2.0, -3.0, 0.5j])
        nodes, seen = [], []

        def node(z, j):
            nodes.append(z.size)
            seen.append(set(j))
            return (1.0 / (z * z + 16.0),)

        def member(data, owner):
            return weight[owner] * data[0]

        res = integrate_over_shifted((node, member), shifted, targets,
                                     np.zeros(4), cfg, breaks)
        alone = [_cauchy(lambda z, j, c=c: c / (z * z + 16.0), [sh], [t],
                         [0.0], cfg, [b])
                 for sh, t, c, b in zip(shifted, targets, weight, breaks)]
        for value, one in zip(res.value, alone):
            assert abs(value - one.value[0]) <= 1e-14 * abs(one.value[0])
        assert res.n_evals == sum(one.n_evals for one in alone)
        assert res.n_panels == sum(one.n_panels for one in alone)
        assert sum(nodes) < 0.8 * res.n_evals
        assert seen[0] == {0, 1, 3}  # the first round: every panel


def test_default_edges_cover_truncation(k3):
    # the mesh covers the whole line: -+2S are the mapped -+infinity, and
    # a break anywhere on the line is kept, mapped
    edges = _mesh(k3)
    big = 0.5 * edges[-1]
    assert edges[0] == -2.0 * big and big >= 4.0 * k3
    assert 0.0 in edges
    assert np.all(np.diff(edges) > 0)
    edges2 = _mesh(k3, [2.3, -55.0, 2e4])
    assert 2.3 in edges2
    assert _u_of_s(-55.0, big) in edges2 and _u_of_s(2e4, big) in edges2


def test_mapped_coordinate_round_trip():
    big = 12.0
    s = np.array([-2e4, -13.0, -12.0, -3.0, 0.0, 5.5, 12.0, 40.0, 1e3])
    u = _u_of_s(s, big)
    assert np.all(np.abs(u) < 2.0 * big) and np.all(np.diff(u) > 0)
    back, ds_du = _s_of_u(u, big)
    assert np.allclose(back, s, rtol=1e-12, atol=0.0)
    assert np.array_equal(u[np.abs(s) <= big], s[np.abs(s) <= big])
    # a node rounded onto the mapped infinity still maps to a finite s
    ends, _ = _s_of_u(np.array([-2.0 * big, 2.0 * big]), big)
    assert np.all(np.isfinite(ends)) and ends[0] < -1e15 and ends[1] > 1e15
    # ds/du by central differences, continuous through u = -+S
    h = 1e-6
    for x in (-20.0, -12.0, 3.0, 12.0, 23.9):
        diff = (_s_of_u(np.array(x + h), big)[0]
                - _s_of_u(np.array(x - h), big)[0]) / (2 * h)
        assert abs(diff - _s_of_u(np.array(x), big)[1]) < 1e-6 * abs(diff)


@pytest.mark.parametrize("scale, s_max", [
    (3.0, 10.0), (3.0, 5.0), (3.0, 12.0), (3.0, 0.1), (30.0, 100.0),
    (0.5, 7.0), (3.0, 1e4), (30.0, 1e4), (0.7, 1e4)])
def test_starting_mesh_stops_at_s_max(scale, s_max):
    # s_max, where integrals were once cut off, is now an ordinary break:
    # it and 2 s_max are kept, and the mesh stops at the mapped infinity
    base = _mesh(scale)
    big = 0.5 * base[-1]
    edges = _mesh(scale, [0.3 * s_max, 2 * s_max])
    assert edges[0] == -2.0 * big and edges[-1] == 2.0 * big
    assert np.all(np.diff(edges) > 0)
    assert np.isin(_u_of_s(np.array([0.3, 2.0]) * s_max, big), edges).all()
    # the base mesh: uniform at spacing <= max(scale/4, pad/7) through
    # the indentation +-pad, pad = 2 + scale, a walk growing by at most
    # 1.7 out to S >= 4 scale, and one mapped panel [S, 2S] on each side
    pad = 2.0 + scale
    uniform = base[np.abs(base) <= pad]
    assert uniform[0] == -pad and uniform[-1] == pad
    assert np.diff(uniform).max() <= max(0.25 * scale, pad / 7) * (1 + 1e-12)
    assert 8 <= uniform.size - 1 <= 15
    walk = base[(base >= pad) & (base <= big)]
    assert big >= 4.0 * scale and np.all(walk[1:] / walk[:-1] <= 1.7)
    assert base[1] == -big and base[-2] == big


def test_batch_meshes_are_sorted_unique_unions(monkeypatch, contour3, k3, cfg):
    # every integral of a batch starts on the sorted unique union of the
    # base mesh and its breaks, mapped
    import qpdiff.quadrature as quad
    import qpdiff.whfactor as wh
    from qpdiff.contour import contour_point
    from qpdiff.farfield import AnsatzEvaluator, make_incidence

    batches, pending = [], []
    original, panel_sums = wh.integrate_over_shifted, quad._panel_sums

    def spy(density, shifted, targets, s_star, cfg_, extra_breaks):
        batches.append(([np.concatenate(
            [[s], s + abs(sh.offset) * _WIDTHS, s - abs(sh.offset) * _WIDTHS,
             np.asarray(b, dtype=np.float64)])
            for s, sh, b in zip(s_star, shifted, extra_breaks)],))
        pending.append(len(batches) - 1)
        return original(density, shifted, targets, s_star, cfg_, extra_breaks)

    def first_panels(fvec, lo, hi, owner):
        if pending:  # the first call of a batch sees its starting panels
            batches[pending.pop()] += (lo.copy(), hi.copy(), owner.copy())
        return panel_sums(fvec, lo, hi, owner)

    monkeypatch.setattr(wh, "integrate_over_shifted", spy)
    monkeypatch.setattr(quad, "_panel_sums", first_panels)
    AnsatzEvaluator(make_incidence(np.pi / 4, -3 * np.pi / 4, k3)).arc_sweep(
        np.pi / 4, 21)
    # a continuation constant off the default contour is a batch of its own
    # only when it is measured here, not taken from the cache
    wh._measured_constant.cache_clear()
    wh.continuation_constant(wh.PP, ContourSpec(a=2 * A_REF, c=C_REF / 3), cfg)
    # |alpha1| > 4 K_REF adds the hump breaks; the last batch has a repeated
    # break, base points and breaks in both mapped tails
    wh.quarter_factor(wh.PP, contour_point(contour3, 20.0) + 0.5j,
                      contour_point(contour3, np.array([1.0, 1.0])) + 0.5j,
                      k3, contour3, cfg)
    shifted = ShiftedContour(contour3, -0.2)
    wh.integrate_over_shifted(
        (lambda z, j: (1.0 / (z * z + 9.0),), lambda data, owner: data[0]),
        [shifted, shifted], np.array([0.5j, 2.0j]), [0.5, 2.0], cfg,
        [[0.5, k3, -k3 / 8, 2e4, -1e4, -2e4], []])
    assert not pending

    humps = repeats = 0
    # every batch starts on the K_REF mesh, whatever its caller
    base = _mesh(K_REF)
    for breaks, lo, hi, owner in batches:
        assert np.array_equal(owner, np.sort(owner))
        for j, b in enumerate(breaks):
            big = 0.5 * base[-1]
            want = np.unique(np.concatenate([base, _u_of_s(b, big)]))
            assert np.array_equal(lo[owner == j], want[:-1])
            assert np.array_equal(hi[owner == j], want[1:])
            humps += np.any(np.abs(b) > big)
            repeats += (np.unique(b).size < b.size
                        or np.isin(_u_of_s(b, big), base).any())
    assert len(batches) > 3 and humps and repeats
