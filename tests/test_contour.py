"""Indented contours: parametrisation, side classification, diagnostics."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdiff import contour as ct
from qpdiff.errors import ContourError, DomainError, NonFiniteInputError


class TestParametrisation:
    def test_passes_through_origin(self, contour3):
        assert ct.contour_point(contour3, 0.0) == 0.0

    def test_asymptotically_real(self, contour3):
        s = 1e6
        assert abs(ct.contour_point(contour3, s) - s) < 1e-6
        # and already at |s| = 1e3 with the reference constants
        for sgn in (-1.0, 1.0):
            assert abs(ct.contour_point(contour3, sgn * 1e3) - sgn * 1e3) < 1e-6

    def test_indentation_signs_near_branch_points(self, contour3):
        # above the axis approaching -k, below it approaching +k
        assert np.imag(ct.contour_point(contour3, -3.0)) > 0
        assert np.imag(ct.contour_point(contour3, 3.0)) < 0

    def test_derivative_matches_finite_difference(self, contour3, rng):
        for s0 in rng.uniform(-8, 8, 12):
            h = 1e-6
            fd = (ct.contour_point(contour3, s0 + h)
                  - ct.contour_point(contour3, s0 - h)) / (2 * h)
            assert ct.contour_derivative(contour3, s0) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("k", [3.0, 30.0])
    def test_real_fourth_power_is_bit_identical_to_complex_power(self, k, rng):
        # A(s) and A'(s) with s^4 taken as the complex power of s; a
        # scalar's reference is its entry of the array call
        spec = ct.default_contour(k)

        def point(s):
            return s + s / (spec.a * (s.astype(np.complex128) ** 4 + spec.c))

        def derivative(s):
            s4 = s.astype(np.complex128) ** 4
            return 1.0 + (spec.c - 3.0 * s4) / (spec.a * (s4 + spec.c) ** 2)

        s = np.concatenate([rng.uniform(-1e6, 1e6, 2000),
                            rng.choice([-1.0, 1.0], 2000) * 10 ** rng.uniform(-8, 6, 2000),
                            np.linspace(-60.0, 60.0, 1201), [0.0, -0.0, 1e6, -1e6]])

        def bits(v):
            return np.asarray(v, dtype=np.complex128).tobytes()

        for mine, ref in ((ct.contour_point, point), (ct.contour_derivative, derivative)):
            whole = ref(s)
            assert bits(mine(spec, s)) == bits(whole)
            for v, entry in zip(s[::40], whole[::40]):
                for arg in (float(v), np.float64(v), np.array(v)):
                    assert bits(mine(spec, arg)) == bits(entry)

    def test_scalar_is_a_batch_of_one(self, contour3, rng):
        # a scalar parameter rounds as its entry of an array call does,
        # not as numpy's scalar arithmetic would
        s = rng.uniform(-300.0, 300.0, 500)
        for f in (ct.contour_point, ct.contour_derivative):
            whole = f(contour3, s)
            assert all(isinstance(f(contour3, v), complex) for v in s[:5])
            assert np.array([f(contour3, float(v)) for v in s]).tobytes() \
                == whole.tobytes()

    def test_point_is_the_point_of_point_and_derivative(self, contour3, rng):
        # contour_point skips A'(s) but keeps the shared s^4, s^4 + c and
        # a (s^4 + c) arithmetic: its points are the pair's, bit for bit
        s = rng.uniform(-300.0, 300.0, 500)
        pair = ct._point_and_derivative(contour3, s)[0]
        assert ct.contour_point(contour3, s).tobytes() == pair.tobytes()
        assert np.array([ct.contour_point(contour3, float(v)) for v in s]).tobytes() \
            == np.array([ct._point_and_derivative(contour3, np.array([v]))[0][0]
                         for v in s]).tobytes()

    def test_batches_of_any_size_round_alike(self, contour3, rng):
        # numpy computes a product with a temporary of 256 KiB or more in
        # place, with its operands swapped; no entry may feel that
        s = rng.uniform(-300.0, 300.0, 60000)

        def bits_by_thousands(f):
            return np.concatenate([f(s[i:i + 1000])
                                   for i in range(0, s.size, 1000)]).tobytes()

        for f in (ct.contour_point, ct.contour_derivative):
            assert (f(contour3, s).tobytes()
                    == bits_by_thousands(lambda part: f(contour3, part)))
        x = np.sort(rng.uniform(-30.0, 30.0, 60000))
        whole = np.concatenate(ct._solve_projection(contour3, x))
        parts = [ct._solve_projection(contour3, x[i:i + 1000])
                 for i in range(0, x.size, 1000)]
        assert whole.tobytes() == np.concatenate(
            [np.concatenate([p[0] for p in parts]),
             np.concatenate([p[1] for p in parts])]).tobytes()

    def test_degenerate_constants_rejected(self):
        # real negative c puts a zero of a(s^4+c) on the real parameter line
        spec = ct.ContourSpec(a=0.0012, c=-1.0)
        with pytest.raises(ContourError):
            ct.contour_point(spec, 1.0)

    def test_shifted_contour(self, contour3):
        shifted = ct.ShiftedContour(contour3, +0.25)
        s = np.linspace(-3, 3, 7)
        assert np.allclose(shifted.point(s),
                           ct.contour_point(contour3, s) + 0.25j)
        with pytest.raises(DomainError):
            ct.ShiftedContour(contour3, 0.0)


class TestClassifySide:
    def test_origin_neighbours(self, contour3):
        assert ct.classify_side(contour3, 1j) == "above"
        assert ct.classify_side(contour3, -1j) == "below"

    def test_constructed_point_just_above(self, contour3):
        z = ct.contour_point(contour3, -3.0) + 1e-6j
        assert ct.classify_side(contour3, z) == "above"

    def test_on_contour(self, contour3):
        z = ct.contour_point(contour3, 1.7)
        assert ct.classify_side(contour3, z) == "on"

    def test_probe_band_at_50_parameters(self, contour3):
        delta = 1e-6
        for s in np.linspace(-10, 10, 50):
            z = ct.contour_point(contour3, s)
            assert ct.classify_side(contour3, z + 1j * delta) == "above"
            assert ct.classify_side(contour3, z - 1j * delta) == "below"

    def test_non_monotone_contour_rejected(self):
        # a = -0.5, c = 1 reverses the slope near the origin
        bad = ct.ContourSpec(a=-0.5, c=1.0)
        with pytest.raises(ContourError):
            ct.classify_side(bad, 1j)


_REF = ct.default_contour(3.0)
_re_part = st.floats(min_value=-1e4, max_value=1e4)
_im_part = st.floats(min_value=-50.0, max_value=50.0)


class TestProjection:
    @settings(max_examples=300, deadline=None)
    @given(x=_re_part, y=_im_part)
    def test_residual_within_tolerance(self, x, y):
        s_star = ct.contour_projection(_REF, complex(x, y))[0]
        resid = abs(ct.contour_point(_REF, s_star).real - x)
        assert resid <= 1e-13 * (1.0 + abs(x))

    @settings(max_examples=50, deadline=None)
    @given(xs=st.lists(_re_part, min_size=1, max_size=40),
           ys=st.lists(_im_part, min_size=40, max_size=40))
    def test_array_matches_scalar(self, xs, ys):
        z = np.array(xs) + 1j * np.array(ys[:len(xs)])
        s_arr, gap_arr = ct.contour_projection(_REF, z)
        for zi, si, gi in zip(z, s_arr, gap_arr):
            s_one, g_one = ct.contour_projection(_REF, complex(zi))
            assert abs(si - s_one) <= 1e-14 * (1.0 + abs(zi.real))
            assert abs(gi - g_one) <= 1e-13 * (1.0 + abs(zi.real))

    @settings(max_examples=50, deadline=None)
    @given(s=st.floats(min_value=-80.0, max_value=80.0),
           dy=st.floats(min_value=-2.0, max_value=2.0))
    def test_gap_of_constructed_point(self, s, dy):
        z = ct.contour_point(_REF, s) + 1j * dy
        s_star, gap = ct.contour_projection(_REF, z)
        assert abs(s_star - s) <= 1e-13 * (1.0 + abs(s))
        assert abs(gap - dy) <= 1e-12

    def test_array_shape_preserved(self, contour3):
        z = np.array([[1j, -1j, 2.0], [-3.0, 0.5 + 1e-3j, 7.0 - 2j]])
        s_star, gap = ct.contour_projection(contour3, z)
        assert s_star.shape == gap.shape == z.shape
        assert ct.side_sign(contour3, z).shape == z.shape

    def test_classifiers_agree_near_contour(self, contour3, rng):
        # 4000 points within 1e-3 of the contour, some within the "on" band
        s = rng.uniform(-10.0, 10.0, 4000)
        offset = rng.uniform(-1e-3, 1e-3, 4000) + 1j * rng.uniform(-1e-3, 1e-3, 4000)
        offset[::200] *= 1e-10
        z = ct.contour_point(contour3, s) + offset
        names = {1: "above", 0: "on", -1: "below"}
        sides = ct.side_sign(contour3, z)
        assert [names[int(v)] for v in sides] == [
            ct.classify_side(contour3, complex(zi)) for zi in z]
        assert set(sides.tolist()) == {-1, 0, 1}

    def test_bracket_doubling(self, contour3, monkeypatch):
        # an understated bump forces the sign bracket to widen
        monkeypatch.setitem(ct._geometry(contour3), "bump", 0.0)
        for x in (-3.0, 0.2, 2.9):
            s_star = ct.contour_projection(contour3, complex(x, 1.0))[0]
            assert abs(ct.contour_point(contour3, s_star).real - x) <= 1e-13 * (1 + abs(x))

    def test_non_convergence_raises(self, contour3, monkeypatch):
        monkeypatch.setattr(ct, "_NEWTON_MAXIT", 1)
        with pytest.raises(ContourError):
            ct.contour_projection(contour3, 0.7 + 1j)

    def test_geometry_cache_holds_a_bounded_amount(self):
        # each contour's samples take about 157 KiB: the 64 cached contours
        # hold about 10 MiB, where an entry per contour seen would hold 31
        ct._geometry.cache_clear()
        tracemalloc.start()
        try:
            for k in np.linspace(1.0, 5.0, 200):
                ct.contour_projection(ct.default_contour(k), 0.5 + 0.5j)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            ct._geometry.cache_clear()
        assert held / 2 ** 20 < 12.0

    def test_geometry_samples_are_shared(self):
        # every cached contour keeps its Re A(s), and reads one read-only
        # array of parameters s: 200 contours hold about 4.9 MiB, not 9.8
        ct._geometry.cache_clear()
        tracemalloc.start()
        try:
            for k in np.linspace(1.0, 5.0, 200):
                ct.contour_projection(ct.default_contour(k), 0.5 + 0.5j)
            held = tracemalloc.get_traced_memory()[0]
            shared = {id(ct._geometry(ct.default_contour(k))["s"])
                      for k in (1.0, 2.0, 5.0)}
        finally:
            tracemalloc.stop()
            ct._geometry.cache_clear()
        assert shared == {id(ct._GEOMETRY_S)}
        assert not ct._GEOMETRY_S.flags.writeable
        assert np.array_equal(ct._GEOMETRY_S, np.linspace(-60.0, 60.0, 10001))
        assert held / 2 ** 20 < 5.5

    def test_non_monotone_contour_raises(self):
        bad = ct.ContourSpec(a=-0.5, c=1.0)
        with pytest.raises(ContourError):
            ct.contour_projection(bad, 0.3)
        with pytest.raises(ContourError):
            ct.side_sign(bad, np.array([0.3 + 1j, -2.0]))

    @pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                   complex(np.inf, 1.0)])
    def test_non_finite_target_raises(self, contour3, z):
        with pytest.raises(NonFiniteInputError):
            ct.contour_projection(contour3, z)
        with pytest.raises(NonFiniteInputError):
            ct.side_sign(contour3, np.array([1j, z]))

    def test_distance_is_absolute_gap(self, contour3):
        z = ct.contour_point(contour3, 1.3) - 0.25j
        assert abs(ct.contour_projection(contour3, z)[1]) == pytest.approx(0.25, abs=1e-12)


class TestProjectionByRealPart:
    """One Newton solve per distinct real part, compared bit for bit."""

    @staticmethod
    def spy(monkeypatch):
        sizes, solve = [], ct._solve_projection

        def counted(spec, x):
            sizes.append(x.size)
            return solve(spec, x)

        monkeypatch.setattr(ct, "_solve_projection", counted)
        return sizes

    def test_grid_equals_each_point_alone(self, monkeypatch, contour3):
        axis = np.linspace(-6.0, 6.0, 60)
        z = axis[None, :] + 1j * axis[::-1, None]
        sizes = self.spy(monkeypatch)
        s, gap = ct.contour_projection(contour3, z)
        assert sizes == [60] and s.shape == gap.shape == (60, 60)
        for i, j in np.ndindex(z.shape):
            alone = ct.contour_projection(contour3, complex(z[i, j]))
            assert np.float64(s[i, j]).tobytes() == np.float64(alone[0]).tobytes()
            assert np.float64(gap[i, j]).tobytes() == np.float64(alone[1]).tobytes()

    def test_signed_zeros_are_solved_apart(self, monkeypatch, contour3):
        sizes = self.spy(monkeypatch)
        z = np.array([complex(0.0, 1.0), complex(-0.0, 1.0), -1j, 1.0])
        s, gap = ct.contour_projection(contour3, z)
        assert sizes == [3]
        for j in range(z.size):
            alone = ct.contour_projection(contour3, z[j:j + 1])
            assert (s[j], gap[j]) == (alone[0][0], alone[1][0])
            assert np.signbit(s[j]) == np.signbit(alone[0][0])


class TestSignScan:
    def test_reference_constants_pass(self, contour3, k3):
        scan = ct.sign_compatibility_scan(contour3, contour3, k3, 200)
        assert scan.min_value >= -1e-10
        assert np.hypot(scan.s1_at_min, scan.s2_at_min) <= 0.1

    def test_coarse_grid_still_nonnegative(self, contour3, k3):
        scan = ct.sign_compatibility_scan(contour3, contour3, k3, 2)
        assert scan.min_value >= -1e-10

    def test_bad_contour_detected_by_trial(self, k3):
        # construct a violating contour by trial; the negated reference
        # constants bend the indentation the wrong way
        candidates = [
            ct.ContourSpec(a=-ct.A_REF, c=ct.C_REF),
            ct.ContourSpec(a=np.conj(ct.A_REF), c=np.conj(ct.C_REF)),
            ct.ContourSpec(a=0.0012, c=-1000.0),
        ]
        mins = []
        for spec in candidates:
            try:
                mins.append(ct.sign_compatibility_scan(spec, spec, k3, 60).min_value)
            except (ContourError, Exception):
                continue
        assert min(mins) < -1e-6, f"no violating contour found: {mins}"

    def test_grid_size_validated(self, contour3, k3):
        with pytest.raises(DomainError):
            ct.sign_compatibility_scan(contour3, contour3, k3, 1)


class TestBranchLoci:
    def test_loci_include_branch_points_at_origin_parameter(self, contour3, k3):
        loci = ct.branch_loci(contour3, k3, 1201, s_range=30.0)
        # s = 0 maps to +-kappa(k, 0) = +-k
        assert np.min(np.abs(loci - k3)) < 1e-9
        assert np.min(np.abs(loci + k3)) < 1e-9

    def test_loci_grow_with_parameter(self, contour3, k3):
        loci = ct.branch_loci(contour3, k3, 501, s_range=300.0)
        assert np.max(np.abs(loci)) > 250.0

    def test_positive_clearance(self, contour3, k3):
        margin = ct.loci_clearance(contour3, contour3, k3)
        assert margin > 0.5  # reference constants keep a wide margin

    def test_clearance_is_the_dense_minimum(self, contour3, k3):
        # 250 samples: the last block of contour samples is a partial one
        n, s_range = 250, 12.0
        pts = ct.contour_point(contour3, np.linspace(-s_range, s_range, n))
        loci = ct.branch_loci(contour3, k3, n, s_range)
        dense = np.abs(pts[:, None] - loci[None, :]).min()
        assert ct.loci_clearance(contour3, contour3, k3, n, s_range) == dense

    @staticmethod
    def every_distance(spec, loci_spec, k, n, s_range):
        # the dense minimum, 100 contour samples at a time
        pts = ct.contour_point(spec, np.linspace(-s_range, s_range, n))
        loci = ct.branch_loci(loci_spec, k, n, s_range)
        return min(np.abs(pts[i:i + 100, None] - loci).min()
                   for i in range(0, n, 100))

    @pytest.mark.parametrize("k", [0.5, 3.0, 30.0])
    @pytest.mark.parametrize("n", [2, 99, 100, 101, 250, 1500])
    @pytest.mark.parametrize("reach", [10.0, 2.0])  # s_range per unit k
    def test_pruned_clearance_is_the_dense_minimum_bitwise(self, k, n, reach):
        spec = ct.default_contour(k)
        want = self.every_distance(spec, spec, k, n, reach * k)
        got = ct.loci_clearance(spec, spec, k, n, reach * k)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("spec, loci_spec", [
        (ct.ContourSpec(a=-ct.A_REF, c=ct.C_REF), ct.default_contour(3.0)),
        (ct.ContourSpec(a=-ct.A_REF, c=ct.C_REF),) * 2,
        (ct.default_contour(3.0), ct.ContourSpec(a=2 * ct.A_REF, c=ct.C_REF / 3))],
        ids=["failing", "failing-own-loci", "other-loci"])
    @pytest.mark.parametrize("n", [99, 1500])
    def test_clearance_of_other_constants_is_the_dense_minimum(self, spec,
                                                              loci_spec, n):
        want = self.every_distance(spec, loci_spec, 3.0, n, 30.0)
        got = ct.loci_clearance(spec, loci_spec, 3.0, n)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_clearance_peak_memory(self):
        # the 1500 x 3000 distances held at once take 7.1 MiB at the peak
        contour = ct.default_contour(3.0)
        ct.loci_clearance(contour, contour, 3.0, n=2)  # imports and caches
        tracemalloc.start()
        try:
            ct.loci_clearance(contour, contour, 3.0, n=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 < 1.5

    def test_gate_keeps_peak_memory_small(self):
        # the gate runs before every job, so its peak is every job's floor;
        # VmHWM, unlike ru_maxrss, does not inherit the forking process's peak
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        script = ("from qpdiff import contour as ct\n"
                  "ct.validate_contour(ct.default_contour(3), 3,"
                  " raise_on_failure=True)\n"
                  "print(next(line.split()[1] for line in"
                  " open('/proc/self/status') if line.startswith('VmHWM')))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert int(out) / 1024 < 80.0  # VmHWM is in kB


class TestValidationGate:
    def test_reference_contour_passes(self, contour3, k3):
        report = ct.validate_contour(contour3, k3)
        assert report.ok
        assert report.asymptotic_rel_error < 1e-6
        assert report.clearance > 0

    def test_gate_figures_of_the_reference_contour(self, contour3, k3):
        # the gate's figures for the k = 3 constants, to round-off
        assert ct.validate_contour(contour3, k3).clearance == pytest.approx(
            2.1069630579951, rel=1e-12)
        scan = ct.sign_compatibility_scan(contour3, contour3, k3, 200)
        assert scan.min_value == pytest.approx(7.482040602891173e-4, rel=1e-12)

    def test_scaled_constants_pass_for_other_wavenumbers(self):
        for k in (1.0, 2.0, 4.5, 20.0, 30.0, 50.0):
            spec = ct.default_contour(k)
            report = ct.validate_contour(spec, k)
            assert report.ok, f"scaled contour failed at k={k}: {report}"

    @pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf, 0.0, -3.0])
    def test_scaled_constants_need_a_finite_positive_wavenumber(self, k):
        # k = inf once divided by ratio**4 = 0 (ZeroDivisionError)
        with pytest.raises(DomainError, match="finite and positive"):
            ct.scaled_constants(k)

    @pytest.mark.parametrize("k", [3.0, 20.0, 30.0, 50.0])
    def test_asymptote_read_at_the_scaled_point(self, k):
        # s = 1e3 k / K_REF is the same point of every scaled contour, so
        # the figure is the same at every k; a contour that really
        # approaches its asymptote 1e4 times more slowly still fails
        a, c = ct.scaled_constants(k)
        report = ct.validate_contour(ct.ContourSpec(a=a, c=c), k)
        assert report.asymptotic_rel_error == pytest.approx(7.45356e-10,
                                                            rel=1e-5)
        slow = ct.validate_contour(ct.ContourSpec(a=a * 1e-4, c=c), k)
        assert slow.asymptotic_rel_error > 1e-6 and not slow.ok

    def test_scaling_law_is_geometric_similarity(self):
        k = 1.5
        spec = ct.default_contour(k)
        ref = ct.default_contour(3.0)
        s = np.linspace(-4, 4, 9)
        lhs = ct.contour_point(spec, s)
        rhs = (k / 3.0) * ct.contour_point(ref, 3.0 * s / k)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_bad_contour_fails_gate(self, k3):
        bad = ct.ContourSpec(a=-ct.A_REF, c=ct.C_REF)
        report = ct.validate_contour(bad, k3)
        assert not report.ok
        with pytest.raises(ContourError):
            ct.validate_contour(bad, k3, raise_on_failure=True)


def test_default_shift_rule(contour3):
    # far targets: capped at 0.05 K_REF; near targets: distance/9, floored
    # at 1e-3
    def shift(target):
        return ct.default_shift(abs(ct.contour_projection(contour3, target)[1]))

    far = shift(20.0 + 5.0j)
    assert far == pytest.approx(0.05 * ct.K_REF)
    on = shift(ct.contour_point(contour3, 1.2))
    assert on == pytest.approx(1e-3)
    near = ct.contour_point(contour3, 1.2) + 0.09j
    assert shift(near) == pytest.approx(0.01, rel=1e-6)
