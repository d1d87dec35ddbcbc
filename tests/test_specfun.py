"""Branch-controlled special functions: defining identities and cut geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdiff import specfun as sf
from qpdiff.errors import (DomainError, NonFiniteInputError, OnBranchCutError)

# bounded complex numbers kept away from the origin and from exact cuts
_component = st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False)


def _off_axis(z):
    return abs(z.real) > 1e-6 and abs(z.imag) > 1e-6


complex_points = st.builds(complex, _component, _component).filter(_off_axis)


class TestSqrtDown:
    def test_positive_real_axis(self):
        # coincides with the real square root there
        assert sf.sqrt_down(4.0) == pytest.approx(2.0)
        assert sf.sqrt_down(9.0) == pytest.approx(3.0)

    def test_zero(self):
        assert sf.sqrt_down(0.0) == 0.0

    def test_minus_one(self):
        # direct formula evaluation: e^{i pi/4} sqrt(-i * -1) = i
        val = sf.sqrt_down(-1.0)
        assert val == pytest.approx(1j, abs=1e-15)
        assert val ** 2 == pytest.approx(-1.0, abs=1e-15)
        # continuous with neighbours off the cut
        for side in (1e-8, -1e-8):
            assert sf.sqrt_down(-1.0 + 1j * side) == pytest.approx(val, abs=1e-7)

    @given(z=complex_points)
    @settings(max_examples=300, deadline=None)
    def test_square_recovers_argument(self, z):
        assert abs(sf.sqrt_down(z) ** 2 - z) <= 1e-14 * abs(z) + 1e-300

    def test_cut_is_negative_imaginary_axis_only(self):
        # paired probes straddling 16 rays, radius 2: a jump appears on
        # the ray arg z = -pi/2 and nowhere else
        delta = 1e-8
        for j in range(16):
            theta = -np.pi + j * (2 * np.pi / 16)
            zp = 2.0 * np.exp(1j * (theta + delta))
            zm = 2.0 * np.exp(1j * (theta - delta))
            jump = abs(sf.sqrt_down(zp) - sf.sqrt_down(zm))
            if abs(theta + np.pi / 2) < 1e-12:
                assert jump > 2.0  # two opposite roots of modulus sqrt(2)
            else:
                assert jump < 1e-6

    def test_on_cut_convention_documented_limit(self):
        # signed zeros must not change the committed on-cut value
        assert sf.sqrt_down(complex(0.0, -4.0)) == sf.sqrt_down(complex(-0.0, -4.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInputError):
            sf.sqrt_down(np.nan + 0j)
        with pytest.raises(NonFiniteInputError):
            sf.sqrt_down(np.inf)

    def test_raw_root_matches_the_rotated_copy_formula_bitwise(self, rng):
        # the former formula: multiply by -i, force +0.0 on the principal
        # cut ray, root, rotate back
        def copied(w):
            t = np.array(-1j * w, copy=True)
            on_cut = (t.real < 0.0) & (t.imag == 0.0)
            t[on_cut] = t[on_cut].real + 0.0j
            return np.multiply(sf._ROT_QUARTER, np.sqrt(t))

        parts = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.7, 1e-300, -1e-300,
                          5e-324, 1e300, -1e300])
        signed = np.empty(parts.size ** 2, dtype=np.complex128)
        signed.real, signed.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        n = 2000
        scale = 10.0 ** rng.uniform(-8, 8, n)
        random = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        on_cut = np.concatenate([-1j * scale, -scale * (1 + 0j), scale + 0j])
        for w in (signed, random, on_cut, random[:7]):
            assert sf._sqrt_down_raw(w).tobytes() == copied(w).tobytes()
        for w in signed:  # 0-d arrays, as a scalar call passes them
            w = np.asarray(w)
            assert (np.asarray(sf._sqrt_down_raw(w)).tobytes()
                    == np.asarray(copied(w)).tobytes())


class TestDiagLog:
    def test_log_of_unity(self):
        assert abs(sf.diag_log(1.0)) < 1e-15

    def test_real_axis_agreement(self):
        assert sf.diag_log(np.e) == pytest.approx(1.0, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sf.diag_log(0.0)

    def test_continuous_across_negative_real_axis(self):
        # no jump at z = -1 +- i delta; both values approach i pi
        delta = 1e-8
        hi = sf.diag_log(-1.0 + 1j * delta)
        lo = sf.diag_log(-1.0 - 1j * delta)
        assert abs(hi - lo) < 1e-7
        assert hi == pytest.approx(1j * np.pi, abs=1e-7)

    def test_cut_is_down_left_diagonal_only(self):
        delta = 1e-8
        for j in range(16):
            theta = -np.pi + j * (2 * np.pi / 16)
            zp = 2.0 * np.exp(1j * (theta + delta))
            zm = 2.0 * np.exp(1j * (theta - delta))
            jump = abs(sf.diag_log(zp) - sf.diag_log(zm))
            if abs(theta + 3 * np.pi / 4) < 1e-12:
                assert jump == pytest.approx(2 * np.pi, rel=1e-6)
            else:
                assert jump < 1e-6

    @given(z=complex_points)
    @settings(max_examples=300, deadline=None)
    def test_exp_recovers_argument(self, z):
        assert abs(np.exp(sf.diag_log(z)) - z) <= 1e-14 * abs(z)

    @staticmethod
    def _probe_sets(rng, n=1500):
        # |z| log-uniform at all arguments; rotated argument w = e^{-i pi/4} z
        # within 1e-14 to 0.6 of the unit circle (both sides of the
        # ||w| - 1| = 1/2 switch); and w within 1e-9 of 1
        rot = np.exp(0.25j * np.pi)
        wide = 10 ** rng.uniform(-3, 3, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        d = 10 ** rng.uniform(-14, np.log10(0.6), n) * rng.choice([-1.0, 1.0], n)
        ring = (1 + d) * np.exp(1j * rng.uniform(-np.pi, np.pi, n)) * rot
        one = (1 + 1e-9 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))) * rot
        return wide, ring, one

    def test_matches_mpmath_at_30_digits(self, rng):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            quarter = mpmath.expjpi(mpmath.mpf(-0.25))

            def ref(z):
                w = mpmath.mpc(z.real, z.imag) * quarter
                return complex(mpmath.log(w) + mpmath.mpc(0, mpmath.pi / 4))

            for zs in self._probe_sets(rng):
                want = np.array([ref(z) for z in zs])
                err = np.abs(sf.diag_log(zs) - want) / np.maximum(1.0, np.abs(want))
                # measured 3.0e-16 on these points (2.6e-16 with numpy's
                # complex log); a bound of two ulps of 1
                assert err.max() <= 4e-16

    def test_on_cut_signed_zero_takes_the_arg_pi_side(self, monkeypatch):
        # with the rotation switched off, the rotated argument is z itself,
        # signed zero and all: both zeros give the arg -> pi value 5 pi / 4
        monkeypatch.setattr(sf, "_ROT_BACK", 1.0 + 0.0j)
        for zero in (0.0, -0.0):
            val = sf.diag_log(complex(-2.0, zero))
            assert val.imag == np.pi + 0.25 * np.pi
            assert val.real == pytest.approx(np.log(2.0), abs=1e-16)

    def test_scalar_and_array_calls_agree_bitwise(self, rng):
        zs = np.concatenate(self._probe_sets(rng, n=300))
        arr = sf.diag_log(zs)
        one = np.array([sf.diag_log(complex(z)) for z in zs])
        assert arr.tobytes() == one.tobytes()
        assert sf.diag_log(zs.reshape(3, -1)).tobytes() == arr.tobytes()


class TestKappa:
    def test_normalisation_at_zero(self):
        assert sf.kappa(3.0, 0.0) == pytest.approx(3.0, abs=1e-14)
        assert sf.kappa(2.0 + 1.0j, 0.0) == pytest.approx(2.0 + 1.0j, abs=1e-14)

    @given(z=complex_points)
    @settings(max_examples=300, deadline=None)
    def test_defining_identity(self, z):
        val = sf.kappa(3.0, z)
        assert abs(val ** 2 - (9.0 - z * z)) <= 1e-13 * abs(9.0 - z * z) + 1e-12

    def test_admissibility_enforced(self):
        with pytest.raises(DomainError):
            sf.kappa(-1.0, 0.5)
        with pytest.raises(DomainError):
            sf.kappa(1.0 - 0.5j, 0.5)

    def test_cut_locations_for_complex_parameter(self):
        # kk = 3 + 3i: cut up from +kk, down from -kk; probes straddle
        # the vertical rays above/below each branch point
        kk = 3.0 + 3.0j
        delta = 1e-8

        def jump(z):
            return abs(sf.kappa(kk, z + delta) - sf.kappa(kk, z - delta))

        assert jump(3.0 + 4.0j) > 1.0      # above +kk: on the cut
        assert jump(3.0 + 2.0j) < 1e-6     # below +kk: off the cut
        assert jump(-3.0 - 4.0j) > 1.0     # below -kk: on the cut
        assert jump(-3.0 - 2.0j) < 1e-6    # above -kk: off the cut


class TestBigK:
    def test_reciprocal_at_origin(self, k3):
        assert sf.big_k(0.0, 0.0, k3) == pytest.approx(1.0 / k3, abs=1e-15)

    @given(a1=complex_points, a2=complex_points)
    @settings(max_examples=200, deadline=None)
    def test_defining_identity(self, a1, a2):
        val = sf.big_k(a1, a2, 3.0)
        assert abs(val ** 2 * (9.0 - a1 ** 2 - a2 ** 2) - 1.0) < 1e-12

    def test_argument_order_asymmetry(self, k3):
        # grid search for a concrete sign flip: squares agree, values differ
        vals = [0.5 + 2.5j, -1.5 + 2j, 2.5 - 1j, -2 - 2j, 3.5 + 0.5j,
                1 + 4j, -4 + 1j, 2.2 + 2.2j, -0.3 - 3.4j]
        found = False
        for a1 in vals:
            for a2 in vals:
                k12 = sf.big_k(a1, a2, k3)
                k21 = sf.big_k(a2, a1, k3)
                assert abs(k12 ** 2 - k21 ** 2) < 1e-12 * abs(k12 ** 2)
                if abs(k12 + k21) < 1e-10 * abs(k12):
                    found = True
        assert found, "no sign-flip point found on the search grid"

    def test_on_cut_signalled(self, k3):
        # alpha2 on the vertical cut up from +k
        with pytest.raises(OnBranchCutError):
            sf.big_k(0.5, k3 + 2.0j, k3)


class TestGamma:
    def test_origin(self, k3):
        assert sf.gamma_fn(0.0, 0.0, k3) == pytest.approx(-1j * k3, abs=1e-14)

    def test_matches_reciprocal_kernel(self, rng, k3):
        pts = rng.normal(size=20) + 1j * rng.normal(size=20)
        for a1, a2 in zip(pts[:10], pts[10:]):
            assert sf.gamma_fn(a1, a2, k3) == pytest.approx(
                -1j / sf.big_k(a1, a2, k3), rel=1e-12)

    def test_positive_real_part_outside_disk(self, k3):
        # real spectral points beyond the propagating disk decay, not grow
        for a1, a2 in [(2.5, 2.5), (4.0, 0.5), (0.5, 4.0), (-2.5, -2.5)]:
            assert sf.gamma_fn(a1, a2, k3).real > 0


class TestHalfFactors:
    def test_product_reconstructs_kernel(self, contour3, k3):
        from qpdiff.contour import contour_point
        s = np.linspace(-12.0, 12.0, 100)
        a1 = contour_point(contour3, s)
        a2 = contour_point(contour3, s[::-1])
        kv = sf.big_k(a1, a2, k3)
        prod = (sf.half_factor("-o", a1, a2, k3)
                * sf.half_factor("+o", a1, a2, k3))
        assert np.max(np.abs(prod - kv) / np.abs(kv)) < 1e-12

    def test_origin_value(self, k3):
        expected = 1.0 / np.sqrt(k3)
        assert sf.half_factor("-o", 0.0, 0.0, k3) == pytest.approx(expected, abs=1e-14)
        assert sf.half_factor("+o", 0.0, 0.0, k3) == pytest.approx(expected, abs=1e-14)

    def test_swapped_orientation_squares_agree(self, rng, k3):
        # K_o- * K_o+ squares to K^2; the values themselves flip sign on
        # parts of C^2, which is verified (not assumed) here
        a1 = rng.normal(size=400) * 2 + 1j * rng.normal(size=400) * 2
        a2 = rng.normal(size=400) * 2 + 1j * rng.normal(size=400) * 2
        kv = sf.big_k(a1, a2, k3)
        prod = (sf.half_factor("o-", a1, a2, k3)
                * sf.half_factor("o+", a1, a2, k3))
        ratio = prod / kv
        assert np.max(np.abs(ratio ** 2 - 1.0)) < 1e-10
        assert np.any(np.abs(ratio + 1.0) < 1e-8), "expected a -1 branch region"

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            sf.half_factor("xx", 0.0, 0.0, 3.0)


class TestHalfFactorPass:
    """``_half_factor_raw``, the one implementation of all four tags."""

    @staticmethod
    def parts(tag, a1, a2):
        inner, outer = (a2, a1) if tag[1] == "o" else (a1, a2)
        return inner, outer, -1.0 if "-" in tag else +1.0

    @staticmethod
    def points():
        rng = np.random.default_rng(24)
        return tuple(rng.normal(size=200) * 2 + 1j * rng.normal(size=200) * 2
                     for _ in range(2))

    @pytest.mark.parametrize("tag", sf.HALF_FACTOR_TAGS)
    def test_equals_half_factor_bit_for_bit(self, tag, k3):
        a1, a2 = self.points()
        inner, outer, sign = self.parts(tag, a1, a2)
        got = sf._half_factor_raw(np.complex128(k3), inner, outer, sign)
        assert got.tobytes() == sf.half_factor(tag, a1, a2, k3).tobytes()
        # the public primitives, composed term for term
        want = 1.0 / sf.sqrt_down(sf.kappa(k3, inner) + sign * outer)
        assert got.tobytes() == want.tobytes()
        # a scalar call is a batch of one: it equals the array entry
        for j in range(0, 200, 25):
            scalar = sf.half_factor(tag, complex(a1[j]), complex(a2[j]), k3)
            assert isinstance(scalar, complex)
            assert np.complex128(scalar).tobytes() == got[j].tobytes()

    def test_one_pass_over_all_tags_equals_each_tag(self, k3):
        # the form _continued uses: tags stacked, a sign per entry
        a1, a2 = self.points()
        parts = [self.parts(tag, a1, a2) for tag in sf.HALF_FACTOR_TAGS]
        inner, outer = (np.concatenate(p) for p in list(zip(*parts))[:2])
        sign = np.repeat([p[2] for p in parts], a1.size)
        stacked = sf._half_factor_raw(np.complex128(k3), inner, outer, sign)
        assert stacked.tobytes() == np.concatenate(
            [sf.half_factor(tag, a1, a2, k3)
             for tag in sf.HALF_FACTOR_TAGS]).tobytes()

    @pytest.mark.parametrize("tag, a1, a2, named", [
        # k - alpha2 = -2i puts the inner kappa exactly on its cut
        ("-o", [0.5, 0.5, 1.0], [1.0, 3.0 + 2.0j, 0.2], [False, True, False]),
        # kappa(3, 3) - 0 = 0: the "o-" branch point
        ("o-", [1.0, 0.2, 3.0], [0.0, 0.0, 0.0], [False, False, True])])
    def test_checks_name_the_entries_half_factor_names(self, k3, tag, a1, a2,
                                                       named):
        a1, a2 = np.array(a1, dtype=complex), np.array(a2, dtype=complex)
        with pytest.raises(OnBranchCutError) as public:
            sf.half_factor(tag, a1, a2, k3)
        with pytest.raises(OnBranchCutError) as raw:
            sf._half_factor_raw(np.complex128(k3), *self.parts(tag, a1, a2))
        assert public.value.mask.tolist() == raw.value.mask.tolist() == named


def test_fourth_root_is_double_sqrt_composition(rng):
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    assert np.allclose(sf.fourth_root_down(z),
                       sf.sqrt_down(sf.sqrt_down(z)), rtol=0, atol=0)


def test_half_factor_on_cut_signalled():
    # k - alpha2 = -2i puts the inner kappa argument exactly on its cut
    with pytest.raises(OnBranchCutError):
        sf.half_factor("-o", 0.5, 3.0 + 2.0j, 3.0)


_ENTRYWISE = {
    "sqrt_down": lambda a, b: sf.sqrt_down(a),
    "kappa": lambda a, b: sf.kappa(3.0, a),
    "big_k": lambda a, b: sf.big_k(a, b, 3.0),
    "gamma_fn": lambda a, b: sf.gamma_fn(a, b, 3.0),
    "fourth_root_down": lambda a, b: sf.fourth_root_down(a),
    **{f"half_factor[{tag}]": (lambda a, b, tag=tag: sf.half_factor(tag, a, b, 3.0))
       for tag in sf.HALF_FACTOR_TAGS},
}


@pytest.mark.parametrize("name", sorted(_ENTRYWISE))
def test_scalar_call_is_a_batch_of_one(name):
    # numpy's scalar arithmetic rounds complex products unlike its array
    # loop; a scalar call must still equal the array entry bit for bit
    fn = _ENTRYWISE[name]
    rng = np.random.default_rng(2525)
    a, b = (rng.uniform(-6, 6, 500) + 1j * rng.uniform(-6, 6, 500)
            for _ in range(2))
    arr = fn(a, b)
    one = [fn(complex(x), complex(y)) for x, y in zip(a, b)]
    assert all(type(v) is complex for v in one)
    assert np.array(one).tobytes() == arr.tobytes()
    # 0-d arrays stay 0-d, and other shapes are kept
    assert np.shape(fn(np.asarray(a[0]), np.asarray(b[0]))) == ()
    assert fn(a.reshape(20, 25), b.reshape(20, 25)).tobytes() == arr.tobytes()
