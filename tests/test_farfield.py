"""Far-field layer: incidence, forcing term, candidate, residual, sweeps."""

import csv
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qpdiff import farfield as ff
from qpdiff.contour import ContourSpec
from qpdiff.errors import (ContourError, DomainError, NonFiniteInputError,
                           QpdiffError, QuadratureError)
from qpdiff.quadrature import QuadratureConfig
from qpdiff.whfactor import _integral_memo


@pytest.fixture(scope="module")
def inc12():
    # the reference incidence with both spectral constants negative
    return ff.make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)


@pytest.fixture(scope="module")
def ev12(inc12):
    return ff.AnsatzEvaluator(inc12)


class TestIncidence:
    def test_reference_incidence(self, inc12):
        assert inc12.a1 == pytest.approx(-1.5, abs=1e-12)
        assert inc12.a2 == pytest.approx(-1.5, abs=1e-12)
        assert inc12.a3 == pytest.approx(3.0 / math.sqrt(2), abs=1e-12)
        # no shift applied: both constants negative
        assert inc12.a1.imag == 0.0 and inc12.a2.imag == 0.0

    def test_positive_constants_get_shifted(self):
        inc = ff.make_incidence(math.pi / 4, math.pi / 8, 3.0, eps_shift=3e-8)
        assert inc.a1.real > 0 and inc.a2.real > 0
        assert inc.a1.imag == -inc.eps_shift
        assert inc.a2.imag == -inc.eps_shift

    def test_no_shift_by_default(self):
        # f_d is linear in the shift: any default shift is a bias
        inc = ff.make_incidence(math.pi / 4, math.pi / 8, 3.0)
        assert inc.eps_shift == 0.0
        assert inc.a1.imag == 0.0 and inc.a2.imag == 0.0

    def test_normal_incidence_degenerate(self):
        inc = ff.make_incidence(0.0, 0.0, 3.0)
        assert inc.a1 == 0 and inc.a2 == 0 and inc.a3 == 3.0
        assert inc.xi0 == 0.0 and inc.eta0 == 0.0  # both poles at the origin

    def test_pythagoras_before_shift(self, rng):
        for _ in range(20):
            theta0 = rng.uniform(0, math.pi / 2)
            phi0 = rng.uniform(-3 * math.pi / 4, math.pi / 4)
            k = rng.uniform(0.5, 5.0)
            inc = ff.make_incidence(theta0, phi0, k)
            total = inc.a1.real ** 2 + inc.a2.real ** 2 + inc.a3 ** 2
            assert total == pytest.approx(k * k, rel=1e-12)

    @pytest.mark.parametrize("theta0,phi0", [
        (-0.1, 0.0), (math.pi / 2 + 0.1, 0.0),
        (0.5, math.pi / 4 + 0.1), (0.5, -3 * math.pi / 4 - 0.1),
    ])
    def test_angle_ranges_enforced(self, theta0, phi0):
        with pytest.raises(DomainError):
            ff.make_incidence(theta0, phi0, 3.0)

    @pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf, 0.0])
    def test_wavenumber_must_be_finite_and_positive(self, k):
        with pytest.raises(DomainError, match="finite and positive"):
            ff.make_incidence(math.pi / 4, -3 * math.pi / 4, k)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9])
    def test_shift_must_be_finite_and_nonnegative(self, eps):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            ff.make_incidence(math.pi / 4, math.pi / 8, 3.0, eps_shift=eps)

    def test_observation_ranges(self):
        with pytest.raises(DomainError):
            ff.Observation(theta=math.pi / 2 + 0.01, phi=0.0)
        with pytest.raises(DomainError):
            ff.Observation(theta=0.3, phi=2 * math.pi)
        obs = ff.Observation(theta=0.4, phi=1.0)
        assert obs.xi == pytest.approx(math.cos(1.0) * math.sin(0.4))
        assert obs.eta == pytest.approx(math.sin(1.0) * math.sin(0.4))


class TestForcingTerm:
    def test_unit_offsets(self, inc12):
        val = ff.g_pp(inc12.a1 + 1.0, inc12.a2 + 1.0, inc12)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_rational_residue_structure(self, inc12):
        # (alpha1 - a1) g is exactly 1/(alpha2 - a2) at any offset; the
        # tolerance only covers the h-cancellation roundoff
        for h in (1.0, 1e-3, 1e-5):
            beta = 0.7 + 0.4j
            val = ff.g_pp(inc12.a1 + h, beta, inc12) * h
            assert val == pytest.approx(1.0 / (beta - inc12.a2), rel=1e-9)

    def test_large_alpha2_decay(self, inc12):
        mags = [abs(ff.g_pp(0.5, r * 1j, inc12)) for r in (1e2, 1e3, 1e4)]
        assert mags[0] / mags[1] == pytest.approx(10.0, rel=1e-2)
        assert mags[1] / mags[2] == pytest.approx(10.0, rel=1e-2)

    def test_pole_rejected(self, inc12):
        with pytest.raises(DomainError):
            ff.g_pp(inc12.a1, 0.3, inc12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.3, np.nan)])
    def test_non_finite_rejected(self, inc12, ev12, bad):
        # raised before the division: no NaN out, no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a1, a2 in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(NonFiniteInputError):
                    ff.g_pp(a1, a2, inc12)
            with pytest.raises(NonFiniteInputError) as err:
                ff.g_pp(np.array([1.0, bad, 2.0]), 0.5, inc12)
            assert list(err.value.mask) == [False, True, False]
            with pytest.raises(NonFiniteInputError):
                ev12.fpp(bad, 1.0)


class TestCandidate:
    def test_pole_transmission_in_alpha1(self, ev12, inc12):
        # |F| * |alpha1 - a1| tends to a finite nonzero limit
        beta = 0.8 + 0.6j
        scaled = [abs(ev12.fpp(inc12.a1 + d * np.exp(0.4j), beta)) * d
                  for d in (1e-2, 1e-3)]
        assert scaled[0] == pytest.approx(scaled[1], rel=0.05)
        assert scaled[1] > 0


@pytest.mark.parametrize("phi0, bound", [(-3 * math.pi / 4, 2.5e-8),
                                         (math.pi / 8, 1.1e-10)],
                         ids=["-3pi/4", "pi/8"])
class TestKellerConeResidues:
    """The residues of F_pp on its two pole lines against their closed form.

    On the line alpha1 = a1 the residue is
    ``1 / ((alpha2 - a2) half("o+")(a1, alpha2) half("o-")(a1, a2))``, on
    alpha2 = a2 the same with "+o" and "-o"; they need no oracle.  One
    Richardson step ``2 r(d/2) - r(d)`` of ``r(d) = d F_pp`` at a distance
    ``d`` from the line removes the error linear in ``d``.  The incidences
    are (pi/4, phi0) with no shift; each bound was set from the first
    measurement: 2.47e-8 on both lines at phi0 = -3pi/4, 4.4e-11 (alpha1
    line) and 1.03e-10 (alpha2 line) at phi0 = pi/8.
    """

    alpha = np.linspace(-2.5, 2.5, 12)  # real, none on the other pole line

    @staticmethod
    def richardson(r, d=1e-4):
        return 2.0 * r(0.5 * d) - r(d)

    @staticmethod
    def evaluator(phi0):
        inc = ff.make_incidence(math.pi / 4, phi0, 3.0)
        return inc, ff.AnsatzEvaluator(inc)

    def test_residue_on_the_alpha1_pole_line(self, phi0, bound):
        from qpdiff.specfun import half_factor
        inc, ev = self.evaluator(phi0)
        a1, a2, k, alpha = inc.a1, inc.a2, inc.k, self.alpha
        got = self.richardson(lambda d: d * ev.fpp(np.full(alpha.size, a1 + d), alpha))
        want = 1.0 / ((alpha - a2) * half_factor("o+", a1, alpha, k)
                      * half_factor("o-", a1, a2, k))
        assert np.max(np.abs(got - want) / np.abs(want)) < bound

    def test_residue_on_the_alpha2_pole_line(self, phi0, bound):
        from qpdiff.specfun import half_factor
        inc, ev = self.evaluator(phi0)
        a1, a2, k, alpha = inc.a1, inc.a2, inc.k, self.alpha
        got = self.richardson(lambda d: d * ev.fpp(alpha, np.full(alpha.size, a2 + d)))
        want = 1.0 / ((alpha - a1) * half_factor("+o", alpha, a2, k)
                      * half_factor("-o", a1, a2, k))
        assert np.max(np.abs(got - want) / np.abs(want)) < bound


class TestResidual:
    def test_exact_cancellation_on_the_diagonal(self, ev12, inc12, rng):
        for _ in range(10):
            a1 = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-1, 1)
            assert ev12.compatibility_residual(a1, inc12.a2) == 0.0

    def test_generically_nonzero(self, ev12, inc12):
        for a1, a2 in [(0.5 + 0.8j, 1.0 + 0.5j), (1.5, -0.7)]:
            r = ev12.compatibility_residual(a1, a2)
            g = ff.g_pp(a1, a2, inc12)
            assert abs(r) > 1e-3 * abs(g)

    def test_first_order_taylor_approach(self, ev12, inc12):
        # the residual approaches its diagonal limit linearly in the
        # offset (the forcing pole eats one order of the bracket zero)
        a1 = 0.9 + 0.4j
        deltas = np.array([1e-1, 1e-2, 1e-3])
        vals = np.array([ev12.compatibility_residual(a1, inc12.a2 + d * np.exp(0.3j))
                         for d in deltas])
        limit = ev12.compatibility_residual(a1, inc12.a2 + 1e-6 * np.exp(0.3j))
        slope = np.polyfit(np.log(deltas), np.log(np.abs(vals - limit)), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)


class TestDiffraction:
    def test_oasis_point_is_purely_imaginary(self, ev12):
        val = ev12.diffraction(ff.Observation(theta=0.6, phi=math.pi))
        assert val.flag == "ok"
        assert abs(val.value.real) < 1e-6 * abs(val.value.imag)

    def test_near_pole_flagged(self, ev12, inc12):
        # xi = -xi0 exactly: the forcing pole direction
        xi = -inc12.xi0
        eta = 0.2
        theta = math.asin(math.hypot(xi, eta))
        phi = math.atan2(eta, xi) % (2 * math.pi)
        val = ev12.diffraction(ff.Observation(theta=theta, phi=phi))
        assert val.flag == "near_pole"

    def test_exact_branch_point_row_stays_near_pole(self, ev12):
        # theta = pi/2, phi = 0: a half-factor branch point is hit exactly
        point = ev12.diffraction(ff.Observation(theta=math.pi / 2, phi=0.0))
        assert point.flag == "near_pole"
        assert np.isnan(point.value)

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_an_overflowing_pole_row_is_nan_without_a_warning(self, theta):
        # phi0 = 1e-309 puts the rows at phi = 0 so close to the forcing
        # pole that F_pp overflows (theta = 0.3) or is about 1e308 and f_d
        # overflows (0.7): NaN and near_pole, as an exact hit is, with no
        # RuntimeWarning on the way
        ev = ff.AnsatzEvaluator(ff.make_incidence(math.pi / 4, 1e-309, 3.0))
        hit = ff.AnsatzEvaluator(ff.make_incidence(math.pi / 4, 0.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = ev.diffraction(ff.Observation(theta=theta, phi=0.0))
            exact = hit.diffraction(ff.Observation(theta=theta, phi=0.0))
        assert (point.flag, point.continued) == (exact.flag, exact.continued)
        assert point.flag == "near_pole"
        assert np.isnan(point.value.real) and np.isnan(point.value.imag)

    def test_quadrature_breakdown_is_failed_not_near_pole(self, inc12):
        ev = ff.AnsatzEvaluator(inc12, cfg=QuadratureConfig(max_subdivisions=1))
        obs = ff.Observation(theta=0.6, phi=math.pi)
        with pytest.raises(QuadratureError):
            ev.fpp(-inc12.k * obs.xi, -inc12.k * obs.eta)
        point = ev.diffraction(obs)
        assert point.flag == "failed"
        assert np.isnan(point.value)

    def test_contour_breakdown_is_failed_not_near_pole(self, inc12):
        # a = -0.5, c = 1 is not Re-monotone: every projection raises
        ev = ff.AnsatzEvaluator(inc12, contour=ContourSpec(a=-0.5, c=1.0))
        obs = ff.Observation(theta=0.6, phi=math.pi)
        with pytest.raises(ContourError):
            ev.fpp(-inc12.k * obs.xi, -inc12.k * obs.eta)
        assert ev.diffraction(obs).flag == "failed"

    def test_k_invariance_spot_check(self):
        obs = ff.Observation(theta=0.7, phi=3.0)
        vals = []
        for k in (1.0, 3.0):
            inc = ff.make_incidence(math.pi / 4, -3 * math.pi / 4, k)
            vals.append(ff.AnsatzEvaluator(inc).diffraction(obs).value)
        assert abs(vals[0] - vals[1]) / abs(vals[1]) < 1e-5


@settings(max_examples=100, deadline=None)
@given(k=st.floats(0.25, 50.0),
       phi=st.sampled_from([math.pi / 3, math.pi, 5 * math.pi / 4]),
       theta=st.floats(0.0, math.pi / 2, exclude_max=True))
# within 1e-12 of normal incidence: the side of alpha is the same at every k
@example(k=0.5, phi=math.pi / 3, theta=1.08e-12)
@example(k=1.0, phi=math.pi / 3, theta=1.08e-12)
def test_diffraction_is_k_invariant(k, phi, theta):
    # f_d depends on the directions alone.  Regular directions keep 0.05
    # from both forcing-pole lines, where f_d is well conditioned (the
    # near_pole flag takes 1e-3).  theta = pi/2 is left out: on phi = pi/3
    # it sits on the xi pole, NaN at k = 20 and 30 but finite at k = 50.
    inc3 = ff.make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)
    obs = ff.Observation(theta=theta, phi=phi)
    assume(min(abs(obs.xi + inc3.xi0), abs(obs.eta + inc3.eta0)) >= 0.05)
    inc = ff.make_incidence(math.pi / 4, -3 * math.pi / 4, k)
    got = ff.AnsatzEvaluator(inc).diffraction(obs)
    _integral_memo.clear()  # at k = 3 the same integrals again
    want = ff.AnsatzEvaluator(inc3).diffraction(obs)
    assert got.flag == want.flag
    assert abs(got.value - want.value) <= 5e-14 * abs(want.value)


#: a STOPGAP, not an oracle: f_d as this library computed it before the
#: engine ran at one wavenumber (see the file's "about"), until a residue
#: oracle written without qpdiff replaces it
FD_STOPGAP = os.path.join(os.path.dirname(__file__), "fd_stopgap_table.json")


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0])
def test_fd_matches_the_stopgap_table(k):
    # pins the value, sign and normalisation of f_d, which every identity
    # of f_d with f_d (k-invariance, mirrors, pole ratios) leaves free
    with open(FD_STOPGAP) as handle:
        table = json.load(handle)
    for name, (theta0, phi0) in table["incidences"].items():
        rows = [r for r in table["rows"] if r["incidence"] == name and r["k"] == k]
        inc = ff.make_incidence(theta0, phi0, k, eps_shift=rows[0]["eps_shift"])
        values, flags, _ = ff.AnsatzEvaluator(inc)._directions(
            [ff.Observation(theta=r["theta"], phi=r["phi"]) for r in rows])
        want = np.array([complex(*r["f_d"]) for r in rows])
        assert flags == [r["flag"] for r in rows]
        assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-12


def _fd(theta0, phi0, theta, phi):
    """f_d at k = 3 with no shift, incidence (theta0, phi0), observed at
    (theta, phi) with phi in [-3 pi/4, pi/4]; an error raised instead.
    ``% tau`` twice: a tiny negative phi rounds to tau, and then to 0."""
    tau = 2 * math.pi
    try:
        return ff.AnsatzEvaluator(ff.make_incidence(theta0, phi0, 3.0)).diffraction(
            ff.Observation(theta=theta, phi=phi % tau % tau))
    except QpdiffError as exc:
        return exc


_THETA = st.floats(0.0, math.pi / 2)
_PHI = st.floats(-3 * math.pi / 4, math.pi / 4)
#: the reciprocity test's bound on |a - b| / (1 + |b|): relative where
#: |f_d| > 1, absolute where f_d nears its zero at grazing incidence (there
#: the relative difference reached 6.5e-11).  Over 10,198 pairs of 64
#: random 300-example runs the worst was 4.1e-13
RECIPROCITY_BOUND = 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(theta=_THETA, phi=_PHI, theta0=_THETA, phi0=_PHI)
def test_diffraction_is_reciprocal(theta, phi, theta0, phi0):
    # f(theta, phi; theta0, phi0) = f(theta0, phi0; theta, phi) with both
    # directions admissible incidences.  The two sides take different
    # labels at different points through different routes, so this tests
    # the factors, the continuation, the half factors and the forcing
    # term against each other.  The pole lines map onto each other, so
    # the flags agree in class (ok and continued are one)
    a, b = _fd(theta0, phi0, theta, phi), _fd(theta, phi, theta0, phi0)
    assert isinstance(a, QpdiffError) == isinstance(b, QpdiffError)
    if isinstance(a, QpdiffError):
        return
    regular = {"ok": "regular", "continued": "regular"}
    assert regular.get(a.flag, a.flag) == regular.get(b.flag, b.flag)
    if a.flag in ("ok", "continued", "real_branch"):
        assert abs(a.value - b.value) <= RECIPROCITY_BOUND * (1.0 + abs(b.value))


class TestArcSweep:
    def test_two_point_arc_hits_endpoints(self, ev12):
        res = ev12.arc_sweep(math.pi, 2)
        assert res.thetas[0] == 0.0
        assert res.thetas[-1] == pytest.approx(math.pi / 2)
        assert len(res.values) == 2 and len(res.flags) == 2

    def test_minimum_rows_enforced(self, ev12):
        with pytest.raises(DomainError):
            ev12.arc_sweep(math.pi, 1)

    def test_oasis_arc_all_ok(self, ev12):
        res = ev12.arc_sweep(math.pi, 21)
        assert all(f == "ok" for f in res.flags)
        assert (np.max(np.abs(res.values.real))
                / np.max(np.abs(res.values.imag))) < 1e-3

    def test_workers_do_not_change_results(self, inc12):
        ev_a = ff.AnsatzEvaluator(inc12)
        ev_b = ff.AnsatzEvaluator(inc12)
        res1 = ev_a.arc_sweep(2.0, 9, workers=1)
        _integral_memo.clear()
        res2 = ev_b.arc_sweep(2.0, 9, workers=3)
        assert np.array_equal(res1.values, res2.values)
        assert res1.flags == res2.flags

    def test_csv_wire_format(self, ev12, tmp_path):
        res = ev12.arc_sweep(math.pi, 5)
        path = tmp_path / "arc.csv"
        res.to_csv(str(path))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "theta,phi,theta0,phi0,k,re_fd,im_fd,flag"
        assert len(lines) == 6
        rows = list(csv.DictReader(io.StringIO(text)))
        for i, row in enumerate(rows):
            assert float(row["theta"]) == pytest.approx(res.thetas[i])
            assert float(row["re_fd"]) == res.values[i].real
            assert float(row["im_fd"]) == res.values[i].imag
            assert row["flag"] in ("ok", "near_pole", "continued", "real_branch")
        # full double precision round-trip
        assert float(rows[2]["im_fd"]) == res.values[2].imag

    def test_csv_deterministic(self, ev12, tmp_path):
        res = ev12.arc_sweep(math.pi, 5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res.to_csv(str(p1))
        res.to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestShiftRobustness:
    def test_halving_changes_below_pipeline_noise(self):
        # two distinct nonzero shifts, as criterion 7 compares them
        cfg = QuadratureConfig()
        inc_a = ff.make_incidence(math.pi / 4, math.pi / 8, 3.0, eps_shift=3e-8)
        inc_b = ff.make_incidence(math.pi / 4, math.pi / 8, 3.0,
                                  eps_shift=inc_a.eps_shift / 2)
        ev_a = ff.AnsatzEvaluator(inc_a, cfg=cfg)
        ev_b = ff.AnsatzEvaluator(inc_b, cfg=cfg)
        for i in range(3):
            obs = ff.Observation(theta=0.3 + 0.3 * i, phi=1.2 + 0.7 * i)
            va = ev_a.diffraction(obs).value
            vb = ev_b.diffraction(obs).value
            assert abs(va - vb) / abs(va) < 1e-6


class TestForcingPoleOnTheRealAxis:
    """With no shift (the default) the forcing poles a1, a2 > 0 are real."""

    @pytest.mark.parametrize("theta0, phi0", [(math.pi / 4, math.pi / 8),
                                              (math.pi / 3, 0.1)])
    @pytest.mark.parametrize("line", ["xi", "eta"])
    def test_rows_next_to_a_pole_line_are_flagged_and_consistent(
            self, theta0, phi0, line):
        # rows within 1e-9 of xi = -xi0 (or eta = -eta0), one a hit to
        # rounding: each is flagged near_pole, and a finite one is the
        # pole of its neighbours, d f_d at distance d (the stored one,
        # xi + xi0) within 1.5e-5 of the residue that rows at 1e-6 give
        # (7.4e-6 when set: the distance's own rounding, 1e-16 / 1e-11)
        inc = ff.make_incidence(theta0, phi0, 3.0)
        xi0, eta0 = inc.xi0, inc.eta0
        shifts = [1e-6, -1e-6, 1e-9, -1e-9, 1e-10, -1e-10, 1e-11, -1e-11, 0.0]
        obs = []
        for d in shifts:
            xi, eta = (d - xi0, 0.2) if line == "xi" else (0.2, d - eta0)
            obs.append(ff.Observation(theta=math.asin(math.hypot(xi, eta)),
                                      phi=math.atan2(eta, xi) % (2 * math.pi)))
        values, flags, _ = ff.AnsatzEvaluator(inc)._directions(obs)
        assert flags == ["near_pole"] * len(shifts)
        dist = np.array([o.xi + xi0 if line == "xi" else o.eta + eta0
                         for o in obs])
        r = values * dist
        residue = 0.5 * (r[0] + r[1])
        assert np.isfinite(r[:-1]).all()
        assert np.max(np.abs(r[2:-1] - residue)) < 1.5e-5 * abs(residue)
        assert np.isnan(values[-1]) or abs(values[-1]) > 1e12 * abs(residue)

    def test_real_branch_rows_are_real(self):
        # criterion 9's arc: with no shift its 17 real_branch rows carry
        # no shift bias (Im/Re 6.8e-7 at eps_shift = 1e-8 k; 2.3e-15 when
        # this bound was set)
        arc = ff.AnsatzEvaluator(ff.make_incidence(
            math.pi / 4, math.pi / 8, 3.0)).arc_sweep(0.0, 101)
        rows = [v for v, f in zip(arc.values, arc.flags) if f == "real_branch"]
        assert len(rows) == 17
        assert max(abs(v.imag) / abs(v.real) for v in rows) < 1e-14

    def test_rim_rows_on_either_side_of_the_real_branch_threshold(self):
        # on the theta = pi/2 rim at this incidence, 3 of 720 rows at
        # 0.5-degree steps have Im/Re between 1e-3 and 1e-2 (phi = 4, 6 and
        # 7 degrees: 3.7e-3, 6.5e-3, 7.4e-3 when this test was written);
        # the real_branch rows there read about 1e-16 (phi = 92 degrees)
        ev = ff.AnsatzEvaluator(ff.make_incidence(math.pi / 4, math.pi / 8, 3.0))
        obs = [ff.Observation(theta=math.pi / 2, phi=math.radians(d))
               for d in (4.0, 6.0, 7.0, 92.0)]
        values, flags, _ = ev._directions(obs)
        ratio = np.abs(values.imag) / np.abs(values.real)
        assert flags == ["continued"] * 3 + ["real_branch"]
        assert np.all((1e-3 < ratio[:3]) & (ratio[:3] < 1e-2))
        assert ratio[3] < 1e-14


def test_threshold_flagged_pole_row_is_finite_and_large(inc12):
    # just inside the near-pole band but off the exact pole: the shift
    # keeps the value finite while the magnitude blows up
    ev = ff.AnsatzEvaluator(inc12)
    xi = -inc12.xi0 - 5e-4
    eta = 0.2
    theta = math.asin(math.hypot(xi, eta))
    phi = math.atan2(eta, xi) % (2 * math.pi)
    point = ev.diffraction(ff.Observation(theta=theta, phi=phi))
    assert point.flag == "near_pole"
    assert np.isfinite(point.value)
    assert abs(point.value) > 10.0


class TestArcBatch:
    """An arc is one batch; a raising row is isolated, not spread."""

    @staticmethod
    def assert_rows_match(ev_arc, ev_rows, phi, n):
        res = ev_arc.arc_sweep(phi, n)
        _integral_memo.clear()  # the rows alone integrate again
        for theta, value, flag in zip(res.thetas, res.values, res.flags):
            point = ev_rows.diffraction(ff.Observation(theta=float(theta),
                                                       phi=phi))
            assert flag == point.flag
            if np.isnan(point.value):
                assert np.isnan(value)
            else:
                assert value == point.value
        return res

    def test_singular_row_is_isolated(self, monkeypatch, inc12):
        from qpdiff.errors import OnBranchCutError
        with pytest.raises(OnBranchCutError):
            ff.AnsatzEvaluator(inc12).fpp(-inc12.k, -0.0)
        batches = []
        original = ff._continued

        def spy(labels, *args):
            batches.append(len(labels))
            return original(labels, *args)

        # (phi, the raising row, the _continued batch sizes): a row that
        # fails a check before any integral names itself, so its arc
        # takes one retry with the other 20 rows (3 * 20 + 1 factors)
        arcs = [(0.0, 20, [64, 61]),  # half-factor branch point, theta = pi/2
                (math.pi / 4, 20, [64, 61]),  # inner sqrt cut, theta = pi/2
                (3 * math.pi / 4, 10, [61])]  # forcing pole, theta = pi/4
        monkeypatch.setattr(ff, "_continued", spy)
        ev = ff.AnsatzEvaluator(inc12)
        for phi, _, want in arcs:
            batches.clear()
            ev.arc_sweep(phi, 21)
            assert batches == want
        monkeypatch.undo()
        for phi, row, _ in arcs:
            res = self.assert_rows_match(ev, ff.AnsatzEvaluator(inc12), phi, 21)
            assert res.flags[row] == "near_pole" and np.isnan(res.values[row])
            assert np.isfinite(np.delete(res.values, row)).all()

    def test_long_arc_rows_match_rows_alone(self, inc12):
        # the README's 101-row arcs sample the contour in batches of more
        # than 16,384 points, which must round as a row's batch alone does
        self.assert_rows_match(ff.AnsatzEvaluator(inc12),
                               ff.AnsatzEvaluator(inc12), math.pi / 2, 101)

    def test_failed_rows_match_rows_alone(self, inc12):
        cfg = QuadratureConfig(max_subdivisions=1)
        res = self.assert_rows_match(ff.AnsatzEvaluator(inc12, cfg=cfg),
                                     ff.AnsatzEvaluator(inc12, cfg=cfg),
                                     math.pi, 9)
        assert set(res.flags) == {"failed"}


def test_long_arc_memory_is_bounded(tmp_path):
    # the 3001-row arc at the reference incidence, in a fresh process: its
    # quadrature runs in parts of a fixed node budget, so its peak resident
    # memory does not hold every node of a refinement round at once (about
    # 650 MiB before the parts; 214 MiB with them, most of it the branch-
    # crossing samples that _quarter_batch keeps for the whole batch)
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import math, resource\n"
            "from qpdiff.farfield import AnsatzEvaluator, make_incidence\n"
            "inc = make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)\n"
            "AnsatzEvaluator(inc).arc_sweep(math.pi / 4, 3001)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, cwd=tmp_path).stdout
    assert int(out.split()[-1]) / 1024.0 < 232.0
