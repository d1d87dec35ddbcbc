"""Cauchy machinery and quarter factors against closed-form oracles."""

import dataclasses
import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpdiff import specfun as sf
from qpdiff import whfactor as wf
from qpdiff._memo import Memo
from qpdiff.contour import (A_REF, C_REF, ContourSpec, ShiftedContour,
                            contour_point, contour_projection)
from qpdiff.errors import BranchCrossingError, DomainError, WindingError


@pytest.fixture(scope="module")
def shifted_pair(contour3=None):
    from qpdiff.contour import default_contour
    spec = default_contour(3.0)
    return spec, ShiftedContour(spec, -0.35), ShiftedContour(spec, +0.35)


class TestCauchySplit:
    """Oracle: partial fractions of f = 1/((z-3i)(z+3i)).

    The pole below the contour belongs to the plus part, the pole above
    to the minus part:  f = [-1/(6i(z+3i))] + [1/(6i(z-3i))].
    """

    def plus_exact(self, t):
        return -1.0 / (6j * (t + 3j))

    def minus_exact(self, t):
        return 1.0 / (6j * (t - 3j))

    def f(self, z):
        return 1.0 / (z ** 2 + 9.0)

    def test_plus_part_at_origin(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        val = wf.cauchy_split(self.f, 0.0, "plus", below, cfg)
        assert val == pytest.approx(1.0 / 18.0, abs=1e-9)

    def test_both_parts_at_contour_targets(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        for s in np.linspace(-4, 4, 10):
            t = contour_point(spec, s)
            assert wf.cauchy_split(self.f, t, "plus", below, cfg) == \
                pytest.approx(self.plus_exact(t), abs=1e-9)
            assert wf.cauchy_split(self.f, t, "minus", above, cfg) == \
                pytest.approx(self.minus_exact(t), abs=1e-9)

    def test_one_sided_function_has_zero_minus_part(self, shifted_pair, cfg):
        # poles only below the contour: already a plus function
        spec, below, above = shifted_pair
        val = wf.cauchy_split(lambda z: 1.0 / ((z + 3j) * (z + 4j)),
                              contour_point(spec, 0.4), "minus", above, cfg)
        assert abs(val) < 1e-8

    def test_sum_reconstruction_on_contour(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        for s in np.linspace(-9, 9, 20):
            t = contour_point(spec, s)
            total = (wf.cauchy_split(self.f, t, "plus", below, cfg)
                     + wf.cauchy_split(self.f, t, "minus", above, cfg))
            assert total == pytest.approx(self.f(t), abs=1e-9)

    def test_wrong_shift_direction_rejected(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        with pytest.raises(DomainError):
            wf.cauchy_split(self.f, 0.0, "plus", above, cfg)
        with pytest.raises(DomainError):
            wf.cauchy_split(self.f, 0.0, "minus", below, cfg)

    def test_target_hugging_shifted_contour_rejected(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        target = contour_point(spec, 0.7) - 0.34j  # 0.01 off the shifted line
        with pytest.raises(DomainError):
            wf.cauchy_split(self.f, target, "plus", below, cfg)


class TestCauchyFactorize:
    """Oracle: rational factorisation of g = (z^2+4)/(z^2+9)."""

    def g(self, z):
        return (z ** 2 + 4.0) / (z ** 2 + 9.0)

    def plus_exact(self, t):
        return (t + 2j) / (t + 3j)

    def minus_exact(self, t):
        return (t - 2j) / (t - 3j)

    def test_factors_match_closed_form(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        for s in np.linspace(-4, 4, 10):
            t = contour_point(spec, s)
            assert wf.cauchy_factorize(self.g, t, "plus", below, cfg) == \
                pytest.approx(self.plus_exact(t), abs=1e-9)
            assert wf.cauchy_factorize(self.g, t, "minus", above, cfg) == \
                pytest.approx(self.minus_exact(t), abs=1e-9)

    def test_identity_function(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        t = contour_point(spec, 0.5)
        assert wf.cauchy_factorize(lambda z: np.ones_like(z), t, "plus",
                                   below, cfg) == pytest.approx(1.0, abs=1e-10)
        assert wf.cauchy_factorize(lambda z: np.ones_like(z), t, "minus",
                                   above, cfg) == pytest.approx(1.0, abs=1e-10)

    def test_product_reconstruction(self, shifted_pair, cfg):
        spec, below, above = shifted_pair
        for s in np.linspace(-9, 9, 20):
            t = contour_point(spec, s)
            prod = (wf.cauchy_factorize(self.g, t, "plus", below, cfg)
                    * wf.cauchy_factorize(self.g, t, "minus", above, cfg))
            assert abs(prod - self.g(t)) < 1e-8

    def test_winding_detected(self, shifted_pair, cfg):
        # (z - i)/(z + i) winds once around the origin along the contour
        spec, below, above = shifted_pair
        with pytest.raises(WindingError):
            wf.cauchy_factorize(lambda z: (z - 1j) / (z + 1j),
                                contour_point(spec, 0.5), "plus", below, cfg)


class TestFactorLabel:
    def test_tags_and_domains(self):
        assert wf.PP.sign1 == +1 and wf.PP.side2 == +1
        assert wf.MM.sign1 == -1 and wf.MM.side2 == -1
        assert wf.MP.flip2() == wf.MM
        with pytest.raises(DomainError):
            wf.FactorLabel("xy")


class TestQuarterFactor:
    def test_zero_alpha1_collapses_to_prefactor(self, contour3, cfg, k3):
        # the log term vanishes identically, no quadrature error at all
        for label, sign in ((wf.MP, +1), (wf.PP, +1), (wf.MM, -1), (wf.PM, -1)):
            a2 = 1.0 + 1.0j if label.side2 > 0 else -1.0 - 1.0j
            expected = 1.0 / sf.fourth_root_down(k3 + label.side2 * a2)
            assert wf.quarter_factor(label, 0.0, a2, k3, contour3, cfg) == \
                pytest.approx(expected, abs=0)

    def test_half_factor_products(self, contour3, cfg, k3):
        # K_p? pairs multiply to K_+o, K_m? pairs to K_-o, on each
        # label's shared natural domain (alpha2 on the contour)
        a2 = contour_point(contour3, 1.7)
        a1_up, a1_dn = 0.8 + 0.9j, -0.8 + 0.2j
        kpp = wf.quarter_factor(wf.PP, a1_up, a2, k3, contour3, cfg)
        kpm = wf.quarter_factor(wf.PM, a1_up, a2, k3, contour3, cfg)
        assert kpp * kpm == pytest.approx(
            sf.half_factor("+o", a1_up, a2, k3), rel=1e-8)
        kmp = wf.quarter_factor(wf.MP, a1_dn, a2, k3, contour3, cfg)
        kmm = wf.quarter_factor(wf.MM, a1_dn, a2, k3, contour3, cfg)
        assert kmp * kmm == pytest.approx(
            sf.half_factor("-o", a1_dn, a2, k3), rel=1e-8)

    def test_four_factor_reconstruction_on_contours(self, contour3, cfg, k3):
        for s1, s2 in [(0.0, 0.0), (1.3, -2.1), (-3.3, 0.6), (5.0, 4.0)]:
            a1 = contour_point(contour3, s1)
            a2 = contour_point(contour3, s2)
            prod = 1.0 + 0.0j
            for label in wf.ALL_LABELS:
                prod *= wf.quarter_factor(label, a1, a2, k3, contour3, cfg)
            kv = sf.big_k(a1, a2, k3)
            assert abs(prod - kv) / abs(kv) < 1e-6

    def test_eps_independence(self, monkeypatch, contour3, cfg, k3):
        # the integration contour's shift is not in the memo's key: clear
        # the memo so that each shift takes its own integral
        a1, a2 = 0.8 + 0.9j, contour_point(contour3, 1.7)
        shifts = []

        def at_shift(label, eps):
            def shift(distance):
                shifts.append(eps)
                return np.full(np.shape(distance), eps)

            monkeypatch.setattr(wf, "default_shift", shift)
            wf._integral_memo.clear()
            return wf.quarter_factor(label, a1, a2, k3, contour3, cfg)

        for label in (wf.PP, wf.PM):
            v1, v2 = at_shift(label, 0.05), at_shift(label, 0.025)
            assert abs(v1 - v2) / abs(v1) < 10 * cfg.rel_tol
        assert shifts == [0.05, 0.025] * 2

    def test_vanishing_log_argument_is_a_branch_crossing(self):
        # kappa(K_REF, 0) = K_REF, so w = 1 - K_REF/K_REF = 0 exactly at
        # z = 0; the grid path and the scalar path share this guard
        with pytest.raises(BranchCrossingError):
            wf._log_density(wf.PP.sign1 * -wf.K_REF, np.array([0.0j, 1.0 + 1.0j]))

    def test_out_of_domain_rejected(self, contour3, cfg, k3):
        # alpha2 = -1.2 lies below the contour: not PP territory
        with pytest.raises(DomainError):
            wf.quarter_factor(wf.PP, 0.8 + 0.9j, -1.2, k3, contour3, cfg)
        # alpha1 = -1.2 lies below the contour: not P? territory
        with pytest.raises(DomainError):
            wf.quarter_factor(wf.PP, -1.2, 1.0 + 1.0j, k3, contour3, cfg)


class TestContinuation:
    def test_dispatch_matches_direct_in_natural_domain(self, contour3, cfg, k3):
        a1, a2 = 0.8 + 0.9j, 1.0 + 1.2j
        direct = wf.quarter_factor(wf.PP, a1, a2, k3, contour3, cfg)
        wf._integral_memo.clear()  # the dispatch integrates again
        value, route = wf.continue_factor(wf.PP, a1, a2, k3, contour3, cfg,
                                          with_route=True)
        assert route == "direct"
        assert abs(value - direct) < 1e-10 * abs(direct)

    def test_alpha2_division_route(self, contour3, cfg, k3):
        # alpha2 real in (-k, 0): below the contour near the indentation
        a1, a2 = 0.8 + 0.9j, -1.2
        value, route = wf.continue_factor(wf.PP, a1, a2, k3, contour3, cfg,
                                          with_route=True)
        assert route == "alpha2-div"
        # four-factor product still reconstructs the kernel there
        prod = 1.0 + 0.0j
        for label in wf.ALL_LABELS:
            prod *= wf.continue_factor(label, a1, a2, k3, contour3, cfg)
        kv = sf.big_k(a1, a2, k3)
        assert abs(prod - kv) / abs(kv) < 1e-6

    def test_overlap_agreement_direct_vs_division(self, contour3, cfg, k3):
        # both the integral and the division are valid for alpha2 on the
        # contour; they must agree to much better than 1e-6
        a1 = 0.8 + 0.9j
        worst = 0.0
        for s2 in np.linspace(-6.0, 6.0, 20):
            a2 = contour_point(contour3, s2)
            direct = wf.quarter_factor(wf.PP, a1, a2, k3, contour3, cfg)
            division = (sf.half_factor("+o", a1, a2, k3)
                        / wf.quarter_factor(wf.PM, a1, a2, k3, contour3, cfg))
            worst = max(worst, abs(direct - division) / abs(direct))
        assert worst < 1e-6

    def test_alpha1_route_constant_is_unimodular(self, contour3, cfg):
        for label in wf.ALL_LABELS:
            c = wf.continuation_constant(label, contour3, cfg)
            assert abs(abs(c) - 1.0) < 1e-6
            # empirically the swapped half-plane factors split with unit
            # constant on the overlap region
            assert c == pytest.approx(1.0, abs=1e-6)

    def test_four_factor_reconstruction_fully_continued(self, contour3, cfg,
                                                        k3, rng):
        for _ in range(6):
            a1 = rng.uniform(-2.7, 2.7)
            a2 = rng.uniform(-2.7, 2.7)
            prod = 1.0 + 0.0j
            for label in wf.ALL_LABELS:
                prod *= wf.continue_factor(label, a1, a2, k3, contour3, cfg)
            kv = sf.big_k(a1, a2, k3)
            assert abs(prod - kv) / abs(kv) < 1e-6

    def test_four_factor_reconstruction_at_complex_points(self, contour3, cfg,
                                                          k3):
        # complex points inside the ball |alpha1|^2 + |alpha2|^2 <= (0.9k)^2
        # and clear of both contours; outside the ball the product can be
        # -big_k, so reconstruction is only claimed inside it
        rng = np.random.default_rng(1905)
        box = 0.9 * k3
        points = []
        while len(points) < 16:
            a1, a2 = (complex(rng.uniform(-box, box), rng.uniform(-1.5, 1.5))
                      for _ in range(2))
            if abs(a1) ** 2 + abs(a2) ** 2 > box ** 2:
                continue
            if np.abs(contour_projection(contour3, np.array([a1, a2]))[1]).min() < 0.1:
                continue
            points.append((a1, a2))
        for a1, a2 in points:
            prod = 1.0 + 0.0j
            for label in wf.ALL_LABELS:
                prod *= wf.continue_factor(label, a1, a2, k3, contour3, cfg)
            kv = sf.big_k(a1, a2, k3)
            assert abs(prod - kv) / abs(kv) < 1e-6


def test_log_track_crossing_detection():
    # synthetic sample track that walks across the negative real axis
    good = np.array([1.0 + 0.5j, 0.8 + 0.2j, 0.9 - 0.3j, 1.1 - 0.1j])
    wf._check_log_track(good)  # crossing on the right half-plane: fine
    bad = np.array([-1.0 + 0.2j, -1.0 - 0.2j])
    with pytest.raises(BranchCrossingError):
        wf._check_log_track(bad)


def test_tracks_of_two_owners_are_told_apart():
    # owner 0 ends just above the negative real axis and owner 1 starts
    # just below it: no crossing, while one track doing the same crosses
    owner = np.array([1, 0, 1, 0])
    re = np.array([4.0, 2.0, 3.0, 1.0])
    w = np.array([1.0 - 0.1j, -1.0 + 0.2j, -1.0 - 0.2j, 1.0 + 0.3j])
    order = wf._track_order(owner, re)
    assert list(order) == [3, 1, 2, 0]
    wf._check_log_track(w[order], owner[order])
    with pytest.raises(BranchCrossingError):
        wf._check_log_track(w[order], np.zeros(4, dtype=int))
    inside = np.array([1.0 + 0.1j, -1.0 + 0.2j, -1.0 - 0.2j])
    with pytest.raises(BranchCrossingError):
        wf._check_log_track(inside, np.array([0, 1, 1]))


def test_crossing_track_raises_inside_a_batch(contour3, cfg):
    # K_pp's log argument at alpha1 = -5 - 2i crosses its cut along the
    # contour; batched with points whose tracks stay right of the cut
    from qpdiff.contour import contour_projection
    a1 = np.array([0.5 + 0.3j, -5.0 - 2.0j, 1.5 + 1.0j, 2.0 + 0.2j])
    a2 = contour_point(contour3, np.array([1.0, 1.0, -2.0, 3.0])) + 0.7j
    s2, gap2 = contour_projection(contour3, a2)
    ones = np.ones(4, dtype=int)
    clear = [0, 2, 3]
    wf._quarter_batch(ones[clear], ones[clear], a1[clear], a2[clear],
                      s2[clear], gap2[clear], contour3, cfg)
    wf._integral_memo.clear()  # the batch integrates the clear tracks too
    with pytest.raises(BranchCrossingError, match="crossed"):
        wf._quarter_batch(ones, ones, a1, a2, s2, gap2, contour3, cfg)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5),
                          st.floats(-1e4, 1e4, allow_nan=False)),
                min_size=1, max_size=200))
def test_track_order_is_the_lexsort_order(samples):
    # tracks grouped by owner; ties (repeated parameters, -0.0 against
    # 0.0) keep their input order in both
    owner, re = (np.array(part) for part in zip(*samples))
    assert np.array_equal(wf._track_order(owner, re), np.lexsort((re, owner)))


class TestBatch:
    """A pair's value does not depend on the batch it is computed in."""

    @staticmethod
    def pairs(label, contour, k):
        # alpha2 targets inside the natural half-plane, one within 0.01 of
        # the contour; alpha1 inside its own, one with |alpha1| > 4k (the
        # hump breaks)
        rng = np.random.default_rng(1729)
        s1, s2 = rng.uniform(-6.0, 6.0, (2, 20))
        d1, d2 = rng.uniform(0.05, 2.0, (2, 20))
        d2[3] = 0.005
        s1[7], d1[7] = 15.0, 0.5
        a1 = contour_point(contour, s1) + 1j * label.sign1 * d1
        a2 = contour_point(contour, s2) + 1j * label.side2 * d2
        assert abs(a1[7]) > 4 * k and abs(contour_projection(contour, a2[3])[1]) < 0.01
        return a1, a2

    @pytest.mark.parametrize("tag", ["pp", "pm", "mp", "mm"])
    def test_quarter_factor_batch_matches_batches_of_one(self, contour3, cfg,
                                                          k3, tag):
        label = wf.FactorLabel(tag)
        a1, a2 = self.pairs(label, contour3, k3)
        batch = wf.quarter_factor(label, a1, a2, k3, contour3, cfg)
        wf._integral_memo.clear()  # the pairs alone integrate again
        for j in range(a2.size):
            one = wf.quarter_factor(label, a1[j], a2[j], k3, contour3, cfg)
            assert batch[j] == one

    def test_shared_nodes_match_batches_of_one(self, monkeypatch, contour3,
                                               cfg, k3):
        # K_pp and K_mp at one alpha2 share their nodes, and so do K_pm and
        # K_mm; the |alpha1| > 4k pair has a mesh of its own
        import qpdiff.quadrature as quad
        from qpdiff.contour import contour_projection

        sign1, side2, a1, a2 = [], [], [], []
        for label in (wf.PP, wf.MP, wf.PM, wf.MM):
            p1, p2 = self.pairs(label, contour3, k3)
            sign1 += [label.sign1] * p1.size
            side2 += [label.side2] * p1.size
            a1.append(p1)
            a2.append(p2)
        sign1, side2 = np.array(sign1), np.array(side2)
        a1, a2 = np.concatenate(a1), np.concatenate(a2)
        s2, gap2 = contour_projection(contour3, a2)
        refined, entries = [], []
        refine, kappa = quad._refine, wf._kappa_raw

        def spy_refine(*args):
            refined.append(refine(*args))
            return refined[-1]

        def spy_kappa(kk, z):
            entries.append(np.size(z))
            return kappa(kk, z)

        monkeypatch.setattr(quad, "_refine", spy_refine)
        monkeypatch.setattr(wf, "_kappa_raw", spy_kappa)
        batch = wf._quarter_batch(sign1, side2, a1, a2, s2, gap2, contour3,
                                  cfg)
        (_, _, n_evals, n_panels), = refined
        shared = sum(entries)
        refined.clear()
        entries.clear()
        wf._integral_memo.clear()  # the pairs alone integrate again
        for j in range(a1.size):
            part = slice(j, j + 1)
            one = wf._quarter_batch(sign1[part], side2[part], a1[part],
                                    a2[part], s2[part], gap2[part],
                                    contour3, cfg)
            assert batch[j] == one[0]
        alone = np.array([r[2:] for r in refined])[:, :, 0]
        assert np.array_equal(alone[:, 0], n_evals)
        assert np.array_equal(alone[:, 1], n_panels)
        assert shared < 0.6 * sum(entries)

    def test_mixed_label_continuation_matches_batches_of_one(self, contour3,
                                                             cfg, k3):
        # every label at the points drawn for every label: all routes
        labels, a1, a2 = [], [], []
        for label in wf.ALL_LABELS:
            p1, p2 = self.pairs(label, contour3, k3)
            for other in wf.ALL_LABELS:
                labels += [other] * p1.size
                a1.append(p1)
                a2.append(p2)
        a1, a2 = np.concatenate(a1), np.concatenate(a2)
        values, routes = wf._continued(labels, a1, a2, contour3, cfg)
        assert set(routes) == {0, 1, 2, 3}
        wf._integral_memo.clear()  # the points alone integrate again
        for j, label in enumerate(labels):
            one, route = wf.continue_factor(label, a1[j], a2[j], k3, contour3,
                                            cfg, with_route=True)
            assert route == wf._ROUTES[routes[j]]
            assert values[j] == one


class TestIntegralMemo:
    """Each quarter-factor integral is taken once per process."""

    memo = wf._integral_memo

    @staticmethod
    def batch_of(points, contour, cfg):
        # K_pp at (a1, a2) pairs, through _quarter_batch
        a1, a2 = (np.array(p, dtype=np.complex128) for p in zip(*points))
        s2, gap2 = contour_projection(contour, a2)
        ones = np.ones(a1.size, dtype=int)
        return wf._quarter_batch(ones, ones, a1, a2, s2, gap2, contour, cfg)

    def test_four_labels_at_a_point_take_one_integral(self, monkeypatch,
                                                      contour3, cfg, k3):
        # off both contours every label needs the integral of the label
        # of the point's own sides: one integral, asked for one or four
        # labels at a time
        a1, a2 = 0.8 + 0.9j, 1.0 - 1.2j
        for label in wf.ALL_LABELS:  # the branch constants, measured apart
            wf.continuation_constant(label, contour3, cfg)
        integrals = []
        original = wf.integrate_over_shifted

        def spy(integrand, shifted, *args, **kwargs):
            integrals.append(len(shifted))
            return original(integrand, shifted, *args, **kwargs)

        monkeypatch.setattr(wf, "integrate_over_shifted", spy)
        self.memo.clear()
        values = [wf.continue_factor(label, a1, a2, k3, contour3, cfg)
                  for label in wf.ALL_LABELS]
        assert integrals == [1]
        assert (self.memo.misses, self.memo.hits) == (1, 3)
        self.memo.clear()
        batch, routes = wf._continued(list(wf.ALL_LABELS), np.full(4, a1),
                                      np.full(4, a2), contour3, cfg)
        assert integrals == [1, 1] and set(routes) == {0, 1, 2, 3}
        assert batch.tobytes() == np.array(values).tobytes()

    def test_warm_values_equal_cold_values(self, contour3, cfg, k3):
        labels, a1, a2 = [], [], []
        for label in wf.ALL_LABELS:
            p1, p2 = TestBatch.pairs(label, contour3, k3)
            labels += [label] * 6
            a1.append(p1[:6])
            a2.append(p2[:6])
        a1, a2 = np.concatenate(a1), np.concatenate(a2)
        cold, _ = wf._continued(labels, a1, a2, contour3, cfg)
        misses = self.memo.misses
        warm, _ = wf._continued(labels, a1, a2, contour3, cfg)
        assert self.memo.misses == misses and self.memo.hits >= a1.size
        assert warm.tobytes() == cold.tobytes()
        self.memo.clear()
        again, _ = wf._continued(labels[::-1], a1[::-1], a2[::-1], contour3,
                                 cfg)
        assert again[::-1].tobytes() == cold.tobytes()

    def test_every_input_of_an_integral_is_in_its_key(self, contour3, cfg):
        # a change in any of them is a miss; so is a zero's sign.  The
        # engine runs at K_REF: the wavenumber is not an input
        from qpdiff.contour import default_contour
        point = [(0.8 + 0.9j, 1.0 + 1.2j)]
        self.batch_of(point, contour3, cfg)
        variants = [
            lambda: self.batch_of(point, contour3, dataclasses.replace(cfg, rel_tol=1e-9)),
            lambda: self.batch_of(point, default_contour(3.5), cfg),
            lambda: self.batch_of([(0.8 + 0.9j, 1.1 + 1.2j)], contour3, cfg),
            lambda: self.batch_of([(complex(0.0, 0.9), 1.2j)], contour3, cfg),
            lambda: self.batch_of([(complex(-0.0, 0.9), 1.2j)], contour3, cfg),
            lambda: self.batch_of([(0.9j, complex(-0.0, 1.2))], contour3, cfg),
        ]
        for n, variant in enumerate(variants, start=2):
            variant()
            assert self.memo.misses == len(self.memo.values) == n
        for n, variant in enumerate(variants, start=2):
            variant()
        assert self.memo.misses == len(self.memo.values) == 1 + len(variants)

    def test_a_raising_batch_stores_nothing(self, contour3, cfg):
        # K_pp's track at alpha1 = -5 - 2i crosses its cut (see
        # test_crossing_track_raises_inside_a_batch)
        a1 = [0.5 + 0.3j, -5.0 - 2.0j, 1.5 + 1.0j, 2.0 + 0.2j]
        a2 = contour_point(contour3, np.array([1.0, 1.0, -2.0, 3.0])) + 0.7j
        for attempt in (1, 2):
            with pytest.raises(BranchCrossingError, match="crossed"):
                self.batch_of(list(zip(a1, a2)), contour3, cfg)
            assert not self.memo.values and self.memo.misses == 4 * attempt
        clear = [0, 2, 3]
        self.batch_of([(a1[j], a2[j]) for j in clear], contour3, cfg)
        assert self.memo.misses == 8 + len(clear)

    def test_the_memo_keeps_at_most_its_cap(self, monkeypatch, contour3, cfg):
        # the oldest values go first: the batch's last three stay
        monkeypatch.setattr(self.memo, "cap", 3)
        points = [(0.8 + 0.9j, contour_point(contour3, s) + 1.2j)
                  for s in (-2.0, -1.0, 0.5, 1.5, 2.5)]
        values = self.batch_of(points, contour3, cfg)
        assert len(self.memo.values) == 3 and self.memo.misses == 5
        for j in (4, 3, 2):
            assert self.batch_of(points[j:j + 1], contour3, cfg) == values[j]
        assert self.memo.misses == 5 and self.memo.hits == 3
        assert self.batch_of(points[:1], contour3, cfg) == values[0]
        assert self.memo.misses == 6 and len(self.memo.values) == 3

    def test_threads_share_the_memo(self):
        # more threads than cores, a short switch interval and a cap that
        # evicts in most lookups: every value is its key's, no lookup
        # raises and no count is lost
        memo = Memo(4)
        names = [("key", n) for n in range(8)]

        def work(seed):
            for draw in np.random.default_rng(seed).integers(0, 8, (3000, 3)):
                keys = [names[n] for n in draw]
                values = memo.lookup(keys, lambda pos, keys=keys: np.array(
                    [keys[p][1] for p in pos], dtype=np.complex128))
                assert np.array_equal(values, draw)

        _hammer(work)
        assert memo.hits + memo.misses == 4 * 3000 * 3
        assert len(memo.values) <= 4


class TestMemoContexts:
    """A lookup hashes its context once: ``token`` maps it to an int."""

    def test_equal_contexts_share_one_entry(self, cfg):
        from qpdiff.contour import default_contour
        memo = Memo(8)
        first = memo.token((None, 3.0, default_contour(3.0), cfg))
        again = memo.token((None, 3.0, default_contour(3.0),
                            dataclasses.replace(cfg)))
        assert first == again and len(memo.contexts) == 1
        memo.clear()
        assert not memo.contexts and not memo.values
        # a token is never given again, so a value stored under one
        # before the clear cannot answer another context after it
        assert memo.token(("other",)) != first

    def test_alternating_contexts_keep_one_entry_each(self):
        from qpdiff.contour import default_contour
        memo = Memo(16)
        contexts = [default_contour(k) for k in (1.0, 2.0, 3.0)]
        for n in range(1000):
            keys = [(memo.token(contexts[n % 3]), b"z")]
            value = memo.lookup(keys, lambda pos, n=n: np.full(pos.size, n % 3))
            assert value[0] == n % 3
        assert len(memo.contexts) <= 3 and len(memo.values) == 3
        assert (memo.misses, memo.hits) == (3, 997)

    def test_context_table_is_bounded(self):
        memo = Memo(4)
        tokens = [memo.token(("context", n)) for n in range(10)]
        assert len(set(tokens)) == 10 and len(memo.contexts) <= 4

    def test_library_memos_hold_one_context_each(self, contour3, cfg, k3):
        for label in wf.ALL_LABELS:
            wf.continue_factor(label, 0.8 + 0.9j, 1.0 - 1.2j, k3, contour3,
                               cfg)
        assert len(wf._projection_memo.contexts) == 1
        assert len(wf._integral_memo.contexts) == 1


def _hammer(work, n=4):
    """``work(seed)`` for seeds 0 .. n-1 on n threads at once, with a short
    switch interval; asserts that each returned without raising."""
    errors = []

    def guarded(seed):
        try:
            work(seed)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(s,)) for s in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)


class TestProjectionMemo:
    """Each alpha1 and alpha2 is projected onto the contour once per process."""

    memo = wf._projection_memo

    def test_four_labels_at_a_point_project_once(self, monkeypatch, contour3,
                                                 cfg, k3):
        # the first label places both variables; the other three read them
        # and the integral the first one took
        a1, a2 = 0.8 + 0.9j, 1.0 - 1.2j
        for label in wf.ALL_LABELS:  # the branch constants, measured apart
            wf.continuation_constant(label, contour3, cfg)
        projected, integrals = [], []
        project, integrate = wf.contour_projection, wf.integrate_over_shifted

        def spy_projection(contour, z):
            projected.append(np.size(z))
            return project(contour, z)

        def spy_integrals(integrand, shifted, *args, **kwargs):
            integrals.append(len(shifted))
            return integrate(integrand, shifted, *args, **kwargs)

        monkeypatch.setattr(wf, "contour_projection", spy_projection)
        monkeypatch.setattr(wf, "integrate_over_shifted", spy_integrals)
        self.memo.clear()
        wf._integral_memo.clear()
        for label in wf.ALL_LABELS:
            wf.continue_factor(label, a1, a2, k3, contour3, cfg)
        assert projected == [2] and integrals == [1]
        assert (self.memo.misses, self.memo.hits) == (2, 6)

    def test_stored_projections_equal_fresh_ones(self, contour3, rng):
        # random points, points on the contour and signed zeros, each twice:
        # cold and warm, the (s, gap) of every one is a fresh call's, bit
        # for bit, and each distinct bit pattern is projected once
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        z = np.concatenate([
            rng.uniform(-30.0, 30.0, 500) + 1j * rng.uniform(-5.0, 5.0, 500),
            contour_point(contour3, rng.uniform(-30.0, 30.0, 50)),
            zeros, [1.5, complex(1.5, -0.0), complex(-1.5, 0.0)]])
        z = np.concatenate([z, z[::-1]])
        fresh = contour_projection(contour3, z)
        for attempt in (1, 2):
            got = wf._projected(contour3, z)
            for part, want in zip(got, fresh):
                assert part.tobytes() == want.tobytes()
            assert self.memo.misses == len(self.memo.values) == z.size // 2
        # the zeros' gaps differ in sign alone: a memo keyed by value
        # would give two of them the other's
        gaps = wf._projected(contour3, np.array(zeros))[1]
        assert [np.signbit(g) for g in gaps] == [False, True, False, True]

    def test_a_raising_projection_stores_nothing(self, contour3):
        # a = -0.5, c = 1 is not Re-monotone: its projections raise
        from qpdiff.contour import ContourSpec
        from qpdiff.errors import ContourError
        z = np.array([0.5 + 0.3j, -1.0 - 0.2j])
        for attempt in (1, 2):
            with pytest.raises(ContourError):
                wf._projected(ContourSpec(a=-0.5, c=1.0), z)
            assert not self.memo.values and self.memo.misses == 2 * attempt
        wf._projected(contour3, z)
        assert len(self.memo.values) == 2

    def test_threads_share_the_projection_memo(self, monkeypatch, contour3):
        # as test_threads_share_the_memo, through _projected: every (s, gap)
        # is its variable's, no call raises and no count is lost
        monkeypatch.setattr(self.memo, "cap", 4)
        points = contour_point(contour3, np.linspace(-4.0, 4.0, 8)) + 0.5j
        want = np.column_stack(contour_projection(contour3, points))
        counted = []

        def work(seed):
            for draw in np.random.default_rng(seed).integers(0, 8, (500, 3)):
                got = np.column_stack(wf._projected(contour3, points[draw]))
                assert got.tobytes() == want[draw].tobytes()
                counted.append(np.unique(draw).size)

        _hammer(work)
        assert self.memo.hits + self.memo.misses == sum(counted)
        assert len(self.memo.values) <= 4

    def test_repeated_values_equal_cleared_ones(self, contour3, cfg, k3):
        # warm calls read both memos; after clearing them the same calls
        # project and integrate again, to the same bits
        points = [(0.8 + 0.9j, 1.0 - 1.2j), (0.5, -1.0),
                  (contour_point(contour3, 1.0), 0.3 + 0.2j),
                  (0.0, 1.0 + 0.5j), (-1.2 - 0.4j, complex(-0.0, 0.7))]

        def values():
            return np.array([wf.continue_factor(label, a1, a2, k3, contour3,
                                                cfg)
                             for a1, a2 in points for label in wf.ALL_LABELS])

        cold = values()
        assert values().tobytes() == cold.tobytes()
        self.memo.clear()
        wf._integral_memo.clear()
        assert values().tobytes() == cold.tobytes()


@pytest.mark.parametrize("k", [1.0, 3.0, 10.0])
def test_continuation_constant_is_one(cfg, k):
    # the constant of the default contour at k, mapped to K_REF as every
    # entry point maps it
    from qpdiff.contour import default_contour, to_reference
    contour = to_reference(k, default_contour(k))[2]
    for label in wf.ALL_LABELS:
        c = wf.continuation_constant(label, contour, cfg)
        assert abs(c.real - 1.0) < 1e-10 and abs(c.imag) < 1e-10


def test_four_continuation_constants_take_48_integrals(monkeypatch, contour3,
                                                       cfg):
    # pp and pm take 24 overlap integrals each; mp and mm need the same
    # label pairs at the same points and take theirs from the integral
    # memo, so a memo context that failed to match would double the count
    counts = []
    original = wf.integrate_over_shifted

    def spy(density, shifted, *args):
        counts.append(len(shifted))
        return original(density, shifted, *args)

    monkeypatch.setattr(wf, "integrate_over_shifted", spy)
    wf._measured_constant.cache_clear()
    for label in wf.ALL_LABELS:
        wf.continuation_constant(label, contour3, cfg)
    assert counts == [24, 24]


def test_failed_continuation_constant_is_measured_once(monkeypatch, k3):
    # tolerances that no integral meets in one bisection, on a contour
    # that passes the gate but is not the default, so the arc's alpha1
    # routes measure their constants: every row of the phi = 0 arc is NaN,
    # and each constant it asks for is measured once, not once per half
    # batch of _split_on_error nor once per sweep
    from qpdiff.contour import A_REF, C_REF, ContourSpec, validate_contour
    from qpdiff.errors import QuadratureError
    from qpdiff.farfield import AnsatzEvaluator, make_incidence
    from qpdiff.quadrature import QuadratureConfig

    contour = ContourSpec(a=2 * A_REF, c=C_REF / 3)
    assert contour != wf._DEFAULT and validate_contour(contour, k3).ok
    cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=1)
    overlap = np.tile(contour_point(
        contour, np.repeat([-5.0, -1.5, 1.5, 5.0], 3)), 2)
    measured = []
    batch = wf._quarter_batch

    def spy(sign1, side2, a1, *args):
        if np.array_equal(a1, overlap):
            measured.append((int(sign1[0]), int(side2[0])))
        return batch(sign1, side2, a1, *args)

    monkeypatch.setattr(wf, "_quarter_batch", spy)
    wf._measured_constant.cache_clear()
    inc = make_incidence(np.pi / 4, -3 * np.pi / 4, k3)
    for _ in range(2):
        sweep = AnsatzEvaluator(inc, contour=contour, cfg=cfg).arc_sweep(0.0, 9)
        assert sweep.flags == ["failed"] * 8 + ["near_pole"]
        assert np.isnan(sweep.values).all()
    assert measured and len(measured) == len(set(measured))
    for sign1, side2 in measured:
        label = wf.FactorLabel(("p" if sign1 > 0 else "m")
                               + ("p" if side2 > 0 else "m"))
        with pytest.raises(QuadratureError):
            wf.continuation_constant(label, contour, cfg)
    assert len(measured) == len(set(measured))


def test_a_branch_point_row_is_named_before_any_integral(contour3, k3):
    # under tolerances no integral meets, the default arc's theta = pi/2
    # row, where a half factor's branch point is hit exactly, is named
    # near_pole by the half factors before any integral, and the others,
    # which break down in their integrals, fail
    from qpdiff.farfield import AnsatzEvaluator, make_incidence
    from qpdiff.quadrature import QuadratureConfig

    cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-16, max_subdivisions=1)
    inc = make_incidence(np.pi / 4, -3 * np.pi / 4, k3)
    sweep = AnsatzEvaluator(inc, contour=contour3, cfg=cfg).arc_sweep(0.0, 9)
    assert sweep.flags == ["failed"] * 8 + ["near_pole"]
    assert np.isnan(sweep.values).all()


def _points_off_both_contours(contour, n, seed):
    """``n`` complex points inside the ball |a1|^2 + |a2|^2 <= (0.9 K_REF)^2,
    each variable at least 0.1 from the contour, both sides of it taken."""
    rng = np.random.default_rng(seed)
    box, points = 0.9 * 3.0, []
    while len(points) < n:
        a = np.array([complex(rng.uniform(-box, box), rng.uniform(-1.5, 1.5))
                      for _ in range(2)])
        gap = contour_projection(contour, a)[1]
        if np.sum(np.abs(a) ** 2) <= box ** 2 and np.abs(gap).min() >= 0.1:
            points.append(a)
    a1, a2 = np.array(points).T
    return a1, a2


class TestUnitConstantOnTheDefault:
    """On the K_REF default contour an alpha1 route takes its branch
    constant as exactly 1 and measures none; any other contour measures
    the constants it needs, once each."""

    other = ContourSpec(a=2 * A_REF, c=C_REF / 3)

    @staticmethod
    def alpha1_route(label, a1, a2, contour, cfg, c=None):
        """The alpha1 routes of ``label`` at arrays of points, spelled out:
        the swapped half factor (times ``c``) over the alpha1-flipped
        label, itself continued in alpha2 where alpha2 is off its side."""
        need = wf.FactorLabel(("m" if label.sign1 > 0 else "p") + label.tag[1])
        half = sf.half_factor("o+" if label.side2 > 0 else "o-", a1, a2, 3.0)
        return np.divide(half if c is None else c * half, np.asarray(
            wf.continue_factor(need, a1, a2, 3.0, contour, cfg)))

    def test_the_default_measures_no_constant(self, monkeypatch, contour3,
                                              cfg, k3):
        # four labels at 8 fresh points: each point takes its one integral,
        # and no label asks for a constant
        a1, a2 = _points_off_both_contours(contour3, 8, 3232)
        integrals, measured = [], []
        integrate, measure = wf.integrate_over_shifted, wf._measured_constant

        def count_integrals(density, shifted, *args):
            integrals.append(len(shifted))
            return integrate(density, shifted, *args)

        monkeypatch.setattr(wf, "integrate_over_shifted", count_integrals)
        monkeypatch.setattr(wf, "_measured_constant",
                            lambda *args: measured.append(args) or measure(*args))
        routes = {wf.continue_factor(label, p1, p2, k3, contour3, cfg,
                                     with_route=True)[1]
                  for label in wf.ALL_LABELS for p1, p2 in zip(a1, a2)}
        assert routes == set(wf._ROUTES)
        assert sum(integrals) == 8 and not measured

    def test_default_alpha1_values_are_the_half_factor_over_one_integral(
            self, contour3, cfg, k3):
        # bit for bit: no constant, and no product by 1 either
        a1, a2 = _points_off_both_contours(contour3, 8, 3233)
        for label in wf.ALL_LABELS:
            values, routes = wf.continue_factor(label, a1, a2, k3, contour3,
                                                cfg, with_route=True)
            alpha1 = np.char.startswith(routes, "alpha1")
            assert np.count_nonzero(routes == "alpha1-div")
            want = self.alpha1_route(label, a1[alpha1], a2[alpha1], contour3, cfg)
            assert values[alpha1].tobytes() == want.tobytes()

    def test_the_swap_identity_holds_on_every_route(self, contour3, cfg, k3):
        # K_s1s2(a1, a2) = K_s2s1(a2, a1) by the kernel's symmetry: an
        # alpha1 route against the swapped label's alpha2 route, with no
        # oracle; 1.38e-15 at these 16 points when set (1.9e-15 at 200)
        a1, a2 = _points_off_both_contours(contour3, 16, 3236)
        for label in wf.ALL_LABELS:
            swapped = wf.FactorLabel(label.tag[::-1])
            values, routes = wf.continue_factor(label, a1, a2, k3, contour3,
                                                cfg, with_route=True)
            assert set(routes) == set(wf._ROUTES)
            other = wf.continue_factor(swapped, a2, a1, k3, contour3, cfg)
            assert np.max(np.abs(values - other) / np.abs(values)) < 3e-15

    def test_another_contour_measures_each_constant_once(self, cfg, k3):
        from qpdiff.contour import validate_contour
        assert self.other != wf._DEFAULT and validate_contour(self.other, k3).ok
        a1, a2 = _points_off_both_contours(self.other, 8, 3234)
        wf._measured_constant.cache_clear()
        for _ in range(2):
            got = [wf.continue_factor(label, a1, a2, k3, self.other, cfg,
                                      with_route=True)
                   for label in wf.ALL_LABELS]
        assert wf._measured_constant.cache_info().misses == 4
        for label, (values, routes) in zip(wf.ALL_LABELS, got):
            alpha1 = np.char.startswith(routes, "alpha1")
            c = wf.continuation_constant(label, self.other, cfg)
            assert c != 1.0  # a measured constant, not the default's 1
            want = self.alpha1_route(label, a1[alpha1], a2[alpha1], self.other,
                                     cfg, c)
            assert values[alpha1].tobytes() == want.tobytes()


def test_rescaled_by_one_keeps_every_bit():
    from qpdiff.contour import rescaled
    bits = np.array([0x8000000000000000, 0x7FF8000000000001, 0xFFF0000000000000,
                     0x7FF0000000000000, 0x0000000000000001, 0x3FF0000000000000,
                     0xFFF4000000000000, 0x8000000000000000], dtype=np.uint64)
    z = bits.view(np.complex128).reshape(2, 2)  # -0.0, NaNs, +-inf, subnormal
    assert rescaled(z, 1.0).tobytes() == z.tobytes()
    assert rescaled(z, 1.0).shape == (4,)
    assert rescaled(complex(-0.0, np.inf), 1.0).tobytes() == np.array(
        [complex(-0.0, np.inf)]).tobytes()


def test_no_entry_point_returns_a_view_of_its_input(contour3, cfg, k3):
    # at k = K_REF every scale is 1 and the variables are not copied on the
    # way in, so a result written through must leave the inputs as they were
    from qpdiff.farfield import AnsatzEvaluator, make_incidence
    from qpdiff.grid_eval import factor_field
    a1, a2 = _points_off_both_contours(contour3, 4, 3235)
    a1[0], a2[0] = 0.8 + 0.9j, 1.0 + 1.2j  # in K_pp's natural domain
    before = a1.tobytes() + a2.tobytes()
    ev = AnsatzEvaluator(make_incidence(np.pi / 4, -3 * np.pi / 4, k3))
    results = [
        wf.continue_factor(wf.PP, a1, a2, k3, contour3, cfg),
        wf.quarter_factor(wf.PP, a1[:1], a2[:1], k3, contour3, cfg),
        factor_field(wf.PP, a1[0], a2, k3, contour3, cfg)[0],
        ev.fpp(a1, a2),
    ]
    for out in results:
        assert not np.shares_memory(out, a1) and not np.shares_memory(out, a2)
        out[...] = 0.0
    assert a1.tobytes() + a2.tobytes() == before


class TestSplitOnError:
    """Row isolation: named entries cost one retry, unnamed errors halve."""

    @staticmethod
    def split(fail, mask_pad=0, named=True):
        # entries in ``fail`` raise; the error names them if ``named``,
        # with ``mask_pad`` extra entries to give the mask a wrong size
        calls = []

        def evaluate(part):
            calls.append(part.tolist())
            bad = np.isin(part, fail)
            if bad.any():
                mask = np.append(bad, np.zeros(mask_pad, bool)) if named else None
                raise DomainError("entry fails", mask=mask)
            return 10 * part

        got = {}
        for part, result in wf._split_on_error(evaluate, np.arange(8)):
            for j, i in enumerate(part):
                assert i not in got
                got[i] = (result if isinstance(result, DomainError)
                          else result[j])
        assert sorted(got) == list(range(8))
        return got, calls

    def test_named_entries_cost_one_retry(self):
        got, calls = self.split([2, 5])
        assert calls == [list(range(8)), [0, 1, 3, 4, 6, 7]]
        assert isinstance(got[2], DomainError) and got[5] is got[2]
        assert all(got[i] == 10 * i for i in (0, 1, 3, 4, 6, 7))

    def test_every_entry_named_needs_no_retry(self):
        got, calls = self.split(range(8))
        assert calls == [list(range(8))]
        assert len({id(e) for e in got.values()}) == 1

    def test_unnamed_error_is_halved(self):
        got, calls = self.split(range(8), named=False)
        assert len(calls) == 2 * 8 - 1
        assert all(isinstance(e, DomainError) for e in got.values())

    def test_mask_of_another_size_is_ignored(self):
        got, calls = self.split([2, 5], mask_pad=1)
        assert calls == self.split([2, 5], named=False)[1]
        assert len(calls) > 2
        assert all(isinstance(got[i], DomainError) for i in (2, 5))


def test_half_factor_mask_names_entries_of_the_batch(contour3, cfg):
    # "o-" branch point: kappa(3, alpha1) - alpha2 = 0 at (3, 0).  K_mm
    # off in alpha1 takes the swapped "o-" at entries 0, 2, 3; K_mp off
    # in alpha2 takes its own "-o" at entry 1; one pass names entry 2
    from qpdiff.errors import OnBranchCutError
    labels = [wf.MM, wf.MP, wf.MM, wf.MM]
    a1 = np.array([1.0, 0.5 - 1j, 3.0, 0.2])
    a2 = np.array([0.0, -1j, 0.0, 0.0])
    with pytest.raises(OnBranchCutError) as info:
        wf._continued(labels, a1, a2, contour3, cfg)
    assert info.value.mask.tolist() == [False, False, True, False]


def test_either_failing_half_names_a_point_that_needs_both(contour3, cfg,
                                                           k3):
    # off in both variables a point takes the swapped and its own half:
    # K_pp at entry 0 hits its swapped "o+" branch point, K_mp at entry 1
    # its own "+o" one; entry 2 (K_mm, swapped "o-") is fine
    from qpdiff.errors import OnBranchCutError
    # kappa of arrays: numpy's scalar arithmetic rounds otherwise
    kap = sf.kappa(k3, np.array([1.0 - 2j, -3.55 - 2.9j]))
    a1 = np.array([1.0 - 2j, -kap[1], 1.0])
    a2 = np.array([-kap[0], -3.55 - 2.9j, 0.0])
    sides = wf.gap_side(contour_projection(contour3, np.concatenate(
        [a1, a2]))[1])
    assert sides.tolist() == [-1, 1, 1, -1, -1, 0]  # both off at 0 and 1
    with pytest.raises(OnBranchCutError) as info:
        wf._continued([wf.PP, wf.MP, wf.MM], a1, a2, contour3, cfg)
    assert info.value.mask.tolist() == [True, True, False]


def test_warm_continuation_takes_one_half_factor_pass(monkeypatch, contour3,
                                                      cfg, k3):
    # each route, warm: at most one _half_factor_raw call, no half_factor
    a1, a2 = 0.8 + 0.9j, 1.0 - 1.2j
    for label in wf.ALL_LABELS:
        wf.continue_factor(label, a1, a2, k3, contour3, cfg)
    passes, raw = [], wf._half_factor_raw

    def spy(k, inner, outer, sign):
        passes.append(inner.size)
        return raw(k, inner, outer, sign)

    def refuse(*args):
        raise AssertionError("half_factor called")

    monkeypatch.setattr(wf, "_half_factor_raw", spy)
    monkeypatch.setattr(sf, "half_factor", refuse)
    routes = []
    for label in wf.ALL_LABELS:
        passes.clear()
        routes.append(wf.continue_factor(label, a1, a2, k3, contour3, cfg,
                                         with_route=True)[1])
        assert len(passes) <= 1 and sum(passes) <= 2
    assert sorted(routes) == sorted(wf._ROUTES)


def test_a_warm_label_evaluates_no_contour_point_and_no_integral(
        monkeypatch, contour3, cfg, k3):
    # at a point already projected and integrated, each label of each route
    # reads both memos: no contour evaluation, no integral
    import qpdiff.contour as ct
    import qpdiff.quadrature as quad
    a1, a2 = 0.8 + 0.9j, 1.0 - 1.2j
    cold = [wf.continue_factor(label, a1, a2, k3, contour3, cfg, with_route=True)
            for label in wf.ALL_LABELS]
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on a warm label")
        return spy

    for module in (ct, quad):
        monkeypatch.setattr(module, "_point_and_derivative",
                            refuse("_point_and_derivative"))
    monkeypatch.setattr(wf, "integrate_over_shifted",
                        refuse("integrate_over_shifted"))
    warm = [wf.continue_factor(label, a1, a2, k3, contour3, cfg, with_route=True)
            for label in wf.ALL_LABELS]
    assert not calls and warm == cold
    assert sorted(route for _, route in warm) == sorted(wf._ROUTES)


@pytest.mark.parametrize("z, calls, points", [
    ([0.8 + 0.9j, 1.0 - 1.2j], 3, 9),
    ([0.5, -1.0], 2, 4),
    ([-2.5 + 0.1j, 2.6 - 0.05j], 3, 10),
    ([0.01, 0.02j], 2, 7),
])
def test_a_cold_projection_evaluates_no_more_contour_points(
        monkeypatch, contour3, z, calls, points):
    # the sign bracket's ends and the Newton seed are one evaluation, the
    # first Newton one: the calls and the parameters they evaluate, at most
    # (the contour's cached geometry samples are not the point's)
    import qpdiff.contour as ct
    ct._geometry(contour3)
    sizes, original = [], ct._point_and_derivative

    def spy(spec, s, derivative=True):
        sizes.append(np.size(s))
        return original(spec, s, derivative)

    monkeypatch.setattr(ct, "_point_and_derivative", spy)
    wf._projected(contour3, np.array(z))
    assert len(sizes) <= calls and sum(sizes) <= points


def test_empty_batch_continues_to_empty_arrays(contour3, cfg, k3):
    empty = np.array([], dtype=complex)
    values, routes = wf.continue_factor(wf.PP, empty, empty, k3, contour3,
                                        cfg, with_route=True)
    assert values.shape == routes.shape == (0,)


#: K_pp at k = 0.5, 3 and 10, written by tests/kpp_scale_oracle.py with
#: mpmath and no qpdiff: each k on its own contour and wavenumber
KPP_SCALE_TABLE = os.path.join(os.path.dirname(__file__), "kpp_scale_table.json")


@pytest.mark.parametrize("k", [0.5, 3.0, 10.0])
def test_kpp_matches_the_scale_oracle(cfg, k):
    # alpha1 above the contour, alpha2 on both sides (the direct and the
    # alpha2-div routes); the table agreed to 5.5e-16 when it was made
    from qpdiff.contour import default_contour
    with open(KPP_SCALE_TABLE) as handle:
        rows = [r for r in json.load(handle)["rows"] if r["k"] == k]
    a1, a2, want = (np.array([complex(*r[key]) for r in rows])
                    for key in ("alpha1", "alpha2", "k_pp"))
    got = wf.continue_factor(wf.PP, a1, a2, k, default_contour(k), cfg)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-15
