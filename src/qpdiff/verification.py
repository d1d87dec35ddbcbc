"""Acceptance checks behind ``qpdiff verify`` and the acceptance tests.

Each check function covers one acceptance criterion, pins its
tolerances inline, and returns a ``CheckResult`` with a one-line
detail.  The checks take no arguments: they build their own contours,
configs and incidences from the criterion's stated parameters, so that
a ``verify`` run reports on the library as shipped, not on whatever
configuration happens to be active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .contour import (ShiftedContour, contour_point, default_contour,
                      loci_clearance, sign_compatibility_scan)
from .farfield import AnsatzEvaluator, Observation, make_incidence
from .portrait import PortraitSpec, render
from .quadrature import QuadratureConfig
from .specfun import big_k, diag_log, half_factor, kappa, sqrt_down
from .whfactor import (ALL_LABELS, MP, PP, _integral_memo, _projection_memo,
                       cauchy_factorize, cauchy_split, continue_factor,
                       quarter_factor)


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    detail: str
    data: dict = field(default_factory=dict)


def _result(name, t0, limit, ok, detail, **data):
    elapsed = perf_counter() - t0
    in_time = elapsed < limit
    if not in_time:
        detail += f"; exceeded {limit:.0f} s budget"
    return CheckResult(name=name, passed=bool(ok and in_time),
                       elapsed=elapsed, detail=detail, data=data)


# -- criterion 1 -----------------------------------------------------------

def check_branch_identities() -> CheckResult:
    """sqrt/log/kappa defining identities at 1e4 points, and cut locations."""
    t0 = perf_counter()
    rng = np.random.default_rng(20240811)
    n = 10_000
    z = (np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
         * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    e_sqrt = np.max(np.abs(sqrt_down(z) ** 2 - z) / np.abs(z))
    e_log = np.max(np.abs(np.exp(diag_log(z)) - z) / np.abs(z))
    kk = rng.uniform(0.3, 5.0, n) + 1j * rng.uniform(0.0, 5.0, n)
    e_kap = np.max(np.abs(kappa(kk, z) ** 2 - (kk ** 2 - z ** 2))
                   / np.maximum(np.abs(kk ** 2 - z ** 2), 1e-30))
    ok = e_sqrt < 1e-13 and e_log < 1e-13 and e_kap < 1e-13

    # cut locations: paired probes straddling 16 rays, radius 2
    delta = 1e-8
    cuts_ok = True
    for j in range(16):
        theta = -np.pi + j * (2 * np.pi / 16)
        zp = 2.0 * np.exp(1j * (theta + delta))
        zm = 2.0 * np.exp(1j * (theta - delta))
        jump_sqrt = abs(sqrt_down(zp) - sqrt_down(zm))
        jump_log = abs(diag_log(zp) - diag_log(zm))
        on_sqrt_cut = abs(theta + np.pi / 2) < 1e-12
        on_log_cut = abs(theta + 3 * np.pi / 4) < 1e-12
        cuts_ok &= (jump_sqrt > 1.0) == on_sqrt_cut
        cuts_ok &= (jump_log > 1.0) == on_log_cut

    # kernel and half-factor reconstruction at random points
    a1 = rng.normal(size=200) + 1j * rng.normal(size=200)
    a2 = rng.normal(size=200) + 1j * rng.normal(size=200)
    kv = big_k(a1, a2, 3.0)
    e_k = np.max(np.abs(kv ** 2 * (9.0 - a1 ** 2 - a2 ** 2) - 1.0))
    e_half = np.max(np.abs(half_factor("-o", a1, a2, 3.0)
                           * half_factor("+o", a1, a2, 3.0) - kv) / np.abs(kv))
    ok = ok and cuts_ok and e_k < 1e-12 and e_half < 1e-12
    return _result(
        "1 branch-function identities", t0, 5.0, ok,
        f"sqrt {e_sqrt:.1e}, log {e_log:.1e}, kappa {e_kap:.1e}, "
        f"kernel {e_k:.1e}, half {e_half:.1e}, cuts {'ok' if cuts_ok else 'BAD'}",
        e_sqrt=float(e_sqrt), e_log=float(e_log), e_kappa=float(e_kap),
    )


# -- criterion 2 -----------------------------------------------------------

def check_sign_compatibility() -> CheckResult:
    """Im(1/K) >= 0 on the 200x200 contour-parameter grid (k = 3)."""
    t0 = perf_counter()
    spec = default_contour(3.0)
    scan = sign_compatibility_scan(spec, spec, 3.0, 200)
    dist = math.hypot(scan.s1_at_min, scan.s2_at_min)
    ok = scan.min_value >= -1e-10 and dist <= 0.1
    clearance = loci_clearance(spec, spec, 3.0)
    ok = ok and clearance > 0.0
    return _result(
        "2 sign compatibility", t0, 30.0, ok,
        f"min {scan.min_value:.2e} at parameter distance {dist:.3f}, "
        f"loci clearance {clearance:.2f}",
        min_value=scan.min_value, argmin_distance=dist, clearance=clearance,
    )


# -- criterion 3 -----------------------------------------------------------

def check_four_factor() -> CheckResult:
    """|K_pp K_pm K_mp K_mm - K| / |K| < 1e-6 on the contours and at real points."""
    t0 = perf_counter()
    k = 3.0
    spec = default_contour(k)
    cfg = QuadratureConfig()
    grid = np.linspace(-8.0, 8.0, 10)
    a1 = contour_point(spec, np.repeat(grid, grid.size))
    a2 = contour_point(spec, np.tile(grid, grid.size))
    prod = np.prod([quarter_factor(label, a1, a2, k, spec, cfg)
                    for label in ALL_LABELS], axis=0)
    worst_on = float(np.max(np.abs(prod - big_k(a1, a2, k))
                            / np.abs(big_k(a1, a2, k))))
    a1, a2 = np.random.default_rng(7).uniform(-2.7, 2.7, (20, 2)).T
    prod = np.prod([continue_factor(label, a1, a2, k, spec, cfg)
                    for label in ALL_LABELS], axis=0)
    worst_cont = float(np.max(np.abs(prod - big_k(a1, a2, k))
                              / np.abs(big_k(a1, a2, k))))
    ok = worst_on < 1e-6 and worst_cont < 1e-6
    return _result(
        "3 four-factor reconstruction", t0, 120.0, ok,
        f"on-contour worst {worst_on:.2e} (100 pts), "
        f"continued worst {worst_cont:.2e} (20 pts)",
        worst_on=worst_on, worst_continued=worst_cont,
    )


# -- criterion 4 -----------------------------------------------------------

def _loglog_slope(radii, mags):
    return float(np.polyfit(np.log(radii), np.log(mags), 1)[0])


def check_decay() -> CheckResult:
    """Large-|alpha| decay exponents of the half, quarter and assembled factors."""
    t0 = perf_counter()
    k = 3.0
    spec = default_contour(k)
    radii = np.geomspace(1e2, 1e4, 7)
    slopes = {}

    # explicit half factors in alpha1
    for tag, ray in (("+o", np.exp(1j * np.pi / 3)),
                     ("-o", np.exp(-1j * 2 * np.pi / 3))):
        mags = [abs(half_factor(tag, r * ray, 0.3, k)) for r in radii]
        slopes[f"K{tag}"] = _loglog_slope(radii, mags)

    # quarter factors in alpha2, each along a ray inside its half-plane
    cfg_q = QuadratureConfig()
    fixed = {"p": 0.7 + 0.9j, "m": -0.7 - 0.9j}
    rays = {"p": np.exp(1j * np.pi / 4), "m": np.exp(-1j * 3 * np.pi / 4)}
    for label in ALL_LABELS:
        a1 = fixed[label.tag[0]]
        ray = rays[label.tag[1]]
        mags = np.abs(quarter_factor(label, a1, radii * ray, k, spec, cfg_q))
        slopes[f"K{label.tag}"] = _loglog_slope(radii, mags)

    # assembled candidate in alpha1 and the alpha2 product estimate
    inc = make_incidence(math.pi / 4, -3 * math.pi / 4, k)
    cfg_f = QuadratureConfig()
    ev = AnsatzEvaluator(inc, contour=spec, cfg=cfg_f)
    mags = np.abs(ev.fpp(radii * np.exp(1j * np.pi / 3), 0.4 + 0.6j))
    slopes["F"] = _loglog_slope(radii, mags)
    a1f, a2r = 0.7 + 0.9j, radii * np.exp(1j * np.pi / 4)
    mags = np.abs(ev.fpp(a1f, a2r) * continue_factor(PP, a1f, a2r, k, spec, cfg_f)
                  * continue_factor(MP, inc.a1, a2r, k, spec, cfg_f))
    slopes["composite"] = _loglog_slope(radii, mags)

    ok = (abs(slopes["K+o"] + 0.5) < 0.03 and abs(slopes["K-o"] + 0.5) < 0.03
          and all(abs(slopes[f"K{lab.tag}"] + 0.25) < 0.03
                  for lab in ALL_LABELS)
          and abs(slopes["F"] + 0.5) < 0.05
          and abs(slopes["composite"] + 1.0) < 0.05)
    detail = ", ".join(f"{k_}={v:.3f}" for k_, v in slopes.items())
    return _result("4 decay exponents", t0, 120.0, ok, detail, **slopes)


# -- criterion 5 -----------------------------------------------------------

def check_cauchy_oracles() -> CheckResult:
    """Sum-split and factorisation against closed-form rational oracles."""
    t0 = perf_counter()
    spec = default_contour(3.0)
    cfg = QuadratureConfig()
    eps = 0.35
    below = ShiftedContour(spec, -eps)
    above = ShiftedContour(spec, +eps)

    def f(z):
        return 1.0 / (z ** 2 + 9.0)

    def plus_exact(t):
        return -1.0 / (6j * (t + 3j))

    def minus_exact(t):
        return 1.0 / (6j * (t - 3j))

    def g(z):
        return (z ** 2 + 4.0) / (z ** 2 + 9.0)

    def gplus_exact(t):
        return (t + 2j) / (t + 3j)

    def gminus_exact(t):
        return (t - 2j) / (t - 3j)

    targets = [contour_point(spec, s) for s in np.linspace(-4.0, 4.0, 10)]
    worst_split = 0.0
    worst_fact = 0.0
    worst_sum = 0.0
    worst_prod = 0.0
    for tgt in targets:
        p = cauchy_split(f, tgt, "plus", below, cfg)
        m = cauchy_split(f, tgt, "minus", above, cfg)
        worst_split = max(worst_split,
                          abs(p - plus_exact(tgt)), abs(m - minus_exact(tgt)))
        worst_sum = max(worst_sum, abs(p + m - f(tgt)))
        fp = cauchy_factorize(g, tgt, "plus", below, cfg)
        fm = cauchy_factorize(g, tgt, "minus", above, cfg)
        worst_fact = max(worst_fact,
                         abs(fp - gplus_exact(tgt)), abs(fm - gminus_exact(tgt)))
        worst_prod = max(worst_prod, abs(fp * fm - g(tgt)))
    ok = (worst_split < 1e-8 and worst_fact < 1e-8
          and worst_sum < 1e-8 and worst_prod < 1e-8)
    return _result(
        "5 Cauchy engine vs closed forms", t0, 10.0, ok,
        f"split {worst_split:.2e}, factorise {worst_fact:.2e}, "
        f"sum {worst_sum:.2e}, product {worst_prod:.2e}",
        worst_split=worst_split, worst_factorize=worst_fact,
    )


# -- criterion 6 -----------------------------------------------------------

def check_residual() -> CheckResult:
    """Compatibility residual: exact cancellation on alpha2 = a2, nonzero off it."""
    t0 = perf_counter()
    inc = make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)
    ev = AnsatzEvaluator(inc)
    rng = np.random.default_rng(11)
    tol = 10.0 * max(ev.cfg.abs_tol, ev.cfg.rel_tol)
    worst_zero = 0.0
    for _ in range(10):
        a1 = rng.uniform(-2.5, 2.5) + 1j * rng.uniform(-1.0, 1.0)
        worst_zero = max(worst_zero,
                         abs(ev.compatibility_residual(a1, inc.a2)))
    generic = [(0.5 + 0.8j, 1.0 + 0.5j), (-1.0 + 0.3j, 2.0 + 1.0j),
               (1.5, -0.7), (0.2 + 1.1j, -1.8 + 0.4j), (-2.0, 2.2 + 0.9j)]
    from .farfield import g_pp
    min_ratio = math.inf
    for a1, a2 in generic:
        ratio = (abs(ev.compatibility_residual(a1, a2))
                 / abs(g_pp(a1, a2, inc)))
        min_ratio = min(min_ratio, ratio)
    ok = worst_zero < tol and min_ratio > 1e-3
    return _result(
        "6 compatibility residual", t0, 60.0, ok,
        f"cancellation worst {worst_zero:.2e} (tol {tol:.1e}), "
        f"generic min |R|/|G| {min_ratio:.3f}",
        worst_zero=worst_zero, min_ratio=min_ratio,
    )


# -- criterion 7 -----------------------------------------------------------

def check_diffraction() -> CheckResult:
    """Oasis imaginarity, k-invariance, pole scaling, shift robustness."""
    t0 = perf_counter()
    k = 3.0
    inc = make_incidence(math.pi / 4, -3 * math.pi / 4, k)
    ev = AnsatzEvaluator(inc)

    arc = ev.arc_sweep(math.pi, 101)
    ratio_oasis = (np.max(np.abs(arc.values.real))
                   / np.max(np.abs(arc.values.imag)))
    flags_ok = all(f == "ok" for f in arc.flags)

    # k-invariance on a 20-point arc, pointwise
    obs = [Observation(theta=float(theta), phi=2.3)
           for theta in np.linspace(0.05, math.pi / 2, 20)]
    ev1 = AnsatzEvaluator(make_incidence(math.pi / 4, -3 * math.pi / 4, 1.0))
    v3, v1 = ev._directions(obs)[0], ev1._directions(obs)[0]
    worst_kinv = float(np.max(np.abs(v1 - v3) / np.abs(v3)))

    # pole scaling: approach xi -> -xi0 along fixed eta = 0.2
    scaled = []
    for delta in (1e-1, 1e-2, 1e-3):
        xi = -inc.xi0 - delta
        eta = 0.2
        theta = math.asin(math.hypot(xi, eta))
        phi_p = math.atan2(eta, xi) % (2 * math.pi)
        value = ev.diffraction(Observation(theta=theta, phi=phi_p)).value
        scaled.append(abs(value) * delta)
    pole_ok = max(scaled) / min(scaled) < 1.1

    # shift robustness at the positive-constant incidence, two nonzero
    # shifts.  One factor evaluation chains ~10 contour integrals, so the
    # pipeline noise floor is that multiple of rel_tol; the criterion's
    # "10x the quadrature tolerance" is pinned against it.
    cfg5 = QuadratureConfig()
    inc_a = make_incidence(math.pi / 4, math.pi / 8, k, eps_shift=1e-8 * k)
    inc_b = make_incidence(math.pi / 4, math.pi / 8, k,
                           eps_shift=inc_a.eps_shift / 2)
    ev_a = AnsatzEvaluator(inc_a, cfg=cfg5)
    ev_b = AnsatzEvaluator(inc_b, cfg=cfg5)
    shift_tol = 10.0 * (10.0 * cfg5.rel_tol)
    obs = [Observation(theta=0.12 + 0.14 * i, phi=1.0 + 0.5 * i)
           for i in range(10)]
    va, vb = ev_a._directions(obs)[0], ev_b._directions(obs)[0]
    worst_shift = float(np.max(np.abs(va - vb) / np.abs(va)))

    ok = (ratio_oasis < 1e-3 and flags_ok and worst_kinv < 1e-4
          and pole_ok and worst_shift < shift_tol)
    return _result(
        "7 diffraction-coefficient properties", t0, 600.0, ok,
        f"oasis Re/Im {ratio_oasis:.1e}, k-invariance {worst_kinv:.1e}, "
        f"pole ratios {max(scaled)/min(scaled):.3f}, "
        f"shift change {worst_shift:.1e} (tol {shift_tol:.0e})",
        ratio_oasis=float(ratio_oasis), worst_kinv=worst_kinv,
        pole_spread=float(max(scaled) / min(scaled)),
        worst_shift=worst_shift,
    )


# -- criterion 8 -----------------------------------------------------------

def check_performance() -> CheckResult:
    """400x400 quarter-factor portrait and one 101-point arc, timed.

    Both are timed cold: the integral and projection memos are cleared
    before each, so neither reads work that earlier criteria left there.
    """
    t0 = perf_counter()
    spec = default_contour(3.0)
    alpha1 = contour_point(spec, 10.0)
    pspec = PortraitSpec(window=(-6, 6, -6, 6), resolution=(400, 400),
                         function="k_pp",
                         params=(("k", 3.0), ("alpha1", alpha1)))
    _integral_memo.clear()
    _projection_memo.clear()
    t_p = perf_counter()
    buffer = render(pspec, contour=spec)
    portrait_s = perf_counter() - t_p
    black = int((buffer.sum(axis=2) == 0).sum())

    _integral_memo.clear()
    _projection_memo.clear()
    t_a = perf_counter()
    inc = make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)
    AnsatzEvaluator(inc).arc_sweep(math.pi / 4, 101)
    arc_s = perf_counter() - t_a
    ok = portrait_s <= 60.0 and arc_s <= 30.0
    return _result(
        "8 performance", t0, 120.0, ok,
        f"portrait {portrait_s:.1f} s (limit 60), arc {arc_s:.1f} s "
        f"(limit 30), failure pixels {black}",
        portrait_seconds=portrait_s, arc_seconds=arc_s, black_pixels=black,
    )


# -- criterion 9 -----------------------------------------------------------

def check_real_branch() -> CheckResult:
    """Past the validity boundary the coefficient turns purely real."""
    t0 = perf_counter()
    inc = make_incidence(math.pi / 4, math.pi / 8, 3.0)
    ev = AnsatzEvaluator(inc)
    arc = ev.arc_sweep(0.0, 101)
    rows = [(v, f) for v, f in zip(arc.values, arc.flags)
            if f == "real_branch"]
    ok = len(rows) >= 1 and all(
        abs(v.imag) < 1e-3 * abs(v.real) for v, _ in rows)
    worst = max((abs(v.imag) / abs(v.real) for v, _ in rows), default=np.nan)
    return _result(
        "9 real-branch regime", t0, 120.0, ok,
        f"{len(rows)} real-branch rows, worst Im/Re {worst:.1e}",
        n_rows=len(rows), worst_im_re=float(worst),
    )


#: the checks of each ``qpdiff verify --suite``
SUITES = {
    "specfun": [check_branch_identities],
    "contour": [check_sign_compatibility],
    "factor": [check_four_factor, check_decay, check_cauchy_oracles],
    "radlow": [check_residual, check_diffraction, check_real_branch],
    "all": [check_branch_identities, check_sign_compatibility, check_four_factor,
            check_decay, check_cauchy_oracles, check_residual, check_diffraction,
            check_performance, check_real_branch],
}
