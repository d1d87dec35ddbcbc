"""Far-field layer: incidence handling, the closed-form (++) candidate,
the compatibility residual, and the spherical diffraction coefficient.

With the forcing pole term

    g_pp(a) = 1 / ((alpha1 - a1) (alpha2 - a2)),

the closed-form candidate for the (++) spectral unknown (the remainder
term of the full split set to zero) is

    F_pp(a) = g_pp(a) / ( K_pp(a) K_mp(a1, alpha2)
                          K_mm(a1, a2) K_pm(alpha1, a2) ),

and the corner diffraction coefficient observed at spherical angles
(theta, phi) is

    f_d = k F_pp(-k cos(phi) sin(theta), -k sin(phi) sin(theta)) / (4 pi^2 i).

The candidate is knowingly inexact: the compatibility residual

    g_pp(a) [ 1/(K_mm(a1, alpha2) K_pm(a))
              - 1/(K_mm(a1, a2) K_pm(alpha1, a2)) ]

measures by how much, vanishing identically only on alpha2 = a2.

Observation points put the spectral variables on the real interval
(-k, k), partly below the inversion contours, so every factor access
goes through the continuation dispatch of ``whfactor``; evaluations
whose route was not "direct" are flagged ``continued`` in sweep output.
The factors of all rows of an arc are one batch of the adaptive rule;
a single direction is a batch of one.  A row that fails a check before
any integral (the forcing pole, a half-factor branch point or cut) is
named by the error, so the arc's other rows take one more batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._atomic import write_atomic
from .contour import K_REF, ContourSpec, default_contour, rescaled, to_reference
from .errors import (DomainError, NonFiniteInputError, OnBranchCutError,
                     QpdiffError)
from .quadrature import QuadratureConfig
from .whfactor import MM, MP, PM, PP, _continued, _pairs, _split_on_error

#: |xi + xi0| (or eta analogue) below which a row is flagged near_pole.
NEAR_POLE_THRESHOLD = 1e-3

#: |Im f| / |Re f| below which a row is flagged real_branch.
REAL_BRANCH_THRESHOLD = 1e-3


@dataclass(frozen=True)
class Incidence:
    """Physical incidence and its derived spectral constants.

    ``a1, a2`` carry the stored (possibly shifted) values: a constant
    with positive real part receives the imaginary part ``-i eps_shift``,
    which moves the forcing pole off the real axis when it is nonzero.
    """

    theta0: float
    phi0: float
    k: float
    eps_shift: float
    a1: complex
    a2: complex
    a3: float

    @property
    def xi0(self) -> float:
        return math.sin(self.theta0) * math.cos(self.phi0)

    @property
    def eta0(self) -> float:
        return math.sin(self.theta0) * math.sin(self.phi0)


def make_incidence(theta0: float, phi0: float, k: float,
                   eps_shift: float = 0.0) -> Incidence:
    """Build an ``Incidence``, enforcing the reduced angle ranges.

    Symmetry reduces the problem to ``theta0 in [0, pi/2]`` and
    ``phi0 in [-3 pi/4, pi/4]``; other inputs are redundant and
    rejected.  ``eps_shift`` is 0 by default: f_d is linear in it, so a
    shift is a bias that no error estimate sees.
    """
    if not (0.0 <= theta0 <= math.pi / 2):
        raise DomainError("theta0 must lie in [0, pi/2]")
    if not (-3 * math.pi / 4 <= phi0 <= math.pi / 4):
        raise DomainError("phi0 must lie in [-3 pi/4, pi/4]")
    # NaN and +-inf fail the chained tests
    if not 0 < k < math.inf:
        raise DomainError("wavenumber must be finite and positive")
    if not 0 <= eps_shift < math.inf:
        raise DomainError("eps_shift must be finite and nonnegative")
    a1 = k * math.sin(theta0) * math.cos(phi0)
    a2 = k * math.sin(theta0) * math.sin(phi0)
    a3 = k * math.cos(theta0)
    a1c = complex(a1, -eps_shift) if a1 > 0 else complex(a1)
    a2c = complex(a2, -eps_shift) if a2 > 0 else complex(a2)
    return Incidence(theta0=theta0, phi0=phi0, k=k, eps_shift=eps_shift,
                     a1=a1c, a2=a2c, a3=a3)


@dataclass(frozen=True)
class Observation:
    """Spherical observation direction restricted to the upper half-space."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi / 2):
            raise DomainError("theta must lie in [0, pi/2]")
        if not (0.0 <= self.phi < 2 * math.pi):
            raise DomainError("phi must lie in [0, 2 pi)")

    @property
    def xi(self) -> float:
        return math.cos(self.phi) * math.sin(self.theta)

    @property
    def eta(self) -> float:
        return math.sin(self.phi) * math.sin(self.theta)


def g_pp(alpha1, alpha2, inc: Incidence):
    """Forcing term ``1 / ((alpha1 - a1)(alpha2 - a2))``.

    Exact rational value with simple poles at the shifted incidence
    constants; evaluation at a pole, so close to one that the value
    overflows, or at NaN/Inf raises, naming the entries there.
    """
    d1 = np.asarray(alpha1, dtype=np.complex128) - inc.a1
    d2 = np.asarray(alpha2, dtype=np.complex128) - inc.a2
    bad = ~(np.isfinite(d1) & np.isfinite(d2))
    if np.any(bad):
        raise NonFiniteInputError("g_pp input contains NaN/Inf",
                                  mask=np.ravel(bad))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = 1.0 / (d1 * d2)
    pole = ~np.isfinite(out)
    if np.any(pole):
        raise DomainError("g_pp evaluated at its pole", mask=np.ravel(pole))
    return complex(out) if out.ndim == 0 else out


@dataclass
class PointValue:
    """A single far-field evaluation with its bookkeeping."""

    value: complex
    flag: str
    continued: bool


@dataclass
class ArcSweepResult:
    """Tabulated diffraction coefficient along one observation arc."""

    incidence: Incidence
    phi: float
    thetas: np.ndarray
    values: np.ndarray
    flags: list
    meta: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        """Write the wire format: one row per theta, atomic replace."""
        lines = ["theta,phi,theta0,phi0,k,re_fd,im_fd,flag"]
        inc = self.incidence
        for theta, val, flag in zip(self.thetas, self.values, self.flags):
            lines.append(
                f"{theta:.17e},{self.phi:.17e},{inc.theta0:.17e},"
                f"{inc.phi0:.17e},{inc.k:.17e},{val.real:.17e},"
                f"{val.imag:.17e},{flag}"
            )
        write_atomic(path, ("\n".join(lines) + "\n").encode())


class AnsatzEvaluator:
    """Evaluator bound to one incidence, contour and quadrature setting.

    It evaluates at ``K_REF`` (``contour.to_reference``), so f_d, which
    depends on the directions alone, has the same bits at every k: ``_ref``
    is the incidence there, its shift scaled by ``K_REF / k``, and
    ``_contour`` the similar contour.  Every evaluation is one batch of
    factors; ``K_mm(a1, a2)`` is one more pair.
    """

    def __init__(self, inc: Incidence, contour: ContourSpec | None = None,
                 cfg: QuadratureConfig | None = None):
        self.inc = inc
        self.contour = contour if contour is not None else default_contour(inc.k)
        self.cfg = cfg if cfg is not None else QuadratureConfig()
        self._ratio, _, self._contour = to_reference(inc.k, self.contour)
        self._ref = make_incidence(inc.theta0, inc.phi0, K_REF,
                                   eps_shift=inc.eps_shift * self._ratio)

    # -- factor plumbing ---------------------------------------------------

    def _factors(self, labels, alpha1, alpha2):
        """``labels[j]`` at ``(alpha1[j], alpha2[j])``, and if it was continued."""
        values, routes = _continued(
            labels, np.asarray(alpha1, dtype=np.complex128),
            np.asarray(alpha2, dtype=np.complex128), self._contour, self.cfg)
        return values, routes != 0

    # -- spectral-plane quantities ------------------------------------------

    def _fpp(self, alpha1, alpha2):
        """The (++) candidate at arrays of points, and if it was continued.

        A raised ``mask`` names points (none for ``K_mm(a1, a2)``)."""
        inc = self._ref
        n = alpha1.size
        forcing = g_pp(alpha1, alpha2, inc)  # the pole raises before any integral
        try:
            values, continued = self._factors(
                [PP] * n + [MP] * n + [PM] * n + [MM],
                np.r_[alpha1, np.full(n, inc.a1), alpha1, inc.a1],
                np.r_[alpha2, alpha2, np.full(n, inc.a2), inc.a2])
        except QpdiffError as exc:
            if exc.mask is not None:
                exc.mask = None if exc.mask[-1] else exc.mask[:-1].reshape(3, n).any(0)
            raise
        kpp, kmp, kpm = values[:-1].reshape(3, n)
        with np.errstate(over="ignore"):  # beside a pole: inf, not a warning
            value = forcing / (kpp * kmp * values[-1] * kpm)
        return value, continued[:-1].reshape(3, n).any(axis=0) | continued[-1]

    def fpp(self, alpha1, alpha2):
        """The closed-form (++) candidate, ``K_REF / k`` times the one at
        ``K_REF``; arrays broadcast into one batch."""
        a1, a2, shape = _pairs(alpha1, alpha2, self._ratio)
        value = rescaled(self._fpp(a1, a2)[0], self._ratio).reshape(shape)
        return complex(value) if not shape else value

    def compatibility_residual(self, alpha1, alpha2) -> complex:
        """Residual of the compatibility equation with the remainder zeroed.

        Cancels exactly at ``alpha2 = a2``; elsewhere its size measures
        the inexactness of the closed-form candidate at this point.  It is
        ``(K_REF / k)^(3/2)`` times the residual at ``K_REF``.
        """
        inc = self._ref
        alpha1, alpha2 = rescaled(np.array([alpha1, alpha2]), self._ratio)
        (kmm_a2var, kpm_full, kmm_aa, kpm_a2fix), _ = self._factors(
            [MM, PM, MM, PM], [inc.a1, alpha1, inc.a1, alpha1],
            [alpha2, alpha2, inc.a2, inc.a2])
        bracket = (1.0 / (kmm_a2var * kpm_full)
                   - 1.0 / (kmm_aa * kpm_a2fix))
        if bracket == 0:
            # exact cancellation (alpha2 == a2): the zero wins against the
            # forcing pole, which would otherwise trip the g_pp guard
            return 0.0 + 0.0j
        residual = g_pp(alpha1, alpha2, inc) * bracket
        return complex(rescaled(residual, self._ratio ** 1.5)[0])

    # -- physical far field --------------------------------------------------

    def _directions(self, observations):
        """Values, flags and continued marks at directions, in one batch.

        ``f_d = K_REF F_pp(-K_REF xi, -K_REF eta) / (4 pi^2 i)``; the flag
        records pole proximity, the real-branch regime, or continuation (in that
        precedence), else ``ok``.  A direction that raises is isolated
        (``_split_on_error``) and NaN, flagged ``near_pole`` where it is
        genuinely singular (the forcing pole, so close to it that f_d
        overflows, or a factor branch point hit exactly at theta = pi/2)
        and ``failed`` for a numerical
        breakdown (quadrature, continuation, branch crossing, contour).
        Singular directions are named by their errors and cost one retry;
        a breakdown inside the integrals is found by halving the batch.
        """
        inc = self._ref
        xi = np.array([obs.xi for obs in observations])
        eta = np.array([obs.eta for obs in observations])
        alpha1, alpha2 = -K_REF * xi, -K_REF * eta
        values = np.full(xi.size, complex(np.nan, np.nan))
        continued = np.zeros(xi.size, dtype=bool)
        broken = {}
        for part, got in _split_on_error(
                lambda part: self._fpp(alpha1[part], alpha2[part]),
                np.arange(xi.size)):
            if isinstance(got, QpdiffError):
                broken[part[0]] = ("near_pole" if isinstance(
                    got, (DomainError, OnBranchCutError)) else "failed")
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    values[part] = K_REF * got[0] / (4j * np.pi ** 2)
                continued[part] = got[1]
        # so close to a forcing pole that f_d overflows: as singular as a hit
        for i in np.flatnonzero(~np.isfinite(values)):
            broken.setdefault(i, "near_pole")
            values[i], continued[i] = complex(np.nan, np.nan), False
        near_pole = ((np.abs(xi + inc.xi0) < NEAR_POLE_THRESHOLD)
                     | (np.abs(eta + inc.eta0) < NEAR_POLE_THRESHOLD))
        real_branch = (np.abs(values.imag)
                       < REAL_BRANCH_THRESHOLD * np.abs(values.real))
        flags = [broken.get(i) or ("near_pole" if near_pole[i] else
                                   "real_branch" if real_branch[i] else
                                   "continued" if continued[i] else "ok")
                 for i in range(xi.size)]
        return values, flags, continued

    def diffraction(self, obs: Observation) -> PointValue:
        """Diffraction coefficient at one direction: a batch of one."""
        values, flags, continued = self._directions([obs])
        return PointValue(value=complex(values[0]), flag=flags[0],
                          continued=bool(continued[0]))

    def arc_sweep(self, phi: float, n_theta: int,
                  workers: int = 1) -> ArcSweepResult:
        """Sweep theta over [0, pi/2] at fixed phi.

        All rows are one batch; a failing row is reported through its
        flag rather than aborting the sweep, and every row gets the value
        and flag ``diffraction`` gives it alone.  ``workers`` is accepted
        and ignored, since a batch needs no thread pool; it stays because
        callers such as the benchmark harness pass it.
        """
        if n_theta < 2:
            raise DomainError("arc sweep needs n_theta >= 2")
        thetas = np.linspace(0.0, math.pi / 2, n_theta)
        values, flags, _ = self._directions(
            [Observation(theta=float(theta), phi=phi) for theta in thetas])
        meta = {
            "k": self.inc.k,
            "contour_a": self.contour.a,
            "contour_c": self.contour.c,
            "abs_tol": self.cfg.abs_tol,
            "rel_tol": self.cfg.rel_tol,
            "eps_shift": self.inc.eps_shift,
        }
        return ArcSweepResult(incidence=self.inc, phi=phi, thetas=thetas,
                              values=values, flags=flags, meta=meta)

