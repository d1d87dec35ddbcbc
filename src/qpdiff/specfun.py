"""Branch-controlled elementary functions of one complex variable.

Every kernel evaluation in this library rests on two primitives with
non-standard branch cuts:

* ``sqrt_down`` -- a square root whose cut runs down the negative
  imaginary axis,
* ``diag_log``  -- a logarithm whose cut runs diagonally down-left
  (along ``arg z = -3*pi/4``).

Both are rotations of the principal branch: numpy's square root of the
rotated argument ``w = x + i y``, and its logarithm in real arithmetic
(``log1p``/``hypot``; ``arctan2(y + 0.0, x)``, whose ``+ 0.0`` keeps the
cut-ray convention below, after W. Kahan 1987).  Everything else here is a
composition of the two: the two-sheeted ``kappa``, the spectral kernel
``big_k`` and its companion ``gamma_fn``, and the four half-plane factors.

Conventions
-----------
The principal argument lives in ``(-pi, pi]``.  Values exactly on a
branch cut are defined by continuity from the ``arg -> pi`` side of the
rotated argument (the standard principal-branch convention, under which
``sqrt(-4) = 2j``); this makes results independent of the sign of a
floating-point zero.  ``big_k`` and ``half_factor`` refuse to evaluate
exactly on a cut of an *inner* composition and raise
``OnBranchCutError`` instead, because there the composite value is not
the limit of a single branch.

All functions are pure and reentrant, accept scalars or numpy arrays,
and raise ``NonFiniteInputError`` on NaN/Inf input rather than
propagating it.  A scalar is computed as an array of one entry, so it
rounds bit for bit as the same entry of an array call.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NonFiniteInputError, OnBranchCutError

_ROT_QUARTER = np.exp(0.25j * np.pi)  # e^{i pi/4}
_ROT_BACK = np.exp(-0.25j * np.pi)  # e^{-i pi/4}, the diag_log rotation


def _as_complex(z, name="z"):
    """Coerce to a complex array of at least one dimension, rejecting
    non-finite entries.  At least 1-D: on 0-d operands numpy computes
    with scalars, whose complex arithmetic rounds unlike its array loop,
    and a scalar must round as an array entry does."""
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInputError(f"{name} contains NaN/Inf")
    return arr.reshape(1) if arr.ndim == 0 else arr


def _as_pair(alpha1, alpha2, k):
    """The checked arrays of a two-variable call, broadcast to one shape."""
    return np.broadcast_arrays(_as_complex(alpha1, "alpha1"),
                               _as_complex(alpha2, "alpha2"), _as_complex(k, "k"))


def _shaped(result, *originals):
    """A complex for scalar inputs, else ``result`` in their broadcast shape."""
    if all(np.ndim(v) == 0 and not isinstance(v, np.ndarray) for v in originals):
        return complex(result[0])
    return result.reshape(np.broadcast_shapes(*map(np.shape, originals)))


def sqrt_down(z):
    """Square root with branch cut on the negative imaginary axis.

    Computed as ``exp(i pi/4) * sqrt(-i z)`` with the principal square
    root, so it agrees with the real square root on the positive real
    axis and satisfies ``sqrt_down(z)**2 == z`` everywhere.
    """
    return _shaped(_sqrt_down_raw(_as_complex(z)), z)


def diag_log(z):
    """Logarithm with branch cut along the ray ``arg z = -3*pi/4``.

    ``log(w) + i pi/4`` for ``w = exp(-i pi/4) z = x + i y``; agrees with
    the real logarithm on the positive real axis and is continuous across
    the negative real axis.  ``log |w|`` is ``log1p((x-1)(x+1) + y^2) / 2``
    where ``||w| - 1| < 1/2`` and ``log(hypot(x, y))`` elsewhere.
    """
    w = _as_complex(z)
    if np.any(w == 0):
        raise DomainError("diag_log is undefined at z = 0")
    return _shaped(_diag_log_rotated(np.multiply(_ROT_BACK, w.reshape(-1))), z)


def _diag_log_rotated(w):
    """``diag_log(z)`` from ``w = exp(-i pi/4) z``, a nonzero 1-D array (unchecked)."""
    x, y = w.real, w.imag + 0.0  # -0.0 -> +0.0: on the cut ray, arg w = pi
    out = np.empty_like(w)
    np.arctan2(y, x, out=out.imag)
    out.imag += 0.25 * np.pi
    with np.errstate(over="ignore", divide="ignore"):  # only where |w| is far from 1
        t = x - 1.0  # t = |w|^2 - 1, built in place
        t *= x + 1.0
        t += y * y
        np.log1p(t, out=out.real)
    out.real *= 0.5
    far = (t <= -0.75) | (t >= 1.25)
    if np.count_nonzero(far):
        out.real[far] = np.log(np.hypot(x[far], y[far]))
    return out


def _sqrt_down_raw(w):
    """sqrt_down on pre-validated complex arrays (no input checks).

    ``-i w`` is built from the parts of ``w``: real part ``Im w``,
    imaginary part ``0.0 - Re w`` (``-Re w + 0.0``), whose ``+0.0`` for a
    zero puts a value on the principal cut on its ``arg -> pi`` side.
    The rotation is an explicit ``np.multiply``: numpy's scalar ``*``
    rounds differently from its array loop, and a scalar must round as
    an array entry does.
    """
    t = np.empty(w.shape, dtype=np.complex128)
    t.real = w.imag
    np.subtract(0.0, w.real, t.imag)
    return np.multiply(_ROT_QUARTER, np.sqrt(t))


def _kappa_raw(kk, z):
    """kappa without the admissibility check; used inside compositions."""
    roots = np.empty((2,) + np.broadcast(kk, z).shape, dtype=np.complex128)
    np.subtract(kk, z, roots[0, ...])  # a 0-d view, not a scalar, for 0-d operands
    np.add(kk, z, roots[1, ...])
    return _kappa_of(roots)


def _kappa_of(roots):
    """kappa from its root arguments ``kk - z`` and ``kk + z``, stacked:
    both ``sqrt_down`` roots are one pass."""
    root = _sqrt_down_raw(roots)
    return root[0] * root[1]


def kappa(kk, z):
    """Two-cut square root of ``kk**2 - z**2`` normalised by ``kappa(kk, 0) = kk``.

    Defined as ``sqrt_down(kk - z) * sqrt_down(kk + z)`` for parameters
    in the closed upper-right quadrant (``Im kk >= 0``, ``Re kk > 0``).
    Its branch cuts in the z plane run vertically up from ``+kk`` and
    vertically down from ``-kk``.

    Raises
    ------
    DomainError
        If ``kk`` lies outside the admissible quadrant.
    """
    kk_arr = _as_complex(kk, "kk")
    if np.any(kk_arr.imag < 0.0) or np.any(kk_arr.real <= 0.0):
        raise DomainError("kappa requires Im(kk) >= 0 and Re(kk) > 0")
    return _shaped(_kappa_raw(kk_arr, _as_complex(z)), kk, z)


def _check_composition_cuts(w):
    """Signal evaluation exactly on an inner sqrt_down cut (Re 0, Im < 0)
    of the arguments stacked along the first axis of ``w``, naming the
    entries on a cut."""
    on_cut = (w.real == 0.0) & (w.imag < 0.0)
    if np.count_nonzero(on_cut):
        raise OnBranchCutError(
            "evaluation lies exactly on a branch cut; offset the point",
            mask=np.ravel(on_cut.any(axis=0)))


def big_k(alpha1, alpha2, k):
    """Spectral kernel ``1 / kappa(kappa(k, alpha2), alpha1)``.

    Satisfies ``big_k(a1, a2, k)**2 == 1 / (k**2 - a1**2 - a2**2)`` with
    ``big_k(0, 0, k) == 1/k``.  The nested definition breaks the symmetry
    between the two spectral variables: the squares of ``big_k(a1, a2)``
    and ``big_k(a2, a1)`` agree everywhere but the values themselves may
    differ in sign away from the contours.

    Raises
    ------
    OnBranchCutError
        If the point lies exactly on a branch cut of the composition,
        or exactly on a branch point.
    """
    denom = _nested_kappa(*_as_pair(alpha1, alpha2, k))
    if np.any(denom == 0):
        raise OnBranchCutError("kernel branch point hit exactly")
    return _shaped(1.0 / denom, alpha1, alpha2, k)


def gamma_fn(alpha1, alpha2, k):
    """Vertical-decay exponent ``-i / big_k``; ``gamma_fn(0, 0, k) = -i k``.

    Satisfies ``gamma_fn(a1, a2, k)**2 == a1**2 + a2**2 - k**2``.  The
    reciprocal of the kernel is evaluated directly as the nested kappa
    composition rather than by dividing twice.
    """
    return _shaped(-1j * _nested_kappa(*_as_pair(alpha1, alpha2, k)),
                   alpha1, alpha2, k)


def _nested_kappa(a1, a2, k):
    """``kappa(kappa(k, a2), a1)`` over checked arrays of one shape, after
    the composition cut check; each root argument is formed once."""
    roots = np.empty((4,) + a1.shape, dtype=np.complex128)
    np.subtract(k, a2, roots[0])
    np.add(k, a2, roots[1])
    inner = _kappa_of(roots[:2])
    np.subtract(inner, a1, roots[2])
    np.add(inner, a1, roots[3])
    _check_composition_cuts(roots)
    return _kappa_of(roots[2:])


# Half-plane factor tags: first character is the alpha1 subscript, second
# the alpha2 subscript, 'o' marking the undistinguished variable.
HALF_FACTOR_TAGS = ("-o", "+o", "o-", "o+")


def half_factor(tag, alpha1, alpha2, k):
    """Explicit half-plane factors of the kernel.

    ``"-o"``: ``1/sqrt_down(kappa(k, a2) - a1)`` -- analytic in the lower
    alpha1 half-plane; ``"+o"``: ``1/sqrt_down(kappa(k, a2) + a1)`` -- in
    the upper one.  Their product reconstructs ``big_k`` pointwise.

    ``"o-"`` and ``"o+"`` swap the roles of the two variables
    (``1/sqrt_down(kappa(k, a1) -+ a2)``); they serve the analytic
    continuation of the quarter factors in the alpha1 plane.  Their
    product squares to ``big_k**2`` but may differ from ``big_k`` itself
    by a sign on parts of C^2.  A checked wrapper of ``_half_factor_raw``."""
    a1, a2, kk = _as_pair(alpha1, alpha2, k)
    if tag not in HALF_FACTOR_TAGS:
        raise DomainError(f"unknown half-factor tag {tag!r}; expected one of "
                          f"{HALF_FACTOR_TAGS}")
    inner, outer = (a2, a1) if tag[1] == "o" else (a1, a2)
    sign = -1.0 if "-" in tag else +1.0
    return _shaped(_half_factor_raw(kk, inner, outer, sign), alpha1, alpha2, k)


def _half_factor_raw(k, inner, outer, sign):
    """``1/sqrt_down(kappa(k, inner) + sign * outer)`` (signs +-1.0) over checked
    ``inner`` and ``outer`` of one shape; ``OnBranchCutError`` names the entries
    on a cut or branch point.  One array holds the three root arguments,
    ``k - inner``, ``k + inner`` and the outer one: kappa's two roots are
    one ``_sqrt_down_raw`` pass, and the check reads all three at once."""
    w = np.empty((3,) + inner.shape, dtype=np.complex128)
    np.subtract(k, inner, w[0])
    np.add(k, inner, w[1])
    arg = w[2]
    np.add(_kappa_of(w[:2]), sign * outer, arg)
    _check_composition_cuts(w)
    if np.count_nonzero(zero := arg == 0):
        raise OnBranchCutError("half-factor branch point hit exactly",
                               mask=np.ravel(zero))
    return 1.0 / _sqrt_down_raw(arg)


def fourth_root_down(z):
    """``sqrt_down(sqrt_down(z))``, the quarter-factor prefactor root.

    Strictly the composition of two ``sqrt_down`` calls, never
    ``exp(log(z)/4)``: any other realisation introduces spurious branch
    cuts into the quarter factors.
    """
    return sqrt_down(sqrt_down(z))
