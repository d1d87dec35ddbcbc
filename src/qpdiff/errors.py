"""Typed exceptions shared across the library.

Quadrature has to be able to distinguish a genuinely singular integrand
(a branch point or pole hit head-on) from an internal bug, so nothing in
this library silently propagates NaN: bad inputs and failed computations
raise one of the classes below.

An element-wise check on an array call names the entries that failed it
in the error's ``mask``, a flat boolean array over that call's entries
(else ``None``), so a batch can retry the rest once.  A layer passing an
error on from a call over other entries maps the mask onto its own.
"""


class QpdiffError(Exception):
    """Base class for all library errors."""

    def __init__(self, *args, mask=None):
        super().__init__(*args)
        self.mask = mask


class NonFiniteInputError(QpdiffError):
    """An input contained NaN or Inf."""


class OnBranchCutError(QpdiffError):
    """Evaluation landed exactly on a branch cut of a composed function."""


class DomainError(QpdiffError):
    """An argument violated a documented precondition."""


class ContourError(QpdiffError):
    """Invalid contour constants (degenerate denominator, non-monotone real part)."""


class QuadratureError(QpdiffError):
    """Adaptive quadrature failed to converge within its subdivision budget."""


class WindingError(QpdiffError):
    """log g is not single-valued along the contour (winding number != 0)."""


class BranchCrossingError(QpdiffError):
    """The integrand's log argument crossed its branch cut along the contour."""


class ContinuationError(QpdiffError):
    """Analytic continuation failed its branch-consistency check."""
