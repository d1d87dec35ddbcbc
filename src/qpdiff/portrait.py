"""Phase portraits (domain coloring) of the library's functions.

A portrait maps a complex-plane window to pixels, colouring each pixel
by the argument of the rendered function (hue = (arg f + pi)/(2 pi),
full saturation and value), or -- in ``sign`` mode -- red where the
selected real quantity is nonnegative and blue elsewhere.  Evaluation
failures are painted black; they are diagnostic signal (a branch cut
hit exactly, a quadrature breakdown), never interpolated over.

Output is binary PPM (P6): bit-exact golden files without any codec
dependence, trivially convertible downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._atomic import write_atomic
from .contour import K_REF, ContourSpec, default_contour
from .errors import DomainError
from .grid_eval import factor_field
from .quadrature import QuadratureConfig
from .specfun import _kappa_raw, diag_log, sqrt_down
from .whfactor import MM, MP, PM, PP

#: quadrature tolerances of every portrait's pixels; hue needs far less
#: than the factor identities do, and the relaxed setting keeps a
#: 400x400 quarter-factor portrait well inside its time budget.
PORTRAIT_CFG = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)

_QUARTER = {"k_pp": PP, "k_pm": PM, "k_mp": MP, "k_mm": MM}


@dataclass(frozen=True)
class PortraitSpec:
    """Window, resolution, colouring mode and function binding."""

    window: tuple  # (re_min, re_max, im_min, im_max)
    resolution: tuple  # (width, height)
    function: str
    mode: str = "phase"
    params: tuple = ()  # frozen (key, value) pairs

    def __post_init__(self):
        re_min, re_max, im_min, im_max = self.window
        if not (re_min < re_max and im_min < im_max):
            raise DomainError("degenerate window")
        w, h = self.resolution
        if w < 2 or h < 2:
            raise DomainError("resolution must be at least 2x2")
        if self.mode not in ("phase", "sign"):
            raise DomainError("mode must be 'phase' or 'sign'")


def pixel_grid(spec: PortraitSpec):
    """Pixel-centre sample points, row-major, top row first."""
    re_min, re_max, im_min, im_max = spec.window
    w, h = spec.resolution
    re = re_min + (np.arange(w) + 0.5) * (re_max - re_min) / w
    im = im_max - (np.arange(h) + 0.5) * (im_max - im_min) / h
    return re[None, :] + 1j * im[:, None]


def _fn_identity(z, contour, cfg, params):
    return z.astype(np.complex128)


def _fn_constant(z, contour, cfg, params):
    return np.full(z.shape, complex(params.get("value", 1.0)))


def _fn_sqrt_down(z, contour, cfg, params):
    return sqrt_down(z)


def _fn_diag_log(z, contour, cfg, params):
    out = np.empty(z.shape, dtype=np.complex128)
    zero = z == 0
    out[zero] = np.nan
    out[~zero] = diag_log(z[~zero])
    return out


def _fixed_point(params):
    """The frozen variable of a one-plane slice, and its value."""
    if "alpha1" in params:
        return "alpha1", params["alpha1"]
    if "alpha2" in params:
        return "alpha2", params["alpha2"]
    raise DomainError("portrait function needs a frozen alpha1 or alpha2")


def _nested_kappa(z, params):
    """``kappa(kappa(k, alpha2), alpha1)`` with one variable frozen, the
    other the pixels ``z``."""
    k = np.complex128(params["k"])
    which, val = _fixed_point(params)
    if which == "alpha1":
        return _kappa_raw(_kappa_raw(k, z), np.complex128(val))
    return _kappa_raw(_kappa_raw(k, np.complex128(val)), z)


def _fn_kernel(z, contour, cfg, params):
    return 1.0 / _nested_kappa(z, params)


def _fn_im_inv_k(z, contour, cfg, params):
    return _nested_kappa(z, params).imag + 0j


def _make_quarter(label):
    def run(z, contour, cfg, params):
        k = params["k"]
        alpha1 = params.get("alpha1")
        if alpha1 is None:
            raise DomainError("quarter-factor portraits are alpha2-plane "
                              "slices; freeze alpha1")
        vals, ok = factor_field(label, alpha1, z, k, contour, cfg)
        vals = vals.copy()
        vals[~ok] = np.nan
        return vals

    return run


REGISTRY = {
    "identity": _fn_identity,
    "constant": _fn_constant,
    "sqrt_down": _fn_sqrt_down,
    "diag_log": _fn_diag_log,
    "kernel": _fn_kernel,
    "im_inv_k": _fn_im_inv_k,
    "k_pp": _make_quarter(PP),
    "k_pm": _make_quarter(PM),
    "k_mp": _make_quarter(MP),
    "k_mm": _make_quarter(MM),
}


#: per hue sextant, the level each of r, g, b takes: 0, 1, f or 1 - f
_WHEEL = np.array([[1, 2, 0], [3, 1, 0], [0, 1, 2], [0, 3, 1], [2, 0, 1], [1, 0, 3]])


def _hsv_wheel_rgb(hue):
    """HSV (h, 1, 1) -> RGB bytes for a 1-D array of hues, vectorised:
    one gather from the bytes of the four levels each pixel can take."""
    h6 = (hue % 1.0) * 6.0
    sextant = np.floor(h6)
    f = h6 - sextant
    n = f.size
    levels = np.zeros((4, n), dtype=np.uint8)  # rows 0, 1, f, 1 - f
    levels[1] = 255
    levels[2] = np.round(f * 255.0)
    levels[3] = np.round((1.0 - f) * 255.0)
    return levels.ravel()[_WHEEL[sextant.astype(np.int64) % 6] * n
                          + np.arange(n)[:, None]]


def render(spec: PortraitSpec, contour: ContourSpec | None = None) -> np.ndarray:
    """Render a portrait to an (height, width, 3) uint8 RGB buffer."""
    fn = REGISTRY.get(spec.function)
    if fn is None:
        raise DomainError(f"unknown portrait function {spec.function!r}; "
                          f"known: {sorted(REGISTRY)}")
    params = dict(spec.params)
    params.setdefault("k", K_REF)
    if contour is None:
        contour = default_contour(params["k"])
    z = pixel_grid(spec)
    vals = np.asarray(fn(z, contour, PORTRAIT_CFG, params), dtype=np.complex128)
    ok = np.isfinite(vals)

    h, w = z.shape
    img = np.zeros((h, w, 3), dtype=np.uint8)
    if spec.mode == "phase":
        hue = (np.angle(vals[ok]) + np.pi) / (2.0 * np.pi)
        img[ok] = _hsv_wheel_rgb(hue)
    else:
        pos = ok & (vals.real >= 0.0)
        neg = ok & (vals.real < 0.0)
        img[pos] = (255, 0, 0)
        img[neg] = (0, 0, 255)
    return img


def write_image(buffer: np.ndarray, path: str) -> None:
    """Write an RGB buffer as binary PPM (P6), atomically."""
    if buffer.ndim != 3 or buffer.shape[2] != 3 or buffer.dtype != np.uint8:
        raise DomainError("expected an (h, w, 3) uint8 buffer")
    h, w = buffer.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    write_atomic(path, header + buffer.tobytes())
