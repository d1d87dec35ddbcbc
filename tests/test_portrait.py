"""Portraits: coloring contract, PPM format, grid-evaluator consistency."""

import numpy as np
import pytest

from qpdiff import portrait as pt
from qpdiff.contour import contour_point
from qpdiff.errors import DomainError
from qpdiff.grid_eval import factor_field
from qpdiff.whfactor import MM, MP, PM, PP, continue_factor


class TestSpecValidation:
    def test_degenerate_window(self):
        with pytest.raises(DomainError):
            pt.PortraitSpec(window=(1, 1, -1, 1), resolution=(4, 4),
                            function="identity")

    def test_tiny_resolution(self):
        with pytest.raises(DomainError):
            pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(1, 4),
                            function="identity")

    def test_unknown_function(self):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(4, 4),
                               function="no_such_thing")
        with pytest.raises(DomainError):
            pt.render(spec)


class TestPhaseColoring:
    def test_constant_function_single_hue(self):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(8, 8),
                               function="constant",
                               params=(("value", 1.0 + 0.0j),))
        img = pt.render(spec)
        assert (img == img[0, 0]).all()
        # arg 1 = 0 -> hue 0.5 -> cyan
        assert tuple(img[0, 0]) == (0, 255, 255)

    def test_identity_hue_wheel(self):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(64, 64),
                               function="identity")
        img = pt.render(spec)
        z = pt.pixel_grid(spec)
        # spot-check pixels: hue equals (arg z + pi) / (2 pi)
        for j, i in [(5, 5), (30, 60), (60, 10), (32, 32)]:
            hue = (np.angle(z[j, i]) + np.pi) / (2 * np.pi)
            expected = pt._hsv_wheel_rgb(np.array([hue]))[0]
            assert tuple(img[j, i]) == tuple(expected)

    def test_hue_increases_counterclockwise(self):
        # odd resolution puts pixel centres exactly on both axes
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(33, 33),
                               function="identity")
        img = pt.render(spec)
        # positive real axis (arg 0) -> hue 0.5; positive imaginary axis
        # (arg pi/2) -> hue 0.75: a quarter turn further around the wheel
        assert tuple(img[16, 32]) == tuple(pt._hsv_wheel_rgb(np.array([0.5]))[0])
        assert tuple(img[0, 16]) == tuple(pt._hsv_wheel_rgb(np.array([0.75]))[0])

    def test_wheel_bytes_equal_the_six_way_formula(self):
        # the former colouring, one np.choose per channel over the six
        # sextants, kept as the reference
        def six_way(hue):
            h6 = (hue % 1.0) * 6.0
            i = np.floor(h6).astype(np.int64) % 6
            f = h6 - np.floor(h6)
            q = 1.0 - f
            r = np.choose(i, [1.0, q, 0.0, 0.0, f, 1.0])
            g = np.choose(i, [f, 1.0, 1.0, q, 0.0, 0.0])
            b = np.choose(i, [0.0, 0.0, f, 1.0, 1.0, q])
            rgb = np.stack([r, g, b], axis=-1)
            return np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)

        # every sextant edge j/6 with its neighbours one ulp either side,
        # 0 and 1 - ulp, the byte-rounding edges (m + 1/2)/255 of f, and
        # uniform hues: 100,000 and more
        edges = np.concatenate([np.arange(7) / 6.0,
                                (np.arange(6)[:, None]
                                 + (np.arange(255) + 0.5) / 255.0).ravel() / 6.0])
        hue = np.concatenate([edges, np.nextafter(edges, -1.0),
                              np.nextafter(edges, 2.0), [0.0, 1.0 - 2.0 ** -53],
                              np.random.default_rng(7).uniform(0.0, 1.0, 100_000)])
        got = pt._hsv_wheel_rgb(hue)
        assert got.dtype == np.uint8 and got.shape == (hue.size, 3)
        assert got.tobytes() == six_way(hue).tobytes()

    def test_failure_pixels_black(self):
        def broken(z, contour, cfg, params):
            vals = z.astype(np.complex128).copy()
            vals[z.real < 0] = np.nan
            return vals

        pt.REGISTRY["_test_broken"] = broken
        try:
            spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(8, 8),
                                   function="_test_broken")
            img = pt.render(spec)
            left = img[:, :4]
            right = img[:, 4:]
            assert (left == 0).all()
            assert (right.sum(axis=2) > 0).all()
        finally:
            del pt.REGISTRY["_test_broken"]

    def test_sign_mode_red_blue(self):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(8, 8),
                               function="identity", mode="sign")
        img = pt.render(spec)
        assert tuple(img[3, 6]) == (255, 0, 0)   # Re z > 0
        assert tuple(img[3, 1]) == (0, 0, 255)   # Re z < 0

    def test_sign_mode_im_inv_k(self, contour3):
        # the sign map of Im(1/K) along a contour slice is red everywhere
        # on the valid side of the scan
        spec = pt.PortraitSpec(window=(-5, 5, 0.5, 5), resolution=(24, 16),
                               function="im_inv_k", mode="sign",
                               params=(("k", 3.0),
                                       ("alpha2", contour_point(contour3, 0.0))))
        img = pt.render(spec, contour=contour3)
        assert set(map(tuple, img.reshape(-1, 3))) <= {(255, 0, 0), (0, 0, 255)}


class TestPpmWriter:
    def test_two_by_two_white(self, tmp_path):
        buf = np.full((2, 2, 3), 255, dtype=np.uint8)
        path = tmp_path / "white.ppm"
        pt.write_image(buf, str(path))
        data = path.read_bytes()
        assert data == b"P6\n2 2\n255\n" + b"\xff" * 12

    def test_payload_size_400(self, tmp_path):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(400, 400),
                               function="identity")
        img = pt.render(spec)
        path = tmp_path / "id.ppm"
        pt.write_image(img, str(path))
        data = path.read_bytes()
        header = b"P6\n400 400\n255\n"
        assert data.startswith(header)
        assert len(data) == len(header) + 480000

    def test_byte_identical_renders(self, tmp_path):
        spec = pt.PortraitSpec(window=(-2, 2, -2, 2), resolution=(32, 32),
                               function="sqrt_down")
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        pt.write_image(pt.render(spec), str(p1))
        pt.write_image(pt.render(spec), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_buffer_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            pt.write_image(np.zeros((4, 4), dtype=np.uint8),
                           str(tmp_path / "x.ppm"))


class TestQuarterFactorField:
    def test_grid_matches_scalar_continuation(self, contour3, cfg, k3, rng):
        alpha1 = contour_point(contour3, 10.0)
        pts = (rng.uniform(-5, 5, 24) + 1j * rng.uniform(-5, 5, 24))
        vals, ok = factor_field(PP, alpha1, pts, k3, contour3, cfg)
        assert ok.all()
        for z, v in zip(pts, vals):
            ref = continue_factor(PP, alpha1, z, k3, contour3, cfg)
            assert abs(v - ref) / abs(ref) < 1e-5

    def test_quarter_portrait_no_failures_in_natural_half(self, contour3):
        alpha1 = contour_point(contour3, 10.0)
        spec = pt.PortraitSpec(window=(-6, 6, -6, 6), resolution=(60, 60),
                               function="k_pp",
                               params=(("k", 3.0), ("alpha1", alpha1)))
        img = pt.render(spec, contour=contour3)
        # upper half of the window lies in the analyticity half-plane
        upper = img[:30]
        assert int((upper.sum(axis=2) == 0).sum()) == 0

    @pytest.mark.parametrize("target", [5.0 + 4.0j, -5.0 + 4.0j])
    def test_window_edge_at_indentation_pad(self, contour3, cfg, k3, target):
        # Re target = +-(2 + k) once started a geometric tail walk at 0
        alpha1 = contour_point(contour3, 10.0)
        vals, ok = factor_field(PP, alpha1, np.array([target]), k3, contour3, cfg)
        assert ok.all() and np.isfinite(vals).all()
        ref = continue_factor(PP, alpha1, target, k3, contour3, cfg)
        assert abs(vals[0] - ref) / abs(ref) < 1e-5

    @pytest.mark.parametrize("label", [PP, PM, MP, MM], ids=lambda l: l.tag)
    def test_field_continues_across_contour(self, contour3, cfg, k3, label):
        # targets on both sides: the natural integral and the alpha2-div
        # continuation of the grid path
        alpha1 = 0.8 + 0.9j if label.side1 > 0 else -0.8 - 0.9j
        pts = np.array([2.0 + 2.0j, -2.0 + 1.5j, 1.0 - 2.0j, -1.2 - 0.4j])
        vals, ok = factor_field(label, alpha1, pts, k3, contour3, cfg)
        assert ok.all()
        for z, v in zip(pts, vals):
            ref = continue_factor(label, alpha1, z, k3, contour3, cfg)
            assert abs(v - ref) / abs(ref) < 1e-5


def test_kpp_portrait_bytes_do_not_depend_on_projection_sharing(
        monkeypatch, tmp_path, contour3):
    # the README's k_pp job at 200^2: projecting each distinct real part
    # once writes the bytes that projecting every pixel writes
    import qpdiff.contour as ct

    def every_pixel(spec, z):
        z = np.asarray(z)
        x = np.real(z).astype(np.float64).ravel()
        s, pts = (np.concatenate(part) for part in zip(*(
            ct._solve_projection(spec, x[i:i + 4096])
            for i in range(0, x.size, 4096))))
        return s.reshape(z.shape), np.imag(z) - pts.imag.reshape(z.shape)

    spec = pt.PortraitSpec(window=(-6, 6, -6, 6), resolution=(200, 200),
                           function="k_pp",
                           params=(("k", 3.0),
                                   ("alpha1", contour_point(contour3, 10.0))))
    shared, alone = tmp_path / "shared.ppm", tmp_path / "alone.ppm"
    pt.write_image(pt.render(spec, contour=contour3), str(shared))
    monkeypatch.setattr(ct, "contour_projection", every_pixel)
    pt.write_image(pt.render(spec, contour=contour3), str(alone))
    assert shared.read_bytes() == alone.read_bytes()


class TestKernelRegistry:
    def test_alpha1_plane_slice_matches_specfun(self, contour3, k3):
        import qpdiff.specfun as sf
        fixed_a2 = contour_point(contour3, 5.0)
        spec = pt.PortraitSpec(window=(-4, 4, -4, 4), resolution=(8, 8),
                               function="kernel",
                               params=(("k", k3), ("alpha2", fixed_a2)))
        img_grid = pt.pixel_grid(spec)
        vals = pt.REGISTRY["kernel"](img_grid, contour3, None,
                                     {"k": k3, "alpha2": fixed_a2})
        ref = sf.big_k(img_grid.ravel(), np.full(img_grid.size, fixed_a2), k3)
        assert np.allclose(vals.ravel(), ref, rtol=1e-12)

    def test_alpha2_plane_slice_matches_specfun(self, contour3, k3):
        import qpdiff.specfun as sf
        fixed_a1 = contour_point(contour3, 10.0)
        # keep Re off +-k: the vertical kernel cuts live there
        grid = (np.linspace(-2.9, 2.9, 5)[None, :]
                + 1j * np.linspace(2, 4, 5)[:, None])
        vals = pt.REGISTRY["kernel"](grid, contour3, None,
                                     {"k": k3, "alpha1": fixed_a1})
        ref = sf.big_k(np.full(grid.size, fixed_a1), grid.ravel(), k3)
        assert np.allclose(vals.ravel(), ref, rtol=1e-12)

    def test_missing_frozen_variable_rejected(self, contour3, k3):
        spec = pt.PortraitSpec(window=(-1, 1, -1, 1), resolution=(4, 4),
                               function="kernel", params=(("k", k3),))
        with pytest.raises(DomainError):
            pt.render(spec, contour=contour3)


def test_factor_field_rejects_wrong_alpha1_side(contour3, cfg, k3):
    # the error quarter_factor raises for the same alpha1
    with pytest.raises(DomainError, match="natural half-plane"):
        factor_field(PP, -1.2, np.array([1.0 + 1.0j]), k3, contour3, cfg)
