"""CLI surface: parsers, subcommands, thin-shell equivalence."""

import math
import os

import pytest

from qpdiff import cli
from qpdiff.contour import contour_point
from qpdiff.errors import QpdiffError
from qpdiff.farfield import AnsatzEvaluator, make_incidence
from qpdiff.quadrature import QuadratureConfig
from qpdiff.whfactor import FactorLabel, _integral_memo, continue_factor


class TestParsers:
    @pytest.mark.parametrize("text,expected", [
        ("pi", math.pi),
        ("pi/4", math.pi / 4),
        ("-3*pi/4", -3 * math.pi / 4),
        ("2*pi", 2 * math.pi),
        ("-pi/2", -math.pi / 2),
        ("0.75", 0.75),
        ("-1.5e-3", -1.5e-3),
        ("3.141592653589793", math.pi),
    ])
    def test_angles(self, text, expected):
        assert cli.parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_complex_pairs(self):
        assert cli.parse_complex("1.5,-2") == 1.5 - 2j
        assert cli.parse_complex("pi/4,0") == pytest.approx(math.pi / 4)

    def test_contour_anchor(self, contour3):
        val = cli.parse_complex("A1:10", contour3)
        assert val == pytest.approx(complex(contour_point(contour3, 10.0)))
        with pytest.raises(QpdiffError):
            cli.parse_complex("A1:10", None)


class TestFactorCommand:
    def test_full_kernel_at_origin(self, capsys):
        rc = cli.main(["factor", "--label", "full", "--alpha1", "0,0",
                       "--alpha2", "0,0", "--k", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.333333333333333" in out

    def test_zero_alpha1_prints_prefactor_route(self, capsys):
        rc = cli.main(["factor", "--label", "mp", "--alpha1", "0,0",
                       "--alpha2", "1,1", "--k", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "direct" in out

    def test_thin_shell_equivalence(self, capsys, contour3):
        # the printed value equals the library call bit-for-bit (same
        # code path), parsed back from full-precision text
        cases = [("pp", "A1:10", "1,1"), ("mm", "-1,0.2", "-2,-0.5"),
                 ("mp", "-0.5,0", "0.5,0")]
        cfg = QuadratureConfig()
        for tag, a1s, a2s in cases:
            rc = cli.main(["factor", "--label", tag, f"--alpha1={a1s}",
                           f"--alpha2={a2s}", "--k", "3"])
            assert rc == 0
            out = capsys.readouterr().out
            printed = out.split("=")[1].split("[")[0].strip()
            _integral_memo.clear()  # the library integrates again
            lib = continue_factor(FactorLabel(tag),
                                  cli.parse_complex(a1s, contour3),
                                  cli.parse_complex(a2s, contour3),
                                  3.0, contour3, cfg)
            assert complex(printed) == pytest.approx(lib, rel=1e-12)


class TestDiffcoefCommand:
    def test_single_arc_csv(self, tmp_path, capsys):
        out = tmp_path / "arc.csv"
        rc = cli.main(["diffcoef", "--theta0", "pi/4", "--phi0=-3*pi/4",
                       "--phi", "pi", "--n-theta", "9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,phi,theta0,phi0,k,re_fd,im_fd,flag"
        assert len(lines) == 10
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_eight_arcs_make_eight_files(self, tmp_path, capsys):
        outdir = tmp_path / "arcs"
        phis = [f"{i}*pi/4" for i in range(8)]
        phis[0] = "0"
        argv = ["diffcoef", "--theta0", "pi/4", "--phi0=-3*pi/4",
                "--n-theta", "2", "--out", str(outdir)]
        for phi in phis:
            argv += ["--phi", phi]
        rc = cli.main(argv)
        assert rc == 0
        files = sorted(os.listdir(outdir))
        assert len(files) == 8

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["diffcoef", "--phi0", "0", "--phi", "0",
                      "--out", "x.csv"])
        assert err.value.code != 0

    def test_library_equivalence(self, tmp_path):
        out = tmp_path / "arc.csv"
        rc = cli.main(["diffcoef", "--theta0", "pi/4", "--phi0=-3*pi/4",
                       "--phi", "pi", "--n-theta", "5", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        inc = make_incidence(math.pi / 4, -3 * math.pi / 4, 3.0)
        _integral_memo.clear()  # the library integrates again
        res = AnsatzEvaluator(inc).arc_sweep(math.pi, 5)
        for row, val in zip(rows, res.values):
            fields = row.split(",")
            assert float(fields[5]) == val.real
            assert float(fields[6]) == val.imag


class TestPortraitCommand:
    def test_identity_two_by_two(self, tmp_path, capsys):
        out = tmp_path / "id.ppm"
        rc = cli.main(["portrait", "--function", "identity", "--res", "2",
                       "--window=-1,1,-1,1", "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        assert len(data) == len(b"P6\n2 2\n255\n") + 12

    def test_sign_mode_map(self, tmp_path, capsys):
        out = tmp_path / "sign.ppm"
        rc = cli.main(["portrait", "--function", "im_inv_k", "--mode", "sign",
                       "--res", "12", "--window=-5,5,-5,5",
                       "--alpha2", "A2:0", "--out", str(out)])
        assert rc == 0
        body = out.read_bytes().split(b"255\n", 1)[1]
        pixels = {tuple(body[i:i + 3]) for i in range(0, len(body), 3)}
        assert pixels <= {(255, 0, 0), (0, 0, 255), (0, 0, 0)}

    def test_unknown_function_fails(self, tmp_path, capsys):
        rc = cli.main(["portrait", "--function", "nope",
                       "--out", str(tmp_path / "x.ppm")])
        assert rc == 2


@pytest.mark.parametrize("argv", [
    ["portrait", "--function", "identity", "--res", "4x4"],
    ["portrait", "--function", "identity", "--window=-1,1,a,1"],
    ["diffcoef", "--theta0", "abc", "--phi0", "0", "--phi", "0"],
    ["diffcoef", "--theta0", "pi/4", "--phi0", "pi/0", "--phi", "0"],
    ["factor", "--label", "pp", "--alpha1", "1,x", "--alpha2", "1,1"],
    ["factor", "--label", "pp", "--alpha1", "A1:ten", "--alpha2", "1,1"],
], ids=["res", "window", "theta0", "phi0", "alpha1", "anchor"])
def test_malformed_value_is_an_error_not_a_traceback(argv, tmp_path, capsys):
    if argv[0] != "factor":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("flag", ["--abs-tol=nan", "--rel-tol=nan",
                                  "--rel-tol=inf"])
def test_non_finite_tolerance_is_usage_error(flag, capsys):
    # no error estimate meets a NaN or infinite tolerance: refuse it up
    # front instead of bisecting every panel down to underflow
    assert cli.main(["factor", "--label", "pp", "--alpha1", "0.5,0.5",
                     "--alpha2", "1,1", flag]) == 2
    assert "tolerances must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["factor", "--label", "pp", "--alpha1", "A1:10", "--alpha2=-1.2,0"],
    ["diffcoef", "--theta0", "pi/4", "--phi0=-3*pi/4", "--phi", "0"],
    ["portrait", "--function", "k_pp", "--res", "2"],
    # explicit constants skip scaled_constants: the contour gate checks k
    ["factor", "--label", "pp", "--alpha1", "0.5,0.5", "--alpha2=-1.2,0",
     "--contour-a", "0.0012+0.0006j", "--contour-c", "1000j"],
], ids=["factor", "diffcoef", "portrait", "factor-explicit-contour"])
@pytest.mark.parametrize("k", ["inf", "nan", "-inf", "0", "-3"])
def test_invalid_wavenumber_is_usage_error(argv, k, tmp_path, capsys):
    if argv[0] != "factor":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert cli.main(argv + [f"--k={k}"]) == 2
    assert "wavenumber must be finite and positive" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_non_finite_shift_is_usage_error(eps, tmp_path, capsys):
    # a NaN shift once gave all-NaN rows flagged failed, and exit 1
    out = tmp_path / "arc.csv"
    assert cli.main(["diffcoef", "--theta0", "pi/4", "--phi0", "pi/8",
                     "--phi", "0", "--n-theta", "3", f"--eps-shift={eps}",
                     "--out", str(out)]) == 2
    assert "eps_shift must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    *(["portrait", "--function", "k_pp", "--alpha1", "A1:10", "--res", "8", flag]
      for flag in ("--abs-tol=1e-3", "--rel-tol=1e-3", "--max-subdivisions=3",
                   "--eps-shift=5")),
    ["factor", "--label", "pp", "--alpha1", "0.8,0.9", "--alpha2", "1,1.2",
     "--eps-shift=-5"],
    *(["verify", "--suite", "specfun", flag]
      for flag in ("--config=run.cfg", "--k=-1", "--contour-a=1j",
                   "--contour-c=1j", "--abs-tol=1e-3", "--rel-tol=1e-3",
                   "--max-subdivisions=3", "--eps-shift=-1")),
], ids=lambda argv: f"{argv[0]}{argv[-1].split('=')[0]}")
def test_a_setting_the_command_does_not_read_is_a_usage_error(argv, tmp_path,
                                                              capsys):
    # a flag that would change nothing is refused, not silently ignored
    out = tmp_path / "out"
    if argv[0] == "portrait":
        argv = argv + ["--out", str(out)]
    elif argv[0] == "verify":
        argv = argv + ["--json", str(out)]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_follow_the_umask(tmp_path, capsys):
    ppm, csv = tmp_path / "id.ppm", tmp_path / "arc.csv"
    old = os.umask(0o022)
    try:
        assert cli.main(["portrait", "--function", "identity", "--res", "2",
                         "--out", str(ppm)]) == 0
        assert cli.main(["diffcoef", "--theta0", "pi/4", "--phi0=-3*pi/4",
                         "--phi", "pi", "--n-theta", "2",
                         "--out", str(csv)]) == 0
    finally:
        os.umask(old)
    assert (ppm.stat().st_mode & 0o777) == 0o644
    assert (csv.stat().st_mode & 0o777) == 0o644


class TestConfigFile:
    def test_key_value_overrides(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# reference constants, coarser tolerance\n"
            "k = 3.0\n"
            "rel_tol = 1e-7\n"
            "contour_a = 0.0012+0.0006j\n"
        )
        rc = cli.main(["factor", "--label", "full", "--alpha1", "0,0",
                       "--alpha2", "0,0", "--config", str(cfgfile)])
        assert rc == 0
        assert "0.33333" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("shoe_size = 44\n")
        rc = cli.main(["factor", "--label", "full", "--alpha1", "0,0",
                       "--alpha2", "0,0", "--config", str(cfgfile)])
        assert rc == 2


    @pytest.mark.parametrize("argv,key", [
        (["portrait", "--function", "k_pp", "--alpha1", "A1:10", "--res", "8"],
         "rel_tol = 1e-3"),
        (["factor", "--label", "pp", "--alpha1", "0.8,0.9", "--alpha2", "1,1.2"],
         "eps_shift = 5"),
    ], ids=["portrait-rel_tol", "factor-eps_shift"])
    def test_a_key_the_command_does_not_read_is_a_usage_error(
            self, argv, key, tmp_path, capsys):
        # as the matching flag is: a key that would change nothing is
        # refused, not silently ignored, and nothing is written
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "out.ppm"
        cfgfile.write_text(key + "\n")
        argv = argv + ["--config", str(cfgfile)]
        if argv[0] == "portrait":
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "is not read by " + argv[0] in captured.err
        assert not captured.out and not out.exists()

    @pytest.mark.parametrize("setting", ["--s-max=1e5", "--tail-policy=truncate",
                                         "s_max = 1e4", "tail_policy = truncate"])
    def test_removed_settings_are_usage_errors(self, setting, tmp_path, capsys):
        # the integrals are no longer truncated: the knobs that set the
        # truncation are gone, and naming one is an error, not a no-op
        argv = ["factor", "--label", "full", "--alpha1", "0,0", "--alpha2", "0,0"]
        if setting.startswith("--"):
            argv.append(setting)
        else:
            cfgfile = tmp_path / "old.cfg"
            cfgfile.write_text(setting + "\n")
            argv += ["--config", str(cfgfile)]
        assert cli.main(argv) == 2
        assert "was removed" in capsys.readouterr().err


class TestVerifyCommand:
    def test_specfun_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        rc = cli.main(["verify", "--suite", "specfun", "--json", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        import json
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert lines and all(entry["passed"] for entry in lines)


class TestPortraitQuarterFactor:
    def test_k_pp_portrait_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "kpp.ppm"
        rc = cli.main(["portrait", "--function", "k_pp", "--alpha1", "A1:10",
                       "--window=-6,6,-6,6", "--res", "40",
                       "--out", str(out)])
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n40 40\n255\n")
        # analytic upper half-plane renders without failures
        body = data.split(b"255\n", 1)[1]
        rows = [body[r * 120:(r + 1) * 120] for r in range(40)]
        for row in rows[:20]:
            pixels = [tuple(row[i:i + 3]) for i in range(0, 120, 3)]
            assert (0, 0, 0) not in pixels


class TestVerifySuites:
    def test_contour_suite_via_cli(self, capsys):
        rc = cli.main(["verify", "--suite", "contour"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sign compatibility" in out
