"""Command-line surface: diffraction sweeps, factor evaluation,
portraits and the verification suite.

The CLI is a thin shell over the library; every computation it performs
is reachable through library calls with identical results.  Angles are
radians only, with ``pi``-fraction literals ("pi/4", "-3*pi/4")
accepted to avoid silent degree/radian mistakes.  Points are "re,im"
pairs or anchors ("A1:10", "A2:5") on the active contour, whose
constants are Python complex literals ("0.0012+0.0006j").

A ``key=value`` file (``--config``) sets the keys the subcommand reads
(``_READS``), and flags override it, one for each such key; a key the
subcommand does not read is a usage error, in the file as on the command
line.  ``verify`` takes neither.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from time import perf_counter
from dataclasses import dataclass

from . import verification
from .contour import ContourSpec, contour_point, scaled_constants, validate_contour
from .errors import QpdiffError
from .farfield import AnsatzEvaluator, make_incidence
from .portrait import PortraitSpec, render, write_image
from .quadrature import QuadratureConfig
from .specfun import big_k
from .whfactor import ALL_LABELS, FactorLabel, continue_factor

_PI_FORM = re.compile(
    r"^\s*([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?\s*$", re.IGNORECASE
)


def parse_angle(text: str) -> float:
    """Radians, as a float literal or a pi-fraction like '-3*pi/4'."""
    m = _PI_FORM.match(text)
    try:
        if m:
            coef_s, div_s = m.groups()
            coef = 1.0 if coef_s in ("", "+") else -1.0 if coef_s == "-" \
                else float(coef_s)
            div = float(div_s) if div_s else 1.0
            return coef * math.pi / div
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise QpdiffError(f"malformed angle: {text!r}") from None


def _parse(kind, text: str, what: str):
    """``kind(text)``, with a malformed value reported as a ``QpdiffError``."""
    try:
        return kind(text)
    except ValueError:
        raise QpdiffError(f"malformed {what}: {text!r}") from None


def parse_complex(text: str, contour: ContourSpec | None = None) -> complex:
    """'re,im' pair (pi-forms allowed) or a contour anchor 'A1:s'/'A2:s'."""
    text = text.strip()
    m = re.match(r"^A[12]:(.+)$", text, re.IGNORECASE)
    if m:
        if contour is None:
            raise QpdiffError("contour anchors need active contour constants")
        return complex(contour_point(contour,
                                     _parse(float, m.group(1), "anchor")))
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(parse_angle(re_s), parse_angle(im_s))
    return complex(parse_angle(text))


@dataclass
class RunConfig:
    """Validated settings of ``diffcoef``, ``factor`` and ``portrait``."""

    k: float = 3.0
    contour_a: complex | None = None
    contour_c: complex | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 60
    eps_shift: float = 0.0

    def contour(self) -> ContourSpec:
        """The run's contour, through the acceptance gate (once a run)."""
        a, c = scaled_constants(self.k)
        spec = ContourSpec(a=a if self.contour_a is None else self.contour_a,
                           c=c if self.contour_c is None else self.contour_c)
        validate_contour(spec, self.k, raise_on_failure=True)
        return spec

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                                max_subdivisions=self.max_subdivisions)


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise QpdiffError(f"bad config line (need key=value): {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


_CONFIG_PARSERS = {
    "k": float,
    "contour_a": complex,
    "contour_c": complex,
    "abs_tol": float,
    "rel_tol": float,
    "max_subdivisions": int,
    "eps_shift": float,
}

#: the keys each subcommand reads, and so has flags for
_READS = {
    "diffcoef": tuple(_CONFIG_PARSERS),
    "factor": ("k", "contour_a", "contour_c", "abs_tol", "rel_tol",
               "max_subdivisions"),
    "portrait": ("k", "contour_a", "contour_c"),
}

#: flags, and their config keys, that went with the integrals' truncation
_REMOVED = ("--s-max", "--tail-policy")


def build_run_config(args) -> RunConfig:
    cfg = RunConfig()
    given = _load_config_file(args.config) if args.config else {}
    for flag in _REMOVED:
        key = flag[2:].replace("-", "_")
        if key in given or getattr(args, key, None) is not None:
            raise QpdiffError(f"{flag} (config key {key}) was removed: the "
                              "integrals run over the whole contour")
    for key, raw in given.items():
        if key not in _CONFIG_PARSERS:
            raise QpdiffError(f"unknown config key {key!r}")
        if key not in _READS[args.command]:
            raise QpdiffError(f"config key {key!r} is not read by "
                              f"{args.command}; remove it")
        setattr(cfg, key, _parse(_CONFIG_PARSERS[key], raw,
                                 f"config value for {key}"))
    for key in _CONFIG_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_diffcoef(args) -> int:
    run = build_run_config(args)
    spec = run.contour()
    inc = make_incidence(parse_angle(args.theta0), parse_angle(args.phi0),
                         run.k, eps_shift=run.eps_shift)
    evaluator = AnsatzEvaluator(inc, contour=spec, cfg=run.quadrature())
    phis = [parse_angle(p) for p in args.phi]
    if len(phis) == 1 and not args.out.endswith(os.sep) \
            and not os.path.isdir(args.out):
        outputs = [args.out]
    else:
        os.makedirs(args.out, exist_ok=True)
        outputs = [os.path.join(args.out, f"arc_phi_{phi:.12g}.csv")
                   for phi in phis]
    any_whole_failure = False
    for phi, path in zip(phis, outputs):
        result = evaluator.arc_sweep(phi, args.n_theta)
        result.to_csv(path)
        n_pole = result.flags.count("near_pole")
        n_failed = result.flags.count("failed")
        if n_pole + n_failed == len(result.flags):
            any_whole_failure = True
        print(f"wrote {path}  ({len(result.flags)} rows, "
              f"{n_pole} near-pole/singular, {n_failed} failed)")
    return 1 if any_whole_failure else 0


def cmd_factor(args) -> int:
    run = build_run_config(args)
    spec = run.contour()
    a1 = parse_complex(args.alpha1, spec)
    a2 = parse_complex(args.alpha2, spec)
    cfg = run.quadrature()
    if args.label == "full":
        value = big_k(a1, a2, run.k)
        print(f"K({a1:.12g}, {a2:.12g}) = {value:.15g}  [route: closed-form]")
        return 0
    label = FactorLabel(args.label)
    value, route = continue_factor(label, a1, a2, run.k, spec, cfg,
                                   with_route=True)
    print(f"K_{label.tag}({a1:.12g}, {a2:.12g}) = {value:.15g}  "
          f"[route: {route}]")
    return 0


def cmd_portrait(args) -> int:
    run = build_run_config(args)
    spec = run.contour()
    window = tuple(_parse(float, x, "--window bound")
                   for x in args.window.split(","))
    if len(window) != 4:
        raise QpdiffError("--window needs re_min,re_max,im_min,im_max")
    res = [_parse(int, x, "--res size") for x in args.res.split(",")]
    if len(res) == 1:
        res *= 2
    if len(res) != 2:
        raise QpdiffError("--res needs n or width,height")
    w, h = res
    params = [("k", run.k)]
    if args.alpha1 is not None:
        params.append(("alpha1", parse_complex(args.alpha1, spec)))
    if args.alpha2 is not None:
        params.append(("alpha2", parse_complex(args.alpha2, spec)))
    pspec = PortraitSpec(window=window, resolution=(w, h),
                         function=args.function, mode=args.mode,
                         params=tuple(params))
    t0 = perf_counter()
    buffer = render(pspec, contour=spec)
    write_image(buffer, args.out)
    print(f"wrote {args.out}  ({w}x{h}, {perf_counter() - t0:.1f} s)")
    return 0


def cmd_verify(args) -> int:
    checks = verification.SUITES[args.suite]
    results = []
    failed = 0
    for check in checks:
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}  ({result.elapsed:.1f} s)  "
              f"{result.detail}")
        if not result.passed:
            failed += 1
    if args.json:
        with open(args.json, "w") as handle:
            for result in results:
                handle.write(json.dumps({
                    "name": result.name,
                    "passed": result.passed,
                    "elapsed": result.elapsed,
                    "detail": result.detail,
                    "data": result.data,
                }) + "\n")
        print(f"wrote {args.json}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_settings(p, command):
    """``--config`` and a flag for each key ``command`` reads."""
    p.add_argument("--config", help="key=value config file")
    for key in _READS[command]:
        p.add_argument("--" + key.replace("_", "-"), type=_CONFIG_PARSERS[key])
    for flag in _REMOVED:
        p.add_argument(flag, help=argparse.SUPPRESS)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpdiff",
        description="Quarter-plane diffraction via double Wiener-Hopf "
                    "kernel factorisation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diffcoef", help="tabulate the diffraction "
                                        "coefficient along observation arcs")
    p.add_argument("--theta0", required=True, help="polar incidence (rad)")
    p.add_argument("--phi0", required=True, help="azimuthal incidence (rad)")
    p.add_argument("--phi", action="append", required=True,
                   help="observation azimuth; repeatable")
    p.add_argument("--n-theta", dest="n_theta", type=int, default=101)
    p.add_argument("--out", required=True,
                   help="CSV path (single arc) or output directory")
    _add_settings(p, "diffcoef")
    p.set_defaults(func=cmd_diffcoef)

    p = sub.add_parser("factor", help="evaluate one kernel factor at a point")
    p.add_argument("--label", required=True,
                   choices=[lab.tag for lab in ALL_LABELS] + ["full"])
    p.add_argument("--alpha1", required=True, help="'re,im' or 'A1:s'")
    p.add_argument("--alpha2", required=True, help="'re,im' or 'A2:s'")
    _add_settings(p, "factor")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("portrait", help="render a phase portrait to PPM")
    p.add_argument("--function", required=True)
    p.add_argument("--window", default="-6,6,-6,6")
    p.add_argument("--res", default="400")
    p.add_argument("--mode", choices=("phase", "sign"), default="phase")
    p.add_argument("--alpha1", default=None)
    p.add_argument("--alpha2", default=None)
    p.add_argument("--out", required=True)
    _add_settings(p, "portrait")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--suite", default="all",
                   choices=sorted(verification.SUITES))
    p.add_argument("--json", default=None, help="also write a JSONL report")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QpdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
