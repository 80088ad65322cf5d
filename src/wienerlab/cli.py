"""Command-line front end: reproduce the counterexample verdicts as evidence files.

Subcommands:
  reproduce-thm31   gaussian-tail growth example: in the order-2 class, not
                    order-(2,2) strongly differentiable, not in any higher class
  reproduce-thm33   origin-cusp example: order-(2,2) strongly differentiable
                    but in no higher-order class
  diagnose          run the membership report on any catalog functional
  cm-check          Monte Carlo check of the shift-versus-reweighting identity

Every subcommand takes --config, --out and --format.  The three reports also
take the parameters of their catalog functional (diagnose: of every one),
--p, --q, --delta, --h and the quadrature flags --atol, --rtol, --budget and
--eps-grid; cm-check takes --poly, --direction, --shift, --seed and
--n-samples.

Exit codes: 0 conclusions proved as configured, 1 contradiction, 2 evidence
inconclusive, 64 usage or parameter error.  Reports embed the full evidence
tables (CSV schema=1 and Markdown); the same configuration gives
byte-identical CSV output, for cm-check with the same --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import quadrature as quad
from .counterexamples import CATALOG, catalog_build
from .diagnostics import (EpsilonGrid, Flag, LqRow, MembershipReport, cameron_martin_check,
                          membership_report, report_evidence_rows, report_to_markdown,
                          rows_to_csv)
from .functionals import CylindricalFunctional, Polynomial
from .quadrature import IntegralVerdict, Verdict
from .wiener import CameronMartinDirection, TimeGrid, cm_norm

ENV_OUT = "WIENERLAB_OUT"

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag or a config key must match exactly
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


def _parse_float_list(s: str):
    vals = tuple(float(t) for t in s.split(",") if t.strip())
    if not vals:
        raise argparse.ArgumentTypeError(f"empty list {s!r}")
    return vals


def _parse_eps_grid(s: str) -> EpsilonGrid:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", s.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"wants k1..k2, got {s!r}")
    return EpsilonGrid.from_krange(int(m.group(1)), int(m.group(2)))


def _parse_poly(spec: str) -> Polynomial:
    """Tiny polynomial grammar: '2*x1^2*x2 - 0.5*x1 + 3'; variables x1..xn.

    A sign starts a term, except right after '*', where it belongs to its
    factor (x1*-x2), and after a mantissa's e/E (1e-3, 2.5E+1).
    """
    terms = re.split(r"(?<=[^*])(?<![\d.][eE])(?=[+-])", spec.replace(" ", ""))
    parsed = []
    n_vars = 1
    for term in terms:
        coeff = 1.0
        expos = {}
        for factor in term.split("*"):
            m = re.fullmatch(r"([+-]?)x(\d+)(?:\^(\d+))?", factor)
            if m:
                idx = int(m.group(2)) - 1
                if idx < 0:
                    raise UsageError(f"variables start at x1, got {factor!r}")
                if m.group(1) == "-":
                    coeff = -coeff
                expos[idx] = expos.get(idx, 0) + int(m.group(3) or 1)
                n_vars = max(n_vars, idx + 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise UsageError(f"cannot parse polynomial factor {factor!r}")
        parsed.append((coeff, expos))
    terms_dict = {}
    for coeff, expos in parsed:
        key = tuple(expos.get(i, 0) for i in range(n_vars))
        terms_dict[key] = terms_dict.get(key, 0.0) + coeff
    if not all(map(math.isfinite, terms_dict.values())):
        raise UsageError(f"polynomial coefficients must be finite, got {spec!r}")
    return Polynomial(n_vars, terms_dict)


def _parse_direction(spec: str) -> CameronMartinDirection:
    """Comma-separated density values, piecewise constant on a uniform grid."""
    vals = _parse_float_list(spec)
    if not all(map(math.isfinite, vals)):
        raise argparse.ArgumentTypeError(f"density values must be finite, got {spec!r}")
    return CameronMartinDirection(TimeGrid.uniform(len(vals)), np.array(vals))


def _config_flags(path: str) -> list:
    """Each line 'key = value' of a config file as the flag --key=value."""
    flags = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key == "config":
            raise UsageError("a config file cannot name another config file")
        flags.append(f"--{key}={val}")
    return flags


def _add_output(p: _Parser):
    p.add_argument("--config", help="key = value lines, read as the flags --key=value; "
                                    "flags override them")
    p.add_argument("--out", type=Path, default=os.environ.get(ENV_OUT, "wienerlab-out"),
                   help=f"output directory (default ${ENV_OUT} or ./wienerlab-out)")
    p.add_argument("--format", choices=["csv", "md", "both"], default="both")


def _catalog_params(name: str) -> list:
    """The parameters a catalog functional takes: its dataclass fields."""
    return [fld.name for fld in dataclasses.fields(CATALOG[name][0])]


# report subcommand -> (help, catalog functional, the flags it must come out
# with); diagnose takes the functional from --functional and expects nothing
_REPORTS = {
    "reproduce-thm31": ("gaussian-tail growth counterexample", "thm31",
                        {"in_base": Flag.YES, "ssgd_pp": Flag.NO, "in_plus": Flag.NO}),
    "reproduce-thm33": ("origin-cusp counterexample", "thm33",
                        {"in_base": Flag.YES, "ssgd_pp": Flag.YES, "in_plus": Flag.NO}),
    "diagnose": ("membership report for a catalog functional", None, {}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="wienerlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, name, _) in _REPORTS.items():
        pr = sub.add_parser(command, help=help_text)
        if name is None:
            pr.add_argument("--functional", choices=list(CATALOG))
        names = [name] if name else list(CATALOG)
        # unset, a parameter keeps the default of its catalog dataclass
        for key in dict.fromkeys(k for n in names for k in _catalog_params(n)):
            pr.add_argument(f"--{key}", type=float, default=argparse.SUPPRESS)
        pr.add_argument("--p", type=float, default=2.0)
        pr.add_argument("--q", type=_parse_float_list, default=(),
                        help="extra L^q residual exponents, comma list")
        pr.add_argument("--delta", type=_parse_float_list, default=(0.1, 0.5),
                        help="exponent bumps for the sampled union")
        pr.add_argument("--h", type=_parse_float_list, default=(1.0, -1.0),
                        help="direction endpoints, comma list")
        pr.add_argument("--atol", type=float, default=quad.DEFAULT_ATOL)
        pr.add_argument("--rtol", type=float, default=quad.DEFAULT_RTOL)
        pr.add_argument("--budget", type=int, default=quad.DEFAULT_BUDGET,
                        help="integrand evaluations per verdict, a hard cap")
        pr.add_argument("--eps-grid", type=_parse_eps_grid, default=EpsilonGrid.default(),
                        metavar="K1..K2")
        _add_output(pr)

    pc = sub.add_parser("cm-check", help="shift-versus-reweighting Monte Carlo check")
    pc.add_argument("--poly", default="x1^2", help="polynomial in x1..xn, e.g. 'x1^2'")
    pc.add_argument("--direction", type=_parse_direction, action="append",
                    help="density values for each functional direction (repeatable; "
                         "default 1.0)")
    pc.add_argument("--shift", type=_parse_direction,
                    help="density values of the shift direction (default the first direction)")
    pc.add_argument("--seed", type=int, default=20_260_810)
    pc.add_argument("--n-samples", type=int, default=10**6)
    _add_output(pc)
    return parser


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")
    return value


def _emit(args, stem: str, rows, markdown: str) -> list:
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("csv", "both"):
        p = args.out / f"{stem}.csv"
        p.write_text(rows_to_csv(rows), encoding="utf-8")
        written.append(p)
    if args.format in ("md", "both"):
        p = args.out / f"{stem}.md"
        p.write_text(markdown, encoding="utf-8")
        written.append(p)
    return written


def _flags_line(report: MembershipReport) -> str:
    f = report.flags
    return (f"order-{report.p:g} class: {f['in_base']} | "
            f"strong order-({report.p:g},{report.p:g}) differentiability: {f['ssgd_pp']} | "
            f"higher-order union (sampled): {f['in_plus']}")


def _report_exit(report: MembershipReport, expected: dict) -> int:
    if report.chain_violations:
        return EXIT_CONTRADICTION
    if any(v == Flag.UNKNOWN for v in report.flags.values()):
        return EXIT_INCONCLUSIVE
    if expected and any(report.flags[k] != v for k, v in expected.items()):
        return EXIT_CONTRADICTION
    return EXIT_OK


def cmd_report(args) -> int:
    _, name, expected = _REPORTS[args.command]
    suffix = "report"
    if name is None:
        if not args.functional:
            print("error: --functional is required", file=sys.stderr)
            return EXIT_USAGE
        name, suffix = args.functional, "diagnose"
    # only the parameters set by flag or config; the others keep their defaults
    params = {key: value for key, value in vars(args).items() if key in _catalog_params(name)}
    stray = [k for n in CATALOG for k in _catalog_params(n) if k in vars(args) and k not in params]
    if stray:  # a parameter of another catalog functional (diagnose takes them all)
        raise UsageError(f"--functional {name} takes no parameter --{stray[0]}")
    try:
        f = catalog_build(name, **params)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = membership_report(f, args.p, deltas=args.delta, h_list=args.h, grid=args.eps_grid,
                               extra_qs=args.q, atol=args.atol, rtol=args.rtol,
                               budget=_at_least("--budget", args.budget, 1))
    rows = report_evidence_rows(report)
    written = _emit(args, f"{name}-{suffix}", rows, report_to_markdown(report))
    print(_flags_line(report))
    for path in written:
        print(f"wrote {path}")
    code = _report_exit(report, expected)
    if code == EXIT_CONTRADICTION:
        print("CONTRADICTION: conclusions do not match the configured expectation",
              file=sys.stderr)
    elif code == EXIT_INCONCLUSIVE:
        print("INCONCLUSIVE: some evidence did not certify", file=sys.stderr)
    return code


def cmd_cm_check(args) -> int:
    poly = _parse_poly(args.poly)
    directions = args.direction or [_parse_direction("1.0")]
    if len(directions) < poly.n_vars:
        print(f"error: polynomial uses x1..x{poly.n_vars} but only "
              f"{len(directions)} direction(s) given", file=sys.stderr)
        return EXIT_USAGE
    shift = args.shift or directions[0]
    # the standard errors need two samples
    n = _at_least("--n-samples", args.n_samples, 2)

    Z = CylindricalFunctional(directions[:poly.n_vars], poly)
    res = cameron_martin_check(Z, shift, n, args.seed)
    # a mean or standard error that is not finite certifies nothing
    rows = [LqRow(quantity, None, None, IntegralVerdict(
                Verdict.CONVERGED if math.isfinite(mean) and math.isfinite(se)
                else Verdict.INCONCLUSIVE, value=mean, abs_error=se))
            for quantity, mean, se in (("cm_lhs_shifted_mean", res.lhs, res.se_lhs),
                                       ("cm_rhs_reweighted_mean", res.rhs, res.se_rhs))]
    certified = all(r.verdict.converged for r in rows)
    outcome = ("inconclusive" if not certified else
               "consistent" if res.within_3se else "INCONSISTENT")
    md = "\n".join([
        "# Shift-versus-reweighting check",
        "",
        f"polynomial: `{args.poly}`; shift norm: {cm_norm(shift):.6g}; "
        f"samples: {n}; seed: {args.seed}",
        "",
        f"lhs (mean of shifted Z): {res.lhs:.8g} +- {res.se_lhs:.3g} (1 se)",
        f"rhs (reweighted mean):   {res.rhs:.8g} +- {res.se_rhs:.3g} (1 se)",
        f"gap {res.gap:.3g} vs 3(se_lhs + se_rhs) = {3 * (res.se_lhs + res.se_rhs):.3g}"
        f" -> {outcome}",
        "",
    ])
    written = _emit(args, "cm-check", rows, md)
    print(f"lhs={res.lhs:.8g} (se {res.se_lhs:.3g})  rhs={res.rhs:.8g} (se {res.se_rhs:.3g})"
          f"  within 3 SE: {res.within_3se}")
    for path in written:
        print(f"wrote {path}")
    if not certified:
        print("INCONCLUSIVE: a Monte Carlo mean or standard error is not finite",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK if res.within_3se else EXIT_CONTRADICTION


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # its lines go before the command line's flags, which win
            given = args
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
            if getattr(given, "direction", None):  # repeatable: the command line's list wins
                args.direction = given.direction
        return (cmd_report if args.command in _REPORTS else cmd_cm_check)(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
