"""Command-line front end: reproduce the counterexample verdicts as evidence files.

Subcommands:
  reproduce-thm31   gaussian-tail growth example: in the order-2 class, not
                    order-(2,2) strongly differentiable, not in any higher class
  reproduce-thm33   origin-cusp example: order-(2,2) strongly differentiable
                    but in no higher-order class
  diagnose          run the membership report on any catalog functional
  cm-check          Monte Carlo check of the shift-versus-reweighting identity

Exit codes: 0 conclusions proved as configured, 1 contradiction, 2 evidence
inconclusive, 64 usage or parameter error.  Reports embed the full evidence
tables (CSV schema=1 and Markdown); same config + same seed gives
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import quadrature as quad
from .counterexamples import catalog_build
from .diagnostics import (EpsilonGrid, Flag, IntegralVerdict, LqRow, MembershipReport,
                          Verdict, cameron_martin_check, membership_report,
                          report_evidence_rows, report_to_markdown, rows_to_csv)
from .functionals import CylindricalFunctional, Polynomial
from .wiener import CameronMartinDirection, TimeGrid, cm_norm

ENV_OUT = "WIENERLAB_OUT"

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


def _parse_float_list(s: str):
    return tuple(float(t) for t in s.split(",") if t.strip())


def _parse_eps_grid(s: str) -> EpsilonGrid:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", s.strip())
    if not m:
        raise UsageError(f"--eps-grid wants k1..k2, got {s!r}")
    return EpsilonGrid.from_krange(int(m.group(1)), int(m.group(2)))


def _parse_poly(spec: str) -> Polynomial:
    """Tiny polynomial grammar: '2*x1^2*x2 - 0.5*x1 + 3'; variables x1..xn."""
    s = spec.replace("-", "+-").replace(" ", "")
    terms = [t for t in s.split("+") if t]
    parsed = []
    n_vars = 1
    for term in terms:
        coeff = 1.0
        expos = {}
        for factor in term.split("*"):
            if not factor:
                continue
            m = re.fullmatch(r"(-?)x(\d+)(?:\^(\d+))?", factor)
            if m:
                idx = int(m.group(2)) - 1
                if idx < 0:
                    raise UsageError(f"variables start at x1, got {factor!r}")
                if m.group(1):
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
    fixed = {tuple(list(k) + [0] * (n_vars - len(k))): v for k, v in terms_dict.items()}
    return Polynomial(n_vars, fixed)


def _parse_direction(spec: str) -> CameronMartinDirection:
    """Comma-separated density values, piecewise constant on a uniform grid."""
    vals = _parse_float_list(spec)
    if not vals:
        raise UsageError(f"empty direction spec {spec!r}")
    return CameronMartinDirection(TimeGrid.uniform(len(vals)), np.array(vals))


def _load_config(path: str) -> dict:
    cfg = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _merge(args: argparse.Namespace, key: str, default, convert=None):
    """Flag beats config beats default."""
    val = getattr(args, key, None)
    if val is None:
        val = args._config.get(key)
        if val is not None and convert is not None:
            val = convert(val)
    if val is None:
        val = default
    return val


def _add_common(p: _Parser):
    p.add_argument("--config", help="key=value file; flags override it")
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./wienerlab-out)")
    p.add_argument("--format", choices=["csv", "md", "both"], default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps-grid", dest="eps_grid", default=None, metavar="K1..K2")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="wienerlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p31 = sub.add_parser("reproduce-thm31", help="gaussian-tail growth counterexample")
    p31.add_argument("--a", type=float, default=None)
    p31.add_argument("--p", type=float, default=None)
    p31.add_argument("--q", type=_parse_float_list, default=None,
                     help="extra L^q residual exponents, comma list")
    p31.add_argument("--delta", type=_parse_float_list, default=None,
                     help="exponent bumps for the sampled union")
    p31.add_argument("--h", type=_parse_float_list, default=None,
                     help="direction endpoints, comma list")
    _add_common(p31)

    p33 = sub.add_parser("reproduce-thm33", help="origin-cusp counterexample")
    p33.add_argument("--eta", type=float, default=None)
    p33.add_argument("--mu", type=float, default=None)
    p33.add_argument("--p", type=float, default=None)
    p33.add_argument("--q", type=_parse_float_list, default=None)
    p33.add_argument("--delta", type=_parse_float_list, default=None)
    p33.add_argument("--h", type=_parse_float_list, default=None)
    _add_common(p33)

    pd = sub.add_parser("diagnose", help="membership report for a catalog functional")
    pd.add_argument("--functional", default=None, help="linear | thm31 | thm33")
    pd.add_argument("--a", type=float, default=None)
    pd.add_argument("--eta", type=float, default=None)
    pd.add_argument("--mu", type=float, default=None)
    pd.add_argument("--p", type=float, default=None)
    pd.add_argument("--q", type=_parse_float_list, default=None)
    pd.add_argument("--delta", type=_parse_float_list, default=None)
    pd.add_argument("--h", type=_parse_float_list, default=None)
    _add_common(pd)

    pc = sub.add_parser("cm-check", help="shift-versus-reweighting Monte Carlo check")
    pc.add_argument("--poly", default=None, help="polynomial in x1..xn, e.g. 'x1^2'")
    pc.add_argument("--direction", action="append", default=None,
                    help="density values for each functional direction (repeatable)")
    pc.add_argument("--shift", default=None, help="density values of the shift direction")
    _add_common(pc)
    return parser


def _quad_opts(args):
    return dict(
        atol=_merge(args, "atol", quad.DEFAULT_ATOL, float),
        rtol=_merge(args, "rtol", quad.DEFAULT_RTOL, float),
        budget=_merge(args, "budget", quad.DEFAULT_BUDGET, int),
    )


def _out_dir(args) -> Path:
    out = _merge(args, "out", None, str) or os.environ.get(ENV_OUT, "wienerlab-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args, stem: str, rows, markdown: str) -> list:
    fmt = _merge(args, "format", "both", str)
    outdir = _out_dir(args)
    written = []
    if fmt in ("csv", "both"):
        p = outdir / f"{stem}.csv"
        p.write_text(rows_to_csv(rows), encoding="utf-8")
        written.append(p)
    if fmt in ("md", "both"):
        p = outdir / f"{stem}.md"
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


def _run_report(args, name: str, params: dict, expected: dict, stem: str) -> int:
    p = _merge(args, "p", 2.0, float)
    deltas = _merge(args, "delta", (0.1, 0.5), _parse_float_list)
    h_list = _merge(args, "h", (1.0, -1.0), _parse_float_list)
    eps_spec = _merge(args, "eps_grid", None, str)
    grid = _parse_eps_grid(eps_spec) if eps_spec else EpsilonGrid.default()
    extra_qs = _merge(args, "q", (), _parse_float_list)

    try:
        f = catalog_build(name, **params)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = membership_report(f, p, deltas=deltas, h_list=h_list, grid=grid,
                               extra_qs=extra_qs, **_quad_opts(args))
    rows = report_evidence_rows(report)
    written = _emit(args, stem, rows, report_to_markdown(report))
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


def cmd_reproduce_thm31(args) -> int:
    a = _merge(args, "a", 2.0, float)
    expected = {"in_base": Flag.YES, "ssgd_pp": Flag.NO, "in_plus": Flag.NO}
    return _run_report(args, "thm31", {"a": a}, expected, "thm31-report")


def cmd_reproduce_thm33(args) -> int:
    eta = _merge(args, "eta", 1e-4, float)
    mu = _merge(args, "mu", 2e-4, float)
    expected = {"in_base": Flag.YES, "ssgd_pp": Flag.YES, "in_plus": Flag.NO}
    return _run_report(args, "thm33", {"eta": eta, "mu": mu}, expected, "thm33-report")


def cmd_diagnose(args) -> int:
    name = _merge(args, "functional", None, str)
    if not name:
        print("error: --functional is required", file=sys.stderr)
        return EXIT_USAGE
    params = {}
    if name == "thm31":
        params["a"] = _merge(args, "a", 2.0, float)
    elif name == "thm33":
        params["eta"] = _merge(args, "eta", 1e-4, float)
        params["mu"] = _merge(args, "mu", 2e-4, float)
    elif name != "linear":
        print(f"error: unknown functional {name!r} (known: linear, thm31, thm33)",
              file=sys.stderr)
        return EXIT_USAGE
    return _run_report(args, name, params, {}, f"{name}-diagnose")


def cmd_cm_check(args) -> int:
    poly_spec = _merge(args, "poly", "x1^2", str)
    dir_specs = getattr(args, "direction", None) or \
        ([args._config["direction"]] if "direction" in args._config else ["1.0"])
    poly = _parse_poly(poly_spec)
    directions = [_parse_direction(s) for s in dir_specs]
    if len(directions) < poly.n_vars:
        print(f"error: polynomial uses x1..x{poly.n_vars} but only "
              f"{len(directions)} direction(s) given", file=sys.stderr)
        return EXIT_USAGE
    shift_spec = _merge(args, "shift", None, str)
    shift = _parse_direction(shift_spec) if shift_spec else directions[0]
    n = _merge(args, "n_samples", 10**6, int)
    seed = _merge(args, "seed", 20_260_810, int)

    Z = CylindricalFunctional(directions[:poly.n_vars], poly)
    res = cameron_martin_check(Z, shift, n, seed)
    rows = [
        LqRow("cm_lhs_shifted_mean", None, None,
              IntegralVerdict(Verdict.CONVERGED, value=res.lhs, abs_error=res.se_lhs)),
        LqRow("cm_rhs_reweighted_mean", None, None,
              IntegralVerdict(Verdict.CONVERGED, value=res.rhs, abs_error=res.se_rhs)),
    ]
    md = "\n".join([
        "# Shift-versus-reweighting check",
        "",
        f"polynomial: `{poly_spec}`; shift norm: {cm_norm(shift):.6g}; "
        f"samples: {n}; seed: {seed}",
        "",
        f"lhs (mean of shifted Z): {res.lhs:.8g} +- {res.se_lhs:.3g} (1 se)",
        f"rhs (reweighted mean):   {res.rhs:.8g} +- {res.se_rhs:.3g} (1 se)",
        f"gap {res.gap:.3g} vs 3(se_lhs + se_rhs) = {3 * (res.se_lhs + res.se_rhs):.3g}"
        f" -> {'consistent' if res.within_3se else 'INCONSISTENT'}",
        "",
    ])
    written = _emit(args, "cm-check", rows, md)
    print(f"lhs={res.lhs:.8g} (se {res.se_lhs:.3g})  rhs={res.rhs:.8g} (se {res.se_rhs:.3g})"
          f"  within 3 SE: {res.within_3se}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK if res.within_3se else EXIT_CONTRADICTION


_COMMANDS = {
    "reproduce-thm31": cmd_reproduce_thm31,
    "reproduce-thm33": cmd_reproduce_thm33,
    "diagnose": cmd_diagnose,
    "cm-check": cmd_cm_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._config = _load_config(args.config) if args.config else {}
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
