"""Score wienerlab's verdicts against references computed apart from wienerlab.

    python tools/verdict_sweep.py [--out VERDICTS_N.json]

Runs a fixed corpus and counts, per family, the certificates that are wrong
or missing:

  false_converged    Converged where the integral diverges
  false_diverged     Diverged where it converges
  inconclusive       Inconclusive where a certificate is expected
  outside_abs_error  Converged, with the reference value outside abs_error
  raised             an exception instead of a verdict
  nonzero_exit       a CLI report that exits other than 0

The corpus:

* CLI reports, run in this interpreter through wienerlab.cli.main
  (compare_outputs.run_op): the 20
  thm31 reports of AS_31 x H_31, the 32 thm33 reports of the (mu, eta) grid
  with mu + eta <= e^-8, and `diagnose --functional linear` at P_LINEAR.
  Each row is scored with perfbench/checks.py (expected_verdict, and the
  reference seminorms and Bertrand majorants of thm31_refs and thm33_refs),
  read and not changed.  thm31's squared-quotient rows, which checks.py
  tallies instead of failing, form their own family.  Every linear row
  converges; its moments are E|W|^q and E|1|^q = 1.
* integrate_semi_infinite on closed forms:
  - power-log: x^-p (log x)^-r from a, which converges iff p > 1, or p = 1
    and r > 1; for p > 1 it is (p-1)^(r-1) Gamma(1-r, (p-1) log a);
  - revival: u^-6 e^(alpha u) from 1, which diverges for every alpha > 0;
  - power-tail-fit: e^(-x^5) from a, Gamma(1/5, a^5) / 5, and x^-p from
    a >= 1e4, a^(1-p) / (p-1).  Both end in _fit_power_tail's held-out
    prediction outside the range its model guards (r0 <= 1e-3 overflows,
    r0 >= 0.9999 cancels);
  - thm31-tail: exp((q/4 - 1/2) x^2) x^(-qa) from sqrt(2a), the tail of
    thm31's E|f|^q, as (sign, log) pairs.  It converges iff q <= 2: with
    c = 1/2 - q/4 it is c^((qa-1)/2) Gamma((1-qa)/2, 2ac) / 2 for q < 2,
    and (2a)^((1-2a)/2) / (2a-1) for q = 2.
* integrate_singular_origin on bertrand_family: 1/(x |log x|^i) on
  (0, mu), which converges iff i > 1, to |log mu|^(1-i) / (i-1).
* gaussian_expectation with singular point 0 (singular-moment): E|W|^(-1/2)
  = 2^(-1/4) Gamma(1/4) / sqrt(pi), and E|W|^-1, which diverges.
* integrate_semi_infinite on random-tail: a fixed draw (seed 7) of 200
  tails e^(kappa x^2 + beta x) x^-p (log x)^-r from 3, as (sign, log) pairs,
  with kappa in {0} u +-[1e-3, 0.1], beta in {0} u +-[1e-4, 0.1], p in
  [0.5, 4] and r in {0} u [-2.5, 2.5].  A tail converges iff kappa < 0, or
  kappa = 0 and beta < 0, or kappa = beta = 0 and p > 1 (p = 1 needs r > 1).
  Only the verdict is scored; there is no reference value.

It prints one line per family and writes the counts as JSON with --out.
tests/test_verdict_sweep.py runs the sweep and fails on what regressions
finds against the newest VERDICTS_*.json at the root of the repo: a count
above its record, or a recorded family missing or with other cases.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np

from compare_outputs import ROOT, run_op

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (perfbench/checks.py, on the path compare_outputs sets)
from wienerlab import (Family, bertrand_family, cli, gaussian_expectation,  # noqa: E402
                       integrate_semi_infinite, integrate_singular_origin)

WRONG = ("false_converged", "false_diverged", "inconclusive", "outside_abs_error", "raised",
         "nonzero_exit")
AS_31 = (1.6, 1.75, 2.0, 2.45, 3.25, 3.9, 5.0, 6.0, 7.0, 8.0)
H_31 = ("1,-1", "0.5,-0.5")
MUS_33 = (2e-5, 5e-5, 1e-4, 2e-4, 3e-4)
ETA_RATIOS_33 = (0.05, 0.3, 0.6, 0.9)
H_33 = ("1,-1", "0.3,-2.5")
P_LINEAR = (2.0, 10.0, 20.0, 25.0, 25.5, 30.0, 40.0)


def _score(counts: dict, status: str, converges: bool, value=None, abs_error=None, ref=None):
    """Add one verdict to counts, given whether its integral converges."""
    counts["cases"] += 1
    if status == "inconclusive":
        counts["inconclusive"] += 1
    elif status == "converged" and not converges:
        counts["false_converged"] += 1
    elif status == "diverged" and converges:
        counts["false_diverged"] += 1
    elif status == "converged" and ref is not None and not abs(value - ref) <= abs_error:
        counts["outside_abs_error"] += 1


def _new_counts() -> dict:
    return dict.fromkeys(("cases", *WRONG), 0)


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _report_ops():
    """(family, argv, workload for checks.py, params) of every report."""
    for a in AS_31:
        for h in H_31:
            yield ("thm31-report", ["reproduce-thm31", "--a", str(a), f"--h={h}"],
                   "thm31-report", {"a": a})
    for mu in MUS_33:
        for ratio in ETA_RATIOS_33:
            eta = ratio * mu
            if mu + eta > math.exp(-8.0):
                continue
            for h in H_33:
                yield ("thm33-report", ["reproduce-thm33", "--eta", repr(eta), "--mu", repr(mu),
                                        f"--h={h}"], "thm33-report", {"eta": eta, "mu": mu})
    for p in P_LINEAR:
        yield ("diagnose-linear", ["diagnose", "--functional", "linear", "--p", str(p)],
               None, {})


def _row_reference(workload, refs: dict, row: dict):
    """The reference value of a report row, or None where there is none."""
    name, q = row["quantity"], row["q"]
    if workload is None:  # the linear functional f(x) = x, f' = 1
        if name == "abs_moment":
            return 2 ** (q / 2) * mp.gamma((q + 1) / 2) / mp.sqrt(mp.pi)
        return mp.mpf(1) if name == "deriv_moment" else None
    if name == "bertrand_majorant":
        return refs["bertrand"].get(q)
    return refs.get(name) if q == 2.0 and name in ("abs_moment", "deriv_moment") else None


def _score_report(counts: dict, family: str, workload, rows: list, refs: dict):
    for row in rows:
        if workload is None:
            want = None if row["quantity"].startswith("dvp_total") else "converged"
        else:
            want = checks.expected_verdict(workload, row)
        if want is None:
            continue
        fam = family
        if workload == "thm31-report" and checks.tallied(workload, row):
            fam = "thm31-squared-quotient"
        ref = _row_reference(workload, refs, row) if want == "converged" else None
        _score(counts[fam], row["verdict"], want == "converged", row["value"],
               row["abs_error"], ref)


def sweep_reports(counts: dict):
    refs_cache = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (family, argv, workload, params) in enumerate(_report_ops()):
            counts.setdefault(family, _new_counts())
            out = Path(tmp) / str(i)
            code, _, _ = run_op(cli, argv + ["--format", "csv"], out)
            if isinstance(code, str):  # the text of what main raised: counted and reported
                print(f"{family} {argv}: {code}", file=sys.stderr)
                counts[family]["raised"] += 1
                continue
            counts[family]["nonzero_exit"] += code != 0
            key = (workload, *params.values())
            if key not in refs_cache and workload:
                refs_cache[key] = checks.reference(workload, params)
            for path in out.glob("*.csv"):  # none after a usage error (exit 64)
                rows = checks.parse_csv(path.read_text(encoding="utf-8"))
                _score_report(counts, family, workload, rows, refs_cache.get(key, {}))


# ---------------------------------------------------------------------------
# integrals on closed forms: (verdict call, converges, reference) per case
# ---------------------------------------------------------------------------

def _semi_infinite(fn, a: float):
    return partial(integrate_semi_infinite, Family.from_function(fn), a)


def _power_log_cases():
    for a in (3.0, 10.0, 100.0):
        for p in (0.9, 1.0, 1.003, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0):
            for r in (2.0, 0.0, -1.0, -2.0, -4.0, -8.0):
                if p > 1.0:
                    k = mp.mpf(p) - 1
                    ref = k ** (r - 1) * mp.gammainc(1 - r, k * mp.log(a))
                else:
                    ref = 1 / mp.log(a) if p == 1.0 and r == 2.0 else None
                yield _semi_infinite(lambda x, p=p, r=r: x ** -p * np.log(x) ** -r, a), \
                    ref is not None, ref


def _revival_cases():
    for alpha in (1e-2, 1e-3, 1e-4):
        yield _semi_infinite(lambda u, alpha=alpha: u ** -6 * np.exp(alpha * u), 1.0), False, None


def _power_tail_fit_cases():
    for a in (1e-12, 1e-9, 1e-6):
        yield (_semi_infinite(lambda x: np.exp(-x ** 5), a), True,
               mp.gammainc(mp.mpf(1) / 5, mp.mpf(a) ** 5) / 5)
    for a in (1e4, 1e5, 1e8):
        for p in (1.5, 2.0, 3.0):
            yield _semi_infinite(lambda x, p=p: x ** -p, a), True, mp.mpf(a) ** (1 - p) / (p - 1)


def _thm31_tail_cases():
    for a in (1.6, 2.0, 3.25, 6.0, 7.0, 7.5, 8.0):
        for q in (1.5, 2.0, 2.1, 2.5, 3.0):
            fam = Family(lambda x, row=0, k=q / 4 - 0.5, e=q * a:
                         (np.ones_like(x), k * x * x - e * np.log(x), 0.0))
            qa, c = mp.mpf(q) * a, mp.mpf(1) / 2 - mp.mpf(q) / 4
            if q < 2.0:
                ref = c ** ((qa - 1) / 2) * mp.gammainc((1 - qa) / 2, 2 * a * c) / 2
            else:
                ref = mp.mpf(2 * a) ** ((1 - 2 * a) / 2) / (2 * a - 1) if q == 2.0 else None
            yield partial(integrate_semi_infinite, fam, math.sqrt(2.0 * a)), q <= 2.0, ref


def _bertrand_cases():
    for i in (0.9, 1.0, 1.1, 2.0):
        for mu in (math.exp(-10.0), math.exp(-2.0), 0.5):
            ref = abs(mp.log(mu)) ** (1 - mp.mpf(i)) / (i - 1) if i > 1.0 else None
            yield partial(integrate_singular_origin, bertrand_family((i,)), mu), i > 1.0, ref


def _singular_moment_cases():
    for s, ref in ((-0.5, mp.mpf(2) ** -0.25 * mp.gamma(0.25) / mp.sqrt(mp.pi)), (-1.0, None)):
        fam = Family.from_function(lambda x, s=s: np.abs(x) ** s, singular_points=(0.0,))
        yield partial(gaussian_expectation, fam), ref is not None, ref


def _random_tail_cases():
    """A fixed draw of 200 tails; kappa and beta are 0 or +-10^U over their ranges."""
    rng = np.random.default_rng(7)

    def rate(least: float) -> float:
        return rng.choice((0.0, -1.0, 1.0)) * 10.0 ** rng.uniform(math.log10(least), -1.0)

    for _ in range(200):
        kappa, beta, p = rate(1e-3), rate(1e-4), rng.uniform(0.5, 4.0)
        r = rng.choice((0.0, 1.0)) * rng.uniform(-2.5, 2.5)
        fam = Family(lambda x, row=0, k=kappa, b=beta, p=p, r=r: (
            np.ones_like(x), (k * x + b) * x - p * np.log(x) - r * np.log(np.log(x)), 0.0))
        converges = kappa < 0 or kappa == 0 and (
            beta < 0 or beta == 0 and (p > 1 or p == 1 and r > 1))
        yield partial(integrate_semi_infinite, fam, 3.0), converges, None


CORPUS = {"power-log": _power_log_cases, "revival": _revival_cases,
          "power-tail-fit": _power_tail_fit_cases, "thm31-tail": _thm31_tail_cases,
          "bertrand": _bertrand_cases, "singular-moment": _singular_moment_cases,
          "random-tail": _random_tail_cases}


def sweep_corpus(counts: dict):
    for family, cases in CORPUS.items():
        c = counts.setdefault(family, _new_counts())
        for call, converges, ref in cases():
            try:
                v = call()
            except Exception as exc:  # noqa: BLE001  (counted and reported, not raised)
                print(f"{family} {call.func.__name__}{call.args[1:]}: {exc!r}", file=sys.stderr)
                c["cases"] += 1
                c["raised"] += 1
                continue
            _score(c, v.status, converges, v.value, v.abs_error, ref)


def sweep() -> dict:
    """{family: {"cases": n, and each count of WRONG}}, the families in a fixed order."""
    counts = {"thm31-report": _new_counts(), "thm31-squared-quotient": _new_counts()}
    sweep_reports(counts)
    sweep_corpus(counts)
    return counts


def regressions(counts: dict, recorded: dict) -> list:
    """What counts ({family: {"cases": n, ...}}, as sweep gives them) loses
    against recorded (the "families" of a VERDICTS_*.json), one line each:
    a recorded family that is missing or has another number of cases, and a
    count of WRONG above its record (0 for a family not recorded).  A
    family cannot lower its counts by losing cases."""
    lost = [f"{family}: missing" for family in recorded if family not in counts]
    lost += [f"{family}.cases: {c['cases']} != {recorded[family]['cases']}"
             for family, c in counts.items()
             if family in recorded and c["cases"] != recorded[family]["cases"]]
    return lost + [f"{family}.{key}: {c[key]} > {recorded.get(family, {}).get(key, 0)}"
                   for family, c in counts.items() for key in WRONG
                   if c[key] > recorded.get(family, {}).get(key, 0)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write the counts to this JSON file")
    args = ap.parse_args(argv)
    counts = sweep()
    for family, c in counts.items():
        print(f"{family:24s} " + "  ".join(f"{k}={v}" for k, v in c.items()))
    if args.out:
        totals = {k: sum(c[k] for c in counts.values()) for k in ("cases", *WRONG)}
        args.out.write_text(json.dumps({"families": counts, "totals": totals}, indent=2) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
