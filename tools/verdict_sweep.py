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

* CLI reports, run in this interpreter through wienerlab.cli.main: the 20
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
    r0 >= 0.9999 cancels).

It prints one line per family and writes the counts as JSON with --out.
tests/test_verdict_sweep.py runs the sweep and fails if any count exceeds
the one in the newest VERDICTS_*.json at the root of the repo.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402  (perfbench/checks.py)
from wienerlab import Family, cli, integrate_semi_infinite  # noqa: E402

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
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv + ["--out", str(out), "--format", "csv"])
            except Exception as exc:  # noqa: BLE001  (counted and reported, not raised)
                print(f"{family} {argv}: {exc!r}", file=sys.stderr)
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
# integrate_semi_infinite on closed forms
# ---------------------------------------------------------------------------

def _power_log_cases():
    for a in (3.0, 10.0, 100.0):
        for p in (0.9, 1.0, 1.003, 1.01, 1.05, 1.2, 1.5, 2.0, 3.0):
            for r in (2.0, 0.0, -1.0, -2.0, -4.0, -8.0):
                if p > 1.0:
                    k = mp.mpf(p) - 1
                    ref = k ** (r - 1) * mp.gammainc(1 - r, k * mp.log(a))
                else:
                    ref = 1 / mp.log(a) if p == 1.0 and r == 2.0 else None
                yield (lambda x, p=p, r=r: x ** -p * np.log(x) ** -r), a, ref is not None, ref


def _revival_cases():
    for alpha in (1e-2, 1e-3, 1e-4):
        yield (lambda u, alpha=alpha: u ** -6 * np.exp(alpha * u)), 1.0, False, None


def _power_tail_fit_cases():
    for a in (1e-12, 1e-9, 1e-6):
        yield (lambda x: np.exp(-x ** 5)), a, True, mp.gammainc(mp.mpf(1) / 5, mp.mpf(a) ** 5) / 5
    for a in (1e4, 1e5, 1e8):
        for p in (1.5, 2.0, 3.0):
            yield (lambda x, p=p: x ** -p), a, True, mp.mpf(a) ** (1 - p) / (p - 1)


CORPUS = {"power-log": _power_log_cases, "revival": _revival_cases,
          "power-tail-fit": _power_tail_fit_cases}


def sweep_corpus(counts: dict):
    for family, cases in CORPUS.items():
        c = counts.setdefault(family, _new_counts())
        for fn, a, converges, ref in cases():
            try:
                v = integrate_semi_infinite(Family.from_function(fn), a)
            except Exception as exc:  # noqa: BLE001  (counted and reported, not raised)
                print(f"{family} from a={a!r}: {exc!r}", file=sys.stderr)
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
