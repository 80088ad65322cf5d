"""Tests of the benchmark's own parts: the independent checks, the workload
generator and the tracer.

Each check must accept the program's current output and reject a value moved
by more than its bound; the references must agree with a second,
differently computed reference.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

import math

import mpmath as mp
import pytest
import sympy as sp

import checks
import tracer as tracing
import workloads
from wienerlab import cli


def _run_csv(tmp_path, argv):
    code = cli.main(list(argv) + ["--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    stem = argv[0] if argv[0] == "cm-check" else argv[0].replace("reproduce-", "") + "-report"
    return checks.parse_csv((tmp_path / f"{stem}.csv").read_text(encoding="utf-8"))


def _moved(rows, quantity, q, value):
    out = [dict(r) for r in rows]
    for r in out:
        if r["quantity"] == quantity and (q is None or r["q"] == q):
            r["value"] = value
    return out


def _row(rows, quantity, q):
    return next(r for r in rows if r["quantity"] == quantity and r["q"] == q)


# ---------------------------------------------------------------------------
# thm31
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def thm31_case(tmp_path_factory):
    params = {"a": 6.0, "h": (1.0,)}
    rows = _run_csv(tmp_path_factory.mktemp("thm31"),
                    ["reproduce-thm31", "--a", "6.0", "--h=1.0"])
    return params, rows, checks.thm31_refs(params["a"])


def test_thm31_accepts_current_output(thm31_case):
    params, rows, refs = thm31_case
    assert checks.check_thm31(params, rows, refs) == []


@pytest.mark.parametrize("quantity", ["abs_moment", "deriv_moment"])
def test_thm31_rejects_value_moved_past_abs_error(thm31_case, quantity):
    params, rows, refs = thm31_case
    err = _row(rows, quantity, 2.0)["abs_error"]
    inside = _moved(rows, quantity, 2.0, float(refs[quantity]) + 0.5 * err)
    outside = _moved(rows, quantity, 2.0, float(refs[quantity]) + 1.5 * err)
    assert checks.check_thm31(params, inside, refs) == []
    assert len(checks.check_thm31(params, outside, refs)) == 1


def test_thm31_closed_forms_match_quadrature():
    a = mp.mpf(2.3)
    x0 = mp.sqrt(2 * a)
    refs = checks.thm31_refs(a)
    # the right piece, integrated numerically instead of in closed form
    right_value = mp.quad(lambda x: x ** (-2 * a), [x0, mp.inf])
    right_deriv = mp.quad(lambda x: x ** (-2 * a - 2) * (x * x / 2 - a) ** 2, [x0, mp.inf])
    v = (2 * mp.pi) ** 0.25 * mp.exp(a / 2) * x0 ** (-a)   # f(x0); f'(x0) = 0
    left_value = v ** 2 * mp.ncdf(x0)
    assert abs(refs["abs_moment"] - (left_value + right_value)) < mp.mpf(10) ** -20
    assert abs(refs["deriv_moment"] - right_deriv) < mp.mpf(10) ** -20


# ---------------------------------------------------------------------------
# thm33
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def thm33_case(tmp_path_factory):
    params = {"eta": 1e-5, "mu": 3e-5, "h": (1.0,)}
    rows = _run_csv(tmp_path_factory.mktemp("thm33"),
                    ["reproduce-thm33", "--eta", "1e-5", "--mu", "3e-5", "--h=1.0"])
    return params, rows, checks.thm33_refs(params["eta"], params["mu"])


def test_thm33_accepts_current_output(thm33_case):
    params, rows, refs = thm33_case
    assert checks.check_thm33(params, rows, refs) == []


@pytest.mark.parametrize("quantity,q", [("deriv_moment", 2.0), ("abs_moment", 2.0),
                                        ("bertrand_majorant", 6.0)])
def test_thm33_rejects_value_moved_past_abs_error(thm33_case, quantity, q):
    params, rows, refs = thm33_case
    ref = refs["bertrand"][q] if quantity == "bertrand_majorant" else refs[quantity]
    err = _row(rows, quantity, q)["abs_error"]
    inside = _moved(rows, quantity, q, float(ref) - 0.5 * err)
    outside = _moved(rows, quantity, q, float(ref) - 1.5 * err)
    assert checks.check_thm33(params, inside, refs) == []
    assert len(checks.check_thm33(params, outside, refs)) == 1


def test_thm33_substituted_cusp_matches_x_space_quadrature():
    mu = mp.mpf(3e-5)
    refs = checks.thm33_refs(1e-5, 3e-5)
    lm = mp.log(mu)
    tail = refs["abs_moment"] - mp.quad(
        lambda u: mp.exp(-2 * u) * u ** -6 * checks._phi(mp.exp(-u)), [-lm, mp.inf])
    direct = mp.quad(lambda x: x / mp.log(x) ** 6 * checks._phi(x), [0, mu])
    assert abs(refs["abs_moment"] - (direct + tail)) < mp.mpf(10) ** -25
    # Bertrand majorant: F(x) = (-log x)^(1-i) / (i-1) is an antiderivative of
    # 1 / (x |log x|^i) on (0, 1) and vanishes at 0+, so the integral is F(mu)
    x = sp.symbols("x", positive=True)
    for i in range(5, 9):
        F = (-sp.log(x)) ** (1 - i) / (i - 1)
        assert sp.simplify(sp.diff(F, x) - 1 / (x * (-sp.log(x)) ** i)) == 0
        assert sp.limit(F, x, 0, "+") == 0
        assert abs(F.subs(x, sp.Float(3e-5, 30)) - refs["bertrand"][float(i)]) < 1e-25


# ---------------------------------------------------------------------------
# verdicts from the tails
# ---------------------------------------------------------------------------

def _flipped(rows, quantity, q, verdict, eps=None):
    out = [dict(r) for r in rows]
    row = next(r for r in out if r["quantity"] == quantity and r["q"] == q
               and (eps is None or r["epsilon"] == eps))
    row["verdict"] = verdict
    return out


def test_verdicts_accept_current_output(thm31_case, thm33_case):
    for workload, (_, rows, _) in (("thm31-report", thm31_case), ("thm33-report", thm33_case)):
        errors, _ = checks.check_verdicts(workload, rows)
        assert errors == []


@pytest.mark.parametrize("quantity,q,verdict", [("abs_moment", 2.1, "converged"),
                                                ("deriv_moment", 2.5, "converged"),
                                                ("diffquot_norm[h=1]", 1.5, "diverged"),
                                                ("dvp_below[h=1]", 2.0, "inconclusive")])
def test_thm31_verdicts_reject_a_flip(thm31_case, quantity, q, verdict):
    _, rows, _ = thm31_case
    errors, _ = checks.check_verdicts("thm31-report", _flipped(rows, quantity, q, verdict))
    assert len(errors) == 1


@pytest.mark.parametrize("quantity,q,verdict", [("abs_moment", 2.5, "diverged"),
                                                ("deriv_moment", 2.1, "converged"),
                                                ("dvp_above[h=1]", 2.0, "diverged"),
                                                ("diffquot_residual[h=1]", 2.0, "diverged")])
def test_thm33_verdicts_reject_a_flip(thm33_case, quantity, q, verdict):
    _, rows, _ = thm33_case
    errors, _ = checks.check_verdicts("thm33-report", _flipped(rows, quantity, q, verdict))
    assert len(errors) == 1


def test_thm31_squared_quotient_rows_are_counted_not_failed(thm31_case):
    _, rows, _ = thm31_case
    _, before = checks.check_verdicts("thm31-report", rows)
    # the eps = 1/2 row diverges in today's output, as its tail e^(x/2) x^-12 says
    row = _row(rows, "dvp_above[h=1]", 2.0)
    assert row["epsilon"] == 0.5 and row["verdict"] == "diverged"
    errors, after = checks.check_verdicts(
        "thm31-report", _flipped(rows, "dvp_above[h=1]", 2.0, "converged", eps=0.5))
    assert errors == []
    assert after["false_converged"] == before["false_converged"] + 1


def test_expected_verdicts_follow_the_tails():
    def verdict(workload, quantity, q):
        return checks.expected_verdict(workload, {"quantity": quantity, "q": q})

    assert verdict("thm31-report", "dvp_above[h=0.5]", 2.0) == "diverged"
    assert verdict("thm31-report", "dvp_above[h=-1]", 2.0) == "converged"
    assert verdict("thm31-report", "diffquot_residual[h=-1]", 2.0) == "converged"
    assert verdict("thm31-report", "diffquot_norm[h=1]", 1.5) == "converged"
    assert verdict("thm33-report", "abs_moment", 2.5) == "converged"
    assert verdict("thm33-report", "dvp_total[h=1]", 2.0) is None


def test_thm31_quotient_tail_grows_for_positive_h():
    """|X_eps|^2 phi from the closed form of f above sqrt(2a): e^(eps h x) x^(-2a)
    up to bounded factors for h > 0, x^(-2a) / eps^2 for h < 0."""
    a, eps = mp.mpf(6), mp.mpf(1) / 16
    c = (2 * mp.pi) ** mp.mpf(0.25)

    def f(x):
        return c * mp.exp(x * x / 4) * x ** -a

    def log_weighted(x, h):
        return mp.log(((f(x + eps * h) - f(x)) / eps) ** 2 * checks._phi(x))

    for x in (mp.mpf(400), mp.mpf(2000)):
        assert abs(log_weighted(x, 1) - (eps * x - 2 * a * mp.log(x) - 2 * mp.log(eps))) < 1
        assert abs(log_weighted(x, -1) - (-2 * a * mp.log(x) - 2 * mp.log(eps))) < 1e-3
    assert log_weighted(mp.mpf(2000), 1) > 0     # e^(x/16) has overtaken x^-12


# ---------------------------------------------------------------------------
# cm-check
# ---------------------------------------------------------------------------

CM_PARAMS = {"terms": {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 0.25},
             "directions": ((1.0,), (0.5, -1.0)), "shift": (0.3, 0.1)}


@pytest.fixture(scope="module")
def cm_case(tmp_path_factory):
    rows = _run_csv(tmp_path_factory.mktemp("cm"),
                    ["cm-check", "--poly=x1^2 - 0.5*x1*x2 + 0.25", "--direction=1.0",
                     "--direction=0.5,-1.0", "--shift=0.3,0.1", "--n-samples", "200000",
                     "--seed", "7"])
    return rows, checks.cm_exact(CM_PARAMS)


def test_cm_accepts_current_output(cm_case):
    rows, exact = cm_case
    assert checks.check_cm(CM_PARAMS, rows, exact) == []


@pytest.mark.parametrize("name", ["cm_lhs_shifted_mean", "cm_rhs_reweighted_mean"])
def test_cm_rejects_mean_moved_past_limit(cm_case, name):
    rows, exact = cm_case
    se = next(r["abs_error"] for r in rows if r["quantity"] == name)
    inside = _moved(rows, name, None, exact + (checks.CM_SE_LIMIT - 0.5) * se)
    outside = _moved(rows, name, None, exact + (checks.CM_SE_LIMIT + 0.5) * se)
    assert checks.check_cm(CM_PARAMS, inside, exact) == []
    assert len(checks.check_cm(CM_PARAMS, outside, exact)) == 1


def test_cm_inner_exact_hand_cases():
    assert checks.cm_inner_exact((1.0,), (1.0, -1.0)) == 0
    assert checks.cm_inner_exact((1.0, 2.0), (3.0,)) == sp.Rational(9, 2)
    assert checks.cm_inner_exact((1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0)) == 0


def test_gaussian_moments_match_integration_1d():
    x = sp.symbols("x", real=True)
    var, s = sp.Rational(3, 4), sp.Rational(1, 3)
    terms = {(3,): 1.0, (1,): -2.0, (0,): 0.5}
    p = (x + s) ** 3 - 2 * (x + s) + sp.Rational(1, 2)
    brute = sp.integrate(p * sp.exp(-x ** 2 / (2 * var)) / sp.sqrt(2 * sp.pi * var),
                         (x, -sp.oo, sp.oo))
    assert sp.simplify(checks.gaussian_poly_mean(terms, [[var]], [s]) - brute) == 0


def test_gaussian_moments_match_integration_2d():
    z1, z2 = sp.symbols("z1 z2", real=True)
    cov = [[1, sp.Rational(1, 2)], [sp.Rational(1, 2), 2]]
    shift = [sp.Rational(1, 5), -sp.Rational(1, 2)]
    terms = {(2, 1): 1.0, (0, 1): 1.0, (1, 0): -3.0}
    # X = L Z with L the Cholesky factor of cov, Z standard normal
    L = sp.Matrix(cov).cholesky()
    x1 = L[0, 0] * z1 + shift[0]
    x2 = L[1, 0] * z1 + L[1, 1] * z2 + shift[1]
    p = x1 ** 2 * x2 + x2 - 3 * x1
    density = sp.exp(-(z1 ** 2 + z2 ** 2) / 2) / (2 * sp.pi)
    brute = sp.integrate(sp.expand(p * density), (z1, -sp.oo, sp.oo), (z2, -sp.oo, sp.oo))
    assert sp.simplify(checks.gaussian_poly_mean(terms, cov, shift) - brute) == 0


# ---------------------------------------------------------------------------
# workloads and tracer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_a_function_of_the_seed(name):
    assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build(name, 3) != workloads.build(name, 4)


def test_workload_inputs_are_valid():
    for seed in range(20):
        for op in workloads.thm31_ops(seed):
            assert op.params["a"] > 1.5 and max(op.params["h"]) > 0.0
        for op in workloads.thm33_ops(seed):
            p = op.params
            assert 0.0 < p["eta"] < p["mu"] and p["mu"] + p["eta"] < math.exp(-8.0)


def _traced_counts(tmp_path):
    import wienerlab
    tr = tracing.Tracer(wienerlab)
    with tr.active():
        code = tr.span("cli.main", "cli", cli.main,
                       ["reproduce-thm31", "--a", "6.0", "--h=1.0", "--out", str(tmp_path)])
    assert code == 0
    return tr


def test_tracer_counts_repeat_and_spans_nest(tmp_path):
    import wienerlab
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert dict(first.counts).keys() == dict(second.counts).keys()
    for key in ("quadrature.verdicts", "quadrature.points", "functionals.points",
                "diagnostics.rows"):
        assert first.counts[key] == second.counts[key] > 0
    assert first.min_self_s >= 0.0
    for span_id, parent_id, _, start, end in first.spans:
        assert start <= end
        if parent_id is not None:
            parent = first.spans[parent_id]
            assert parent[3] <= start and end <= parent[4]
    # the wrappers are gone once the block ends
    assert not hasattr(wienerlab.diagnostics.membership_report, "__traced__")
    assert not hasattr(cli.membership_report, "__traced__")
