"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not deferred.
"""

import math
import time

import numpy as np
import pytest

from wienerlab import (CameronMartinDirection, CylindricalFunctional, EpsilonGrid, Family,
                       Flag, Polynomial, TimeGrid, bertrand_family,
                       cameron_martin_check, cm_inner, dvp_uniform_integrability_test,
                       eval_cylindrical, gaussian_expectation, integrate_semi_infinite,
                       integrate_singular_origin, lq_diffquot_norm, mc_difference_quotient,
                       membership_report, pairing_with_h, sample_path,
                       squared_quotient_floor_integrand, ssgd_test)
from wienerlab.diagnostics import LqRow, rows_to_csv, report_to_csv
from wienerlab.quadrature import IntegralVerdict, Verdict

UNIT = CameronMartinDirection.constant(1.0)


class _Stopwatch:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"\n{self.label} PASS ({elapsed:.2f}s, budget {self.budget:g}s)")
            assert elapsed < self.budget, f"{self.label} exceeded runtime budget"
        else:
            print(f"\n{self.label} FAIL ({elapsed:.2f}s)")
        return False


def test_a1_quadrature_exactness():
    with _Stopwatch("A1 quadrature exactness", 1.0):
        v2 = gaussian_expectation(Family.from_function(lambda x: x * x),
                                  atol=1e-12, rtol=1e-11)
        assert v2.converged and abs(v2.value - 1.0) < 1e-10
        v4 = gaussian_expectation(Family.from_function(lambda x: x ** 4),
                                  atol=1e-12, rtol=1e-11)
        assert v4.converged and abs(v4.value - 3.0) < 1e-10
        vq = integrate_semi_infinite(Family.from_function(lambda x: x ** -4.0), 2.0,
                                     atol=1e-12, rtol=1e-10)
        assert vq.converged and abs(vq.value - 1.0 / 24.0) < 1e-9
        vb = integrate_singular_origin(bertrand_family((6.0,)), math.exp(-10.0),
                                       atol=1e-18, rtol=1e-11)
        assert vb.converged and abs(vb.value - 2e-6) < 1e-9 * 2e-6


def test_a2_tail_growth_order2_seminorms(f31):
    with _Stopwatch("A2 order-2 seminorms finite for the tail-growth example", 5.0):
        from wienerlab import sobolev_seminorm
        val, der = sobolev_seminorm(f31, 2.0)
        assert val.converged
        assert der.converged


def test_a3_squared_quotients_not_integrable(f31, grid):
    with _Stopwatch("A3 squared quotients diverge at every eps", 30.0):
        for eps in grid.values:
            v = lq_diffquot_norm(f31, 2.0, eps, 1.0)
            assert v.diverged, f"eps={eps}: expected Diverged, got {v.status}"
            floor = integrate_semi_infinite(squared_quotient_floor_integrand(2.0, eps),
                                            math.sqrt(4.0), atol=1e-10, rtol=1e-8)
            assert floor.diverged, f"eps={eps}: floor integrand not Diverged"


def test_a4_bounded_below_order2(f31, grid):
    with _Stopwatch("A4 bounded L^1.5 quotient norms and residual decay", 30.0):
        vals = []
        for eps in grid.values:
            v = lq_diffquot_norm(f31, 1.5, eps, 1.0)
            assert v.converged
            vals.append(v.value)
        assert math.isfinite(max(vals))
        res = ssgd_test(f31, 2.0, 1.5, 1.0, grid)
        assert res.verdict == Flag.YES
        assert res.final_residual < 1e-3


def test_a5_cusp_exactly_order2(f33):
    with _Stopwatch("A5 cusp example: order 2 finite, any higher order divergent", 10.0):
        from wienerlab import sobolev_seminorm
        val2, der2 = sobolev_seminorm(f33, 2.0)
        assert val2.converged and der2.converged
        for p in (2.1, 2.5):
            _, der = sobolev_seminorm(f33, p)
            assert der.diverged, f"p={p}: expected Diverged derivative moment"


def test_a6_uniform_integrability_window(f33, grid):
    with _Stopwatch("A6 psi-test uniform integrability on the shift window", 60.0):
        for h in (1.0, -1.0):
            res = dvp_uniform_integrability_test(f33, h, grid)
            assert res.verdict == Flag.YES, f"h={h}: {res.verdict}"
            for label in ("dvp_below", "dvp_inside", "dvp_above"):
                rows = [r for r in res.table if r.quantity == label]
                assert rows, f"missing piece {label}"
                assert all(r.verdict.converged for r in rows)
            assert len(res.bertrand_rows) == 4
            assert all(r.verdict.converged and math.isfinite(r.value)
                       for r in res.bertrand_rows)


def test_a7_cameron_martin_formula():
    with _Stopwatch("A7 shift-versus-reweighting identity at N=1e6", 10.0):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
        assert cm_inner(UNIT, UNIT) == 1.0
        res = cameron_martin_check(Z, UNIT, 10**6, seed=20260810)
        assert res.gap <= 3.0 * (res.se_lhs + res.se_rhs)
        assert abs(res.lhs - 2.0) <= 3.0 * res.se_lhs
        assert abs(res.rhs - 2.0) <= 3.0 * res.se_rhs


def test_a8_cylindrical_exactness(grid):
    with _Stopwatch("A8 pathwise quotient identity at rounding scale", 1.0):
        g = TimeGrid.uniform(4)
        hp = CameronMartinDirection(g, np.array([1.0, -0.5, 2.0, 0.25]))
        Z = CylindricalFunctional([hp], Polynomial.variable(0, 1) ** 2)
        ip = cm_inner(hp, UNIT)
        eps_mach = float(np.finfo(float).eps)
        from wienerlab import shift_path
        for seed in range(100):
            omega = sample_path(g, seed=seed)
            z0 = eval_cylindrical(Z, omega)
            pair = pairing_with_h(Z, UNIT, omega)
            for eps in grid.values:
                z1 = eval_cylindrical(Z, shift_path(omega, UNIT, eps))
                lhs = mc_difference_quotient(Z, UNIT, eps, omega) - pair
                # rounding scale of the quantities actually formed
                tol = 16 * eps_mach * ((abs(z0) + abs(z1)) / eps + abs(pair) + 1.0)
                assert abs(lhs - eps * ip * ip) <= tol


def test_a9_verdict_chain_and_separations(f31, f33, flin):
    with _Stopwatch("A9 membership chain on the catalog", 120.0):
        reports = {
            "linear": membership_report(flin, 2.0, deltas=(0.1, 0.5), h_list=(1.0,)),
            "thm31": membership_report(f31, 2.0, deltas=(0.1, 0.5), h_list=(1.0,)),
            "thm33": membership_report(f33, 2.0, deltas=(0.1, 0.5), h_list=(1.0, -1.0)),
        }
        for name, rep in reports.items():
            assert rep.consistent, f"{name}: chain violated: {rep.chain_violations}"
            flags = rep.flags
            if flags["in_plus"] == Flag.YES:
                assert flags["ssgd_pp"] == Flag.YES
            if flags["ssgd_pp"] == Flag.YES:
                assert flags["in_base"] == Flag.YES
        # joint witnesses of both strict inclusions
        assert reports["thm31"].flags["in_base"] == Flag.YES
        assert reports["thm31"].flags["ssgd_pp"] == Flag.NO
        assert reports["thm33"].flags["ssgd_pp"] == Flag.YES
        assert reports["thm33"].flags["in_plus"] == Flag.NO
        assert reports["linear"].flags == {"in_base": Flag.YES, "ssgd_pp": Flag.YES,
                                           "in_plus": Flag.YES}
        test_a9_verdict_chain_and_separations.reports = reports


def _a1_rows():
    rows = []
    v2 = gaussian_expectation(Family.from_function(lambda x: x * x),
                              atol=1e-12, rtol=1e-11)
    rows.append(LqRow("moment_x2", 2.0, None, v2))
    vb = integrate_singular_origin(bertrand_family((6.0,)), math.exp(-10.0),
                                   atol=1e-18, rtol=1e-11)
    rows.append(LqRow("bertrand6", 6.0, None, vb))
    return rows


def _a3_rows(f31, grid):
    return [LqRow("diffquot_norm", 2.0, eps, lq_diffquot_norm(f31, 2.0, eps, 1.0))
            for eps in grid.values]


def _a7_rows():
    Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
    res = cameron_martin_check(Z, UNIT, 10**5, seed=20260810)
    mk = lambda v, se: IntegralVerdict(Verdict.CONVERGED, value=v, abs_error=se)
    return [LqRow("cm_lhs", None, None, mk(res.lhs, res.se_lhs)),
            LqRow("cm_rhs", None, None, mk(res.rhs, res.se_rhs))]


def test_a10_determinism(f31, f33, flin, grid):
    with _Stopwatch("A10 byte-identical evidence under repetition", 120.0):
        assert rows_to_csv(_a1_rows()).encode() == rows_to_csv(_a1_rows()).encode()
        assert rows_to_csv(_a3_rows(f31, grid)).encode() == \
            rows_to_csv(_a3_rows(f31, grid)).encode()
        assert rows_to_csv(_a7_rows()).encode() == rows_to_csv(_a7_rows()).encode()
        rep_a = membership_report(f33, 2.0, deltas=(0.1,), h_list=(1.0,))
        rep_b = membership_report(f33, 2.0, deltas=(0.1,), h_list=(1.0,))
        assert report_to_csv(rep_a).encode() == report_to_csv(rep_b).encode()
