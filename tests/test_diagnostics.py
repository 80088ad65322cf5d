import dataclasses
import itertools
import math
import tracemalloc

import compare_outputs
import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wienerlab import (CameronMartinDirection, CylindricalFunctional, EpsilonGrid, Flag,
                       Function1D, Polynomial, ScalarFunctional, TimeGrid,
                       cameron_martin_check, catalog_build, cm_inner,
                       dvp_uniform_integrability_test, lq_diffquot_norm, membership_report,
                       report_to_csv, report_to_markdown, rows_to_csv, sgd_probability_test,
                       smooth_completion_g, sobolev_seminorm, ssgd_test)
from wienerlab import diagnostics, quadrature as quad
from wienerlab.diagnostics import (LqRow, SsgdResult, _abs_pow_family, _dvp_pieces, _psi_log,
                                   _quotient_family, report_evidence_rows)
from wienerlab.slog import slog_sub

from wienerlab.wiener import (_BATCH, girsanov_log_weight_batch, merged_grid,
                              sample_increments, wiener_integral_batch)

UNIT = CameronMartinDirection.constant(1.0)


def diffquot_family(f, q, eps_values, c, centered):
    """|X_eps - centered * c f'|^q, one member per eps."""
    return _quotient_family(f, [(q, eps, c, centered) for eps in eps_values])


def psi_family(f, eps_values, c):
    """psi(|X_eps|^2) phi, the psi-test integrand with its Gaussian weight, one member per eps."""
    return quad.weighted(_quotient_family(f, [(None, eps, c, False) for eps in eps_values]))


def square_functional():
    return ScalarFunctional(name="square", breakpoints=(), pieces=(Function1D(
        value=lambda x: np.asarray(x, float) ** 2,
        deriv=lambda x: 2.0 * np.asarray(x, float)),))


def cubic_functional():
    return ScalarFunctional(name="cubic", breakpoints=(), pieces=(Function1D(
        value=lambda x: np.asarray(x, float) ** 3,
        deriv=lambda x: 3.0 * np.asarray(x, float) ** 2),))


class TestEpsilonGrid:
    def test_default(self, grid):
        assert grid.values == tuple(2.0 ** -k for k in range(1, 9))

    def test_krange(self):
        g = EpsilonGrid.from_krange(3, 5)
        assert g.values == (0.125, 0.0625, 0.03125)

    def test_cap_keeps_small_values(self, grid):
        capped = grid.capped(0.1)
        assert all(v < 0.1 for v in capped.values)
        assert capped.values[0] == 0.0625

    def test_cap_rescales_when_emptied(self, grid):
        capped = grid.capped(1e-4)
        assert len(capped.values) == 8
        assert capped.values[0] == 1e-4 / 2
        assert all(v < 1e-4 for v in capped.values)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            EpsilonGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            EpsilonGrid((1.5,))


class TestSobolevSeminorm:
    def test_linear_values(self, flin):
        val, der = sobolev_seminorm(flin, 2.0, atol=1e-12, rtol=1e-11)
        assert val.value == pytest.approx(1.0, abs=1e-10)
        assert der.value == pytest.approx(1.0, abs=1e-10)
        norm = (val.value + der.value) ** 0.5
        assert norm == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_tail_growth_is_order2(self, f31):
        val, der = sobolev_seminorm(f31, 2.0)
        assert val.converged and der.converged

    def test_cusp_not_beyond_order2(self, f33):
        val, der = sobolev_seminorm(f33, 2.1)
        assert val.converged
        assert der.diverged

    def test_rejects_p_at_most_1(self, flin):
        with pytest.raises(ValueError):
            sobolev_seminorm(flin, 1.0)


class TestLqQuotientNorm:
    def test_linear_centered_residual_vanishes(self, flin):
        for eps in (0.5, 2.0 ** -8):
            v = lq_diffquot_norm(flin, 2.0, eps, 1.0, centered=True)
            assert v.converged
            assert abs(v.value) <= 1e-10

    def test_tail_growth_square_not_integrable(self, f31):
        v = lq_diffquot_norm(f31, 2.0, 0.1, 1.0)
        assert v.diverged

    def test_tail_growth_bounded_below_order2(self, f31, grid):
        vals = []
        for eps in grid.values:
            v = lq_diffquot_norm(f31, 1.5, eps, 1.0)
            assert v.converged
            vals.append(v.value)
        assert max(vals) < math.inf
        assert max(vals) == pytest.approx(vals[0], rel=2.0)  # no blow-up across the grid

    def test_square_closed_form(self):
        # f(x) = x^2: X_eps - 2x = eps exactly, so the q-norm is eps^q... at
        # q = 1.5 the row equals eps^1.5
        sq = square_functional()
        for eps in (0.5, 0.125):
            v = lq_diffquot_norm(sq, 1.5, eps, 1.0, centered=True)
            assert v.value == pytest.approx(eps ** 1.5, rel=1e-8)

    def test_parameter_validation(self, flin):
        with pytest.raises(ValueError):
            lq_diffquot_norm(flin, 2.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            lq_diffquot_norm(flin, 0.0, 0.1, 1.0)


class TestSsgd:
    def test_square_rows_follow_closed_form(self, grid):
        res = ssgd_test(square_functional(), 2.0, 1.5, 1.0, grid)
        assert res.verdict == Flag.YES
        for row in res.table:
            assert row.value == pytest.approx(row.epsilon ** 1.5, rel=1e-7)

    def test_tail_growth_fails_at_order2(self, f31, grid):
        res = ssgd_test(f31, 2.0, 2.0, 1.0, grid)
        assert res.verdict == Flag.NO

    def test_tail_growth_passes_below_order2(self, f31, grid):
        res = ssgd_test(f31, 2.0, 1.5, 1.0, grid)
        assert res.verdict == Flag.YES
        assert res.final_residual < 1e-3

    def test_cusp_passes_at_order2_both_signs(self, f33, grid):
        for h in (1.0, -1.0):
            res = ssgd_test(f33, 2.0, 2.0, h, grid)
            assert res.verdict == Flag.YES
            # the grid must have been capped into the shift window
            assert all(r.epsilon < f33.window for r in res.table)

    def test_residual_decay_at_least_linear(self, grid):
        # log-log slope of the residual rows >= 0.9 for polynomial functionals
        for f in (square_functional(), cubic_functional()):
            res = ssgd_test(f, 2.0, 1.5, 1.0, grid)
            vals = np.array([r.value for r in res.table])
            eps = np.array([r.epsilon for r in res.table])
            slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
            assert slope >= 0.9

    @pytest.mark.parametrize("values, flag", [
        ((0.4, 0.2, 0.1, 0.05, 5e-4), Flag.YES),       # decreasing, final below TOL_SSGD
        ((0.4, 1e-3, 2e-3, 1e-3, 1e-3), Flag.NO),      # a plateau at TOL_SSGD
        ((0.4, 0.3, 0.2, 0.5, 0.4), Flag.NO),          # above it, not decreasing
        ((0.4, 0.3, 0.2, 0.1, 0.05), Flag.UNKNOWN),    # decreasing, not yet below
        ((0.4, 0.2, 1e-4, 2e-4, 5e-4), Flag.UNKNOWN),  # below, not decreasing
    ])
    def test_flag_rule_on_converged_rows(self, flin, grid, monkeypatch, values, flag):
        def jobs(f, parts, grid, atol, rtol, budget):
            (quantity, q, _, _), = parts
            table = tuple(LqRow(quantity, q, 2.0 ** -k,
                                quad.IntegralVerdict(quad.Verdict.CONVERGED, value=v,
                                                     abs_error=1e-12))
                          for k, v in enumerate(values, 1))
            return [([], lambda verdicts: table)]

        monkeypatch.setattr(diagnostics, "_quotient_jobs", jobs)
        res = ssgd_test(flin, 2.0, 2.0, 1.0, grid)
        assert res.verdict == flag
        assert res.final_residual == values[-1]

    def test_rejects_q_above_p(self, flin, grid):
        with pytest.raises(ValueError):
            ssgd_test(flin, 2.0, 2.5, 1.0, grid)


class TestDvp:
    def test_linear_constant_rows(self, flin, grid):
        # X_eps = h exactly, so E[psi(|X_eps|^2)] = psi(h^2) for every eps
        h = 2.0
        res = dvp_uniform_integrability_test(flin, h, grid)
        assert res.verdict == Flag.YES
        expected = h * h * abs(math.log(h * h))
        totals = [r.value for r in res.table if r.quantity == "dvp_total"]
        assert len(totals) == len(grid.values)
        for t in totals:
            assert t == pytest.approx(expected, rel=1e-7)
        for eps in grid.values:
            rows = [r for r in res.table if r.epsilon == eps]
            total = next(r for r in rows if r.quantity == "dvp_total")
            pieces = [r.verdict.abs_error for r in rows if r.quantity != "dvp_total"]
            assert total.verdict.abs_error == sum(pieces) > 0.0
        assert res.sup_value == pytest.approx(expected, rel=1e-7)

    def test_zero_direction_trivial(self, flin, grid):
        res = dvp_uniform_integrability_test(flin, 0.0, grid)
        assert res.verdict == Flag.YES
        assert res.sup_value == 0.0

    def test_cusp_uniformly_integrable_both_signs(self, f33, grid):
        for h in (1.0, -1.0):
            res = dvp_uniform_integrability_test(f33, h, grid)
            assert res.verdict == Flag.YES
            assert math.isfinite(res.sup_value)
            for label in ("dvp_below", "dvp_inside", "dvp_above"):
                rows = [r for r in res.table if r.quantity == label]
                assert rows and all(r.verdict.converged for r in rows)
            # Bertrand majorants finite for exponents 5..8, each as it is alone
            assert [r.q for r in res.bertrand_rows] == [5.0, 6.0, 7.0, 8.0]
            assert all(r.verdict.converged for r in res.bertrand_rows)
            assert [r.verdict for r in res.bertrand_rows] == [
                quad.integrate_singular_origin(quad.bertrand_family((r.q,)), f33.params["mu"])
                for r in res.bertrand_rows]

    def test_partial_past_the_magnitude_limit_ends_early(self):
        # the a = 3.9, h = 0.5 row at eps = 2^-8 grows like e^(eps h x) x^(-2a);
        # its segment [32770, 65539] refined for 99,105 of the row's 99,945
        # evaluations, although its first panels put the partial near 8e34.
        # The report decides this piece by its declared growth, so it runs
        # here on an undeclared copy of its family, with the report's budget
        f, eps, h = catalog_build("thm31", a=3.9), 2.0 ** -8, 0.5
        pieces = [(label, lo, hi) for label, lo, hi in _dvp_pieces(f, eps, h) if lo < hi]
        (_, lo, hi), = [piece for piece in pieces if piece[0] == "above"]
        fam = psi_family(f, (eps,), h)
        (v,) = quad.integrate_pieces(dataclasses.replace(fam, growth=None), [(0, lo, hi)],
                                     budget=quad.DEFAULT_BUDGET // len(pieces))
        assert v.diverged and v.evidence.reason == "magnitude_threshold"
        assert v.n_evals < 2_000
        rep = membership_report(f, 2.0, h_list=(0.5, 2.0))
        row = next(r for r in rep.dvp[0.5].table
                   if r.quantity == "dvp_above" and r.epsilon == eps)
        assert row.verdict.diverged and row.verdict.evidence.reason == "declared_growth"

    def test_tail_growth_not_uniformly_integrable(self, f31, grid):
        res = dvp_uniform_integrability_test(f31, 1.0, grid)
        assert res.verdict == Flag.NO

    @pytest.mark.parametrize("budget", [300, 600, 1000])
    def test_psi_pieces_share_the_budget(self, budget):
        # each of the 2-3 pieces of a psi row had the whole budget, so at
        # budget 300 a dvp_total row spent 765 evaluations
        rep = membership_report(catalog_build("thm33"), 2.0, h_list=(1.0, -1.0), budget=budget)
        rows = [r for res in rep.dvp.values() for r in res.table]
        assert rows and max(r.verdict.n_evals for r in rows) <= budget


class TestLockstep:
    """Every row of a family run in lockstep equals that row run alone."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        real = quad._gk_panels

        def counting(log_eval, a, b):
            calls.append(a.size)
            return real(log_eval, a, b)

        monkeypatch.setattr(quad, "_gk_panels", counting)
        return calls

    # integrand calls of the rows in lockstep, and of the rows one by one.
    # thm31 at 0.98 took (4, 18) before every row's right piece was decided by
    # its declared growth, and (1, 8) while the other pieces of those rows ran
    RESIDUAL_CALLS = {("thm31", 0.98): (0, 0), ("thm31", -0.98): (6, 28),
                      ("thm33", 1.0): (7, 54)}

    @pytest.mark.parametrize("name, params, h", [
        # (-inf, 0) reflected, finite pieces up to the shifted breakpoint,
        # then semi-infinite exhaustion
        ("thm31", {"a": 2.004}, 0.98),
        ("thm31", {"a": 2.004}, -0.98),
        # the piece (0, mu) goes by u = -log x
        ("thm33", {"eta": 1e-4, "mu": 2e-4}, 1.0),
    ])
    def test_residual_rows(self, grid, monkeypatch, name, params, h):
        f = catalog_build(name, **params)
        eps_values = grid.capped(f.window / abs(h) if f.window else None).values
        calls = self.count_calls(monkeypatch)
        fam = quad.weighted(diffquot_family(f, 2.0, eps_values, h, True))
        (family,) = quad._lockstep([quad._expectation_job(fam, range(len(eps_values)),
                                                          quad.DEFAULT_ATOL, quad.DEFAULT_RTOL,
                                                          quad.DEFAULT_BUDGET)])
        n_family = len(calls)
        alone = [lq_diffquot_norm(f, 2.0, eps, h, centered=True) for eps in eps_values]
        assert len(family) == len(eps_values) == 8
        for together, single in zip(family, alone):
            assert repr(together) == repr(single)
            assert together == single  # status, value, abs_error, n_evals, message, ...
        assert (n_family, len(calls) - n_family) == self.RESIDUAL_CALLS[name, h]
        if self.RESIDUAL_CALLS[name, h] == (0, 0):  # every row's line is declared Diverged
            assert all(v.evidence.reason == "declared_growth" and v.n_evals == 0
                       for v in family)

    @pytest.mark.parametrize("h", [1.0, -1.0])
    def test_thm33_psi_pieces(self, f33, grid, monkeypatch, h):
        # h > 0: the inside piece (0, mu) goes by u = -log x; h < 0: it is finite
        eps_values = grid.capped(f33.window / abs(h)).values
        pieces = [(row, lo, hi) for row, eps in enumerate(eps_values)
                  for _, lo, hi in _dvp_pieces(f33, eps, h) if lo < hi]
        assert len(pieces) == 24
        calls = self.count_calls(monkeypatch)
        family = quad.integrate_pieces(psi_family(f33, eps_values, h), pieces)
        n_family = len(calls)
        alone = [quad.integrate_pieces(psi_family(f33, (eps_values[row],), h), [(0, lo, hi)])[0]
                 for row, lo, hi in pieces]
        assert family == alone
        assert all(v.converged for v in family)
        assert 2 * n_family < len(calls) - n_family


class TestRoutes:
    def test_x_and_neglog_routes_agree(self, f33):
        # on (0, mu) every quotient family, the Bertrand family and their
        # weighted forms give the same bits at x and on the u = -log x route,
        # where the body gets x = e^-u and lx = -u, down to x = 1e-300
        x = np.geomspace(1e-300, 1.9e-4, 400)
        u = -np.log(x)
        eps_values = (2.0 ** -1, 2.0 ** -8, 2.0 ** -14)
        families = {"|f|^2": _abs_pow_family(f33, 2.0, False),
                    "|f'|^2.1": _abs_pow_family(f33, 2.1, True),
                    "bertrand": quad.bertrand_family((5.0, 8.0))}
        for c in (1.0, -1.0):
            for centered in (False, True):
                families[f"diffquot[c={c:g}, centered={centered}]"] = diffquot_family(
                    f33, 2.0, eps_values, c, centered)
            families[f"dvp[c={c:g}]"] = _quotient_family(
                f33, [(None, eps, c, False) for eps in eps_values])
        for name in list(families):
            families[f"weighted({name})"] = quad.weighted(families[name])
        with np.errstate(all="ignore"):
            for name, g in families.items():
                assert g.logx, name
                for row in range(len(g.breakpoints)):
                    for at_x, at_u in zip(g.log_eval(x, row), g.log_eval(np.exp(-u), row, -u)):
                        np.testing.assert_array_equal(at_x, at_u, err_msg=f"{name} row {row}")


def where_quotient_log(f, rows, x, row, lx):
    """log|g_row(x)| of _quotient_family(f, rows), formed as it was before the
    index subsets, in the fused form: f(x + eps c) and f(x) from two
    slog_parts calls, the shifted log moved to f(x)'s rate k as
    (k_xs - k) xs^2 + k (xs - x)(x + xs), the log of the unit eps subtracted,
    f', the centring and psi computed at every point and picked by np.where,
    and the member's quadratic part lead * k x^2 added last."""
    shift = np.array([eps * c for _, eps, c, _ in rows])
    log_eps = np.array([math.log(eps) for _, eps, _, _ in rows])
    centre = np.array([c if centered else 0.0 for _, _, c, centered in rows])
    log_centre = np.array([math.log(abs(c)) if c else 0.0 for c in centre])
    expo = np.array([np.nan if q is None else q for q, _, _, _ in rows])
    xs = x + 1.0 * shift[row]
    s1, l1, k1 = f.slog_parts(xs)
    s0, l0, k0 = f.slog_parts(x, lx)
    if np.any(k0) or np.any(k1):
        l1 = l1 + (k1 - k0) * xs * xs + k0 * (xs - x) * (x + xs)
    s, l = slog_sub(s1, l1, s0, l0)
    l = (l - math.log(1.0)) - log_eps[row]
    c = centre[row]
    if c.any():
        ds, dl, _ = f.slog_parts(x, lx, deriv=True)
        l = np.where(c != 0.0, slog_sub(s, l, np.sign(c) * ds, dl + log_centre[row])[1], l)
    psi = np.isnan(expo[row])
    out = np.where(psi, _psi_log(2.0 * l, 2.0 * (k0 * x * x)), expo[row] * l)
    return out + np.where(psi, 2.0, expo[row]) * k0 * x * x


QUOTIENT_FUNCTIONALS = {"thm31": (catalog_build("thm31", a=2.0), (-6.0, 14.0)),
                        "thm33": (catalog_build("thm33", eta=1e-4, mu=2e-4), (-5e-4, 8e-4)),
                        "linear": (catalog_build("linear"), (-6.0, 14.0))}
QUOTIENT_ROW = st.tuples(st.sampled_from([None, 1.2, 2.0, 2.5]),
                         st.sampled_from([2.0 ** -1, 2.0 ** -5, 2.0 ** -14, 0.3]),
                         st.sampled_from([1.0, -1.0, 0.5, -2.5]), st.booleans())


@st.composite
def quotient_cases(draw):
    """(f, rows, x, row, lx): mixed rows; x on a line, on the rows' cuts (the
    breakpoints and the shifted cuts) and, on thm33's u = -log x route, with
    lx = log x down to x = e^-800; row one int or an int per point."""
    name = draw(st.sampled_from(sorted(QUOTIENT_FUNCTIONALS)))
    f, (lo, hi) = QUOTIENT_FUNCTIONALS[name]
    rows = draw(st.lists(QUOTIENT_ROW, min_size=1, max_size=5))
    cuts = sorted({p for row_cuts in _quotient_family(f, rows).breakpoints for p in row_cuts})
    if name == "thm33" and draw(st.booleans()):
        u_lo = -math.log(f.params["mu"])
        u = draw(st.lists(st.floats(u_lo, 800.0), min_size=1, max_size=20))
        u += [-math.log(p) for p in cuts if 0.0 < p < f.params["mu"]]
        lx = -np.array(u)
        x = np.exp(lx)
    else:
        x = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=20)) + [0.0, -0.0] + cuts
        x, lx = np.array(x), None
    if draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
    else:
        row = np.array(draw(st.lists(st.integers(0, len(rows) - 1), min_size=x.size,
                                     max_size=x.size)))
    return f, rows, x, row, lx


class TestQuotientBody:
    @settings(max_examples=300, deadline=None)
    @given(quotient_cases())
    def test_index_subsets_match_the_where_formulation(self, case):
        # every bit of the body equals the np.where reference: the same NaN
        # positions and sign bits, and the same values elsewhere
        f, rows, x, row, lx = case
        with np.errstate(all="ignore"):
            want = where_quotient_log(f, rows, x, row, lx)
            args = (x, row) if lx is None else (x, row, lx)
            sign, got = _quotient_family(f, rows).log_eval(*args)
        assert np.array_equal(sign, np.ones_like(x))
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        np.testing.assert_array_equal(got[~nan], want[~nan])


def where_abs_pow_log(f, p, deriv, x, lx, weighted):
    """log|g|^p of _abs_pow_family(f, p, deriv), and of its weighted form, from
    one slog_parts call, each quadratic part formed here: p r + (p k) x^2, or
    p r + ((p k - 1/2) x^2 - log sqrt(2 pi)) with the Gaussian weight."""
    _, r, k = f.slog_parts(x, lx, deriv)
    if weighted:
        return p * r + ((p * k - 0.5) * x * x - quad.LOG_SQRT_2PI)
    return p * r + p * k * x * x


class TestAbsPowBody:
    """Every bit of the |f|^p and |f'|^p bodies, unweighted and weighted, equals
    the reference; thm33 also on the u = -log x route, with lx = log x."""

    X = {"thm31": np.concatenate([np.linspace(-6.0, 14.0, 81), [2.0, 1e3, 1e6]]),
         "thm33": np.concatenate([np.linspace(-5e-4, 8e-4, 81), [0.0, -0.0, 1e-4, 2e-4]]),
         "linear": np.concatenate([np.linspace(-6.0, 14.0, 81), [0.0, -0.0, 1e6]])}

    @pytest.mark.parametrize("name", ["thm31", "thm33", "linear"])
    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bits_match_the_reference(self, name, deriv, weighted):
        f = QUOTIENT_FUNCTIONALS[name][0]
        cases = [(self.X[name], None)]
        if name == "thm33":
            u = np.concatenate([np.linspace(-math.log(f.params["mu"]), 800.0, 60),
                                [-math.log(1e-4)]])
            cases.append((np.exp(-u), -u))
        for p in (1.5, 2.0, 2.1):
            fam = _abs_pow_family(f, p, deriv)
            fam = quad.weighted(fam) if weighted else fam
            for x, lx in cases:
                with np.errstate(all="ignore"):
                    want = where_abs_pow_log(f, p, deriv, x, lx, weighted)
                    sign, got = fam.log_eval(x, 0) if lx is None else fam.log_eval(x, 0, lx)
                np.testing.assert_array_equal(sign, np.ones_like(x))
                np.testing.assert_array_equal(got, want, err_msg=f"p={p}")


def mp_phi(x):
    return mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)


def mp_thm31(f):
    """(f, f') of the thm31 functional at a float point, in mpmath: the closed
    forms of the right piece from the breakpoint on, the completion (with
    the float glue values build_thm31 gives it) below it."""
    a, x0 = mp.mpf(f.params["a"]), f.breakpoints[0]
    v, d = float(f.pieces[1].value(x0)), float(f.pieces[1].deriv(x0))
    c = (2 * mp.pi) ** mp.mpf(0.25)

    def at(x):
        x = mp.mpf(x)
        if x >= x0:
            g = c * mp.exp(x * x / 4) * x ** -a
            return g, g * (x * x / 2 - a) / x
        e = mp.exp(-(x - x0) ** 2)
        return v + d * (x - x0) * e, d * (1 - 2 * (x - x0) ** 2) * e

    return at


class TestFusedBodiesAgainstMpmath:
    """The weighted thm31 bodies up to x = 1e6 against 50-digit mpmath.

    The error allowed in a log is a few units in the last place of the terms
    the body must form: the shifted point's k d (x + xs), the member's
    (q k - 1/2) x^2 and the logs of x, each amplified by the cancellation of
    the difference, the centring or |log y| at that point.  Points where the
    amplification passes 1e8 (near zeros of the residual) are skipped.  The
    x^2/4 of f cancels against the weight's x^2/2 at q = 2, so the
    convergent rows (q = 2, h < 0) are held to about 1e-13; a body that formed
    x^2/4 and x^2/2 apart would be off by about 1e-5 at x = 1e6.
    """

    A = 2.004
    X = np.concatenate([np.linspace(-6.0, 12.0, 37), np.geomspace(12.5, 1e6, 40)])
    ULPS = 8.0 * np.finfo(float).eps

    def assert_close(self, got, want, cond, scale):
        # want: mp log of the weighted member; cond: its amplification of log errors
        checked = 0
        for x, g, w, c, m in zip(self.X, got, want, cond, scale):
            if w == -mp.inf:  # an exact zero: f is constant left of the breakpoint
                assert g == -math.inf, x
            elif c > 1e8:
                continue
            else:
                assert abs(g - float(w)) <= self.ULPS * (c * m + abs(float(w))), x
            checked += 1
        assert checked >= 0.9 * self.X.size

    @staticmethod
    def weight(x, log_value):
        return log_value - mp.mpf(x) ** 2 / 2 - mp.log(2 * mp.pi) / 2

    @pytest.mark.parametrize("h", [1.0, -1.0, 0.5, -0.5])
    def test_quotient_rows(self, h):
        f = catalog_build("thm31", a=self.A)
        at = mp_thm31(f)
        rows = [(q, eps, h, centered) for eps in (0.5, 2.0 ** -5)
                for q in (1.5, 2.0, 2.5, None) for centered in (False, True)
                if q is not None or not centered]
        fam = quad.weighted(_quotient_family(f, rows))
        with mp.workdps(50):
            base = {x: at(x) for x in self.X}
            for row, (q, eps, _, centered) in enumerate(rows):
                got = fam.log_eval(self.X, row)[1]
                want, cond, scale = [], [], []
                for x in self.X:
                    (f0, d0), (f1, _) = base[x], at(x + eps * h)
                    diff = (f1 - f0) / eps
                    amp = (abs(f1) + abs(f0)) / eps / abs(diff) if diff else 1
                    res = diff - h * d0 if centered else diff
                    if centered and res:
                        # f' loses x^2 / |x^2 - 2a| of its digits near its zero
                        ramp = 1 + x * x / abs(x * x - 2 * self.A)
                        amp = (amp * abs(diff) + ramp * abs(h * d0)) / abs(res)
                    if q is None:
                        ly = 2 * mp.log(abs(res)) if res else -mp.inf
                        lv = ly + mp.log(abs(ly)) if ly not in (0, -mp.inf) else -mp.inf
                        amp *= 2 * (1 + 1 / abs(ly)) if ly not in (0, -mp.inf) else mp.inf
                        power = 2.0
                    else:
                        lv, power = (q * mp.log(abs(res)) if res else -mp.inf), q
                    want.append(self.weight(x, lv))
                    cond.append(float(amp) if amp != mp.inf else math.inf)
                    k = 0.25 if x >= f.breakpoints[0] else 0.0
                    shift = abs(k * eps * h * (2 * x + eps * h))
                    scale.append(power * (shift + 50.0) + abs(power * k - 0.5) * x * x)
                self.assert_close(got, want, cond, scale)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_abs_pow_rows(self, deriv):
        f = catalog_build("thm31", a=self.A)
        at = mp_thm31(f)
        with mp.workdps(50):
            for p in (1.5, 2.0, 2.5):
                got = quad.weighted(_abs_pow_family(f, p, deriv)).log_eval(self.X)[1]
                want, cond, scale = [], [], []
                for x in self.X:
                    g = at(x)[deriv]
                    want.append(self.weight(x, p * mp.log(abs(g)) if g else -mp.inf))
                    cond.append(1 + x * x / abs(x * x - 2 * self.A) if deriv else 1.0)
                    k = 0.25 if x >= f.breakpoints[0] else 0.0
                    scale.append(p * 50.0 + abs(p * k - 0.5) * x * x)
                self.assert_close(got, want, cond, scale)


class TestFusedEnvelopeVerdicts:
    """Verdicts that the log-space noise of an unfused x^2/4 left Inconclusive."""

    def test_convergent_residual_rows_near_a_2(self):
        # the centred q = 2, h < 0 rows decay like x^(2-2a) = x^-2.008; at
        # eps >= 1/8 each ran 25,000 evaluations into Inconclusive.  The
        # rows at eps <= 1/16 stay Diverged by the growth rule (their
        # integrand grows up to x ~ 1/eps), which the envelope does not touch
        a, h = 2.004, -0.987
        f = catalog_build("thm31", a=a)
        table = membership_report(f, 2.0, h_list=(0.98, h)).ssgd[2.0, h].table
        at = mp_thm31(f)
        x0 = f.breakpoints[0]
        assert not [r for r in table if r.verdict.status == "inconclusive"]
        converged = [r for r in table if r.verdict.converged]
        assert [r.epsilon for r in converged] == [0.5, 0.25, 0.125]
        with mp.workdps(30):
            for r in converged:
                s = r.epsilon * h

                def g(x, eps=r.epsilon, s=s):
                    (f0, d0), (f1, _) = at(x), at(x + s)
                    return ((f1 - f0) / eps - h * d0) ** 2 * mp_phi(x)

                # f is constant left of x0, and the shifted point leaves it at x0 - s
                edges = [x0, x0 - s, *(x0 - s + 2.0 ** k for k in range(12)), mp.inf]
                exact = mp.quad(g, edges)
                assert r.verdict.n_evals < 2000
                assert abs(r.verdict.value - exact) <= r.verdict.abs_error

    @pytest.mark.parametrize("a", [1.6, 1.75])
    def test_seminorm_with_slow_derivative_tail(self, a):
        # E|f|^2 and E|f'|^2, re-derived: on [x0, inf) f^2 phi = x^-2a and
        # f'^2 phi = x^(-2a-2) (x^2/2 - a)^2, whose tail x^(2-2a) converges
        # for every a > 3/2; on the left, the completion g against phi
        f = catalog_build("thm31", a=a)
        at = mp_thm31(f)
        with mp.workdps(30):
            A, x0 = mp.mpf(a), mp.mpf(f.breakpoints[0])
            right = (x0 ** (1 - 2 * A) / (2 * A - 1),
                     x0 ** (3 - 2 * A) / (4 * (2 * A - 3)) - A * x0 ** (1 - 2 * A) / (2 * A - 1)
                     + A ** 2 * x0 ** (-1 - 2 * A) / (2 * A + 1))
            for k, verdict in enumerate(sobolev_seminorm(f, 2.0)):
                left = mp.quad(lambda x: at(x)[k] ** 2 * mp_phi(x), [-mp.inf, 0, x0])
                assert verdict.converged, verdict
                assert abs(verdict.value - (left + right[k])) <= verdict.abs_error


def tail_functional(kappa, p, declared=None, hidden=(0.0, 0.0)):
    """f(x) = e^(kappa x^2 + b x + c x^2) x^-p on [x_b, inf), (b, c) = hidden,
    with the Gaussian rate kappa, glued C^1 to a bounded completion below
    x_b = 3; its right piece declares the tail `declared`, (kappa, p) by
    default."""
    b, c = hidden
    x_b = 3.0

    def slog(x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x), (b + c * x) * x - p * np.log(x)

    def slog_deriv(x):  # f' = f (2 (kappa + c) x + b - p / x)
        x = np.asarray(x, dtype=float)
        inner = (2.0 * (kappa + c) * x + b) * x - p
        with np.errstate(divide="ignore"):
            return np.sign(inner), np.log(np.abs(inner)) + slog(x)[1] - np.log(x)

    right = Function1D(slog=slog, slog_deriv=slog_deriv, rate=kappa,
                       tail=(kappa, p) if declared is None else declared)
    left = smooth_completion_g(x_b, float(right.value(x_b)), float(right.deriv(x_b)))
    return ScalarFunctional(name="tail", breakpoints=(x_b,), pieces=(left, right))


def weighted_tail_diverges(kappa, q, s):
    """Whether (order q, shift s) of a tail e^(kappa x^2) x^-p, kappa > 0,
    diverges at +inf against phi, from its dominant exponent alone: the
    larger of |f(x + s)| and |f(x)| (or f'), to the q, times e^(-x^2/2), is
    e^((q kappa - 1/2) x^2 + 2 q kappa max(s, 0) x) up to powers of x.  None
    where the powers decide."""
    rate, slope = q * kappa - 0.5, 2.0 * q * kappa * max(s, 0.0)
    if rate != 0.0:
        return rate > 0.0
    return True if slope > 0.0 else None


class TestDeclaredTail:
    """thm31's right piece and synthetic pieces declare (kappa, p); the rows
    built from them derive their growth, and _piece decides the divergent
    tails without evaluating."""

    @pytest.mark.parametrize("a", [1.6, 2.0, 3.9, 8.0, 50.0])
    def test_thm31_declares_its_tail(self, a):
        f = catalog_build("thm31", a=a)
        assert f.tail == (0.25, a)
        assert quad.weighted(_abs_pow_family(f, 2.5, True)).growth == ((0.125, 0.0),)
        fam = quad.weighted(_quotient_family(f, [(2.0, 0.5, 1.0, True), (1.5, 0.5, -1.0, False),
                                                 (None, 0.25, 2.0, False), (2.0, 0.5, 0.0, True)]))
        assert fam.growth == ((0.0, 0.5), (-0.125, 0.0), (0.0, 0.5), None)

    def test_undeclared_functionals_declare_no_growth(self, f33, flin):
        for f in (f33, flin, tail_functional(0.0, 2.0), tail_functional(-0.2, 1.0)):
            assert _abs_pow_family(f, 3.0, False).growth is None
            assert _quotient_family(f, [(2.0, 0.5, 1.0, True)]).growth is None

    @pytest.mark.parametrize("kappa", [0.25, 1e-3, 0.0, -0.3])
    def test_construction_refuses_a_wrong_declaration(self, kappa):
        assert tail_functional(kappa, 2.0).tail == (kappa, 2.0)
        hidden = {"e^x": dict(hidden=(1.0, 0.0)), "e^(x^2/8)": dict(hidden=(0.0, 0.125)),
                  "p + 1": dict(declared=(kappa, 3.0)), "p - 1": dict(declared=(kappa, 1.0))}
        for name, kw in hidden.items():
            with pytest.raises(ValueError, match="does not follow the declared tail"):
                tail_functional(kappa, 2.0, **kw)

    def test_only_the_last_piece_declares_a_tail(self):
        piece = Function1D(value=np.ones_like, deriv=np.zeros_like, tail=(0.0, 0.0))
        with pytest.raises(ValueError, match="only the piece reaching"):
            ScalarFunctional(name="two", breakpoints=(0.0,), pieces=(piece, piece))

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.one_of(st.just(0.0), st.floats(1e-3, 0.5), st.floats(0.1, 0.5),
                           st.floats(-0.5, -1e-3)),
           p=st.floats(0.5, 4.0),
           rows=st.lists(st.tuples(st.one_of(st.none(), st.floats(1.0, 3.0)),  # None: psi
                                   st.sampled_from([0.5, 2.0 ** -3, 2.0 ** -7]),
                                   st.sampled_from([1.0, -1.0, 0.5, -2.5, 0.0]),
                                   st.booleans()), min_size=1, max_size=4),
           powers=st.lists(st.tuples(st.floats(1.0, 3.0), st.booleans()), max_size=2))
    @example(kappa=0.25, p=3.0, rows=[(2.0, 0.5, 1.0, True), (2.0, 0.5, -1.0, True),
                                      (None, 2.0 ** -7, 1.0, False), (2.0, 0.5, 0.0, False)],
             powers=[(2.0, False), (2.5, True)])
    def test_the_skip_fires_only_on_divergent_tails_and_changes_nothing_else(self, kappa, p,
                                                                          rows, powers):
        # every piece of every row's line against phi, declared and undeclared
        f = tail_functional(kappa, p)
        rows = [(q, eps, c, centered and q is not None) for q, eps, c, centered in rows]
        cases = [(_quotient_family(f, rows), [(q or 2.0, eps * c) for q, eps, c, _ in rows])]
        cases += [(_abs_pow_family(f, q, deriv), [(q, None)]) for q, deriv in powers]
        for fam, laws in cases:
            fam = quad.weighted(fam)
            pieces = [(row, lo, hi) for row in range(len(laws))
                      for lo, hi in itertools.pairwise(
                          [-math.inf, *sorted({*fam.breakpoints[row], 0.0}), math.inf])]
            new = quad.integrate_pieces(fam, pieces, budget=2000)
            old = quad.integrate_pieces(dataclasses.replace(fam, growth=None), pieces,
                                        budget=2000)
            for (row, lo, hi), v, ref in zip(pieces, new, old):
                fired = v.diverged and v.evidence.reason == "declared_growth"
                q, s = laws[row]
                decided = kappa > 0.0 and hi == math.inf and s != 0.0
                assert fired == (decided and weighted_tail_diverges(kappa, q, s or 0.0) is True)
                if not fired:
                    assert v == ref
                    continue
                assert v.n_evals == 0 and v.evidence.records == ()
                # the body itself grows without bound far out
                far = fam.log_eval(np.array([2.0 ** 29, 2.0 ** 30]), row)[1]
                assert 100.0 < far[0] < far[1]


def thm33_params():
    """(eta, mu) of thm33 at the catalog defaults and at the benchmark's thm33
    slots (their seed-41 values)."""
    ops = compare_outputs.workloads.build("thm33-report", 41)
    return [(1e-4, 2e-4)] + [(op.params["eta"], op.params["mu"]) for op in ops]


class TestDeclaredOrigin:
    """thm33 declares its origin (1/2, 3); the rows built from it derive their
    power (sigma, lam) at 0, and _piece decides the lines that diverge there
    without evaluating."""

    def test_rows_derive_their_power_at_zero(self, f33):
        assert quad.weighted(_abs_pow_family(f33, 2.5, True)).origin == ((-1.25, 7.5),)
        assert _abs_pow_family(f33, 2.0, True).origin == ((-1.0, 6.0),)
        assert _abs_pow_family(f33, 3.0, False).origin == ((1.5, 9.0),)
        fam = _quotient_family(f33, [(2.5, 0.5, 1.0, True), (3.0, 0.25, -1.0, True),
                                     (2.5, 0.5, 1.0, False), (None, 0.5, 1.0, False),
                                     (2.5, 0.5, 0.0, True)])
        assert fam.origin == ((-1.25, 7.5), (-1.5, 9.0), None, None, None)

    def test_undeclared_functionals_declare_no_power(self, f31, flin):
        for f in (f31, flin):
            assert _abs_pow_family(f, 3.0, True).origin is None
            assert _quotient_family(f, [(3.0, 0.5, 1.0, True)]).origin is None

    @staticmethod
    def lines(fam):
        """Every row's Gaussian expectation of fam, in one lockstep run."""
        rows = range(len(fam.breakpoints))
        return quad._lockstep([quad._expectation_job(quad.weighted(fam), rows, quad.DEFAULT_ATOL,
                                                     quad.DEFAULT_RTOL, quad.DEFAULT_BUDGET)])[0]

    @pytest.mark.parametrize("eta, mu", thm33_params())
    def test_divergent_rows_are_decided_and_diverge_undeclared(self, grid, eta, mu):
        # E|f'|^q for q > 2 and the centred residual at q = 2.5 diverge at 0;
        # declared they cost nothing, undeclared the exhaustion finds it too
        f = catalog_build("thm33", eta=eta, mu=mu)
        eps_values = grid.capped(f.window).values
        residual = [(2.5, eps, h, True) for eps in eps_values[::7] for h in (1.0, -1.0)]
        for fam in [_abs_pow_family(f, q, True) for q in (2.05, 2.1, 2.5, 3.0)] + [
                _quotient_family(f, residual)]:
            assert all(sigma < -1.0 for sigma, _ in fam.origin)
            for v in self.lines(fam):
                assert v.diverged and v.n_evals == 0
                assert v.evidence == quad.GrowthEvidence((), "declared_growth")
                assert v.message.startswith("piece (0, ")
            for v in self.lines(dataclasses.replace(fam, origin=None)):
                assert v.diverged and v.n_evals > 0

    @pytest.mark.parametrize("eta, mu", thm33_params())
    def test_the_order_2_rows_are_not_decided(self, grid, eta, mu):
        # q = 2 is sigma = -1 with lam = 6 > 1: integrable, so it runs as undeclared
        f = catalog_build("thm33", eta=eta, mu=mu)
        eps_values = grid.capped(f.window).values
        for fam in (_abs_pow_family(f, 2.0, True),
                    _quotient_family(f, [(2.0, eps, h, True) for eps in eps_values[::7]
                                         for h in (1.0, -1.0)])):
            assert set(fam.origin) == {(-1.0, 6.0)}
            new, old = self.lines(fam), self.lines(dataclasses.replace(fam, origin=None))
            assert new == old and all(v.converged and v.n_evals > 0 for v in new)


class TestCameronMartin:
    def test_squared_integral_both_sides_near_2(self):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
        res = cameron_martin_check(Z, UNIT, 10**6, seed=99)
        assert res.within_3se
        assert abs(res.lhs - 2.0) <= 3.0 * res.se_lhs
        assert abs(res.rhs - 2.0) <= 3.0 * res.se_rhs

    def test_constant_functional(self):
        Z = CylindricalFunctional([UNIT], Polynomial.const(1.0, 1))
        res = cameron_martin_check(Z, UNIT, 10**5, seed=1)
        assert res.lhs == 1.0
        assert res.within_3se

    def test_linear_functional(self):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1))
        res = cameron_martin_check(Z, UNIT, 10**6, seed=2)
        assert res.within_3se
        assert abs(res.lhs - 1.0) <= 3.0 * res.se_lhs

    def test_battery_degree_le_3(self):
        # three directions, polynomials of degree <= 3, always within 3 SE
        g = TimeGrid.uniform(4)
        dirs = [
            CameronMartinDirection(g, np.array([1.0, 1.0, 1.0, 1.0])),
            CameronMartinDirection(g, np.array([2.0, 0.0, -1.0, 0.5])),
            CameronMartinDirection(g, np.array([0.0, 1.0, 0.0, -1.0])),
        ]
        x = [Polynomial.variable(i, 2) for i in range(2)]
        polys = [x[0], x[0] * x[1], x[0] ** 3 + 2.0 * x[1] - 1.0]
        for shift in dirs:
            for poly in polys:
                Z = CylindricalFunctional(dirs[:2], poly)
                res = cameron_martin_check(Z, shift, 2 * 10**5, seed=7)
                assert res.within_3se, (poly.terms, shift.density_values)


def pow_poly(poly, x):
    """poly at the rows of x with libm powers x[:, j] ** p, term by term."""
    out = np.zeros(x.shape[0])
    for e, c in poly.terms.items():
        term = np.full(x.shape[0], c)
        for j, p in enumerate(e):
            if p:
                term = term * x[:, j] ** p
        out += term
    return out


def full_matrix_coordinates(Z, h, n, seed):
    grid = merged_grid(list(Z.directions) + [h])
    incs = sample_increments(grid, n, seed)
    coords = np.column_stack([wiener_integral_batch(hi, grid, incs) for hi in Z.directions])
    shift = np.array([cm_inner(hi, h) for hi in Z.directions])
    return grid, incs, coords, shift


def full_matrix_cm(Z, h, n, seed):
    """cameron_martin_check on the whole (n, cells) increment matrix at once."""
    grid, incs, coords, shift = full_matrix_coordinates(Z, h, n, seed)
    lhs = pow_poly(Z.poly, coords + shift)
    rhs = pow_poly(Z.poly, coords) * np.exp(girsanov_log_weight_batch(h, grid, incs))
    return (np.mean(lhs), np.mean(rhs), np.std(lhs, ddof=1) / math.sqrt(n),
            np.std(rhs, ddof=1) / math.sqrt(n))


def full_matrix_sgd(Z, h, eps_grid, delta, n, seed):
    """sgd_probability_test on the whole (n, cells) increment matrix at once."""
    _, _, coords, shift = full_matrix_coordinates(Z, h, n, seed)
    pairing = np.zeros(n)
    for i, poly_i in enumerate(Z.gradient_polys()):
        pairing += pow_poly(poly_i, coords) * shift[i]
    base = pow_poly(Z.poly, coords)
    rows = []
    for eps in eps_grid.values:
        resid = (pow_poly(Z.poly, coords + eps * shift) - base) / eps - pairing
        rows.append((eps, float(np.mean(np.abs(resid) > delta))))
    return rows


class TestBlockBoundaries:
    """Streaming one Philox block at a time gives the full-matrix results."""

    G3 = TimeGrid.uniform(3)
    DIRS = (CameronMartinDirection(G3, np.array([1.0, -0.5, 2.0])),
            CameronMartinDirection(TimeGrid.uniform(2), np.array([0.25, 1.5])))
    SHIFT = CameronMartinDirection(TimeGrid.uniform(4), np.array([0.3, -0.2, 0.1, 0.4]))
    X = [Polynomial.variable(i, 2) for i in range(2)]
    QUADRATIC = 1.5 * X[0] ** 2 * X[1] - 0.7 * X[1] ** 2 + X[0] + 0.3
    CUBIC = X[0] ** 3 - 2.0 * X[0] * X[1] ** 2 + 0.5

    @pytest.mark.parametrize("n", [2, _BATCH, _BATCH + 1])
    def test_cm_quadratic_bit_for_bit(self, n):
        Z = CylindricalFunctional(self.DIRS, self.QUADRATIC)
        res = cameron_martin_check(Z, self.SHIFT, n, seed=21)
        got = (res.lhs, res.rhs, res.se_lhs, res.se_rhs)
        assert got == full_matrix_cm(Z, self.SHIFT, n, seed=21)
        assert res.n_samples == n

    @pytest.mark.parametrize("n", [2, _BATCH, _BATCH + 1])
    def test_cm_cubic_close(self, n):
        Z = CylindricalFunctional(self.DIRS, self.CUBIC)
        res = cameron_martin_check(Z, self.SHIFT, n, seed=22)
        got = (res.lhs, res.rhs, res.se_lhs, res.se_rhs)
        assert got == pytest.approx(full_matrix_cm(Z, self.SHIFT, n, seed=22),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, _BATCH, _BATCH + 1])
    def test_sgd_quadratic_bit_for_bit(self, n):
        Z = CylindricalFunctional(self.DIRS, self.QUADRATIC)
        grid = EpsilonGrid.default()
        rows = sgd_probability_test(Z, self.SHIFT, grid, 0.05, n, seed=23)
        assert rows == full_matrix_sgd(Z, self.SHIFT, grid, 0.05, n, seed=23)
        assert 0.0 < rows[0][1] < 1.0 or n == 2

    @pytest.mark.parametrize("n", [2, _BATCH, _BATCH + 1])
    def test_sgd_cubic_close(self, n):
        Z = CylindricalFunctional(self.DIRS, self.CUBIC)
        grid = EpsilonGrid.default()
        rows = sgd_probability_test(Z, self.SHIFT, grid, 0.05, n, seed=24)
        ref = full_matrix_sgd(Z, self.SHIFT, grid, 0.05, n, seed=24)
        assert [eps for eps, _ in rows] == [eps for eps, _ in ref]
        assert [p for _, p in rows] == pytest.approx([p for _, p in ref], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, _BATCH, _BATCH + 1])
    def test_cm_effective_sample_size(self, n):
        # Kish's (sum w)^2 / sum w^2 of the full-matrix weights; lognormal
        # weights have n exp(-||h||^2) in expectation
        Z = CylindricalFunctional(self.DIRS, self.QUADRATIC)
        res = cameron_martin_check(Z, self.SHIFT, n, seed=21)
        grid, incs, _, _ = full_matrix_coordinates(Z, self.SHIFT, n, seed=21)
        w = np.exp(girsanov_log_weight_batch(self.SHIFT, grid, incs))
        assert res.ess == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-12, abs=0.0)
        assert 1.0 <= res.ess <= n
        if n > 2:
            expected = n * math.exp(-cm_inner(self.SHIFT, self.SHIFT))
            assert res.ess == pytest.approx(expected, rel=0.01)

    def test_memory_one_block_at_a_time(self):
        # a 6-cell merged grid at 1e6 paths: the increment matrix alone is 46 MB
        g = TimeGrid.uniform(6)
        dirs = [CameronMartinDirection(g, np.linspace(-1.0, 1.0, 6)),
                CameronMartinDirection(TimeGrid.uniform(3), np.array([1.0, 0.5, -0.5]))]
        Z = CylindricalFunctional(dirs, self.X[0] ** 3 + self.X[0] * self.X[1])
        shift = CameronMartinDirection(TimeGrid.uniform(2), np.array([0.2, -0.3]))
        assert merged_grid(dirs + [shift]).n_cells == 6
        tracemalloc.start()
        try:
            cameron_martin_check(Z, shift, 10**6, seed=25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20


class TestSampleCounts:
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_cm_needs_two_samples(self, n):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
        with pytest.raises(ValueError, match="at least 2"):
            cameron_martin_check(Z, UNIT, n, seed=1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_sgd_needs_one_sample(self, n):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
        with pytest.raises(ValueError, match="at least 1"):
            sgd_probability_test(Z, UNIT, EpsilonGrid.default(), 0.1, n, seed=1)

    def test_sgd_single_path(self):
        # one path, one block of one row: X_eps - pairing = eps * <1, 1>^2 = eps
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 2)
        rows = sgd_probability_test(Z, UNIT, EpsilonGrid.default(), 0.1, 1, seed=1)
        assert rows == [(eps, 1.0 if eps > 0.1 else 0.0) for eps in EpsilonGrid.default().values]


class TestSgdProbability:
    def test_square_residual_is_deterministic_step(self):
        hp = CameronMartinDirection(TimeGrid.uniform(4), np.array([1.0, -0.5, 2.0, 0.25]))
        Z = CylindricalFunctional([hp], Polynomial.variable(0, 1) ** 2)
        ip = cm_inner(hp, UNIT)
        delta = 0.01
        rows = sgd_probability_test(Z, UNIT, EpsilonGrid.default(), delta, 10**4, seed=3)
        for eps, prob in rows:
            expected = 1.0 if eps * ip * ip > delta else 0.0
            assert prob == expected

    def test_linear_all_zero(self):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1))
        rows = sgd_probability_test(Z, UNIT, EpsilonGrid.default(), 1e-6, 10**4, seed=4)
        assert all(prob == 0.0 for _, prob in rows)

    def test_cubic_decreasing_within_noise(self):
        Z = CylindricalFunctional([UNIT], Polynomial.variable(0, 1) ** 3)
        n = 10**5
        rows = sgd_probability_test(Z, UNIT, EpsilonGrid.default(), 0.05, n, seed=5)
        probs = [p for _, p in rows]
        noise = 3.0 / math.sqrt(n)
        assert all(b <= a + noise for a, b in zip(probs, probs[1:]))
        assert probs[-1] <= probs[0]


class TestMembershipReport:
    def test_linear_all_yes(self, flin):
        rep = membership_report(flin, 2.0, deltas=(0.1,), h_list=(1.0,))
        assert rep.flags == {"in_base": Flag.YES, "ssgd_pp": Flag.YES,
                             "in_plus": Flag.YES}
        assert rep.consistent

    @pytest.mark.parametrize("name, params, h_list", [("thm31", {"a": 3.9}, (0.5, 2.0)),
                                                      ("thm33", {}, (1.0, -1.0))])
    def test_pooled_rows_equal_standalone(self, grid, name, params, h_list):
        # the L^q, residual and psi-test rows of a report run in one pooled run;
        # each verdict equals the stand-alone one, n_evals and message included
        f = catalog_build(name, **params)
        rep = membership_report(f, 2.0, deltas=(0.1,), h_list=h_list)
        for h in h_list:
            rows = [r for r in rep.lq_table if r.quantity == f"diffquot_norm[h={h:g}]"]
            assert len(rows) == len(grid.values)
            assert [r.verdict for r in rows] == [lq_diffquot_norm(f, 1.5, r.epsilon, h)
                                                 for r in rows]
            assert rep.dvp[h] == dvp_uniform_integrability_test(f, h, grid)
        assert sorted(rep.ssgd) == sorted((q, h) for q in (1.5, 2.0) for h in h_list)
        for (q, h), res in rep.ssgd.items():
            assert res.table and res == ssgd_test(f, 2.0, q, h, grid)

    def test_one_pooled_run_per_report(self, monkeypatch):
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda form, requests: calls.append(form) or real(form, requests))
        membership_report(catalog_build("thm31", a=6.0), 2.0, h_list=(1.0,))
        # 127 when the L^q rows, the residual rows of each q, the majorants and
        # the psi-test pieces ran one family after another, 95 when each
        # exhaustion request fetched one segment, 61 when a segment past the
        # magnitude limit went on refining, 51 when the right pieces of the
        # divergent rows (declared growth) ran their exhaustion, and 19 when
        # the other pieces of those rows' lines still ran
        assert len(calls) == 11

    @pytest.mark.parametrize("kw", [{"atol": math.inf}, {"atol": math.nan}, {"rtol": -1e-8},
                                    {"deltas": (0.0,)}, {"deltas": (0.1, -0.5)},
                                    {"deltas": (math.inf,)}, {"h_list": (1.0, 1.0)},
                                    {"h_list": (math.nan,)}, {"h_list": (1.0, -math.inf)}])
    def test_rejects_bad_tolerances_deltas_and_endpoints(self, flin, monkeypatch, kw):
        ran = []
        monkeypatch.setattr(quad, "_outcomes", lambda drivers: ran.append(drivers))
        with pytest.raises(ValueError):
            membership_report(flin, 2.0, **kw)
        assert ran == []

    def test_lyapunov_ordering_of_tables(self, f31, grid):
        # for q' < q: converged E|X|^q' <= 1 + E|X|^q
        for eps in grid.values[:4]:
            lo = lq_diffquot_norm(f31, 1.2, eps, 1.0)
            hi = lq_diffquot_norm(f31, 1.5, eps, 1.0)
            assert lo.converged and hi.converged
            assert lo.value <= 1.0 + hi.value + 1e-9

    def test_majorants_run_once_per_report(self, f33, grid, monkeypatch):
        made = []
        real = quad.bertrand_family
        monkeypatch.setattr(quad, "bertrand_family", lambda e: made.append(e) or real(e))
        h_list = (1.0, -1.0, 0.0)
        rep = membership_report(f33, 2.0, deltas=(0.1,), h_list=h_list)
        assert made == [(5.0, 6.0, 7.0, 8.0)]
        for h in h_list:
            assert rep.dvp[h] == dvp_uniform_integrability_test(f33, h, grid)

    def test_chain_enforced(self, f31, f33, flin):
        for f in (flin, f31, f33):
            rep = membership_report(f, 2.0, deltas=(0.1,), h_list=(1.0,))
            assert rep.consistent
            flags = rep.flags
            if flags["in_plus"] == Flag.YES:
                assert flags["ssgd_pp"] == Flag.YES
            if flags["ssgd_pp"] == Flag.YES:
                assert flags["in_base"] == Flag.YES

    @pytest.mark.parametrize("ssgd_flag, ssgd_pp, notes, violations", [
        (Flag.UNKNOWN, Flag.YES, ("ssgd_pp upgraded: implied by in_plus",), ()),
        (Flag.NO, Flag.NO, (), ("in_plus is Yes but ssgd_pp is No",)),
    ])
    def test_chain_from_in_plus(self, flin, monkeypatch, ssgd_flag, ssgd_pp, notes,
                                violations):
        # the linear functional has every moment, so in_plus is Yes
        monkeypatch.setattr(diagnostics, "_ssgd_result", lambda q, h_T, table, atol:
                            SsgdResult(q, h_T, (), ssgd_flag, None))
        rep = membership_report(flin, 2.0, deltas=(0.1,), h_list=(1.0,))
        assert rep.flags == {"in_base": Flag.YES, "ssgd_pp": ssgd_pp, "in_plus": Flag.YES}
        assert rep.notes == notes
        assert rep.chain_violations == violations
        assert ("**Inconsistent report**" in report_to_markdown(rep)) == bool(violations)

    @pytest.mark.parametrize("status, in_base, notes, violations", [
        ("inconclusive", Flag.YES, ("in_base upgraded: implied by ssgd_pp",), ()),
        ("diverged", Flag.NO, (), ("ssgd_pp is Yes but in_base is No",)),
    ])
    def test_chain_from_ssgd_pp(self, flin, monkeypatch, status, in_base, notes, violations):
        # only the order-2 seminorms are replaced; ssgd_pp and in_plus stay Yes
        real = diagnostics.sobolev_seminorm
        stuck = quad.IntegralVerdict(status)
        monkeypatch.setattr(diagnostics, "sobolev_seminorm", lambda f, p, **kw:
                            (stuck, stuck) if p == 2.0 else real(f, p, **kw))
        rep = membership_report(flin, 2.0, deltas=(0.1,), h_list=(1.0,))
        assert rep.flags == {"in_base": in_base, "ssgd_pp": Flag.YES, "in_plus": Flag.YES}
        assert rep.notes == notes
        assert rep.chain_violations == violations
        assert ("**Inconsistent report**" in report_to_markdown(rep)) == bool(violations)


class TestEmission:
    def test_csv_schema(self):
        from wienerlab.quadrature import IntegralVerdict, Verdict
        rows = [LqRow("thing", 2.0, 0.5,
                      IntegralVerdict(Verdict.CONVERGED, value=1.5, abs_error=1e-10))]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "quantity,q,epsilon,verdict,value,abs_error"
        assert lines[2] == "thing,2.0,0.5,converged,1.5,1e-10"

    def test_report_roundtrip_deterministic(self, flin):
        a = membership_report(flin, 2.0, deltas=(0.1,), h_list=(1.0,))
        b = membership_report(flin, 2.0, deltas=(0.1,), h_list=(1.0,))
        assert report_to_csv(a) == report_to_csv(b)
        md = report_to_markdown(a)
        assert "Verdict chain" in md

    def test_report_rows_cover_sections(self, f33):
        rep = membership_report(f33, 2.0, deltas=(0.1,), h_list=(1.0,))
        rows = report_evidence_rows(rep)
        quantities = {r.quantity for r in rows}
        assert "abs_moment" in quantities
        assert "deriv_moment" in quantities
        assert any(q.startswith("diffquot_norm") for q in quantities)
        assert any(q.startswith("diffquot_residual") for q in quantities)
        assert any(q.startswith("dvp_total") for q in quantities)
        assert "bertrand_majorant" in quantities

    @pytest.mark.parametrize("fixture", ["f33", "f31"])
    def test_markdown_has_a_line_per_limit_test(self, request, fixture):
        # the residual tests and psi-tests are one line each, with their flag,
        # and the psi-test with its sup
        rep = membership_report(request.getfixturevalue(fixture), 2.0, deltas=(0.1,),
                                h_list=(1.0, -1.0))
        lines = report_to_markdown(rep).splitlines()
        for (q, h_T), res in rep.ssgd.items():
            assert [ln for ln in lines if ln.startswith(f"| L^{q:g} residuals | {h_T:g} |")] \
                == [f"| L^{q:g} residuals | {h_T:g} | {res.verdict} | |"]
        for h_T, res in rep.dvp.items():
            sup = "n/a" if res.sup_value is None else f"{res.sup_value:.6g}"
            assert [ln for ln in lines if ln.startswith(f"| psi-test | {h_T:g} |")] \
                == [f"| psi-test | {h_T:g} | {res.verdict} | {sup} |"]
        # both cases show: a finite sup, and n/a for the thm31 tail growth
        assert {res.verdict for res in rep.dvp.values()} == (
            {Flag.YES} if fixture == "f33" else {Flag.NO})
        assert not [ln for ln in lines if ln.startswith("## ") and (
            "Seminorm" in ln or "residuals" in ln or "psi-test" in ln)]
