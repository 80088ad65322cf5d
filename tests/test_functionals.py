import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy

from wienerlab import (CameronMartinDirection, CylindricalFunctional, Ends, Function1D,
                       Polynomial, ScalarFunctional, TimeGrid, cm_inner,
                       eval_cylindrical, linear_functional, mc_difference_quotient,
                       pairing_with_h, sample_path)
from wienerlab.functionals import difference_quotient_slog
from wienerlab.slog import slog_exp, slog_of
from wienerlab.wiener import BrownianPath

UNIT = CameronMartinDirection.constant(1.0)
X1 = Polynomial.variable(0, 1)


def path_with_terminal(x):
    g = TimeGrid(np.array([0.0, 1.0]))
    return BrownianPath(g, np.array([0.0, float(x)]))


class TestPolynomial:
    def test_eval_const_and_variable(self):
        p = Polynomial.const(3.5, 2)
        assert p(np.array([1.0, 2.0])) == 3.5
        assert Polynomial.variable(1, 2)(np.array([1.0, 2.0])) == 2.0

    def test_arithmetic(self):
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        p = (x + 2.0 * y) * (x - y) + 1.0
        assert p(np.array([3.0, 2.0])) == pytest.approx((3 + 4) * (3 - 2) + 1)

    def test_point_gives_float_and_batch_gives_array(self):
        p = Polynomial.variable(0, 2) * Polynomial.variable(1, 2) + 1.0
        point = p(np.array([3.0, 2.0]))
        assert isinstance(point, float) and point == 7.0
        for n in (1, 2):
            batch = p(np.tile([3.0, 2.0], (n, 1)))
            assert isinstance(batch, np.ndarray) and batch.shape == (n,)
            assert np.all(batch == 7.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_partials_match_sympy(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        xs = sympy.symbols("x0 x1 x2")
        terms = {}
        for _ in range(6):
            expo = tuple(int(e) for e in rng.integers(0, 3, size=n))
            terms[expo] = terms.get(expo, 0.0) + float(rng.normal())
        mine = Polynomial(n, terms)
        sym = sum(c * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
                  for e, c in terms.items())
        pt = rng.normal(size=n)
        subs = dict(zip(xs, pt))
        assert float(mine(pt)) == pytest.approx(float(sym.subs(subs)), rel=1e-10, abs=1e-10)
        for i in range(n):
            di = mine.partial(i)
            dsym = sympy.diff(sym, xs[i])
            assert float(di(pt)) == pytest.approx(float(dsym.subs(subs)),
                                                  rel=1e-10, abs=1e-10)

    def test_batch_evaluation(self):
        p = (Polynomial.variable(0, 2) ** 2) * Polynomial.variable(1, 2)
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.allclose(p(pts), [2.0, -9.0])

    @pytest.mark.parametrize("make", [lambda: Polynomial.variable(0, 1) ** 2.5,
                                      lambda: Polynomial.variable(0, 1) ** -1,
                                      lambda: Polynomial(1, {(1.5,): 1.0}),
                                      lambda: Polynomial(1, {(-1,): 1.0})],
                             ids=["power 2.5", "power -1", "exponent 1.5", "exponent -1"])
    def test_non_integer_or_negative_exponents_are_refused(self, make):
        with pytest.raises(ValueError, match="nonnegative integer"):
            make()


class TestIntegerPowers:
    X = np.random.default_rng(2026).normal(scale=3.0, size=1000)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_within_p_units_in_last_place(self, p):
        got = (X1 ** p)(self.X[:, None])
        for x, y in zip(self.X, got):
            exact = Fraction(float(x)) ** p
            assert abs(Fraction(float(y)) - exact) <= p * Fraction(1, 2**53) * abs(exact)

    def test_squares_and_first_powers_exact(self):
        x = self.X
        assert np.array_equal((X1 ** 1)(x[:, None]), x)
        assert np.array_equal((X1 ** 2)(x[:, None]), x * x)
        # a shared power: x^2 * y and x^2 both use the same x * x
        x2, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        pts = np.column_stack([x, x[::-1]])
        assert np.array_equal((x2 ** 2 * y + x2 ** 2)(pts), x * x * x[::-1] + x * x)

    def test_one_row_batch_is_a_scalar(self):
        assert (X1 ** 3)(np.array([[2.0]])) == 8.0


class TestCylindrical:
    def test_identity_poly_gives_terminal(self):
        Z = CylindricalFunctional([UNIT], X1)
        p = sample_path(TimeGrid.uniform(4), seed=1)
        assert eval_cylindrical(Z, p) == pytest.approx(p.terminal, abs=1e-15)

    def test_constant_poly(self):
        Z = CylindricalFunctional([UNIT], Polynomial.const(1.0, 1))
        for seed in range(5):
            assert eval_cylindrical(Z, sample_path(TimeGrid.uniform(2), seed=seed)) == 1.0

    def test_second_moment_mc(self):
        # E[W_1^2] = 1 within 3 standard errors at N = 1e6
        from wienerlab import sample_increments
        from wienerlab.wiener import wiener_integral_batch
        g = TimeGrid.uniform(1)
        incs = sample_increments(g, 10**6, seed=8)
        w = wiener_integral_batch(UNIT, g, incs)
        vals = w**2
        se = vals.std(ddof=1) / 1000.0
        assert abs(vals.mean() - 1.0) <= 3.0 * se

    def test_derivative_linear(self):
        Z = CylindricalFunctional([UNIT], X1)
        (grad,) = Z.gradient_polys()
        assert grad.terms == {(0,): 1.0}  # grad Z = 1 * h1, constant in omega

    def test_derivative_square_pairing(self):
        Z = CylindricalFunctional([UNIT], X1 * X1)
        p = sample_path(TimeGrid.uniform(2), seed=3)
        assert pairing_with_h(Z, UNIT, p) == pytest.approx(2.0 * p.terminal, rel=1e-14)

    def test_product_rule(self):
        h2 = CameronMartinDirection(TimeGrid.uniform(2), np.array([1.0, -1.0]))
        poly = Polynomial.variable(0, 2) * Polynomial.variable(1, 2)
        Z = CylindricalFunctional([UNIT, h2], poly)
        g1, g2 = Z.gradient_polys()
        assert g1.terms == {(0, 1): 1.0}  # d/dx1 (x1 x2) = x2
        assert g2.terms == {(1, 0): 1.0}


class TestDerivedForms:
    """A piece is written in one form; the other forms are derived from it."""

    @staticmethod
    def _growth(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x - 1.0), 0.25 * x * x - np.log(x)

    @staticmethod
    def _growth_deriv(x):
        x = np.asarray(x, dtype=float)
        return -np.ones_like(x), x - 2.0 * np.log(x)

    @staticmethod
    def _cusp(lx):
        lx = np.asarray(lx, dtype=float)
        return np.sign(lx), 0.5 * lx - 3.0 * np.log(np.abs(lx))

    @staticmethod
    def _cusp_deriv(lx):
        lx = np.asarray(lx, dtype=float)
        return np.sign(lx - 6.0), np.log(np.abs(lx - 6.0)) - 0.5 * lx - 4.0 * np.log(np.abs(lx))

    def test_pairs_give_closed_forms(self):
        piece = Function1D(slog=self._growth, slog_deriv=self._growth_deriv)
        assert piece.slog is self._growth and piece.slog_deriv is self._growth_deriv
        # x = 1 has sign 0, x = 60 overflows a double
        xs = np.array([0.25, 1.0, 3.0, 40.0, 60.0])
        np.testing.assert_array_equal(piece.value(xs), slog_exp(*self._growth(xs)))
        np.testing.assert_array_equal(piece.deriv(xs), slog_exp(*self._growth_deriv(xs)))
        assert piece.value(1.0) == 0.0 and piece.value(60.0) == math.inf

    def test_logx_pairs_give_x_pairs(self):
        piece = Function1D(slog_logx=self._cusp, slog_deriv_logx=self._cusp_deriv)
        xs = np.concatenate([[0.0, 5e-324], np.logspace(-300.0, -1.0, 200)])
        for at_x, at_logx in ((piece.slog, self._cusp), (piece.slog_deriv, self._cusp_deriv)):
            sign, logabs = at_x(xs)
            want_sign, want_logabs = at_logx(np.log(xs[1:]))
            np.testing.assert_array_equal(sign[1:], want_sign)
            np.testing.assert_array_equal(logabs[1:], want_logabs)
            assert (sign[0], logabs[0]) == (0.0, -math.inf)
            assert tuple(map(float, at_x(0.0))) == (0.0, -math.inf)
        np.testing.assert_array_equal(piece.value(xs), slog_exp(*piece.slog(xs)))
        assert piece.value(0.0) == 0.0 and piece.deriv(0.0) == 0.0

    def test_closed_forms_give_pairs(self):
        piece = Function1D(value=lambda x: np.asarray(x, float) ** 3,
                           deriv=lambda x: 3.0 * np.asarray(x, float) ** 2)
        xs = np.array([-2.0, 0.0, 0.5, 7.0])
        for got, want in zip(piece.slog(xs), slog_of(xs ** 3)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(piece.slog_deriv(xs), slog_of(3.0 * xs ** 2)):
            np.testing.assert_array_equal(got, want)

    def test_no_form_rejected(self):
        with pytest.raises(ValueError, match="needs one of value, slog, slog_logx"):
            Function1D()
        with pytest.raises(ValueError, match="needs one of deriv, slog_deriv, slog_deriv_logx"):
            Function1D(value=np.zeros_like)


class TestLogxViewsWithARate:
    """The log-x views of an origin piece with a Gaussian rate give the x views
    at x = e^lx: log|f| = x^2 / 10 + 3x, log|f'| = log|f| + log(x / 5 + 3)."""

    @staticmethod
    def _piece():
        def slog(x):
            x = np.asarray(x, dtype=float)
            return np.ones_like(x), 3.0 * x

        def slog_deriv(x):
            x = np.asarray(x, dtype=float)
            return np.ones_like(x), 3.0 * x + np.log(0.2 * x + 3.0)

        return Function1D(slog=slog, slog_deriv=slog_deriv, rate=0.1,
                          slog_logx=lambda lx: slog(np.exp(lx)),
                          slog_deriv_logx=lambda lx: slog_deriv(np.exp(lx)))

    def test_views_equal_the_x_views(self):
        f = ScalarFunctional(name="rated", breakpoints=(), pieces=(self._piece(),))
        assert f.has_logx_forms()
        for lx in (np.log([0.5]), np.linspace(-700.0, 2.0, 50)):
            for at_logx, at_x in ((f.slog_value_at_logx, f.slog_value),
                                  (f.slog_deriv_at_logx, f.slog_deriv)):
                for got, want in zip(at_logx(lx), at_x(np.exp(lx))):
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestScalarPairing:
    def test_linear(self):
        c = CameronMartinDirection.constant(2.5)
        assert pairing_with_h(linear_functional(), c, path_with_terminal(0.7)) == 2.5

    def test_square(self):
        sq = ScalarFunctional(name="square", breakpoints=(), pieces=(Function1D(
            value=lambda x: np.asarray(x, float) ** 2,
            deriv=lambda x: 2.0 * np.asarray(x, float)),))
        assert pairing_with_h(sq, UNIT, path_with_terminal(3.0)) == 6.0

    def test_thm31_matches_finite_difference(self, f31):
        x = 3.0
        step = 1e-6
        fd = (f31.value(x + step) - f31.value(x - step)) / (2 * step)
        got = pairing_with_h(f31, UNIT, path_with_terminal(x))
        assert got == pytest.approx(fd, rel=1e-6)

    def test_flagged_point_raises(self, f33):
        with pytest.raises(ValueError, match="not differentiable"):
            pairing_with_h(f33, UNIT, path_with_terminal(0.0))


def difference_quotient_1d(f, x, eps, c):
    """(f(x + eps*c) - f(x)) / eps as a float, formed in (sign, log) space,
    with the quadratic part k x^2 of its log added back."""
    sign, logabs, k = difference_quotient_slog(f, x, eps, c)
    return float(slog_exp(sign, logabs + k * x * x))


class TestDifferenceQuotient1D:
    def test_linear(self, flin):
        for eps in (0.5, 1e-3):
            assert difference_quotient_1d(flin, 2.0, eps, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_square_arithmetic(self):
        sq = ScalarFunctional(name="square", breakpoints=(), pieces=(Function1D(
            value=lambda x: np.asarray(x, float) ** 2,
            deriv=lambda x: 2.0 * np.asarray(x, float)),))
        assert difference_quotient_1d(sq, 1.0, 0.5, 1.0) == pytest.approx(2.5, rel=1e-14)

    def test_thm31_against_high_precision(self, f31):
        # independent oracle: 200-bit arithmetic on the closed form
        mp.mp.prec = 200
        a = mp.mpf(2)
        def f(x):
            x = mp.mpf(x)
            return mp.e ** (x * x / 4) * x ** (-a) * (2 * mp.pi) ** mp.mpf("0.25")
        oracle = float((f("10.1") - f("10")) / mp.mpf("0.1"))
        got = difference_quotient_1d(f31, 10.0, 0.1, 1.0)
        assert got > 0.0
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_log_space_factorization_far_out(self, f31):
        # f overflows doubles near x = 53; the quotient must still be ordered
        # and positive, matching the 200-bit oracle where it is representable
        mp.mp.prec = 200
        a = mp.mpf(2)
        def f(x):
            x = mp.mpf(x)
            return mp.e ** (x * x / 4) * x ** (-a) * (2 * mp.pi) ** mp.mpf("0.25")
        x, eps = 70.0, 0.25
        got = difference_quotient_1d(f31, x, eps, 1.0)
        oracle = (f(x + eps) - f(x)) / mp.mpf(eps)
        assert math.isinf(got) or got == pytest.approx(float(oracle), rel=1e-8)
        # at x = 70 the quotient is ~exp(1232) which overflows; the sign of the
        # log-space route must still be positive before overflow kicks in
        assert got > 0.0

    @pytest.mark.parametrize("x", [49.5, 52.0])
    @pytest.mark.parametrize("eps", [0.25, 2.0 ** -8])
    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_overflow_branch_finite_against_oracle(self, f31, x, eps, c):
        # log|f| is about 605-677 here: far out in the exp(x^2/4) growth,
        # yet the quotient is a finite double and must match 200-bit arithmetic
        assert float(f31.slog_value(x)[1]) > 600.0
        with mp.workprec(200):
            a = mp.mpf(2)
            def f(y):
                y = mp.mpf(y)
                return mp.e ** (y * y / 4) * y ** (-a) * (2 * mp.pi) ** mp.mpf("0.25")
            oracle = float((f(x + eps * c) - f(x)) / mp.mpf(eps))
        got = difference_quotient_1d(f31, x, eps, c)
        assert math.isfinite(got)
        assert got == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("name, lo, hi", [("f31", -2.0, 9.0), ("f33", -1e-4, 5e-4),
                                              ("flin", -2.0, 2.0)])
    def test_deriv_at_is_placed_with_the_quotient(self, request, monkeypatch, name, lo, hi):
        # one searchsorted places f(x + eps c), f(x) and f'(x[deriv_at]); the
        # bits are those of the quotient and of f' computed apart
        f = request.getfixturevalue(name)
        x = np.concatenate([np.linspace(lo, hi, 60), f.breakpoints])
        at = np.arange(0, x.size, 3)
        searches = []
        real = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *a, **kw: searches.append(1) or real(*a, **kw))
        with np.errstate(all="ignore"):
            sign, l, k, (ds, dl) = difference_quotient_slog(f, x, 0.25, 0.5 * (hi - lo), None, at)
        monkeypatch.undo()
        assert len(searches) == 1
        with np.errstate(all="ignore"):
            want = (*difference_quotient_slog(f, x, 0.25, 0.5 * (hi - lo)),
                    *f.slog_parts(x[at], deriv=True)[:2])
        for got, ref in zip((sign, l, k, ds, dl), want):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_rejects_nonpositive_eps(self, flin):
        with pytest.raises(ValueError):
            difference_quotient_1d(flin, 0.0, 0.0, 1.0)


def masked_dispatch(f: ScalarFunctional, x, attr: str):
    """ScalarFunctional._dispatch as it was: one mask per piece, every piece visited."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    pair = attr.startswith("slog")
    outs = (np.empty_like(x), np.empty_like(x)) if pair else (np.empty_like(x),)
    idx = np.searchsorted(np.asarray(f.breakpoints), x, side="right")
    for i, piece in enumerate(f.pieces):
        m = idx == i
        if np.any(m):
            got = getattr(piece, attr)(x[m])
            for out, v in zip(outs, got if pair else (got,)):
                out[m] = v
    outs = tuple(out[0] if scalar else out for out in outs)
    return outs if pair else outs[0]


class TestDispatch:
    @pytest.mark.parametrize("name", ["f31", "f33", "flin"])
    @pytest.mark.parametrize("attr", ["value", "deriv", "slog", "slog_deriv"])
    def test_bit_identical_to_masked_reference(self, request, name, attr):
        f = request.getfixturevalue(name)
        bps = list(f.breakpoints)
        inputs = [np.empty(0), np.float64(0.0), np.float64(1.5), np.array(bps or [0.0])]
        inputs += [np.array([b]) for b in bps] + [np.float64(b) for b in bps]
        for b in bps or [0.0]:
            span = max(abs(b), 1e-4)
            inputs += [np.linspace(b - span, b + span, 41),   # across, on b itself
                       np.linspace(b + 0.1 * span, b + span, 7),  # one piece only
                       np.linspace(b - span, b - 0.1 * span, 7)]
        inputs.append(np.linspace(-5.0, 5.0, 300))
        for x in inputs:
            with np.errstate(all="ignore"):
                got, ref = f._dispatch(x, attr), masked_dispatch(f, x, attr)
            for g, r in zip(got if attr.startswith("slog") else (got,),
                            ref if attr.startswith("slog") else (ref,)):
                assert type(g) is type(r) and np.shape(g) == np.shape(r)
                assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


class TestMcDifferenceQuotient:
    def test_constant_functional(self):
        Z = CylindricalFunctional([UNIT], Polynomial.const(4.0, 1))
        p = sample_path(TimeGrid.uniform(2), seed=1)
        assert mc_difference_quotient(Z, UNIT, 0.25, p) == 0.0

    def test_linear_gives_inner_product(self):
        h = CameronMartinDirection(TimeGrid.uniform(2), np.array([2.0, -1.0]))
        Z = CylindricalFunctional([h], X1)
        p = sample_path(TimeGrid.uniform(2), seed=2)
        for eps in (0.5, 0.01):
            got = mc_difference_quotient(Z, UNIT, eps, p)
            assert got == pytest.approx(cm_inner(h, UNIT), rel=1e-10, abs=1e-12)

    def test_square_identity_exact(self):
        # X_eps - <grad Z, h> = eps <h', h>^2 to the rounding of the
        # quantities actually formed
        g = TimeGrid.uniform(4)
        hp = CameronMartinDirection(g, np.array([1.0, -0.5, 2.0, 0.25]))
        Z = CylindricalFunctional([hp], X1 * X1)
        ip = cm_inner(hp, UNIT)
        eps_mach = np.finfo(float).eps
        for seed in range(100):
            p = sample_path(g, seed=seed)
            for k in range(1, 9):
                eps = 2.0 ** -k
                z0 = eval_cylindrical(Z, p)
                z1 = eval_cylindrical(Z, __import__("wienerlab").shift_path(p, UNIT, eps))
                lhs = mc_difference_quotient(Z, UNIT, eps, p) - pairing_with_h(Z, UNIT, p)
                tol = 16 * eps_mach * ((abs(z0) + abs(z1)) / eps + abs(lhs) + 1.0)
                assert abs(lhs - eps * ip * ip) <= tol


class TestLinearErrorBound:
    def test_quotient_error_linear_in_eps(self):
        # |X_eps - <grad Z, h>| <= K eps for degree <= 3 cylindricals:
        # fit K on two eps values, validate on a third, over 100 paths
        rng = np.random.default_rng(11)
        g = TimeGrid.uniform(4)
        h = CameronMartinDirection(g, np.array([0.5, 1.0, -1.0, 0.75]))
        for trial in range(5):
            n = 2
            dirs = [CameronMartinDirection(g, rng.normal(size=4)) for _ in range(n)]
            terms = {}
            for _ in range(5):
                expo = tuple(int(e) for e in rng.integers(0, 2, size=n))
                if sum(expo) <= 3:
                    terms[expo] = float(rng.normal())
            poly = Polynomial(n, terms)
            if poly.degree == 0:
                continue
            Z = CylindricalFunctional(dirs, poly)
            eps_a, eps_b, eps_c = 0.5, 0.25, 0.125
            worst_K = 0.0
            resid_c = []
            for seed in range(100):
                p = sample_path(g, seed=3000 + seed)
                pair = pairing_with_h(Z, h, p)
                ra = abs(mc_difference_quotient(Z, h, eps_a, p) - pair)
                rb = abs(mc_difference_quotient(Z, h, eps_b, p) - pair)
                worst_K = max(worst_K, ra / eps_a, rb / eps_b)
                resid_c.append(abs(mc_difference_quotient(Z, h, eps_c, p) - pair))
            K = worst_K * (1.0 + 1e-9) + 1e-12
            assert all(r <= K * eps_c for r in resid_c)


class TestGluing:
    def test_catalog_constructs(self, f31, f33, flin):
        for f in (f31, f33, flin):
            assert isinstance(f, ScalarFunctional)

    def test_bad_glue_rejected(self):
        left = Function1D(value=lambda x: np.zeros_like(np.asarray(x, float)),
                          deriv=lambda x: np.zeros_like(np.asarray(x, float)))
        right = Function1D(value=lambda x: np.ones_like(np.asarray(x, float)),
                           deriv=lambda x: np.zeros_like(np.asarray(x, float)))
        with pytest.raises(ValueError, match="value jump"):
            ScalarFunctional(name="broken", breakpoints=(0.0,), pieces=(left, right))

    def test_derivative_jump_rejected_unless_flagged(self):
        left = Function1D(value=lambda x: np.asarray(x, float),
                          deriv=lambda x: np.ones_like(np.asarray(x, float)))
        right = Function1D(value=lambda x: 2.0 * np.asarray(x, float),
                           deriv=lambda x: np.full_like(np.asarray(x, float), 2.0))
        with pytest.raises(ValueError, match="derivative jump"):
            ScalarFunctional(name="kink", breakpoints=(0.0,), pieces=(left, right))
        ok = ScalarFunctional(name="kink", breakpoints=(0.0,), pieces=(left, right),
                              non_differentiable=frozenset({0.0}))
        assert ok.value(0.0) == 0.0

    def test_pairing_matches_fd_at_random_points(self, f31, f33):
        # closed-form derivatives against centered differences at 1000 points
        # away from breakpoints; steps scale with x since the cusp structure
        # lives on relative scales
        rng = np.random.default_rng(5)
        for f, lo, hi in ((f31, -4.0, 12.0), (f33, 1e-6, 6e-4)):
            xs = rng.uniform(lo, hi, size=1000)
            for b in f.breakpoints:
                xs = xs[np.abs(xs - b) > 1e-3 * abs(hi)]
            step = np.maximum(np.abs(xs), 1e-3 * abs(hi)) * 1e-5
            fd = (f.value(xs + step) - f.value(xs - step)) / (2 * step)
            dv = f.deriv(xs)
            # absolute floor: near the compact-support edge the derivative is
            # ~1e-8 while the cutoff varies faster than any sane FD step
            assert np.all(np.abs(fd - dv) <= 1e-5 * np.abs(dv) + 1e-8)


class TestDeclaredEnds:
    def test_ends_of_f_and_f_prime(self, flin, f31, f33):
        whole = (-math.inf, math.inf)
        assert flin.ends() == flin.ends(True) == Ends(whole)
        assert f31.ends() == f31.ends(True) == Ends(whole, (0.25, 0.0))
        assert f33.ends() == Ends((0.0, 4e-4), None, (0.5, 3.0))
        assert f33.ends(True) == Ends((0.0, 4e-4), None, (-0.5, 3.0))
