import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from wienerlab import (Thm31Params, Thm33Params, build_thm31, build_thm33, catalog_build,
                       smooth_completion_G, smooth_completion_g,
                       squared_quotient_floor_integrand, validate_eta_mu)
from wienerlab.functionals import Function1D, ScalarFunctional, zero_piece
from wienerlab.quadrature import integrate_semi_infinite
from wienerlab.slog import slog_of


class TestTailGrowthFunctional:
    def test_value_at_breakpoint(self, f31):
        # e^(x^2/4) x^-2 (2 pi)^(1/4) at x = 2, against 200-bit arithmetic
        mp.mp.prec = 200
        exact = float(mp.e * mp.mpf(2) ** -2 * (2 * mp.pi) ** mp.mpf("0.25"))
        assert f31.value(2.0) == pytest.approx(exact, rel=1e-14)
        assert f31.value(2.0) == pytest.approx(1.0759187, rel=1e-6)

    def test_nondecreasing_above_breakpoint(self, f31):
        xs = np.linspace(2.0, 12.0, 1000)
        assert np.all(np.diff(f31.value(xs)) >= 0.0)
        assert np.all(f31.deriv(xs) >= 0.0)

    def test_c1_gluing(self, f31):
        x0 = math.sqrt(4.0)
        left, right = f31.pieces
        assert abs(float(left.value(x0)) - float(right.value(x0))) < 1e-10
        assert abs(float(left.deriv(x0)) - float(right.deriv(x0))) < 1e-10

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError, match="a > 3/2"):
            Thm31Params(a=1.0)
        with pytest.raises(ValueError):
            Thm31Params(a=1.5)

    def test_square_weight_majorant(self, f31):
        # |f(x)|^2 phi(x) <= x^-2a on [sqrt(2a), inf), pointwise on a grid
        xs = np.linspace(2.0, 40.0, 1000)
        lhs = 2.0 * f31.slog_value(xs)[1] + (-0.5 * xs * xs - 0.5 * math.log(2 * math.pi))
        rhs = -4.0 * np.log(xs)
        assert np.all(lhs <= rhs + 1e-12)

    def test_quotient_floor_integrand_diverges(self):
        for eps in (0.5, 2.0 ** -8):
            g = squared_quotient_floor_integrand(2.0, eps)
            v = integrate_semi_infinite(g, 2.0, atol=1e-10, rtol=1e-8)
            assert v.diverged


class TestOriginCuspFunctional:
    def test_core_value_high_precision(self, f33):
        mp.mp.prec = 200
        mu = mp.mpf("2e-4")
        exact = float(mp.sqrt(mu) / mp.log(mu) ** 3)
        assert f33.value(2e-4) == pytest.approx(exact, rel=1e-10)
        assert exact < 0.0  # log(mu) < 0 so the core is negative near 0

    def test_continuity_at_origin(self, f33):
        xs = 10.0 ** np.arange(-12, -4, 0.5)
        vals = f33.value(xs)
        assert np.all(np.isfinite(vals))
        assert abs(f33.value(1e-12)) < 1e-5
        assert f33.value(0.0) == pytest.approx(0.0, abs=1e-300)
        assert f33.value(-3.0) == 0.0

    def test_derivative_closed_form_vs_fd(self, f33):
        # centered difference at mu/2 with a proportionally tiny step
        mu = 2e-4
        x = 0.5 * mu
        step = 1e-9 * mu
        fd = (f33.value(x + step) - f33.value(x - step)) / (2 * step)
        assert f33.deriv(x) == pytest.approx(fd, rel=1e-5)

    def test_c1_on_punctured_line(self, f33):
        # C^1 away from the flagged origin: FD check at 1000 random points
        rng = np.random.default_rng(17)
        xs = np.concatenate([
            np.exp(rng.uniform(math.log(1e-8), math.log(1.9e-4), 400)),
            rng.uniform(2.05e-4, 4.2e-4, 300),
            rng.uniform(4.2e-4, 1.0, 200),
            rng.uniform(-2.0, -1e-6, 100),
        ])
        xs = xs[np.abs(xs - 2e-4) > 1e-8]
        step = np.maximum(np.abs(xs) * 1e-5, 1e-12)
        fd = (f33.value(xs + step) - f33.value(xs - step)) / (2 * step)
        dv = f33.deriv(xs)
        assert np.all(np.abs(fd - dv) <= 1e-4 * np.abs(dv) + 1e-6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="weight_decreasing"):
            Thm33Params(eta=0.1, mu=0.2)
        with pytest.raises(ValueError, match="ordering"):
            Thm33Params(eta=2e-4, mu=1e-4)

    def test_window_recorded(self, f33):
        assert f33.window == 1e-4
        assert 0.0 in f33.non_differentiable
        assert 0.0 in f33.singular_points


class TestValidator:
    def test_default_params_pass(self):
        res = validate_eta_mu(1e-4, 2e-4)
        assert res.ok
        # mu + eta = 3e-4 < e^-8 ~ 3.3546e-4, with margin
        assert 3e-4 < math.exp(-8.0)

    def test_large_params_fail_weight_condition(self):
        res = validate_eta_mu(0.1, 0.2)
        assert not res.ok
        assert res.failed == "weight_decreasing"

    def test_weight_condition_boundary(self):
        # the weight condition is mu + eta <= e^-8 exactly
        top = math.exp(-8.0) * (1.0 + 1e-4)
        res = validate_eta_mu(0.4 * top, 0.6 * top)
        assert not res.ok
        assert res.failed == "weight_decreasing"
        below = math.exp(-8.0) * (1.0 - 1e-4)
        assert validate_eta_mu(0.4 * below, 0.6 * below).ok

    def test_ordering_failures(self):
        assert validate_eta_mu(2e-4, 1e-4).failed == "ordering"
        assert validate_eta_mu(0.0, 1e-4).failed == "ordering"
        assert validate_eta_mu(1e-4, 0.5).failed == "ordering"

    def test_bertrand_maps_decreasing_for_valid_params(self):
        eta, mu = 1e-4, 2e-4
        assert validate_eta_mu(eta, mu).ok
        xs = np.exp(np.linspace(math.log((mu + eta) * 1e-10), math.log(mu + eta), 2000))
        for i in (5, 6, 7, 8):
            vals = -np.log(xs) - i * np.log(np.abs(np.log(xs)))
            assert np.all(np.diff(vals) <= 1e-12)


class TestCompletions:
    def test_left_completion_interpolates(self):
        g = smooth_completion_g(2.0, 1.5, -0.25)
        assert float(g.value(2.0)) == 1.5
        assert float(g.deriv(2.0)) == -0.25

    def test_left_completion_bounded(self):
        v, d = 1.5, -0.25
        g = smooth_completion_g(2.0, v, d)
        xs = np.linspace(-50.0, 50.0, 20001)
        bound = abs(v) + abs(d) / math.sqrt(2.0 * math.e)
        assert np.max(np.abs(g.value(xs))) <= bound + 1e-12

    def test_right_completion_interpolates_and_vanishes(self):
        mu, v, d = 2e-4, -2.3e-5, -0.1
        G = smooth_completion_G(mu, v, d)
        assert float(G.value(mu)) == v
        assert float(G.deriv(mu)) == d
        xs = np.linspace(2 * mu, 10 * mu, 100)
        assert np.all(G.value(xs) == 0.0)

    def test_right_completion_smooth_at_shoulders(self):
        mu, v, d = 2e-4, -2.3e-5, -0.1
        G = smooth_completion_G(mu, v, d)
        for x0 in (1.5 * mu, 2.0 * mu):
            step = 1e-9 * mu
            fd = (float(G.value(x0 + step)) - float(G.value(x0 - step))) / (2 * step)
            assert abs(fd - float(G.deriv(x0))) < 1e-6

    def test_right_completion_needs_positive_mu(self):
        with pytest.raises(ValueError):
            smooth_completion_G(0.0, 1.0, 1.0)


class TestThm33Support:
    """thm33 declares its support (0, 2 mu): f, f' and their pairs are exactly
    0 outside it, at the default (eta, mu) and at the two edges of the
    parameter range (mu + eta = e^-8, and both near the smallest double)."""

    PAIRS = [(1e-4, 2e-4), (1e-4, math.exp(-8.0) - 1e-4), (1e-300, 2e-300)]

    @staticmethod
    def outside(mu):
        top = 2.0 * mu
        right = np.concatenate([[top, top * (1.0 + 2.0 ** -52), np.nextafter(top, 1.0), 1.0, 1e300],
                                top * (1.0 + np.logspace(-15.0, 0.0, 301)),
                                np.linspace(top, 1.0, 1001), np.logspace(0.0, 300.0, 301)])
        left = -np.concatenate([[1e-300, 1.0, 5e-324], np.logspace(-300.0, 300.0, 1201)])
        return np.concatenate([right, left, [0.0, -0.0]])

    @pytest.mark.parametrize("eta, mu", PAIRS)
    def test_zero_outside_the_support(self, eta, mu):
        f = build_thm33(Thm33Params(eta=eta, mu=mu))
        assert f.support == (0.0, 2.0 * mu)
        xs = self.outside(mu)
        with np.errstate(over="ignore"):  # (2 mu - x) / (mu / 2) passes the largest double
            assert np.all(f.value(xs) == 0.0) and np.all(f.deriv(xs) == 0.0)
            for deriv in (False, True):
                sign, r, _ = f.slog_parts(xs, deriv=deriv)
                assert np.all(sign == 0.0) and np.all(r == -np.inf)
        # the log-x form rules the origin piece [0, mu): 0 is the one point of
        # it outside the support, at log x = -inf
        for deriv in (False, True):
            sign, r, _ = f.slog_parts(np.zeros(2), np.full(2, -np.inf), deriv)
            assert np.all(sign == 0.0) and np.all(r == -np.inf)

    @pytest.mark.parametrize("eta, mu", PAIRS)
    @pytest.mark.parametrize("shrink", ["right", "left"])
    def test_a_support_that_cuts_off_f_is_refused(self, eta, mu, shrink):
        f = build_thm33(Thm33Params(eta=eta, mu=mu))
        support = (0.0, mu) if shrink == "right" else (0.5 * mu, 2.0 * mu)
        with pytest.raises(ValueError, match="outside the declared support"):
            dataclasses.replace(f, support=support)

    def test_an_empty_support_is_refused(self, f33):
        with pytest.raises(ValueError, match="lo < hi"):
            dataclasses.replace(f33, support=(1.0, 1.0))


class TestThm33Origin:
    """thm33 declares its origin (1/2, 3): log|f| = log(x)/2 - 3 log|log x|
    and log|f'| = -log(x)/2 - 3 log|log x| + O(1) as x -> 0+.  Construction
    checks it on the core's log-x forms and refuses a wrong one."""

    @staticmethod
    def build(core, origin, mu=2e-4):
        """thm33 at mu from a core piece and the G completion, declaring origin."""
        completion = smooth_completion_G(mu, float(core.value(mu)), float(core.deriv(mu)))
        return ScalarFunctional(name="thm33", breakpoints=(0.0, mu),
                                pieces=(zero_piece(), core, completion),
                                non_differentiable=frozenset({0.0}), origin=origin)

    @pytest.mark.parametrize("eta, mu", TestThm33Support.PAIRS)
    def test_thm33_declares_its_origin(self, eta, mu):
        f = build_thm33(Thm33Params(eta=eta, mu=mu))
        assert f.origin == (0.5, 3.0) and f.tail is None
        for name in ("thm31", "linear"):
            assert catalog_build(name).origin is None

    @pytest.mark.parametrize("origin", [(0.4, 3.0), (0.5, 2.0), (0.6, 3.0), (0.5, 4.0),
                                        (0.0, 3.0), (-0.5, 3.0)])
    def test_a_wrong_origin_is_refused(self, f33, origin):
        with pytest.raises(ValueError, match="does not follow the declared origin"):
            self.build(f33.pieces[1], origin)

    def test_a_wrong_power_of_f_prime_is_refused(self, f33):
        # f declares its origin truly, but f' carries an extra |log x|^-1
        core = f33.pieces[1]
        wrong = Function1D(slog_logx=core.slog_logx,
                           slog_deriv_logx=lambda lx: (core.slog_deriv_logx(lx)[0],
                                                       core.slog_deriv_logx(lx)[1]
                                                       - np.log(np.abs(lx))))
        with pytest.raises(ValueError, match="log\\|f'\\| does not follow the declared origin"):
            self.build(wrong, f33.origin)

    def test_an_origin_needs_the_log_x_forms(self):
        piece = Function1D(value=np.sqrt, deriv=lambda x: 0.5 / np.sqrt(x))
        with pytest.raises(ValueError, match="needs slog_logx and slog_deriv_logx"):
            ScalarFunctional(name="sqrt", breakpoints=(), pieces=(piece,), origin=(0.5, 0.0))


def test_catalog_names():
    assert catalog_build("linear").name == "linear"
    assert catalog_build("thm31", a=3.0).params["a"] == 3.0
    assert catalog_build("thm33").params["mu"] == 2e-4
    with pytest.raises(KeyError, match="unknown catalog functional"):
        catalog_build("nope")


def test_build_functions_take_param_objects():
    assert build_thm31(Thm31Params(a=2.5)).name == "thm31"
    assert build_thm33(Thm33Params()).name == "thm33"


def _off_breakpoints(f, xs):
    for b in f.breakpoints:
        xs = xs[np.abs(xs - b) > 1e-9 * max(1.0, abs(b))]
    return xs


def _assert_pairs_agree(got, want):
    (s_got, l_got), (s_want, l_want) = got, want
    np.testing.assert_array_equal(s_got, s_want)
    with np.errstate(invalid="ignore"):  # -inf - -inf where both sides vanish
        dev = np.abs(l_got - l_want)
    same = (l_got == l_want) | (dev <= 1e-12 * np.maximum(1.0, np.abs(l_want)))
    assert np.all(same), np.max(dev[~same])


def _thm31_closed(a):
    """The thm31 functional rebuilt from the closed forms of its right piece."""
    c = (2.0 * math.pi) ** 0.25

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.exp(0.25 * x * x) * x ** (-a) * c

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return np.exp(0.25 * x * x) * (0.5 * x ** (1.0 - a) - a * x ** (-a - 1.0)) * c

    right = Function1D(value=value, deriv=deriv)
    x0 = math.sqrt(2.0 * a)
    left = smooth_completion_g(x0, float(value(x0)), float(deriv(x0)))
    return ScalarFunctional(name="thm31-closed", breakpoints=(x0,), pieces=(left, right))


def _thm33_closed(mu):
    """The thm33 functional rebuilt from the closed forms of its core piece."""
    def value(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.sqrt(x) / np.log(x) ** 3

    def deriv(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            lx = np.log(x)
            return (lx - 6.0) / (2.0 * np.sqrt(x) * lx ** 4)

    core = Function1D(value=value, deriv=deriv)
    tail = smooth_completion_G(mu, float(value(mu)), float(deriv(mu)))
    return ScalarFunctional(name="thm33-closed", breakpoints=(0.0, mu),
                            pieces=(zero_piece(), core, tail),
                            non_differentiable=frozenset({0.0}))


class TestPairForms:
    """The (sign, log) pairs of every catalog piece against slog_of of closed
    forms written here, independently of the catalog's log forms."""

    def test_thm31(self, f31):
        ref = _thm31_closed(f31.params["a"])
        xs = _off_breakpoints(f31, np.linspace(-4.0, 40.0, 4001))
        _assert_pairs_agree(f31.slog_value(xs), slog_of(ref.value(xs)))
        _assert_pairs_agree(f31.slog_deriv(xs), slog_of(ref.deriv(xs)))

    def test_thm33(self, f33):
        ref = _thm33_closed(f33.params["mu"])
        xs = np.concatenate([np.linspace(-1.0, 5e-4, 4001),
                             np.logspace(-300.0, math.log10(5e-4), 2001)])
        xs = _off_breakpoints(f33, xs)
        _assert_pairs_agree(f33.slog_value(xs), slog_of(ref.value(xs)))
        _assert_pairs_agree(f33.slog_deriv(xs), slog_of(ref.deriv(xs)))
        # F vanishes at its flagged point 0, where no derivative is asked for
        assert tuple(map(float, f33.slog_value(0.0))) == (0.0, -math.inf)

    def test_thm33_logx_forms_match_x_forms(self, f33):
        xs = np.logspace(-300.0, math.log10(2e-4), 2001)[:-1]
        for at_logx, at_x in ((f33.slog_value_at_logx, f33.slog_value),
                              (f33.slog_deriv_at_logx, f33.slog_deriv)):
            for got, want in zip(at_logx(np.log(xs)), at_x(xs)):
                np.testing.assert_array_equal(got, want)

