import dataclasses
import heapq
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compare_outputs import workload_ops
from conftest import without
from wienerlab import (Family, bertrand_family, gaussian_expectation, integrate_adaptive,
                       integrate_pieces, integrate_semi_infinite, integrate_singular_origin)
from wienerlab.diagnostics import (EpsilonGrid, _abs_pow_family, _quotient_family,
                                   diffquot_pow_integrand, dvp_uniform_integrability_test)
from wienerlab import cli, quadrature as quad
from wienerlab.quadrature import Ends, EvaluationError, _gk_panels, gauss_log_pdf
from wienerlab.slog import slog_of


def inverse_sqrt_distance(c, weight=lambda x: 1.0):
    """|x - c|^(-1/2) times weight; a Kronrod node may land on the pole at c."""
    def fn(x):
        with np.errstate(divide="ignore"):
            return np.abs(x - c) ** -0.5 * weight(x)
    return fn


def gauss_mass(r):
    """int_{-r}^{r} phi(x) dx via the erf oracle."""
    return math.erf(r / math.sqrt(2.0))


def gauss_x2_mass(r):
    """int_{-r}^{r} x^2 phi(x) dx = erf(r/sqrt 2) - 2 r phi(r)."""
    phi_r = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    return gauss_mass(r) - 2.0 * r * phi_r


class TestAdaptive:
    def test_linear(self):
        v = integrate_adaptive(Family.from_function(lambda x: x), 0.0, 1.0,
                               atol=1e-14, rtol=1e-13)
        assert v.converged
        assert v.value == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_mass(self):
        g = Family.from_function(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
        v = integrate_adaptive(g, -8.0, 8.0, atol=1e-12, rtol=1e-12)
        assert v.converged
        assert v.value == pytest.approx(gauss_mass(8.0), abs=1e-10)

    def test_gaussian_second_moment_window(self):
        g = Family.from_function(
            lambda x: x * x * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi))
        v = integrate_adaptive(g, -8.0, 8.0, atol=1e-12, rtol=1e-12)
        assert v.value == pytest.approx(gauss_x2_mass(8.0), abs=1e-10)

    def test_error_bound_honest(self):
        v = integrate_adaptive(Family.from_function(np.sin), 0.0, math.pi,
                               atol=1e-12, rtol=1e-12)
        assert abs(v.value - 2.0) <= v.abs_error + 1e-12

    def test_budget_exhaustion_is_inconclusive(self):
        g = Family.from_function(lambda x: np.sin(1e5 * x))
        v = integrate_adaptive(g, 0.0, 1.0, atol=1e-14, rtol=1e-14, budget=300)
        assert v.status == "inconclusive"

    def test_nan_raises(self):
        g = Family.from_function(lambda x: np.where(x > 0.5, np.nan, x))
        with pytest.raises(EvaluationError):
            integrate_adaptive(g, 0.0, 1.0)

    @pytest.mark.parametrize("run", [
        lambda g: integrate_adaptive(g, 0.0, 1.0),
        lambda g: integrate_adaptive(dataclasses.replace(g, singular_points=(0.3,)), 0.0, 1.0),
    ], ids=["adaptive", "declared_pole"])
    def test_nan_sum_stops_refinement(self, run):
        # a node on the pole at 0.3 turns the running panel sum NaN for good;
        # refining on spent the whole budget of 100,000 evaluations
        v = run(Family.from_function(inverse_sqrt_distance(0.3)))
        assert v.status == "inconclusive"
        assert v.n_evals < 5000
        assert "NaN" in v.message

    @pytest.mark.parametrize("power", [0.5, 1.0])
    def test_declared_pole_at_zero_goes_by_neglog(self, power):
        # (0, 0.5) with the pole at 0 declared is the u = -log x piece of
        # integrate_pieces; the finite rule ended Inconclusive on both, after
        # 1,455 evaluations on |x|^(-1/2)
        g = Family.from_function(lambda x: np.abs(x) ** -power, singular_points=(0.0,))
        v = integrate_adaptive(g, 0.0, 0.5)
        assert [v] == integrate_pieces(g, [(0, 0.0, 0.5)])
        if power < 1.0:
            assert v.converged
            assert abs(v.value - math.sqrt(2.0)) <= v.abs_error
        else:
            assert v.diverged

    def test_finite_sum_beyond_double_range_is_inconclusive(self):
        # 200 panels of 1e306 each are finite, but their sum is not: it was
        # certified Converged with value inf
        g = Family.from_function(lambda x: np.full_like(x, 1e306),
                                 breakpoints=(tuple(float(k) for k in range(1, 200)),))
        v = integrate_adaptive(g, 0.0, 200.0)
        assert v.status == "inconclusive"
        assert v.message == "magnitudes beyond double range on a finite interval"
        assert v.n_evals == 15 * 200

    def test_panel_beyond_double_range_in_a_refinement_round(self, monkeypatch):
        # sin(20 x) e^(800 exp(-((x - 0.05) / 0.002)^2)): no node of the first
        # panels is near the spike at 0.05; the fourth round's halves reach it
        def log_eval(x, row=0):
            with np.errstate(divide="ignore", under="ignore"):
                spike = 800.0 * np.exp(-((x - 0.05) / 0.002) ** 2)
                return np.sign(np.sin(20.0 * x)), np.log(np.abs(np.sin(20.0 * x))) + spike, 0.0

        rounds = []
        real = quad._gk_panels

        def recording(log_eval, a, b):
            values, errors = real(log_eval, a, b)
            rounds.append((a.size, int(np.isinf(values).sum())))
            return values, errors

        monkeypatch.setattr(quad, "_gk_panels", recording)
        v = integrate_adaptive(Family(log_eval), 0.0, 1.0)
        assert rounds == [(1, 0), (2, 0), (4, 0), (2, 1)]
        assert v.status == "inconclusive"
        assert v.message == "magnitudes beyond double range on a finite interval"
        assert v.n_evals == 15 * 9

    def test_panels_batched_per_call(self):
        # halves of the worst panels are evaluated together: one call per
        # round instead of one per panel (255 calls before batching)
        calls = []

        def log_eval(x, row=0):
            calls.append(x.size)
            return (*slog_of(np.sin(50.0 * x)), 0.0)

        v = integrate_adaptive(Family(log_eval), 0.0, 10.0, atol=1e-12, rtol=1e-12)
        assert v.converged
        assert abs(v.value - (1.0 - math.cos(500.0)) / 50.0) <= v.abs_error
        assert len(calls) <= 16
        assert sum(calls) == v.n_evals

    def test_bad_interval_rejected(self):
        g = Family.from_function(lambda x: x)
        with pytest.raises(ValueError):
            integrate_adaptive(g, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(g, 0.0, math.inf)


class TestPanels:
    def test_batch_matches_single_panels(self):
        # a panel's (value, error) must not depend on the other panels of the
        # call: magnitudes from zero (x < 0) to beyond double range (x > 26.5,
        # value +-inf) with sign changes, and a bounded oscillation
        def growing(x):
            with np.errstate(invalid="ignore"):
                logabs = np.where(x < 0.0, -np.inf, 0.5 * x * x - 2.0 * np.log1p(np.abs(x)))
            return np.where(np.cos(3.0 * x) < 0.0, -1.0, 1.0), logabs

        rng = np.random.default_rng(7)
        lo = np.concatenate([[-5.0, 1e3, 0.0], rng.uniform(-3.0, 30.0, 60)])
        hi = lo + np.concatenate([[1.0, 1e3, 1e-3], rng.uniform(1e-6, 5.0, 60)])
        for log_eval, any_hot in ((growing, True), (lambda x: slog_of(np.sin(50.0 * x)), False)):
            values, errors = _gk_panels(log_eval, lo, hi)
            hot = np.isinf(values)
            assert hot.any() == any_hot and not hot.all()
            for i in range(lo.size):
                v1, e1 = _gk_panels(log_eval, lo[i:i + 1], hi[i:i + 1])
                assert (v1[0], e1[0], np.isinf(v1[0])) == (values[i], errors[i], hot[i])


def drive(gen, panel):
    """Run a driver generator alone, each requested panel (lo, hi) valued by
    panel(lo, hi) -> (value, error); its result and the requests it made."""
    requests = []
    try:
        lo, hi = gen.send(None)
        while True:
            requests.append((lo, hi))
            values, errors = zip(*map(panel, lo, hi))
            lo, hi = gen.send((list(values), list(errors)))
    except StopIteration as stop:
        return stop.value, requests


def adaptive(a, b, atol, rtol, budget, cuts=()):
    """The finite rule's segment as _finite runs it: its first panels, then
    _segment; it returns the _PanelSum."""
    edges = quad._edges(a, b, cuts)
    values, errors = yield edges[:-1], edges[1:]
    return (yield from quad._segment(edges, values, errors, atol, rtol, budget))


def error_doubling(lo, hi):
    """Every panel keeps the error 1e-3 however narrow it gets."""
    return hi - lo, 1e-3


class TestAdaptiveDriver:
    """Exits of the finite rule that no integrand of the other tests reaches, on
    panels valued by hand."""

    def test_stagnation_ends_refinement(self):
        # the total error doubles each round until 64 panels split per round;
        # after 24 rounds without a 0.1% drop the driver stops, far below budget
        res, requests = drive(adaptive(0.0, 1.0, 1e-10, 1e-8, 100_000), error_doubling)
        splits = [1, 2, 4, 8, 16, 32] + [64] * 18
        assert [len(lo) for lo, _ in requests] == [1] + [2 * n for n in splits]
        assert not res.ok and res.value == 1.0
        assert res.evals == 15 + 30 * sum(splits) < 100_000
        assert res.why == "refinement stagnated"
        verdict, _ = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 100_000, ()), error_doubling)
        assert verdict.status == "inconclusive" and verdict.n_evals == res.evals
        assert verdict.message == f"refinement stagnated (error {res.error:.3e})"

    def test_budget_ends_refinement(self):
        # 225 evaluations pay for the first panel and 1 + 2 + 4 splits; the
        # fourth round can split none
        res, requests = drive(adaptive(0.0, 1.0, 1e-10, 1e-8, 225), error_doubling)
        assert [len(lo) for lo, _ in requests] == [1, 2, 4, 8]
        assert not res.ok and res.value == 1.0 and res.error == 8e-3
        assert res.evals == 225 and res.why == "refinement budget exhausted"
        verdict, _ = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 225, ()), error_doubling)
        assert verdict.status == "inconclusive" and verdict.n_evals == 225
        assert verdict.message == "refinement budget exhausted (error 8.000e-03)"

    def test_stuck_panel_keeps_its_error_and_refinement_goes_on(self):
        # the cut 1e-17 makes a first panel [0, 1e-17] too narrow to split;
        # its error 6e-9 stays under the tolerance 1e-8, so the driver counts
        # it as stuck and splits the next worst panel instead
        def panel(lo, hi):
            return hi - lo, 6e-9 if hi - lo < 1e-15 else 1e-8 * (hi - lo) ** 2

        res, requests = drive(adaptive(0.0, 1.0, 1e-8, 0.0, 100_000, (1e-17,)), panel)
        assert requests == [([0.0, 1e-17], [1e-17, 1.0]), ([1e-17, 0.5], [0.5, 1.0]),
                            ([1e-17, 0.25], [0.25, 0.5])]
        assert res.ok and res.evals == 15 * 6
        assert res.error == pytest.approx(6e-9 + 2.5e-9 + 2 * 6.25e-10, rel=1e-12)
        assert res.error <= 1e-8

    def test_stuck_error_beyond_the_tolerance_ends_refinement(self):
        # the first panel [0, 1e-17] cannot split and holds 2e-8 > tol = 1e-8
        res, requests = drive(adaptive(0.0, 1.0, 1e-8, 0.0, 100_000, (1e-17,)),
                              lambda lo, hi: (hi - lo, 2e-8 if hi - lo < 1e-15 else 0.0))
        assert requests == [([0.0, 1e-17], [1e-17, 1.0])]
        assert not res.ok and res.evals == 30
        assert res.why == "stuck error over tolerance"


def reference_first_panels(edges, values, errors, atol, rtol):
    """_first_panels as it was before _segment took it in: the sum of a
    segment's first panels, with why "" when they miss."""
    used = 15 * (len(edges) - 1)
    if math.inf in values or -math.inf in values:
        return quad._PanelSum(math.inf, math.inf, False, used, "a panel beyond double range")
    total_v = total_e = 0.0
    for v, e in zip(values, errors):
        total_v += v
        total_e += e
    if math.isnan(total_v):
        return quad._PanelSum(total_v, total_e, False, used, "NaN sum")
    ok = total_e <= max(atol, rtol * abs(total_v))
    return quad._PanelSum(total_v, total_e, ok, used, "tolerance met" if ok else "")


def reference_refine(first, edges, values, errors, atol, rtol, budget):
    """_refine as it was before _segment took it in: the error-heap rounds of
    a segment whose first panels missed."""
    total_v, total_e, used = first.value, first.error, first.evals
    heap = [(-e, seq, lo, hi, v, e)
            for seq, (lo, hi, v, e) in enumerate(zip(edges, edges[1:], values, errors))]
    heapq.heapify(heap)
    seq = len(heap)
    stuck_error = 0.0
    stagnation = 0
    last_e = math.inf
    while True:
        if math.isnan(total_v):
            return quad._PanelSum(total_v, total_e, False, used, "NaN sum")
        tol = max(atol, rtol * abs(total_v))
        if total_e <= tol:
            return quad._PanelSum(total_v, total_e, True, used, "tolerance met")
        stagnation = stagnation + 1 if total_e > 0.999 * last_e else 0
        last_e = total_e
        if stagnation >= 24:
            return quad._PanelSum(total_v, total_e, False, used, "refinement stagnated")
        room = min(quad.MAX_ROUND, (budget - used) // 30)
        picked = []
        cover = 0.0
        while heap and len(picked) < room and (not picked or cover < total_e - tol):
            _, _, lo, hi, v, e = heapq.heappop(heap)
            if (hi - lo) <= 8.0 * quad._EPS * max(abs(lo), abs(hi), 1.0):
                stuck_error += e
                if stuck_error > tol:
                    return quad._PanelSum(total_v, total_e, False, used,
                                          "stuck error over tolerance")
                continue
            picked.append((lo, hi, v, e))
            cover += e
        if not picked:
            why = "no panel wide enough to split" if room else "refinement budget exhausted"
            return quad._PanelSum(total_v, total_e, False, used, why)
        lo_ends, hi_ends = [], []
        for lo, hi, _, _ in picked:
            mid = 0.5 * (lo + hi)
            lo_ends += (lo, mid)
            hi_ends += (mid, hi)
        used += 30 * len(picked)
        values, errors = yield lo_ends, hi_ends
        if math.inf in values or -math.inf in values:
            return quad._PanelSum(math.inf, math.inf, False, used, "a panel beyond double range")
        for (lo, hi, v, e), mid, v1, v2, e1, e2 in zip(picked, lo_ends[1::2], values[::2],
                                                       values[1::2], errors[::2], errors[1::2]):
            total_v += (v1 + v2) - v
            total_e += (e1 + e2) - e
            heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
            seq += 2


def reference_adaptive(a, b, atol, rtol, budget, cuts=()):
    """adaptive, run by the two routines that _segment replaced."""
    edges = quad._edges(a, b, cuts)
    values, errors = yield edges[:-1], edges[1:]
    res = reference_first_panels(edges, values, errors, atol, rtol)
    if not res.why:
        res = yield from reference_refine(res, edges, values, errors, atol, rtol, budget)
    return res


_panel_errors = st.one_of(st.floats(1e-9, 1e-2), st.floats(1e-9, 1e-2),
                          st.sampled_from([0.0, 1e-12, 1.0]))
# values near the top of double range make sums that overflow to +-inf
_special_values = st.sampled_from([1.6e308, -1.6e308, math.inf, -math.inf, math.nan])


@settings(max_examples=300, deadline=None)
@given(stream=st.lists(st.tuples(st.floats(-2.0, 2.0), _panel_errors), min_size=1, max_size=40),
       specials=st.lists(st.tuples(st.integers(0, 39), _special_values), max_size=2),
       a=st.sampled_from([0.0, -3.0, 1e5]),
       width=st.sampled_from([1.0, 1e-3, 1e-14, 1e-16]),
       cuts=st.lists(st.sampled_from([1e-17, 0.3, 0.5, 0.5 + 1e-16, 2.0]), max_size=3),
       atol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-4]),
       rtol=st.sampled_from([0.0, 1e-8, 1e-3]),
       extra=st.integers(0, 3000))
# the exits no drawn stream is likely to reach: stagnation (the error grows
# each round), and a panel beyond double range or a NaN in a refinement round
@example([(1.0, 1e-3)], [], 0.0, 1.0, [], 1e-10, 1e-8, 40_000)
@example([(0.5, 1e-2)] * 3, [(3, math.inf)], 0.0, 1.0, [], 1e-12, 0.0, 3000)
@example([(0.5, 1e-2)] * 3, [(3, math.nan)], 0.0, 1.0, [], 1e-12, 0.0, 3000)
def test_segment_matches_first_panels_then_refine(stream, specials, a, width, cuts, atol, rtol,
                                                  extra):
    # each panel takes the next (value, error) of the stream, cycling, so the
    # two drivers see the same values as long as they make the same requests.
    # Widths 1e-14 and 1e-16 and the cut 0.5 + 1e-16 make panels too narrow
    # to split, and extra < 30 leaves a budget below one split.
    for i, value in specials:
        stream[i % len(stream)] = (value, stream[i % len(stream)][1])
    cuts = [a + width * c for c in cuts]
    budget = 15 * (len(quad._edges(a, a + width, cuts)) - 1) + extra
    runs = []
    for gen in (adaptive, reference_adaptive):
        panels = itertools.cycle(stream)
        runs.append(drive(gen(a, a + width, atol, rtol, budget, cuts),
                          lambda lo, hi: next(panels)))
    (res, requests), (ref, ref_requests) = runs
    assert requests == ref_requests
    assert repr(res) == repr(ref)  # repr: NaN sums compare equal, and -0.0 differs from 0.0


def zero_panel(lo, hi):
    return 0.0, 0.0


class TestFirstPanelExits:
    """Each exit at a segment's first panels, on panels valued by hand: the
    requests and the verdict of _finite on [0, 1] and of _exhaust on [1, inf).
    One _exhaust request holds the first panels of its next AHEAD = 4 segments,
    [1, 2], [2, 3], [3, 5] and [5, 9]; n_evals counts the segments consumed."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_panel_beyond_double_range(self, value):
        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 1000, ()),
                            lambda lo, hi: (value, math.inf))
        assert requests == [([0.0], [1.0])]
        assert (v.status, v.n_evals) == ("inconclusive", 15)
        assert v.message == "magnitudes beyond double range on a finite interval"
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, ()),
                            lambda lo, hi: (value, math.inf))
        assert requests == [([1.0, 2.0, 3.0, 5.0], [2.0, 3.0, 5.0, 9.0])]
        assert (v.status, v.n_evals, v.evidence.reason) == ("diverged", 15, "magnitude_threshold")
        assert v.evidence.records == ((2.0, math.inf, math.inf),)

    def test_nan_sum(self):
        # a NaN value with error 0 besides a finite panel
        def panel(lo, hi):
            return (math.nan if lo == 0.5 or lo == 1.5 else 1.0), 0.0

        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 1000, (0.5,)), panel)
        assert requests == [([0.0, 0.5], [0.5, 1.0])]
        assert (v.status, v.n_evals, v.message) == ("inconclusive", 30,
                                                    "the sum on [0, 1] is NaN")
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, (1.5,)), panel)
        assert requests == [([1.0, 1.5, 2.0, 3.0, 5.0], [1.5, 2.0, 3.0, 5.0, 9.0])]
        assert (v.status, v.n_evals, v.message) == ("inconclusive", 30,
                                                    "[1, inf): the sum on [1, 2] is NaN")

    def test_met_tolerance(self):
        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 1000, ()),
                            lambda lo, hi: (hi - lo, 1e-9))
        assert requests == [([0.0], [1.0])]
        assert (v.status, v.value, v.abs_error, v.n_evals) == ("converged", 1.0, 1e-9, 15)
        # zero increments: a calm run, then a power-tail fit with tail 0
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, ()), zero_panel)
        assert requests == [([1.0, 2.0, 3.0, 5.0], [2.0, 3.0, 5.0, 9.0])]
        assert (v.status, v.value, v.abs_error, v.n_evals) == ("converged", 0.0, 0.0, 45)
        assert v.message == "power-law tail extrapolated"

    def test_budget_below_the_first_panels(self):
        # no request at all, or none for the segments that do not fit the
        # budget: the one whose cut needs 30 evaluations, or the third
        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 29, (0.5,)), zero_panel)
        assert requests == []
        assert (v.status, v.n_evals, v.message) == ("inconclusive", 0,
                                                    "budget below the first panels")
        for budget, cuts, expected, n_evals in (
                (14, (), [], 0), (40, (2.5,), [([1.0], [2.0])], 15),
                (50, (2.5,), [([1.0, 2.0, 2.5], [2.0, 2.5, 3.0])], 45)):
            v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, budget, cuts), zero_panel)
            assert requests == expected
            assert (v.status, v.n_evals) == ("inconclusive", n_evals)
            assert v.message == "[1, inf): exhaustion budget ran out without a certificate"

    def test_cuts_inside_a_segment(self):
        # cuts outside the segment or repeated are dropped; each segment keeps its own
        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 1000, (0.5, 2.0, 0.25, 0.5)),
                            lambda lo, hi: (hi - lo, 0.0))
        assert requests == [([0.0, 0.25, 0.5], [0.25, 0.5, 1.0])]
        assert (v.status, v.value, v.abs_error, v.n_evals) == ("converged", 1.0, 0.0, 45)
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, (2.5, 0.5, 1.5, 4.0, 2.5)),
                            zero_panel)
        assert requests == [([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0],
                             [1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 9.0])]
        assert (v.status, v.value, v.n_evals) == ("converged", 0.0, 90)


class TestMagnitudeExit:
    """A segment of _exhaust whose partial is past MAGNITUDE_LIMIT by more than
    its error ends, at its first panels or after some heap rounds, and
    _exhaust issues Diverged by the magnitude rule; a finite interval never
    takes this exit.  Panels valued by hand, as in TestFirstPanelExits."""

    @staticmethod
    def segment(edges, partial, budget=100_000):
        """_segment of [edges[0], edges[-1]] with its first panels requested."""
        values, errors = yield edges[:-1], edges[1:]
        return (yield from quad._segment(edges, values, errors, 1e-10, 1e-8, budget, partial))

    def test_fires_at_the_first_panels(self):
        res, requests = drive(self.segment([1.0, 2.0], 0.0), lambda lo, hi: (1e13, 1e12))
        assert requests == [([1.0], [2.0])]
        assert (res.value, res.error, res.ok, res.evals) == (1e13, 1e12, False, 15)
        assert res.why == "partial past the magnitude limit"
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, ()),
                            lambda lo, hi: (1e13, 1e12))
        assert requests == [([1.0, 2.0, 3.0, 5.0], [2.0, 3.0, 5.0, 9.0])]
        assert (v.status, v.n_evals, v.evidence.reason) == ("diverged", 15, "magnitude_threshold")
        assert v.evidence.records == ((2.0, 1e13, 1e13),)
        assert v.message == "[1, inf): partial integral beyond 1e+12"

    def test_fires_after_heap_rounds(self):
        # on [1, 2] a panel of width w is worth 2e12 w with error 2e12 w^2, so
        # |v| - e is 0 at the first panel, exactly 1e12 (not beyond) after one
        # round and 1.5e12 after the second
        def panel(lo, hi):
            return 2e12 * (hi - lo), 2e12 * (hi - lo) ** 2

        res, requests = drive(self.segment([1.0, 2.0], 0.0), panel)
        assert requests == [([1.0], [2.0]), ([1.0, 1.5], [1.5, 2.0]),
                            ([1.0, 1.25, 1.5, 1.75], [1.25, 1.5, 1.75, 2.0])]
        assert (res.value, res.error, res.evals) == (2e12, 5e11, 105)
        assert res.why == "partial past the magnitude limit"
        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, ()), panel)
        assert len(requests) == 3 and requests[1:] == [([1.0, 1.5], [1.5, 2.0]),
                                                       ([1.0, 1.25, 1.5, 1.75],
                                                        [1.25, 1.5, 1.75, 2.0])]
        assert (v.status, v.n_evals, v.evidence.records) == ("diverged", 105,
                                                              ((2.0, 2e12, 2e12),))

    def test_counts_the_running_partial(self):
        # [1, 2] is 9e11 exactly; [2, 3] adds 2e11 with error 1e9: alone it is
        # far below the limit, but the partial 1.1e12 less 1e9 is beyond it
        def panel(lo, hi):
            return (9e11, 0.0) if lo == 1.0 else (2e11, 1e9)

        v, requests = drive(quad._exhaust(1.0, 1e-10, 1e-8, 1000, ()), panel)
        assert requests == [([1.0, 2.0, 3.0, 5.0], [2.0, 3.0, 5.0, 9.0])]
        assert (v.status, v.n_evals, v.evidence.reason) == ("diverged", 30, "magnitude_threshold")
        assert v.evidence.records == ((2.0, 9e11, 9e11), (3.0, 1.1e12, 2e11))
        # the same segment from partial 0 refines
        res, requests = drive(self.segment([2.0, 3.0], 0.0, budget=45), panel)
        assert len(requests) == 2 and res.why == "refinement budget exhausted"

    @pytest.mark.parametrize("value", [1.0, 2e12, math.inf, math.nan])
    def test_the_first_panel_exits_come_first(self, value):
        # a met tolerance, a panel beyond double range and a NaN sum end the
        # segment as they did before, however far the partial is past the limit
        res, _ = drive(self.segment([1.0, 2.0], 1e13), lambda lo, hi: (value, 0.0))
        assert res.why == {1.0: "tolerance met", 2e12: "tolerance met",
                           math.inf: "a panel beyond double range"}.get(value, "NaN sum")
        assert res.ok == math.isfinite(value) and res.evals == 15

    @pytest.mark.parametrize("partial", [0.0, -6e12])
    def test_does_not_fire_within_the_error(self, partial):
        # a panel of width w is worth 3e12 w with error 2e12: |partial + v| - e
        # is exactly 1e12 at the first panel and falls as the error grows, so
        # the segment refines until its budget of two rounds runs out
        res, requests = drive(self.segment([1.0, 2.0], partial, budget=105),
                              lambda lo, hi: (3e12 * (hi - lo), 2e12))
        assert len(requests) == 3 and res.evals == 105
        assert res.why == "refinement budget exhausted"

    def test_never_fires_on_a_finite_interval(self):
        # a finite piece worth more than 1e12 is Converged, whether it ends at
        # its first panel or refines, and _finite refines past the limit
        big = integrate_adaptive(Family.from_function(lambda x: np.full_like(x, 1e13)), 0.0, 1.0)
        assert big.converged and big.n_evals == 15
        assert abs(big.value - 1e13) <= big.abs_error
        v = integrate_adaptive(Family.from_function(lambda x: 1e13 * np.sqrt(x)), 0.0, 1.0)
        assert v.converged and v.n_evals > 15
        assert abs(v.value - 2e13 / 3.0) <= v.abs_error
        v, requests = drive(quad._finite(0.0, 1.0, 1e-10, 1e-8, 105, ()),
                            lambda lo, hi: (1e13 * (hi - lo), 1e12 * (hi - lo)))
        assert len(requests) == 3
        assert (v.status, v.n_evals) == ("inconclusive", 105)
        assert v.message == "refinement budget exhausted (error 1.000e+12)"


_SEGMENT = quad._segment


def _without_partial(edges, values, errors, atol, rtol, budget, partial=None):
    """_segment as it was before the magnitude exit: the reference driver."""
    return _SEGMENT(edges, values, errors, atol, rtol, budget)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["exp", "power"]),
       rate=st.floats(1e-3, 3.0), power=st.floats(-3.0, 12.0),
       a=st.sampled_from([0.5, 1.0, 3.0]))
def test_magnitude_exit_keeps_the_verdict_for_less_work(kind, rate, power, a):
    # e^(rate u) u^(-power) diverges for every rate > 0; u^power diverges for
    # power >= -1 and converges below.  The exit may only end a segment early:
    # the status and its reason stay, and n_evals never grows
    if kind == "exp":
        fam = Family(lambda u, row=0: (np.ones_like(u), rate * u - power * np.log(u), 0.0))
    else:
        fam = Family(lambda u, row=0: (np.ones_like(u), power * np.log(u), 0.0))
    new = integrate_semi_infinite(fam, a, budget=20_000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_segment", _without_partial)
        ref = integrate_semi_infinite(fam, a, budget=20_000)
    assert new.status == ref.status
    assert new.n_evals <= ref.n_evals
    if new.diverged:
        assert new.evidence.reason == ref.evidence.reason
    else:
        assert new == ref


@pytest.mark.parametrize("workload, segments, missed", [("thm31-report", 4148, 321),
                                                        ("thm33-report", 4790, 645)])
def test_refinement_starts_only_where_the_first_panels_miss(monkeypatch, tmp_path, workload,
                                                            segments, missed):
    # one pass of the benchmark workload at seed 41: 92% (thm31) and 86% (thm33)
    # of the segments end at their first panels and never build the error heap.
    # The thm33 pieces outside its support run no segment (1,656 fewer, each
    # of them one that ended at its first panels), and neither do the thm31
    # right pieces that their declared growth decides (6,207 segments before,
    # 708 of them misses, and 7 that ended at the magnitude exit at their
    # first panels), nor the other pieces of those lines (4,700 segments
    # before, 339 of them misses).  Nor do the thm33 lines that a declared
    # origin power decides (E|f'|^2.1 and E|f'|^2.5: 156 segments before,
    # 48 of them misses).
    # A segment missed them if it split a panel or ended at a rule of the heap
    # rounds; on thm31 each of the 321 that miss ends by its tolerance, none
    # for want of budget
    counts = {"segments": 0, "missed": 0}
    segment = quad._segment
    first_exits = {"tolerance met", "NaN sum", "a panel beyond double range",
                   "partial past the magnitude limit"}

    def counting_segment(edges, *args):
        res = yield from segment(edges, *args)
        counts["segments"] += 1
        counts["missed"] += res.evals > 15 * (len(edges) - 1) or res.why not in first_exits
        return res

    monkeypatch.setattr(quad, "_segment", counting_segment)
    for argv in workload_ops(workload, 41):
        cli.main(argv + ["--out", str(tmp_path)])
    assert counts == {"segments": segments, "missed": missed}


class TestLockstep:
    """A driver whose panels raise ends as it does alone; the others are unaffected."""

    @staticmethod
    def record_calls(monkeypatch):
        calls = []  # (requests in the call, raised)
        real = quad._evaluate

        def recording(form, requests):
            try:
                out = real(form, requests)
            except Exception:
                calls.append((len(requests), True))
                raise
            calls.append((len(requests), False))
            return out

        monkeypatch.setattr(quad, "_evaluate", recording)
        return calls

    def test_nan_member(self, monkeypatch):
        # member 1 turns NaN above x = 0.7; members 0 and 2 oscillate and
        # need many rounds
        freq = np.array([50.0, 1.0, 80.0])

        def log_eval(x, row):
            with np.errstate(invalid="ignore"):
                return (*slog_of(np.where((row == 1) & (x > 0.7), np.nan, np.sin(freq[row] * x))),
                        0.0)

        fam = Family(log_eval, ((), (), ()))
        calls = self.record_calls(monkeypatch)
        together = quad._outcomes([quad._piece(fam, row, 0.0, 10.0, 1e-12, 1e-12, 100_000)
                                   for row in range(3)])
        assert (3, True) in calls  # the first round raised for all three
        alone = [quad._outcomes([quad._piece(fam, row, 0.0, 10.0, 1e-12, 1e-12, 100_000)])[0]
                 for row in range(3)]
        assert isinstance(together[1], EvaluationError)
        assert isinstance(alone[1], EvaluationError)
        assert str(together[1]) == str(alone[1])
        for row in (0, 2):
            assert together[row].converged and together[row] == alone[row]
            exact = (1.0 - math.cos(10.0 * freq[row])) / freq[row]
            assert abs(together[row].value - exact) <= together[row].abs_error
        with pytest.raises(EvaluationError) as raised:
            quad.integrate_pieces(fam, [(row, 0.0, 10.0) for row in range(3)],
                                  atol=1e-12, rtol=1e-12)
        assert str(raised.value) == str(alone[1])

    @staticmethod
    def two_sided_drivers(fam, form_left, atol=1e-11, rtol=1e-9, budget=100_000):
        """Each member on (-inf, -1), (-1, 1) and (1, inf); form_left carries the left
        pieces, at sign -1."""
        drivers = []
        for row in range(len(fam.breakpoints)):
            drivers += [(form_left, row, -1.0,
                         quad._exhaust(1.0, atol, rtol, budget,
                                       form_left.cuts(row, 1.0, math.inf, -1.0))),
                        quad._piece(fam, row, -1.0, 1.0, atol, rtol, budget),
                        quad._piece(fam, row, 1.0, math.inf, atol, rtol, budget)]
        return drivers

    def test_reflected_route_shares_the_parent_call(self, monkeypatch):
        # Gaussian-weighted members that differ on the two sides of 0, with a
        # jump at the breakpoint -2; on a form of their own (a copy of the
        # family) the reflected pieces run in calls of their own
        shift = np.array([0.0, 0.5, -1.5, 3.0])

        def log_eval(x, row):
            sign, logabs = slog_of(np.where(x < -2.0, np.cos(x), x - shift[row]))
            return sign, logabs + gauss_log_pdf(x - shift[row]), 0.0

        fam = Family(log_eval, ((-2.0,),) * shift.size)
        assert quad._piece(fam, 1, -math.inf, -1.0, 1e-11, 1e-9, 100_000)[:3] == (fam, 1, -1.0)
        apart = dataclasses.replace(fam)
        calls = []
        real = quad._gk_panels

        def counting(log_eval, a, b):
            calls.append(a.size)
            return real(log_eval, a, b)

        monkeypatch.setattr(quad, "_gk_panels", counting)
        merged = quad._lockstep([(self.two_sided_drivers(fam, fam), list)])[0]
        n_merged = len(calls)
        separate = quad._lockstep([(self.two_sided_drivers(fam, apart), list)])[0]
        assert merged == separate
        assert all(v.converged for v in merged)
        assert n_merged < len(calls) - n_merged
        for row in range(shift.size):
            (left,) = integrate_pieces(fam, [(row, -math.inf, -1.0)], atol=1e-11, rtol=1e-9)
            assert left == merged[3 * row]

    def test_reflected_nan_member(self, monkeypatch):
        # member 1 turns NaN below x = -1.5, which only its reflected piece
        # (-inf, -1) reaches; every other piece ends as it does alone
        def log_eval(x, row):
            with np.errstate(invalid="ignore"):
                return (*slog_of(np.where((row == 1) & (x < -1.5), np.nan,
                                          np.exp(-0.5 * x * x) * np.sin(3.0 * x + row))), 0.0)

        fam = Family(log_eval, ((), (), ()))
        calls = self.record_calls(monkeypatch)
        together = quad._outcomes(self.two_sided_drivers(fam, fam))
        assert any(n > 1 and raised for n, raised in calls)
        alone = [quad._outcomes([driver])[0]
                 for driver in self.two_sided_drivers(fam, fam)]
        assert isinstance(together[3], EvaluationError)
        assert type(together[3]) is type(alone[3]) and str(together[3]) == str(alone[3])
        others = [i for i in range(9) if i != 3]
        assert all(together[i].converged and together[i] == alone[i] for i in others)

    def test_nan_beyond_where_exhaustion_stops(self, monkeypatch):
        # x^-2.5 on [1, inf) is certified at the end of [3, 5], and the first
        # request also fetches [5, 9], where this body turns NaN above x = 6:
        # the driver then fetches one segment a request and ends as the clean
        # body does.  NaN inside [3, 5] still ends it with the error.
        def body(nan_above):
            def fn(x):
                with np.errstate(invalid="ignore"):
                    return np.where(x > nan_above, np.nan, x ** -2.5)
            return Family.from_function(fn)

        clean = integrate_semi_infinite(Family.from_function(lambda x: x ** -2.5), 1.0)
        assert clean.converged and clean.n_evals == 45
        calls = self.record_calls(monkeypatch)
        assert integrate_semi_infinite(body(6.0), 1.0) == clean
        assert calls == [(1, True), (1, False), (1, False), (1, False)]
        with pytest.raises(EvaluationError, match=r"NaN at x=(np\.float64\()?4\.2"):
            integrate_semi_infinite(body(4.0), 1.0)

    @pytest.mark.parametrize("after_rounds", [0, 1])
    def test_driver_error_outside_its_panels(self, after_rounds):
        # a driver whose own code raises, before its first request or after
        # one round, ends with that error; the driver beside it is unaffected
        fam = Family.from_function(np.cos)

        def failing():
            for _ in range(after_rounds):
                yield [0.0], [1.0]
            raise ArithmeticError("driver bookkeeping failed")

        good = quad._piece(fam, 0, 0.0, 1.0, 1e-12, 1e-12, 100_000)
        alone = quad._outcomes([quad._piece(fam, 0, 0.0, 1.0, 1e-12, 1e-12, 100_000)])[0]
        outcomes = quad._outcomes([(fam, 0, 1.0, failing()), good])
        assert isinstance(outcomes[0], ArithmeticError)
        assert str(outcomes[0]) == "driver bookkeeping failed"
        assert outcomes[1].converged and outcomes[1] == alone
        assert abs(outcomes[1].value - math.sin(1.0)) <= outcomes[1].abs_error
        with pytest.raises(ArithmeticError, match="bookkeeping"):
            quad._lockstep([([(fam, 0, 1.0, failing())], list)])

    def test_past_exp_minus_700_without_neglog_form(self):
        # 1/(x |log x|^i) with no neglog form, on the u = -log x route.
        # Member 0 starts at u = 690 and reaches u > 700 in its fifth segment,
        # while member 1 (i = 1, diverging) and member 2 (i = 3) still run.
        expo = np.array([1.0, 1.0, 3.0])

        def log_eval(x, row):
            lx = np.log(x)
            return np.ones_like(x), -lx - expo[row] * np.log(np.abs(lx)), 0.0

        fam = Family(log_eval, ((), (), ()), singular_points=(0.0,))
        pieces = [(0, 0.0, 1e-300), (1, 0.0, 0.5), (2, 0.0, 0.5)]
        together = quad.integrate_pieces(fam, pieces)
        alone = [quad.integrate_pieces(fam, [piece])[0] for piece in pieces]
        assert together == alone
        assert together[0].status == "inconclusive"
        assert "cannot probe beyond exp(-700)" in together[0].message
        assert together[1].diverged
        assert together[2].converged
        assert together[2].value == pytest.approx(0.5 / math.log(2.0) ** 2, rel=1e-8)

    def test_routes_share_one_call_each_per_round(self):
        # phi(x) / (|x| |log|x||^e) for three exponents, from one body that
        # takes log x: each row runs (0, 0.1) on route 0 and (-inf, -2) and
        # (2, inf) on routes -1 and 1.  Each round calls the body once for
        # route 0 (given lx) and then once for routes +-1.
        expo = np.array([2.0, 3.0, 5.0])
        calls = []

        def log_eval(x, row=0, lx=None):
            calls.append(lx is not None)
            if lx is None:
                lx = np.log(np.abs(x))
            return np.ones_like(lx), -lx - expo[row] * np.log(np.abs(lx)) + gauss_log_pdf(x), 0.0

        def counted(driver, requests):  # the driver, counting the requests it makes
            fam, row, route, gen = driver
            requests[route == 0.0] = 0

            def counting():
                reply = None
                while True:
                    try:
                        request = gen.send(reply)
                    except StopIteration as stop:
                        return stop.value
                    requests[route == 0.0] += 1
                    reply = yield request
            return fam, row, route, counting()

        fam = Family(log_eval, ((),) * expo.size, (0.0,), True)
        pieces = [(row, lo, hi) for row in range(expo.size)
                  for lo, hi in ((0.0, 0.1), (-math.inf, -2.0), (2.0, math.inf))]
        drivers = [quad._piece(fam, row, lo, hi, 1e-12, 1e-10, 100_000) for row, lo, hi in pieces]
        assert [d[2] for d in drivers[:3]] == [0.0, -1.0, 1.0]
        requests = [{} for _ in drivers]
        together = quad._outcomes([counted(d, n) for d, n in zip(drivers, requests)])
        on_u = max(n[True] for n in requests if True in n)  # rounds with a route 0 request
        on_x = max(n[False] for n in requests if False in n)
        both = min(on_u, on_x)
        assert on_u > 1 and on_x > 1
        assert calls == [True, False] * both + [True] * (on_u - both) + [False] * (on_x - both)
        alone = [quad._outcomes([quad._piece(fam, row, lo, hi, 1e-12, 1e-10, 100_000)])[0]
                 for row, lo, hi in pieces]
        assert together == alone
        assert all(v.converged for v in together)


class TestSemiInfinite:
    def test_quartic_tail(self):
        v = integrate_semi_infinite(Family.from_function(lambda x: x ** -4.0), 2.0,
                                    atol=1e-12, rtol=1e-10)
        assert v.converged
        assert v.value == pytest.approx(1.0 / 24.0, abs=1e-9)

    def test_harmonic_tail_diverges(self):
        v = integrate_semi_infinite(Family.from_function(lambda x: 1.0 / x), 2.0)
        assert v.diverged
        recs = v.evidence.records
        partials = [r[1] for r in recs]
        increments = [r[2] for r in recs]
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        tail = increments[-6:]
        assert all(b > a for a, b in zip(tail, tail[1:]))

    def test_step2_quotient_diverges(self, f31):
        # the squared difference quotient of the tail-growth functional is not
        # phi-integrable on [sqrt(2a), inf) for any eps
        q = diffquot_pow_integrand(f31, 2.0, 0.1, 1.0, centered=False)

        def weighted(x, row=0):
            s, l = q.log_eval(x)
            return s, np.asarray(l) + gauss_log_pdf(x), 0.0

        g = Family(weighted)
        v = integrate_semi_infinite(g, math.sqrt(4.0), atol=1e-10, rtol=1e-8)
        assert v.diverged

    def test_segment_beyond_double_range_diverges_by_magnitude(self):
        # e^(2000 (x - 1.5)) is negligible on [0, 1] and beyond double range
        # on [1, 2]: that segment adds +inf, past the magnitude limit
        v = integrate_semi_infinite(
            Family(lambda x, row=0: (np.ones_like(x), 2000.0 * (x - 1.5), 0.0)), 0.0)
        assert v.diverged
        assert v.evidence.reason == "magnitude_threshold"
        assert v.evidence.records[-1] == (2.0, math.inf, math.inf)
        assert v.n_evals == 30

    @pytest.mark.parametrize("singular_points", [(), (0.3,)])
    def test_node_on_a_pole_is_not_divergence(self, singular_points):
        # narrow panels next to the integrable pole at 0.3 put a node on it,
        # and the panel sum turns NaN; that is no evidence of divergence
        fn = inverse_sqrt_distance(0.3, lambda x: np.exp(-x))
        v = integrate_semi_infinite(Family.from_function(fn, singular_points=singular_points),
                                    0.0)
        assert not v.diverged
        if v.converged:
            exact = mp.quad(lambda x: abs(x - 0.3) ** -0.5 * mp.exp(-x), [0, 0.3, mp.inf])
            assert abs(v.value - float(exact)) <= v.abs_error

    @pytest.mark.parametrize("a", [1e-12, 1e-9])
    def test_held_out_prediction_past_double_range_is_no_fit(self, a):
        # from a <= 1e-9 the first edge ratio of the fitted power tail is below
        # 1e-3, and its held-out prediction overflows: the fit is not trusted,
        # and exhaustion goes on to a certificate
        v = integrate_semi_infinite(Family.from_function(lambda x: np.exp(-x ** 5)), a)
        exact = mp.gammainc(mp.mpf(1) / 5, mp.mpf(a) ** 5) / 5
        assert v.converged
        assert abs(v.value - float(exact)) <= v.abs_error

    def test_left_half_line_calm_run_keeps_its_direction(self):
        # -e^(x + |x + 3.3| / 2) on (-inf, -1]: a negative tail with a kink
        # that decays geometrically, so the driver at sign -1 cuts at -3.3 and
        # ends through the calm run with a negative tail estimate.  It equals
        # its mirror image on [1, inf) and the verdict recorded before the
        # cuts were computed once per driver.
        def kinked(m):  # m = 1: the left piece; m = -1: its mirror image
            return Family(lambda x, row=0: (-np.ones_like(x), m * x + 0.5 * np.abs(x + m * 3.3),
                                            0.0), ((-m * 3.3, -m * 0.5),))

        left, right = (integrate_pieces(kinked(m), [piece])[0]
                       for m, piece in ((1.0, (0, -math.inf, -1.0)), (-1.0, (0, 1.0, math.inf))))
        exact = -(2.0 * math.exp(-3.3) + (math.exp(0.15) - math.exp(-3.3)) / 1.5)
        assert (left.status, left.value, left.abs_error, left.n_evals, left.message) == (
            "converged", -0.8237337183538422, 2.4809571010949443e-12, 195, "")
        assert repr(left) == repr(right) and left.n_evals == right.n_evals
        assert abs(left.value - exact) <= left.abs_error


class TestSingularOrigin:
    def test_bertrand_closed_form(self):
        # int_0^{e^-10} dx/(x |log x|^6) = 10^-5 / 5
        v = integrate_singular_origin(bertrand_family((6.0,)), math.exp(-10.0),
                                      atol=1e-18, rtol=1e-11)
        assert v.converged
        assert v.value == pytest.approx(2e-6, rel=1e-9)

    def test_inverse_x_diverges(self):
        v = integrate_singular_origin(Family.from_function(lambda x: 1.0 / x), 0.1)
        assert v.diverged

    def test_cusp_derivative_square_converges(self, f33):
        # |F'|^2 behaves like the Bertrand exponent 6 at the origin: finite
        g = _abs_pow_family(f33, 2.0, True)

        def weighted(x, row=0, lx=None):
            # the weight from log x where the u = -log x route gives it
            s, l = g.log_eval(x, row, lx)
            if lx is None:
                return s, np.asarray(l) + gauss_log_pdf(x), 0.0
            return s, np.asarray(l) - 0.5 * np.exp(2.0 * lx) - 0.5 * math.log(2 * math.pi), 0.0

        gi = Family(weighted, singular_points=(0.0,), logx=True)
        v = integrate_singular_origin(gi, 2e-4)
        assert v.converged
        assert v.value > 0.0

    def test_methods_agree_on_bertrand(self):
        # the u = -log x route against the closed form 10^(1-i) / (i-1)
        for i in range(2, 9):
            b = bertrand_family((float(i),))
            exact = 10.0 ** (1 - i) / (i - 1)
            va = integrate_singular_origin(b, math.exp(-10.0), atol=1e-14, rtol=1e-10)
            assert va.converged
            assert va.value == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("c", [1e-4, 1.9e-4, 1.999e-4])
    def test_substitution_keeps_breakpoints(self, c):
        # a kink at c must be a panel edge in u = -log x as well, or the
        # error can pass the stated bound (by 10^7 at c = 1.999e-4)
        mu = 2e-4
        g = Family.from_function(lambda x: np.abs(x - c), breakpoints=((c,),),
                                 singular_points=(0.0,))
        v = integrate_singular_origin(g, mu, atol=1e-18, rtol=1e-10)
        exact = 0.5 * (c * c + (mu - c) ** 2)
        assert v.converged
        assert abs(v.value - exact) <= v.abs_error

    def test_mu_above_one(self):
        g = Family.from_function(lambda x: x ** -0.5, singular_points=(0.0,))
        v = integrate_singular_origin(g, 4.0)
        assert v.converged
        assert abs(v.value - 4.0) <= v.abs_error


class TestIntegratePiece:
    def test_routes_by_ends(self):
        phi = Family(lambda x, row=0: (np.ones_like(x), gauss_log_pdf(x), 0.0))
        left, right, finite = integrate_pieces(
            phi, [(0, -math.inf, 0.0), (0, 0.0, math.inf), (0, -1.0, 1.0)],
            atol=1e-12, rtol=1e-10)
        for v in (left, right):
            assert v.converged and abs(v.value - 0.5) <= v.abs_error + 1e-12
        assert finite.value == pytest.approx(gauss_mass(1.0), abs=1e-12)
        b = bertrand_family((6.0,))
        mu = math.exp(-10.0)
        (piece,) = integrate_pieces(b, [(0, 0.0, mu)])
        assert repr(piece) == repr(integrate_singular_origin(b, mu))

    def test_left_piece_keeps_breakpoints(self, f33):
        # psi(|X_eps|^2) phi is nonzero only on the gap (-eps, 0) of the piece
        # (-inf, 0); the reflected piece must cut there or its first panel
        # sees nothing and certifies 0
        eps = 5e-5
        table = dvp_uniform_integrability_test(f33, 1.0, EpsilonGrid((eps,))).table
        (below,) = [row.verdict for row in table if row.quantity == "dvp_below"]
        assert below.converged
        log_eval = quad.weighted(_quotient_family(f33, [(None, eps, 1.0, False)])).log_eval

        def value(x):
            sign, logabs = log_eval(np.array([float(x)]))
            return float(sign[0] * math.exp(logabs[0]))

        with mp.workdps(20):
            exact = float(mp.quad(value, [-40.0, -eps, 0.0]))
        assert exact > 1e-7
        assert abs(below.value - exact) <= below.abs_error


def bump_family(lo, hi, declared):
    """(1 - t^2)^3 on (lo, hi), t the position in it from -1 to 1, and exactly
    0 outside: a one-row family that declares (lo, hi) as its support or not.
    1 - t^2 is formed as (x - lo)(hi - x) / half^2, which stays positive
    inside (lo, hi) where t = (x - mid) / half may round past -1."""
    half = 0.5 * (hi - lo)

    def body(x, row=0):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where((x > lo) & (x < hi), 3.0 * np.log((x - lo) * (hi - x) / half ** 2),
                         -np.inf)
        return np.ones_like(x), r, 0.0

    return Family(body, ((lo, hi),), ends=(Ends(support=(lo, hi)),) if declared else None)


class TestDeclaredSupport:
    """A piece wholly outside its row's declared support ends Converged 0 +- 0
    without evaluating; every other piece runs as it does undeclared."""

    @staticmethod
    def assert_same_but_fewer_evals(new, old):
        assert (new.status, new.value, new.abs_error) == (old.status, old.value, old.abs_error)
        assert new.n_evals <= old.n_evals

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(-4.0, 3.0), width=st.floats(0.01, 3.0),
           extra=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
           at_ends=st.booleans(),
           atol=st.sampled_from([1e-12, 1e-10, 1e-7]), rtol=st.sampled_from([1e-10, 1e-6]),
           budget=st.sampled_from([3000, 100_000]))
    @example(lo=-9.2138e-17, width=1.5, extra=[0.0], at_ends=True, atol=1e-12, rtol=1e-10,
             budget=100_000)
    def test_declaring_the_support_changes_nothing_but_evaluations(self, lo, width, extra,
                                                                   at_ends, atol, rtol, budget):
        # the pieces of integrate_pieces end at the support's ends, or may straddle them
        hi = lo + width
        declared, undeclared = bump_family(lo, hi, True), bump_family(lo, hi, False)
        self.assert_same_but_fewer_evals(gaussian_expectation(declared, atol, rtol, budget),
                                         gaussian_expectation(undeclared, atol, rtol, budget))
        edges = sorted({-math.inf, math.inf, *extra, *((lo, hi) if at_ends else ())})
        pieces = [(0, a, b) for a, b in zip(edges, edges[1:])]
        new = integrate_pieces(declared, pieces, atol, rtol, budget)
        old = integrate_pieces(undeclared, pieces, atol, rtol, budget)
        for (_, a, b), v, ref in zip(pieces, new, old):
            self.assert_same_but_fewer_evals(v, ref)
            outside = b <= lo or a >= hi
            assert (v.n_evals == 0) == outside
            assert ("outside the support" in v.message) == outside

    def test_a_piece_outside_makes_no_request(self, monkeypatch):
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda fam, requests: calls.append(requests) or real(fam, requests))
        fam = quad.weighted(bump_family(0.5, 1.5, True))
        assert fam.ends == (Ends(support=(0.5, 1.5)),)  # weighted keeps it
        left, right, far = integrate_pieces(fam, [(0, -math.inf, 0.5), (0, 1.5, math.inf),
                                                  (0, 2.0, 3.0)])
        assert calls == []
        for v in (left, right, far):
            assert v.converged and (v.value, v.abs_error, v.n_evals) == (0.0, 0.0, 0)
        assert left.message == ("(-inf, 0.5) lies outside the support (0.5, 1.5), "
                                "where the integrand is 0")
        (inside,) = integrate_pieces(fam, [(0, 0.0, 1.0)])
        assert len(calls) == 1 and inside.converged and inside.value > 0.0


@pytest.mark.parametrize("part", ["support", "right", "origin"])
def test_one_ends_per_row(part):
    value = {"support": (0.0, 1.0), "right": (0.0, 1.0), "origin": (-1.0, 0.0)}[part]
    with pytest.raises(ValueError, match="one Ends per row"):
        Family(lambda x, row=0: None, ((), ()), ends=(Ends(**{part: value}),))


def growth_family(rows, declared=True):
    """e^(kappa x^2 + beta x) / (1 + x^2), one row per (kappa, beta) of rows,
    with a breakpoint at 1; it declares each row's (kappa, beta) as its growth
    or not."""
    kappa, beta = (np.array(v, dtype=float) for v in zip(*rows))

    def body(x, row=0):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x), beta[row] * x - np.log1p(x * x), kappa[row]

    return Family(body, ((1.0,),) * len(rows),
                  ends=tuple(Ends(right=row) for row in rows) if declared else None)


class TestDeclaredGrowth:
    """A piece (lo, +inf) of a row whose declared growth (kappa, beta) is above
    (0, 0) ends Diverged without evaluating; every other piece runs as it does
    undeclared, and a line (_split) that such a piece ends runs no piece."""

    def test_a_growing_tail_ends_diverged_without_a_request(self, monkeypatch):
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda fam, requests: calls.append(requests) or real(fam, requests))
        fam = growth_family([(0.1, 0.0), (0.0, 0.5), (0.2, -3.0)])
        verdicts = integrate_pieces(fam, [(0, 1.0, math.inf), (1, -2.0, math.inf),
                                          (2, 1e3, math.inf)], budget=0)
        assert calls == []
        for v in verdicts:
            assert v.diverged and v.n_evals == 0
            assert v.evidence == quad.GrowthEvidence((), "declared_growth")
        assert verdicts[1].message == ("[-2, inf): the declared growth (kappa, beta) = (0, 0.5) "
                                       "is not integrable")

    @pytest.mark.parametrize("growth", [(0.0, 0.0), (0.0, -0.5), (-0.1, 4.0), (-1e-3, 0.0), None])
    def test_a_tail_at_or_below_zero_growth_runs_as_undeclared(self, growth):
        rows = [(0.0, 0.0) if growth is None else growth, (0.3, 0.0)]
        fam = growth_family(rows)
        fam = dataclasses.replace(fam, ends=(growth and Ends(right=growth), fam.ends[1]))
        pieces = [(0, 1.0, math.inf), (0, -math.inf, 1.0), (1, -math.inf, 0.0), (1, 0.0, 1.0)]
        new = integrate_pieces(fam, pieces, budget=3000)
        assert new == integrate_pieces(growth_family(rows, False), pieces, budget=3000)
        assert all(v.n_evals > 0 for v in new)

    def test_gaussian_expectation_runs_no_piece_of_a_declared_line(self, monkeypatch):
        # e^(x^2/2 + x/4) (1 + x^2)^-1 against phi: (kappa, beta) = (0, 1/4) after
        # weighting, so the right tail decides the line and no piece is requested
        fam = growth_family([(0.5, 0.25)])
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda form, requests: calls.append(requests) or real(form, requests))
        v = gaussian_expectation(fam)
        assert calls == [] and v.n_evals == 0
        assert v.diverged and v.evidence == quad.GrowthEvidence((), "declared_growth")
        assert v.message == ("piece (1, inf): [1, inf): the declared growth (kappa, beta) = "
                             "(0, 0.25) is not integrable")
        # the verdict of every piece run alone, combined: the same but for n_evals
        monkeypatch.setattr(quad, "_evaluate", real)
        pieces = [(-math.inf, 0.0), (0.0, 1.0), (1.0, math.inf)]
        alone = [integrate_pieces(quad.weighted(fam), [(0, lo, hi)], quad.DEFAULT_ATOL / 3,
                                  budget=quad.DEFAULT_BUDGET // 3)[0] for lo, hi in pieces]
        assert [p.status for p in alone] == ["converged", "converged", "diverged"]
        assert alone[0].n_evals > 0 and alone[1].n_evals > 0
        ref = quad._combine(alone, [f"({lo:g}, {hi:g})" for lo, hi in pieces])
        assert dataclasses.replace(v, n_evals=ref.n_evals) == ref

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                                   st.floats(-1.0, 1.0), st.booleans(),
                                   st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
                                   st.sampled_from([math.inf, math.inf, 4.0])),
                         min_size=1, max_size=4))
    @example(rows=[(0.75, 0.5, True, [0.0], math.inf), (0.5, -0.5, True, [0.0], math.inf),
                   (0.5, 0.5, True, [-1.0, 0.0, 2.0], math.inf), (0.5, 0.5, True, [], 4.0),
                   (0.5, 0.5, True, [], math.inf)])
    def test_a_declared_line_equals_its_pieces_combined(self, rows):
        # one line per row of e^(kappa x^2 + beta x) / (1 + x^2) against phi, cut
        # at random points, ending at +inf or 4, its growth declared or not.  A
        # line whose last piece is declared Diverged runs nothing and names that
        # piece; every other line equals its pieces run alone and combined
        kappa, beta = (np.array(v) for v in zip(*((k, b) for k, b, _, _, _ in rows)))
        requested = set()

        def body(x, row=0):
            requested.update(np.unique(row).tolist())
            return np.ones_like(x), beta[row] * x - np.log1p(x * x), kappa[row]

        fam = quad.weighted(Family(body, ((),) * len(rows),
                                   ends=tuple(Ends(right=(k, b)) if declared else None
                                              for k, b, declared, _, _ in rows)))
        lines = [(row, [-math.inf, *sorted({c for c in cuts if c < end}), end])
                 for row, (_, _, _, cuts, end) in enumerate(rows)]
        atol, budget = 1e-8, 3000
        verdicts = quad._lockstep([quad._split(fam, lines, atol, quad.DEFAULT_RTOL, budget)])[0]
        ran = set(requested)
        for (row, edges), v in zip(lines, verdicts):
            pieces = list(zip(edges, edges[1:]))
            labels = [f"({lo:g}, {hi:g})" for lo, hi in pieces] if len(pieces) > 1 else None
            alone = [integrate_pieces(fam, [(row, lo, hi)], atol / len(pieces),
                                      budget=budget // len(pieces))[0] for lo, hi in pieces]
            k, b, declared, _, end = rows[row]
            skipped = declared and end == math.inf and (k - 0.5, b) > (0.0, 0.0)
            assert (v.n_evals == 0) == skipped
            assert (row in ran) == (not skipped)
            if not skipped:
                assert v == quad._combine(alone, labels)
                continue
            # the declared piece is cited, also where an earlier piece diverges
            ref = quad._combine(alone[-1:] + alone[:-1], labels and labels[-1:] + labels[:-1])
            assert dataclasses.replace(v, n_evals=ref.n_evals) == ref
            assert v.evidence == quad.GrowthEvidence((), "declared_growth")
            if not any(p.diverged for p in alone[:-1]):
                assert dataclasses.replace(v, n_evals=0) == dataclasses.replace(
                    quad._combine(alone, labels), n_evals=0)

    def test_weighted_lowers_kappa_by_one_half(self):
        fam = quad.weighted(growth_family([(0.25, 0.5), (0.6, -1.0)]))
        assert fam.ends == (Ends(right=(-0.25, 0.5)), Ends(right=(0.09999999999999998, -1.0)))
        fam = dataclasses.replace(fam, ends=(None, Ends(right=(1.0, 0.0))))
        assert quad.weighted(fam).ends == (None, Ends(right=(0.5, 0.0)))
        assert quad.weighted(Family.from_function(np.cos)).ends is None
        # the other transforms: pow scales every exponent; shift(s) widens the
        # support by s and adds 2 kappa max(s, 0) to beta, declaring nothing
        # at 0 and, for s = 0, nothing at +inf
        ends = Ends((0.0, 2.0), (0.25, 0.5), (-0.5, 3.0))
        assert ends.weighted() == Ends((0.0, 2.0), (-0.25, 0.5), (-0.5, 3.0))
        assert ends.pow(2.5) == Ends((0.0, 2.0), (0.625, 1.25), (-1.25, 7.5))
        assert ends.shift(0.5) == Ends((-0.5, 2.0), (0.25, 0.75), None)
        assert ends.shift(-0.5) == Ends((0.0, 2.5), (0.25, 0.5), None)
        assert ends.shift(0.0) == Ends((0.0, 2.0), None, None)
        assert ends.shift(-0.5).pow(2.0).weighted() == Ends((0.0, 2.5), (0.0, 1.0), None)
        assert Ends().pow(2.0) == Ends().weighted() == Ends().shift(1.0) == Ends()


def origin_family(sigma, lam, declared=True):
    """x^sigma |log x|^-lam on (0, 1), with its body in log x and the singular
    point 0: a one-row family that declares (sigma, lam) as its power at 0
    or not."""
    def body(x, row=0, lx=None):
        if lx is None:
            with np.errstate(divide="ignore"):
                lx = np.log(np.asarray(x, dtype=float))
        return np.ones_like(lx), sigma * lx - lam * np.log(np.abs(lx)), 0.0

    return Family(body, ((),), (0.0,), True,
                  ends=(Ends(origin=(sigma, lam)),) if declared else None)


class TestDeclaredOrigin:
    """A piece (0, hi) of a row whose declared power (sigma, lam) at 0 is at or
    below (-1, 1) ends Diverged without evaluating; every other piece runs as
    it does undeclared, and a line (_split) with such a piece runs no piece."""

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.one_of(st.just(-1.0), st.floats(-1.5, -0.5)),
           lam=st.one_of(st.just(1.0), st.floats(0.0, 4.0)))
    @example(sigma=-1.25, lam=3.0)
    @example(sigma=-1.0, lam=0.5)
    @example(sigma=-0.75, lam=0.0)
    def test_the_declared_verdict_agrees_with_the_exhaustion(self, sigma, lam):
        (new,) = integrate_pieces(origin_family(sigma, lam), [(0, 0.0, 0.5)], budget=20_000)
        (old,) = integrate_pieces(origin_family(sigma, lam, False), [(0, 0.0, 0.5)],
                                  budget=20_000)
        fired = new.n_evals == 0
        assert fired == (sigma < -1.0 or (sigma == -1.0 and lam <= 1.0))
        if not fired:
            assert new == old
            return
        assert new.diverged and new.evidence == quad.GrowthEvidence((), "declared_growth")
        assert new.message == (f"(0, 0.5): the declared origin power (sigma, lam) = "
                               f"({sigma:g}, {lam:g}) is not integrable")
        # wherever the exhaustion certifies, it agrees.  Just below sigma = -1
        # it may certify Converged before x^(sigma + 1) = e^((-1 - sigma) u)
        # outgrows u^-lam (near u = lam / (-1 - sigma)): the late-revival gap
        # of the undeclared route, where only the declaration is right
        assert not old.converged or -1.01 < sigma < -1.0

    def test_a_divergent_origin_ends_diverged_without_a_request(self, monkeypatch):
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda fam, requests: calls.append(requests) or real(fam, requests))
        fam = quad.weighted(origin_family(-1.5, 9.0))
        assert fam.ends == (Ends(origin=(-1.5, 9.0)),)  # weighted keeps it
        (v,) = integrate_pieces(fam, [(0, 0.0, 2e-4)], budget=0)
        assert calls == [] and v.n_evals == 0 and v.diverged
        assert v.message == ("(0, 0.0002): the declared origin power (sigma, lam) = (-1.5, 9) "
                             "is not integrable")
        # the declaration speaks of 0+ only: other pieces run as undeclared
        pieces = [(0, 1e-3, 0.5), (0, 0.5, 0.9)]
        assert integrate_pieces(fam, pieces) == integrate_pieces(without(fam, "origin"), pieces)
        assert len(calls) > 0

    def test_a_line_with_a_declared_piece_runs_no_piece(self, monkeypatch):
        # x^-1.25 |log x|^-2 on (0, 1/2), 0 below 0 and above 1/2: the line's
        # second piece is declared Diverged, so the line runs nothing and
        # equals its pieces run alone and combined, but for n_evals
        def body(x, row=0, lx=None):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                if lx is None:
                    lx = np.where(x > 0.0, np.log(x), np.nan)
                r = -1.25 * lx - 2.0 * np.log(np.abs(lx))
            return np.ones_like(x), np.where(lx < -math.log(2.0), r, -np.inf), 0.0

        fam = Family(body, ((0.5,),), (0.0,), True, ends=(Ends(origin=(-1.25, 2.0)),))
        calls = []
        real = quad._evaluate
        monkeypatch.setattr(quad, "_evaluate",
                            lambda form, requests: calls.append(requests) or real(form, requests))
        v = gaussian_expectation(fam)
        assert calls == [] and v.n_evals == 0
        assert v.diverged and v.evidence == quad.GrowthEvidence((), "declared_growth")
        assert v.message == ("piece (0, 0.5): (0, 0.5): the declared origin power (sigma, lam) "
                             "= (-1.25, 2) is not integrable")
        monkeypatch.setattr(quad, "_evaluate", real)
        pieces = [(-math.inf, 0.0), (0.0, 0.5), (0.5, math.inf)]
        undeclared = quad.weighted(without(fam, "origin"))
        alone = [integrate_pieces(undeclared, [(0, lo, hi)], quad.DEFAULT_ATOL / 3,
                                  budget=quad.DEFAULT_BUDGET // 3)[0] for lo, hi in pieces]
        assert [p.status for p in alone] == ["converged", "diverged", "converged"]
        ref = quad._combine(alone, [f"({lo:g}, {hi:g})" for lo, hi in pieces])
        assert (v.status, v.value, v.abs_error) == (ref.status, ref.value, ref.abs_error)


def test_a_whole_line_piece_is_refused_before_evaluating(monkeypatch):
    # (-inf, inf) has no route: exhausting it from a = -inf gave x = NaN
    calls = []
    real = quad._evaluate
    monkeypatch.setattr(quad, "_evaluate",
                        lambda fam, requests: calls.append(requests) or real(fam, requests))
    fam = Family.from_function(lambda x: np.exp(-x * x))
    with pytest.raises(ValueError, match=r"the piece \(-inf, inf\) is the whole line"):
        integrate_pieces(fam, [(0, -math.inf, math.inf)])
    assert calls == []
    # a declaration that decides it still answers it
    fam = dataclasses.replace(fam, ends=(Ends(right=(1.0, 0.0)),))
    (v,) = integrate_pieces(fam, [(0, -math.inf, math.inf)])
    assert v.diverged and v.n_evals == 0 and calls == []


class TestCalmAtZeroTolerance:
    """At atol = 0 an exact-zero increment counts as calm: tol = rtol |partial|
    is 0 while the partial is 0."""

    def test_half_line_indicator(self):
        # P(W > 0) = 1/2: the piece (-inf, 0) is exactly 0, and ran 60
        # segments into Inconclusive
        v = gaussian_expectation(Family.from_function(lambda x: np.where(x > 0, 1.0, 0.0)),
                                 atol=0.0)
        assert v.converged and abs(v.value - 0.5) <= v.abs_error

    def test_exact_zero_left_half_line(self):
        (v,) = integrate_pieces(quad.weighted(Family.from_function(np.zeros_like)),
                                [(0, -math.inf, 0.0)], atol=0.0)
        assert v.converged and (v.value, v.abs_error) == (0.0, 0.0)
        assert v.n_evals == 3 * 15  # CALM_RUN segments of one panel


class TestBudgetCap:
    @pytest.mark.parametrize("budget", [1, 14, 30, 300, 1000])
    def test_evaluations_within_budget(self, budget):
        # no route evaluates a panel it cannot pay for; below one panel
        # (15 evaluations) none evaluates anything
        fast = Family.from_function(lambda x: np.sin(1e3 * x) / (1.0 + x * x))
        runs = [
            integrate_adaptive(fast, 0.0, 1.0, atol=1e-14, rtol=1e-14, budget=budget),
            integrate_semi_infinite(fast, 2.0, atol=1e-14, rtol=1e-14, budget=budget),
            integrate_singular_origin(Family.from_function(lambda x: np.sin(1.0 / x)), 0.5,
                                      atol=1e-14, rtol=1e-14, budget=budget),
            gaussian_expectation(fast, atol=1e-14, rtol=1e-14, budget=budget),
        ]
        for v in runs:
            assert v.status == "inconclusive"
            assert v.n_evals <= budget
            if budget < 15:
                assert v.n_evals == 0

    # on [1, inf): a converging power tail, a diverging exponential, and
    # u^-6 e^(alpha u), which diverges after a long dip
    EXHAUSTED = (Family.from_function(lambda x: x ** -2.5),
                 Family.from_function(lambda x: np.exp(0.05 * x)),
                 Family(lambda u, row=0: (np.ones_like(u), 1e-3 * u - 6.0 * np.log(u), 0.0)))

    @staticmethod
    def counted(gen, points):
        """The driver gen, appending the points of each request it makes to points."""
        reply = None
        while True:
            try:
                lo, hi = gen.send(reply)
            except StopIteration as stop:
                return stop.value
            points.append(15 * len(lo))
            reply = yield lo, hi

    @settings(max_examples=80, deadline=None)
    @given(budget=st.integers(15, 3000), rtol=st.sampled_from([1e-6, 1e-10, 1e-13]),
           cuts=st.lists(st.floats(1.0, 40.0), max_size=4))
    def test_exhaustion_evaluates_at_most_its_budget(self, budget, rtol, cuts):
        # the points a driver's requests evaluate, the look-ahead panels it
        # never consumed included, stay within its budget; n_evals counts
        # only the consumed ones.  Each segment gets what the points
        # requested so far leave of the budget, its own first panels given back
        segment = quad._segment

        def checked(edges, values, errors, atol, rtol, seg_budget, partial=None):
            assert seg_budget == budget - sum(points) + 15 * (len(edges) - 1)
            return (yield from segment(edges, values, errors, atol, rtol, seg_budget, partial))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "_segment", checked)
            for fam in self.EXHAUSTED:
                points = []
                driver = self.counted(quad._exhaust(1.0, 1e-12, rtol, budget, cuts), points)
                (v,) = quad._outcomes([(fam, 0, 1.0, driver)])
                assert v.n_evals <= sum(points) <= budget

    def test_whole_budget_is_spent(self):
        # three pieces at 45 evaluations: one 15-point panel each
        g = Family.from_function(np.ones_like, breakpoints=((1.0,),))
        v = gaussian_expectation(g, atol=1e-14, rtol=1e-14, budget=45)
        assert v.n_evals == 45


class TestGaussianExpectation:
    def test_second_moment(self):
        v = gaussian_expectation(Family.from_function(lambda x: x * x),
                                 atol=1e-12, rtol=1e-11)
        assert v.value == pytest.approx(1.0, abs=1e-10)

    def test_fourth_moment(self):
        v = gaussian_expectation(Family.from_function(lambda x: x ** 4),
                                 atol=1e-12, rtol=1e-11)
        assert v.value == pytest.approx(3.0, abs=1e-10)

    def test_tail_growth_square_matches_closed_form(self, f31):
        # |f|^2 phi is exactly x^-2a above the breakpoint and the bounded
        # completion squared below it: v0^2 Phi(2) + 1/24
        g = _abs_pow_family(f31, 2.0, False)
        v = gaussian_expectation(g, atol=1e-11, rtol=1e-9)
        v0 = float(f31.value(2.0))
        exact = v0 * v0 * 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0))) + 1.0 / 24.0
        assert v.converged
        assert v.value == pytest.approx(exact, rel=1e-8)

    def test_overflow_on_finite_piece_is_inconclusive(self):
        # magnitudes beyond double range on a bounded piece certify nothing
        g = Family(lambda x, row=0: (np.ones_like(x), 1000.0 + 0 * x, 0.0))
        assert integrate_adaptive(g, -1.0, 1.0).status == "inconclusive"

    def test_node_on_a_pole_is_not_divergence(self):
        # E|W - 0.3|^(-1/2) is finite; a node on the pole gives a NaN sum
        v = gaussian_expectation(Family.from_function(inverse_sqrt_distance(0.3)))
        assert not v.diverged
        if v.converged:
            exact = mp.quad(lambda x: abs(x - 0.3) ** -0.5 * mp.npdf(x), [-mp.inf, 0.3, mp.inf])
            assert abs(v.value - float(exact)) <= v.abs_error

    def test_declared_singularity_at_zero_is_not_divergence(self):
        # E|W|^(-1/2) = Gamma(1/4) / (2^(1/4) sqrt(pi)); the pieces next to
        # the declared singular point run out of segments without a certificate
        v = gaussian_expectation(Family.from_function(inverse_sqrt_distance(0.0),
                                                      singular_points=(0.0,)))
        assert not v.diverged
        if v.converged:
            exact = math.gamma(0.25) / (2.0 ** 0.25 * math.sqrt(math.pi))
            assert abs(v.value - exact) <= v.abs_error

    def test_odd_moment_is_zero(self):
        v = gaussian_expectation(Family.from_function(lambda x: x ** 3),
                                 atol=1e-10, rtol=1e-9)
        assert v.converged
        assert abs(v.value) <= 1e-10


class TestOneRow:
    """The single-verdict functions integrate one row; a body's row defaults to 0."""

    @pytest.mark.parametrize("run", [
        lambda g: integrate_adaptive(g, 0.0, 1.0),
        lambda g: integrate_semi_infinite(g, 2.0),
        lambda g: integrate_singular_origin(g, 0.1),
        lambda g: gaussian_expectation(g),
    ], ids=["adaptive", "semi_infinite", "singular_origin", "gaussian_expectation"])
    def test_more_than_one_row_rejected(self, run):
        # rejected before any evaluation, not integrated as row 0 alone
        calls = []

        def log_eval(x, row=0):
            calls.append(x.size)
            return np.ones_like(x), -2.0 * np.log1p(np.abs(x)), 0.0

        for rows in ((), ((), ()), ((0.5,), (0.5,), ())):
            with pytest.raises(ValueError, match="one-row family"):
                run(Family(log_eval, rows))
        assert not calls
        assert run(Family(log_eval)).converged
        assert calls

    def test_one_argument_call_is_row_0(self, f31, f33):
        # log_eval(x) equals the explicit row 0 bit for bit
        x = np.concatenate([np.linspace(-4.0, 12.0, 161), np.geomspace(1e-9, 0.9, 40)])
        bodies = {"from_function": Family.from_function(lambda x: np.sin(x) / (1.0 + x * x)),
                  "bertrand": bertrand_family((6.0,))}
        for f in (f31, f33):
            bodies[f"diffquot[{f.name}]"] = diffquot_pow_integrand(f, 2.0, 0.125, 1.0, True)
            bodies[f"abs_pow[{f.name}]"] = _abs_pow_family(f, 2.0, True)
        assert bodies["bertrand"].logx
        assert not bodies["from_function"].logx
        for name in list(bodies):
            bodies[f"weighted({name})"] = quad.weighted(bodies[name])
        with np.errstate(all="ignore"):
            for name, g in bodies.items():
                for one, explicit in zip(g.log_eval(x), g.log_eval(x, 0)):
                    np.testing.assert_array_equal(one, explicit, err_msg=name)


class TestVerdictProperties:
    def test_monotone_divergence(self):
        # nested nonnegative integrands: if the smaller diverges so does the larger
        verdicts = {}
        for i in (1.0, 0.75, 0.5):
            verdicts[i] = integrate_singular_origin(bertrand_family((i,)), 0.1)
        assert verdicts[1.0].diverged  # smallest of the three on (0, 0.1)
        assert verdicts[0.75].diverged
        assert verdicts[0.5].diverged

    def test_linearity_under_converged(self):
        base = integrate_semi_infinite(Family.from_function(lambda x: x ** -4.0), 2.0,
                                       atol=1e-12, rtol=1e-10)
        for alpha in (2.0, 10.0):
            scaled = integrate_semi_infinite(
                Family.from_function(lambda x, a=alpha: a * x ** -4.0), 2.0,
                atol=1e-12, rtol=1e-10)
            tol = alpha * base.abs_error + scaled.abs_error
            assert abs(scaled.value - alpha * base.value) <= tol + 1e-14

    def test_no_verdict_flip_under_tightening(self, f31, f33):
        # the acceptance catalog keeps its verdicts when tolerances tighten 10x
        cases = [
            (lambda a, r: integrate_semi_infinite(
                Family.from_function(lambda x: x ** -4.0), 2.0, atol=a, rtol=r), True),
            (lambda a, r: integrate_singular_origin(
                bertrand_family((6.0,)), math.exp(-10.0), atol=a, rtol=r), True),
            (lambda a, r: integrate_singular_origin(
                bertrand_family((1.0,)), 0.1, atol=a, rtol=r), False),
            (lambda a, r: gaussian_expectation(
                _abs_pow_family(f31, 2.0, False),
                atol=a, rtol=r), True),
            (lambda a, r: gaussian_expectation(
                _abs_pow_family(f33, 2.1, True),
                atol=a, rtol=r), False),
        ]
        for run, expect_converged in cases:
            loose = run(1e-10, 1e-8)
            tight = run(1e-11, 1e-9)
            assert loose.converged == expect_converged
            assert tight.status == loose.status
            if expect_converged:
                old_tol = max(1e-10, 1e-8 * abs(loose.value))
                assert abs(tight.value - loose.value) <= old_tol + loose.abs_error

    def test_converged_error_contract(self):
        # Converged implies abs_error <= max(atol, rtol |value|)
        atol, rtol = 1e-11, 1e-9
        v = integrate_semi_infinite(Family.from_function(lambda x: x ** -4.0), 2.0,
                                    atol=atol, rtol=rtol)
        assert v.converged
        assert v.abs_error <= max(atol, rtol * abs(v.value))


def _bisecting_fit(u_edges, increments):
    """_fit_power_tail as it was before the early stop: it always bisects p
    down to adjacent doubles.  The oracle of TestPowerTailFit."""
    if len(increments) < 3:
        return math.inf, math.inf
    u0, u1, u2, u3 = u_edges[-4:]
    i0, i1, i2 = increments[-3:]
    if min(i0, i1, i2) <= 0.0:
        if max(abs(i0), abs(i1), abs(i2)) == 0.0:
            return 0.0, 0.0
        return math.inf, math.inf

    def ratio_of(p):  # I(u2->u3) / I(u1->u2) under the power model, in ratio form
        qq = 1.0 - p
        a2 = (u2 / u1) ** qq
        a3 = (u3 / u1) ** qq
        den = 1.0 - a2
        if den <= 0.0:
            return math.inf
        return (a2 - a3) / den

    target = i2 / i1
    lo_p, hi_p = 1.01, 80.0
    r_lo, r_hi = ratio_of(lo_p), ratio_of(hi_p)
    if not (math.isfinite(r_lo) and r_hi <= target <= r_lo):
        return math.inf, math.inf
    for _ in range(120):
        mid = 0.5 * (lo_p + hi_p)
        if mid == lo_p or mid == hi_p:
            break  # adjacent doubles: the bracket cannot shrink further
        if ratio_of(mid) > target:
            lo_p = mid
        else:
            hi_p = mid
    p = 0.5 * (lo_p + hi_p)
    qq = 1.0 - p
    b = (u2 / u3) ** qq  # > 1
    if not b > 1.0:
        return math.inf, math.inf
    tail = i2 / (b - 1.0)
    a2, a3 = (u2 / u1) ** qq, (u3 / u1) ** qq
    predicted_prev = i2 * ((u0 / u1) ** qq - 1.0) / (a2 - a3)
    mismatch = abs(predicted_prev - i0) / max(abs(i0), 1e-300)
    return tail, mismatch


class TestPowerTailFit:
    """The early-stopping fit certifies exactly the fits the full bisection
    certifies, with the same bits."""

    @staticmethod
    def case(a, k, p, scale, noise, draws, kind):
        # the edges a, a + 1, a + 2, ... of exhaustion up to a + 2^(k+1), and
        # the increments of c u^(1-p) / (p-1) between them, each moved by noise
        edges = [a] + [a + 2.0 ** j for j in range(k + 2)]
        qq = 1.0 - p
        increments = [scale * (lo ** qq - hi ** qq) / (p - 1.0) * (1.0 + noise * d)
                      for lo, hi, d in zip(edges, edges[1:], draws)]
        if kind == "zero":
            increments[-3:] = [0.0, 0.0, 0.0]
        elif kind == "negative":
            increments[-1 - k % 3] *= -1.0  # one of the fitted three
        return edges, increments

    @given(a=st.floats(1e-6, 50.0), k=st.integers(1, 24),
           p=st.floats(1.05, 40.0), scale=st.floats(1e-6, 1e6),
           noise=st.sampled_from([0.0, 1e-7, 1e-5, 1e-3, 1e-1]),
           draws=st.lists(st.floats(-1.0, 1.0), min_size=26, max_size=26),
           kind=st.sampled_from(["power"] * 8 + ["zero", "negative"]))
    @settings(max_examples=1500, deadline=None)
    def test_certifies_as_the_full_bisection(self, a, k, p, scale, noise, draws, kind):
        edges, increments = self.case(a, k, p, scale, noise, draws, kind)
        fast = quad._fit_power_tail(edges, increments)
        full = _bisecting_fit(edges, increments)
        assert (fast[1] < quad.FIT_MISMATCH) == (full[1] < quad.FIT_MISMATCH)
        if full[1] < quad.FIT_MISMATCH:
            assert [x.hex() for x in fast] == [x.hex() for x in full]

    def test_exact_power_laws_are_certified(self):
        # without noise the held-out check passes, so the early stop never fires
        for a, p in ((0.5, 1.05), (2.0, 3.0), (8.5, 6.0), (50.0, 40.0)):
            edges, increments = self.case(a, 6, p, 1.0, 0.0, [0.0] * 26, "power")
            fast = quad._fit_power_tail(edges, increments)
            assert fast == _bisecting_fit(edges, increments)
            assert fast[1] < quad.FIT_MISMATCH
