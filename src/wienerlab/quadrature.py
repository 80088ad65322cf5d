"""Adaptive quadrature with an explicit three-way verdict.

Every expectation the diagnostics need reduces to one-dimensional integrals
over finite, semi-infinite or origin-singular domains.  The integrands mix
exp(+x^2/4)-scale factors with the Gaussian weight exp(-x^2/2), so panels are
evaluated in (sign, log) form and rescaled by the panel's largest
log-magnitude before the Gauss-Kronrod sums are formed.

A verdict is Converged (certified value and error), Diverged (a recorded run
of monotonically growing increments over domain exhaustion, or a partial
beyond the magnitude threshold), or Inconclusive (budget ran out with neither
certificate).  Divergence is a verdict, not an exception: "the integral is
infinite" is rendered as certified unbounded growth at desk scale.

Semi-infinite domains are exhausted along R_k = a + 2^k; integrals singular
at the origin substitute u = -log x, which turns the Bertrand scale
1/(x |log x|^i) into u^(-i) and makes origin exhaustion geometric as well.
_piece picks the route of each piece of the line from its ends: x = route * t
on route +-1 (-1 for the left half-line), x = e^-t on route 0.

Every integrand is a Family; Family(body) is an integrand of one row.  Every
body gives its log as k x^2 + r with a Gaussian rate k (0 for most), and
weighted forms the quadratic parts of the integrand and of phi as one, so an
exp(x^2/4)-scale f squared meets exp(-x^2/2) without x^2-sized logs.

The drivers (_finite, _exhaust) are generators that hold only numbers in t:
they yield panel requests and receive the panels' values as lists, made once
per integrand call.  _segment sums a segment's first panels and bisects
while they miss, unless an exhaustion's partial with that sum is past
MAGNITUDE_LIMIT by more than the sum's error.  One _exhaust request fetches
the first panels of its next AHEAD segments, so a segment that ends at them
costs no round of its own; the panels fetched ahead are reserved from a
segment's budget, so the budget caps the points evaluated, and n_evals
counts those consumed.  A job is a list of drivers and a join that turns
their verdicts into results.
_lockstep moves the drivers of all its jobs forward together: each round,
one integrand call per Family serves routes +-1 of every member, and one
more route 0, whose nodes _evaluate maps to x, so the quotient rows of a
report, on one Family, pay two calls a round in all.  An error raised by a
driver's own panels is raised in that driver.  The single-verdict functions
are one-row calls of integrate_pieces or _expectation_job.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .slog import slog_of

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8
DEFAULT_BUDGET = 100_000
GROWTH_RUN = 6          # consecutive growing increments certify divergence
MAX_ROUND = 64          # panels split per round of _segment (bounds peak memory)
MAX_POINTS = 2 * MAX_ROUND * 15  # points per integrand call of _outcomes
CALM_RUN = 3            # consecutive sub-tolerance increments allow convergence
MAGNITUDE_LIMIT = 1e12  # partials beyond this certify divergence
MAX_DOUBLINGS = 60
AHEAD = 4               # segments whose first panels one _exhaust request fetches

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def gauss_log_pdf(x, rate=0.0):
    """log phi(x) + rate x^2, the two quadratic parts formed as one, (rate - 1/2) x^2."""
    x = np.asarray(x, dtype=float)
    return (rate - 0.5) * x * x - LOG_SQRT_2PI


# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_HALF_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_HALF_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_HALF_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

X15 = np.concatenate([-_HALF_NODES, [0.0], _HALF_NODES[::-1]])
W15 = np.concatenate([_HALF_WGK, [_WGK_CENTER], _HALF_WGK[::-1]])
GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
W7 = np.concatenate([_HALF_WG, [_WG_CENTER], _HALF_WG[::-1]])

_EPS = float(np.finfo(float).eps)
_MIN_DOUBLE = float(np.finfo(float).min)


class EvaluationError(ValueError):
    """The integrand produced NaN inside its domain."""


@dataclass(frozen=True, eq=False)
class Family:
    """Integrands g_0, ..., g_{n-1} with one body, evaluated in one call.

    body(x, row=0) -> (sign, r, k), vectorized, with log|g_row(x)| =
    k x^2 + r and k the Gaussian rate (one number, or one per point); row
    holds the member index of each point (an int array shaped like x, or
    one int).  A body with logx set also takes body(x, row, lx) and reads
    log x from lx = log x, which lets route 0 (u = -log x) probe x far below
    the smallest positive double (where x itself underflows to 0).
    log_eval adds k x^2, and weighted adds (k - 1/2) x^2, which is exactly 0
    where k = 1/2.  breakpoints[i] are the breakpoints of g_i; the singular
    points are shared.  Family(body) is an integrand of one row, on every route.
    """

    body: Callable
    breakpoints: tuple = ((),)
    singular_points: tuple = ()
    logx: bool = False
    # not a field: the benchmark tracer (perfbench/tracer.py) reads it from every family
    neglog_eval = None

    def log_eval(self, x, row=0, *lx):
        """(sign, log|g_row(x)|) at x (and lx = log x, if logx)."""
        x = np.asarray(x, dtype=float)
        sign, r, k = self.body(x, row, *lx)
        return sign, r + k * x * x

    @classmethod
    def from_function(cls, fn, **kw) -> "Family":
        """The one-row family of an ordinary value-returning function."""
        def body(x, row=0):
            return (*slog_of(fn(np.asarray(x, dtype=float))), 0.0)
        return cls(body, **kw)

    def cuts(self, row: int, a: float, b: float, route: float = 1.0) -> list:
        """Member row's cuts inside (a, b) in the variable t of a route: on
        route +-1 (x = route * t) its break and singular points p as route * p,
        on route 0 (x = e^-t) its breakpoints p in (0, 1) as -log p."""
        if route:
            pts = [route * p for p in (*self.breakpoints[row], *self.singular_points)]
        else:
            pts = [-math.log(p) for p in self.breakpoints[row] if 0.0 < p < 1.0]
        return [p for p in pts if a < p < b]


# the benchmark tracer (perfbench/tracer.py) patches quadrature.Integrand.__init__
Integrand = Family


def _one_row(g: Family) -> Family:
    """g, checked to have one row: the single-verdict functions integrate row 0."""
    if len(g.breakpoints) != 1:
        raise ValueError(f"need a one-row family, got {len(g.breakpoints)} rows")
    return g


def bertrand_family(exponents) -> Family:
    """1 / (x |log x|^e) on (0, 1) for each e in exponents; converges at 0 iff
    e > 1.  The convergence yardstick for everything singular at the origin;
    its body takes log x (logx), so at lx = -u it is exactly u - e*log(u)."""
    exponents = np.array(exponents, dtype=float)

    def body(x, row=0, lx=None):
        if lx is None:
            with np.errstate(divide="ignore"):
                lx = np.log(np.asarray(x, dtype=float))
        return np.ones_like(lx), -lx - exponents[row] * np.log(np.abs(lx)), 0.0

    return Family(body, ((),) * exponents.size, (0.0,), True)


class Verdict:
    CONVERGED = "converged"
    DIVERGED = "diverged"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GrowthEvidence:
    """(boundary, partial integral, increment) per exhaustion step."""

    records: tuple
    reason: str  # "increment_growth" or "magnitude_threshold"


@dataclass(frozen=True)
class IntegralVerdict:
    status: str
    value: Optional[float] = None
    abs_error: Optional[float] = None
    evidence: Optional[GrowthEvidence] = None
    n_evals: int = 0
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == Verdict.CONVERGED

    @property
    def diverged(self) -> bool:
        return self.status == Verdict.DIVERGED

    def __repr__(self):
        if self.converged:
            return f"IntegralVerdict(converged, {self.value!r} +- {self.abs_error:.2e})"
        return f"IntegralVerdict({self.status}, {self.message!r})"


def _converged(value, abs_error, n_evals, message=""):
    return IntegralVerdict(Verdict.CONVERGED, value=float(value), abs_error=float(abs_error),
                           n_evals=n_evals, message=message)


def _diverged(records, reason, n_evals, message=""):
    return IntegralVerdict(Verdict.DIVERGED, evidence=GrowthEvidence(tuple(records), reason),
                           n_evals=n_evals, message=message)


def _inconclusive(n_evals, message=""):
    return IntegralVerdict(Verdict.INCONCLUSIVE, n_evals=n_evals, message=message)


def _gk_panels(log_eval, a, b):
    """k 15-point panels [a_i, b_i] in one log_eval call on a (k, 15) grid.

    Each panel is rescaled by its own largest log-magnitude before the
    Kronrod and Gauss sums are formed.  Returns arrays (value, error); a
    panel with magnitudes beyond double range has value +-inf and error inf,
    which the exhaustion drivers treat as divergence evidence.  The row sums
    are reductions along the last axis, so a panel's result does not depend
    on the other panels of the call.
    """
    hw = 0.5 * (b - a)
    x = np.multiply.outer(hw, X15)
    x += (0.5 * (a + b))[:, None]
    sign, logabs = log_eval(x.ravel())
    logabs = np.asarray(logabs, dtype=float).reshape(x.shape)
    m = logabs.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # rows of zeros (m = -inf) shift by the most negative double instead
        y = np.exp(logabs - np.maximum(m, _MIN_DOUBLE)[:, None])
        y = (sign * y.ravel()).reshape(x.shape)
        yw = y * W15
        resk = yw.sum(axis=1)
        resabs = np.abs(yw, out=yw).sum(axis=1)
        resg = (y[:, GAUSS_IDX] * W7).sum(axis=1)
        if np.isnan(resk).any():
            nan = np.isnan(sign) | np.isnan(logabs.ravel())
            if nan.any():
                raise EvaluationError(f"integrand returned NaN at x={x.ravel()[nan][0]!r}")
        y -= 0.5 * resk[:, None]
        asc = (np.abs(y, out=y) * W15).sum(axis=1)
        # QUADPACK's error scaling; asc = 0 leaves only the roundoff floor
        err = np.maximum(asc * np.fmin(1.0, (200.0 * np.abs(resk - resg) / asc) ** 1.5),
                         50.0 * _EPS * resabs)
        hot = m + np.log(np.maximum(hw * resabs, 1e-300)) > 705.0
        scale = np.exp(m) * hw
    value = scale * resk
    error = scale * err
    if hot.any():
        value[hot] = np.copysign(math.inf, resk[hot])
        error[hot] = math.inf
    return value, error


@dataclass
class _PanelSum:
    value: float  # +inf when a panel is beyond double range
    error: float
    ok: bool      # error target met
    evals: int    # evaluations spent
    why: str      # the exit that fired


def _edges(a: float, b: float, cuts) -> list:
    """The edges of a segment's first panels: a, the cuts inside (a, b), b."""
    inside = [c for c in cuts if a < c < b]
    return [a, *sorted(set(inside)), b] if inside else [a, b]


def _segment(edges, values, errors, atol: float, rtol: float, budget: int,
             partial: Optional[float] = None):
    """One segment, as QUADPACK's QAG takes it: the sum of its first panels
    (one per piece between the edges, given as values and errors), then
    globally adaptive bisection while the sum misses the tolerance.

    A generator: it yields panel requests (lo, hi), receives the panels'
    (value, error) as lists and returns a _PanelSum whose why names the exit
    that fired.  Each round pops the worst panels from an error heap until
    their errors cover the excess of the total error over the tolerance (at
    least one, at most MAX_ROUND, and no more than the segment's budget has
    left for) and requests their halves.  Panels too narrow to split keep
    their error as stuck error.  The pop order follows panel errors and
    insertion order, so results do not depend on scheduling.

    partial is the running partial integral of an exhaustion (None on a
    finite interval).  Once |partial + sum| less the sum's error is beyond
    MAGNITUDE_LIMIT, no refinement can bring the partial back within it, so
    the segment ends there, before the heap is built or before a later round.
    """
    used = 15 * (len(edges) - 1)
    if math.inf in values or -math.inf in values:
        return _PanelSum(math.inf, math.inf, False, used, "a panel beyond double range")
    total_v = total_e = 0.0
    for v, e in zip(values, errors):
        total_v += v
        total_e += e
    heap = None  # built once the first panels miss
    stuck_error = 0.0  # error trapped in panels too narrow to split
    stagnation = 0
    last_e = math.inf
    while True:
        if math.isnan(total_v):  # a running sum stays NaN: refining cannot mend it
            return _PanelSum(total_v, total_e, False, used, "NaN sum")
        tol = max(atol, rtol * abs(total_v))
        if total_e <= tol:
            return _PanelSum(total_v, total_e, True, used, "tolerance met")
        if partial is not None and abs(partial + total_v) - total_e > MAGNITUDE_LIMIT:
            return _PanelSum(total_v, total_e, False, used, "partial past the magnitude limit")
        if heap is None:
            # the keys (-e, seq) are unique, so the pop order is that of pushing one by one
            heap = [(-e, seq, lo, hi, v, e)
                    for seq, (lo, hi, v, e) in enumerate(zip(edges, edges[1:], values, errors))]
            heapq.heapify(heap)
            seq = len(heap)
        # rounding noise in log space puts a floor on the achievable error;
        # stop burning budget once refinement stops paying
        stagnation = stagnation + 1 if total_e > 0.999 * last_e else 0
        last_e = total_e
        if stagnation >= 24:
            return _PanelSum(total_v, total_e, False, used, "refinement stagnated")
        room = min(MAX_ROUND, (budget - used) // 30)
        picked = []
        cover = 0.0
        while heap and len(picked) < room and (not picked or cover < total_e - tol):
            _, _, lo, hi, v, e = heapq.heappop(heap)
            if (hi - lo) <= 8.0 * _EPS * max(abs(lo), abs(hi), 1.0):
                stuck_error += e
                if stuck_error > tol:
                    return _PanelSum(total_v, total_e, False, used, "stuck error over tolerance")
                continue
            picked.append((lo, hi, v, e))
            cover += e
        if not picked:
            why = "no panel wide enough to split" if room else "refinement budget exhausted"
            return _PanelSum(total_v, total_e, False, used, why)
        lo_ends, hi_ends = [], []
        for lo, hi, _, _ in picked:
            mid = 0.5 * (lo + hi)
            lo_ends += (lo, mid)
            hi_ends += (mid, hi)
        used += 30 * len(picked)
        values, errors = yield lo_ends, hi_ends
        if math.inf in values or -math.inf in values:
            return _PanelSum(math.inf, math.inf, False, used, "a panel beyond double range")
        for (lo, hi, v, e), mid, v1, v2, e1, e2 in zip(picked, lo_ends[1::2], values[::2],
                                                       values[1::2], errors[::2], errors[1::2]):
            total_v += (v1 + v2) - v
            total_e += (e1 + e2) - e
            heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
            seq += 2
        del values, errors  # nothing of this round stays alive while the driver waits


def _evaluate(fam: Family, requests):
    """_gk_panels over the requests [(row, lo, hi, route), ...], lo and hi
    lists in t, in one call of fam's body; the routes are all +-1 (x = route
    * t) or all 0: int_0^mu g(x) dx = int_{-log mu}^inf g(e^-t) e^-t dt, so
    the body runs at x = e^-t, with lx = -t if it takes log x (logx)."""
    sizes = [15 * len(r[1]) for r in requests]
    rows = np.repeat([r[0] for r in requests], sizes)
    lo = np.array([v for r in requests for v in r[1]])
    hi = np.array([v for r in requests for v in r[2]])
    if requests[0][3]:
        routes = np.repeat([r[3] for r in requests], sizes)
        return _gk_panels(lambda t: fam.log_eval(t * routes, rows), lo, hi)

    def log_eval(t):
        with np.errstate(under="ignore"):
            x = np.exp(-t)
        sign, logabs = fam.log_eval(x, rows, -t) if fam.logx else fam.log_eval(x, rows)
        return sign, np.asarray(logabs, dtype=float) - t

    return _gk_panels(log_eval, lo, hi)


def _chunks(batch) -> list:
    """Split the requests [(i, (row, lo, hi, route)), ...] into calls of <= MAX_POINTS points."""
    chunks, size = [], MAX_POINTS
    for item in batch:
        n = 15 * len(item[1][1])
        if size + n > MAX_POINTS:
            chunks.append([])
            size = 0
        chunks[-1].append(item)
        size += n
    return chunks


def _outcomes(drivers) -> list:
    """Run drivers (fam, row, route, generator) together; return what each one ends with.

    An outcome is the driver's verdict, or the error that ended it.  Each
    round gathers the pending request (row, lo, hi, route) of every driver
    and evaluates the requests of one family in one _evaluate call for the
    routes +-1 and one for route 0, split so that no call holds more than
    MAX_POINTS points, whose results each driver receives as slices of
    lists.  A panel's result does not depend on the other panels of its
    call, negation is exact, and each driver keeps its own budget,
    tolerances and cuts, so every outcome equals the one its driver reaches
    alone.  A call that raises is repeated driver by driver, and the error
    of a driver's own panels is raised inside it, and ends it unless it is caught.
    """
    outcomes = [None] * len(drivers)
    pending = {}

    def resume(i, step, arg):
        try:
            lo, hi = step(arg)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:
            outcomes[i] = exc
        else:
            pending[i] = (drivers[i][1], lo, hi, drivers[i][2])

    for i, (_, _, _, gen) in enumerate(drivers):
        resume(i, gen.send, None)
    while pending:
        calls = {}
        for i, request in pending.items():
            calls.setdefault((drivers[i][0], request[3] == 0), []).append((i, request))
        pending = {}
        for (fam, _), batch in calls.items():
            chunks = _chunks(batch)
            while chunks:
                chunk = chunks.pop(0)
                try:
                    values, errors = map(np.ndarray.tolist,
                                         _evaluate(fam, [r for _, r in chunk]))
                except Exception as exc:
                    if len(chunk) > 1:
                        chunks[:0] = [[item] for item in chunk]
                    else:  # the driver may catch it and go on
                        resume(chunk[0][0], drivers[chunk[0][0]][3].throw, exc)
                    continue
                start = 0
                for i, (_, lo, _, _) in chunk:
                    end = start + len(lo)
                    resume(i, drivers[i][3].send, (values[start:end], errors[start:end]))
                    start = end
    return outcomes


def _lockstep(jobs) -> list:
    """join(verdicts) for each job (drivers, join): the drivers of all jobs run
    together by _outcomes, and each join takes its drivers' verdicts, in order,
    from one iterator.  The first error in driver order is raised, as running
    the drivers one after another would raise it."""
    outcomes = _outcomes([driver for drivers, _ in jobs for driver in drivers])
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    verdicts = iter(outcomes)
    return [join(verdicts) for _, join in jobs]


def _finite(a: float, b: float, atol: float, rtol: float, budget: int, cuts):
    """Driver of the finite adaptive rule over [a, b]."""
    edges = _edges(a, b, cuts)
    if 15 * (len(edges) - 1) > budget:
        return _inconclusive(0, "budget below the first panels")
    values, errors = yield edges[:-1], edges[1:]
    res = yield from _segment(edges, values, errors, atol, rtol, budget)
    if math.isinf(res.value):  # a panel, or the sum of finite panels, beyond double range
        return _inconclusive(res.evals, "magnitudes beyond double range on a finite interval")
    if math.isnan(res.value):
        return _inconclusive(res.evals, f"the sum on [{a:g}, {b:g}] is NaN")
    if res.ok:
        return _converged(res.value, res.error, res.evals)
    return _inconclusive(res.evals, f"{res.why} (error {res.error:.3e})")


def integrate_adaptive(g: Family, a: float, b: float,
                       atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                       budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over the finite interval [a, b], routed as integrate_pieces routes.

    Declared interior break/singular points become panel edges; Kronrod nodes
    are interior, so endpoint singularities are never evaluated.  (0, b) with
    b < 1 and a declared singular point 0 goes by u = -log x.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    return integrate_pieces(_one_row(g), [(0, a, b)], atol, rtol, budget)[0]


FIT_MISMATCH = 1e-5  # held-out relative error below which a power tail is trusted


def _exhaust(a: float, atol: float, rtol: float, budget: int, cuts,
             limit: float = math.inf):
    """Verdict engine of [a, inf): integrate successive segments, watch increments.

    A generator like _finite over the segments [a + 2^(k-2), a + 2^(k-1)]
    (the first is [a, a + 1]), each split at the cuts inside it.  Once its
    queue is empty, one request fetches the first panels of the next AHEAD
    segments (fewer where the budget or limit ends them), and each goes
    through _segment in order with the panels still queued reserved from
    its budget: the points evaluated never exceed budget, and n_evals counts
    those of the segments consumed.  A request whose look-ahead panels raise
    is made again for one segment, and so are the later ones.  No segment
    reaching past limit is requested (the u = -log x route without a body
    that takes log x stops at u = 700, where x = e^-u underflows).

    Diverged needs GROWTH_RUN consecutive growing increments (each above the
    running tolerance, so a distant bump cannot fake growth with negligible
    mass) or a partial beyond MAGNITUDE_LIMIT (a segment beyond double range
    adds +inf).  Each segment gets the running partial and stops refining
    once the partial with the segment's sum is past MAGNITUDE_LIMIT by more
    than the sum's error, where no refinement can change this verdict.  A
    NaN increment ends Inconclusive.  Converged needs either a validated
    power-law tail (held-out mismatch below FIT_MISMATCH; exact for Bertrand
    scales, while a hidden exponential inflection shows up in the held-out
    increment orders of magnitude above it) or CALM_RUN consecutive
    sub-tolerance increments with a geometric tail estimate.
    """
    used = 0
    what = f"[{a:g}, inf)"
    partial = quad_err = 0.0
    records = []  # (edge, partial, increment) per segment consumed
    prev = math.inf  # the last increment; inf at first: nothing grows past it, ratio 0
    growth_run = calm_run = 0
    ahead = AHEAD
    queue = []  # (edges, values, errors) of the segments fetched and not consumed
    for k in range(1, MAX_DOUBLINGS + 1):
        if not queue:
            room = budget - used
            fetch = []
            start = records[-1][0] if records else a  # where the last segment consumed ends
            for j in range(k, min(k + ahead, MAX_DOUBLINGS + 1)):
                end = a + 2.0 ** (j - 1)
                if end > limit:
                    break
                edges = _edges(start, end, cuts)
                room -= 15 * (len(edges) - 1)
                if room < 0:
                    break
                fetch.append(edges)
                start = end
            if not fetch:
                if end > limit:
                    return _inconclusive(used, f"{what}: cannot probe beyond exp(-700) "
                                               "without a body that takes log x")
                break
            try:
                values, errors = yield ([lo for edges in fetch for lo in edges[:-1]],
                                        [hi for edges in fetch for hi in edges[1:]])
            except EvaluationError:  # maybe beyond where the driver stops: one at a time
                if len(fetch) == 1:
                    raise
                fetch, ahead = fetch[:1], 1
                values, errors = yield fetch[0][:-1], fetch[0][1:]
            i = 0
            for edges in fetch:
                n = i + len(edges) - 1
                queue.append((edges, values[i:n], errors[i:n]))
                i = n
        edges, values, errors = queue.pop(0)
        seg_atol = max(atol, rtol * abs(partial)) / (16.0 * (k + 1) ** 2)
        # the panels fetched ahead are reserved from its budget
        seg = yield from _segment(edges, values, errors, seg_atol, rtol / 4,
                                  budget - used - 15 * sum(len(v) for _, v, _ in queue),
                                  partial)
        used += seg.evals
        inc = seg.value
        if math.isnan(inc):
            return _inconclusive(used, f"{what}: the sum on [{edges[0]:g}, {edges[-1]:g}] is NaN")
        partial += inc
        quad_err += seg.error
        records.append((edges[-1], partial, inc))
        tol = max(atol, rtol * abs(partial))

        if abs(partial) > MAGNITUDE_LIMIT:
            return _diverged(records, "magnitude_threshold", used,
                             f"{what}: partial integral beyond {MAGNITUDE_LIMIT:g}")

        growth_run = growth_run + 1 if inc > prev and inc > tol and inc > 0 else 0
        if growth_run >= GROWTH_RUN:
            return _diverged(records, "increment_growth", used,
                             f"{what}: increments grew for {GROWTH_RUN} consecutive steps")

        if a > 0.0 and seg.ok:
            last = records[-4:]
            tail, mismatch = _fit_power_tail([a, *(r[0] for r in last)][-4:],
                                             [r[2] for r in last])
            if math.isfinite(tail) and mismatch < FIT_MISMATCH:
                tail_unc = tail * max(10.0 * mismatch, 1e-12)
                if quad_err + tail_unc <= tol:
                    return _converged(partial + tail, quad_err + tail_unc, used,
                                      "power-law tail extrapolated")

        calm_run = calm_run + 1 if abs(inc) < tol else 0
        if calm_run >= CALM_RUN and seg.ok:
            ratio = abs(inc) / abs(prev) if prev else 0.0
            if ratio < 0.95:
                tail = abs(inc) * ratio / (1.0 - ratio)
                if quad_err + tail <= tol:  # so tail <= tol too: quad_err >= 0
                    tail_sign = math.copysign(1.0, inc) if inc != 0.0 else 1.0
                    return _converged(partial + tail_sign * tail, quad_err + tail, used)
        prev = inc
        if budget - used < 15:
            break
    else:
        return _inconclusive(used, f"{what}: boundary list ran out after {len(records)} "
                             "segments without a certificate")
    return _inconclusive(used, f"{what}: exhaustion budget ran out without a certificate")


def integrate_semi_infinite(g: Family, a: float,
                            atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                            budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over [a, inf) by doubling the exhaustion point."""
    if not math.isfinite(a):
        raise ValueError("need a finite left endpoint")
    return integrate_pieces(_one_row(g), [(0, a, math.inf)], atol, rtol, budget)[0]


def integrate_singular_origin(g: Family, mu: float,
                              atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                              budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over (0, mu], where g may blow up (or fail to be integrable) at 0.

    The singular point 0 is declared, so (0, mu) goes by u = -log x: the
    resulting semi-infinite domain turns Bertrand behavior x^-1 |log x|^-i
    into the transparent power scale u^-i, whose fitted tail the exhaustion
    extrapolates.  For mu >= 1 the line splits at 1/2, as
    _expectation_job splits a line.
    """
    if not 0.0 < mu:
        raise ValueError("need mu > 0")
    g = replace(_one_row(g), singular_points=(*g.singular_points, 0.0))
    job = _split(g, [(0, [0.0, mu] if mu < 1.0 else [0.0, 0.5, mu])], atol, rtol, budget)
    return _lockstep([job])[0][0]


def _fit_power_tail(u_edges, increments):
    """Fit I_k = c/(p-1) (u_k^(1-p) - u_{k+1}^(1-p)) on the last two increments.

    Returns (tail beyond the last edge, relative mismatch on the held-out
    increment before the fitted pair); (inf, inf) when no power law with
    p >= 1.01 fits.  The p floor keeps a genuinely divergent p = 1 tail from
    masquerading as a huge-but-finite one.  The predicted held-out increment
    grows with p, so the bisection of p returns (inf, inf) once no p in its
    bracket can pass the held-out check (with a relative margin of 1e-8 for
    rounding); a fit that can pass bisects p down to adjacent doubles.
    """
    if len(increments) < 3:
        return math.inf, math.inf
    u0, u1, u2, u3 = u_edges[-4:]
    i0, i1, i2 = increments[-3:]
    if min(i0, i1, i2) <= 0.0:
        if max(abs(i0), abs(i1), abs(i2)) == 0.0:
            return 0.0, 0.0
        return math.inf, math.inf
    r0, r2, r3 = u0 / u1, u2 / u1, u3 / u1
    # elsewhere r0 ** (1 - p) may overflow (which raises) or cancel beyond the margin
    predicts = 1e-3 < r0 < 0.9999

    def model(p):  # I(u2->u3) / I(u1->u2) in ratio form, and the predicted i0 (or NaN)
        qq = 1.0 - p
        a2, a3 = r2 ** qq, r3 ** qq
        if a2 >= 1.0:
            return math.inf, math.nan
        pred = i2 * (r0 ** qq - 1.0) / (a2 - a3) if predicts and a3 < a2 else math.nan
        return (a2 - a3) / (1.0 - a2), pred

    near = FIT_MISMATCH * max(i0, 1e-300)
    low, high = (i0 - near) * (1.0 - 1e-8), (i0 + near) * (1.0 + 1e-8)
    target = i2 / i1
    lo_p, hi_p = 1.01, 80.0
    (r_lo, pred_lo), (r_hi, pred_hi) = model(lo_p), model(hi_p)
    if not (math.isfinite(r_lo) and r_hi <= target <= r_lo):
        return math.inf, math.inf
    for _ in range(120):
        if pred_hi < low or pred_lo > high:
            return math.inf, math.inf  # the held-out check fails for every p left
        mid = 0.5 * (lo_p + hi_p)
        if mid == lo_p or mid == hi_p:
            break  # adjacent doubles: the bracket cannot shrink further
        r_mid, pred_mid = model(mid)
        if r_mid > target:
            lo_p, pred_lo = mid, pred_mid
        else:
            hi_p, pred_hi = mid, pred_mid
    p = 0.5 * (lo_p + hi_p)
    qq = 1.0 - p
    b = (u2 / u3) ** qq  # > 1
    if not b > 1.0:
        return math.inf, math.inf
    tail = i2 / (b - 1.0)
    a2, a3 = r2 ** qq, r3 ** qq
    try:
        predicted_prev = i2 * (r0 ** qq - 1.0) / (a2 - a3)
    except OverflowError:  # r0 <= 1e-3, outside the range model guards: no trusted fit
        return math.inf, math.inf
    mismatch = abs(predicted_prev - i0) / max(abs(i0), 1e-300)
    return tail, mismatch


# ---------------------------------------------------------------------------
# Pieces of the line and Gaussian expectations
# ---------------------------------------------------------------------------

def weighted(fam: Family) -> Family:
    """g(x) phi(x) for every member g, with one body: log phi comes from x on
    both routes, and a given lx goes on to fam's body.  The quadratic parts
    of log g and log phi are added as one, (k - 1/2) x^2, into the r of a
    body of rate 0, so where g's Gaussian rate k is 1/2 no x^2-sized term is
    formed."""
    def body(x, row=0, *lx):
        sign, r, k = fam.body(x, row, *lx)
        return sign, np.asarray(r, dtype=float) + gauss_log_pdf(x, k), 0.0

    return Family(body, fam.breakpoints, fam.singular_points, fam.logx)


def _combine(pieces, labels) -> IntegralVerdict:
    if len(pieces) == 1:
        return pieces[0]
    n_evals = sum(v.n_evals for v in pieces)
    for v, lab in zip(pieces, labels):
        if v.diverged:
            return IntegralVerdict(Verdict.DIVERGED, evidence=v.evidence, n_evals=n_evals,
                                   message=f"piece {lab}: {v.message}")
    for v, lab in zip(pieces, labels):
        if not v.converged:
            return _inconclusive(n_evals, f"piece {lab}: {v.message}")
    return _converged(sum(v.value for v in pieces), sum(v.abs_error for v in pieces), n_evals)


def _piece(fam: Family, row: int, lo: float, hi: float, atol: float, rtol: float,
           budget: int):
    """Driver (fam, row, route, generator) of one piece (lo, hi) of the line,
    routed by its ends, with its cuts in t.

    An infinite end goes to semi-infinite exhaustion (the left end on route
    -1), (0, hi) with hi < 1 and a declared singularity at 0 to exhaustion
    on route 0, up to t = 700 unless the body takes log x, and anything else
    to the finite adaptive rule.
    """
    if lo == -math.inf:
        route, a = -1.0, -hi
    elif hi == math.inf:
        route, a = 1.0, lo
    elif lo == 0.0 and 0.0 in fam.singular_points and hi < 1.0:
        route, a = 0.0, -math.log(hi)
    else:
        return fam, row, 1.0, _finite(lo, hi, atol, rtol, budget, fam.cuts(row, lo, hi))
    limit = 700.0 if route == 0.0 and not fam.logx else math.inf
    return fam, row, route, _exhaust(a, atol, rtol, budget, fam.cuts(row, a, math.inf, route),
                                     limit)


def integrate_pieces(fam: Family, pieces, atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL, budget: int = DEFAULT_BUDGET) -> list:
    """Verdicts for the pieces [(row, lo, hi), ...] of fam's members, in lockstep."""
    return _lockstep([([_piece(fam, row, lo, hi, atol, rtol, budget) for row, lo, hi in pieces],
                       list)])[0]


def _split(fam: Family, lines, atol: float, rtol: float, budget: int):
    """The job of the lines [(row, edges), ...]: the pieces between the edges,
    each with atol and budget divided by their number, _combine-d per line."""
    drivers = []
    for row, edges in lines:
        pieces = list(zip(edges, edges[1:]))
        share = budget // len(pieces)
        drivers += [_piece(fam, row, a, b, atol / len(pieces), rtol, share) for a, b in pieces]
    return drivers, lambda verdicts: [
        _combine([next(verdicts) for _ in edges[1:]],
                 [f"({a:g}, {b:g})" for a, b in zip(edges, edges[1:])]) for _, edges in lines]


def _expectation_job(fam: Family, rows, atol: float, rtol: float, budget: int):
    """The job of E[g(W_1)] for the given rows of fam, which carries the
    Gaussian weight (weighted).  Each row's line is split at its breakpoints
    (plus 0), and each piece gets budget // (number of pieces).  Any Diverged
    piece makes the expectation Diverged; all pieces Converged sum their
    values and errors; anything else is Inconclusive."""
    lines = [(row, [-math.inf, *sorted({float(b) for b in (*fam.breakpoints[row], 0.0)}),
                    math.inf]) for row in rows]
    return _split(fam, lines, atol, rtol, budget)


def gaussian_expectation(g: Family,
                         atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                         budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """E[g(W_1)] = int g(x) phi(x) dx, its line split as _expectation_job splits it."""
    return _lockstep([_expectation_job(weighted(_one_row(g)), [0], atol, rtol, budget)])[0][0]
