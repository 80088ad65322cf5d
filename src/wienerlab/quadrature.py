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
integrate_piece picks the route for one piece of the line from its ends.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .slog import slog_of

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8
DEFAULT_BUDGET = 100_000
GROWTH_RUN = 6          # consecutive growing increments certify divergence
MAX_ROUND = 64          # panels split per round of _adaptive (bounds peak memory)
CALM_RUN = 3            # consecutive sub-tolerance increments allow convergence
MAGNITUDE_LIMIT = 1e12  # partials beyond this certify divergence
MAX_DOUBLINGS = 60
MAX_SHRINKS = 400

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def gauss_log_pdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - LOG_SQRT_2PI


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


class _NeglogRangeError(Exception):
    """x = exp(-u) underflowed and the integrand has no neglog form."""


@dataclass(frozen=True)
class Integrand:
    """A log-capable integrand: log_eval(x) -> (sign, log|g(x)|), vectorized.

    neglog_eval, when present, evaluates u -> (sign, log|g(e^-u)|) and lets
    the origin-singular route probe x far below the smallest positive double.
    """

    log_eval: Callable
    domain: tuple = (-math.inf, math.inf)
    breakpoints: tuple = ()
    singular_points: tuple = ()
    neglog_eval: Optional[Callable] = None
    name: str = "integrand"

    @classmethod
    def from_function(cls, fn, **kw) -> "Integrand":
        """Wrap an ordinary value-returning function."""
        def log_eval(x):
            return slog_of(fn(np.asarray(x, dtype=float)))
        return cls(log_eval=log_eval, **kw)


def bertrand_integrand(exponent: float) -> Integrand:
    """1 / (x |log x|^exponent) on (0, 1); converges at 0 iff exponent > 1.

    The convergence yardstick for everything singular at the origin; carries
    its exact neglog form u - exponent*log(u).
    """
    def log_eval(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            lx = np.log(x)
        return np.ones_like(x), -lx - exponent * np.log(np.abs(lx))

    def neglog_eval(u):
        u = np.asarray(u, dtype=float)
        return np.ones_like(u), u - exponent * np.log(u)

    return Integrand(log_eval=log_eval, neglog_eval=neglog_eval, domain=(0.0, 1.0),
                     singular_points=(0.0,), name=f"bertrand[{exponent}]")


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
    partials: tuple = ()
    n_evals: int = 0
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == Verdict.CONVERGED

    @property
    def diverged(self) -> bool:
        return self.status == Verdict.DIVERGED

    def expect(self) -> float:
        if not self.converged:
            raise ValueError(f"integral did not converge: {self.status} ({self.message})")
        return self.value

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


def _inconclusive(partials, n_evals, message=""):
    return IntegralVerdict(Verdict.INCONCLUSIVE, partials=tuple(partials),
                           n_evals=n_evals, message=message)


class _Budget:
    def __init__(self, total: int):
        self.total = int(total)
        self.used = 0

    def consume(self, n: int) -> None:
        self.used += n

    @property
    def left(self) -> int:
        return self.total - self.used

    @property
    def exhausted(self) -> bool:
        """Too little left to pay for one panel."""
        return self.left < 15


def _gk_panels(log_eval, a, b):
    """k 15-point panels [a_i, b_i] in one log_eval call on a (k, 15) grid.

    Each panel is rescaled by its own largest log-magnitude before the
    Kronrod and Gauss sums are formed.  Returns arrays (value, error, hot);
    hot flags magnitudes beyond double range, which the exhaustion drivers
    treat as divergence evidence.  The row sums are reductions along the
    last axis, so a panel's result does not depend on the other panels of
    the call.
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
    return value, error, hot


@dataclass
class _PanelSum:
    value: float
    error: float
    ok: bool      # error target met
    hot: bool     # beyond double range
    history: tuple


_UNPAID = _PanelSum(0.0, math.inf, False, False, ())  # first panels beyond the budget


def _adaptive(log_eval, a: float, b: float, atol: float, rtol: float,
              budget: _Budget, cuts=()) -> _PanelSum:
    """Globally adaptive bisection that splits the worst panels in rounds.

    The first panels, one per piece between the cuts, are evaluated in one
    call.  Each round then pops the worst panels from an error heap until
    their errors cover the excess of the total error over the tolerance (at
    least one panel, at most MAX_ROUND, and no more than the budget left
    pays for) and evaluates all their halves in one call.  Panels too
    narrow to split keep their error as stuck error.  The order of
    refinement is a deterministic function of panel errors and insertion
    order, so results do not depend on scheduling.  No panel is evaluated
    that the budget cannot pay for.
    """
    edges = [a] + [c for c in sorted(set(cuts)) if a < c < b] + [b]
    if 15 * (len(edges) - 1) > budget.left:
        return _UNPAID
    values, errors, hot = _gk_panels(log_eval, np.array(edges[:-1]), np.array(edges[1:]))
    budget.consume(15 * (len(edges) - 1))
    if hot.any():
        return _PanelSum(math.inf, math.inf, False, True, ())
    heap = []
    total_v = 0.0
    total_e = 0.0
    for seq, (lo, hi, v, e) in enumerate(zip(edges, edges[1:], values.tolist(),
                                             errors.tolist())):
        total_v += v
        total_e += e
        heapq.heappush(heap, (-e, seq, lo, hi, v, e))
    seq = len(heap)
    history = []

    stuck_error = 0.0  # error trapped in panels too narrow to split
    stagnation = 0
    last_e = math.inf
    while True:
        tol = max(atol, rtol * abs(total_v))
        if total_e <= tol:
            return _PanelSum(total_v, total_e, True, False, tuple(history))
        # rounding noise in log space puts a floor on the achievable error;
        # stop burning budget once refinement stops paying
        stagnation = stagnation + 1 if total_e > 0.999 * last_e else 0
        last_e = total_e
        if stagnation >= 24:
            return _PanelSum(total_v, total_e, False, False, tuple(history))
        room = min(MAX_ROUND, budget.left // 30)
        picked = []
        cover = 0.0
        while heap and len(picked) < room and (not picked or cover < total_e - tol):
            _, _, lo, hi, v, e = heapq.heappop(heap)
            if (hi - lo) <= 8.0 * _EPS * max(abs(lo), abs(hi), 1.0):
                stuck_error += e
                if stuck_error > tol:
                    return _PanelSum(total_v, total_e, False, False, tuple(history))
                continue
            picked.append((lo, hi, v, e))
            cover += e
        if not picked:
            return _PanelSum(total_v, total_e, False, False, tuple(history))
        lo_ends, hi_ends = [], []
        for lo, hi, _, _ in picked:
            mid = 0.5 * (lo + hi)
            lo_ends += (lo, mid)
            hi_ends += (mid, hi)
        budget.consume(30 * len(picked))
        values, errors, hot = _gk_panels(log_eval, np.array(lo_ends), np.array(hi_ends))
        if hot.any():
            return _PanelSum(math.inf, math.inf, False, True, tuple(history))
        vs, es = values.tolist(), errors.tolist()
        halves = zip(picked, lo_ends[1::2], vs[::2], vs[1::2], es[::2], es[1::2])
        for (lo, hi, v, e), mid, v1, v2, e1, e2 in halves:
            total_v += (v1 + v2) - v
            total_e += (e1 + e2) - e
            heapq.heappush(heap, (-e1, seq, lo, mid, v1, e1))
            heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2, e2))
            seq += 2
        history.append((budget.used, total_v))
        if len(history) > 64:
            del history[:32]


def _inner_cuts(g: Integrand, a: float, b: float):
    pts = list(g.breakpoints) + list(g.singular_points)
    return [p for p in pts if a < p < b]


def integrate_adaptive(g: Integrand, a: float, b: float,
                       atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                       budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over the finite interval [a, b].

    Declared interior break/singular points become panel edges; Kronrod nodes
    are interior, so endpoint singularities are never evaluated.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    bud = _Budget(budget)
    res = _adaptive(g.log_eval, a, b, atol, rtol, bud, _inner_cuts(g, a, b))
    if res is _UNPAID:
        return _inconclusive((), bud.used, "budget below the first panels")
    if res.hot:
        return _inconclusive([h[1] for h in res.history], bud.used,
                             "magnitudes beyond double range on a finite interval")
    if res.ok:
        return _converged(res.value, res.error, bud.used)
    return _inconclusive([h[1] for h in res.history] + [res.value], bud.used,
                         f"refinement budget exhausted (error {res.error:.3e})")


FIT_MISMATCH = 1e-5  # held-out relative error below which a power tail is trusted
PROBE_LADDER = 12    # revival probes at start + (R - start) 4^j, j = 1..PROBE_LADDER


def _revival_blocked(g: Integrand, start: float, edge: float, tol: float,
                     bud: _Budget, power_model=None) -> bool:
    """Point-probe far beyond the current horizon before trusting a tail.

    An integrand can decay below tolerance and revive exponentially much
    later (e.g. u^-6 e^(alpha u) with tiny alpha), which no increment-based
    stopping rule can see.  Each probe charges the order of magnitude of the
    mass a bump at that point would carry, g(u) (u - start); convergence is
    blocked when that exceeds the tolerance plus ten times what the fitted
    power tail predicts.  Probes beyond the representable range of an
    integrand without a neglog form are skipped (revivals there are
    undetectable; the substitution route with closed neglog forms is the
    default for exactly this reason).
    """
    span = edge - start
    if not (span > 0.0 and math.isfinite(span)):
        return False
    probes = start + span * 4.0 ** np.arange(1.0, PROBE_LADDER + 1.0)
    probes = probes[np.isfinite(probes)]
    if probes.size == 0:
        return False
    try:
        _, logabs = g.log_eval(probes)
    except _NeglogRangeError:
        limit_mask = probes < 700.0  # exp(-u) floor for fallback neglog forms
        if not np.any(limit_mask):
            return False
        try:
            _, logabs = g.log_eval(probes[limit_mask])
        except _NeglogRangeError:
            return False
        probes = probes[limit_mask]
    bud.consume(probes.size)
    logabs = np.asarray(logabs, dtype=float)
    if np.any(np.isnan(logabs)):
        return True  # cannot vouch for the tail
    with np.errstate(over="ignore"):
        mass = np.exp(logabs + np.log(probes - start))
    allowed = np.full_like(mass, tol)
    if power_model is not None:
        c_log, p = power_model
        with np.errstate(over="ignore"):
            allowed = allowed + 10.0 * np.exp(c_log + (1.0 - p) * np.log(probes))
    return bool(np.any(mass > allowed))


def _exhaust(segment_integral, boundaries, atol: float, rtol: float,
             bud: _Budget, what: str) -> IntegralVerdict:
    """Shared verdict engine: integrate successive segments, watch increments.

    Diverged needs GROWTH_RUN consecutive growing increments (each above the
    running tolerance, so a distant bump cannot fake growth with negligible
    mass) or a partial beyond MAGNITUDE_LIMIT.  Converged needs either a
    validated power-law tail (held-out mismatch below FIT_MISMATCH; exact for
    Bertrand scales, while a hidden exponential inflection shows up in the
    held-out increment orders of magnitude above it) or CALM_RUN consecutive
    sub-tolerance increments with a geometric tail estimate.
    """
    partial = 0.0
    quad_err = 0.0
    records = []
    increments = []
    edges_seen = []
    growth_run = 0
    calm_run = 0
    prev_edge = None
    for k, edge in enumerate(boundaries):
        if prev_edge is None:
            prev_edge = edge
            edges_seen.append(edge)
            continue
        tol = max(atol, rtol * abs(partial))
        try:
            seg = segment_integral(prev_edge, edge, k, tol)
        except _NeglogRangeError:
            return _inconclusive([r[1] for r in records], bud.used,
                                 f"{what}: cannot probe beyond exp(-700) without a neglog form")
        if seg is _UNPAID:
            break
        prev_edge = edge
        edges_seen.append(edge)
        if seg.hot:
            records.append((edge, math.inf, math.inf))
            return _diverged(records, "magnitude_threshold", bud.used,
                             f"{what}: magnitudes beyond double range by {edge!r}")
        inc = seg.value
        partial += inc
        quad_err += seg.error
        increments.append(inc)
        records.append((edge, partial, inc))
        tol = max(atol, rtol * abs(partial))

        if not math.isfinite(partial) or abs(partial) > MAGNITUDE_LIMIT:
            return _diverged(records, "magnitude_threshold", bud.used,
                             f"{what}: partial integral beyond {MAGNITUDE_LIMIT:g}")

        if len(increments) >= 2 and inc > increments[-2] and inc > tol and inc > 0:
            growth_run += 1
        else:
            growth_run = 0
        if growth_run >= GROWTH_RUN:
            return _diverged(records, "increment_growth", bud.used,
                             f"{what}: increments grew for {GROWTH_RUN} consecutive steps")

        if edges_seen[0] > 0.0:
            tail, mismatch = _fit_power_tail(edges_seen, increments)
            if math.isfinite(tail) and seg.ok and mismatch < FIT_MISMATCH:
                tail_unc = tail * max(10.0 * mismatch, 1e-12)
                if quad_err + tail_unc <= tol:
                    return _converged(partial + tail, quad_err + tail_unc, bud.used,
                                      "power-law tail extrapolated")

        calm_run = calm_run + 1 if abs(inc) < tol else 0
        if calm_run >= CALM_RUN and seg.ok:
            prev = abs(increments[-2]) if len(increments) >= 2 else 0.0
            ratio = abs(inc) / prev if prev > 0.0 else 0.0
            if ratio < 0.95:
                tail = abs(inc) * ratio / (1.0 - ratio)
                if tail <= tol and quad_err + tail <= tol:
                    sign = math.copysign(1.0, inc) if inc != 0.0 else 1.0
                    return _converged(partial + sign * tail, quad_err + tail, bud.used)
        if bud.exhausted:
            break
    else:
        return _inconclusive([r[1] for r in records], bud.used,
                             f"{what}: boundary list ran out after {len(records)} segments "
                             "without a certificate")
    return _inconclusive([r[1] for r in records], bud.used,
                         f"{what}: exhaustion budget ran out without a certificate")


def integrate_semi_infinite(g: Integrand, a: float,
                            atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                            budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over [a, inf) by doubling the exhaustion point."""
    if not math.isfinite(a):
        raise ValueError("need a finite left endpoint")
    bud = _Budget(budget)
    boundaries = [a] + [a + 2.0 ** k for k in range(MAX_DOUBLINGS)]

    def segment(lo, hi, k, tol_hint):
        seg_atol = max(atol, tol_hint) / (16.0 * (k + 1) ** 2)
        return _adaptive(g.log_eval, lo, hi, seg_atol, 0.25 * rtol,
                         bud, _inner_cuts(g, lo, hi))

    return _exhaust(segment, boundaries, atol, rtol, bud, f"[{a:g}, inf)")


def _substituted_integrand(g: Integrand) -> Integrand:
    """u = -log x: int_0^mu g(x) dx = int_{-log mu}^inf g(e^-u) e^-u du.

    Breakpoints b in (0, 1) move along as u = -log b.
    """
    if g.neglog_eval is not None:
        base = g.neglog_eval
    else:
        def base(u):
            u = np.asarray(u, dtype=float)
            if np.any(u > 700.0):
                raise _NeglogRangeError
            return g.log_eval(np.exp(-u))

    def log_eval(u):
        u = np.asarray(u, dtype=float)
        sign, logabs = base(u)
        return sign, np.asarray(logabs, dtype=float) - u

    cuts = tuple(-math.log(b) for b in g.breakpoints if 0.0 < b < 1.0)
    return Integrand(log_eval=log_eval, breakpoints=cuts, name=f"{g.name} under u=-log x")


def integrate_singular_origin(g: Integrand, mu: float,
                              atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                              budget: int = DEFAULT_BUDGET,
                              method: str = "substitution") -> IntegralVerdict:
    """Integrate g over (0, mu], where g may blow up (or fail to be integrable) at 0.

    The default route substitutes u = -log x and exhausts the resulting
    semi-infinite domain, which turns Bertrand behavior x^-1 |log x|^-i into
    the transparent power scale u^-i.  The "shrink" route integrates over
    [mu 2^-k, mu 2^-(k-1)] directly; since its lower limits advance only
    linearly in u, it extrapolates the fitted power-law tail in u instead of
    waiting for the raw increments to die out.  For mu >= 1 the part above
    1/2 is a finite piece of its own.
    """
    if not 0.0 < mu:
        raise ValueError("need mu > 0")
    if mu >= 1.0:
        pieces = [integrate_singular_origin(g, 0.5, 0.5 * atol, rtol, budget // 2, method),
                  integrate_adaptive(g, 0.5, mu, 0.5 * atol, 0.5 * rtol, budget // 2)]
        return _combine(pieces, ["(0, 0.5]", f"[0.5, {mu:g}]"],
                        sum(v.n_evals for v in pieces))

    if method == "substitution":
        return integrate_semi_infinite(_substituted_integrand(g), -math.log(mu),
                                       atol, rtol, budget)
    if method != "shrink":
        raise ValueError(f"unknown method {method!r}")
    bud = _Budget(budget)
    boundaries = [-math.log(mu * 2.0 ** -k) for k in range(MAX_SHRINKS + 1)]

    def segment(u_lo, u_hi, k, tol_hint):
        lo, hi = mu * 2.0 ** -k, mu * 2.0 ** -(k - 1)
        seg_atol = max(atol, tol_hint) / (16.0 * k * k)
        return _adaptive(g.log_eval, lo, hi, seg_atol, 0.25 * rtol,
                         bud, _inner_cuts(g, lo, hi))

    return _exhaust(segment, boundaries, atol, rtol, bud, "shrink")


def _fit_power_tail(u_edges, increments):
    """Fit I_k = c/(p-1) (u_k^(1-p) - u_{k+1}^(1-p)) on the last two increments.

    Returns (tail beyond the last edge, relative mismatch on the held-out
    increment before the fitted pair); (inf, inf) when no power law with
    p >= 1.01 fits.  The p floor keeps a genuinely divergent p = 1 tail from
    masquerading as a huge-but-finite one.
    """
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


# ---------------------------------------------------------------------------
# Pieces of the line and Gaussian expectations
# ---------------------------------------------------------------------------

def weighted(g: Integrand) -> Integrand:
    """g(x) phi(x), in both the x form and the neglog form of g."""
    def log_eval(x):
        x = np.asarray(x, dtype=float)
        sign, logabs = g.log_eval(x)
        return sign, np.asarray(logabs, dtype=float) + gauss_log_pdf(x)

    neglog = None
    if g.neglog_eval is not None:
        def neglog(u):
            u = np.asarray(u, dtype=float)
            sign, logabs = g.neglog_eval(u)
            with np.errstate(under="ignore"):
                w = -0.5 * np.exp(-2.0 * u) - LOG_SQRT_2PI
            return sign, np.asarray(logabs, dtype=float) + w

    return Integrand(log_eval=log_eval, domain=g.domain, breakpoints=g.breakpoints,
                     singular_points=g.singular_points, neglog_eval=neglog,
                     name=f"{g.name} * phi")


def _reflected(g: Integrand) -> Integrand:
    """x -> g(-x), with g's breakpoints and singular points reflected along."""
    def log_eval(x):
        return g.log_eval(-np.asarray(x, dtype=float))
    return Integrand(log_eval=log_eval, breakpoints=tuple(-b for b in g.breakpoints),
                     singular_points=tuple(-s for s in g.singular_points),
                     name=f"{g.name} reflected")


def _combine(pieces, labels, n_evals) -> IntegralVerdict:
    for v, lab in zip(pieces, labels):
        if v.diverged:
            return IntegralVerdict(Verdict.DIVERGED, evidence=v.evidence, n_evals=n_evals,
                                   message=f"piece {lab}: {v.message}")
    if all(v.converged for v in pieces):
        return _converged(sum(v.value for v in pieces),
                          sum(v.abs_error for v in pieces), n_evals)
    for v, lab in zip(pieces, labels):
        if not v.converged:
            return _inconclusive(v.partials, n_evals, f"piece {lab}: {v.message}")
    raise AssertionError("unreachable")


def integrate_piece(g: Integrand, lo: float, hi: float,
                    atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                    budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """Integrate g over one piece (lo, hi) of the line, routed by its ends.

    An infinite end goes to semi-infinite exhaustion (the left end
    reflected), (0, hi) with hi < 1 and a declared singularity at 0 to the
    u = -log x route, and anything else to the finite adaptive rule.
    """
    if lo == -math.inf:
        return integrate_semi_infinite(_reflected(g), -hi, atol, rtol, budget)
    if hi == math.inf:
        return integrate_semi_infinite(g, lo, atol, rtol, budget)
    if lo == 0.0 and 0.0 in g.singular_points and hi < 1.0:
        return integrate_singular_origin(g, hi, atol, rtol, budget)
    return integrate_adaptive(g, lo, hi, atol, rtol, budget)


def gaussian_expectation(g: Integrand,
                         atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                         budget: int = DEFAULT_BUDGET) -> IntegralVerdict:
    """E[g(W_1)] = int g(x) phi(x) dx with verdict combination across pieces.

    The line is split at g's declared breakpoints (plus 0) and each piece goes
    to integrate_piece.  Any Diverged piece makes the expectation Diverged;
    all pieces Converged sum their values and errors; anything else is
    Inconclusive.
    """
    w = weighted(g)
    lo, hi = g.domain
    cuts = sorted({float(b) for b in list(g.breakpoints) + [0.0] if lo < b < hi})
    edges = list(zip([lo] + cuts, cuts + [hi]))
    share = budget // len(edges)
    pieces = [integrate_piece(w, a, b, atol / len(edges), rtol, share) for a, b in edges]
    return _combine(pieces, [f"({a:g}, {b:g})" for a, b in edges],
                    sum(v.n_evals for v in pieces))
