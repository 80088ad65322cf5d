"""Decision procedures on top of the quadrature verdicts.

Everything here renders a limit statement falsifiable at desk scale:

* sobolev_seminorm -- the two Gaussian moments E|Z|^p, E|f'(W_1)|^p behind
  the order-p seminorm.  Scalar functionals Z = f(W_T) are identified with
  the unit-direction gradient, so the gradient norm is |f'(W_T)| and the
  pairing with a direction h is f'(W_T) h(T).
* lq_diffquot_norm / ssgd_test -- L^q norms of difference quotients along a
  shift of size eps, optionally centered at the derivative pairing; the
  order-(p,q) differentiability verdict demands a decreasing tail over the
  eps grid and a final residual below TOL_SSGD.
* dvp_uniform_integrability_test -- de la Vallee-Poussin test with
  psi(y) = y |log y|: the sup over the eps window of E[psi(|X_eps|^2)] must
  stay finite, reported piece by piece (below / inside / above the core
  support), with the Bertrand majorants as a cross-check.
* cameron_martin_check / sgd_probability_test -- Monte Carlo sides: the
  shift-versus-reweighting identity and convergence in probability.
* membership_report -- runs every L^q, residual and psi-test row (one family)
  and the Bertrand majorants in one lockstep run, then assembles the three
  flags and enforces the inclusion chain on its own output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import quadrature as quad
from .functionals import CylindricalFunctional, ScalarFunctional, difference_quotient_slog
from .quadrature import Family, IntegralVerdict
from .slog import slog_sub
from .wiener import (CameronMartinDirection, cm_inner, merged_grid,
                     wiener_integral_blocks)

TOL_SSGD = 1e-3


class Flag(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class EpsilonGrid:
    """Decreasing shift sizes in (0, 1) standing in for the limit eps -> 0."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals or any(not 0.0 < v < 1.0 for v in vals):
            raise ValueError("eps values must lie in (0, 1)")
        if any(a <= b for a, b in zip(vals, vals[1:])):
            raise ValueError("eps values must be strictly decreasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def default(cls) -> "EpsilonGrid":
        return cls.from_krange(1, 8)

    @classmethod
    def from_krange(cls, k1: int, k2: int) -> "EpsilonGrid":
        if not 1 <= k1 <= k2:
            raise ValueError("need 1 <= k1 <= k2")
        return cls(tuple(2.0 ** (-k) for k in range(k1, k2 + 1)))

    def capped(self, limit: Optional[float]) -> "EpsilonGrid":
        """Intersect with (0, limit); rescale into the window if that empties it."""
        if limit is None or not math.isfinite(limit):
            return self
        kept = tuple(v for v in self.values if v < limit)
        if kept:
            return EpsilonGrid(kept)
        return EpsilonGrid(tuple(limit * 2.0 ** (-k) for k in range(1, len(self.values) + 1)))


@dataclass(frozen=True)
class LqRow:
    quantity: str
    q: Optional[float]
    epsilon: Optional[float]
    verdict: IntegralVerdict

    @property
    def value(self) -> Optional[float]:
        return self.verdict.value

    @property
    def abs_error(self) -> Optional[float]:
        return self.verdict.abs_error


# ---------------------------------------------------------------------------
# integrand factories for scalar functionals
# ---------------------------------------------------------------------------

def _scalar_cuts(f: ScalarFunctional, shifts=()) -> tuple:
    """f's breakpoints and the smooth-cutoff shoulders of a compact completion
    (1.5 mu and 2 mu), each also moved back by every shift."""
    shoulders = (1.5 * f.params["mu"], 2.0 * f.params["mu"]) if "mu" in f.params else ()
    return tuple(sorted({b - s for b in (*f.breakpoints, *shoulders) for s in (0.0, *shifts)}))


def _route_family(f: ScalarFunctional, breakpoints, ends, at) -> Family:
    """g_row with the positive sign from one point function at(x, row, lx) ->
    (r, k), log|g_row| = k x^2 + r: lx is None on the x route, and log x on
    the u = -log x route (where x = e^-u may underflow), which passes it
    when f has its log-x forms (logx).  ends[row] are g_row's quad.Ends,
    composed from f's (f.ends)."""
    def body(x, row=0, lx=None):
        x = np.asarray(x, dtype=float)
        return (np.ones_like(x), *at(x, row, lx))

    return Family(body, breakpoints, tuple(f.singular_points), f.has_logx_forms(), ends)


def _abs_pow_family(f: ScalarFunctional, p: float, deriv: bool) -> Family:
    """|g(x)|^p as a one-row family, g = f' if deriv else f: p r and the rate p k;
    its ends are f.ends(deriv).pow(p)."""
    def at(x, row, lx):
        _, r, k = f.slog_parts(x, lx, deriv)
        return p * r, p * k

    return _route_family(f, (_scalar_cuts(f),), (f.ends(deriv).pow(p),), at)


def _quotient_family(f: ScalarFunctional, rows) -> Family:
    """The quotient rows (q, eps, c, centered) as one family: member i is
    |X_eps - centered * c f'(x)|^q, X_eps = (f(x + eps c) - f(x)) / eps, or
    psi(|X_eps|^2) where q is None.

    The rows index the shift eps c, math.log(eps), the centring (c, or 0 when
    not centered) and the outer map of their point's member.  With k the
    Gaussian rate at x, the quotient, f' and the centring are formed relative
    to k x^2, and a member's rate is q k (2 k for psi).

    A member's ends are f.ends().shift(s), s = eps c, raised to its lead
    power q (2 for psi: psi(y) = y |log y| >= y once y >= e, and log|log y|
    = O(log x)).  shift's growth holds with f' too: for s > 0,
    |f(x + s)| outgrows |f(x)| and |f'(x)| by about e^(2 kappa s x), so the
    residual is >= |f(x + s)| / (2 eps) eventually; for s < 0 the f(x) or f'
    term dominates, with kappa x^2 + O(log x).  With f's origin (alpha, lam),
    alpha != 0 and alpha < 1, a centred residual row with c != 0 declares
    the origin of f' (f.ends(True)): X_eps = O(1) + O(x^alpha) as x -> 0+,
    which c f'(x) ~ x^(alpha - 1) outgrows; the other rows declare none.
    """
    shifts = [eps * c for _, eps, c, _ in rows]
    shift = np.array(shifts)
    log_eps = np.array([math.log(eps) for _, eps, _, _ in rows])
    centre = np.array([c if centered else 0.0 for _, _, c, centered in rows])
    log_centre = np.array([math.log(abs(c)) if c else 0.0 for c in centre])
    expo = np.array([np.nan if q is None else q for q, _, _, _ in rows])  # NaN: psi
    lead = np.where(np.isnan(expo), 2.0, expo)  # the power of |X_eps| in the member

    def at(x, row, lx):
        """(r, k) of g_row(x): the plain difference (unit eps along the shift),
        then the row's log eps; f' (placed with the difference) and the
        centring, and psi, only on their rows."""
        row = np.full(x.shape, row) if np.ndim(row) == 0 else row
        cen = np.flatnonzero(centre[row])
        s, l, k, (ds, dl) = difference_quotient_slog(f, x, 1.0, shift[row], lx, cen)
        l = l - log_eps[row]
        if cen.size:
            r = row[cen]
            l[cen] = slog_sub(s[cen], l[cen], np.sign(centre[r]) * ds, dl + log_centre[r])[1]
        out = expo[row] * l
        psi = np.flatnonzero(np.isnan(expo[row]))
        if psi.size:
            out[psi] = _psi_log(2.0 * l[psi], 2.0 * (k * x * x)[psi])
        return out, lead.take(row) * k

    plain = f.ends()
    residual = f.ends(True).origin if f.origin and f.origin[0] < 1.0 else None
    ends = []
    for (q, _, c, centered), s, lead_i in zip(rows, shifts, lead.tolist()):
        row_ends = plain.shift(s)
        if residual and q is not None and c and centered:
            row_ends = quad.Ends(row_ends.support, row_ends.right, residual)
        ends.append(row_ends.pow(lead_i))
    return _route_family(f, tuple(_scalar_cuts(f, shifts=(s,)) for s in shifts), tuple(ends), at)


def diffquot_pow_integrand(f: ScalarFunctional, q: float, eps: float, c: float,
                           centered: bool) -> Family:
    """|(f(x+eps c) - f(x))/eps - centered * c f'(x)|^q as a one-row family.

    The benchmark (perfbench/run.py) also times its log_eval by this name.
    """
    return _quotient_family(f, [(q, eps, c, centered)])


# ---------------------------------------------------------------------------
# seminorms and L^q quotient norms
# ---------------------------------------------------------------------------

def sobolev_seminorm(f: ScalarFunctional, p: float, *,
                     atol: float = quad.DEFAULT_ATOL, rtol: float = quad.DEFAULT_RTOL,
                     budget: int = quad.DEFAULT_BUDGET):
    """Verdicts for (E|Z|^p, E ||grad Z||_H^p) with Z = f(W_1).

    Under the unit-direction identification the gradient norm is |f'(W_1)|.
    """
    if not p > 1.0:
        raise ValueError("need p > 1")
    return tuple(quad.gaussian_expectation(_abs_pow_family(f, p, deriv), atol=atol,
                                           rtol=rtol, budget=budget)
                 for deriv in (False, True))


def lq_diffquot_norm(f: ScalarFunctional, q: float, eps: float, c: float, *,
                     centered: bool = False,
                     atol: float = quad.DEFAULT_ATOL, rtol: float = quad.DEFAULT_RTOL,
                     budget: int = quad.DEFAULT_BUDGET) -> IntegralVerdict:
    """E[ |X_eps - (c f'(W_1) if centered else 0)|^q ] for Z = f(W_1)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if q <= 0.0:
        raise ValueError("need q > 0")
    return quad.gaussian_expectation(diffquot_pow_integrand(f, q, eps, c, centered),
                                     atol=atol, rtol=rtol, budget=budget)


def _quotient_jobs(f: ScalarFunctional, parts, grid: EpsilonGrid, atol: float, rtol: float,
                   budget: int) -> list:
    """A job per part (quantity, q, h_T, centered), the rows of all parts on one
    weighted family: a round of quad._lockstep makes one body call per route.

    A part has a row per eps of the grid capped to f's window.  With q, a row
    is E|X_eps - centered * h_T f'(W_1)|^q (quad._expectation_job), and join
    gives an LqRow per eps.  With q None, it is E[psi(|X_eps|^2)] over the
    pieces below / inside / above the core, which share the budget as the
    pieces of a line do, and join gives the labelled piece verdicts per eps
    (none for h_T = 0).
    """
    rows, spans = [], []
    for _, q, h_T, centered in parts:
        eps_values = grid.capped(f.window / abs(h_T) if f.window and h_T else None).values
        spans.append(range(len(rows), len(rows) + len(eps_values)))
        rows += [(q, eps, h_T, centered) for eps in eps_values]
    fam = quad.weighted(_quotient_family(f, rows))
    return [_part_job(f, fam, part, span, [rows[row][1] for row in span], atol, rtol, budget)
            for part, span in zip(parts, spans)]


def _part_job(f, fam, part, span, eps_values, atol, rtol, budget):
    """The job of a part of _quotient_jobs, whose rows of fam are span."""
    quantity, q, h_T, _ = part
    if q is not None:
        drivers, join = quad._expectation_job(fam, span, atol, rtol, budget)
        return drivers, lambda verdicts: tuple(
            LqRow(quantity, q, eps, v) for eps, v in zip(eps_values, join(verdicts)))
    plan = [[(label, lo, hi) for label, lo, hi in _dvp_pieces(f, eps, h_T) if lo < hi]
            for eps in eps_values] if h_T else []
    drivers = [quad._piece(fam, row, lo, hi, atol, rtol, budget // len(labelled))
               for row, labelled in zip(span, plan) for _, lo, hi in labelled]
    return drivers, lambda verdicts: [(eps, [(label, next(verdicts)) for label, _, _ in labelled])
                                      for eps, labelled in zip(eps_values, plan)]


@dataclass(frozen=True)
class SsgdResult:
    q: float
    h_T: float
    table: tuple            # LqRow per eps
    verdict: Flag
    final_residual: Optional[float]


def _tail_decreasing(vals, span: int = 4) -> bool:
    tail = vals[-span:]
    return all(b <= a * (1.0 + 1e-9) + 1e-300 for a, b in zip(tail, tail[1:]))


def ssgd_test(f: ScalarFunctional, p: float, q: float, h_T: float, grid: EpsilonGrid, *,
              atol: float = quad.DEFAULT_ATOL, rtol: float = quad.DEFAULT_RTOL,
              budget: int = quad.DEFAULT_BUDGET) -> SsgdResult:
    """Does E|X_eps - f'(W_1) h_T|^q -> 0 along the grid?  (_ssgd_result)"""
    if not 0.0 < q <= p:
        raise ValueError("need 0 < q <= p")
    (table,) = quad._lockstep(_quotient_jobs(f, [("diffquot_residual", q, h_T, True)], grid,
                                            atol, rtol, budget))
    return _ssgd_result(q, h_T, table, atol)


def _ssgd_result(q: float, h_T: float, table: tuple, atol: float) -> SsgdResult:
    """The verdict of ssgd_test from the residual rows of (q, h_T).

    Yes needs every row Converged, a nonincreasing tail over the last four
    rows and a final residual below TOL_SSGD; any Diverged row (or a plateau
    at or above TOL_SSGD) is a No; anything else stays Unknown.
    """
    flag = _verdicts_flag([r.verdict for r in table])
    if flag != Flag.YES:
        return SsgdResult(q, h_T, table, flag, None)
    # a row within the quadrature's absolute resolution is numerically zero
    floor = max(atol, 0.0)
    vals = [0.0 if abs(r.value) <= max(r.abs_error, floor) else abs(r.value) for r in table]
    final = vals[-1]
    decreasing = _tail_decreasing(vals)
    if decreasing and final < TOL_SSGD:
        return SsgdResult(q, h_T, table, Flag.YES, final)
    if final >= TOL_SSGD and not decreasing:
        return SsgdResult(q, h_T, table, Flag.NO, final)
    return SsgdResult(q, h_T, table, Flag.UNKNOWN, final)


# ---------------------------------------------------------------------------
# de la Vallee-Poussin uniform integrability
# ---------------------------------------------------------------------------

def _psi_log(ly, lq):
    """log psi(y) - lq, psi(y) = y |log y|, given ly = log y - lq: lq is the
    quadratic part of log y, which |log y| takes whole (psi(0) = psi(1) = 0)."""
    ly = np.asarray(ly, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ly + np.log(np.abs(ly + lq))
    return np.where(np.isneginf(ly), -np.inf, out)


def _dvp_pieces(f: ScalarFunctional, eps: float, h_T: float):
    """Named (label, lo, hi) integration pieces below/inside/above the core."""
    bps = sorted(f.breakpoints)
    lo_core = bps[0] if bps else 0.0
    hi_core = bps[-1] if len(bps) >= 2 else lo_core
    gap = 0.0 if h_T > 0.0 else eps * abs(h_T)
    return [("below", -math.inf, lo_core + gap),
            ("inside", lo_core + gap, hi_core + gap),
            ("above", hi_core + gap, math.inf)]


@dataclass(frozen=True)
class DvpResult:
    h_T: float
    verdict: Flag
    sup_value: Optional[float]
    table: tuple            # LqRow per eps and piece: below / inside / above / total
    bertrand_rows: tuple    # LqRow per majorant cross-check, exponents 5..8
    message: str = ""


def _majorant_job(f: ScalarFunctional, h_list, atol, rtol, budget):
    """The job of the Bertrand majorants behind the inside-piece estimate,
    exponents 5..8, whose join gives their LqRows; none for a functional
    without mu or for zero endpoints only."""
    if "mu" not in f.params or not any(h_list):
        return [], lambda verdicts: ()
    exponents = (5.0, 6.0, 7.0, 8.0)
    fam = quad.bertrand_family(exponents)
    drivers = [quad._piece(fam, row, 0.0, f.params["mu"], atol, rtol, budget) for row in range(4)]
    return drivers, lambda verdicts: tuple(LqRow("bertrand_majorant", e, None, next(verdicts))
                                           for e in exponents)


def dvp_uniform_integrability_test(f: ScalarFunctional, h_T: float, grid: EpsilonGrid, *,
                                   atol: float = quad.DEFAULT_ATOL,
                                   rtol: float = quad.DEFAULT_RTOL,
                                   budget: int = quad.DEFAULT_BUDGET) -> DvpResult:
    """sup over the eps window of E[psi(|X_eps|^2)], psi(y) = y |log y|  (_dvp_result)."""
    majorants, psi = quad._lockstep([
        _majorant_job(f, (h_T,), atol, rtol, budget),
        *_quotient_jobs(f, [("dvp", None, h_T, False)], grid, atol, rtol, budget)])
    return _dvp_result(h_T, psi, majorants)


def _dvp_result(h_T: float, psi, majorants: tuple) -> DvpResult:
    """The psi-test of h_T from its part's (eps, [(label, piece verdict)]) per eps.

    Yes iff every piece of every row Converged and the sup is finite; the
    shifted-gap / core / tail decomposition mirrors the two sign cases of the
    shift endpoint.  A zero shift endpoint is trivially uniformly integrable.
    """
    if h_T == 0.0:
        return DvpResult(h_T, Flag.YES, 0.0, (), (),
                         "zero direction endpoint: X_eps vanishes identically")
    rows = []
    totals = []  # per eps: Diverged if a piece is, Converged if all are
    for eps, pieces in psi:
        labels, verdicts = zip(*pieces)
        rows += [LqRow(f"dvp_{label}", 2.0, eps, v) for label, v in pieces]
        totals.append(quad._combine(verdicts, labels))
        if totals[-1].converged:
            rows.append(LqRow("dvp_total", 2.0, eps, totals[-1]))
    flag = _verdicts_flag(totals)
    sup = max([0.0, *(t.value for t in totals)]) if flag == Flag.YES else None
    return DvpResult(h_T, flag, sup, tuple(rows), majorants)


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

# Kish's effective sample size of the weights below which the reweighted
# mean certifies nothing.  The weights exp(W(h) - ||h||^2/2) are lognormal,
# so n paths have an expected effective size of n exp(-||h||^2).
MIN_EFFECTIVE_SAMPLES = 100.0


@dataclass(frozen=True)
class CmCheckResult:
    lhs: float
    rhs: float
    se_lhs: float
    se_rhs: float
    n_samples: int
    ess: float  # Kish's effective sample size of the weights, (sum w)^2 / sum w^2

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def within_3se(self) -> bool:
        return self.gap <= 3.0 * (self.se_lhs + self.se_rhs)


def cameron_martin_check(Z: CylindricalFunctional, h: CameronMartinDirection,
                         n_samples: int, seed: int) -> CmCheckResult:
    """Monte Carlo for E[Z(omega + h)] = E[Z(omega) exp(W(h) - ||h||^2/2)].

    Both sides ride the same paths (common random numbers); the shift acts on
    the coordinates exactly, W(h_i)(omega + h) = W(h_i)(omega) + <h_i, h>_H.
    The paths stream through one Philox block at a time; only the two sample
    arrays span all of them.  The weights' effective sample size says how
    many paths the reweighted mean really rests on.
    """
    if n_samples < 2:
        raise ValueError(f"the standard errors need at least 2 samples, got {n_samples}")
    grid = merged_grid(Z.directions + (h,))
    shift = np.array([[cm_inner(hi, h)] for hi in Z.directions])
    half_norm2 = 0.5 * cm_inner(h, h)
    lhs_samples, rhs_samples = np.empty(n_samples), np.empty(n_samples)
    sum_w = sum_w2 = 0.0
    n = float(n_samples)
    # a sample past double range gives a non-finite mean or se: inconclusive, no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for start, W in wiener_integral_blocks(Z.directions + (h,), grid, n_samples, seed):
            coords, stop = W[:-1], start + W.shape[1]
            lhs_samples[start:stop] = Z.poly((coords + shift).T)
            weights = np.exp(W[-1] - half_norm2)
            rhs_samples[start:stop] = Z.poly(coords.T) * weights
            sum_w += float(weights.sum())
            sum_w2 += float(np.dot(weights, weights))
            del weights  # not alive while the next block is drawn
        return CmCheckResult(
            lhs=float(np.mean(lhs_samples)),
            rhs=float(np.mean(rhs_samples)),
            se_lhs=float(np.std(lhs_samples, ddof=1) / math.sqrt(n)),
            se_rhs=float(np.std(rhs_samples, ddof=1) / math.sqrt(n)),
            n_samples=n_samples,
            ess=sum_w * sum_w / sum_w2 if sum_w2 else 0.0,  # all weights 0: no path counts
        )


def sgd_probability_test(Z: CylindricalFunctional, h: CameronMartinDirection,
                         grid: EpsilonGrid, delta: float, n_samples: int, seed: int):
    """Empirical P(|X_eps - <grad Z, h>| > delta) per eps; rows (eps, prob)."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if n_samples < 1:
        raise ValueError(f"need at least 1 sample, got {n_samples}")
    tgrid = merged_grid(Z.directions + (h,))
    shift = np.array([cm_inner(hi, h) for hi in Z.directions])
    grads = Z.gradient_polys()
    counts = [0] * len(grid.values)
    for _, coords in wiener_integral_blocks(Z.directions, tgrid, n_samples, seed):
        x = coords.T
        pairing = np.zeros(x.shape[0])
        for i, poly_i in enumerate(grads):
            pairing += poly_i(x) * shift[i]
        base = Z.poly(x)
        for k, eps in enumerate(grid.values):
            shifted = Z.poly(x + eps * shift)
            resid = (shifted - base) / eps - pairing
            counts[k] += int(np.count_nonzero(np.abs(resid) > delta))
    return [(eps, count / n_samples) for eps, count in zip(grid.values, counts)]


# ---------------------------------------------------------------------------
# membership report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    name: str
    params: dict
    p: float
    deltas: tuple
    h_list: tuple
    seminorms: dict          # exponent -> (value verdict, deriv verdict)
    lq_table: tuple          # LqRows: uncentered quotient norms at q' = (1+p)/2
    ssgd: dict               # (q, h_T) -> SsgdResult
    dvp: dict                # h_T -> DvpResult
    flags: dict              # "in_base" / "ssgd_pp" / "in_plus" -> Flag
    chain_violations: tuple
    notes: tuple = ()

    @property
    def consistent(self) -> bool:
        return not self.chain_violations


def _verdicts_flag(verdicts) -> Flag:
    """No if any verdict Diverged, Yes if all Converged, Unknown otherwise."""
    return _combine_flags(Flag.NO if v.diverged else Flag.YES if v.converged else Flag.UNKNOWN
                          for v in verdicts)


def _combine_flags(flags) -> Flag:  # No wins; Yes needs at least one flag, all Yes
    flags = set(flags)
    return Flag.NO if Flag.NO in flags else Flag.YES if flags == {Flag.YES} else Flag.UNKNOWN


def membership_report(f: ScalarFunctional, p: float, deltas: Sequence[float] = (0.1, 0.5),
                      h_list: Sequence[float] = (1.0,),
                      grid: Optional[EpsilonGrid] = None, *,
                      extra_qs: Sequence[float] = (),
                      atol: float = quad.DEFAULT_ATOL, rtol: float = quad.DEFAULT_RTOL,
                      budget: int = quad.DEFAULT_BUDGET) -> MembershipReport:
    """Assemble the three-flag verdict chain for Z = f(W_1).

    in_base: order-p seminorm integrals both finite.
    ssgd_pp: L^p difference quotients converge to the derivative pairing for
             every tested direction endpoint (the order-(p,p) property).
    in_plus: sampled union over the delta list of the order-(p+delta)
             seminorms; one converged delta witnesses Yes, all tested deltas
             diverging reports No (the untested smaller deltas are recorded
             as sampled), anything else Unknown.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"need a finite p > 1, got {p!r}")
    if not all(0.0 <= t < math.inf for t in (atol, rtol)):
        raise ValueError(f"atol and rtol must be finite and >= 0, got {atol!r} and {rtol!r}")
    if not all(0.0 < d < math.inf for d in deltas):
        raise ValueError(f"every delta must be finite and > 0, got {tuple(deltas)}")
    if not all(abs(h_T) < math.inf for h_T in h_list) or len(set(h_list)) < len(h_list):
        raise ValueError(f"the h endpoints must be finite and distinct, got {tuple(h_list)}")
    grid = grid or EpsilonGrid.default()
    notes = []

    seminorms = {p: sobolev_seminorm(f, p, atol=atol, rtol=rtol, budget=budget)}
    for d in deltas:
        seminorms[p + d] = sobolev_seminorm(f, p + d, atol=atol, rtol=rtol, budget=budget)

    q_mid = 0.5 * (1.0 + p)
    qs = sorted({q_mid, p, *extra_qs})
    if not all(0.0 < q <= p for q in qs):
        raise ValueError("need 0 < q <= p")
    # driver order L^q, residual, majorants, psi: _lockstep raises the first error in it
    parts = ([(f"diffquot_norm[h={h_T:g}]", q_mid, h_T, False) for h_T in h_list]
             + [("diffquot_residual", q, h_T, True) for q in qs for h_T in h_list]
             + [("dvp", None, h_T, False) for h_T in h_list])
    jobs = _quotient_jobs(f, parts, grid, atol, rtol, budget)
    jobs.insert(len(parts) - len(h_list), _majorant_job(f, h_list, atol, rtol, budget))
    results = iter(quad._lockstep(jobs))
    lq_rows = [row for _ in h_list for row in next(results)]
    ssgd = {(q, h_T): _ssgd_result(q, h_T, next(results), atol) for q in qs for h_T in h_list}
    majorants = next(results)
    dvp = {h_T: _dvp_result(h_T, next(results), majorants) for h_T in h_list}

    in_base = _verdicts_flag(seminorms[p])
    ssgd_pp = _combine_flags(ssgd[(p, h_T)].verdict for h_T in h_list)

    per_delta = {d: _verdicts_flag(seminorms[p + d]) for d in deltas}
    if any(fl == Flag.YES for fl in per_delta.values()):
        in_plus = Flag.YES
    elif per_delta and all(fl == Flag.NO for fl in per_delta.values()):
        in_plus = Flag.NO
        notes.append("in_plus: No over the sampled delta list "
                     f"{tuple(deltas)}; smaller deltas untested")
    else:
        in_plus = Flag.UNKNOWN

    # enforce the inclusion chain in_plus => ssgd_pp => in_base
    violations = []
    if in_plus == Flag.YES and ssgd_pp == Flag.UNKNOWN:
        ssgd_pp = Flag.YES
        notes.append("ssgd_pp upgraded: implied by in_plus")
    if ssgd_pp == Flag.YES and in_base == Flag.UNKNOWN:
        in_base = Flag.YES
        notes.append("in_base upgraded: implied by ssgd_pp")
    if in_plus == Flag.YES and ssgd_pp == Flag.NO:
        violations.append("in_plus is Yes but ssgd_pp is No")
    if ssgd_pp == Flag.YES and in_base == Flag.NO:
        violations.append("ssgd_pp is Yes but in_base is No")

    flags = {"in_base": in_base, "ssgd_pp": ssgd_pp, "in_plus": in_plus}
    return MembershipReport(
        name=f.name, params=dict(f.params), p=p, deltas=tuple(deltas),
        h_list=tuple(h_list), seminorms=seminorms, lq_table=tuple(lq_rows),
        ssgd=ssgd, dvp=dvp, flags=flags, chain_violations=tuple(violations),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# evidence emission (CSV / Markdown)
# ---------------------------------------------------------------------------

CSV_HEADER = "quantity,q,epsilon,verdict,value,abs_error"


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def rows_to_csv(rows) -> str:
    """Fixed six-column evidence schema; floats use shortest-roundtrip repr."""
    lines = ["# schema=1", CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.quantity,
            _fmt(r.q),
            _fmt(r.epsilon),
            r.verdict.status,
            _fmt(r.verdict.value),
            _fmt(r.verdict.abs_error),
        ]))
    return "\n".join(lines) + "\n"


def report_evidence_rows(report: MembershipReport):
    rows = []
    for expo in sorted(report.seminorms):
        val, der = report.seminorms[expo]
        rows.append(LqRow("abs_moment", expo, None, val))
        rows.append(LqRow("deriv_moment", expo, None, der))
    rows.extend(report.lq_table)
    for (q, h_T), res in sorted(report.ssgd.items()):
        for r in res.table:
            rows.append(LqRow(f"diffquot_residual[h={h_T:g}]", q, r.epsilon, r.verdict))
    for h_T, res in sorted(report.dvp.items()):
        for r in res.table:
            rows.append(LqRow(f"{r.quantity}[h={h_T:g}]", r.q, r.epsilon, r.verdict))
        rows.extend(res.bertrand_rows)
    return rows


def report_to_csv(report: MembershipReport) -> str:
    return rows_to_csv(report_evidence_rows(report))


def report_to_markdown(report: MembershipReport) -> str:
    p = report.p
    lines = [
        f"# Membership report: {report.name}",
        "",
        f"parameters: {report.params or '(none)'}; p = {p:g}; "
        f"deltas = {list(report.deltas)}; h endpoints = {list(report.h_list)}",
        "",
        "## Verdict chain",
        "",
        "| space | flag |",
        "|---|---|",
        f"| order-{p:g} Sobolev class (seminorm finite) | {report.flags['in_base']} |",
        f"| order-({p:g},{p:g}) strong Gateaux class | {report.flags['ssgd_pp']} |",
        f"| union of higher-order classes (sampled deltas) | {report.flags['in_plus']} |",
        "",
    ]
    if report.chain_violations:
        lines += ["**Inconsistent report**: " + "; ".join(report.chain_violations), ""]
    for note in report.notes:
        lines.append(f"- {note}")
    if report.notes:
        lines.append("")
    lines += ["## Limit tests", "", "| test | h endpoint | flag | sup |", "|---|---|---|---|"]
    lines += [f"| L^{q:g} residuals | {h_T:g} | {res.verdict} | |"
              for (q, h_T), res in sorted(report.ssgd.items())]
    lines += [f"| psi-test | {h_T:g} | {res.verdict} | "
              f"{'n/a' if res.sup_value is None else format(res.sup_value, '.6g')} |"
              for h_T, res in sorted(report.dvp.items())]
    return "\n".join(lines) + "\n"
