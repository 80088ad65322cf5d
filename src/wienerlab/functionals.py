"""Functionals of the path and their derivatives.

Two families cover everything the diagnostics need:

* CylindricalFunctional -- a polynomial f of (W(h_1), ..., W(h_n)); its
  derivative in a direction h is sum_i df/dx_i(...) <h_i, h>_H, computed by
  exact coefficient manipulation.
* ScalarFunctional -- Z = f(W_T) for a piecewise-defined real function f.
  Each piece is written in one form (closed forms, (sign, log) pairs, or
  (sign, log) pairs in log x) and the others are derived from it, so the
  Gaussian-weighted diagnostics can work far beyond double-precision
  overflow of f itself.  A piece declares a Gaussian rate k (0 unless
  given), log|f| = k x^2 + r(x): its pairs hold r, every slog_parts call
  hands out (sign, r, k) with k per point, and the consumers add the
  quadratic parts of f, of its powers and of the Gaussian weight as one term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .slog import slog_exp, slog_of, slog_sub
from .wiener import BrownianPath, CameronMartinDirection, cm_inner, shift_path, wiener_integral

GLUE_TOL = 1e-10


# ---------------------------------------------------------------------------
# multivariate polynomials (exact coefficient arithmetic)
# ---------------------------------------------------------------------------

def _power(powers: dict, x: np.ndarray, j: int, p: int) -> np.ndarray:
    """Column j of x to the power p >= 1, memoized in powers[j, p]."""
    if (j, p) not in powers:
        if p == 1:
            powers[j, p] = np.ascontiguousarray(x[:, j])
        elif p % 2:
            powers[j, p] = _power(powers, x, j, p - 1) * _power(powers, x, j, 1)
        else:
            half = _power(powers, x, j, p // 2)
            powers[j, p] = half * half
    return powers[j, p]


class Polynomial:
    """Multivariate polynomial as {exponent tuple: coefficient}."""

    def __init__(self, n_vars: int, terms: Optional[dict] = None):
        self.n_vars = int(n_vars)
        self.terms: dict[tuple, float] = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.n_vars:
                raise ValueError("exponent tuple length must equal n_vars")
            if c != 0.0:
                self.terms[expo] = self.terms.get(expo, 0.0) + float(c)
        self.terms = {e: c for e, c in self.terms.items() if c != 0.0}

    @classmethod
    def variable(cls, i: int, n_vars: int) -> "Polynomial":
        expo = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {expo: 1.0})

    @classmethod
    def const(cls, c: float, n_vars: int) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: c})

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(float(other), self.n_vars)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.n_vars, out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(self.n_vars, {e: c * float(other) for e, c in self.terms.items()})
        out: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self.n_vars, out)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, Polynomial) else -float(other))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Polynomial.const(1.0, self.n_vars)
        for _ in range(int(k)):
            out = out * self
        return out

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def partial(self, i: int) -> "Polynomial":
        out: dict[tuple, float] = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                de = tuple(v - 1 if j == i else v for j, v in enumerate(e))
                out[de] = out.get(de, 0.0) + c * e[i]
        return Polynomial(self.n_vars, out)

    def __call__(self, x) -> np.ndarray:
        """Evaluate at a point (n_vars,), giving a scalar, or at a batch
        (n_paths, n_vars), giving an array of shape (n_paths,).

        Each power x_j^p is formed once, by squaring and multiplying, and
        shared by all terms; x_j^1 and x_j^2 are exactly x_j and x_j * x_j.
        """
        point = np.ndim(x) < 2
        x = np.atleast_2d(np.asarray(x, dtype=float))
        powers = {}
        out = np.zeros(x.shape[0])
        for e, c in self.terms.items():
            term = np.full(x.shape[0], c)
            for j, p in enumerate(e):
                if p:
                    term *= _power(powers, x, j, p)
            out += term
        return out[0] if point else out


# ---------------------------------------------------------------------------
# scalar functionals Z = f(W_T)
# ---------------------------------------------------------------------------

def _zero_at_origin(pair_logx: Callable) -> Callable:
    """pair_logx with (0, -inf) where log x = -inf: x = 0, on either form."""
    def pair(lx):
        zero = np.isneginf(lx)
        if not zero.any():
            return pair_logx(lx)
        with np.errstate(divide="ignore", invalid="ignore"):
            sign, logabs = pair_logx(lx)
        return np.where(zero, 0.0, sign), np.where(zero, -np.inf, logabs)
    return pair


def _at_logx(pair_logx: Callable) -> Callable:
    """x -> pair_logx(log x)."""
    def pair(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.asarray(x, dtype=float))
        return pair_logx(lx)
    return pair


def _derive(closed, pair, pair_logx, names, rate) -> tuple:
    """(closed form, (sign, log) pair, log-x pair) from whichever of the three
    is given; a pair holds log|.| - rate x^2."""
    if rate and pair is None:
        raise ValueError(f"a Gaussian rate needs {names[1]}")
    if pair_logx is not None:
        pair_logx = _zero_at_origin(pair_logx)
    if pair is None and pair_logx is not None:
        pair = _at_logx(pair_logx)
    elif pair is None and closed is not None:
        pair = lambda x: slog_of(closed(x))
    if pair is None:
        raise ValueError(f"a piece needs one of {', '.join(names)}")
    return (closed if closed is not None
            else lambda x: slog_exp(*_whole(x, *pair(x), rate))), pair, pair_logx


@dataclass(frozen=True)
class Function1D:
    """One piece of a piecewise scalar function, written in one form.

    value/deriv are the closed forms.  slog/slog_deriv map x to the
    (sign, log|.|) pair of the value and of the derivative, which is what the
    quadrature engine consumes.  slog_logx/slog_deriv_logx take log(x)
    instead of x, for pieces that must be probed at x far below the smallest
    positive double (the origin-singular diagnostics).  Give one form for the
    value and one for the derivative; the rest are derived: log-x pairs give
    the x pairs at log(x), pairs give the closed forms through slog_exp, and
    closed forms give the pairs through slog_of.  A log-x pair gives (0, -inf)
    at log x = -inf, so both forms read f(0) = 0 there.

    rate is the piece's Gaussian rate k: log|f| = k x^2 + r(x) and log|f'| =
    k x^2 + r'(x), where slog and slog_deriv give r and r' and never k x^2.
    A piece with a rate gives both pairs.

    tail = (kappa, p), on the piece that reaches +inf, declares log|f| =
    kappa x^2 - p log x + O(1) as x -> +inf; with kappa > 0 that also gives
    log|f'| = kappa x^2 - (p - 1) log x + O(1).  origin = (alpha, lam), on
    the piece that holds (0, b], declares log|f| = alpha log x - lam
    log|log x| + O(1) as x -> 0+; with alpha != 0 that also gives log|f'| =
    (alpha - 1) log x - lam log|log x| + O(1).  It needs the log-x forms,
    on which ScalarFunctional checks it far below the smallest double.  The
    rows built from f derive their growth at +inf and their power at 0 from
    these (diagnostics), and ScalarFunctional checks both.
    """

    value: Optional[Callable] = None
    deriv: Optional[Callable] = None
    slog: Optional[Callable] = None
    slog_deriv: Optional[Callable] = None
    slog_logx: Optional[Callable] = None
    slog_deriv_logx: Optional[Callable] = None
    rate: float = 0.0
    tail: Optional[tuple] = None
    origin: Optional[tuple] = None

    def __post_init__(self):
        if self.origin is not None and (self.slog_logx is None or self.slog_deriv_logx is None):
            raise ValueError("an origin declaration needs slog_logx and slog_deriv_logx")
        for names in (("value", "slog", "slog_logx"), ("deriv", "slog_deriv", "slog_deriv_logx")):
            for name, form in zip(names, _derive(*(getattr(self, n) for n in names), names,
                                                 self.rate)):
                object.__setattr__(self, name, form)


def zero_piece() -> Function1D:
    return Function1D(value=np.zeros_like, deriv=np.zeros_like)


@dataclass(frozen=True)
class ScalarFunctional:
    """Z = f(W_T) with f defined piece by piece on a partition of the line.

    pieces[i] rules [breakpoints[i-1], breakpoints[i]); the first piece owns
    (-inf, breakpoints[0]), the last [breakpoints[-1], inf).  At construction
    every interior breakpoint is checked for C^1 gluing (value and derivative
    agree from both sides within GLUE_TOL) unless it is listed in
    non_differentiable.

    support = (lo, hi) declares that f and f' are exactly 0 outside (lo, hi);
    the quadrature then skips the integration pieces on which a row built
    from f is 0.  The default is the whole line.  At construction f and f'
    must be exactly 0 at the probe points of _outside_probes, or it raises.

    tail is the (kappa, p) that the last piece declares (Function1D.tail), or
    None; no other piece may declare one.  At construction, r(x) + p log x,
    r = log|f| - kappa x^2, must be finite and spread by less than log 2 over
    x_b 2^j, j = 1, ..., 60 (x_b the last breakpoint, at least 1).  With
    kappa > 0 so must r'(x) + (p - 1) log x, r' = log|f'| - kappa x^2, over
    x_d 2^j, x_d = max(x_b, sqrt(|p| / kappa)): f' = f (2 kappa x - p / x)
    takes its form 2 kappa x f only where 2 kappa x^2 dominates |p|.
    This refuses a hidden e^(beta x) or a wrong kappa or p.

    origin is the (alpha, lam) that the piece holding (0, b] declares
    (Function1D.origin), or None; no other piece may declare one.  At
    construction, on that piece's log-x forms at u = -log x = u_b 2^j, j =
    1, ..., 40 (u_b = max(-log b, 1)), log|f| - alpha log x + lam log u must
    be finite and spread by less than log 2, and with alpha != 0 so must
    log|f'| - (alpha - 1) log x + lam log u from u_d = max(u_b, 2 |lam /
    alpha|) on: f' = f (alpha - lam / log x) / x takes its form alpha f / x
    only where alpha u dominates lam.  This refuses a wrong alpha, or a lam
    off by 1.  Either check that fails raises; one loop runs both.
    """

    name: str
    breakpoints: tuple
    pieces: tuple
    non_differentiable: frozenset = frozenset()
    singular_points: frozenset = frozenset()
    window: Optional[float] = None  # epsilon cap for limit diagnostics, if any
    params: dict = field(default_factory=dict)
    support: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        object.__setattr__(self, "_breakpoints", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "_rates", np.array([p.rate for p in self.pieces], dtype=float))
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ValueError("breakpoints must be increasing")
        for i, b in enumerate(self.breakpoints):
            left, right = self.pieces[i], self.pieces[i + 1]
            dv = abs(float(left.value(b)) - float(right.value(b)))
            if not dv <= GLUE_TOL:
                raise ValueError(f"{self.name}: value jump {dv:.3e} at breakpoint {b}")
            if b in self.non_differentiable:
                continue
            dd = abs(float(left.deriv(b)) - float(right.deriv(b)))
            if not dd <= GLUE_TOL:
                raise ValueError(f"{self.name}: derivative jump {dd:.3e} at breakpoint {b}")
        self._check_declarations()
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"{self.name}: the support needs lo < hi, got {self.support}")
        if math.isinf(lo) and math.isinf(hi):
            return  # the whole line: nothing lies outside
        probes = _outside_probes(lo, hi)
        for name in ("value", "deriv"):
            with np.errstate(all="ignore"):  # a NaN or an overflow is not 0 either
                bad = probes[getattr(self, name)(probes) != 0.0]
            if bad.size:
                raise ValueError(f"{self.name}: {name} is not 0 at x = {float(bad[0])!r}, "
                                 f"outside the declared support {self.support}")

    @property
    def tail(self) -> Optional[tuple]:
        return self.pieces[-1].tail

    @property
    def origin(self) -> Optional[tuple]:
        return self._origin_piece().origin

    def _check_declarations(self):
        """The construction checks of the declared tail and origin (class docstring)."""
        if any(piece.tail is not None for piece in self.pieces[:-1]):
            raise ValueError(f"{self.name}: only the piece reaching +inf may declare a tail")
        at = int(self._place(0.0))
        if any(piece.origin is not None for i, piece in enumerate(self.pieces) if i != at):
            raise ValueError(f"{self.name}: only the piece holding (0, b] may declare an origin")
        with np.errstate(all="ignore"):
            for name, what, rest in self._declared_forms():
                if not (np.isfinite(rest).all() and rest.max() - rest.min() < math.log(2.0)):
                    raise ValueError(f"{self.name}: log|{name}| does not follow {what}")

    def _declared_forms(self):
        """(f or f', the declaration, log|.| less its declared form at the
        probes) for each check of _check_declarations."""
        if self.tail is not None:
            piece, (kappa, p) = self.pieces[-1], self.tail
            x_b = max(self.breakpoints[-1], 1.0) if self.breakpoints else 1.0
            what = f"the declared tail (kappa, p) = {self.tail} past x = {x_b:g}"
            checks = [("f", piece.slog, p, x_b)]
            if kappa > 0:  # f' from x_d on, where 2 kappa x^2 dominates |p|
                checks.append(("f'", piece.slog_deriv, p - 1.0,
                               max(x_b, math.sqrt(abs(p) / kappa))))
            for name, pair, power, start in checks:
                x = start * 2.0 ** np.arange(1, 61)
                yield name, what, pair(x)[1] + (piece.rate - kappa) * x * x + power * np.log(x)
        if self.origin is not None:
            piece, (alpha, lam) = self._origin_piece(), self.origin
            b = min((b for b in self.breakpoints if b > 0.0), default=math.inf)  # the piece's end
            u_b = max(-math.log(b), 1.0)
            what = f"the declared origin (alpha, lam) = {self.origin} below x = e^-{u_b:g}"
            checks = [("f", piece.slog_logx, alpha, u_b)]
            if alpha:  # f' from u_d on, where alpha u dominates lam
                checks.append(("f'", piece.slog_deriv_logx, alpha - 1.0,
                               max(u_b, 2.0 * abs(lam / alpha))))
            for name, pair, power, start in checks:
                u = start * 2.0 ** np.arange(1, 41)  # past 2^40, alpha u hides lam log u
                x = np.exp(-u)
                yield name, what, pair(-u)[1] + piece.rate * x * x + power * u + lam * np.log(u)

    def _place(self, x):
        """The index of the piece each point of x falls in."""
        return np.searchsorted(self._breakpoints, x, side="right")

    def _dispatch(self, x, attr: str, idx=None):
        """Evaluate piece attribute `attr` at x, only on the pieces x falls
        in (idx = _place(x), if the caller has it); the slog* attributes
        return (sign, r, k): their pieces' (sign, r) pairs and the Gaussian
        rate k of each point's piece."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        pair = attr.startswith("slog")
        idx = self._place(x) if idx is None else idx
        first, last = (int(idx.min()), int(idx.max())) if x.size else (0, -1)
        outs = (np.empty_like(x), np.empty_like(x)) if pair else (np.empty_like(x),)
        for i in range(first, last + 1):
            m = Ellipsis if first == last else idx == i
            if m is Ellipsis or m.any():
                got = getattr(self.pieces[i], attr)(x[m])
                for out, v in zip(outs, got if pair else (got,)):
                    out[m] = v
        outs = tuple(out[0] if scalar else out for out in outs)
        if not pair:
            return outs[0]
        return (*outs, self._rates.take(idx[0] if scalar else idx))

    def value(self, x):
        return self._dispatch(x, "value")

    def deriv(self, x):
        return self._dispatch(x, "deriv")

    def slog_parts(self, x, lx=None, deriv: bool = False):
        """(sign, r, k) of f (of f' if deriv) at x: log|.| = k x^2 + r, with k
        the Gaussian rate of x's piece.  Given lx = log x (x in the origin
        piece, and has_logx_forms()), that piece's log-x form is used, so x
        may have underflowed."""
        attr = "slog_deriv" if deriv else "slog"
        if lx is None:
            return self._dispatch(x, attr)
        origin = self._origin_piece()
        return (*getattr(origin, f"{attr}_logx")(lx), origin.rate)

    def slog_value(self, x, lx=None):
        """(sign, log|f|) at x, or from lx as slog_parts takes it."""
        return _whole(x, *self.slog_parts(x, lx))

    def slog_deriv(self, x, lx=None):
        """(sign, log|f'|) at x, or from lx as slog_parts takes it."""
        return _whole(x, *self.slog_parts(x, lx, deriv=True))

    def _origin_piece(self) -> Function1D:
        return self.pieces[int(self._place(0.0))]

    def has_logx_forms(self) -> bool:
        """Whether slog_value and slog_deriv take lx: the origin piece has both log-x forms."""
        p = self._origin_piece()
        return p.slog_logx is not None and p.slog_deriv_logx is not None

    # Single-form views over the pairs.  Nothing in the package calls them;
    # they stay because the benchmark tracer (perfbench/tracer.py) wraps
    # these method names.
    def log_abs(self, x):
        return self.slog_value(x)[1]

    def value_sign(self, x):
        return self.slog_value(x)[0]

    def log_abs_deriv(self, x):
        return self.slog_deriv(x)[1]

    def deriv_sign(self, x):
        return self.slog_deriv(x)[0]

    def slog_value_at_logx(self, lx):
        return self.slog_value(np.exp(lx), lx)

    def slog_deriv_at_logx(self, lx):
        return self.slog_deriv(np.exp(lx), lx)


def _outside_probes(lo: float, hi: float) -> np.ndarray:
    """Points outside (lo, hi): each finite end, the next double beyond it,
    and the end moved out by max(|end|, 1) times 2^j for j = -60, -56, ..., 60
    (past the farthest point an exhaustion evaluates) and times 1e300."""
    steps = np.append(2.0 ** np.arange(-60, 61, 4), 1e300)
    return np.array([x for end, out in ((lo, -1.0), (hi, 1.0)) if math.isfinite(end)
                     for x in (end, np.nextafter(end, out * math.inf),
                               *(end + out * max(abs(end), 1.0) * steps))])


def _whole(x, sign, r, k):
    """(sign, log|.|) from slog_parts' (sign, r, k); (k x) x, not k x^2,
    so a rate of 0 gives r + 0 where x^2 overflows."""
    x = np.asarray(x, dtype=float)
    return sign, r + k * x * x


def linear_functional() -> ScalarFunctional:
    """f(x) = x; lies in every space the diagnostics can test."""
    piece = Function1D(
        value=lambda x: np.asarray(x, dtype=float) + 0.0,
        deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    return ScalarFunctional(name="linear", breakpoints=(), pieces=(piece,))


# ---------------------------------------------------------------------------
# cylindrical functionals Z = poly(W(h_1), ..., W(h_n))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylindricalFunctional:
    directions: tuple
    poly: Polynomial

    def __init__(self, directions: Sequence[CameronMartinDirection], poly: Polynomial):
        directions = tuple(directions)
        if len(directions) < 1:
            raise ValueError("need at least one direction")
        if poly.n_vars != len(directions):
            raise ValueError("polynomial arity must match the number of directions")
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "poly", poly)

    def coordinates(self, omega: BrownianPath) -> np.ndarray:
        return np.array([wiener_integral(h, omega) for h in self.directions])

    def gradient_polys(self) -> list:
        return [self.poly.partial(i) for i in range(self.poly.n_vars)]


def eval_cylindrical(Z: CylindricalFunctional, omega: BrownianPath) -> float:
    return float(Z.poly(Z.coordinates(omega)))


def pairing_with_h(Z, h: CameronMartinDirection, omega: BrownianPath) -> float:
    """<grad Z, h>_H evaluated along one path."""
    if isinstance(Z, CylindricalFunctional):
        coords = Z.coordinates(omega)
        return float(sum(
            float(p(coords)) * cm_inner(hi, h)
            for p, hi in zip(Z.gradient_polys(), Z.directions)
        ))
    if isinstance(Z, ScalarFunctional):
        x = omega.terminal
        if x in Z.non_differentiable:
            raise ValueError(f"{Z.name} is not differentiable at {x}")
        return float(Z.deriv(x)) * h.primitive_at(omega.grid.horizon)
    raise TypeError(f"unsupported functional type {type(Z)!r}")


# ---------------------------------------------------------------------------
# difference quotients
# ---------------------------------------------------------------------------

def difference_quotient_slog(f: ScalarFunctional, x, eps: float, c: float, lx=None,
                             deriv_at=None):
    """(sign, l, k) of the difference quotient, vectorized over x (and c):
    log|(f(x + eps c) - f(x)) / eps| = k x^2 + l, with k the Gaussian rate at
    x.  Given deriv_at (an index array into x), also the (sign, r) of f' at
    x[deriv_at], as a fourth item.  f(x + eps c), f(x) and f'(x[deriv_at])
    are placed on their pieces by one searchsorted, unless lx = log x is
    given: f(x) and f' then come from f.slog_parts with lx, so x may have
    underflowed.

    Both logs are taken relative to k x^2 before slog_sub: the shifted point
    xs adds (k_xs - k) xs^2 + k d (x + xs), d = xs - x, which is exactly
    k d (2x + d) where both points share the rate; no x^2-sized log is formed.
    """
    x = np.asarray(x, dtype=float)
    xs = x + eps * c
    deriv = ()
    if lx is None:
        both = np.array([xs, x])
        idx = f._place(both)
        (s1, s0), (l1, l0), (k1, k0) = f._dispatch(both, "slog", idx)
        if deriv_at is not None:
            deriv = (f._dispatch(x[deriv_at], "slog_deriv", idx[1][deriv_at])[:2],)
    else:
        (s1, l1, k1), (s0, l0, k0) = f.slog_parts(xs), f.slog_parts(x, lx)
        if deriv_at is not None:
            deriv = (f.slog_parts(x[deriv_at], lx[deriv_at], deriv=True)[:2],)
    l1 = l1 + (k1 - k0) * xs * xs + k0 * (xs - x) * (x + xs)
    sign, logabs = slog_sub(s1, l1, s0, l0)
    return (sign, logabs if eps == 1.0 else logabs - math.log(eps), k0, *deriv)


def mc_difference_quotient(Z: CylindricalFunctional, h: CameronMartinDirection,
                           eps: float, omega: BrownianPath) -> float:
    """(Z(omega + eps*h) - Z(omega)) / eps along one sampled path."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (eval_cylindrical(Z, shift_path(omega, h, eps)) - eval_cylindrical(Z, omega)) / eps
