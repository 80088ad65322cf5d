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

def _at_logx(pair_logx: Callable) -> Callable:
    """x -> pair_logx(log x), with (0, -inf) where log x = -inf."""
    def pair(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.log(np.asarray(x, dtype=float))
            sign, logabs = pair_logx(lx)
        zero = np.isneginf(lx)
        return np.where(zero, 0.0, sign), np.where(zero, -np.inf, logabs)
    return pair


def _derive(closed, pair, pair_logx, names, rate) -> tuple:
    """(closed form, (sign, log) pair) from whichever of the three is given;
    a pair holds log|.| - rate x^2."""
    if rate and pair is None:
        raise ValueError(f"a Gaussian rate needs {names[1]}")
    if pair is None and pair_logx is not None:
        pair = _at_logx(pair_logx)
    elif pair is None and closed is not None:
        pair = lambda x: slog_of(closed(x))
    if pair is None:
        raise ValueError(f"a piece needs one of {', '.join(names)}")
    return (closed if closed is not None
            else lambda x: slog_exp(*_whole(x, *pair(x), rate))), pair


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
    closed forms give the pairs through slog_of.

    rate is the piece's Gaussian rate k: log|f| = k x^2 + r(x) and log|f'| =
    k x^2 + r'(x), where slog and slog_deriv give r and r' and never k x^2.
    A piece with a rate gives both pairs.
    """

    value: Optional[Callable] = None
    deriv: Optional[Callable] = None
    slog: Optional[Callable] = None
    slog_deriv: Optional[Callable] = None
    slog_logx: Optional[Callable] = None
    slog_deriv_logx: Optional[Callable] = None
    rate: float = 0.0

    def __post_init__(self):
        for names in (("value", "slog", "slog_logx"), ("deriv", "slog_deriv", "slog_deriv_logx")):
            closed, pair = _derive(*(getattr(self, n) for n in names), names, self.rate)
            object.__setattr__(self, names[0], closed)
            object.__setattr__(self, names[1], pair)


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
    """

    name: str
    breakpoints: tuple
    pieces: tuple
    non_differentiable: frozenset = frozenset()
    singular_points: frozenset = frozenset()
    window: Optional[float] = None  # epsilon cap for limit diagnostics, if any
    params: dict = field(default_factory=dict)

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

    def _dispatch(self, x, attr: str):
        """Evaluate piece attribute `attr` at x, only on the pieces x falls
        in; the slog* attributes return (sign, r, k): their pieces' (sign, r)
        pairs and the Gaussian rate k of each point's piece."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        pair = attr.startswith("slog")
        idx = np.searchsorted(self._breakpoints, x, side="right")
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
        idx = int(np.searchsorted(self._breakpoints, 0.0, side="right"))
        return self.pieces[idx]

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

def difference_quotient_slog(f: ScalarFunctional, x, eps: float, c: float, lx=None):
    """(sign, l, k) of the difference quotient, vectorized over x (and c):
    log|(f(x + eps c) - f(x)) / eps| = k x^2 + l, with k the Gaussian rate at
    x.  f(x + eps c) and f(x) come from one piece dispatch, unless lx = log x
    is given: it goes to f.slog_parts for f(x), so x may have underflowed.

    Both logs are taken relative to k x^2 before slog_sub: the shifted point
    xs adds (k_xs - k) xs^2 + k d (x + xs), d = xs - x, which is exactly
    k d (2x + d) where both points share the rate; no x^2-sized log is formed.
    """
    x = np.asarray(x, dtype=float)
    xs = x + eps * c
    if lx is None:
        (s1, s0), (l1, l0), (k1, k0) = f.slog_parts(np.array([xs, x]))
    else:
        (s1, l1, k1), (s0, l0, k0) = f.slog_parts(xs), f.slog_parts(x, lx)
    l1 = l1 + (k1 - k0) * xs * xs + k0 * (xs - x) * (x + xs)
    sign, logabs = slog_sub(s1, l1, s0, l0)
    return sign, logabs if eps == 1.0 else logabs - math.log(eps), k0


def mc_difference_quotient(Z: CylindricalFunctional, h: CameronMartinDirection,
                           eps: float, omega: BrownianPath) -> float:
    """(Z(omega + eps*h) - Z(omega)) / eps along one sampled path."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (eval_cylindrical(Z, shift_path(omega, h, eps)) - eval_cylindrical(Z, omega)) / eps
