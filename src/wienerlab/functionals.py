"""Functionals of the path and their derivatives.

Two families cover everything the diagnostics need:

* CylindricalFunctional -- a polynomial f of (W(h_1), ..., W(h_n)); its
  derivative in a direction h is sum_i df/dx_i(...) <h_i, h>_H, computed by
  exact coefficient manipulation.
* ScalarFunctional -- Z = f(W_T) for a piecewise-defined real function f.
  Each piece carries closed-form value, derivative and their (sign, log)
  representations so the Gaussian-weighted diagnostics can work far beyond
  double-precision overflow of f itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .slog import slog_exp, slog_of, slog_sub
from .wiener import BrownianPath, CameronMartinDirection, cm_inner, shift_path, wiener_integral

GLUE_TOL = 1e-10
LOG_OVERFLOW = 600.0  # switch difference quotients to log-space factorization


# ---------------------------------------------------------------------------
# multivariate polynomials (exact coefficient arithmetic)
# ---------------------------------------------------------------------------

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
        """Evaluate at a point (n_vars,) or a batch (n_paths, n_vars)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for e, c in self.terms.items():
            term = np.full(x.shape[0], c)
            for j, p in enumerate(e):
                if p:
                    term = term * x[:, j] ** p
            out += term
        return out if out.size > 1 else out[0]

    def __repr__(self):
        return f"Polynomial({self.n_vars}, {self.terms!r})"


# ---------------------------------------------------------------------------
# scalar functionals Z = f(W_T)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Function1D:
    """One piece of a piecewise scalar function.

    value/deriv are the closed forms; slog/slog_deriv map x to the
    (sign, log|.|) pair of the value and of the derivative, which is what the
    quadrature engine consumes, and default to slog_of of the closed form.
    The *_logx pairs take log(x) instead of x and are only needed for pieces
    that must be probed at x far below the smallest positive double (the
    origin-singular diagnostics).
    """

    value: Callable
    deriv: Callable
    slog: Callable = None
    slog_deriv: Callable = None
    slog_logx: Optional[Callable] = None
    slog_deriv_logx: Optional[Callable] = None

    def __post_init__(self):
        value, deriv = self.value, self.deriv
        if self.slog is None:
            object.__setattr__(self, "slog", lambda x: slog_of(value(x)))
        if self.slog_deriv is None:
            object.__setattr__(self, "slog_deriv", lambda x: slog_of(deriv(x)))


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
        """Evaluate piece attribute `attr` at x, piece by piece; the slog*
        attributes return (sign, log) pairs and fill two arrays."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        pair = attr.startswith("slog")
        outs = (np.empty_like(x), np.empty_like(x)) if pair else (np.empty_like(x),)
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        for i, piece in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                got = getattr(piece, attr)(x[m])
                for out, v in zip(outs, got if pair else (got,)):
                    out[m] = v
        outs = tuple(out[0] if scalar else out for out in outs)
        return outs if pair else outs[0]

    def value(self, x):
        return self._dispatch(x, "value")

    def deriv(self, x):
        return self._dispatch(x, "deriv")

    def slog_value(self, x):
        """(sign, log|f|) at x."""
        return self._dispatch(x, "slog")

    def slog_deriv(self, x):
        """(sign, log|f'|) at x."""
        return self._dispatch(x, "slog_deriv")

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

    # --- (sign, log) pairs parameterized by log(x), for x -> 0+ probing ---

    def _origin_piece(self) -> Function1D:
        idx = int(np.searchsorted(np.asarray(self.breakpoints), 0.0, side="right"))
        return self.pieces[idx]

    def has_logx_forms(self) -> bool:
        p = self._origin_piece()
        return p.slog_logx is not None and p.slog_deriv_logx is not None

    def slog_value_at_logx(self, lx):
        """(sign, log|f|) at x = exp(lx); needs has_logx_forms()."""
        return self._origin_piece().slog_logx(lx)

    def slog_deriv_at_logx(self, lx):
        """(sign, log|f'|) at x = exp(lx); needs has_logx_forms()."""
        return self._origin_piece().slog_deriv_logx(lx)


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


def malliavin_derivative_cylindrical(Z: CylindricalFunctional) -> list:
    """Coefficient functionals of the H-valued derivative over h_1..h_n.

    The derivative of Z = f(W(h_1),...,W(h_n)) is sum_i df/dx_i(...) h_i, so
    it is fully described by the list of partial-derivative polynomials.
    """
    return Z.gradient_polys()


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

def difference_quotient_1d(f: ScalarFunctional, x: float, eps: float, c: float) -> float:
    """(f(x + eps*c) - f(x)) / eps.

    When either log-magnitude exceeds LOG_OVERFLOW the quotient is formed in
    (sign, log) space, which stays meaningful long after f itself overflows
    a double; it is +-inf only when the quotient does.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    l1, l0 = f.slog_value(np.array([x + eps * c, x]))[1]
    if max(l1, l0) <= LOG_OVERFLOW:
        return (float(f.value(x + eps * c)) - float(f.value(x))) / eps
    return float(slog_exp(*difference_quotient_slog(f, x, eps, c)))


def difference_quotient_slog(f: ScalarFunctional, x, eps: float, c: float):
    """(sign, log|.|) of the difference quotient, vectorized over x."""
    x = np.asarray(x, dtype=float)
    s1, l1 = f.slog_value(x + eps * c)
    s0, l0 = f.slog_value(x)
    sign, logabs = slog_sub(s1, l1, s0, l0)
    return sign, logabs - math.log(eps)


def mc_difference_quotient(Z: CylindricalFunctional, h: CameronMartinDirection,
                           eps: float, omega: BrownianPath) -> float:
    """(Z(omega + eps*h) - Z(omega)) / eps along one sampled path."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (eval_cylindrical(Z, shift_path(omega, h, eps)) - eval_cylindrical(Z, omega)) / eps
