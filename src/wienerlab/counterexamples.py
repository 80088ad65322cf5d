"""The two catalog functionals that separate the membership classes.

Catalog key "thm31" (parameter a > 3/2): f grows like exp(x^2/4) x^-a above
the breakpoint sqrt(2a), glued below it to a bounded C^1 completion.  The
squared functional against the Gaussian weight decays like x^-2a, so Z and
its derivative have finite second moments; but any finite shift eps tilts the
weight by exp(eps x), so every squared difference quotient has a divergent
Gaussian expectation.

Catalog key "thm33" (parameters 0 < eta < mu < 1/e): f is sqrt(x)/log(x)^3 on
(0, mu], zero on the closed negative axis, and a compactly supported smooth
completion above mu.  The derivative behaves like the Bertrand scale
x^(-1/2) |log x|^-3 at the origin: its p-th moment converges exactly at
p = 2, which pins the functional inside the order-2 class but outside every
higher-order one.  The eta parameter is the shift window on which the
uniform-integrability argument operates.

The completions are the artifact's own closed forms (the construction only
requires bounded C^1, respectively smooth compact support, with C^1 gluing);
any conforming choice leaves the membership verdicts unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functionals import Function1D, ScalarFunctional, linear_functional, zero_piece
from .quadrature import Family

QUARTER_LOG_2PI = 0.25 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# smooth completions
# ---------------------------------------------------------------------------

def smooth_completion_g(x0: float, v: float, d: float) -> Function1D:
    """Bounded C^1 extension to the left of x0 with g(x0) = v, g'(x0) = d.

    g(x) = v + d (x - x0) exp(-(x - x0)^2); sup|g| <= |v| + |d| (2e)^(-1/2).
    """
    def value(x):
        t = np.asarray(x, dtype=float) - x0
        return v + d * t * np.exp(-t * t)

    def deriv(x):
        t = np.asarray(x, dtype=float) - x0
        return d * (1.0 - 2.0 * t * t) * np.exp(-t * t)

    return Function1D(value=value, deriv=deriv)


def _mollifier_ramp(t):
    """Smooth 0 -> 1 ramp exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))) on (0, 1), and its slope."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    slope = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    da = a / tm**2
    db = -b / (1.0 - tm) ** 2
    out[mid] = a / (a + b)
    slope[mid] = (da * b - a * db) / (a + b) ** 2
    return out, slope


def smooth_completion_G(mu: float, v: float, d: float) -> Function1D:
    """Smooth compactly supported extension above mu with G(mu) = v, G'(mu) = d.

    G(x) = (v + d (x - mu)) chi(x), with chi a mollifier cutoff equal to 1 on
    (0, 1.5 mu] and 0 on [2 mu, inf); support is contained in (0, 2 mu].
    The linear factor is taken at min(x, 2 mu), which changes nothing below
    2 mu and keeps G and G' exactly 0 above it where d x would overflow.
    """
    if mu <= 0.0:
        raise ValueError("need mu > 0")
    half = 0.5 * mu

    def chi(x):  # the cutoff and its slope in x
        ramp, slope = _mollifier_ramp((2.0 * mu - x) / half)
        return ramp, slope * (-1.0 / half)

    def linear(x):
        return v + d * (np.minimum(x, 2.0 * mu) - mu)

    def value(x):
        x = np.asarray(x, dtype=float)
        return linear(x) * chi(x)[0]

    def deriv(x):
        x = np.asarray(x, dtype=float)
        c, dc = chi(x)
        return d * c + linear(x) * dc

    return Function1D(value=value, deriv=deriv)


# ---------------------------------------------------------------------------
# catalog entry "thm31"
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm31Params:
    a: float = 2.0

    def __post_init__(self):
        if not 1.5 < self.a < math.inf:
            raise ValueError(f"need a finite a > 3/2, got a={self.a}")

    @property
    def breakpoint(self) -> float:
        return math.sqrt(2.0 * self.a)


def _thm31_right_piece(a: float) -> Function1D:
    """f(x) = exp(x^2/4) x^-a (2 pi)^(1/4), with the Gaussian rate 1/4: its
    pairs hold r(x) = -a log x + log(2 pi)/4 and, for f'(x) = exp(x^2/4)
    x^(-a-1) (x^2/2 - a) (2 pi)^(1/4), r'(x) = -(a+1) log x + log|x^2/2 - a|
    + log(2 pi)/4.  The x^2/4 is never added in: against the Gaussian
    weight the consumers form (q/4 - 1/2) x^2 for |f|^q, exactly 0 at q = 2."""
    def slog(x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x), QUARTER_LOG_2PI - a * np.log(x)

    def slog_deriv(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return (np.sign(0.5 * x * x - a),
                    np.log(np.abs(0.5 * x * x - a)) - (a + 1.0) * np.log(x) + QUARTER_LOG_2PI)

    return Function1D(slog=slog, slog_deriv=slog_deriv, rate=0.25)


def build_thm31(params: Thm31Params) -> ScalarFunctional:
    """Gaussian-tail growth functional: finite order-2 seminorms, divergent
    squared difference quotients.  It declares the tail (1/4, a), log|f| =
    x^2/4 - a log x + O(1), from which the rows that diverge at +inf are
    decided without evaluating."""
    a = params.a
    x0 = params.breakpoint
    right = _thm31_right_piece(a)
    v = float(right.value(x0))
    d = float(right.deriv(x0))
    left = smooth_completion_g(x0, v, d)
    return ScalarFunctional(name="thm31", breakpoints=(x0,), pieces=(left, right),
                            params={"a": a}, tail=(0.25, a))


def squared_quotient_floor_integrand(a: float, eps: float) -> Family:
    """Pointwise floor (up to a factor 4) of the squared difference quotient
    of the thm31 functional against the Gaussian weight, on [sqrt(2a), inf).

    With s = eps/2: exp(s^2/2 + s x) |(x+s)^(-a-1) ((x+s)^2/2 - a)|^2.
    Already weighted, as a one-row family; integrate it directly over
    [sqrt(2a), inf).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    s = 0.5 * eps

    def body(x, row=0):
        x = np.asarray(x, dtype=float)
        xs = x + s
        with np.errstate(divide="ignore"):
            log_psi = -(a + 1.0) * np.log(xs) + np.log(np.abs(0.5 * xs * xs - a))
        return (np.ones_like(x), 0.5 * s * s + s * x + 2.0 * log_psi + 0.5 * math.log(2 * math.pi),
                0.0)

    return Family(body)


# ---------------------------------------------------------------------------
# catalog entry "thm33"
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm33Params:
    eta: float = 1e-4
    mu: float = 2e-4

    def __post_init__(self):
        result = validate_eta_mu(self.eta, self.mu)
        if not result.ok:
            raise ValueError(f"invalid (eta, mu): {result.failed}: {result.message}")


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failed: Optional[str] = None
    message: str = ""


def validate_eta_mu(eta: float, mu: float) -> ValidationResult:
    """Check the shift-window conditions on (eta, mu).

    * ordering: 0 < eta < mu < 1/e.
    * weight_decreasing: 1/(x |log x|^i) decreasing on (0, mu+eta) for
      i = 5..8.  Its log has derivative -(1 + i/log x)/x, which is <= 0
      exactly where log x <= -i, so the condition holds iff mu + eta <= e^-8.
    * -(y log y) and y = x/log^6 x increasing on (0, eta] need no check once
      eta < 1/e: d log y / d log x = 1 + 6/|log x| > 0, and y < x < 1/e,
      where -y log y increases with y.
    """
    if not (0.0 < eta < mu < math.exp(-1.0)):
        return ValidationResult(False, "ordering", "need 0 < eta < mu < 1/e")
    if mu + eta > math.exp(-8.0):
        return ValidationResult(
            False, "weight_decreasing",
            f"1/(x |log x|^8) is not decreasing on (0, {mu + eta:g}); "
            f"requires mu + eta <= e^-8 ~= {math.exp(-8):.4e}")
    return ValidationResult(True)


def _thm33_core_piece() -> Function1D:
    """F(x) = sqrt(x) / log(x)^3 on (0, mu], written as (sign, log) pairs in
    log x; F vanishes at x = 0.

    F'(x) = 1/(2 sqrt(x) log(x)^3) - 3/(sqrt(x) log(x)^4)
          = (log x - 6) / (2 sqrt(x) log(x)^4).
    """
    def slog_logx(lx):
        lx = np.asarray(lx, dtype=float)
        return np.sign(lx), 0.5 * lx - 3.0 * np.log(np.abs(lx))

    def slog_deriv_logx(lx):
        lx = np.asarray(lx, dtype=float)
        return (np.sign(lx - 6.0),
                np.log(np.abs(lx - 6.0)) - math.log(2.0) - 0.5 * lx - 4.0 * np.log(np.abs(lx)))

    return Function1D(slog_logx=slog_logx, slog_deriv_logx=slog_deriv_logx)


def build_thm33(params: Thm33Params) -> ScalarFunctional:
    """Origin-cusp functional: order-2 seminorms finite, every higher order
    divergent, with uniformly integrable squared quotients on the eta window.

    It declares its support (0, 2 mu): f is 0 on the closed negative axis,
    and the completion G's mollifier ramp is exactly 0 on [2 mu, inf).  It
    declares the origin (1/2, 3) of its core F: log|F| = log(x)/2 - 3
    log|log x|, from which the rows that diverge at 0 are decided without
    evaluating."""
    mu = params.mu
    core = _thm33_core_piece()
    v = float(core.value(mu))
    d = float(core.deriv(mu))
    tail = smooth_completion_G(mu, v, d)
    return ScalarFunctional(name="thm33", breakpoints=(0.0, mu),
                            pieces=(zero_piece(), core, tail),
                            non_differentiable=frozenset({0.0}),
                            singular_points=frozenset({0.0}),
                            window=params.eta,
                            params={"eta": params.eta, "mu": mu},
                            support=(0.0, 2.0 * mu), origin=(0.5, 3.0))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearParams:
    """The linear functional takes no parameters."""


# the catalog: name -> (parameter dataclass, builder); the dataclass fields
# are the parameters a name takes, with their defaults
CATALOG = {
    "linear": (LinearParams, lambda params: linear_functional()),
    "thm31": (Thm31Params, build_thm31),
    "thm33": (Thm33Params, build_thm33),
}


def catalog_build(name: str, **params) -> ScalarFunctional:
    """Build a catalog functional by name: linear, thm31 (a), thm33 (eta, mu)."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog functional {name!r}; known: {', '.join(CATALOG)}")
    params_cls, build = CATALOG[name]
    return build(params_cls(**params))
