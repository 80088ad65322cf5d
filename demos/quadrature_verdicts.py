#!/usr/bin/env python3
"""Tour of the verdict-producing quadrature engine.

Every expectation in this package is a one-dimensional integral that may be
finite, infinite, or undecidable within budget -- so the integrator returns a
three-way verdict instead of a bare number.  This script walks through the
textbook cases: Gaussian moments, power tails, harmonic divergence, and the
Bertrand scale 1/(x |log x|^i) at the origin, whose convergence flips exactly
at i = 1.
"""

import math

from wienerlab import (Family, bertrand_family, gaussian_expectation, integrate_adaptive,
                       integrate_semi_infinite, integrate_singular_origin)


def show(label, verdict, exact=None):
    if verdict.converged:
        line = f"{label:44s} converged: {verdict.value:.12g} (+- {verdict.abs_error:.1e})"
        if exact is not None:
            line += f"   [exact {exact:.12g}]"
    elif verdict.diverged:
        line = (f"{label:44s} DIVERGED ({verdict.evidence.reason}, "
                f"{len(verdict.evidence.records)} exhaustion steps)")
    else:
        line = f"{label:44s} inconclusive: {verdict.message}"
    print(line)


print("== finite intervals ==")
show("int_0^1 x dx", integrate_adaptive(Family.from_function(lambda x: x), 0, 1),
     exact=0.5)

print()
print("== Gaussian expectations E[g(W_1)] ==")
show("E[W^2]", gaussian_expectation(Family.from_function(lambda x: x * x)), exact=1.0)
show("E[W^4]", gaussian_expectation(Family.from_function(lambda x: x ** 4)), exact=3.0)
show("E[W^3] (odd, cancels)",
     gaussian_expectation(Family.from_function(lambda x: x ** 3)), exact=0.0)

print()
print("== semi-infinite tails, exhaustion points double ==")
show("int_2^inf x^-4 dx",
     integrate_semi_infinite(Family.from_function(lambda x: x ** -4.0), 2.0),
     exact=1.0 / 24.0)
show("int_2^inf x^-1 dx (harmonic)",
     integrate_semi_infinite(Family.from_function(lambda x: 1.0 / x), 2.0))

print()
print("== Bertrand scale at the origin: u = -log x turns it into u^-i ==")
for i in (6.0, 2.0, 1.0, 0.5):
    v = integrate_singular_origin(bertrand_family((i,)), math.exp(-10.0))
    exact = 10.0 ** (1 - i) / (i - 1) if i > 1 else None
    show(f"int_0^(e^-10) dx/(x |log x|^{i:g})", v, exact=exact)
