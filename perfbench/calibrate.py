"""Reference kernels that measure how fast the machine runs code right now.

On a shared virtual machine the speed of the same code drifts with the load
that other tenants put on the cores and caches it shares: the same
`reproduce-thm31` call took between 0.36 s and 0.74 s of CPU time within
one minute, in one process.  The benchmark therefore times a fixed kernel
between its operations and reports each time scaled to the speed at which
the kernel takes its reference time:

    scaled time = measured time * REFERENCE_S[kind] / kernel time

Nothing here comes from wienerlab, so a change to the program moves the
operations and leaves the kernels as they are.  There are two kinds, each
shaped like the hot loop of the workloads that use it:

* "interp": Python bookkeeping around numpy calls on 15-point arrays, a
  stack of Gauss-Kronrod panels such as the quadrature layer runs, and a
  plain Python loop of float and dict operations;
* "bulk": numpy over arrays of 300,000 elements (Philox normals, cumulative
  sums, a small Gram matrix, polynomial terms), as cm-check runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

# CPU seconds of one call: the median over runs of the benchmark on a 2-vCPU
# Intel Xeon virtual machine at 2.0 GHz (Python 3.11, numpy 2.4).  They only
# fix the unit of the scaled times.
REFERENCE_S = {"interp": 0.030, "bulk": 0.022}

# 15-point Kronrod nodes and weights on [-1, 1], with the embedded 7-point
# Gauss weights on the odd nodes
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_WG = np.zeros(15)
_WG[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
             0.381830050505119, 0.279705391489277, 0.129484966168870]

_BULK_N = 300_000


def _integrand(x, c):
    return np.exp(-0.5 * x * x) * np.abs(x - c) ** 0.5 / (1.0 + np.log1p(x * x))


def _interp_once() -> float:
    total = 0.0
    for c in np.linspace(-2.05, 1.95, 15):
        # the kink at c makes the stack split panels down to small widths
        stack = [(-8.0, 8.0)]
        panels = 0
        while stack and panels < 300:
            a, b = stack.pop()
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            fx = _integrand(mid + half * _XK, c)
            panels += 1
            kronrod, gauss = half * float(fx @ _WK), half * float(fx @ _WG)
            if abs(kronrod - gauss) > 1e-13 * max(1.0, abs(kronrod)):
                stack += [(a, mid), (mid, b)]
            else:
                total += kronrod
    seen = {}
    acc = 0.0
    for i in range(30000):
        acc += math.sqrt(i + 1.0) * 0.5
        seen[i & 511] = acc
    return total + acc


def _bulk_once() -> float:
    rng = np.random.Generator(np.random.Philox(12345))
    z = rng.standard_normal((4, _BULK_N // 4))
    w = np.cumsum(z, axis=1)
    gram = z @ z.T
    x = w[0] * 0.3 + w[1] * 0.1
    return float(np.mean(x ** 3 - 2.0 * x * w[2]) + gram[0, 1])


_KERNELS = {"interp": _interp_once, "bulk": _bulk_once}


def kernel_s(kind: str) -> float:
    """CPU seconds of one call of the named kernel."""
    once = _KERNELS[kind]
    t0 = time.process_time()
    once()
    return time.process_time() - t0
