"""The benchmark's workloads: fixed lists of CLI operations built from a seed.

Each workload is a list of slots.  A slot fixes the shape of one operation
(nominal parameters, the sign pattern of the direction endpoints, the
monomials and cell counts); the seed jitters the values around the nominal
ones.  The cost of a report varies tenfold with its parameters, and not
smoothly, so the slots keep the cost mix of a pass the same for every seed
while the inputs themselves change.

The list is repeated in the same order on every pass of a run; its first
operation is a cheap one, since the benchmark runs it once as a warm-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("thm31-report", "thm33-report", "cm-check")

CM_SAMPLES = 1_000_000


@dataclass(frozen=True)
class Op:
    """One CLI call; `params` holds the inputs the independent checks need."""

    argv: tuple
    params: dict = field(default_factory=dict)


def _jitter(rng: random.Random, lo: float, hi: float, digits: int) -> float:
    return round(rng.uniform(lo, hi), digits)


def _h_list(rng: random.Random, pattern) -> tuple:
    """Direction endpoints: each nominal endpoint of the pattern, jittered by +-3%."""
    return tuple(round(nominal * rng.uniform(0.97, 1.03), 3) for nominal in pattern)


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# thm31 (a > 3/2): (nominal a, nominal endpoints, jittered).  A jittered slot
# moves a by +-0.015 and each endpoint by +-3%.  Every endpoint list holds a
# positive endpoint, the direction in which the squared quotients diverge.
# The work of a report is a rough function of (a, endpoints): for
# 1.82 < a < 1.93 a negative endpoint costs between 2.5 s and 6.5 s from one
# hundredth of a to the next, and the cheap reports double their quadrature
# points at scattered points (a = 3.241 with endpoint 0.994 takes 36,780
# points, a = 3.241 with 1.0 or a = 3.25 with 0.994 about 17,000).  The
# median operation is one of the cheap reports, so those are not jittered;
# the two costly jittered slots kept their points within 1% over 17 seeds.
# a = 3.9 with endpoints (0.5, 2) is the report whose psi-test piece above
# the core spends the whole evaluation budget before it reaches the magnitude
# that certifies Diverged.
THM31_SLOTS = (
    (6.00, (1.0,), False),
    (2.00, (1.0, -1.0), True),
    (2.75, (1.0, -1.0), False),
    (3.25, (1.0,), False),
    (3.90, (0.5, 2.0), False),
    (5.00, (1.0, -1.0), False),
    (2.15, (1.0, -1.0), True),
    (2.45, (1.5,), False),
)

# thm33: (nominal mu, nominal eta / mu, nominal endpoints); mu and the ratio
# are jittered by +-3%.  mu + eta stays below e^-8 ~ 3.35e-4, the bound
# validate_eta_mu derives for the weight condition.
THM33_SLOTS = (
    (1.25e-4, 0.200, (1.0,)),
    (2.00e-4, 0.400, (1.0, -1.0)),
    (7.50e-5, 0.350, (1.0, -1.0)),
    (4.00e-5, 0.450, (-1.0,)),
    (2.15e-4, 0.075, (0.5, -2.0)),
    (1.65e-4, 0.400, (1.0, -1.0)),
)

# cm-check: (monomials, cells per functional direction, cells of the shift);
# a monomial is an exponent tuple over x1..xn.
CM_SLOTS = (
    (((2,),), (1,), 1),
    (((3,), (1,)), (2,), 2),
    (((1, 1), (0, 2)), (2, 3), 1),
    (((2, 1, 0), (0, 0, 1)), (1, 2, 4), 4),
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), (3, 1, 2), 2),
    (((3, 0), (0, 1), (0, 0)), (4, 2), 3),
)


def thm31_ops(seed: int) -> list:
    rng = random.Random(f"thm31-report/{seed}")
    ops = []
    for nominal, pattern, jittered in THM31_SLOTS:
        a, h = nominal, pattern
        if jittered:
            a = _jitter(rng, nominal - 0.015, nominal + 0.015, 3)
            h = _h_list(rng, pattern)
        argv = ("reproduce-thm31", "--a", repr(a), f"--h={_fmt_list(h)}", "--format", "both")
        ops.append(Op(argv, {"a": a, "h": h}))
    return ops


def thm33_ops(seed: int) -> list:
    rng = random.Random(f"thm33-report/{seed}")
    ops = []
    for mu_nominal, ratio, pattern in THM33_SLOTS:
        mu = float(f"{mu_nominal * rng.uniform(0.97, 1.03):.3e}")
        eta = float(f"{mu * ratio * rng.uniform(0.97, 1.03):.3e}")
        h = _h_list(rng, pattern)
        argv = ("reproduce-thm33", "--eta", repr(eta), "--mu", repr(mu),
                f"--h={_fmt_list(h)}", "--format", "both")
        ops.append(Op(argv, {"eta": eta, "mu": mu, "h": h}))
    return ops


def _poly_spec(terms: dict) -> str:
    parts = []
    for expo, coeff in terms.items():
        factors = [repr(coeff)] + [f"x{i + 1}^{e}" for i, e in enumerate(expo) if e]
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


def cm_ops(seed: int) -> list:
    rng = random.Random(f"cm-check/{seed}")
    ops = []
    for monomials, cells, shift_cells in CM_SLOTS:
        terms = {}
        for expo in monomials:
            coeff = _jitter(rng, 0.5, 2.0, 2) * rng.choice((-1.0, 1.0))
            terms[tuple(expo)] = coeff
        directions = tuple(tuple(_jitter(rng, -1.5, 1.5, 2) for _ in range(n)) for n in cells)
        # shifts of norm <= 0.5 keep the reweighted side's variance moderate
        shift = tuple(_jitter(rng, -0.5, 0.5, 2) for _ in range(shift_cells))
        mc_seed = rng.randrange(1, 2 ** 31)
        argv = ["cm-check", f"--poly={_poly_spec(terms)}"]
        argv += [f"--direction={_fmt_list(d)}" for d in directions]
        argv += [f"--shift={_fmt_list(shift)}", "--n-samples", str(CM_SAMPLES),
                 "--seed", str(mc_seed), "--format", "both"]
        ops.append(Op(tuple(argv), {"terms": terms, "directions": directions,
                                    "shift": shift}))
    return ops


def build(workload: str, seed: int) -> list:
    if workload == "thm31-report":
        return thm31_ops(seed)
    if workload == "thm33-report":
        return thm33_ops(seed)
    if workload == "cm-check":
        return cm_ops(seed)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
