"""Signed log-space scalars: a value v is carried as (sign(v), log|v|).

The diagnostics integrate quantities like |f(x+eps) - f(x)|^q with f of size
exp(x^2/4); products, absolute powers and differences must therefore be done
on (sign, log) pairs, with plain arithmetic only used when it is safe.
Zero is (0, -inf).  All helpers are numpy-vectorized.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -np.inf


def slog_of(v):
    """(sign, log|v|) of ordinary numbers."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore"):
        return np.sign(v), np.log(np.abs(v))


def slog_exp(sign, logabs):
    """Back to ordinary floats; overflows to +-inf beyond exp(709)."""
    with np.errstate(over="ignore"):
        return np.asarray(sign, dtype=float) * np.exp(logabs)


def slog_add(s1, l1, s2, l2):
    """(s1 e^l1) + (s2 e^l2) as a (sign, log) pair, without forming the values;
    an exact cancellation, or two zero terms, gives the zero (0, -inf)."""
    s1, l1, s2, l2 = (np.asarray(a, dtype=float) for a in (s1, l1, s2, l2))
    lb, ls = np.maximum(l1, l2), np.minimum(l1, l2)
    sign = np.where(l1 > l2, s1, s2)
    opposite = s1 * s2 < 0
    gone = opposite & (ls == lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.exp(ls - lb)
        log = np.where(opposite, -e, e)  # magnitudes cancel or add
        np.add(lb, np.log1p(log, out=log), out=log)
    if not (s1.all() and s2.all()):  # a zero term adds nothing to the other one
        big_is_1 = (l1 > l2) | ((l1 == l2) & (s2 == 0))
        sb, ss = np.where(big_is_1, s1, s2), np.where(big_is_1, s2, s1)
        log = np.where(ss == 0, np.where(big_is_1, l1, l2) + 0.0, log)
        sign = np.where(sb != 0, sb, ss)
        gone |= (sb == 0) & (ss == 0)
    if gone.any():
        sign, log = np.where(gone, 0.0, sign), np.where(gone, NEG_INF, log)
    return sign, log


def slog_sub(s1, l1, s2, l2):
    return slog_add(s1, l1, -np.asarray(s2, dtype=float), l2)


def slog_abs_pow(logabs, q: float):
    """log of |v|^q from log|v|; sign is +1 (or 0 at v = 0)."""
    logabs = np.asarray(logabs, dtype=float)
    return np.where(np.isneginf(logabs), 0.0, 1.0), q * logabs
