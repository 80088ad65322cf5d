import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab.slog import NEG_INF, slog_add, slog_sub


def slog_add_reference(s1, l1, s2, l2):
    """slog_add with two exp and two log1p per element, as it was written first."""
    s1, l1, s2, l2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (s1, l1, s2, l2)))
    big_is_1 = (l1 > l2) | ((l1 == l2) & (s2 == 0))
    lb = np.where(big_is_1, l1, l2)
    ls = np.where(big_is_1, l2, l1)
    sb = np.where(big_is_1, s1, s2)
    ss = np.where(big_is_1, s2, s1)
    out_sign = np.where(sb != 0, sb, ss)
    with np.errstate(invalid="ignore", divide="ignore"):
        same = np.log1p(np.exp(ls - lb))
        diff = np.log1p(-np.exp(ls - lb))
    delta = np.where(sb * ss < 0, diff, same)
    delta = np.where(ss == 0, 0.0, delta)
    out_log = lb + delta
    cancel = (sb * ss < 0) & (ls == lb)
    out_sign = np.where(cancel, 0.0, out_sign)
    out_log = np.where(cancel, NEG_INF, out_log)
    zero = (sb == 0) & (ss == 0)
    out_sign = np.where(zero, 0.0, out_sign)
    out_log = np.where(zero, NEG_INF, out_log)
    return out_sign, out_log


def slog_add_where(s1, l1, s2, l2):
    """slog_add with every choice made by np.where over every point, as it
    was written before the zero and cancellation fixes went to the points
    that need them."""
    s1, l1, s2, l2 = (np.asarray(a, dtype=float) for a in (s1, l1, s2, l2))
    big_is_1 = (l1 > l2) | ((l1 == l2) & (s2 == 0))
    lb = np.where(big_is_1, l1, l2)
    ls = np.where(big_is_1, l2, l1)
    sb = np.where(big_is_1, s1, s2)
    ss = np.where(big_is_1, s2, s1)
    opposite = sb * ss < 0
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.exp(ls - lb)
        delta = np.log1p(np.where(opposite, -e, e))
    out_log = lb + np.where(ss == 0, 0.0, delta)
    gone = (opposite & (ls == lb)) | ((sb == 0) & (ss == 0))
    out_sign = np.where(gone, 0.0, np.where(sb != 0, sb, ss))
    out_log = np.where(gone, NEG_INF, out_log)
    return out_sign, out_log


def same_floats(got, ref):
    """Same types and shapes, NaN at the same points, and elsewhere the same
    values with the same sign bits (so -0.0 differs from 0.0)."""
    for g, r in zip(got, ref):
        g_arr, r_arr = np.asarray(g), np.asarray(r)
        if type(g) is not type(r) or g_arr.shape != r_arr.shape:
            return False
        nan = np.isnan(r_arr)
        if not (np.array_equal(np.isnan(g_arr), nan)
                and np.array_equal(g_arr[~nan], r_arr[~nan])
                and np.array_equal(np.signbit(g_arr[~nan]), np.signbit(r_arr[~nan]))):
            return False
    return True


def same_bits(got, ref):
    return all(type(g) is type(r) and np.shape(g) == np.shape(r)
               and np.asarray(g).tobytes() == np.asarray(r).tobytes()
               for g, r in zip(got, ref))


SIGNS = (1.0, -1.0, 0.0, -0.0)
LOGS = (NEG_INF, -745.0, -1.0, 0.0, 1e-17, 0.5, 1.0, 700.0, np.inf)


def test_every_sign_and_log_combination():
    # equal magnitudes, zero signs with any log, +-inf logs, and pairs whose
    # difference lies below the rounding of the larger
    combos = np.array(list(itertools.product(SIGNS, LOGS, SIGNS, LOGS))).T
    with np.errstate(invalid="ignore"):
        assert same_bits(slog_add(*combos), slog_add_reference(*combos))
        assert same_bits(slog_sub(*combos),
                         slog_add_reference(combos[0], combos[1], -combos[2], combos[3]))


def test_random_pairs_and_broadcasting():
    rng = np.random.default_rng(3)
    s1, s2 = rng.choice([-1.0, 0.0, 1.0], (2, 500))
    l1 = rng.normal(0.0, 5.0, 500)
    l2 = np.where(rng.random(500) < 0.2, l1, l1 + rng.normal(0.0, 1e-3, 500))
    assert same_bits(slog_add(s1, l1, s2, l2), slog_add_reference(s1, l1, s2, l2))
    assert same_bits(slog_add(1.0, l1, -1.0, 0.0), slog_add_reference(1.0, l1, -1.0, 0.0))


def test_zero_dimensional_inputs():
    for s1, l1, s2, l2 in [(1.0, 2.0, -1.0, 2.0), (-1.0, 3.0, 1.0, 1.0), (0.0, NEG_INF, 1.0, 4.0),
                           (1.0, 0.5, 1.0, 0.25), (0.0, NEG_INF, -0.0, NEG_INF)]:
        args = tuple(np.float64(a) for a in (s1, l1, s2, l2))
        with np.errstate(invalid="ignore"):
            got, ref = slog_add(*args), slog_add_reference(*args)
        assert same_bits(got, ref) and np.ndim(got[0]) == 0


# a term is a canonical zero (0, -inf) or any sign with any log, +-inf and NaN included
TERMS = st.one_of(st.just((0.0, NEG_INF)),
                  st.tuples(st.sampled_from(SIGNS + (np.nan,)),
                            st.one_of(st.sampled_from(LOGS + (np.nan, -0.0)), st.floats())))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(TERMS, TERMS, st.booleans()), min_size=1, max_size=24))
def test_matches_the_where_form(pairs):
    # the third field gives the second term the first one's log: equal logs
    s1, l1, s2, l2 = np.array([(a[0], a[1], b[0], a[1] if tie else b[1])
                               for a, b, tie in pairs]).T
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_floats(slog_add(s1, l1, s2, l2), slog_add_where(s1, l1, s2, l2))
        assert same_floats(slog_add(s1[0], l1[0], s2[0], l2[0]),
                           slog_add_where(s1[0], l1[0], s2[0], l2[0]))
