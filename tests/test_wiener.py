import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerlab import (BrownianPath, CameronMartinDirection, TimeGrid, cm_inner, cm_norm,
                       merged_grid, sample_increments, sample_path,
                       shift_path, wiener_integral)
from wienerlab.wiener import (_BATCH, girsanov_log_weight_batch, wiener_integral_batch,
                              wiener_integral_blocks)

UNIT = CameronMartinDirection.constant(1.0)


def piecewise(values, horizon=1.0):
    return CameronMartinDirection(TimeGrid.uniform(len(values), horizon), np.array(values))


class TestTimeGrid:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_uniform(self):
        g = TimeGrid.uniform(4)
        assert g.horizon == 1.0
        assert g.n_cells == 4


class TestInnerProduct:
    def test_unit_constants(self):
        assert cm_inner(UNIT, UNIT) == 1.0

    def test_sign_flip(self):
        assert cm_inner(UNIT, CameronMartinDirection.constant(-1.0)) == -1.0

    def test_half_support_exact(self):
        # density 1 on [0, 1/2), 0 after, against the unit density: exactly 1/2
        h1 = piecewise([1.0, 0.0])
        assert cm_inner(h1, UNIT) == 0.5

    def test_norms(self):
        assert cm_norm(UNIT) == 1.0
        assert cm_norm(CameronMartinDirection.constant(2.0)) == 2.0
        quarter = piecewise([1.0, 0.0, 0.0, 0.0])
        assert cm_norm(quarter) == 0.5  # sqrt(1/4)

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            cm_inner(UNIT, CameronMartinDirection.constant(1.0, horizon=2.0))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_bilinear(self, d1, d2, a, b):
        h1, h2 = piecewise(d1), piecewise(d2)
        assert cm_inner(h1, h2) == pytest.approx(cm_inner(h2, h1), abs=1e-12, rel=1e-12)
        combo = piecewise([a * x for x in d1])
        assert cm_inner(combo, h2) == pytest.approx(a * cm_inner(h1, h2),
                                                    abs=1e-10, rel=1e-10)


class TestSampling:
    def test_starts_at_zero(self):
        p = sample_path(TimeGrid.uniform(8), seed=1)
        assert p.values[0] == 0.0

    def test_deterministic(self):
        g = TimeGrid.uniform(8)
        a = sample_path(g, seed=42).values
        b = sample_path(g, seed=42).values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_path(g, seed=43).values)

    def test_terminal_moments(self):
        # CLT bounds at N = 1e6: |mean| <= 4/sqrt(N), |var - 1| <= 1%
        n = 10**6
        incs = sample_increments(TimeGrid.uniform(1), n, seed=2024)
        w1 = incs[:, 0]
        assert abs(w1.mean()) <= 4.0 / math.sqrt(n)
        assert abs(w1.var(ddof=1) - 1.0) <= 0.01

    def test_batching_invariant(self):
        # the same rows come out regardless of how many are requested
        g = TimeGrid.uniform(2)
        big = sample_increments(g, 1000, seed=5)
        small = sample_increments(g, 10, seed=5)
        assert np.array_equal(big[:10], small)

    def test_prefix_consistent_across_substreams(self):
        g = TimeGrid.uniform(3)
        big = sample_increments(g, 2 * _BATCH + 3, seed=11)
        mid = sample_increments(g, _BATCH + 1, seed=11)
        assert big.shape == (2 * _BATCH + 3, 3)
        assert np.array_equal(big[:_BATCH + 1], mid)
        # every block draws from its own substream, not from the first again
        assert not np.array_equal(big[_BATCH:_BATCH + 3], big[:3])
        assert not np.array_equal(big[2 * _BATCH:], big[_BATCH:_BATCH + 3])

    def test_integral_blocks_match_full_matrix(self):
        g = TimeGrid.uniform(4)
        dirs = (piecewise([1.0, 2.0, -1.0, 0.5]), piecewise([0.25, -3.0]), UNIT)
        n = _BATCH + 1
        incs = sample_increments(g, n, seed=13)
        got = np.empty((len(dirs), n))
        starts = []
        for start, W in wiener_integral_blocks(dirs, g, n, seed=13):
            starts.append(start)
            got[:, start:start + W.shape[1]] = W
        assert starts == [0, _BATCH]
        for i, h in enumerate(dirs):
            assert np.array_equal(got[i], wiener_integral_batch(h, g, incs))


    @pytest.mark.parametrize("cells", [6, 4])
    def test_one_row_batch_rounds_as_the_full_batch(self, cells):
        # numpy takes a one-row product through dot, which rounded 2,063
        # (6 cells) and 1,870 (4 cells) of these rows unlike the full matrix
        g = TimeGrid.uniform(cells)
        h = piecewise(np.linspace(-1.3, 2.1, cells))
        incs = sample_increments(g, 4000, seed=17)
        full = wiener_integral_batch(h, g, incs)
        rows = np.array([wiener_integral_batch(h, g, incs[r:r + 1])[0] for r in range(4000)])
        assert rows.tobytes() == full.tobytes()


class TestShift:
    def test_zero_shift_identity(self):
        p = sample_path(TimeGrid.uniform(4), seed=3)
        assert np.array_equal(shift_path(p, UNIT, 0.0).values, p.values)

    def test_linear_drift(self):
        p = sample_path(TimeGrid.uniform(4), seed=3)
        shifted = shift_path(p, UNIT, 1.0)
        assert shifted.values == pytest.approx(p.values + p.grid.nodes, abs=0.0)

    def test_roundtrip_bit_exact(self):
        g = TimeGrid.uniform(6)
        h = piecewise([0.3, -1.7, 2.0, 0.0, 5.5, -0.25])
        for seed in range(100):
            p = sample_path(g, seed=seed)
            eps = 0.1 + 0.9 * (seed / 100)
            back = shift_path(shift_path(p, h, eps), h, -eps)
            assert np.array_equal(back.values, p.values)


class TestWienerIntegral:
    def test_unit_density_gives_terminal(self):
        p = sample_path(TimeGrid.uniform(8), seed=9)
        assert wiener_integral(UNIT, p) == pytest.approx(p.terminal, abs=1e-15)

    def test_zero_density(self):
        p = sample_path(TimeGrid.uniform(8), seed=9)
        assert wiener_integral(CameronMartinDirection.constant(0.0), p) == 0.0

    def test_shift_bilinearity_identity(self):
        # W(h) o tau_{eps h'} - W(h) = eps <h, h'> pathwise
        g = TimeGrid.uniform(4)
        h = piecewise([1.0, 2.0, -1.0, 0.5])
        hp = piecewise([0.25, -3.0, 1.5, 1.0])
        ip = cm_inner(h, hp)
        for seed in range(20):
            p = sample_path(g, seed=seed)
            for eps in (0.5, 2.0 ** -6):
                lhs = wiener_integral(h, shift_path(p, hp, eps)) - wiener_integral(h, p)
                assert lhs == pytest.approx(eps * ip, rel=1e-12, abs=1e-14)

    def test_density_jump_inside_cell_refused(self):
        h = piecewise([1.0, 2.0, 1.0, 1.0])  # jumps at t = 0.25, 0.5
        p = sample_path(TimeGrid.uniform(2), seed=0)  # cells [0, 0.5), [0.5, 1)
        with pytest.raises(ValueError, match="density changes"):
            wiener_integral(h, p)

    def test_constant_on_refinement_allowed(self):
        h = piecewise([1.0, 1.0, 2.0, 2.0])  # value changes only at t = 0.5
        p = sample_path(TimeGrid.uniform(2), seed=0)
        assert math.isfinite(wiener_integral(h, p))


class TestGirsanov:
    def test_zero_direction(self):
        p = sample_path(TimeGrid.uniform(2), seed=1)
        zero = CameronMartinDirection.constant(0.0)
        assert math.exp(wiener_integral(zero, p) - 0.5 * cm_inner(zero, zero)) == 1.0

    def test_plugin_value(self):
        # unit density, path pinned at W_1 = 0: weight = exp(-1/2)
        g = TimeGrid(np.array([0.0, 1.0]))
        p = BrownianPath(g, np.array([0.0, 0.0]))
        weight = math.exp(wiener_integral(UNIT, p) - 0.5 * cm_inner(UNIT, UNIT))
        assert weight == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_martingale_property(self):
        # E[weight] = 1, checked within 3 standard errors at N = 1e6
        n = 10**6
        g = TimeGrid.uniform(1)
        incs = sample_increments(g, n, seed=77)
        w = np.exp(girsanov_log_weight_batch(UNIT, g, incs))
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3.0 * se


def test_merged_grid():
    g = merged_grid([piecewise([1.0, 2.0]), piecewise([1.0, 2.0, 3.0])])
    assert np.array_equal(g.nodes, [0.0, 1 / 3, 0.5, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        merged_grid([UNIT, CameronMartinDirection.constant(1.0, horizon=2.0)])


def test_paths_are_immutable():
    p = sample_path(TimeGrid.uniform(4), seed=0)
    with pytest.raises(ValueError):
        p.values[0] = 1.0
