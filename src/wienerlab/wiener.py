"""Wiener-space primitives: time grids, Cameron-Martin directions, Brownian paths.

A Cameron-Martin direction h is stored through its density hdot, piecewise
constant on an explicit grid, so that the primitive h(t) = int_0^t hdot(s) ds,
the inner product <h1, h2>_H = int_0^T hdot1 hdot2 dt and the Wiener integral
W(h) = sum_i hdot_i (W_{t_{i+1}} - W_{t_i}) are all computed exactly (no
quadrature error enters downstream diagnostics through this layer).

Paths are sampled with counter-based Philox streams so that Monte Carlo runs
are reproducible and independent of how work is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_BATCH = 1 << 16  # paths per Philox substream


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes from 0 to the horizon T inclusive."""

    nodes: np.ndarray

    def __init__(self, nodes):
        nodes = _readonly(nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least the two nodes 0 and T")
        if nodes[0] != 0.0:
            raise ValueError("time grids start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, n_cells: int, horizon: float = 1.0) -> "TimeGrid":
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, horizon, n_cells + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def cell_widths(self) -> np.ndarray:
        return np.diff(self.nodes)


@dataclass(frozen=True)
class CameronMartinDirection:
    """Direction h in the Cameron-Martin space, h(t) = int_0^t hdot(s) ds.

    hdot is constant on each grid cell; density_values[i] is its value on
    [nodes[i], nodes[i+1]).
    """

    grid: TimeGrid
    density_values: np.ndarray

    def __init__(self, grid: TimeGrid, density_values):
        density_values = _readonly(density_values)
        if density_values.shape != (grid.n_cells,):
            raise ValueError("need one density value per grid cell")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density_values", density_values)

    @classmethod
    def constant(cls, value: float, horizon: float = 1.0) -> "CameronMartinDirection":
        return cls(TimeGrid(np.array([0.0, horizon])), np.array([value]))

    def primitive_at(self, t) -> np.ndarray:
        """h(t), exact for the piecewise-constant density (piecewise linear)."""
        t = np.asarray(t, dtype=float)
        nodes = self.grid.nodes
        cum = np.concatenate(([0.0], np.cumsum(self.density_values * self.grid.cell_widths)))
        idx = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, self.grid.n_cells - 1)
        return cum[idx] + self.density_values[idx] * (t - nodes[idx])


@dataclass(frozen=True)
class BrownianPath:
    """One Brownian path W on a grid; W at node i is values[i], values[0] = 0.

    A Cameron-Martin shift is kept in a separate drift array so that shifting
    by eps*h and then by -eps*h restores the stored values bit-exactly
    ((-eps)*h(t) is the exact IEEE negation of eps*h(t)).
    """

    grid: TimeGrid
    base: np.ndarray
    drift: np.ndarray
    values: np.ndarray = field(init=False)

    def __init__(self, grid: TimeGrid, base, drift=None):
        base = _readonly(base)
        if base.shape != (grid.n_cells + 1,):
            raise ValueError("need one path value per grid node")
        if drift is None:
            drift = np.zeros_like(base)
        drift = _readonly(drift)
        if base[0] + drift[0] != 0.0:
            raise ValueError("paths start at 0")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "values", _readonly(base + drift))

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


def _check_same_horizon(a: TimeGrid, b: TimeGrid) -> None:
    if a.horizon != b.horizon:
        raise ValueError(
            f"time horizons differ: {a.horizon} vs {b.horizon}"
        )


def merged_grid(directions) -> TimeGrid:
    """Common refinement of the grids of several directions."""
    directions = list(directions)
    if not directions:
        raise ValueError("need at least one direction")
    nodes = directions[0].grid.nodes
    for d in directions[1:]:
        _check_same_horizon(directions[0].grid, d.grid)
        nodes = np.union1d(nodes, d.grid.nodes)
    return TimeGrid(nodes)


def _density_on(nodes: np.ndarray, h: CameronMartinDirection) -> np.ndarray:
    """Density of h on each cell of a refinement of h's grid."""
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    idx = np.clip(np.searchsorted(h.grid.nodes, mids, side="right") - 1, 0, h.grid.n_cells - 1)
    return h.density_values[idx]


def cm_inner(h1: CameronMartinDirection, h2: CameronMartinDirection) -> float:
    """<h1, h2>_H = int_0^T hdot1(t) hdot2(t) dt, exact for piecewise densities."""
    nodes = merged_grid([h1, h2]).nodes
    widths = np.diff(nodes)
    with np.errstate(over="ignore"):  # past double range it is inf
        return float(np.sum(_density_on(nodes, h1) * _density_on(nodes, h2) * widths))


def cm_norm(h: CameronMartinDirection) -> float:
    """The Cameron-Martin norm ||h||_H = sqrt(<h, h>_H)."""
    return math.sqrt(cm_inner(h, h))


def _rng_for(seed: int, substream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(substream))


def sample_path(grid: TimeGrid, seed: int) -> BrownianPath:
    """One standard Brownian path, W_0 = 0: its increments are row 0 of
    sample_increments(grid, n, seed) for every n."""
    _, incs = next(_increment_blocks(grid, 1, seed))
    values = np.concatenate(([0.0], np.cumsum(incs[0])))
    return BrownianPath(grid, values)


def _increment_blocks(grid: TimeGrid, n_paths: int, seed: int):
    """Yield (start, block), the rows from start on of the (n_paths, n_cells)
    increment matrix; one Philox substream per block of _BATCH rows makes each
    row a pure function of (grid, seed, row index), however the work is split.
    """
    sqdt = np.sqrt(grid.cell_widths)
    for b, start in enumerate(range(0, n_paths, _BATCH)):
        rows = min(_BATCH, n_paths - start)
        block = _rng_for(seed, b).standard_normal((rows, grid.n_cells))
        block *= sqdt
        yield start, block


def sample_increments(grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """(n_paths, n_cells) matrix of Brownian increments."""
    blocks = [block for _, block in _increment_blocks(grid, n_paths, seed)]
    return np.vstack(blocks) if blocks else np.empty((0, grid.n_cells))


def _project(block: np.ndarray, dens) -> np.ndarray:
    """W[i, r] = block[r] @ dens[i], each path rounded as in any other block."""
    rows = block.shape[0]
    if rows == 1:
        # numpy forms a one-row product with dot, which rounds unlike the
        # gemv that every other path goes through; a doubled row stays on gemv
        block = np.vstack((block, block))
    W = np.empty((len(dens), block.shape[0]))
    for i, d in enumerate(dens):
        np.matmul(block, d, out=W[i])
    return W[:, :rows]


def wiener_integral_blocks(directions, grid: TimeGrid, n_paths: int, seed: int):
    """Yield (start, W) with W[i, r] = W(directions[i]) on path start + r, the
    paths being the rows of sample_increments(grid, n_paths, seed) drawn one
    Philox block at a time."""
    dens = [_path_cell_density(h, grid) for h in directions]
    for start, block in _increment_blocks(grid, n_paths, seed):
        yield start, _project(block, dens)


def shift_path(omega: BrownianPath, h: CameronMartinDirection, eps: float) -> BrownianPath:
    """The shifted path omega + eps*h, evaluated at omega's grid nodes."""
    _check_same_horizon(omega.grid, h.grid)
    drift = omega.drift + eps * h.primitive_at(omega.grid.nodes)
    return BrownianPath(omega.grid, omega.base, drift)


def _path_cell_density(h: CameronMartinDirection, path_grid: TimeGrid) -> np.ndarray:
    """Density of h on each path cell; refuses when hdot jumps inside a cell."""
    _check_same_horizon(h.grid, path_grid)
    jumps = h.grid.nodes[1:-1][np.diff(h.density_values) != 0.0]
    inside = ~np.isin(jumps, path_grid.nodes)
    if np.any(inside):
        raise ValueError(
            f"density changes at t={jumps[inside][0]} inside a path cell; "
            "refine the path grid instead of silently approximating"
        )
    return _density_on(path_grid.nodes, h)


def wiener_integral(h: CameronMartinDirection, omega: BrownianPath) -> float:
    """W(h) = int_0^T hdot dW = sum_i hdot_i (W_{t_{i+1}} - W_{t_i})."""
    dens = _path_cell_density(h, omega.grid)
    return float(np.sum(dens * np.diff(omega.values)))


def wiener_integral_batch(h: CameronMartinDirection, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    """W(h) for a matrix of path increments, one value per row."""
    return _project(increments, [_path_cell_density(h, grid)])[0]


def girsanov_log_weight_batch(h: CameronMartinDirection, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    return wiener_integral_batch(h, grid, increments) - 0.5 * cm_inner(h, h)
