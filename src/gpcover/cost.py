"""Cell-cost evaluation: expected coverage cost, exploration bonus, gradients.

Each agent scores its own Voronoi cell under its local GP. The expected term
integrates ``0.5 ||q - p||^2`` against the clipped posterior mean; the
exploration term is the standard deviation of that same integral under the
posterior covariance, weighted by ``sqrt(beta)``. All integrals are pixel
sums with deterministic subsampling so repeated evaluation is bit-stable.

Every node is a pixel centre, so a cell carries grid indices rather than
coordinates. The expected term takes the posterior mean from
:func:`gpcover.gp.grid_posterior_mean`, one bounding-box product per cell, and
integrates with 1-D offsets per axis. The exploration term works on at most
``pair_budget`` nodes and never forms their posterior covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField
from .geometry import CellPixels, VoronoiPartition
from .gp import SparseGP, grid_posterior_mean, kernel_matrix
# the dense path, kept importable here for callers that look it up by name
from .gp import posterior_mean  # noqa: F401

# below this the exploration std is treated as exactly zero and its gradient vanishes
STD_FLOOR = 1e-9

_MASS_FLOOR = 1e-12

# variance_cost forms ``Kqq @ gw`` this many node rows at a time, so the k x k
# table is never allocated; blocks start at multiples of 64, where a row-blocked
# GEMV gives the same bits as the one-table GEMV
_NODE_BLOCK = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic quadrature controls for the cell-cost integrals.

    ``single_stride`` thins the single-integral pixel sum; ``pair_budget``
    caps the points entering the O(k^2) covariance double sum. ``beta``
    weights the exploration term.
    """

    single_stride: int = 1
    pair_budget: int = 256
    beta: float = 0.0

    def __post_init__(self):
        if self.single_stride < 1:
            raise ValueError(f"single_stride must be at least 1, got {self.single_stride}")
        if self.pair_budget < 4:
            raise ValueError(f"pair_budget must be at least 4, got {self.pair_budget}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


@dataclass(frozen=True, eq=False)
class CellCostReport:
    """Everything one agent needs from a cost evaluation of its cell."""

    expected: float
    std: float
    total: float
    grad_expected: np.ndarray
    grad_std: np.ndarray
    grad_total: np.ndarray


def _weighted_pixels(cell: CellPixels, idx) -> tuple[np.ndarray, np.ndarray, float]:
    """Grid columns and rows of the cell's pixels at ``idx``, with the equal
    share of the cell area that each one carries."""
    k = len(cell)
    ix, iy = (axis[idx] for axis in cell.grid_index)
    weight = cell.pixel_area if len(ix) == k else k * cell.pixel_area / len(ix)
    return ix, iy, weight


def _pair_nodes(cell: CellPixels, budget: int) -> tuple[np.ndarray, np.ndarray]:
    k = len(cell)
    if k <= budget:
        idx = slice(None)
    else:
        idx = np.unique(np.round(np.linspace(0, k - 1, budget)).astype(np.int64))
    ix, iy, weight = _weighted_pixels(cell, idx)
    xs, ys = cell.domain.axis_centers()
    return np.column_stack([xs[ix], ys[iy]]), np.full(len(ix), weight)


def expected_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Expected coverage cost of the cell and its gradient in the agent position.

    The posterior mean is evaluated on the grid of the cell's (strided)
    pixels and clipped at zero before integrating, matching the
    non-negativity of the underlying density. An empty cell costs nothing.
    """
    px, py = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    ix, iy, weight = _weighted_pixels(cell, slice(None, None, quad.single_stride))
    xs, ys = cell.domain.axis_centers()
    mw = grid_posterior_mean(gp, xs, ys, ix, iy)
    np.maximum(mw, 0.0, out=mw)
    mw *= weight
    dx = xs.take(ix)
    dx -= px
    dy = ys.take(iy)
    dy -= py
    d2 = dx * dx
    d2 += dy * dy
    return 0.5 * float(d2 @ mw), -np.array([dx @ mw, dy @ mw])


def variance_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Std of the cell cost under the GP posterior, with its position gradient.

    The variance is the double integral of ``f(q) f(q') cov(q, q')`` over the
    cell with ``f = 0.5 ||q - p||^2``, evaluated on the pair-budget nodes as
    ``gw . (Kqq gw - Kqz W^T W Kzq gw)`` with the GP's whitening factor ``W``,
    without forming the posterior covariance. ``Kqq gw`` is formed
    ``_NODE_BLOCK`` kernel rows at a time, so no k x k table is allocated;
    its bits equal the one-table product's. When the std falls below
    ``STD_FLOOR`` it is returned as is with a zero gradient (the direction is
    numerically meaningless there).
    """
    pos = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    nodes, weights = _pair_nodes(cell, quad.pair_budget)
    diff = nodes - pos
    gw = (diff ** 2).sum(axis=1) * weights
    cgw = np.empty(len(nodes))
    for start in range(0, len(nodes), _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        cgw[block] = kernel_matrix(nodes[block], nodes, gp.hyper) @ gw
    if len(gp.points) > 0:
        kq = kernel_matrix(nodes, gp.points, gp.hyper)
        cgw -= kq @ (gp.whiten.T @ (gp.whiten @ (kq.T @ gw)))
    var = 0.25 * float(gw @ cgw)
    std = float(np.sqrt(max(var, 0.0)))
    if std < STD_FLOOR:
        return std, np.zeros(2)
    return std, -(diff * (weights * cgw)[:, None]).sum(axis=0) / (2.0 * std)


def mass_centroid(partition: VoronoiPartition,
                  field: DensityField) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's mass and centroid under ``field``, summed over the owner runs.

    One ``np.add.reduceat`` over ``partition.run_start`` sums ``field.values``
    per run, and one sums ``field.x_weighted``, the density times x, which
    the field builds once. Each run lies in one row, so its y moment is its
    row's centre times its sum. ``np.bincount`` over the run owners folds the
    runs into agents. ``pixel_area`` cancels in the centroid and stays out of
    the sums, so they stay finite wherever the density's do; the returned
    masses carry it. A cell whose mass is below ``_MASS_FLOOR`` falls back to
    its geometric centre, the one case that cuts cells. An empty cell has mass
    0 and a NaN centroid. Returns the masses ``(n,)`` and the centroids
    ``(n, 2)``.
    """
    domain, n, run_start = field.domain, partition.n_agents, partition.run_start
    run_owner = partition.owner.ravel()[run_start]
    run_mass = np.add.reduceat(field.values.ravel(), run_start)
    run_x = np.add.reduceat(field.x_weighted.ravel(), run_start)
    run_y = domain.axis_centers()[1][run_start // domain.width] * run_mass
    mass, mx, my = (np.bincount(run_owner, w, minlength=n) for w in (run_mass, run_x, run_y))
    area_mass = mass * domain.pixel_area
    heavy = area_mass >= _MASS_FLOOR
    centroid = np.full((n, 2), np.nan)
    centroid[heavy] = np.column_stack([mx[heavy], my[heavy]]) / mass[heavy, None]
    for i in np.flatnonzero(~heavy & (np.bincount(run_owner, minlength=n) > 0)):
        centroid[i] = CellPixels(partition.cells[i], domain).geometric_center
    return area_mass, centroid


def cell_cost_report(cell: CellPixels, agent_pos, gp: SparseGP,
                     quad: QuadratureSpec) -> CellCostReport:
    """Full cost evaluation: expected term, exploration term, and their sum.

    ``total = expected + sqrt(beta) * std`` and likewise for the gradients.
    An empty cell yields an all-zero report.
    """
    expected, grad_expected = expected_cost(cell, agent_pos, gp, quad)
    std, grad_std = variance_cost(cell, agent_pos, gp, quad)
    root_beta = float(np.sqrt(quad.beta))
    return CellCostReport(expected, std, expected + root_beta * std, grad_expected, grad_std,
                          grad_expected + root_beta * grad_std)


def true_locational_cost(partition: VoronoiPartition, density: DensityField) -> float:
    """Ground-truth coverage cost of a configuration on the full pixel grid.

    Integrates ``0.5 ||q - p_owner(q)||^2 phi(q)`` over the workspace, with
    the squared distances the partition already holds (``partition.dist2``).
    This is a privileged metric: agents never see the true density.
    """
    return float(0.5 * np.sum(partition.dist2 * density.values) * density.domain.pixel_area)
