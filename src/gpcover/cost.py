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


def mass_centroid(cell: CellPixels, values) -> tuple[float, np.ndarray]:
    """Estimated cell mass and centroid from per-pixel density values.

    ``values`` holds one density value per pixel of ``cell.index``. The
    first moments are per-axis products summed in sequence, which gives the
    bits of ``(cell.centers * vw[:, None]).sum(axis=0)`` without building
    either ``(k, 2)`` table. When the mass is numerically zero the centroid
    falls back to the cell's geometric center.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if len(vals) != len(cell):
        raise ValueError(f"expected {len(cell)} values, got {len(vals)}")
    vw = vals * cell.pixel_area
    mass = float(vw.sum())
    if mass < _MASS_FLOOR:
        return mass, np.array(cell.geometric_center, dtype=float)
    ix, iy = cell.grid_index
    xs, ys = cell.domain.axis_centers()
    # cumsum adds in index order, as the column sums of a (k, 2) table do;
    # a pairwise sum() would round differently
    moments = [np.cumsum(axis.take(i) * vw)[-1] for axis, i in ((xs, ix), (ys, iy))]
    return mass, np.array(moments) / mass


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
