"""Cell-cost evaluation: expected coverage cost, exploration bonus, gradients.

Each agent scores its own Voronoi cell under its local GP. The expected term
integrates ``0.5 ||q - p||^2`` against the clipped posterior mean; the
exploration term is the standard deviation of that same integral under the
posterior covariance, weighted by ``sqrt(beta)``. All integrals are pixel
sums with deterministic subsampling so repeated evaluation is bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField
from .geometry import CellPixels, VoronoiPartition
from .gp import SparseGP, kernel_matrix, posterior_mean

# below this the exploration std is treated as exactly zero and its gradient vanishes
STD_FLOOR = 1e-9

_MASS_FLOOR = 1e-12


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


def _weighted_nodes(cell: CellPixels, idx) -> tuple[np.ndarray, np.ndarray]:
    """The cell's nodes at ``idx``, each weighted by an equal share of the cell area."""
    k = len(cell)
    if len(idx) == k:
        return cell.centers, np.full(k, cell.pixel_area)
    return cell.centers[idx], np.full(len(idx), k * cell.pixel_area / len(idx))


def _single_nodes(cell: CellPixels, stride: int) -> tuple[np.ndarray, np.ndarray]:
    return _weighted_nodes(cell, np.arange(0, len(cell), stride))


def _pair_nodes(cell: CellPixels, budget: int) -> tuple[np.ndarray, np.ndarray]:
    k = len(cell)
    if k <= budget:
        idx = np.arange(k)
    else:
        idx = np.unique(np.round(np.linspace(0, k - 1, budget)).astype(np.int64))
    return _weighted_nodes(cell, idx)


def expected_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Expected coverage cost of the cell and its gradient in the agent position.

    The posterior mean is clipped at zero before integrating, matching the
    non-negativity of the underlying density. An empty cell costs nothing.
    """
    pos = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    nodes, weights = _single_nodes(cell, quad.single_stride)
    mu = np.maximum(posterior_mean(gp, nodes), 0.0)
    diff = nodes - pos
    g = (diff ** 2).sum(axis=1)
    mw = mu * weights
    return 0.5 * float(g @ mw), -(diff * mw[:, None]).sum(axis=0)


def variance_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Std of the cell cost under the GP posterior, with its position gradient.

    The variance is the double integral of ``f(q) f(q') cov(q, q')`` over the
    cell with ``f = 0.5 ||q - p||^2``, evaluated on the pair-budget nodes.
    When the std falls below ``STD_FLOOR`` it is returned as is with a zero
    gradient (the direction is numerically meaningless there).
    """
    pos = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    nodes, weights = _pair_nodes(cell, quad.pair_budget)
    diff = nodes - pos
    g = (diff ** 2).sum(axis=1)
    gw = g * weights
    cov = kernel_matrix(nodes, nodes, gp.hyper)
    if len(gp.points) > 0:
        kq = kernel_matrix(nodes, gp.points, gp.hyper)
        cov = cov - kq @ gp.inv_gram @ kq.T
    cgw = cov @ gw
    var = 0.25 * float(gw @ cgw)
    std = float(np.sqrt(max(var, 0.0)))
    if std < STD_FLOOR:
        return std, np.zeros(2)
    grad = -(diff * (weights * cgw)[:, None]).sum(axis=0) / (2.0 * std)
    return std, grad


def mass_centroid(cell: CellPixels, values) -> tuple[float, np.ndarray]:
    """Estimated cell mass and centroid from per-pixel density values.

    ``values`` aligns with ``cell.centers``. When the mass is numerically
    zero the centroid falls back to the cell's geometric center.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if len(vals) != len(cell):
        raise ValueError(f"expected {len(cell)} values, got {len(vals)}")
    vw = vals * cell.pixel_area
    mass = float(vw.sum())
    if mass < _MASS_FLOOR:
        return mass, np.array(cell.geometric_center, dtype=float)
    return mass, (cell.centers * vw[:, None]).sum(axis=0) / mass


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


def true_locational_cost(positions, partition: VoronoiPartition,
                         density: DensityField) -> float:
    """Ground-truth coverage cost of a configuration on the full pixel grid.

    Integrates ``0.5 ||q - p_owner(q)||^2 phi(q)`` over the workspace. This
    is a privileged metric: agents never see the true density.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    domain = density.domain
    xs, ys = domain.axis_centers()
    d2 = (xs[None, :] - pos[partition.owner, 0]) ** 2 \
        + (ys[:, None] - pos[partition.owner, 1]) ** 2
    return float(0.5 * np.sum(d2 * density.values) * domain.pixel_area)
