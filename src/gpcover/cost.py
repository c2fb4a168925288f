"""Cell-cost evaluation: expected coverage cost, exploration bonus, gradients.

Each agent scores its own Voronoi cell under its local GP. The expected term
integrates ``0.5 ||q - p||^2`` against the clipped posterior mean; the
exploration term is the standard deviation of that same integral under the
posterior covariance, weighted by ``sqrt(beta)``. All integrals are pixel
sums with deterministic subsampling so repeated evaluation is bit-stable.

Every node is a pixel centre, so a cell is its owner mask on its bounding box.
The expected term takes one :func:`gpcover.gp.lattice_posterior_mean` product
per cell and gathers it and the per-axis offsets with the mask, in row-major
order, or at every ``single_stride``-th flat index. The exploration term works on
at most ``pair_budget`` of those nodes, evenly spaced in row-major order, and
reads their covariance through :func:`gpcover.gp.posterior_covariance_product`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField
from .geometry import CellPixels, VoronoiPartition, cell_pixels
from .gp import SparseGP, lattice_posterior_mean, posterior_covariance_product
# not called here: perfbench/tracing.py's TRACE_POINTS look both up on this module
from .gp import kernel_matrix, posterior_mean  # noqa: F401

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


def _share(cell: CellPixels, n: int) -> float:
    """The equal share of the cell area that each of ``n`` of its pixels carries."""
    k = len(cell)
    return cell.pixel_area if n == k else k * cell.pixel_area / n


def _strided_terms(cell: CellPixels, stride: int, gp: SparseGP, px: float,
                   py: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The posterior mean, ``x - px`` and ``y - py`` at every ``stride``-th pixel of
    the cell, row-major. The mean is one lattice product on those pixels' own box,
    whose extent sets its GEMM blocks and so its bits (``//`` beats ``np.divmod``)."""
    bx, by = cell.axis_centers()
    if stride == 1:
        mask = cell.mask
        return (lattice_posterior_mean(gp, bx, by)[mask.ravel()],
                np.broadcast_to(bx - px, mask.shape)[mask],
                np.broadcast_to((by - py)[:, None], mask.shape)[mask])
    index = cell.flat[::stride]
    iy = index // len(bx)
    ix = index - iy * len(bx)
    x0, x1 = int(ix.min()), int(ix.max()) + 1
    mean = lattice_posterior_mean(gp, bx[x0:x1], by[:iy[-1] + 1])
    return mean.take(iy * (x1 - x0) + ix - x0), (bx - px).take(ix), (by - py).take(iy)


def _pair_nodes(cell: CellPixels, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """At most ``budget`` pixel centres of the cell, evenly spaced in row-major order,
    and their area share. Above the budget the ``linspace`` step exceeds 1, and
    ``round(y) - round(x) >= y - x - 1 > 0``: the picks are strictly increasing."""
    k = len(cell)
    index = cell.flat
    if k > budget:
        index = index[np.round(np.linspace(0, k - 1, budget)).astype(np.int64)]
    bx, by = cell.axis_centers()
    iy, ix = np.divmod(index, cell.mask.shape[1])
    return np.column_stack([bx[ix], by[iy]]), np.full(len(index), _share(cell, len(index)))


def expected_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Expected coverage cost of the cell and its gradient in the agent position.

    The posterior mean is evaluated on the lattice of the cell's (strided)
    pixels' bounding box, gathered at those pixels and clipped at zero before
    integrating, matching the non-negativity of the underlying density. An
    empty cell costs nothing.
    """
    px, py = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    mw, dx, dy = _strided_terms(cell, quad.single_stride, gp, px, py)
    np.maximum(mw, 0.0, out=mw)
    mw *= _share(cell, len(mw))
    d2 = dx * dx
    d2 += dy * dy
    return 0.5 * float(d2 @ mw), -np.array([dx @ mw, dy @ mw])


def variance_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Std of the cell cost under the GP posterior, with its position gradient.

    The variance is the double integral of ``f(q) f(q') cov(q, q')`` over the
    cell with ``f = 0.5 ||q - p||^2``, evaluated on the pair-budget nodes as
    ``gw . cov gw`` with one :func:`gpcover.gp.posterior_covariance_product`.
    When the std falls below ``STD_FLOOR`` it is returned as is with a zero
    gradient (the direction is numerically meaningless there).
    """
    pos = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    nodes, weights = _pair_nodes(cell, quad.pair_budget)
    diff = nodes - pos
    gw = (diff ** 2).sum(axis=1) * weights
    cgw = posterior_covariance_product(gp, nodes, gw)
    var = 0.25 * float(gw @ cgw)
    std = float(np.sqrt(max(var, 0.0)))
    if std < STD_FLOOR:
        return std, np.zeros(2)
    return std, -(diff * (weights * cgw)[:, None]).sum(axis=0) / (2.0 * std)


def mass_centroid(partition: VoronoiPartition,
                  field: DensityField) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's mass and centroid under ``field``, summed over the owner runs.

    The per-run sums of ``field.values`` and of ``field.x_weighted``, the
    density times x, are the partition's :meth:`~VoronoiPartition.run_sums`,
    which Lloyd's true cost of the same partition has already taken. Each run
    lies in one row, so its y moment is its row's centre times its sum.
    ``np.bincount`` over ``partition.run_owner`` folds the runs into agents.
    ``pixel_area`` cancels in the centroid and stays out of the sums, so they
    stay finite wherever the density's do; the returned masses carry it. A
    cell whose mass is below ``_MASS_FLOOR`` falls back to its geometric
    centre, the one case that builds cells. An empty cell has mass 0 and a NaN
    centroid. Returns the masses ``(n,)`` and the centroids ``(n, 2)``.
    """
    domain, n, run_start = field.domain, partition.n_agents, partition.run_start
    run_owner = partition.run_owner
    run_mass, run_x = partition.run_sums(field)
    run_y = domain.axis_centers()[1][run_start // domain.width] * run_mass
    mass, mx, my = (np.bincount(run_owner, w, minlength=n) for w in (run_mass, run_x, run_y))
    area_mass = mass * domain.pixel_area
    heavy = area_mass >= _MASS_FLOOR
    centroid = np.full((n, 2), np.nan)
    centroid[heavy] = np.column_stack([mx[heavy], my[heavy]]) / mass[heavy, None]
    for i in np.flatnonzero(~heavy & (np.bincount(run_owner, minlength=n) > 0)):
        centroid[i] = cell_pixels(partition, i, domain).geometric_center
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

    Integrates ``0.5 ||q - p_owner(q)||^2 phi(q)`` over the workspace from
    per-run moments: the partition's :meth:`~VoronoiPartition.run_sums` of
    ``density.values`` and ``density.x_weighted``, which Lloyd's next
    :func:`mass_centroid` reads again, and one ``np.add.reduceat`` over
    ``partition.run_start`` for ``density.u2_weighted``. A run lies in one
    row, so with its owner at ``(pu, pv)`` and its row's centre at ``v`` its
    integral is ``S2 - 2 pu S1 + (pu^2 + (v - pv)^2) S0``. The moments are
    in pixel units, where they stay finite wherever the density's sums do,
    and the sum is scaled to world units last. This is a privileged metric:
    agents never see the true density.
    """
    domain = density.domain
    run_start, scale = partition.run_start, 1.0 / domain.cell_size
    mass, first = partition.run_sums(density)
    first = first * scale
    second = np.add.reduceat(density.u2_weighted.ravel(), run_start)
    pu, pv = (partition.positions * scale)[partition.run_owner].T
    dv = run_start // domain.width + 0.5 - pv
    total = float(np.sum(second - 2.0 * pu * first + (pu * pu + dv * dv) * mass))
    return 0.5 * total * domain.pixel_area * domain.pixel_area
