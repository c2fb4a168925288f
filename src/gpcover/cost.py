"""Cell-cost evaluation: expected coverage cost, exploration bonus, gradients.

Each agent scores its own Voronoi cell under its local GP. The expected term
integrates ``0.5 ||q - p||^2`` against the clipped posterior mean; the
exploration term is the standard deviation of that same integral under the
posterior covariance, weighted by ``sqrt(beta)``. All integrals are pixel
sums, thinned or blocked deterministically, so repeated evaluation is bit-stable.

Every node is a pixel centre, so a cell is its owner mask on its bounding box.
The expected term takes one :func:`gpcover.gp.lattice_posterior_mean` product
on the box, keeps the mask's pixels or every ``single_stride``-th of them in
row-major order, and needs only the kept mean's column and row sums, since
``||q - p||^2`` splits into an x part and a y part. The exploration term works on
the same box, cut into square blocks: one node per block, weighted by the
cell's pixels in it, on a lattice coarse enough that its covariance product
costs no more than a ``pair_budget x pair_budget`` kernel table would. It
reads their covariance through one
:func:`gpcover.gp.lattice_posterior_covariance_product`, from per-axis factors,
so no cost path builds a kernel table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityField
from .geometry import CellPixels, VoronoiPartition, cell_pixels
from .gp import SparseGP, lattice_posterior_covariance_product, lattice_posterior_mean
# not called here: perfbench/tracing.py's TRACE_POINTS look both up on this module
from .gp import kernel_matrix, posterior_mean  # noqa: F401

# below this the exploration std is treated as exactly zero and its gradient vanishes
STD_FLOOR = 1e-9

_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic quadrature controls for the cell-cost integrals.

    ``single_stride`` thins the single-integral pixel sum; ``pair_budget``
    bounds the covariance double sum's lattice product at ``pair_budget**2``
    multiply-adds, which sets the block size of its nodes (a budget that
    reaches blocks of one pixel gives every pixel). ``beta`` weights the
    exploration term.
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


def _picked(cell: CellPixels, stride: int) -> np.ndarray:
    """The box mask of every ``stride``-th pixel of the cell in row-major order."""
    if stride == 1:
        return cell.mask
    pick = np.zeros(cell.mask.shape, dtype=bool)
    pick.ravel()[cell.flat[::stride]] = True
    return pick


def _block_nodes(cell: CellPixels, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exploration term's lattice nodes on the cell's box and their weights.

    The box is cut into ``s x s`` blocks from its first pixel, the last ones
    partial. Each block's node sits at the mean of its pixel centres along
    each axis and weighs ``pixel_area`` times the number of the cell's
    pixels in it. ``s`` is the least stride at which the lattice covariance
    product, ``ny * nx * (ny + nx)`` multiply-adds on ``nx`` by ``ny`` nodes,
    costs at most ``budget**2``, the cost of a ``budget x budget`` kernel
    table. At stride 1 every pixel is a node of weight ``pixel_area``.
    Returns the node abscissae ``(nx,)``, ordinates ``(ny,)`` and weights
    ``(ny, nx)``.
    """
    rows, columns = cell.mask.shape
    s = 1
    while (ny := -(-rows // s)) * (nx := -(-columns // s)) * (ny + nx) > budget * budget:
        s += 1
    bx, by = cell.axis_centers()
    col0, row0 = np.arange(0, columns, s), np.arange(0, rows, s)
    xs = 0.5 * (bx[col0] + bx[np.minimum(col0 + s, columns) - 1])
    ys = 0.5 * (by[row0] + by[np.minimum(row0 + s, rows) - 1])
    count = np.add.reduceat(np.add.reduceat(cell.mask, row0, axis=0, dtype=np.int64),
                            col0, axis=1)
    return xs, ys, count * cell.pixel_area


def expected_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Expected coverage cost of the cell and its gradient in the agent position.

    The posterior mean is one lattice product on the cell's bounding box,
    clipped at zero in place, matching the non-negativity of the underlying
    density, and zeroed off the pixels that :func:`_picked` leaves out: at a
    ``single_stride`` above 1, all but every ``single_stride``-th pixel.
    Its column sums ``C`` and row sums ``R`` then give ``0.5 * share * (C .
    (x - px)^2 + R . (y - py)^2)`` and the gradient ``-share * (C . (x - px),
    R . (y - py))``. An empty cell costs nothing.
    """
    px, py = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    pick = _picked(cell, quad.single_stride)
    bx, by = cell.axis_centers()
    mean = lattice_posterior_mean(gp, bx, by).reshape(pick.shape)
    np.maximum(mean, 0.0, out=mean)
    mean *= pick
    col, row = mean.sum(axis=0), mean.sum(axis=1)
    dx, dy = bx - px, by - py
    share = _share(cell, np.count_nonzero(pick))
    return (0.5 * share * float(col @ (dx * dx) + row @ (dy * dy)),
            -share * np.array([col @ dx, row @ dy]))


def variance_cost(cell: CellPixels, agent_pos, gp: SparseGP,
                  quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """Std of the cell cost under the GP posterior, with its position gradient.

    The variance is the double integral of ``f(q) f(q') cov(q, q')`` over the
    cell with ``f = 0.5 ||q - p||^2``, evaluated on the :func:`_block_nodes`
    lattice as ``gw . cov gw`` with one
    :func:`gpcover.gp.lattice_posterior_covariance_product`. Its gradient is
    ``-sum w (q - p) (cov gw) / (2 std)``, whose x and y parts are the
    weighted product's column and row sums against the per-axis offsets.
    When the std falls below ``STD_FLOOR`` it is returned as is with a zero
    gradient (the direction is numerically meaningless there).
    """
    px, py = np.asarray(agent_pos, dtype=float).reshape(2)
    if len(cell) == 0:
        return 0.0, np.zeros(2)
    xs, ys, weights = _block_nodes(cell, quad.pair_budget)
    dx, dy = xs - px, ys - py
    gw = weights * np.add.outer(dy * dy, dx * dx)
    cgw = lattice_posterior_covariance_product(gp, xs, ys, gw)
    var = 0.25 * float(np.sum(gw * cgw))
    std = float(np.sqrt(max(var, 0.0)))
    if std < STD_FLOOR:
        return std, np.zeros(2)
    cgw *= weights
    return std, -np.array([cgw.sum(axis=0) @ dx, cgw.sum(axis=1) @ dy]) / (2.0 * std)


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
