"""Grid-rasterized Voronoi partitions and the induced communication graph.

The workspace is a rectangle discretized into square pixels. Ownership of a
pixel goes to the nearest agent (measured at the pixel center), ties to the
lowest agent index. Two agents are neighbors when their regions share at
least one 4-adjacent pixel edge, which on a grid is the Delaunay relation.
Pixel centres come from :meth:`Domain.axis_centers`.

A pixel's owner is what a sweep gives: a running minimum over the agents, in
index order, of the float sums ``s_i = dx2[i, x] + dy2[i, y]`` of per-agent
squared offsets along each axis, taken over only by a strictly smaller sum.
:func:`compute_partition` runs that sweep only near the bisectors. For agents
j and k in row y, with ``a = 2 (px_k - px_j)``, midpoint ``m = (px_j + px_k)
/ 2`` and ``delta = dy2[j, y] - dy2[k, y]``, the real difference of their
squared distances is the line ``G(X) = a (X - m) + delta``. Each float sum is
within about ``4u S`` of its real value, with ``u`` the unit roundoff and ``S
= max dx2 + max dy2``, so ``s_j - s_k`` is within about ``10u S`` of ``G``.
The margin ``M = 1e-9 S`` lies many orders of magnitude above that, so where
``G < -M`` at a pixel centre, j's sum is strictly below k's. An agent's
certain interval in a row is where this holds against every other agent:
there it owns the pixel in any sweep. Each pair bounds it at ``m - (delta +
M) / a``, where ``G = -M``: from the right when ``a > 0``, from the left when
``a < 0``; when ``a = 0``, ``G = delta`` decides the whole row. The bound is
computed in float. When ``a`` is tiny the quotient is large, and its rounding
can put the bound off by many pixels; but that moves ``G`` by only about ``u
S``, far below ``M``, so the bound stays where the winner is certain. Only
its conversion to a pixel column can be off by a fraction of a pixel, which is
why one slack pixel per side suffices. The intervals of a row are disjoint and
appear in the agents' x order. The sweep runs on the band pixels between them,
and merging both in flat order gives the owner runs: stretches of one owner in
flat row-major order, split at every row end, so each run lies in one row.
Where ``M`` is not finite, as a sum could overflow, or below the normal range,
where rounding is no longer relative, every pixel is a band pixel.

Every view of a partition is read from its runs. Per-cell sums such as
Lloyd's moments (:func:`gpcover.cost.mass_centroid`) and the true cost reduce
the density over them, once per partition and field
(:meth:`VoronoiPartition.run_sums`). The neighbor graph is one boolean
adjacency matrix, built from the runs on its first read; the neighbor lists,
the edges and the Laplacian are read from it. A cell (:func:`cell_pixels`) is
its owner mask on its bounding box, both taken from the agent's own runs:
cost integrals evaluate per-axis products on the box and gather them with the
mask, which keeps the pixels in row-major order. No round builds the ``(H,
W)`` owner grid; it is built from the runs when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, OutsideDomainError

@dataclass(frozen=True)
class Domain:
    """Discretized rectangular workspace.

    Pixel ``(ix, iy)`` has its center at ``((ix + 0.5) * cell_size,
    (iy + 0.5) * cell_size)``; world coordinates span
    ``[0, width * cell_size] x [0, height * cell_size]``.
    """

    width: int
    height: int
    cell_size: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"domain must be at least 1x1 pixels, got {self.width}x{self.height}")
        if not self.cell_size > 0:
            raise ConfigurationError(f"cell_size must be positive, got {self.cell_size}")

    @property
    def world_width(self) -> float:
        return self.width * self.cell_size

    @property
    def world_height(self) -> float:
        return self.height * self.cell_size

    @property
    def pixel_area(self) -> float:
        return self.cell_size * self.cell_size

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center coordinates along each axis: ``(x (W,), y (H,))``."""
        xs = (np.arange(self.width) + 0.5) * self.cell_size
        ys = (np.arange(self.height) + 0.5) * self.cell_size
        return xs, ys

    def contains(self, point) -> bool:
        x, y = float(point[0]), float(point[1])
        return 0.0 <= x <= self.world_width and 0.0 <= y <= self.world_height

    def clamp(self, point) -> np.ndarray:
        """Coordinatewise projection onto the closed workspace rectangle."""
        p = np.asarray(point, dtype=float)
        return np.clip(p, 0.0, [self.world_width, self.world_height])


@dataclass(frozen=True, eq=False)
class VoronoiPartition:
    """Pixel ownership, as owner runs, plus the neighbor graph it induces.

    ``positions`` is the ``(n, 2)`` array of the agents the pixels were
    assigned to and ``shape`` the grid's ``(H, W)``. ``run_start`` holds,
    increasing, the flat index of the first pixel of each run of one owner in
    flat row-major order, and ``run_owner`` that owner; every row starts a
    run, so each run lies in one row; ``run_end`` is the flat index one past
    each run. ``owner`` is the ``(H, W)`` grid of the winning agent index per
    pixel. ``adjacency`` is the ``(n, n)`` boolean adjacency matrix of the
    neighbor graph, and the graph's other forms are read from it:
    ``neighbors[i]`` is a sorted tuple of the agents adjacent to i,
    :meth:`edges` lists the adjacent pairs, and ``laplacian`` is the integer
    graph Laplacian ``D - A``. All of these are built on first read; the
    graph comes from the runs, not from the owner grid.
    """

    positions: np.ndarray
    shape: tuple[int, int]
    run_start: np.ndarray
    run_owner: np.ndarray

    @property
    def n_agents(self) -> int:
        """The number of agents, owners of a pixel or not."""
        return len(self.positions)

    @cached_property
    def run_end(self) -> np.ndarray:
        """The flat index one past each run's last pixel."""
        return np.append(self.run_start[1:], self.shape[0] * self.shape[1])

    @cached_property
    def owner(self) -> np.ndarray:
        return np.repeat(self.run_owner, self.run_end - self.run_start).reshape(self.shape)

    @cached_property
    def adjacency(self) -> np.ndarray:
        return _adjacent_pairs(self.run_start, self.run_owner, self.shape, self.n_agents)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.adjacency)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return np.diag(self.adjacency.sum(axis=1)) - self.adjacency.astype(np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected neighbor pairs ``(i, j)`` with ``i < j``, in row-major order."""
        return list(zip(*(index.tolist() for index in np.nonzero(np.triu(self.adjacency, 1)))))

    def run_sums(self, field) -> tuple[np.ndarray, np.ndarray]:
        """Each run's sum of ``field.values`` and of ``field.x_weighted``, the density
        and the density times x of a :class:`gpcover.density.DensityField`.

        Each is one ``np.add.reduceat`` over ``run_start``. The last field's
        sums are kept, read-only, with the field itself, so its identity cannot
        be reused while they are: Lloyd reads them for the true cost of the
        partition after a move and again for the next round's centroids.
        """
        kept = self.__dict__.get("_run_sums")
        if kept is None or kept[0] is not field:
            sums = tuple(np.add.reduceat(grid.ravel(), self.run_start)
                         for grid in (field.values, field.x_weighted))
            for total in sums:
                total.flags.writeable = False
            kept = field, sums
            object.__setattr__(self, "_run_sums", kept)
        return kept[1]


@dataclass(frozen=True, eq=False)
class CellPixels:
    """The pixels of one Voronoi cell: its owner mask on its bounding box.

    ``mask`` is ``(rows, columns)`` over the grid pixels ``(x0 + c, y0 + r)``;
    an empty cell has an empty box. ``flat`` holds the box-local row-major
    indices of the pixels (``r * columns + c``), ``axis_centers`` the box's
    pixel-centre coordinates per axis and ``centers`` the derived ``(k, 2)``
    array of the pixels' centres, in row-major order.
    """

    mask: np.ndarray
    x0: int
    y0: int
    domain: Domain

    def __len__(self) -> int:
        return len(self.flat)

    @property
    def pixel_area(self) -> float:
        return self.domain.pixel_area

    @cached_property
    def flat(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-centre coordinates along each axis of the box: ``(x, y)``."""
        xs, ys = self.domain.axis_centers()
        rows, columns = self.mask.shape
        return xs[self.x0:self.x0 + columns], ys[self.y0:self.y0 + rows]

    @cached_property
    def centers(self) -> np.ndarray:
        bx, by = self.axis_centers()
        iy, ix = np.divmod(self.flat, self.mask.shape[1])
        return np.column_stack([bx[ix], by[iy]])

    @property
    def geometric_center(self) -> np.ndarray:
        if len(self) == 0:
            raise ValueError("empty cell has no geometric center")
        return self.centers.mean(axis=0)


def compute_partition(positions, domain: Domain) -> VoronoiPartition:
    """Assign every pixel to its nearest agent, as owner runs.

    Distances are compared between pixel centers and agent positions, and
    exact ties go to the lowest agent index: each pixel gets the owner of a
    sweep that keeps a running minimum of ``dx2[i, x] + dy2[i, y]`` over all
    agents in index order, with a strict compare. The sweep runs only on the
    band pixels, those outside every agent's certain interval of their row
    (:func:`_certain_intervals`, the module docstring's lemma), or on every
    pixel when the margin is not usable. Merging the certain intervals with
    the band pixels, in flat order, gives the runs; the owner grid and the
    neighbor graph are left to the partition's first read of them, and each
    cell's box to :func:`cell_pixels`. Raises ``OutsideDomainError`` if any
    position falls outside the workspace rectangle.
    """
    pos = np.array(positions, dtype=float, ndmin=2)
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) == 0:
        raise ValueError(f"positions must be a non-empty (n, 2) array, got shape {pos.shape}")
    for i, p in enumerate(pos):
        if not domain.contains(p):
            raise OutsideDomainError(f"agent {i} at ({p[0]}, {p[1]}) is outside the workspace")

    xs, ys = domain.axis_centers()
    dx2 = (xs[None, :] - pos[:, :1]) ** 2
    dy2 = (ys[None, :] - pos[:, 1:]) ** 2
    # far above the rounding of any sum below; where a sum could overflow or
    # round below the normal range, every pixel goes to the sweep
    margin = 1e-9 * (dx2.max() + dy2.max())
    height, width = domain.height, domain.width
    order = np.argsort(pos[:, 0], kind="stable")
    if np.finfo(float).tiny <= margin < np.inf:
        first, stop = _certain_intervals(pos[order, 0], dy2[order], margin, domain)
    else:
        first = stop = np.zeros((height, len(pos)), dtype=np.intp)
    # each row, left to right, in slots: the gap before each agent's interval,
    # the interval, and the row's last gap; a gap's pixels go to the sweep
    held = first < stop
    reach = np.maximum.accumulate(np.where(held, stop, 0), axis=1)
    before = np.zeros_like(reach)
    before[:, 1:] = reach[:, :-1]
    slot_start = np.empty((height, 2 * len(pos) + 1), dtype=np.intp)
    slot_start[:, :-1:2], slot_start[:, 1::2], slot_start[:, -1] = before, first, reach[:, -1]
    count = np.empty_like(slot_start)
    count[:, :-1:2], count[:, 1::2] = np.where(held, first, before) - before, held
    count[:, -1] = width - reach[:, -1]
    slot_owner = np.full(slot_start.shape, -1)
    slot_owner[:, 1::2] = order
    slot_start += np.arange(0, height * width, width)[:, None]
    count = count.ravel()
    start = np.repeat(slot_start.ravel() + count - np.cumsum(count), count)
    start += np.arange(len(start))
    owner = np.repeat(slot_owner.ravel(), count)
    band = owner < 0
    owner[band] = _sweep(dx2, dy2, start[band])
    change = start % width == 0
    change[1:] |= owner[1:] != owner[:-1]
    return VoronoiPartition(pos, (height, width), start[change], owner[change])


def _certain_intervals(px: np.ndarray, dy2: np.ndarray, margin: float,
                       domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's certain interval in each row, as ``(H, n)`` pixel columns ``[first, stop)``.

    The agents come sorted by their x, ``px``, with ``dy2`` their ``(n, H)``
    squared row offsets. Pair ``(j, k)`` has ``a = 2 (px_k - px_j)``, midpoint
    ``m`` and ``delta = dy2_j - dy2_k``; j beats k for sure where ``a (X - m) +
    delta < -margin``, that is left of ``m - (delta + margin) / a`` when
    ``a > 0``, right of it when ``a < 0``, and in the whole row or nowhere
    when ``a == 0``. The bound is computed as one number and only then
    clipped to the grid, so a pair nearly aligned in x moves it off the grid
    rather than voiding the row.
    Each side gives up one slack pixel; an empty interval has ``first >= stop``.
    """
    n, width, size = len(px), domain.width, domain.cell_size
    a = 2.0 * (px - px[:, None])
    mid = (px + px[:, None]) * 0.5
    delta = dy2.T[:, :, None] - dy2.T[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edge = mid - (delta + margin) / a
        upper = np.where(a > 0, edge, np.inf).min(axis=2)
        lower = np.where(a < 0, edge, -np.inf).max(axis=2)
        first = np.floor(lower / size - 0.5) + 2
        stop = np.ceil(upper / size - 0.5) - 1
    # an agent at the same x as another is sure of no pixel of a row unless
    # its squared offset from that row is below the other's by over the margin
    tied = (a == 0) & ~np.eye(n, dtype=bool)
    if tied.any():
        stop[(tied & ~(delta < -margin)).any(axis=2)] = 0
    return np.clip(first, 0, width).astype(np.intp), np.clip(stop, 0, width).astype(np.intp)


def _sweep(dx2: np.ndarray, dy2: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The nearest agent at the given flat pixels: a running minimum of ``dx2 +
    dy2`` over all agents in index order, taken over by an agent only when it
    is strictly closer, so exact ties stay with the lowest index."""
    row, column = np.divmod(flat, dx2.shape[1])
    best = dx2[0].take(column) + dy2[0].take(row)
    owner = np.zeros(len(flat), dtype=np.intp)
    for i in range(1, len(dx2)):
        d2 = dx2[i].take(column)
        d2 += dy2[i].take(row)
        owner[d2 < best] = i
        np.minimum(best, d2, out=best)
    return owner


def _adjacent_pairs(run_start: np.ndarray, run_owner: np.ndarray, shape: tuple[int, int],
                    n: int) -> np.ndarray:
    # Compare each run start with its left, upper and lower pixel (off the
    # grid: itself), whose owner is that of the run holding it. Owners side by
    # side differ at a run start. For a above b in rows r and r + 1, walk left
    # while that holds: the walk ends at a run start in either row, at the
    # latest at the rows' first pixels, which start runs. So every meeting
    # pair is found.
    height, width = shape
    column = run_start % width
    near = np.stack([run_start - (column > 0), np.maximum(run_start - width, column),
                     np.minimum(run_start + width, column + (height - 1) * width)])
    pair = run_owner[np.searchsorted(run_start, near, side="right") - 1] + run_owner * n
    adjacent = np.bincount(pair.ravel(), minlength=n * n).reshape(n, n) > 0
    adjacent |= adjacent.T
    np.fill_diagonal(adjacent, False)
    return adjacent


def cell_pixels(partition: VoronoiPartition, agent: int, domain: Domain) -> CellPixels:
    """The pixels owned by ``agent``, as its owner mask on its bounding box.

    Both come from the agent's runs, each in one row: the box spans the rows
    of its first and last run and the columns from the least run start to the
    greatest run end, and the runs alternate in the box's flat order with the
    gaps between them, so no owner grid is built. An agent that owns no pixel
    gets an empty mask at the origin.
    """
    mine = partition.run_owner == agent
    start, end = partition.run_start[mine], partition.run_end[mine]
    if len(start) == 0:
        return CellPixels(np.zeros((0, 0), dtype=bool), 0, 0, domain)
    # the runs' start and end columns go straight into the layout's edges, and
    # are moved to box-local flat indices there once the box is known
    row = start // domain.width
    row_start = row * domain.width
    edges = np.empty(2 * len(start) + 2, dtype=np.intp)
    first, stop = edges[1:-1:2], edges[2:-1:2]
    np.subtract(start, row_start, out=first)
    np.subtract(end, row_start, out=stop)
    x0, y0 = int(first.min()), int(row[0])
    rows, columns = int(row[-1]) - y0 + 1, int(stop.max()) - x0
    offset = row * columns
    offset -= y0 * columns + x0
    first += offset
    stop += offset
    edges[0], edges[-1] = 0, rows * columns
    inside = np.zeros(len(edges) - 1, dtype=bool)
    inside[1::2] = True
    mask = np.repeat(inside, np.diff(edges)).reshape(rows, columns)
    return CellPixels(mask, x0, y0, domain)
