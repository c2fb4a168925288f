"""Grid-rasterized Voronoi partitions and the induced communication graph.

The workspace is a rectangle discretized into square pixels. Ownership of a
pixel goes to the nearest agent (measured at the pixel center), ties to the
lowest agent index. Two agents are neighbors when their regions share at
least one 4-adjacent pixel edge, which on a grid is the Delaunay relation.

:func:`compute_partition` is the one place that measures pixel-to-agent
distances; the partition keeps each pixel's squared distance to its owner
for the locational cost. Pixel centres come from :meth:`Domain.axis_centers`.

The distances come from per-agent squared offsets along each axis,
``d2 = dx2[i, x] + dy2[i, y]``, in row blocks. A block skips agent ``j`` when
``dx2[j, x] + min dy2[j]`` exceeds ``U(x) + margin`` at every column ``x``,
where ``U(x) = min_k (dx2[k, x] + max dy2[k])`` over the block's rows and
``margin = 1e-9 * (max dx2 + max dy2)``. Float addition rounds monotonically,
so at every pixel of the block ``d2`` of ``j`` is at least its bound, which is
above ``U(x)``, which is at least ``d2`` of the agent attaining it: that agent
is strictly closer in the very sums the sweep compares, and the minimum, the
owner and every tie come out as in a sweep over all agents. The margin sits
many orders of magnitude above rounding and only makes skipping rarer; it is
infinite, so that nothing is skipped, wherever a distance sum could overflow.
The sweep keeps the owner runs: stretches of one owner in flat row-major order,
split at every row end, so each run lies in one row. Per-cell sums such as
Lloyd's moments (:func:`gpcover.cost.mass_centroid`) reduce over the runs, and
the neighbor graph and every agent's bounding box are built from them on their
first read. A cell (:func:`cell_pixels`) is its owner mask on its bounding box:
cost integrals evaluate per-axis products on the box and gather them with the
mask, which keeps the pixels in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, OutsideDomainError

# compute_partition sweeps the grid in row blocks of about this many pixels,
# so its per-agent distance and mask temporaries stay in cache
_PARTITION_BLOCK_PIXELS = 32768


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
    """Pixel ownership plus the neighbor graph it induces.

    ``owner`` is ``(H, W)`` with the winning agent index per pixel and
    ``dist2`` is ``(H, W)`` with each pixel centre's squared distance to its
    owner, ``(x - px)^2 + (y - py)^2``. ``run_start`` holds, increasing, the
    flat index of the first pixel of each run of one owner in flat row-major
    order; every row starts a run, so each run lies in one row. ``n_agents``
    counts the agents, owners of a pixel or not. ``boxes[i]`` is agent i's
    bounding box on the grid, ``(x0, y0, x1, y1)`` with exclusive ends, all 0
    for an agent that owns no pixel. ``neighbors[i]`` is a sorted tuple of
    adjacent agent indices and ``laplacian`` is the integer graph Laplacian
    ``D - A`` of that relation. Boxes and graph are built from the runs on
    first read.
    """

    owner: np.ndarray
    dist2: np.ndarray
    run_start: np.ndarray
    n_agents: int

    @cached_property
    def boxes(self) -> np.ndarray:
        return _run_boxes(self.owner, self.run_start, self.n_agents)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _adjacent_pairs(self.owner, self.run_start, self.n_agents)

    @cached_property
    def laplacian(self) -> np.ndarray:
        return laplacian_of(self.neighbors)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected neighbor pairs ``(i, j)`` with ``i < j``."""
        return [(i, j) for i, nbrs in enumerate(self.neighbors) for j in nbrs if i < j]


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
    """Assign every pixel to its nearest agent.

    Distances are compared between pixel centers and agent positions, exact
    ties go to the lowest agent index, and the winning squared distances are
    kept as ``dist2``. The running minimum over agents sweeps the grid in
    row blocks of about ``_PARTITION_BLOCK_PIXELS`` pixels, from per-agent
    squared offsets along each axis. Each block sweeps, in index order, only
    the agents that can own one of its pixels; the first of them writes the
    block's minimum and owner outright, since every pixel starts at infinity.
    An agent is skipped when, at every column ``x``, the least of its sums
    over the block's rows exceeds ``U(x) + margin``, with ``U(x)`` the least
    over agents of their greatest sum in that column and ``margin = 1e-9 *
    (max dx2 + max dy2)``. As float addition rounds monotonically, a skipped
    agent is then strictly farther than some other agent at every pixel of the
    block, so each pixel gets the same minimum, owner and tie as in one
    full-grid pass over every agent, whatever the block size (see the module
    docstring). The runs of one owner are found only in blocks that swept more
    than one agent; elsewhere each row is one run. The bounding boxes and the
    neighbor graph are left to the partition's first read of them.
    Raises ``OutsideDomainError`` if any position falls outside the
    workspace rectangle.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) == 0:
        raise ValueError(f"positions must be a non-empty (n, 2) array, got shape {pos.shape}")
    for i, p in enumerate(pos):
        if not domain.contains(p):
            raise OutsideDomainError(f"agent {i} at ({p[0]}, {p[1]}) is outside the workspace")

    # running minimum over agents; a later agent takes a pixel only when it
    # is strictly closer, so exact ties stay with the lowest index
    xs, ys = domain.axis_centers()
    dx2 = (xs[None, :] - pos[:, :1]) ** 2
    dy2 = (ys[None, :] - pos[:, 1:]) ** 2
    # far above the rounding of any sum below; infinite, so that nothing is
    # skipped, when a distance sum could overflow
    margin = 1e-9 * (dx2.max() + dy2.max())
    height, width = domain.height, domain.width
    # best and owner share one allocation: glibc hands free heap top back to
    # the system once it exceeds twice the largest block it has unmapped, and
    # two 4 MB blocks per paper-scale partition crossed that line every round,
    # then page-faulted back in; one block of both moves the line above them
    pixels = height * width
    grid = np.empty(pixels * (8 + np.dtype(np.intp).itemsize), dtype=np.uint8)
    best = grid[:8 * pixels].view(np.float64).reshape(height, width)
    owner = grid[8 * pixels:].view(np.intp).reshape(height, width)
    rows = max(1, min(height, _PARTITION_BLOCK_PIXELS // width))
    d2_buf = np.empty((rows, width))
    closer_buf = np.empty(d2_buf.shape, dtype=bool)
    blocks = []
    for r0 in range(0, height, rows):
        r1 = min(r0 + rows, height)
        d2, closer = d2_buf[:r1 - r0], closer_buf[:r1 - r0]
        best_rows, owner_rows = best[r0:r1], owner[r0:r1]
        live = _live_agents(dx2, dy2[:, r0:r1], margin)
        first = live[0]
        np.add(dx2[first], dy2[first, r0:r1, None], out=best_rows)
        owner_rows.fill(first)
        for i in live[1:]:
            np.add(dx2[i], dy2[i, r0:r1, None], out=d2)
            np.less(d2, best_rows, out=closer)
            np.minimum(best_rows, d2, out=best_rows)
            np.copyto(owner_rows, i, where=closer)
        blocks.append((r0, r1, live))
    return VoronoiPartition(owner, best, _run_starts(owner, blocks), len(pos))


def _live_agents(dx2: np.ndarray, dy2: np.ndarray, margin: float) -> list[int]:
    """The agents, in index order, that may own a pixel of one row block.

    ``dx2`` is ``(n, W)`` and ``dy2`` the block's ``(n, rows)`` squared
    offsets; the bound is the module docstring's. An agent that attains
    ``U(x)`` never passes its own test, so one agent always remains.
    """
    reach = (dx2 + dy2.max(axis=1)[:, None]).min(axis=0)
    reach += margin
    lower = dx2 + dy2.min(axis=1)[:, None]
    skip = np.greater(lower, reach).all(axis=1)
    return np.flatnonzero(~skip).tolist()


def _run_starts(owner: np.ndarray, blocks) -> np.ndarray:
    """The flat starts of the owner runs, increasing, from the row blocks of the sweep.

    ``blocks`` holds ``(r0, r1, live)``: a block's rows and its swept agents.
    A run starts at every row start and wherever ``owner`` changes within a
    row; a block swept by one agent has no change, so only its rows start runs.
    """
    width = owner.shape[1]
    starts = []
    for r0, r1, live in blocks:
        if len(live) > 1:
            # flat compares run at twice the speed of row-wise ones
            block = owner[r0:r1].ravel()
            change = np.empty(block.size, dtype=bool)
            np.not_equal(block[1:], block[:-1], out=change[1:])
            change[::width] = True
            starts.append(np.flatnonzero(change) + r0 * width)
        else:
            starts.append(np.arange(r0 * width, r1 * width, width))
    return np.concatenate(starts)


def _run_boxes(owner: np.ndarray, run_start: np.ndarray, n: int) -> np.ndarray:
    """Each agent's bounding box from its runs, ``(n, 4)`` rows ``(x0, y0, x1, y1)``
    with exclusive ends; a run lies in one row and ends where the next one starts
    or its row ends. An agent without runs gets ``(0, 0, 0, 0)``."""
    run_owner = owner.ravel()[run_start]
    row, column = np.divmod(run_start, owner.shape[1])
    end = column + np.diff(run_start, append=owner.size)
    boxes = np.zeros((n, 4), dtype=np.intp)
    boxes[:, :2] = max(owner.shape)
    for ufunc, corner, values in ((np.minimum, 0, column), (np.minimum, 1, row),
                                  (np.maximum, 2, end), (np.maximum, 3, row + 1)):
        ufunc.at(boxes[:, corner], run_owner, values)
    boxes[boxes[:, 2] == 0] = 0
    return boxes


def _adjacent_pairs(owner: np.ndarray, run_start: np.ndarray,
                    n: int) -> tuple[tuple[int, ...], ...]:
    # Compare each run start with its left, upper and lower pixel (off the
    # grid: itself). Owners side by side differ at a run start. For a above b
    # in rows r and r + 1, walk left while that holds: the walk ends at a run
    # start in either row, at the latest at the rows' first pixels, which
    # start runs. So every meeting pair is found.
    width, flat = owner.shape[1], owner.ravel()
    column = run_start % width
    near = np.stack([run_start - (column > 0), np.maximum(run_start - width, column),
                     np.minimum(run_start + width, column + (flat.size - width))])
    pair = flat[near] + flat[run_start] * n
    adjacent = np.bincount(pair.ravel(), minlength=n * n).reshape(n, n) > 0
    adjacent |= adjacent.T
    np.fill_diagonal(adjacent, False)
    agent, other = np.nonzero(adjacent)
    bounds = np.searchsorted(agent, np.arange(n + 1))
    return tuple(tuple(other[lo:hi].tolist()) for lo, hi in zip(bounds[:-1], bounds[1:]))


def laplacian_of(neighbors) -> np.ndarray:
    """Integer graph Laplacian ``D - A`` of a symmetric neighbor relation.

    ``neighbors[i]`` lists the agents adjacent to i. Self-loops, out-of-range
    indices, and asymmetric relations are rejected.
    """
    n = len(neighbors)
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i, nbrs in enumerate(neighbors):
        for j in nbrs:
            j = int(j)
            if j == i:
                raise ValueError(f"agent {i} lists itself as a neighbor")
            if not 0 <= j < n:
                raise ValueError(f"neighbor index {j} out of range for {n} agents")
            adjacency[i, j] = 1
    if not np.array_equal(adjacency, adjacency.T):
        raise ValueError("neighbor relation is not symmetric")
    return np.diag(adjacency.sum(axis=1)) - adjacency


def cell_pixels(partition: VoronoiPartition, agent: int, domain: Domain) -> CellPixels:
    """The pixels owned by ``agent``, as its owner mask on its bounding box."""
    x0, y0, x1, y1 = partition.boxes[agent].tolist()
    return CellPixels(partition.owner[y0:y1, x0:x1] == agent, x0, y0, domain)
