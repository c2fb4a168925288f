"""Grid-rasterized Voronoi partitions and the induced communication graph.

The workspace is a rectangle discretized into square pixels. Ownership of a
pixel goes to the nearest agent (measured at the pixel center), ties to the
lowest agent index. Two agents are neighbors when their regions share at
least one 4-adjacent pixel edge, which on a grid is the Delaunay relation.

:func:`compute_partition` is the one place that measures pixel-to-agent
distances; the partition keeps each pixel's squared distance to its owner
for the locational cost. Pixel centres come from :meth:`Domain.axis_centers`.
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
    owner, ``(x - px)^2 + (y - py)^2``. ``cells[i]`` holds agent i's pixels
    as sorted flat row-major indices.
    ``neighbors[i]`` is a sorted tuple of adjacent agent indices and
    ``laplacian`` is the integer graph Laplacian ``D - A`` of that relation.
    """

    owner: np.ndarray
    dist2: np.ndarray
    cells: tuple[np.ndarray, ...]
    neighbors: tuple[tuple[int, ...], ...]
    laplacian: np.ndarray

    def edges(self) -> list[tuple[int, int]]:
        """Undirected neighbor pairs ``(i, j)`` with ``i < j``."""
        return [(i, j) for i, nbrs in enumerate(self.neighbors) for j in nbrs if i < j]


@dataclass(frozen=True, eq=False)
class CellPixels:
    """The pixels of one Voronoi cell, as grid indices into their domain.

    ``index`` holds the cell's sorted flat row-major pixel indices (pixel
    ``(ix, iy)`` is ``iy * width + ix``), so cost integrals can evaluate on
    the domain's axis centres; ``centers`` is the derived ``(k, 2)`` array of
    pixel-centre coordinates.
    """

    index: np.ndarray
    domain: Domain

    def __len__(self) -> int:
        return len(self.index)

    @property
    def pixel_area(self) -> float:
        return self.domain.pixel_area

    @cached_property
    def centers(self) -> np.ndarray:
        xs, ys = self.domain.axis_centers()
        iy, ix = np.divmod(self.index, self.domain.width)
        return np.column_stack([xs[ix], ys[iy]])

    @property
    def geometric_center(self) -> np.ndarray:
        if len(self.index) == 0:
            raise ValueError("empty cell has no geometric center")
        return self.centers.mean(axis=0)


def compute_partition(positions, domain: Domain) -> VoronoiPartition:
    """Assign every pixel to its nearest agent and build the neighbor graph.

    Distances are compared between pixel centers and agent positions, exact
    ties go to the lowest agent index, and the winning squared distances are
    kept as ``dist2``. The running minimum over agents sweeps the grid in
    row blocks of about ``_PARTITION_BLOCK_PIXELS`` pixels, from per-agent
    squared offsets along each axis; each pixel sees the same sums and
    comparisons as in one full-grid pass, so the result does not depend on
    the block size.
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
    best = np.full((domain.height, domain.width), np.inf)
    owner = np.zeros(best.shape, dtype=np.intp)
    rows = max(1, min(domain.height, _PARTITION_BLOCK_PIXELS // domain.width))
    d2_buf = np.empty((rows, domain.width))
    closer_buf = np.empty(d2_buf.shape, dtype=bool)
    for r0 in range(0, domain.height, rows):
        r1 = min(r0 + rows, domain.height)
        d2, closer = d2_buf[:r1 - r0], closer_buf[:r1 - r0]
        best_rows, owner_rows = best[r0:r1], owner[r0:r1]
        for i in range(len(pos)):
            np.add(dx2[i], dy2[i, r0:r1, None], out=d2)
            np.less(d2, best_rows, out=closer)
            np.minimum(best_rows, d2, out=best_rows)
            np.copyto(owner_rows, i, where=closer)

    n = len(pos)
    cells = tuple(np.flatnonzero(owner.ravel() == i) for i in range(n))
    neighbors = _adjacent_pairs(owner, n)
    return VoronoiPartition(owner, best, cells, neighbors, laplacian_of(neighbors))


def _adjacent_pairs(owner: np.ndarray, n: int) -> tuple[tuple[int, ...], ...]:
    # horizontal and vertical pixel-edge crossings between different owners,
    # one scan of each direction's mask, as the flat index of the left or upper pixel
    width = owner.shape[1]
    flat = owner.ravel()
    left = np.flatnonzero(owner[:, :-1] != owner[:, 1:])
    left += left // max(width - 1, 1)  # a mask row holds width - 1 edges
    up = np.flatnonzero(owner[:-1, :] != owner[1:, :])
    pairs = []
    for first, step in ((left, 1), (up, width)):
        if len(first):
            a, b = flat.take(first), flat.take(first + step)
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            pairs.append(lo.astype(np.int64) * n + hi.astype(np.int64))
    adj: list[set[int]] = [set() for _ in range(n)]
    if pairs:
        for code in np.unique(np.concatenate(pairs)):
            i, j = divmod(int(code), n)
            adj[i].add(j)
            adj[j].add(i)
    return tuple(tuple(sorted(s)) for s in adj)


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
    """The pixels owned by ``agent``."""
    return CellPixels(partition.cells[agent], domain)
