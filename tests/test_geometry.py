"""Partition geometry: pixel ownership, neighbor graph, Laplacian."""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcover import (Domain, OutsideDomainError, SimConfig, cell_pixels, compute_partition, run,
                     run_lloyd_baseline)
from gpcover import geometry

from oracles import brute_force_owner, cell_index, laplacian


def test_single_agent_owns_everything():
    domain = Domain(12, 7)
    part = compute_partition([[3.0, 2.0]], domain)
    assert np.all(part.owner == 0)
    cell = cell_pixels(part, 0, domain)
    assert len(cell) == 12 * 7 and cell.mask.shape == (7, 12) and cell.mask.all()
    assert part.neighbors == ((),)
    assert part.laplacian.tolist() == [[0]]


def test_two_agent_bisector_splits_grid_in_half():
    domain = Domain(10, 10)
    part = compute_partition([[2.5, 5.0], [7.5, 5.0]], domain)
    # bisector at x=5: columns 0..4 (centers 0.5..4.5) to agent 0
    assert np.all(part.owner[:, :5] == 0)
    assert np.all(part.owner[:, 5:] == 1)
    assert len(cell_pixels(part, 0, domain)) == 50
    assert len(cell_pixels(part, 1, domain)) == 50
    assert part.neighbors == ((1,), (0,))


def test_tie_goes_to_lowest_agent_index():
    domain = Domain(10, 10)
    # centers at x=4.5 are equidistant from agents at x=2 and x=7
    part = compute_partition([[2.0, 5.0], [7.0, 5.0]], domain)
    assert np.all(part.owner[:, 4] == 0)
    assert np.all(part.owner[:, 5] == 1)


def test_matches_brute_force_oracle_on_seeded_configs():
    domain = Domain(24, 16)
    rng = np.random.default_rng(42)
    configs = [rng.uniform([0, 0], [domain.world_width, domain.world_height],
                           size=(int(rng.integers(1, 6)), 2)) for _ in range(10)]
    # grid-aligned positions on pixel corners and centres: many exact ties
    configs += [rng.integers(0, [49, 33], size=(int(rng.integers(2, 7)), 2)) * 0.5
                for _ in range(10)]
    configs += [[[4.0, 8.0], [20.0, 8.0], [12.0, 2.0], [12.0, 14.0]],
                [[12.0, 8.0], [12.0, 8.0]],
                [[3.3, 7.1], [15.0, 2.0], [3.3, 7.1]]]
    for pos in configs:
        part = compute_partition(pos, domain)
        owner = brute_force_owner(pos, domain)
        np.testing.assert_array_equal(part.owner, owner)
        np.testing.assert_array_equal(part.run_start, _oracle_run_starts(owner))
        np.testing.assert_array_equal(part.run_owner, owner.ravel()[part.run_start])
        _assert_graph_is(part, _oracle_neighbors(owner, len(pos)))


def _oracle_run_starts(owner):
    """Every row start and every flat index where the owner changes, increasing."""
    flat = owner.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    return np.union1d(changes, np.arange(0, flat.size, owner.shape[1]))


def _oracle_neighbors(owner, n):
    """4-adjacency between different owners, one pixel pair at a time."""
    adj = [set() for _ in range(n)]
    height, width = owner.shape
    for iy in range(height):
        for ix in range(width):
            for jy, jx in ((iy, ix + 1), (iy + 1, ix)):
                if jy < height and jx < width and owner[iy, ix] != owner[jy, jx]:
                    adj[owner[iy, ix]].add(int(owner[jy, jx]))
                    adj[owner[jy, jx]].add(int(owner[iy, ix]))
    return tuple(tuple(sorted(s)) for s in adj)


def _assert_graph_is(part, neighbors):
    """The partition's adjacency, neighbor lists, edges and Laplacian all give ``neighbors``."""
    n = part.n_agents
    assert part.adjacency.dtype == bool
    np.testing.assert_array_equal(part.adjacency, laplacian(neighbors) < 0)
    assert part.neighbors == neighbors
    assert all(type(j) is int for nbrs in part.neighbors for j in nbrs)
    edges = part.edges()
    assert edges == [(i, j) for i in range(n) for j in neighbors[i] if i < j]
    assert all(type(i) is int and type(j) is int for i, j in edges)
    assert part.laplacian.dtype == np.int64
    np.testing.assert_array_equal(part.laplacian, laplacian(neighbors))


def test_matches_brute_force_oracle_across_row_blocks():
    # a wide grid; two of its agents meet at one pixel edge between rows 7 and 8
    rows = 8
    domain = Domain(4096, 2 * rows + 3)
    w, b = domain.world_width, float(rows)  # b: the world y between rows 7 and 8
    rng = np.random.default_rng(7)
    # agents 0 and 1 meet at one pixel edge, across the block boundary, between
    # agents 2 and 3, which hold the columns on either side
    boundary_pair = [[100.5, b - 0.5], [100.5, b + 0.5], [99.0, b], [102.0, b]]
    configs = [
        rng.uniform([0, 0], [w, domain.world_height], size=(5, 2)),
        # grid-aligned near the boundaries: many exact ties
        rng.integers(0, [81, 2 * domain.height + 1], size=(6, 2)) * 0.5 + [w / 2 - 20, 0],
        # a bisector on the pixel centres of the last row of the first block
        [[w / 2, b - 3.5], [w / 2, b + 2.5], [w / 2 + 0.5, 1.0]],
        # coincident agents
        [[w / 3, b], [w / 3, b], [2 * w / 3, 3.0], [w / 3, b]],
        boundary_pair,
    ]
    for pos in configs:
        part = compute_partition(pos, domain)
        owner = brute_force_owner(pos, domain)
        np.testing.assert_array_equal(part.owner, owner)
        np.testing.assert_array_equal(part.run_start, _oracle_run_starts(owner))
        _assert_cells_are_tight_owner_masks(part, owner, domain)
        _assert_graph_is(part, _oracle_neighbors(owner, len(pos)))
    shared = [((iy, ix), (jy, jx)) for iy in range(domain.height) for ix in range(domain.width)
              for jy, jx in ((iy, ix + 1), (iy + 1, ix))
              if jy < domain.height and jx < domain.width
              and {owner[iy, ix], owner[jy, jx]} == {0, 1}]
    assert shared == [((rows - 1, 100), (rows, 100))] and 1 in part.neighbors[0]


def _assert_cells_are_tight_owner_masks(part, owner, domain):
    """Each agent's cell is ``owner == i`` on a box whose edge rows and columns hold a pixel."""
    for i in range(part.n_agents):
        cell = cell_pixels(part, i, domain)
        mask = cell.mask
        assert mask.dtype == bool
        assert len(cell) == np.count_nonzero(owner == i)
        if len(cell) == 0:
            assert mask.size == 0
            continue
        rows, columns = mask.shape
        np.testing.assert_array_equal(
            mask, owner[cell.y0:cell.y0 + rows, cell.x0:cell.x0 + columns] == i)
        assert mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()
        np.testing.assert_array_equal(cell.flat, np.flatnonzero(mask))


def test_cells_are_tight_owner_masks_partitioning_the_grid():
    domain = Domain(20, 11)
    part = compute_partition([[3, 3], [14, 8], [10, 2]], domain)
    _assert_cells_are_tight_owner_masks(part, part.owner, domain)
    # the cells' pixels, placed back on the grid, cover it once, in row-major order
    all_idx = np.concatenate([cell_index(cell_pixels(part, i, domain)) for i in range(3)])
    assert len(all_idx) == domain.n_pixels
    assert len(np.unique(all_idx)) == domain.n_pixels
    for i in range(3):
        index = cell_index(cell_pixels(part, i, domain))
        assert np.all(np.diff(index) > 0)
        iy, ix = np.divmod(index, domain.width)
        assert np.all(part.owner[iy, ix] == i)


def test_neighbor_graph_of_corner_agents_matches_its_own_laplacian():
    domain = Domain(96, 54)
    pos = [[5.0, 5.0], [91.0, 5.0], [5.0, 49.0], [91.0, 49.0]]
    part = compute_partition(pos, domain)
    # corner cells meet along the two mid lines but not diagonally
    assert part.neighbors == ((1, 2), (0, 3), (0, 3), (1, 2))
    np.testing.assert_array_equal(part.laplacian, laplacian(part.neighbors))
    assert np.array_equal(part.laplacian, part.laplacian.T)
    np.testing.assert_array_equal(part.laplacian.sum(axis=1), np.zeros(4))


def test_laplacian_of_path_graph():
    # three agents in a row cut the domain into vertical strips: the path 0 - 1 - 2
    part = compute_partition([[5.0, 5.0], [15.0, 5.0], [25.0, 5.0]], Domain(30, 10))
    assert part.edges() == [(0, 1), (1, 2)]
    assert part.laplacian.dtype == np.int64
    assert part.laplacian.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def test_position_outside_domain_raises():
    domain = Domain(10, 10)
    with pytest.raises(OutsideDomainError):
        compute_partition([[5.0, 5.0], [11.0, 5.0]], domain)
    with pytest.raises(OutsideDomainError):
        compute_partition([[-0.1, 5.0]], domain)
    # the closed boundary itself is fine
    compute_partition([[10.0, 10.0], [0.0, 0.0]], domain)


def test_empty_positions_rejected():
    with pytest.raises(ValueError):
        compute_partition(np.zeros((0, 2)), Domain(5, 5))


def test_partition_is_deterministic():
    domain = Domain(31, 17)
    pos = np.random.default_rng(7).uniform([0, 0], [31, 17], size=(4, 2))
    a = compute_partition(pos, domain)
    b = compute_partition(pos, domain)
    np.testing.assert_array_equal(a.owner, b.owner)
    assert a.neighbors == b.neighbors
    np.testing.assert_array_equal(a.laplacian, b.laplacian)


def test_cell_pixels_returns_centers_with_area():
    domain = Domain(4, 4, cell_size=0.5)
    part = compute_partition([[0.5, 1.0], [1.5, 1.0]], domain)
    cell = cell_pixels(part, 0, domain)
    assert cell.pixel_area == 0.25
    assert len(cell) == 8
    np.testing.assert_allclose(cell.centers[0], [0.25, 0.25])
    np.testing.assert_allclose(cell.geometric_center, [0.5, 1.0])

    # on a non-square grid the centres equal a meshgrid table gathered at the cell
    domain = Domain(7, 3, cell_size=0.5)
    part = compute_partition([[0.4, 0.3], [2.9, 1.2], [1.7, 0.9]], domain)
    xs, ys = domain.axis_centers()
    gx, gy = np.meshgrid(xs, ys)
    table = np.column_stack([gx.ravel(), gy.ravel()])
    for i in range(3):
        cell = cell_pixels(part, i, domain)
        assert len(cell) > 0
        np.testing.assert_array_equal(cell.centers,
                                      table[np.flatnonzero(part.owner.ravel() == i)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 12), st.floats(0, 8)), min_size=1, max_size=5),
       st.integers(0, 10_000))
def test_partition_invariants_on_random_inputs(points, _seed):
    domain = Domain(12, 8)
    part = compute_partition(points, domain)
    np.testing.assert_array_equal(part.owner, brute_force_owner(points, domain))
    lap = part.laplacian
    assert np.array_equal(lap, lap.T)
    np.testing.assert_array_equal(lap.sum(axis=1), np.zeros(len(points)))
    off_diag = lap[~np.eye(len(points), dtype=bool)]
    assert np.all(np.isin(off_diag, [0, -1]))
    for i, nbrs in enumerate(part.neighbors):
        for j in nbrs:
            assert i in part.neighbors[j]


@pytest.mark.parametrize("width,height", [(1, 9), (9, 1), (1, 1), (2, 2), (17, 5), (5, 17)])
def test_neighbors_match_the_pixel_pair_oracle_on_thin_grids(width, height):
    # one-pixel rows and columns have no edges in one direction
    domain = Domain(width, height)
    rng = np.random.default_rng(width * 31 + height)
    for n in (1, 2, 3, 6):
        pos = rng.uniform([0, 0], [domain.world_width, domain.world_height], size=(n, 2))
        part = compute_partition(pos, domain)
        assert part.neighbors == _oracle_neighbors(part.owner, n)


# the benchmark's paper-scale start positions on its 960x540 grid
_PAPER_START = [[297.6, 151.2], [652.8, 178.2], [326.4, 383.4], [633.6, 372.6]]


def _full_sweep(positions, domain, block_pixels=32768):
    """Every agent over every pixel, in row blocks of about ``block_pixels``
    pixels, with neighbors from full-grid scans.

    The plain sweep, which skips nothing: a running minimum from
    infinity over all agents in index order, a strict compare, owner 0 to start.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    xs, ys = domain.axis_centers()
    dx2 = (xs[None, :] - pos[:, :1]) ** 2
    dy2 = (ys[None, :] - pos[:, 1:]) ** 2
    best = np.full((domain.height, domain.width), np.inf)
    owner = np.zeros(best.shape, dtype=np.intp)
    rows = max(1, min(domain.height, block_pixels // domain.width))
    for r0 in range(0, domain.height, rows):
        r1 = min(r0 + rows, domain.height)
        for i in range(len(pos)):
            d2 = dx2[i] + dy2[i, r0:r1, None]
            closer = d2 < best[r0:r1]
            np.minimum(best[r0:r1], d2, out=best[r0:r1])
            np.copyto(owner[r0:r1], i, where=closer)
    n = len(pos)
    pairs = np.concatenate([np.stack([owner[:, :-1].ravel(), owner[:, 1:].ravel()]),
                            np.stack([owner[:-1, :].ravel(), owner[1:, :].ravel()])], axis=1)
    pairs = pairs[:, pairs[0] != pairs[1]]
    adj = [set() for _ in range(n)]
    for i, j in np.unique(np.sort(pairs, axis=0), axis=1).T.tolist():
        adj[i].add(j)
        adj[j].add(i)
    return owner, tuple(tuple(sorted(a)) for a in adj)


def _assert_matches_full_sweep(pos, domain, block_pixels=32768):
    part = compute_partition(pos, domain)
    owner, neighbors = _full_sweep(pos, domain, block_pixels)
    assert part.owner.dtype == part.run_start.dtype == part.run_owner.dtype == np.intp
    np.testing.assert_array_equal(part.owner, owner)
    np.testing.assert_array_equal(part.run_start, _oracle_run_starts(owner))
    np.testing.assert_array_equal(part.run_owner, owner.ravel()[part.run_start])
    _assert_cells_are_tight_owner_masks(part, owner, domain)
    assert part.neighbors == neighbors


def _layouts(rng, domain, n):
    """Random, grid-aligned (exact ties), coincident and column-stacked positions of n agents.

    Agents stacked in one column own whole rows, and their rows are decided
    by their y alone.
    """
    w, h, s = domain.world_width, domain.world_height, domain.cell_size
    grid = rng.integers(0, [2 * domain.width + 1, 2 * domain.height + 1], size=(n, 2)) * 0.5 * s
    spots = rng.uniform([0, 0], [w, h], size=(max(1, n // 3), 2))
    column = np.column_stack([np.full(n, rng.uniform(0, w)), rng.uniform(0, h, size=n)])
    return [rng.uniform([0, 0], [w, h], size=(n, 2)), np.minimum(grid, [w, h]),
            spots[rng.integers(0, len(spots), size=n)], column]


def _aligned_pairs(rng, domain, n):
    """Agents in pairs that are aligned or nearly aligned in x, one layout per offset.

    The offsets are 0, one ulp, ``1e-12``, ``1e-6`` and ``0.5`` pixels; the
    pairs' y are random, on pixel centres or on pixel corners.
    """
    w, h, s = domain.world_width, domain.world_height, domain.cell_size
    layouts = []
    for offset in (0.0, None, 1e-12 * s, 1e-6 * s, 0.5 * s):
        left = rng.uniform(0, w, size=(n + 1) // 2)
        right = np.nextafter(left, np.inf) if offset is None else left + offset
        x = np.minimum(np.stack([left, right], axis=1).ravel()[:n], w)
        for y in (rng.uniform(0, h, size=n),
                  (rng.integers(0, domain.height, size=n) + 0.5) * s,
                  rng.integers(0, domain.height + 1, size=n) * s):
            layouts.append(np.column_stack([x, np.minimum(y, h)]))
    return layouts


def test_certain_intervals_match_the_full_sweep_and_leave_few_band_pixels(monkeypatch):
    band_sizes = []
    sweep = geometry._sweep

    def counted(dx2, dy2, flat):
        band_sizes.append(len(flat))
        return sweep(dx2, dy2, flat)

    monkeypatch.setattr(geometry, "_sweep", counted)
    rng = np.random.default_rng(3)
    paper = Domain(960, 540)
    for pos in [_PAPER_START, *_layouts(rng, paper, 4), *_layouts(rng, paper, 13),
                *_aligned_pairs(rng, paper, 4)]:
        _assert_matches_full_sweep(pos, paper)
    # the paper start sums distances at 1,292 of its 518,400 pixels
    band_sizes.clear()
    compute_partition(_PAPER_START, paper)
    assert band_sizes == [1292]
    # pairs that are nearly aligned in x keep their rows' intervals: at 1e-6
    # pixels apart, two agents split the rows by y alone, as at 0
    for offset in (0.0, 1e-6):
        band_sizes.clear()
        compute_partition([[300.0, 100.0], [300.0 + offset, 400.0]], paper)
        assert band_sizes[0] <= 4 * paper.width
    desk = Domain(240, 135)
    for n in (2, 5, 12, 30):
        for pos in _layouts(rng, desk, n) + _aligned_pairs(rng, desk, n):
            _assert_matches_full_sweep(pos, desk, 960)


@pytest.mark.parametrize("width,height,cell_size",
                         [(1, 9, 1.0), (9, 1, 1.0), (1, 1, 1.0), (31, 17, 0.37),
                          (40, 23, 1e-3), (40, 23, 1e3), (40, 23, 1e150), (40, 23, 1e153)])
@pytest.mark.parametrize("block_pixels", [32768, 40, 7])
def test_pruned_sweep_matches_the_full_sweep_on_small_and_scaled_grids(
        width, height, cell_size, block_pixels):
    # block_pixels sets the oracle sweep's row blocks; at cell size 1e153 the
    # margin is infinite, as a distance sum could overflow, so every pixel is swept
    domain = Domain(width, height, cell_size)
    rng = np.random.default_rng(width * 1009 + height)
    for n in range(1, 31, 3):
        for pos in _layouts(rng, domain, n) + _aligned_pairs(rng, domain, n):
            _assert_matches_full_sweep(pos, domain, block_pixels)


def test_lloyd_baseline_never_builds_the_neighbor_graph(monkeypatch):
    calls = {"_adjacent_pairs": [], "CellPixels": [], "owner": []}
    for name in ("_adjacent_pairs", "CellPixels"):
        def spy(*args, _original=getattr(geometry, name), _log=calls[name]):
            _log.append(args)
            return _original(*args)

        monkeypatch.setattr(geometry, name, spy)

    def owner(part, _original=geometry.VoronoiPartition.owner.func):
        calls["owner"].append(part)
        return _original(part)

    owner_grid = cached_property(owner)
    owner_grid.__set_name__(geometry.VoronoiPartition, "owner")
    monkeypatch.setattr(geometry.VoronoiPartition, "owner", owner_grid)
    # hotspots' background of 20 gives every cell mass, so Lloyd never falls
    # back to a cell's geometric centre and never builds a cell, nor the owner grid
    config = SimConfig(width=48, height=27, n_agents=3, rounds=3, seed=2, scenario="hotspots")
    run_lloyd_baseline(config)
    assert calls == {"_adjacent_pairs": [], "CellPixels": [], "owner": []}
    # the method reads the graph every round and builds every agent's cell,
    # but never those of the partition after its last move; cells and graph
    # come from the runs, so it never builds an owner grid either
    run(config)
    assert len(calls["_adjacent_pairs"]) == config.rounds
    assert len(calls["CellPixels"]) == config.rounds * config.n_agents
    assert calls["owner"] == []


def test_neighbor_graph_is_built_on_first_read_and_matches_the_oracle():
    domain = Domain(30, 19)
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 9):
        for pos in _layouts(rng, domain, n):
            part = compute_partition(pos, domain)
            assert not {"owner", "adjacency", "neighbors", "laplacian"} & set(vars(part))
            oracle = _oracle_neighbors(part.owner, n)
            np.testing.assert_array_equal(part.laplacian, laplacian(oracle))
            assert part.neighbors == oracle
            # built once: later reads return the same objects
            assert part.neighbors is part.neighbors and part.laplacian is part.laplacian
            assert part.adjacency is part.adjacency and part.owner is part.owner


@pytest.mark.parametrize("block_pixels", [32768, 40])
def test_run_starts_mark_every_owner_change_in_flat_order(block_pixels):
    # block_pixels sets the oracle sweep's row blocks
    small = Domain(30, 19)
    rng = np.random.default_rng(11)
    cases = [(Domain(960, 540), _PAPER_START)]
    cases += [(small, pos) for n in (1, 2, 4, 9)
              for pos in _layouts(rng, small, n) + _aligned_pairs(rng, small, n)]
    for domain, pos in cases:
        part = compute_partition(pos, domain)
        owner = _full_sweep(pos, domain, block_pixels)[0]
        # runs start, in increasing order, exactly where the owner changes and
        # at every row start, row 0's included
        assert part.run_start.dtype == np.intp
        np.testing.assert_array_equal(part.run_start, _oracle_run_starts(owner))
        np.testing.assert_array_equal(part.run_owner, owner.ravel()[part.run_start])
        # the owner grid, the cells' boxes and the graph come from the runs
        _assert_cells_are_tight_owner_masks(part, owner, domain)
        _assert_graph_is(part, _oracle_neighbors(owner, len(pos)))


@pytest.mark.parametrize("height,width", [(3, 3), (2, 4), (4, 2)])
def test_run_starts_alone_find_every_pair_on_any_three_owner_grid(height, width):
    # every owner grid, Voronoi or not, with only its owner changes as run starts
    for labels in itertools.product(range(3), repeat=height * width):
        owner = np.array(labels, dtype=np.intp).reshape(height, width)
        run_start = np.flatnonzero(np.diff(owner.ravel(), prepend=-1))
        run_owner = owner.ravel()[run_start]
        assert np.array_equal(geometry._adjacent_pairs(run_start, run_owner, owner.shape, 3),
                              laplacian(_oracle_neighbors(owner, 3)) < 0), owner
