"""Cell cost terms: quadrature, expected cost, exploration std, gradients."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest

from gpcover import (Domain, Hyperparams, QuadratureSpec, SimConfig, SparseGP, build_scenario,
                     cell_cost_report, cell_pixels, compute_partition, expected_cost,
                     kernel_matrix, mass_centroid, posterior_mean, run_lloyd_baseline,
                     true_locational_cost, variance_cost)
from gpcover.density import DensityField, GaussianBlob, GaussianMixture, scenario_mixture
from gpcover.cost import _block_nodes, _picked, _share
from gpcover.gp import _SERIAL_GEMM_MACS, _axis_factor, lattice_posterior_mean

from oracles import brute_force_nearest, central_fd, cell_from_index, cell_index

FULL = QuadratureSpec(single_stride=1, pair_budget=10_000, beta=0.0)


def _whole_grid_cell(width, height, cell_size=1.0):
    domain = Domain(width, height, cell_size)
    part = compute_partition([[domain.world_width / 2, domain.world_height / 2]], domain)
    return domain, cell_pixels(part, 0, domain)


def _seeded_gp(rng, domain, n=12, prior_mean=0.0):
    pts = rng.uniform([0, 0], [domain.world_width, domain.world_height], size=(n, 2))
    vals = rng.uniform(0.5, 2.0, size=n)
    hyper = Hyperparams(0.25 * domain.world_width, 1.0, 0.05, prior_mean=prior_mean)
    return SparseGP.fit(np.column_stack([pts, vals]), hyper)


def test_single_quadrature_weights_sum_to_cell_area():
    # the pick mask holds every stride-th pixel in row-major order, the box
    # mean at each is its own posterior mean, and the picks' shares sum to the area
    domain = Domain(13, 9, cell_size=0.5)
    part = compute_partition([[1.5, 2.0], [5.0, 1.0]], domain)
    gp = _seeded_gp(np.random.default_rng(3), domain)
    for i in range(2):
        cell = cell_pixels(part, i, domain)
        mean = lattice_posterior_mean(gp, *cell.axis_centers())
        for stride in (1, 2, 3, 5):
            pick = _picked(cell, stride)
            assert pick.shape == cell.mask.shape
            np.testing.assert_array_equal(np.flatnonzero(pick), cell.flat[::stride])
            nodes = cell.centers[::stride]
            np.testing.assert_allclose(mean[pick.ravel()], posterior_mean(gp, nodes),
                                       rtol=1e-12, atol=1e-12)
            count = np.count_nonzero(pick)
            assert _share(cell, count) * count == pytest.approx(len(cell) * 0.25, rel=1e-12)


def test_block_node_weights_sum_to_cell_area():
    # the least stride whose lattice product fits the budget, nodes at the
    # blocks' mean pixel centres, the blocks' pixel counts summing to the
    # cell's, and at stride 1 every box pixel a node
    rng = np.random.default_rng(19)
    domain = Domain(37, 23, cell_size=0.5)
    part = compute_partition(rng.uniform([0, 0], [18.5, 11.5], size=(3, 2)), domain)
    cells = [cell_pixels(part, i, domain) for i in range(3)]
    cells += [_whole_grid_cell(20, 10)[1], cell_from_index([5 * 37 + 4], domain),
              cell_from_index(np.arange(3 * 37 + 2, 3 * 37 + 35), domain)]
    for cell in cells:
        rows, columns = cell.mask.shape
        bx, by = cell.axis_centers()
        for budget in (4, 17, 64, 199, 256, 10_000):
            stride = next(s for s in range(1, max(rows, columns) + 1)
                          if math.ceil(rows / s) * math.ceil(columns / s)
                          * (math.ceil(rows / s) + math.ceil(columns / s)) <= budget ** 2)
            xs, ys, weights = _block_nodes(cell, budget)
            np.testing.assert_allclose(xs, [bx[i:i + stride].mean()
                                            for i in range(0, columns, stride)], rtol=1e-15)
            np.testing.assert_allclose(ys, [by[j:j + stride].mean()
                                            for j in range(0, rows, stride)], rtol=1e-15)
            np.testing.assert_array_equal(weights, [
                [cell.pixel_area * np.count_nonzero(cell.mask[j:j + stride, i:i + stride])
                 for i in range(0, columns, stride)] for j in range(0, rows, stride)])
            assert weights.sum() == pytest.approx(len(cell) * cell.pixel_area, rel=1e-12)
            if stride == 1:
                np.testing.assert_array_equal(xs, bx)
                np.testing.assert_array_equal(ys, by)
        assert _block_nodes(cell, 10_000)[2].shape == cell.mask.shape


def test_full_budget_uses_exact_pixel_area():
    # a budget that reaches stride 1 makes every pixel of the box a node at
    # pixel_area (zero off the cell), so the std is the every-pixel one
    _, cell = _whole_grid_cell(6, 6, cell_size=0.5)
    xs, ys, weights = _block_nodes(cell, budget=36)
    assert weights.size == 36
    assert np.all(weights == 0.25)
    domain = Domain(30, 22, cell_size=0.5)
    part = compute_partition([[3.0, 4.0], [11.0, 6.5], [7.5, 9.0]], domain)
    gp = _seeded_gp(np.random.default_rng(29), domain)
    for i, pos in enumerate([[3.0, 4.0], [11.0, 6.5], [7.5, 9.0]]):
        cell = cell_pixels(part, i, domain)
        xs, ys, weights = _block_nodes(cell, FULL.pair_budget)
        bx, by = cell.axis_centers()
        np.testing.assert_array_equal(xs, bx)
        np.testing.assert_array_equal(ys, by)
        np.testing.assert_array_equal(weights, cell.mask * cell.pixel_area)
        std, grad = variance_cost(cell, np.array(pos), gp, FULL)
        ref_std, ref_grad = _every_pixel_std(cell, np.array(pos), gp)
        assert std == pytest.approx(ref_std, rel=1e-9)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-7, atol=1e-9 * ref_std)


def _dense_nodes(cell, idx):
    k = len(cell)
    weight = cell.pixel_area if len(idx) == k else k * cell.pixel_area / len(idx)
    return cell.centers[idx], np.full(len(idx), weight)


def _dense_expected(cell, pos, gp, stride):
    """The expected term on (k, 2) node coordinates and a k x M kernel table."""
    nodes, weights = _dense_nodes(cell, np.arange(0, len(cell), stride))
    mu = np.maximum(posterior_mean(gp, nodes), 0.0)
    diff = nodes - pos
    mw = mu * weights
    return 0.5 * float((diff ** 2).sum(axis=1) @ mw), -(diff * mw[:, None]).sum(axis=0)


def _dense_std(cell, pos, gp, budget):
    """The exploration term through the full posterior covariance of the block nodes."""
    xs, ys, weights = _block_nodes(cell, budget)
    gx, gy = np.meshgrid(xs, ys)
    nodes, weights = np.column_stack([gx.ravel(), gy.ravel()]), weights.ravel()
    diff = nodes - pos
    gw = (diff ** 2).sum(axis=1) * weights
    cov = kernel_matrix(nodes, nodes, gp.hyper)
    if len(gp) > 0:
        gram = kernel_matrix(gp.points, gp.points, gp.hyper) \
            + gp.hyper.noise_variance * np.eye(len(gp))
        kq = kernel_matrix(nodes, gp.points, gp.hyper)
        cov = cov - kq @ np.linalg.inv(gram) @ kq.T
    cgw = cov @ gw
    std = float(np.sqrt(max(0.25 * float(gw @ cgw), 0.0)))
    return std, -(diff * (weights * cgw)[:, None]).sum(axis=0) / (2.0 * std)


def test_cost_terms_match_the_dense_formulas():
    rng = np.random.default_rng(41)
    for domain in (Domain(40, 25), Domain(30, 22, cell_size=0.5)):
        span = np.array([domain.world_width, domain.world_height])
        for trial in range(4):
            pos = rng.uniform(0.1 * span, 0.9 * span, size=(3, 2))
            part = compute_partition(pos, domain)
            rows = np.column_stack([rng.uniform([0, 0], span, size=(3 * trial, 2)),
                                    rng.uniform(-1.0, 2.0, size=3 * trial)])
            gp = SparseGP.fit(rows, Hyperparams(0.2 * span[0], 1.5, 0.05,
                                                prior_mean=0.5 - 0.5 * trial))
            for i in range(3):
                cell = cell_pixels(part, i, domain)
                for stride, budget in ((1, 10_000), (2, 64), (3, 16), (7, 4)):
                    quad = QuadratureSpec(single_stride=stride, pair_budget=budget)
                    value, grad = expected_cost(cell, pos[i], gp, quad)
                    ref_value, ref_grad = _dense_expected(cell, pos[i], gp, stride)
                    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
                    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
                    std, grad = variance_cost(cell, pos[i], gp, quad)
                    ref_std, ref_grad = _dense_std(cell, pos[i], gp, budget)
                    assert std == pytest.approx(ref_std, rel=1e-12)
                    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


def _per_axis_expected(cell, pos, gp, stride):
    """The expected term from per-axis moments, built from the cell's indices in
    its whole domain: one box product against a contiguous ``ex.T``, the clipped
    mean kept at the strided pixels by a 2-D index, its column sums as row
    adds in row order and its row sums one row at a time."""
    px, py = pos
    k = len(cell)
    iy, ix = np.divmod(cell_index(cell)[::stride], cell.domain.width)
    weight = cell.pixel_area if len(ix) == k else k * cell.pixel_area / len(ix)
    xs, ys = cell.domain.axis_centers()
    rows, columns = cell.mask.shape
    bx, by = xs[cell.x0:cell.x0 + columns], ys[cell.y0:cell.y0 + rows]
    hyper = gp.hyper
    ex = _axis_factor(bx, gp.points[:, 0], hyper.lengthscale)
    ey = _axis_factor(by, gp.points[:, 1], hyper.lengthscale)
    assert ex.size * rows <= _SERIAL_GEMM_MACS  # one GEMM block at these sizes
    factor, ext = ey * (hyper.signal_variance * gp.weights), ex.T.copy()
    # numpy hands a one-row or one-column product to GEMV, which OpenBLAS
    # threads, so the lattice takes those without BLAS
    box = hyper.prior_mean + (np.einsum("ij,jk->ik", factor, ext) if 1 in (rows, columns)
                              else factor @ ext)
    kept = np.zeros(box.shape)
    kept[iy - cell.y0, ix - cell.x0] = np.maximum(box, 0.0)[iy - cell.y0, ix - cell.x0]
    col = kept[0].copy()
    for r in range(1, rows):
        col += kept[r]
    row = np.array([kept[r].sum() for r in range(rows)])
    dx, dy = bx - px, by - py
    return (0.5 * weight * float(col @ (dx * dx) + row @ (dy * dy)),
            -weight * np.array([col @ dx, row @ dy]))


def test_expected_cost_is_bit_identical_to_the_per_axis_form():
    rng = np.random.default_rng(43)
    domain = Domain(40, 25, cell_size=0.5)
    pos = rng.uniform([1, 1], [19, 12], size=(3, 2))
    part = compute_partition(pos, domain)
    cells = [(cell_pixels(part, i, domain), pos[i]) for i in range(3)]
    # one pixel, one row, and a thin diagonal cell whose box spans the grid
    cells += [(cell_from_index([9 * 40 + 21], domain), pos[0]),
              (cell_from_index(np.arange(6 * 40 + 2, 6 * 40 + 37), domain), pos[1]),
              (cell_from_index([iy * 40 + (iy * 3) // 2 for iy in range(25)], domain), pos[2])]
    # triangles whose strided pixels miss their leftmost columns, so that some
    # columns and rows of the box hold no kept pixel
    cells += [(cell_from_index([iy * 40 + ix for iy in range(rows)
                                for ix in range(14 - iy, 17 + iy)], domain), pos[0])
              for rows in (2, 3, 12)]
    # 60 rows, as in the benchmark's runs
    for n, prior_mean in ((0, 0.4), (0, -0.2), (15, 0.0), (15, -0.6), (60, 0.1)):
        # values of both signs, so that the clip at zero takes part
        rows = np.column_stack([rng.uniform([0, 0], [20, 12.5], size=(n, 2)),
                                rng.uniform(-1.0, 2.0, size=n)])
        gp = SparseGP.fit(rows, Hyperparams(3.0, 1.5, 0.05, prior_mean=prior_mean))
        for cell, p in cells:
            for stride in (1, 2, 3):
                value, grad = expected_cost(cell, p, gp, QuadratureSpec(single_stride=stride))
                ref_value, ref_grad = _per_axis_expected(cell, p, gp, stride)
                assert value == ref_value
                np.testing.assert_array_equal(grad, ref_grad)


def _grid_cases():
    """(cell, stride) pairs covering the shapes a grid evaluation must handle."""
    rng = np.random.default_rng(11)
    domain = Domain(30, 20)
    part = compute_partition(rng.uniform([0, 0], [30, 20], size=(5, 2)), domain)
    for i in range(5):
        for stride in (1, 2, 7):
            yield cell_pixels(part, i, domain), stride
    # one pixel, one row, one column, and a stride longer than the cell
    yield cell_from_index([7 * 30 + 13], domain), 1
    yield cell_from_index(np.arange(4 * 30 + 3, 4 * 30 + 25), domain), 3
    yield cell_from_index(np.arange(2, 20 * 30, 30), domain), 2
    yield cell_from_index(np.arange(4 * 30 + 3, 4 * 30 + 9), domain), 50
    # a domain taller than wide, so that the two axes' centres differ
    tall = Domain(6, 25)
    part = compute_partition([[1.0, 3.0], [4.0, 22.0]], tall)
    yield cell_pixels(part, 1, tall), 2
    # half-unit pixels
    fine = Domain(16, 12, cell_size=0.5)
    part = compute_partition([[1.0, 1.0], [6.0, 4.0]], fine)
    yield cell_pixels(part, 0, fine), 1
    yield cell_pixels(part, 1, fine), 3
    # a thin diagonal cell whose bounding box spans the whole grid
    yield cell_from_index([iy * 30 + (iy * 3) // 2 for iy in range(20)], domain), 1


def test_expected_cost_matches_the_dense_oracle_on_grid_shapes():
    # the mean on the cell's box, gathered by its mask, is the dense mean at
    # the pixels to 1e-12 of the data's scale; the cost and its gradient are
    # then within that much of their sums of |weight * offset|
    rng = np.random.default_rng(12)
    for cell, stride in _grid_cases():
        domain = cell.domain
        span = [domain.world_width, domain.world_height]
        nodes, weights = _dense_nodes(cell, np.arange(0, len(cell), stride))
        for n in (0, 1, 9, 40):
            pts = rng.uniform([0, 0], span, size=(n, 2))
            rows = np.column_stack([pts, rng.uniform(-1.0, 3.0, size=n)])
            hyper = Hyperparams(rng.uniform(0.5, 8.0) * domain.cell_size, rng.uniform(0.1, 5.0),
                                rng.uniform(1e-4, 0.2), prior_mean=rng.uniform(-1.0, 1.0))
            gp = SparseGP.fit(rows, hyper)
            pos = rng.uniform([0, 0], span)
            value, grad = expected_cost(cell, pos, gp, QuadratureSpec(single_stride=stride))
            ref_value, ref_grad = _dense_expected(cell, pos, gp, stride)
            scale = max(float(np.max(np.abs(rows[:, 2] - hyper.prior_mean), initial=0.0)),
                        abs(hyper.prior_mean), float(np.max(np.abs(posterior_mean(gp, nodes)))))
            offset = np.abs(nodes - pos) * weights[:, None]
            assert abs(value - ref_value) <= 1e-12 * scale * 0.5 * float(
                (offset * np.abs(nodes - pos)).sum())
            assert np.all(np.abs(grad - ref_grad) <= 1e-12 * scale * offset.sum(axis=0))


def _every_pixel_std(cell, pos, gp):
    """The exploration term over every pixel of the cell, from per-axis factors
    of the whole box: ``sv * Ey gw Ex`` less the inducing correction."""
    hyper = gp.hyper
    bx, by = cell.axis_centers()
    dx, dy = bx - pos[0], by - pos[1]
    weights = cell.mask * cell.pixel_area
    gw = weights * (dy[:, None] ** 2 + dx[None, :] ** 2)
    cgw = hyper.signal_variance * (_axis_factor(by, by, hyper.lengthscale) @ gw
                                   @ _axis_factor(bx, bx, hyper.lengthscale))
    ex = _axis_factor(bx, gp.points[:, 0], hyper.lengthscale)
    ey = _axis_factor(by, gp.points[:, 1], hyper.lengthscale)
    u = gp.whiten.T @ gp.whiten @ np.einsum("jm,ji,im->m", ey, gw, ex)
    cgw -= hyper.signal_variance ** 2 * (ey * u) @ ex.T
    std = float(np.sqrt(0.25 * np.sum(gw * cgw)))
    cgw *= weights
    return std, -np.array([cgw.sum(axis=0) @ dx, cgw.sum(axis=1) @ dy]) / (2.0 * std)


def test_std_and_its_gradient_match_every_pixel_at_the_default_budget():
    # the four cells of the benchmark's paper start (perfbench/workloads.py's
    # PAPER_START) under a 60-row GP, and the same starts on the desk domain,
    # a quarter the size, under the desk workload's lengthscale
    start = np.array([[297.6, 151.2], [652.8, 178.2], [326.4, 383.4], [633.6, 372.6]])
    for domain, scale, lengthscale in ((Domain(960, 540), 1.0, 21.6),
                                       (Domain(240, 135), 0.25, 24.0)):
        rng = np.random.default_rng(5)
        span = [domain.world_width, domain.world_height]
        rows = np.column_stack([rng.uniform([0, 0], span, size=(60, 2)),
                                rng.uniform(-0.2, 1, 60)])
        gp = SparseGP.fit(rows, Hyperparams(lengthscale, 1.0, 1e-3))
        part = compute_partition(start * scale, domain)
        for i, pos in enumerate(start * scale):
            cell = cell_pixels(part, i, domain)
            std, grad = variance_cost(cell, pos, gp, QuadratureSpec())
            ref_std, ref_grad = _every_pixel_std(cell, pos, gp)
            assert std == pytest.approx(ref_std, rel=0.01), (scale, i)
            cos = grad @ ref_grad / (np.linalg.norm(grad) * np.linalg.norm(ref_grad))
            assert cos >= math.cos(math.radians(2.0)), (scale, i)


def test_expected_cost_zero_when_posterior_is_non_positive():
    domain, cell = _whole_grid_cell(8, 8)
    gp = SparseGP.fit(np.zeros((0, 3)), Hyperparams(2.0, 1.0, 0.1, prior_mean=-3.0))
    value, grad = expected_cost(cell, [4.0, 4.0], gp, FULL)
    assert value == 0.0
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_expected_cost_of_uniform_field_by_hand():
    domain, cell = _whole_grid_cell(4, 4)
    gp = SparseGP.fit(np.zeros((0, 3)), Hyperparams(2.0, 1.0, 0.1, prior_mean=1.0))
    value, grad = expected_cost(cell, [2.0, 2.0], gp, FULL)
    # sum of ||q - center||^2 over the 16 unit pixels is 40
    assert value == pytest.approx(20.0, rel=1e-12)
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)


def test_expected_gradient_matches_finite_differences():
    rng = np.random.default_rng(100)
    domain = Domain(48, 27)
    for _ in range(5):
        pos = rng.uniform([5, 5], [43, 22])
        others = rng.uniform([0, 0], [48, 27], size=(2, 2))
        part = compute_partition([pos, *others], domain)
        cell = cell_pixels(part, 0, domain)
        gp = _seeded_gp(rng, domain)
        quad = QuadratureSpec(single_stride=2, pair_budget=128)
        _, grad = expected_cost(cell, pos, gp, quad)
        fd = central_fd(lambda p: expected_cost(cell, p, gp, quad)[0], pos, h=1e-4)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-9)


def test_std_gradient_matches_finite_differences():
    rng = np.random.default_rng(200)
    domain = Domain(48, 27)
    for _ in range(5):
        pos = rng.uniform([5, 5], [43, 22])
        others = rng.uniform([0, 0], [48, 27], size=(2, 2))
        part = compute_partition([pos, *others], domain)
        cell = cell_pixels(part, 0, domain)
        gp = _seeded_gp(rng, domain, n=6)
        quad = QuadratureSpec(single_stride=2, pair_budget=96)
        std, grad = variance_cost(cell, pos, gp, quad)
        assert std > 0
        fd = central_fd(lambda p: variance_cost(cell, p, gp, quad)[0], pos, h=1e-4)
        assert np.linalg.norm(grad - fd) <= 1e-3 * max(np.linalg.norm(fd), 1e-9)


def test_std_collapses_under_dense_observations():
    domain, cell = _whole_grid_cell(6, 6)
    hyper = Hyperparams(2.0, 1.0, 1e-8)
    xs = np.linspace(0.5, 5.5, 6)
    gx, gy = np.meshgrid(xs, xs)
    rows = np.column_stack([gx.ravel(), gy.ravel(), np.ones(36)])
    prior_std, _ = variance_cost(cell, [3.0, 3.0], SparseGP.fit(np.zeros((0, 3)), hyper), FULL)
    dense_std, _ = variance_cost(cell, [3.0, 3.0], SparseGP.fit(rows, hyper), FULL)
    assert dense_std < 1e-3 * prior_std


def test_std_below_the_floor_returns_a_zero_gradient():
    # a single noiseless observation makes the posterior variance exactly
    # zero at its own location, so a one-pixel cell has zero integrated std
    domain = Domain(3, 1)
    part = compute_partition([[0.5, 0.5], [1.6, 0.5]], domain)
    cell = cell_pixels(part, 0, domain)
    assert len(cell) == 1
    gp = SparseGP.fit([[0.5, 0.5, 2.0]], Hyperparams(1.0, 1.0, 0.0))
    std, grad = variance_cost(cell, [2.0, 0.5], gp, FULL)
    assert std < 1e-9
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_std_gradient_is_zero_by_symmetry_at_the_center():
    domain, cell = _whole_grid_cell(8, 8)
    gp = SparseGP.fit(np.zeros((0, 3)), Hyperparams(2.0, 1.0, 0.1))
    std, grad = variance_cost(cell, [4.0, 4.0], gp, FULL)
    assert std > 0
    np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-9)


def test_descending_the_std_moves_toward_unexplored_mass():
    # agent near one corner of an empty-model cell: the descent direction
    # -grad must point into the far (most uncertain, most distant) bulk
    domain, cell = _whole_grid_cell(12, 12)
    gp = SparseGP.fit(np.zeros((0, 3)), Hyperparams(2.0, 1.0, 0.1))
    _, grad = variance_cost(cell, [1.0, 1.0], gp, FULL)
    descent = -grad
    assert descent[0] > 0 and descent[1] > 0


def test_adding_an_observation_never_increases_the_std():
    rng = np.random.default_rng(7)
    domain, cell = _whole_grid_cell(10, 10)
    gp = _seeded_gp(rng, domain, n=5)
    std_before, _ = variance_cost(cell, [5.0, 5.0], gp, FULL)
    extended = SparseGP.fit(np.vstack([gp.inducing, [*rng.uniform(0, 10, size=2), 1.0]]),
                            gp.hyper)
    std_after, _ = variance_cost(cell, [5.0, 5.0], extended, FULL)
    assert std_after <= std_before + 1e-9


def _whole_grid_field(values, width, height, cell_size=1.0):
    domain = Domain(width, height, cell_size)
    part = compute_partition([[domain.world_width / 2, domain.world_height / 2]], domain)
    return part, DensityField(domain, np.asarray(values, dtype=float).reshape(height, width))


def test_mass_centroid_of_constant_values():
    part, field = _whole_grid_field(np.full(15, 2.0), 5, 3)
    mass, centroid = mass_centroid(part, field)
    assert mass == pytest.approx([30.0], rel=1e-12)
    np.testing.assert_allclose(centroid, [[2.5, 1.5]])


def test_mass_centroid_zero_mass_falls_back_to_geometric_center():
    part, field = _whole_grid_field(np.zeros(15), 5, 3)
    mass, centroid = mass_centroid(part, field)
    assert mass.tolist() == [0.0]
    np.testing.assert_allclose(centroid, [cell_pixels(part, 0, field.domain).geometric_center])


def test_mass_centroid_weights_toward_heavy_side():
    part, field = _whole_grid_field([0.0, 0.0, 0.0, 3.0], 4, 1)
    mass, centroid = mass_centroid(part, field)
    assert mass == pytest.approx([3.0])
    np.testing.assert_allclose(centroid, [[3.5, 0.5]])


def test_mass_centroid_matches_exact_sums_over_each_cell():
    # the run sums against math.fsum over every pixel of every cell
    rng = np.random.default_rng(23)
    parts = []
    for domain in (Domain(240, 135), Domain(37, 23, cell_size=0.5), Domain(40, 23, 1e-3),
                   Domain(40, 23, 1e3)):
        pos = rng.uniform([0, 0], [domain.world_width, domain.world_height], size=(3, 2))
        parts.append((domain, compute_partition(pos, domain)))
    one_pixel, strip = Domain(1, 1, cell_size=0.5), Domain(97, 1, cell_size=0.5)
    parts += [(one_pixel, compute_partition([[0.2, 0.3]], one_pixel)),
              (strip, compute_partition([[24.0, 0.25]], strip))]
    # agents stacked in one column own whole rows, each row one run
    desk = Domain(240, 135)
    stacked = compute_partition(
        np.column_stack([np.full(5, 101.3), rng.uniform(0, 135, size=5)]), desk)
    assert np.array_equal(stacked.run_start, np.arange(0, desk.n_pixels, desk.width))
    parts.append((desk, stacked))
    for domain, part in parts:
        field = DensityField(domain, rng.uniform(0.0, 3.0, size=(domain.height, domain.width)))
        mass, centroid = mass_centroid(part, field)
        xs, ys = domain.axis_centers()
        for i in range(part.n_agents):
            index = np.flatnonzero(part.owner.ravel() == i)
            iy, ix = np.divmod(index, domain.width)
            vals = field.values.ravel()[index]
            exact = math.fsum(vals)
            assert mass[i] == pytest.approx(exact * domain.pixel_area, rel=1e-12, abs=0)
            want = [math.fsum(xs[ix] * vals) / exact, math.fsum(ys[iy] * vals) / exact]
            np.testing.assert_allclose(centroid[i], want, rtol=1e-12, atol=0)


def test_mass_centroid_of_a_coincident_agent_is_empty_and_lloyd_leaves_it():
    domain = Domain(30, 20)
    pos = [[7.3, 5.1], [21.0, 14.2], [7.3, 5.1]]
    part = compute_partition(pos, domain)
    field = DensityField(domain, np.ones((20, 30)))
    mass, centroid = mass_centroid(part, field)
    assert mass[2] == 0.0 and np.isnan(centroid[2]).all()
    assert mass[:2].sum() == pytest.approx(600.0) and np.isfinite(centroid[:2]).all()
    config = SimConfig(width=30, height=20, n_agents=3, rounds=1, scenario="uniform",
                       init_mode="explicit", explicit_positions=pos)
    trace = run_lloyd_baseline(config)
    np.testing.assert_array_equal(trace.positions[0, 2], pos[2])
    assert not np.array_equal(trace.positions[0, 0], pos[0])


def test_run_sums_are_kept_per_field_and_never_keep_the_partition():
    domain = Domain(40, 23, 0.37)
    rng = np.random.default_rng(17)
    pos = rng.uniform([0, 0], [domain.world_width, domain.world_height], size=(5, 2))
    part, twin = compute_partition(pos, domain), compute_partition(pos, domain)
    fields = [DensityField(domain, rng.uniform(0.0, 3.0, size=(23, 40))) for _ in range(2)]
    uncached = [[np.add.reduceat(grid.ravel(), part.run_start).tobytes()
                 for grid in (field.values, field.x_weighted)] for field in fields]
    assert uncached[0] != uncached[1]
    # one partition read with two fields in turn gives each field its own sums,
    # and two partitions of the same positions give equal sums, bit for bit
    for k in (0, 1, 0, 1):
        for p in (part, twin):
            sums = p.run_sums(fields[k])
            assert [s.tobytes() for s in sums] == uncached[k]
            assert sums is p.run_sums(fields[k]) and not sums[0].flags.writeable
    mass_centroid(part, fields[0])
    true_locational_cost(part, fields[1])
    dropped = weakref.ref(part)
    del part
    gc.collect()
    assert dropped() is None


def test_report_recomposes_exactly():
    rng = np.random.default_rng(31)
    domain = Domain(32, 20)
    part = compute_partition(rng.uniform([0, 0], [32, 20], size=(3, 2)), domain)
    cell = cell_pixels(part, 1, domain)
    gp = _seeded_gp(rng, domain)
    pos = rng.uniform([8, 5], [24, 15])
    quad = QuadratureSpec(single_stride=2, pair_budget=64, beta=2.0)
    report = cell_cost_report(cell, pos, gp, quad)
    exp_value, exp_grad = expected_cost(cell, pos, gp, quad)
    std_value, std_grad = variance_cost(cell, pos, gp, quad)
    assert report.expected == exp_value
    assert report.std == std_value
    assert report.total == exp_value + np.sqrt(2.0) * std_value
    np.testing.assert_array_equal(report.grad_expected, exp_grad)
    np.testing.assert_array_equal(report.grad_std, std_grad)
    np.testing.assert_array_equal(report.grad_total, exp_grad + np.sqrt(2.0) * std_grad)


def test_report_with_zero_beta_ignores_exploration():
    rng = np.random.default_rng(5)
    domain, cell = _whole_grid_cell(10, 10)
    gp = _seeded_gp(rng, domain)
    report = cell_cost_report(cell, [5.0, 5.0], gp, QuadratureSpec(beta=0.0))
    assert report.total == report.expected
    np.testing.assert_array_equal(report.grad_total, report.grad_expected)


def test_report_of_empty_cell_is_zero_at_the_agent():
    domain = Domain(10, 10)
    # agents 1 and 3 sit where a lower index does: the tie gives them nothing
    pos = [[5.0, 5.0], [5.0, 5.0], [2.2, 7.9], [2.2, 7.9]]
    part = compute_partition(pos, domain)
    gp = SparseGP.fit([[3.0, 4.0, 1.0]], Hyperparams(1.0, 1.0, 0.1))
    for i in (1, 3):
        cell = cell_pixels(part, i, domain)
        assert len(cell) == 0 and cell.mask.shape == (0, 0)
        assert cell.x0 == cell.y0 == 0
        for quad in (FULL, QuadratureSpec(single_stride=3, pair_budget=4, beta=2.0)):
            report = cell_cost_report(cell, pos[i], gp, quad)
            assert report.expected == report.std == report.total == 0.0
            for grad in (report.grad_expected, report.grad_std, report.grad_total):
                np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_true_cost_of_uniform_unit_density_by_hand():
    domain = Domain(2, 2)
    density = DensityField(domain, np.full((2, 2), 1.0))
    part = compute_partition([[1.0, 1.0]], domain)
    # four pixels each at squared distance 0.5 from the center
    assert true_locational_cost(part, density) == pytest.approx(1.0)


def test_true_cost_matches_slow_double_loop():
    domain = Domain(9, 7)
    mixture = GaussianMixture((GaussianBlob((3.0, 2.0), 2.0, 1.5),), background=0.2)
    density = DensityField.from_mixture(domain, mixture)
    pos = np.array([[2.0, 2.0], [7.0, 5.0]])
    part = compute_partition(pos, domain)
    expected = 0.0
    for iy in range(7):
        for ix in range(9):
            q = np.array([ix + 0.5, iy + 0.5])
            p = pos[part.owner[iy, ix]]
            expected += 0.5 * float(((q - p) ** 2).sum()) * density.values[iy, ix]
    assert true_locational_cost(part, density) == pytest.approx(expected, rel=1e-12)


def test_true_cost_is_zero_for_zero_density():
    domain = Domain(6, 6)
    density = DensityField(domain, np.full((6, 6), 0.0))
    part = compute_partition([[3.0, 3.0]], domain)
    assert true_locational_cost(part, density) == 0.0


def _fsum_true_cost(pos, density):
    """``0.5 * sum ||q - p_owner(q)||^2 phi(q)`` by ``math.fsum`` over the
    brute-force nearest squared distances, times the pixel area."""
    domain = density.domain
    _, dist2 = brute_force_nearest(pos, domain)
    return 0.5 * math.fsum((dist2 * density.values).ravel().tolist()) * domain.pixel_area


def _cost_layouts(rng, domain):
    """Random, pixel-centre, pixel-corner, coincident and x-aligned positions."""
    w, h, s = domain.world_width, domain.world_height, domain.cell_size
    layouts = []
    for n in (1, 2, 4, 9):
        layouts += [rng.uniform([0, 0], [w, h], size=(n, 2)),
                    (rng.integers(0, [domain.width, domain.height], size=(n, 2)) + 0.5) * s,
                    rng.integers(0, [domain.width + 1, domain.height + 1], size=(n, 2)) * s]
        spot = rng.uniform([0, 0], [w, h])
        layouts.append(np.repeat(spot[None], n, axis=0))
        for offset in (0.0, 1e-12 * s, 1e-6 * s, 0.5 * s):
            x = np.minimum(rng.uniform(0, w) + offset * (np.arange(n) % 2), w)
            layouts.append(np.column_stack([x, rng.uniform(0, h, size=n)]))
    return layouts


@pytest.mark.parametrize("width,height,cell_size",
                         [(1, 1, 1.0), (17, 1, 1.0), (1, 13, 1.0), (31, 17, 0.37),
                          (40, 23, 1e-3), (40, 23, 1e3), (96, 54, 1.0)])
def test_true_cost_matches_the_fsum_oracle_on_adversarial_layouts(width, height, cell_size):
    domain = Domain(width, height, cell_size)
    rng = np.random.default_rng(width * 7 + height)
    density = DensityField(domain, rng.uniform(0.0, 3.0, size=(height, width)))
    zero = DensityField(domain, np.full((height, width), 0.0))
    for pos in _cost_layouts(rng, domain):
        part = compute_partition(pos, domain)
        assert true_locational_cost(part, density) == pytest.approx(
            _fsum_true_cost(pos, density), rel=1e-12, abs=0)
        assert true_locational_cost(part, zero) == 0.0


@pytest.mark.parametrize("scenario", ["four_gaussians", "single_peak", "hotspots", "uniform"])
def test_true_cost_matches_the_fsum_oracle_on_every_scenario(scenario):
    domain = Domain(120, 68)
    density = build_scenario(scenario, domain)
    rng = np.random.default_rng(len(scenario))
    # random layouts, and agents near the blobs' centres, where the cost is smallest
    centres = [b.center for b in scenario_mixture(scenario, domain).blobs] or [(60.0, 34.0)]
    layouts = _cost_layouts(rng, domain)
    for n in (1, 4, 12):
        near = np.array(centres)[np.arange(n) % len(centres)] + rng.normal(0, 0.5, size=(n, 2))
        layouts.append(np.clip(near, 0, [domain.world_width, domain.world_height]))
    for pos in layouts:
        part = compute_partition(pos, domain)
        assert true_locational_cost(part, density) == pytest.approx(
            _fsum_true_cost(pos, density), rel=1e-12, abs=0)


def test_true_cost_is_inf_not_nan_where_the_distance_sum_overflows():
    rng = np.random.default_rng(9)
    for cell_size in (1e150, 1e153):
        domain = Domain(40, 23, cell_size)
        density = DensityField(domain, rng.uniform(0.5, 3.0, size=(23, 40)))
        pos = rng.uniform([0, 0], [domain.world_width, domain.world_height], size=(3, 2))
        # the grid product's sum, as the cost once took it, overflows
        _, dist2 = brute_force_nearest(pos, domain)
        with np.errstate(over="ignore"):
            assert 0.5 * np.sum(dist2 * density.values) * domain.pixel_area == np.inf
            assert true_locational_cost(compute_partition(pos, domain), density) == np.inf


def test_quadrature_spec_validates_bounds():
    with pytest.raises(ValueError):
        QuadratureSpec(single_stride=0)
    with pytest.raises(ValueError):
        QuadratureSpec(pair_budget=3)
    with pytest.raises(ValueError):
        QuadratureSpec(beta=-0.5)
