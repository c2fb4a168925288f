"""Cell cost terms: quadrature, expected cost, exploration std, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from gpcover import (Domain, Hyperparams, QuadratureSpec, SparseGP, cell_cost_report,
                     cell_pixels, compute_partition, expected_cost, mass_centroid,
                     true_locational_cost, variance_cost)
from gpcover.density import DensityField, GaussianBlob, GaussianMixture
from gpcover.cost import _pair_nodes, _single_nodes

from oracles import central_fd

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
    _, cell = _whole_grid_cell(13, 9)
    for stride in (1, 2, 3, 5):
        nodes, weights = _single_nodes(cell, stride)
        assert weights.sum() == pytest.approx(13 * 9, rel=1e-12)
        assert len(nodes) == len(weights)


def test_pair_quadrature_weights_sum_to_cell_area():
    _, cell = _whole_grid_cell(20, 10)
    for budget in (4, 17, 64, 199):
        nodes, weights = _pair_nodes(cell, budget)
        assert len(nodes) <= budget
        assert weights.sum() == pytest.approx(200.0, rel=1e-12)


def test_full_budget_uses_exact_pixel_area():
    _, cell = _whole_grid_cell(6, 6, cell_size=0.5)
    nodes, weights = _pair_nodes(cell, budget=36)
    assert len(nodes) == 36
    assert np.all(weights == 0.25)


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


def test_mass_centroid_of_constant_values():
    domain, cell = _whole_grid_cell(5, 3)
    mass, centroid = mass_centroid(cell, np.full(15, 2.0))
    assert mass == pytest.approx(30.0, rel=1e-12)
    np.testing.assert_allclose(centroid, [2.5, 1.5])


def test_mass_centroid_zero_mass_falls_back_to_geometric_center():
    domain, cell = _whole_grid_cell(5, 3)
    mass, centroid = mass_centroid(cell, np.zeros(15))
    assert mass == 0.0
    np.testing.assert_allclose(centroid, cell.geometric_center)


def test_mass_centroid_weights_toward_heavy_side():
    domain, cell = _whole_grid_cell(4, 1)
    values = np.array([0.0, 0.0, 0.0, 3.0])
    mass, centroid = mass_centroid(cell, values)
    assert mass == pytest.approx(3.0)
    np.testing.assert_allclose(centroid, [3.5, 0.5])


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
    # both agents at the same spot: the tie gives agent 1 nothing
    part = compute_partition([[5.0, 5.0], [5.0, 5.0]], domain)
    cell = cell_pixels(part, 1, domain)
    assert len(cell) == 0
    gp = SparseGP.fit(np.zeros((0, 3)), Hyperparams(1.0, 1.0, 0.1))
    report = cell_cost_report(cell, [5.0, 5.0], gp, FULL)
    assert report.expected == report.std == report.total == 0.0
    np.testing.assert_array_equal(report.grad_total, [0.0, 0.0])


def test_true_cost_of_uniform_unit_density_by_hand():
    domain = Domain(2, 2)
    density = DensityField.constant(domain, 1.0)
    part = compute_partition([[1.0, 1.0]], domain)
    # four pixels each at squared distance 0.5 from the center
    assert true_locational_cost([[1.0, 1.0]], part, density) == pytest.approx(1.0)


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
    assert true_locational_cost(pos, part, density) == pytest.approx(expected, rel=1e-12)


def test_true_cost_is_zero_for_zero_density():
    domain = Domain(6, 6)
    density = DensityField.constant(domain, 0.0)
    part = compute_partition([[3.0, 3.0]], domain)
    assert true_locational_cost([[3.0, 3.0]], part, density) == 0.0


def test_quadrature_spec_validates_bounds():
    with pytest.raises(ValueError):
        QuadratureSpec(single_stride=0)
    with pytest.raises(ValueError):
        QuadratureSpec(pair_budget=3)
    with pytest.raises(ValueError):
        QuadratureSpec(beta=-0.5)
