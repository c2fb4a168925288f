"""Sparse GP regression: kernel, posterior, incremental updates, selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcover import (Hyperparams, SingularityError, SparseGP, greedy_select, kernel_matrix,
                     log_marginal_likelihood, merge_inducing, posterior, posterior_mean,
                     refit_hyperparams, smw_extend)

from oracles import dense_posterior, greedy_oracle, se_kernel_matrix

HYPER = Hyperparams(lengthscale=1.5, signal_variance=2.0, noise_variance=0.1)


def _random_inducing(rng, n, span=5.0):
    pts = rng.uniform(-span, span, size=(n, 2))
    vals = rng.normal(size=n)
    return np.column_stack([pts, vals])


def test_kernel_at_zero_distance_is_signal_variance():
    assert kernel_matrix([1.0, 2.0], [1.0, 2.0], HYPER)[0, 0] == HYPER.signal_variance


def test_kernel_at_one_lengthscale():
    h = Hyperparams(lengthscale=2.0, signal_variance=1.0, noise_variance=0.0)
    value = kernel_matrix([0.0, 0.0], [2.0, 0.0], h)[0, 0]
    assert value == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_kernel_matrix_matches_pairwise_kernel():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, size=(5, 2))
    # far enough apart that exp(-d2 / (2 l^2)) underflows to 0.0
    far = 40.0 * HYPER.lengthscale
    cases = {
        "random": (rng.uniform(-3, 3, size=(4, 2)), rng.uniform(-3, 3, size=(6, 2))),
        "empty a": (np.zeros((0, 2)), pts),
        "empty b": (pts, np.zeros((0, 2))),
        "single 1-D point": (np.array([0.5, -1.0]), pts),
        "coincident": (pts, pts),
        "far apart": (np.array([[0.0, 0.0]]), np.array([[far, 0.0], [0.0, -far], [far, far]])),
    }
    for name, (a, b) in cases.items():
        a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
        mat = kernel_matrix(a, b, HYPER)
        assert mat.shape == (len(a2), len(b2)), name
        oracle = se_kernel_matrix(a, b, HYPER.lengthscale, HYPER.signal_variance)
        for i in range(len(a2)):
            for j in range(len(b2)):
                assert mat[i, j] == pytest.approx(oracle[i, j], rel=1e-15), name
    assert np.all(np.diag(kernel_matrix(pts, pts, HYPER)) == HYPER.signal_variance)
    assert np.all(kernel_matrix(*cases["far apart"], HYPER) == 0.0)


def test_empty_model_returns_the_prior():
    h = Hyperparams(1.0, 3.0, 0.1, prior_mean=0.7)
    gp = SparseGP.fit(np.zeros((0, 3)), h)
    mean, cov = posterior(gp, [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(mean, [0.7, 0.7])
    assert cov[0, 0] == pytest.approx(3.0)
    assert cov[1, 1] == pytest.approx(3.0)


def test_noiseless_model_interpolates_its_data():
    h = Hyperparams(1.0, 2.0, 0.0)
    gp = SparseGP.fit([[0.0, 0.0, 1.5]], h)
    mean, cov = posterior(gp, [[0.0, 0.0]])
    assert mean[0] == pytest.approx(1.5, abs=1e-12)
    assert abs(cov[0, 0]) < 1e-12


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(11)
    inducing = _random_inducing(rng, 5)
    queries = rng.uniform(-5, 5, size=(9, 2))
    gp = SparseGP.fit(inducing, HYPER)
    mean, cov = posterior(gp, queries)
    ref_mean, ref_cov = dense_posterior(inducing[:, :2], inducing[:, 2], HYPER, queries)
    np.testing.assert_allclose(mean, ref_mean, atol=1e-10)
    np.testing.assert_allclose(cov, ref_cov, atol=1e-10)


def test_posterior_mean_agrees_with_full_posterior():
    rng = np.random.default_rng(3)
    gp = SparseGP.fit(_random_inducing(rng, 8), HYPER)
    queries = rng.uniform(-5, 5, size=(20, 2))
    mean_only = posterior_mean(gp, queries)
    mean_full, _ = posterior(gp, queries)
    np.testing.assert_array_equal(mean_only, mean_full)


def test_nonzero_prior_mean_shifts_far_field():
    h = Hyperparams(0.5, 1.0, 0.01, prior_mean=2.0)
    gp = SparseGP.fit([[0.0, 0.0, 5.0]], h)
    far = posterior_mean(gp, [[40.0, 40.0]])
    assert far[0] == pytest.approx(2.0, abs=1e-10)


def test_inverse_residual_is_small():
    rng = np.random.default_rng(8)
    gp = SparseGP.fit(_random_inducing(rng, 40), HYPER)
    gram = kernel_matrix(gp.points, gp.points, HYPER) + HYPER.noise_variance * np.eye(40)
    assert np.linalg.norm(gp.inv_gram @ gram - np.eye(40)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_posterior_variance_never_exceeds_prior(seed, n):
    rng = np.random.default_rng(seed)
    gp = SparseGP.fit(_random_inducing(rng, n), HYPER)
    _, cov = posterior(gp, rng.uniform(-6, 6, size=(5, 2)))
    assert np.all(np.diag(cov) <= HYPER.signal_variance + 1e-9)
    assert np.all(np.diag(cov) >= -1e-9)


def test_smw_on_empty_set():
    out = smw_extend(np.zeros((0, 0)), np.zeros((0, 2)), [1.0, 2.0], HYPER)
    expected = 1.0 / (HYPER.signal_variance + HYPER.noise_variance)
    np.testing.assert_allclose(out, [[expected]])


def test_smw_chain_matches_direct_inverse():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(7, 2))
    inv = np.zeros((0, 0))
    for m in range(7):
        inv = smw_extend(inv, pts[:m], pts[m], HYPER)
    gram = kernel_matrix(pts, pts, HYPER) + HYPER.noise_variance * np.eye(7)
    np.testing.assert_allclose(inv @ gram, np.eye(7), atol=1e-9)


def test_smw_duplicate_point_without_noise_is_singular():
    h = Hyperparams(1.0, 1.0, 0.0)
    inv = smw_extend(np.zeros((0, 0)), np.zeros((0, 2)), [1.0, 1.0], h)
    with pytest.raises(SingularityError):
        smw_extend(inv, [[1.0, 1.0]], [1.0, 1.0], h)


def test_greedy_returns_small_pools_unchanged():
    rng = np.random.default_rng(2)
    cand = _random_inducing(rng, 4)
    out = greedy_select(cand, 10, HYPER)
    np.testing.assert_array_equal(out, cand)


def test_greedy_first_pick_is_lowest_index_then_farthest():
    # identical prior variance everywhere: index 0 wins the first pick;
    # the second pick maximizes residual variance, i.e. the farthest point
    cand = np.column_stack([np.arange(5.0), np.zeros(5), np.ones(5)])
    out = greedy_select(cand, 2, Hyperparams(2.0, 1.0, 0.1))
    assert out[0, 0] == 0.0
    assert out[1, 0] == 4.0


def test_greedy_matches_from_scratch_oracle():
    h = Hyperparams(1.2, 1.5, 0.05)
    for seed in (0, 1, 2, 3):
        rng = np.random.default_rng(seed)
        cand = _random_inducing(rng, 12, span=3.0)
        np.testing.assert_array_equal(greedy_select(cand, 5, h), greedy_oracle(cand, 5, h))


def test_greedy_skips_rank_deficient_duplicates():
    h = Hyperparams(1.0, 1.0, 0.0)
    cand = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [3.0, 0.0, 3.0], [5.0, 0.0, 4.0]])
    out = greedy_select(cand, 3, h)
    # the duplicate of the first pick is unusable under zero noise
    assert len(out) == 3
    np.testing.assert_array_equal(out[:, 2], [1.0, 4.0, 3.0])


def test_merge_dedups_by_location_first_occurrence_wins():
    own = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]])
    buffer = np.array([[0.0, 0.0, 99.0], [2.0, 0.0, 3.0]])
    neigh = [np.array([[1.0, 0.0, 98.0], [3.0, 0.0, 4.0]])]
    merged = merge_inducing(own, buffer, neigh)
    np.testing.assert_array_equal(merged[:, 2], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(merged[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_merge_of_empty_blocks_is_empty():
    empty = np.zeros((0, 3))
    assert merge_inducing(empty, empty, [empty, empty]).shape == (0, 3)


def test_merge_preserves_block_order():
    own = np.array([[0.0, 0.0, 1.0]])
    buffer = np.array([[1.0, 1.0, 2.0]])
    sets = [np.array([[2.0, 2.0, 3.0]]), np.array([[3.0, 3.0, 4.0]])]
    merged = merge_inducing(own, buffer, sets)
    np.testing.assert_array_equal(merged[:, 2], [1.0, 2.0, 3.0, 4.0])


def test_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    pts = rng.uniform(-3, 3, size=(7, 2))
    vals = np.sin(pts[:, 0]) + 0.1 * rng.normal(size=7)
    h = Hyperparams(1.1, 0.8, 0.05, prior_mean=0.1)
    _, grad = log_marginal_likelihood(pts, vals, h)
    eps = 1e-6
    theta = np.log([h.lengthscale, h.signal_variance, h.noise_variance])
    for axis in range(3):
        up, down = theta.copy(), theta.copy()
        up[axis] += eps
        down[axis] -= eps
        lml_up, _ = log_marginal_likelihood(
            pts, vals, Hyperparams(*np.exp(up), prior_mean=0.1))
        lml_down, _ = log_marginal_likelihood(
            pts, vals, Hyperparams(*np.exp(down), prior_mean=0.1))
        fd = (lml_up - lml_down) / (2 * eps)
        assert abs(grad[axis] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_refit_zero_steps_returns_input():
    rng = np.random.default_rng(1)
    gp = SparseGP.fit(_random_inducing(rng, 6), HYPER)
    assert refit_hyperparams(gp, 0) is HYPER


def test_refit_on_tiny_model_returns_input():
    gp = SparseGP.fit([[0.0, 0.0, 1.0]], HYPER)
    assert refit_hyperparams(gp, 25) is HYPER


def test_refit_improves_the_evidence():
    rng = np.random.default_rng(44)
    pts = rng.uniform(0, 10, size=(25, 2))
    true = Hyperparams(2.0, 1.0, 0.01)
    gram = kernel_matrix(pts, pts, true) + true.noise_variance * np.eye(25)
    vals = np.linalg.cholesky(gram) @ rng.normal(size=25)
    start = Hyperparams(0.5, 3.0, 0.2)
    gp = SparseGP.fit(np.column_stack([pts, vals]), start)
    better = refit_hyperparams(gp, 60, learning_rate=0.1)
    lml_before, _ = log_marginal_likelihood(pts, vals, start)
    lml_after, _ = log_marginal_likelihood(pts, vals, better)
    assert lml_after > lml_before
