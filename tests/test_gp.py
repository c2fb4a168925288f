"""Sparse GP regression: kernel, posterior, incremental updates, selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpcover import (Domain, Hyperparams, SingularityError, SparseGP, greedy_select,
                     kernel_matrix, log_marginal_likelihood, merge_inducing,
                     posterior_mean, refit_hyperparams, smw_extend)
from gpcover.gp import (_SERIAL_GEMM_MACS, _serial_product, lattice_posterior_covariance_product,
                        lattice_posterior_mean)

from oracles import dense_posterior, greedy_oracle, se_kernel_matrix

HYPER = Hyperparams(lengthscale=1.5, signal_variance=2.0, noise_variance=0.1)


def _random_inducing(rng, n, span=5.0):
    pts = rng.uniform(-span, span, size=(n, 2))
    vals = rng.normal(size=n)
    return np.column_stack([pts, vals])


def _lattice(xs, ys):
    """The ``(len(ys) * len(xs), 2)`` points of the lattice ``xs x ys``, row-major."""
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _covariance(gp, xs, ys):
    """The dense posterior covariance on the lattice ``xs x ys``: column j is the
    lattice covariance product of the j-th unit grid."""
    shape = (len(ys), len(xs))
    return np.column_stack([lattice_posterior_covariance_product(gp, xs, ys, unit.reshape(shape))
                            .ravel() for unit in np.eye(shape[0] * shape[1])])


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
    query = [[0.0, 0.0], [1.0, 1.0]]
    np.testing.assert_allclose(posterior_mean(gp, query), [0.7, 0.7])
    cov = _covariance(gp, [0.0, 1.0], [0.0, 1.0])
    lattice = _lattice([0.0, 1.0], [0.0, 1.0])
    np.testing.assert_allclose(cov, kernel_matrix(lattice, lattice, h), rtol=1e-15, atol=0)
    assert np.all(np.diag(cov) == 3.0)


def test_noiseless_model_interpolates_its_data():
    h = Hyperparams(1.0, 2.0, 0.0)
    gp = SparseGP.fit([[0.0, 0.0, 1.5]], h)
    assert posterior_mean(gp, [[0.0, 0.0]])[0] == pytest.approx(1.5, abs=1e-12)
    assert abs(_covariance(gp, [0.0], [0.0])[0, 0]) < 1e-12


def test_posterior_matches_dense_oracle():
    rng = np.random.default_rng(11)
    inducing = _random_inducing(rng, 5)
    xs, ys = rng.uniform(-5, 5, size=3), rng.uniform(-5, 5, size=3)
    queries = _lattice(xs, ys)
    gp = SparseGP.fit(inducing, HYPER)
    ref_mean, ref_cov = dense_posterior(inducing[:, :2], inducing[:, 2], HYPER, queries)
    np.testing.assert_allclose(posterior_mean(gp, queries), ref_mean, atol=1e-10)
    np.testing.assert_allclose(_covariance(gp, xs, ys), ref_cov, atol=1e-10)


def test_covariance_product_is_the_dense_covariance_times_the_vector():
    # one point, one row, one column, an irregular lattice, and 14 x 11, whose
    # products span several GEMM blocks at 230 inducing rows
    rng = np.random.default_rng(3)
    for nx, ny in ((1, 1), (9, 1), (1, 7), (13, 5), (14, 11)):
        xs, ys = np.sort(rng.uniform(-5, 5, size=nx)), rng.uniform(-5, 5, size=ny)
        queries = _lattice(xs, ys)
        for n in (0, 8, 230):
            inducing = _random_inducing(rng, n, span=8.0)
            gp = SparseGP.fit(inducing, HYPER)
            if n:
                _, ref_cov = dense_posterior(inducing[:, :2], inducing[:, 2], HYPER, queries)
            else:
                ref_cov = kernel_matrix(queries, queries, HYPER)
            g = rng.normal(size=(ny, nx))
            product = lattice_posterior_covariance_product(gp, xs, ys, g)
            assert product.shape == (ny, nx)
            np.testing.assert_allclose(product.ravel(), ref_cov @ g.ravel(), rtol=0, atol=1e-9)


def test_serial_product_is_the_product_in_blocks():
    # column blocks (a long inner axis), a last block of one row or one column,
    # one-row and one-column products, and an inner axis of one
    rng = np.random.default_rng(29)
    for m, k, n in ((300, 900, 500), (145, 300, 437), (1, 600, 700), (700, 600, 1),
                    (5, 1, 6), (2, 2, 2), (301, 60, 961)):
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        np.testing.assert_allclose(_serial_product(a, b), a @ b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(_serial_product(a, b.T.copy().T), a @ b,
                                   rtol=1e-12, atol=1e-12)


def test_lattice_posterior_mean_is_bit_identical_to_the_dense_mean():
    """The lattice mean is the per-axis product: the dense mean's bits on the
    empty model, and the dense mean to rounding once there is data."""
    rng = np.random.default_rng(13)
    # (domain, stride): 1x1, one row, one column, a stride longer than the grid,
    # half-unit pixels, a domain taller than wide, and a plain strided grid
    cases = ((Domain(1, 1), 1), (Domain(17, 1), 2), (Domain(1, 13), 3), (Domain(9, 6), 20),
             (Domain(16, 12, cell_size=0.5), 3), (Domain(7, 31), 2), (Domain(48, 27), 8))
    for domain, stride in cases:
        xs, ys = domain.axis_centers()
        xs, ys = xs[::stride], ys[::stride]
        gx, gy = np.meshgrid(xs, ys)
        query = np.column_stack([gx.ravel(), gy.ravel()])
        span = [domain.world_width, domain.world_height]
        for n in (0, 1, 9, 40):
            rows = np.column_stack([rng.uniform([0, 0], span, size=(n, 2)),
                                    rng.uniform(-1.0, 3.0, size=n)])
            hyper = Hyperparams(rng.uniform(0.5, 8.0) * domain.cell_size, rng.uniform(0.1, 5.0),
                                rng.uniform(1e-4, 0.2), prior_mean=rng.uniform(-1.0, 1.0))
            gp = SparseGP.fit(rows, hyper)
            lattice = lattice_posterior_mean(gp, xs, ys)
            dense = posterior_mean(gp, query)
            assert lattice.shape == dense.shape == (len(query),)
            if n == 0:
                np.testing.assert_array_equal(lattice, dense)
            scale = max(float(np.max(np.abs(rows[:, 2] - hyper.prior_mean), initial=0.0)),
                        abs(hyper.prior_mean))
            assert np.max(np.abs(lattice - dense)) <= 1e-12 * scale
    # a paper-sized cell box under 60 rows takes 37 row blocks of 9 rows, the
    # last partial; a sample of its pixels, each block's first and last row among
    # them, against the dense mean
    domain = Domain(454, 327)
    xs, ys = domain.axis_centers()
    rows = np.column_stack([rng.uniform([0, 0], [454, 327], size=(60, 2)),
                            rng.uniform(-1.0, 3.0, size=60)])
    hyper = Hyperparams(40.0, 2.0, 1e-3, prior_mean=0.3)
    gp = SparseGP.fit(rows, hyper)
    assert 9 * len(xs) * len(gp) <= _SERIAL_GEMM_MACS < 10 * len(xs) * len(gp)
    lattice = lattice_posterior_mean(gp, xs, ys).reshape(len(ys), len(xs))
    iy = np.concatenate([np.arange(0, 327, 9), np.arange(8, 327, 9), [326],
                         rng.integers(0, 327, size=200)])
    ix = rng.integers(0, 454, size=len(iy))
    dense = posterior_mean(gp, np.column_stack([xs[ix], ys[iy]]))
    scale = max(float(np.max(np.abs(rows[:, 2] - hyper.prior_mean))), abs(hyper.prior_mean))
    assert np.max(np.abs(lattice[iy, ix] - dense)) <= 1e-12 * scale


def test_with_hyper_skips_only_the_refits_that_cannot_change_the_model():
    rng = np.random.default_rng(14)
    rows = _random_inducing(rng, 12)
    for gp in (SparseGP.fit(rows, HYPER), SparseGP.fit(np.zeros((0, 3)), HYPER)):
        # equal hyperparameters, even in a distinct object, give back the same model
        assert gp.with_hyper(Hyperparams(**vars(HYPER))) is gp
        for changed in (Hyperparams(1.6, 2.0, 0.1), Hyperparams(1.5, 2.0, 0.1, prior_mean=0.3)):
            fresh = gp.with_hyper(changed)
            ref = SparseGP.fit(gp.inducing, changed)
            assert fresh is not gp and fresh.hyper == changed
            for name in ("points", "values", "whiten", "weights"):
                np.testing.assert_array_equal(getattr(fresh, name), getattr(ref, name))


def test_nonzero_prior_mean_shifts_far_field():
    h = Hyperparams(0.5, 1.0, 0.01, prior_mean=2.0)
    gp = SparseGP.fit([[0.0, 0.0, 5.0]], h)
    far = posterior_mean(gp, [[40.0, 40.0]])
    assert far[0] == pytest.approx(2.0, abs=1e-10)


def test_inverse_residual_is_small():
    rng = np.random.default_rng(8)
    gp = SparseGP.fit(_random_inducing(rng, 40), HYPER)
    gram = kernel_matrix(gp.points, gp.points, HYPER) + HYPER.noise_variance * np.eye(40)
    assert np.linalg.norm(gp.whiten @ gram @ gp.whiten.T - np.eye(40)) < 1e-8
    np.testing.assert_allclose(gram @ gp.weights, gp.values - HYPER.prior_mean,
                               rtol=0, atol=1e-10)


def test_singular_gram_falls_back_to_the_first_jitter(monkeypatch):
    # a duplicated noiseless row makes the gram exactly singular
    gram = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    gp = SparseGP.fit([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], Hyperparams(1.0, 1.0, 0.0))
    np.testing.assert_array_equal(
        gp.whiten, np.linalg.inv(np.linalg.cholesky(gram + 1e-12 * np.eye(2))))
    assert posterior_mean(gp, [[0.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-3)

    # one retry only: a gram that still does not factorize is an error
    def not_positive_definite(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(SingularityError):
        SparseGP.fit([[0.0, 0.0, 1.0]], HYPER)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_posterior_variance_never_exceeds_prior(seed, n):
    rng = np.random.default_rng(seed)
    gp = SparseGP.fit(_random_inducing(rng, n), HYPER)
    cov = _covariance(gp, rng.uniform(-6, 6, size=3), rng.uniform(-6, 6, size=2))
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


def _greedy_on_kernel_matrix(candidates, capacity, hyper):
    """Forward selection with each pick's column from ``kernel_matrix``, as written before."""
    cand = np.asarray(candidates, dtype=float).reshape(-1, 3)
    if len(cand) <= capacity:
        return cand.copy()
    pts = cand[:, :2]
    rows = np.zeros((len(cand), capacity))
    var = np.full(len(cand), hyper.signal_variance)
    chosen = []
    for j in range(capacity):
        idx = int(np.argmax(var))
        schur = var[idx] + hyper.noise_variance
        if schur < 1e-12:
            break
        col = kernel_matrix(pts, pts[idx:idx + 1], hyper)[:, 0]
        col -= rows[:, :j] @ rows[idx, :j]
        col /= math.sqrt(schur)
        rows[:, j] = col
        var -= col * col
        var[idx] = -np.inf
        chosen.append(idx)
    return cand[chosen]


def test_greedy_picks_equal_the_kernel_matrix_columns_bit_for_bit():
    # pools up to the sizes that refreshes meet, grid-aligned ones with exact ties included
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 200))
        cand = _random_inducing(rng, n, span=float(rng.uniform(1.0, 200.0)))
        if trial % 4 == 0:
            cand[:, :2] = np.round(cand[:, :2])
        h = Hyperparams(lengthscale=float(rng.uniform(0.5, 30.0)),
                        signal_variance=float(10.0 ** rng.uniform(-4, 2)),
                        noise_variance=float(10.0 ** rng.uniform(-6, -1)))
        capacity = int(rng.integers(1, 70))
        assert (greedy_select(cand, capacity, h).tobytes()
                == _greedy_on_kernel_matrix(cand, capacity, h).tobytes()), trial


def test_greedy_pick_order_contract():
    # continuous pools with noise of at least 1e-4 * signal_variance; zero
    # noise, exact duplicates and symmetric grids are left out, since there
    # rounding-level ties make any two summation orders disagree
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 21))
        capacity = int(rng.integers(1, n))
        sv = float(10.0 ** rng.uniform(-4, 1))
        h = Hyperparams(lengthscale=float(rng.uniform(0.5, 6.0)), signal_variance=sv,
                        noise_variance=sv * float(10.0 ** rng.uniform(-4, 0)))
        cand = _random_inducing(rng, n, span=float(rng.uniform(1.0, 10.0)))
        np.testing.assert_array_equal(greedy_select(cand, capacity, h),
                                      greedy_oracle(cand, capacity, h), err_msg=f"seed {seed}")
    # one location repeated under zero noise: everything after the first pick
    # is rank-deficient, so selection stops after one row
    same = np.column_stack([np.full((6, 2), 2.5), np.arange(6.0)])
    np.testing.assert_array_equal(greedy_select(same, 4, Hyperparams(1.0, 1.0, 0.0)), same[:1])
    cand = _random_inducing(np.random.default_rng(7), 9)
    np.testing.assert_array_equal(greedy_select(cand, 1, HYPER), cand[:1])
    with pytest.raises(TypeError):
        greedy_select(cand, 2.0, HYPER)


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


def _two_table_log_marginal_likelihood(points, values, hyper):
    """The log evidence written with two distance tables: one kept for the
    lengthscale gradient and a second inside ``kernel_matrix``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    y = np.asarray(values, dtype=float).reshape(-1) - hyper.prior_mean
    n = len(pts)
    dx = np.subtract.outer(pts[:, 0], pts[:, 0])
    dy = np.subtract.outer(pts[:, 1], pts[:, 1])
    d2 = dx * dx + dy * dy
    kf = kernel_matrix(pts, pts, hyper)
    whiten = np.linalg.inv(np.linalg.cholesky(kf + hyper.noise_variance * np.eye(n)))
    alpha = whiten.T @ (whiten @ y)
    logdet = -2.0 * float(np.sum(np.log(np.diag(whiten))))
    lml = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - whiten.T @ whiten
    grad = 0.5 * np.array([np.sum(w * (kf * d2 / hyper.lengthscale ** 2)), np.sum(w * kf),
                           np.sum(w * (hyper.noise_variance * np.eye(n)))])
    return lml, grad


def test_log_marginal_likelihood_equals_its_two_table_form_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 9, 60):
        rows = _random_inducing(rng, n, span=30.0)
        hyper = Hyperparams(rng.uniform(0.5, 20.0), rng.uniform(0.1, 5.0),
                            rng.uniform(1e-4, 0.2), prior_mean=rng.uniform(-1.0, 1.0))
        lml, grad = log_marginal_likelihood(rows[:, :2], rows[:, 2], hyper)
        ref_lml, ref_grad = _two_table_log_marginal_likelihood(rows[:, :2], rows[:, 2], hyper)
        assert lml == ref_lml
        assert grad.tobytes() == ref_grad.tobytes()


def test_refit_zero_steps_returns_input():
    rng = np.random.default_rng(1)
    assert refit_hyperparams(_random_inducing(rng, 6), HYPER, 0) is HYPER


def test_refit_on_tiny_model_returns_input():
    assert refit_hyperparams([[0.0, 0.0, 1.0]], HYPER, 25) is HYPER


def test_refit_improves_the_evidence():
    rng = np.random.default_rng(44)
    pts = rng.uniform(0, 10, size=(25, 2))
    true = Hyperparams(2.0, 1.0, 0.01)
    gram = kernel_matrix(pts, pts, true) + true.noise_variance * np.eye(25)
    vals = np.linalg.cholesky(gram) @ rng.normal(size=25)
    start = Hyperparams(0.5, 3.0, 0.2)
    better = refit_hyperparams(np.column_stack([pts, vals]), start, 60, learning_rate=0.1)
    lml_before, _ = log_marginal_likelihood(pts, vals, start)
    lml_after, _ = log_marginal_likelihood(pts, vals, better)
    assert lml_after > lml_before
