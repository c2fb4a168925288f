"""Sparse Gaussian-process regression over a greedily chosen inducing set.

Each agent keeps a GP conditioned on a small set of inducing observations
(a subset of everything it has seen or received). A fit factors the gram
matrix once, as in Rasmussen & Williams (2006), Algorithm 2.1: it keeps the
whitening factor ``W = L^-1`` of ``L = cholesky(K + noise I)`` and the mean
weights ``W^T W (y - m0)``, and every reader and the log evidence work from
that one factor. Greedy inducing selection keeps each candidate's residual
variance and updates it by one pivoted-Cholesky column per pick, so a pick
costs one kernel column instead of a kernel block against every chosen point.

Queries on a pixel grid go through :func:`lattice_posterior_mean`: the SE
kernel factors per axis there, so the mean over a lattice of pixel centres is a
product of per-axis factors (exact Kronecker structure, no interpolation),
taken in blocks small enough that BLAS runs each on one thread, and never as a
GEMV, so that the result does not depend on the thread count. The expected cost sums it per axis
on a cell's bounding box, and the rmse metric reads its strided lattice; both
agree with :func:`posterior_mean`, which serves any query points, to rounding.
The covariance is read only through :func:`lattice_posterior_covariance_product`,
its product with a grid on a lattice (the exploration term's), from the same
per-axis factors: ``sv * Ey g Ex`` for the prior part and the mean's product
for the inducing correction (Saatci 2012; Wilson & Nickisch 2015).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .control import adam_update
from .errors import SingularityError

# Schur complements below this are treated as rank-deficient extensions.
SCHUR_FLOOR = 1e-12

# relative diagonal jitter of the one retry when a gram matrix does not factorize
_JITTER = 1e-12

# log-parameters are clipped here to keep exp() finite during refits
_LOG_BOUND = 40.0

# OpenBLAS runs a GEMM of at most this many multiply-adds (m * n * k) on one
# thread (SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD at their defaults).
# A threaded GEMM splits the output differently with the thread count, and so
# rounds differently; blocks below this bound give the same bits for any count.
_SERIAL_GEMM_MACS = 65536 * 4


@dataclass(frozen=True)
class Hyperparams:
    """Squared-exponential GP hyperparameters plus a constant prior mean."""

    lengthscale: float
    signal_variance: float
    noise_variance: float
    prior_mean: float = 0.0

    def __post_init__(self):
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not self.signal_variance > 0:
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance must be non-negative, got {self.noise_variance}")


def _squared_distances(a, b) -> np.ndarray:
    """Pairwise squared distances between two point sets, ``(len(a), len(b))``.

    Accumulated one coordinate axis at a time into a single buffer. This
    gives the same bits as summing a ``(len(a), len(b), dim)`` difference
    tensor over its last axis, without allocating it.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    for axis in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, axis], b[:, axis])
        diff *= diff
        d2 += diff
    return d2


def _se_kernel(d2: np.ndarray, hyper: Hyperparams) -> np.ndarray:
    """The SE kernel of a table of squared distances, computed in place."""
    d2 /= -2.0 * hyper.lengthscale ** 2
    np.exp(d2, out=d2)
    d2 *= hyper.signal_variance
    return d2


def kernel_matrix(a, b, hyper: Hyperparams) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shape ``(len(a), len(b))``."""
    return _se_kernel(_squared_distances(a, b), hyper)


def _whiten(gram: np.ndarray) -> np.ndarray:
    """``W = L^-1`` for ``L = cholesky(gram)``, so that ``inv(gram) = W.T @ W``.

    Raises ``numpy.linalg.LinAlgError`` when ``gram`` is not positive definite.
    """
    return np.linalg.inv(np.linalg.cholesky(gram))


@dataclass(frozen=True, eq=False)
class SparseGP:
    """GP posterior conditioned on inducing rows, with one factor of the gram cached.

    ``points`` is ``(m, 2)`` and ``values`` is ``(m,)``. ``whiten`` is
    ``W = L^-1``, the inverse of the lower Cholesky factor ``L`` of
    ``K(points, points) + noise_variance * I``, and ``weights`` is
    ``W.T @ W @ (values - prior_mean)``. The posterior mean is then
    ``prior_mean + K(q, points) @ weights`` and the covariance is
    ``K(q, q) - V @ V.T`` with ``V = K(q, points) @ W.T``.
    Instances are immutable; refits go through :meth:`fit` or :meth:`with_hyper`.
    """

    hyper: Hyperparams
    points: np.ndarray
    values: np.ndarray
    whiten: np.ndarray
    weights: np.ndarray

    @classmethod
    def fit(cls, inducing, hyper: Hyperparams) -> "SparseGP":
        """Condition a fresh model on ``(m, 3)`` rows of ``[x, y, value]``.

        A gram matrix that does not factorize is retried once with
        ``1e-12 * signal_variance`` added to its diagonal; if that fails too,
        ``SingularityError`` is raised.
        """
        arr = np.asarray(inducing, dtype=float).reshape(-1, 3)
        points = arr[:, :2].copy()
        values = arr[:, 2].copy()
        m = len(points)
        if m == 0:
            return cls(hyper, points, values, np.zeros((0, 0)), np.zeros(0))
        gram = kernel_matrix(points, points, hyper) + hyper.noise_variance * np.eye(m)
        try:
            whiten = _whiten(gram)
        except np.linalg.LinAlgError:
            try:
                whiten = _whiten(gram + _JITTER * hyper.signal_variance * np.eye(m))
            except np.linalg.LinAlgError:
                raise SingularityError("gram matrix does not factorize even with "
                                       "diagonal jitter") from None
        weights = whiten.T @ (whiten @ (values - hyper.prior_mean))
        return cls(hyper, points, values, whiten, weights)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def inducing(self) -> np.ndarray:
        """Current inducing rows as a fresh ``(m, 3)`` array of ``[x, y, value]``."""
        return np.column_stack([self.points, self.values])

    def with_hyper(self, hyper: Hyperparams) -> "SparseGP":
        """Recondition the same inducing rows under new hyperparameters.

        A fit depends only on its rows and its hyperparameters, so under
        hyperparameters equal to its own the model is returned as it is.
        """
        if hyper == self.hyper:
            return self
        return SparseGP.fit(self.inducing, hyper)


def posterior_mean(gp: SparseGP, query) -> np.ndarray:
    """Posterior mean ``(k,)`` at the ``(k, 2)`` query points."""
    q = np.atleast_2d(np.asarray(query, dtype=float))
    if len(gp.points) == 0:
        return np.full(len(q), gp.hyper.prior_mean)
    kq = kernel_matrix(q, gp.points, gp.hyper)
    return gp.hyper.prior_mean + kq @ gp.weights


def _axis_factor(a: np.ndarray, b: np.ndarray, lengthscale: float) -> np.ndarray:
    """One axis's factor of the SE kernel, ``exp(-(a - b)^2 / 2l^2)``, ``(len(a), len(b))``.
    Swapping ``a`` and ``b`` gives the transpose bit for bit."""
    out = _squared_distances(a[:, None], b[:, None])
    out /= -2.0 * lengthscale ** 2
    return np.exp(out, out=out)


def _serial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with bits that do not depend on the BLAS thread count.

    It is taken in blocks of at most ``_SERIAL_GEMM_MACS`` multiply-adds, each
    at least two rows by two columns wherever the product has them: numpy
    hands a product with one row or one column to GEMV, which OpenBLAS
    threads from about 9,000 entries. A block of one row or one column goes
    through ``np.einsum``, which calls no BLAS.
    """
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n))
    cols = min(n, max(2, _SERIAL_GEMM_MACS // (2 * k)))
    rows = max(2, _SERIAL_GEMM_MACS // (k * cols))
    for c in range(0, n, cols):
        for r in range(0, m, rows):
            block = out[r:r + rows, c:c + cols]
            if min(block.shape) > 1:
                np.matmul(a[r:r + rows], b[:, c:c + cols], out=block)
            else:
                np.einsum("ij,jk->ik", a[r:r + rows], b[:, c:c + cols], out=block)
    return out


def lattice_posterior_mean(gp: SparseGP, xs, ys) -> np.ndarray:
    """Posterior mean on the lattice ``xs x ys``, flattened row-major ``(len(ys) * len(xs),)``.

    Point ``j * len(xs) + i`` is ``(xs[i], ys[j])``, the order of
    ``np.meshgrid(xs, ys)`` raveled. The SE kernel factors per axis,
    ``K(q, z) = sv * ex[i] * ey[j]``, so the mean is ``prior_mean +
    (ey * sv * weights) @ ex.T``, one :func:`_serial_product` against ``ex.T``
    built C-contiguous (faster than a transposed view). Agrees with
    :func:`posterior_mean` to rounding.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    hyper = gp.hyper
    if len(gp.points) == 0 or len(xs) == 0 or len(ys) == 0:
        return np.full(len(xs) * len(ys), hyper.prior_mean)
    ext = _axis_factor(gp.points[:, 0], xs, hyper.lengthscale)
    ey = _axis_factor(ys, gp.points[:, 1], hyper.lengthscale)
    ey *= hyper.signal_variance * gp.weights
    mean = _serial_product(ey, ext)
    mean += hyper.prior_mean
    return mean.ravel()


def lattice_posterior_covariance_product(gp: SparseGP, xs, ys, g) -> np.ndarray:
    """Posterior covariance on the non-empty lattice ``xs x ys`` times the grid ``g``.

    ``g`` is ``(len(ys), len(xs))``, one value per lattice point in the order
    of :func:`lattice_posterior_mean`, and so is the result, ``Kqq g - Kqz
    W^T W Kzq g``. On the lattice ``Kqq g = sv * Ey g Ex`` with ``Ex`` and
    ``Ey`` the per-axis factors of the lattice against itself, ``Kzq g = sv *
    sum_ij ey[j] g[j, i] ex[i]``, and ``Kqz u`` is the product that
    :func:`lattice_posterior_mean` takes with ``u`` in place of the mean
    weights. No ``(k, k)`` table is built. Every product is a
    :func:`_serial_product` or an ``np.einsum``, so the bits do not depend
    on the BLAS thread count.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    g = np.asarray(g, dtype=float).reshape(len(ys), len(xs))
    hyper = gp.hyper
    out = _serial_product(_serial_product(_axis_factor(ys, ys, hyper.lengthscale), g),
                          _axis_factor(xs, xs, hyper.lengthscale))
    out *= hyper.signal_variance
    if len(gp.points) > 0:
        ext = _axis_factor(gp.points[:, 0], xs, hyper.lengthscale)
        ey = _axis_factor(ys, gp.points[:, 1], hyper.lengthscale)
        kzg = np.einsum("jm,jm->m", ey, _serial_product(g, ext.T))
        kzg *= hyper.signal_variance
        u = np.einsum("ji,j->i", gp.whiten, np.einsum("ij,j->i", gp.whiten, kzg))
        ey *= hyper.signal_variance * u
        out -= _serial_product(ey, ext)
    return out


def smw_extend(inverse: np.ndarray, points, new_point, hyper: Hyperparams) -> np.ndarray:
    """Extend a cached inverse of ``K + noise I`` by one more point.

    Standard block-inverse identity: with ``B = inverse``, the new inverse is
    assembled from ``w = B k`` and the Schur complement
    ``s = k(x,x) + noise - k . w``. Raises ``SingularityError`` when ``s``
    falls below ``SCHUR_FLOOR``, which happens when the new point is (nearly)
    a duplicate of an existing one under zero noise.
    """
    new_point = np.asarray(new_point, dtype=float).reshape(2)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    m = len(points)
    diag = hyper.signal_variance + hyper.noise_variance
    if m == 0:
        if diag < SCHUR_FLOOR:
            raise SingularityError("degenerate kernel: zero variance on the diagonal")
        return np.array([[1.0 / diag]])
    k = kernel_matrix(new_point[None, :], points, hyper)[0]
    w = inverse @ k
    schur = diag - float(k @ w)
    if schur < SCHUR_FLOOR:
        raise SingularityError(
            f"rank-deficient extension: Schur complement {schur:.3e} below {SCHUR_FLOOR:.0e}"
        )
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = inverse + np.outer(w, w) / schur
    out[:m, m] = -w / schur
    out[m, :m] = -w / schur
    out[m, m] = 1.0 / schur
    return out


def greedy_select(candidates, capacity: int, hyper: Hyperparams) -> np.ndarray:
    """Pick up to ``capacity`` inducing rows by maximum residual posterior variance.

    Starting from an empty conditioning set, repeatedly add the candidate
    whose posterior variance under the points chosen so far is largest
    (ties to the lowest candidate index; the very first pick is therefore
    index 0). This is forward selection by pivoted Cholesky: each candidate
    keeps its row of the factor of the chosen gram and its residual
    variance, so a pick costs one kernel column. Every candidate's Schur
    complement is its residual variance plus the noise variance, so once the
    best one falls below ``SCHUR_FLOOR`` selection stops. Returns the chosen
    ``(m, 3)`` rows in selection order; if the pool does not exceed capacity
    it is returned unchanged.
    """
    capacity = operator.index(capacity)
    if capacity < 1:
        raise ValueError(f"capacity must be at least 1, got {capacity}")
    cand = np.asarray(candidates, dtype=float).reshape(-1, 3)
    if len(cand) <= capacity:
        return cand.copy()
    # the pick's kernel column takes kernel_matrix's steps, in its order, on
    # per-axis copies of the coordinates and in two reused buffers
    px, py = cand[:, 0].copy(), cand[:, 1].copy()
    scale = -2.0 * hyper.lengthscale ** 2
    col, dy = np.empty(len(cand)), np.empty(len(cand))
    rows = np.zeros((len(cand), capacity))
    var = np.full(len(cand), hyper.signal_variance)
    chosen: list[int] = []
    for j in range(capacity):
        idx = int(np.argmax(var))  # the first maximum: ties go to the lowest index
        schur = var[idx] + hyper.noise_variance
        if schur < SCHUR_FLOOR:
            break
        np.subtract(px, px[idx], out=col)
        col *= col
        np.subtract(py, py[idx], out=dy)
        dy *= dy
        col += dy
        col /= scale
        np.exp(col, out=col)
        col *= hyper.signal_variance
        col -= rows[:, :j] @ rows[idx, :j]
        col /= math.sqrt(schur)
        rows[:, j] = col
        var -= col * col
        var[idx] = -np.inf
        chosen.append(idx)
    return cand[chosen]


def merge_inducing(own, buffer, neighbor_sets=()) -> np.ndarray:
    """Union of inducing rows with exact duplicate locations dropped.

    Concatenation order is own rows, then the local sample buffer, then each
    neighbor block in the order given; the first occurrence of an ``(x, y)``
    location wins. Returns a ``(k, 3)`` array (possibly empty).
    """
    seen: set[tuple[float, float]] = set()
    rows: list[np.ndarray] = []
    for block in (own, buffer, *neighbor_sets):
        arr = np.asarray(block, dtype=float).reshape(-1, 3)
        for row in arr:
            key = (row[0], row[1])
            if key not in seen:
                seen.add(key)
                rows.append(row)
    if not rows:
        return np.zeros((0, 3))
    return np.array(rows)


def log_marginal_likelihood(points, values, hyper: Hyperparams):
    """Exact-GP log evidence and its gradient in log-hyperparameter space.

    Returns ``(lml, grad)`` where ``grad`` is with respect to
    ``log lengthscale``, ``log signal_variance`` and ``log noise_variance``.
    Works from the same factor as :meth:`SparseGP.fit`, without its jitter
    retry: ``alpha = W.T @ W @ y``, ``log det = -2 sum log diag W`` and
    ``inv(gram) = W.T @ W``. Raises ``numpy.linalg.LinAlgError`` when the gram
    matrix cannot be factorized, so a refit abandons a non-PD step.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    y = np.asarray(values, dtype=float).reshape(-1) - hyper.prior_mean
    n = len(pts)
    d2 = _squared_distances(pts, pts)
    kf = _se_kernel(d2.copy(), hyper)
    whiten = _whiten(kf + hyper.noise_variance * np.eye(n))
    alpha = whiten.T @ (whiten @ y)
    logdet = -2.0 * float(np.sum(np.log(np.diag(whiten))))
    lml = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - whiten.T @ whiten
    dk_d_log_l = kf * d2 / hyper.lengthscale ** 2
    dk_d_log_sv = kf
    dk_d_log_nv = hyper.noise_variance * np.eye(n)
    grad = 0.5 * np.array([
        np.sum(w * dk_d_log_l),
        np.sum(w * dk_d_log_sv),
        np.sum(w * dk_d_log_nv),
    ])
    return lml, grad


def refit_hyperparams(inducing, hyper: Hyperparams, steps: int,
                      learning_rate: float = 0.05) -> Hyperparams:
    """Gradient-ascend the log evidence over ``(m, 3)`` inducing rows from ``hyper``.

    Optimizes ``(lengthscale, signal_variance, noise_variance)`` in log space
    with Adam; the prior mean is left untouched. With ``steps == 0`` or fewer
    than two inducing rows the input hyperparameters are returned unchanged,
    and any numerical failure mid-ascent abandons the refit the same way.
    """
    arr = np.asarray(inducing, dtype=float).reshape(-1, 3)
    if steps == 0 or len(arr) < 2:
        return hyper
    points, values = arr[:, :2], arr[:, 2]
    nv0 = max(hyper.noise_variance, 1e-10 * hyper.signal_variance)
    theta = np.log([hyper.lengthscale, hyper.signal_variance, nv0])
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, steps + 1):
        l, sv, nv = np.exp(theta)
        try:
            lml, grad = log_marginal_likelihood(
                points, values, Hyperparams(l, sv, nv, hyper.prior_mean))
        except np.linalg.LinAlgError:
            return hyper
        if not (math.isfinite(lml) and np.all(np.isfinite(grad))):
            return hyper
        delta, m, v = adam_update(m, v, t, grad, learning_rate)
        theta = theta + delta
        theta = np.clip(theta, -_LOG_BOUND, _LOG_BOUND)
    l, sv, nv = np.exp(theta)
    if not all(map(math.isfinite, (l, sv, nv))):
        return hyper
    return Hyperparams(l, sv, nv, hyper.prior_mean)
