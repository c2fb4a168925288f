"""Sparse Gaussian-process regression with incremental inverse updates.

Each agent keeps a GP conditioned on a small set of inducing observations
(a subset of everything it has seen or received), with the gram-matrix
inverse cached. Greedy inducing selection extends that inverse one point at
a time by a block-inverse identity, so the per-point cost of growing the set
is quadratic in its size instead of cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import adam_update
from .errors import SingularityError

# Schur complements below this are treated as rank-deficient extensions.
SCHUR_FLOOR = 1e-12

# escalating relative jitter, used only when a from-scratch factorization fails
_FALLBACK_JITTER = (1e-12, 1e-10, 1e-8)

# log-parameters are clipped here to keep exp() finite during refits
_LOG_BOUND = 40.0


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


def kernel_matrix(a, b, hyper: Hyperparams) -> np.ndarray:
    """Cross-covariance matrix between two point sets, shape ``(len(a), len(b))``.

    Squared distances are accumulated one coordinate axis at a time into a
    single ``(len(a), len(b))`` buffer, which the scaling, ``exp`` and
    signal variance then overwrite in place. This gives the same bits as
    summing a ``(len(a), len(b), dim)`` difference tensor over its last
    axis, without allocating it.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    for axis in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, axis], b[:, axis])
        diff *= diff
        d2 += diff
    d2 /= -2.0 * hyper.lengthscale ** 2
    np.exp(d2, out=d2)
    d2 *= hyper.signal_variance
    return d2


def _robust_inverse(gram: np.ndarray, signal_variance: float) -> np.ndarray:
    try:
        return np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(len(gram))
    for rel in _FALLBACK_JITTER:
        try:
            return np.linalg.inv(gram + rel * signal_variance * eye)
        except np.linalg.LinAlgError:
            continue
    raise SingularityError("gram matrix is not invertible even with diagonal jitter")


@dataclass(frozen=True, eq=False)
class SparseGP:
    """GP posterior conditioned on inducing rows, with the inverse gram cached.

    ``points`` is ``(m, 2)``, ``values`` is ``(m,)`` and ``inv_gram`` is the
    inverse of ``K(points, points) + noise_variance * I``. Instances are
    immutable; refits go through :meth:`fit` or :meth:`with_hyper`.
    """

    hyper: Hyperparams
    points: np.ndarray
    values: np.ndarray
    inv_gram: np.ndarray

    @classmethod
    def fit(cls, inducing, hyper: Hyperparams) -> "SparseGP":
        """Condition a fresh model on ``(m, 3)`` rows of ``[x, y, value]``."""
        arr = np.asarray(inducing, dtype=float).reshape(-1, 3)
        points = arr[:, :2].copy()
        values = arr[:, 2].copy()
        m = len(points)
        if m == 0:
            return cls(hyper, points, values, np.zeros((0, 0)))
        gram = kernel_matrix(points, points, hyper) + hyper.noise_variance * np.eye(m)
        return cls(hyper, points, values, _robust_inverse(gram, hyper.signal_variance))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def inducing(self) -> np.ndarray:
        """Current inducing rows as a fresh ``(m, 3)`` array of ``[x, y, value]``."""
        return np.column_stack([self.points, self.values])

    def with_hyper(self, hyper: Hyperparams) -> "SparseGP":
        """Recondition the same inducing rows under new hyperparameters."""
        return SparseGP.fit(self.inducing, hyper)


def posterior(gp: SparseGP, query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean ``(k,)`` and covariance ``(k, k)`` at the query points."""
    q = np.atleast_2d(np.asarray(query, dtype=float))
    prior_cov = kernel_matrix(q, q, gp.hyper)
    if len(gp.points) == 0:
        return np.full(len(q), gp.hyper.prior_mean), prior_cov
    kq = kernel_matrix(q, gp.points, gp.hyper)
    mean = gp.hyper.prior_mean + kq @ (gp.inv_gram @ (gp.values - gp.hyper.prior_mean))
    cov = prior_cov - kq @ gp.inv_gram @ kq.T
    return mean, cov


def posterior_mean(gp: SparseGP, query) -> np.ndarray:
    """Posterior mean only; avoids the O(k^2) covariance for large query sets."""
    q = np.atleast_2d(np.asarray(query, dtype=float))
    if len(gp.points) == 0:
        return np.full(len(q), gp.hyper.prior_mean)
    kq = kernel_matrix(q, gp.points, gp.hyper)
    return gp.hyper.prior_mean + kq @ (gp.inv_gram @ (gp.values - gp.hyper.prior_mean))


def smw_extend(inv_gram: np.ndarray, points, new_point, hyper: Hyperparams) -> np.ndarray:
    """Extend a cached inverse of ``K + noise I`` by one more point.

    Standard block-inverse identity: with ``B = inv_gram``, the new inverse is
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
    w = inv_gram @ k
    schur = diag - float(k @ w)
    if schur < SCHUR_FLOOR:
        raise SingularityError(
            f"rank-deficient extension: Schur complement {schur:.3e} below {SCHUR_FLOOR:.0e}"
        )
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = inv_gram + np.outer(w, w) / schur
    out[:m, m] = -w / schur
    out[m, :m] = -w / schur
    out[m, m] = 1.0 / schur
    return out


def greedy_select(candidates, capacity: int, hyper: Hyperparams) -> np.ndarray:
    """Pick up to ``capacity`` inducing rows by maximum residual posterior variance.

    Starting from an empty conditioning set, repeatedly add the candidate
    whose posterior variance under the points chosen so far is largest
    (ties to the lowest candidate index; the very first pick is therefore
    index 0). Candidates whose extension is rank-deficient are skipped.
    Returns the chosen ``(m, 3)`` rows in selection order; if the pool does
    not exceed capacity it is returned unchanged.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be at least 1, got {capacity}")
    cand = np.asarray(candidates, dtype=float).reshape(-1, 3)
    if len(cand) <= capacity:
        return cand.copy()
    pts = cand[:, :2]
    chosen: list[int] = []
    available = list(range(len(cand)))
    inv = np.zeros((0, 0))
    while len(chosen) < capacity and available:
        if chosen:
            kc = kernel_matrix(pts[available], pts[chosen], hyper)
            var = hyper.signal_variance - np.einsum("ij,jk,ik->i", kc, inv, kc)
        else:
            var = np.full(len(available), hyper.signal_variance)
        picked = -1
        # stable descending sort keeps ties in ascending candidate order
        for slot in np.argsort(-var, kind="stable"):
            idx = available[slot]
            try:
                inv = smw_extend(inv, pts[chosen], pts[idx], hyper)
            except SingularityError:
                continue
            picked = idx
            break
        if picked < 0:
            break
        chosen.append(picked)
        available.remove(picked)
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
    Raises ``numpy.linalg.LinAlgError`` when the gram matrix cannot be
    factorized.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    y = np.asarray(values, dtype=float).reshape(-1) - hyper.prior_mean
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    kf = hyper.signal_variance * np.exp(-d2 / (2.0 * hyper.lengthscale ** 2))
    gram = kf + hyper.noise_variance * np.eye(n)
    chol = np.linalg.cholesky(gram)
    alpha = np.linalg.solve(gram, y)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    lml = -0.5 * float(y @ alpha) - 0.5 * logdet - 0.5 * n * math.log(2.0 * math.pi)
    inv = np.linalg.inv(gram)
    w = np.outer(alpha, alpha) - inv
    dk_d_log_l = kf * d2 / hyper.lengthscale ** 2
    dk_d_log_sv = kf
    dk_d_log_nv = hyper.noise_variance * np.eye(n)
    grad = 0.5 * np.array([
        np.sum(w * dk_d_log_l),
        np.sum(w * dk_d_log_sv),
        np.sum(w * dk_d_log_nv),
    ])
    return lml, grad


def refit_hyperparams(gp: SparseGP, steps: int, learning_rate: float = 0.05) -> Hyperparams:
    """Gradient-ascend the log evidence over the current inducing rows.

    Optimizes ``(lengthscale, signal_variance, noise_variance)`` in log space
    with Adam; the prior mean is left untouched. With ``steps == 0`` or fewer
    than two inducing rows the input hyperparameters are returned unchanged,
    and any numerical failure mid-ascent abandons the refit the same way.
    """
    if steps == 0 or len(gp.points) < 2:
        return gp.hyper
    nv0 = max(gp.hyper.noise_variance, 1e-10 * gp.hyper.signal_variance)
    theta = np.log([gp.hyper.lengthscale, gp.hyper.signal_variance, nv0])
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, steps + 1):
        l, sv, nv = np.exp(theta)
        try:
            lml, grad = log_marginal_likelihood(
                gp.points, gp.values, Hyperparams(l, sv, nv, gp.hyper.prior_mean))
        except np.linalg.LinAlgError:
            return gp.hyper
        if not (math.isfinite(lml) and np.all(np.isfinite(grad))):
            return gp.hyper
        delta, m, v = adam_update(m, v, t, grad, learning_rate)
        theta = theta + delta
        theta = np.clip(theta, -_LOG_BOUND, _LOG_BOUND)
    l, sv, nv = np.exp(theta)
    if not all(map(math.isfinite, (l, sv, nv))):
        return gp.hyper
    return Hyperparams(l, sv, nv, gp.hyper.prior_mean)
