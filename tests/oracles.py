"""Independent reference implementations used to pin expected test values.

Everything here is written the slow, obvious way (scalar loops, from-scratch
solves) so library results can be checked against a second, structurally
different computation.
"""

from __future__ import annotations

import math

import numpy as np

from gpcover import CellPixels


def brute_force_owner(positions, domain) -> np.ndarray:
    """Per-pixel nearest-agent assignment via plain Python loops; ties to lowest index."""
    return brute_force_nearest(positions, domain)[0]


def brute_force_nearest(positions, domain) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel nearest agent (ties to lowest index) and its squared distance.

    Squares are products, which IEEE rounds exactly; Python's ``float ** 2``
    goes through libm ``pow`` and can be 1 ulp off.
    """
    pos = [(float(p[0]), float(p[1])) for p in positions]
    owner = np.empty((domain.height, domain.width), dtype=int)
    dist2 = np.empty((domain.height, domain.width))
    s = domain.cell_size
    for iy in range(domain.height):
        cy = (iy + 0.5) * s
        for ix in range(domain.width):
            cx = (ix + 0.5) * s
            best, best_d2 = 0, math.inf
            for i, (px, py) in enumerate(pos):
                dx, dy = cx - px, cy - py
                d2 = dx * dx + dy * dy
                if d2 < best_d2:
                    best, best_d2 = i, d2
            owner[iy, ix] = best
            dist2[iy, ix] = best_d2
    return owner, dist2


def laplacian(neighbors) -> np.ndarray:
    """Integer graph Laplacian ``D - A`` of a neighbor relation, one agent's row at a time."""
    lap = np.zeros((len(neighbors), len(neighbors)), dtype=np.int64)
    for i, nbrs in enumerate(neighbors):
        lap[i, i], lap[i, list(nbrs)] = len(nbrs), -1
    return lap


def cell_from_index(index, domain) -> CellPixels:
    """The cell of the given flat row-major pixel indices, as a mask on their bounding box."""
    iy, ix = np.divmod(np.asarray(index), domain.width)
    x0, y0 = int(ix.min()), int(iy.min())
    mask = np.zeros((int(iy.max()) - y0 + 1, int(ix.max()) - x0 + 1), dtype=bool)
    mask[iy - y0, ix - x0] = True
    return CellPixels(mask, x0, y0, domain)


def cell_index(cell) -> np.ndarray:
    """A cell's sorted flat row-major pixel indices in its whole domain."""
    rows, columns = np.nonzero(cell.mask)
    return (rows + cell.y0) * cell.domain.width + columns + cell.x0


def se_kernel_matrix(a, b, lengthscale, signal_variance) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            d2 = float(((a[i] - b[j]) ** 2).sum())
            out[i, j] = signal_variance * math.exp(-d2 / (2.0 * lengthscale ** 2))
    return out


def dense_posterior(points, values, hyper, query):
    """Textbook GP posterior via ``solve`` against the full regularized gram."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.asarray(values, dtype=float)
    query = np.atleast_2d(np.asarray(query, dtype=float))
    l, sv, nv, pm = hyper.lengthscale, hyper.signal_variance, hyper.noise_variance, hyper.prior_mean
    gram = se_kernel_matrix(points, points, l, sv) + nv * np.eye(len(points))
    kq = se_kernel_matrix(query, points, l, sv)
    mean = pm + kq @ np.linalg.solve(gram, values - pm)
    cov = se_kernel_matrix(query, query, l, sv) - kq @ np.linalg.solve(gram, kq.T)
    return mean, cov


def greedy_oracle(candidates, capacity, hyper) -> np.ndarray:
    """Max-variance greedy selection recomputing every inverse from scratch.

    Ties go to the lowest candidate index; candidates whose extension would
    be rank-deficient (Schur complement below 1e-12) are skipped in favor of
    the next-best pick, mirroring the library contract.
    """
    cand = np.asarray(candidates, dtype=float).reshape(-1, 3)
    if len(cand) <= capacity:
        return cand.copy()
    pts = cand[:, :2]
    l, sv, nv = hyper.lengthscale, hyper.signal_variance, hyper.noise_variance
    chosen: list[int] = []
    while len(chosen) < capacity:
        avail = [i for i in range(len(cand)) if i not in chosen]
        if not avail:
            break
        variances = []
        for idx in avail:
            if chosen:
                gram = se_kernel_matrix(pts[chosen], pts[chosen], l, sv) \
                    + nv * np.eye(len(chosen))
                kq = se_kernel_matrix(pts[idx][None, :], pts[chosen], l, sv)
                var = sv - (kq @ np.linalg.solve(gram, kq.T)).item()
            else:
                var = sv
            variances.append(var)
        order = sorted(range(len(avail)), key=lambda s: (-variances[s], avail[s]))
        picked = -1
        for s in order:
            if variances[s] + nv >= 1e-12:
                picked = avail[s]
                break
        if picked < 0:
            break
        chosen.append(picked)
    return cand[chosen]


def adam_reference(gradients, eta, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam recurrence; returns the displacement at every step."""
    m = v = 0.0
    out = []
    for t, g in enumerate(gradients, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        out.append(-eta * m_hat / (math.sqrt(v_hat) + eps))
    return out


def central_fd(f, p, h=1e-4) -> np.ndarray:
    """Two-sided finite-difference gradient of a scalar function of a 2-vector."""
    p = np.asarray(p, dtype=float)
    grad = np.empty(2)
    for axis in range(2):
        dp = np.zeros(2)
        dp[axis] = h
        grad[axis] = (f(p + dp) - f(p - dp)) / (2.0 * h)
    return grad
