"""Output checks written apart from the library.

Each function recomputes a quantity the program reports, with code that does
not call into ``gpcover``, or tests a property the method must have. They
take plain arrays so they can be exercised on small hand-worked cases.
"""

from __future__ import annotations

import numpy as np


def nearest_centre(positions, width: int, height: int, cell_size: float = 1.0):
    """Owner index and squared distance to it for every pixel centre, ``(H, W)`` each.

    Keeps a running minimum over the agents; a later agent takes a pixel only
    when it is strictly closer, so ties go to the lowest index.
    """
    xs = (np.arange(width) + 0.5) * cell_size
    ys = (np.arange(height) + 0.5) * cell_size
    best = np.full((height, width), np.inf)
    owner = np.zeros((height, width), dtype=np.int64)
    for i, (px, py) in enumerate(np.asarray(positions, dtype=float)):
        d2 = (xs[None, :] - px) ** 2 + (ys[:, None] - py) ** 2
        closer = d2 < best
        best[closer] = d2[closer]
        owner[closer] = i
    return owner, best


def locational_cost(positions, density, cell_size: float = 1.0) -> float:
    """``0.5 * sum_q ||q - p_owner(q)||^2 phi(q)`` times the pixel area."""
    height, width = density.shape
    _, d2 = nearest_centre(positions, width, height, cell_size)
    return float(0.5 * np.sum(d2 * density) * cell_size * cell_size)


def neighbour_edges(owner) -> set[tuple[int, int]]:
    """Undirected pairs ``(i, j)``, ``i < j``, whose pixels share a 4-adjacent edge."""
    owner = np.asarray(owner)
    edges: set[tuple[int, int]] = set()
    for a, b in ((owner[:, :-1], owner[:, 1:]), (owner[:-1, :], owner[1:, :])):
        differ = a != b
        for i, j in zip(a[differ].tolist(), b[differ].tolist()):
            edges.add((min(i, j), max(i, j)))
    return edges


def expected_messages(n_edges: int, refresh: bool) -> int:
    """One hyperparameter message each way per edge, plus one inducing message on refresh."""
    return 2 * n_edges * (2 if refresh else 1)


def dense_gp_mean(points, values, lengthscale, signal_variance, noise_variance,
                  prior_mean, query) -> np.ndarray:
    """Exact GP posterior mean by ``np.linalg.solve`` on the full regularised gram."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    query = np.asarray(query, dtype=float).reshape(-1, 2)
    y = np.asarray(values, dtype=float) - prior_mean

    def se(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return signal_variance * np.exp(-0.5 * d2 / lengthscale ** 2)

    if len(points) == 0:
        return np.full(len(query), float(prior_mean))
    gram = se(points, points) + noise_variance * np.eye(len(points))
    return prior_mean + se(query, points) @ np.linalg.solve(gram, y)


def inside_workspace(positions, world_width: float, world_height: float) -> bool:
    """Every ``(..., 2)`` position lies in the closed workspace rectangle."""
    p = np.asarray(positions, dtype=float)
    return bool(np.all((p[..., 0] >= 0.0) & (p[..., 0] <= world_width)
                       & (p[..., 1] >= 0.0) & (p[..., 1] <= world_height)))


def longest_step(initial, positions) -> float:
    """Largest single-round displacement of any agent; ``positions`` is ``(R, n, 2)``."""
    path = np.concatenate([np.asarray(initial, dtype=float)[None], np.asarray(positions)])
    return float(np.max(np.linalg.norm(np.diff(path, axis=0), axis=-1)))


def exchange_bytes(messages, sender_rows) -> int:
    """Payload of a message log of ``(round, kind, src, dst)`` tuples, 8 B per float.

    A hyperparameter message carries 4 floats; an inducing message carries 3
    floats per inducing row the sender held, ``sender_rows(round, src)``.
    """
    floats = 0
    for rnd, kind, src, _dst in messages:
        if kind == "hyper":
            floats += 4
        elif kind == "inducing":
            floats += 3 * sender_rows(rnd, src)
        else:
            raise ValueError(f"unknown message kind {kind!r}")
    return 8 * floats
