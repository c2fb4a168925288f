"""Laplacian averaging of GP hyperparameters over the neighbor graph.

One consensus step moves every agent's parameter vector toward its graph
neighbors: ``theta_i <- theta_i - alpha * sum_j L_ij theta_j``. Positive
channels (lengthscale, signal variance, noise variance) average in log space
so they stay positive and converge to the geometric mean; the prior mean
averages linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gp import Hyperparams

# in Hyperparams field order, ahead of prior_mean
_POSITIVE_CHANNELS = ("lengthscale", "signal_variance", "noise_variance")


@dataclass(frozen=True)
class ConsensusConfig:
    """Step size and averaging-space choice for hyperparameter consensus."""

    alpha: float = 0.2
    log_space: bool = True

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def consensus_step(params, laplacian, config: ConsensusConfig) -> list[Hyperparams]:
    """One synchronous averaging step over all agents.

    ``params`` is one ``Hyperparams`` per agent and ``laplacian`` the graph
    Laplacian of the current neighbor relation. The Laplacian must be
    symmetric with zero row sums, and ``alpha`` must satisfy the stability
    bound ``alpha < 1 / max_degree`` (``ConfigurationError`` otherwise).
    """
    params = list(params)
    n = len(params)
    lap = np.asarray(laplacian, dtype=float)
    if lap.shape != (n, n):
        raise ValueError(f"laplacian shape {lap.shape} does not match {n} agents")
    if not np.allclose(lap, lap.T, atol=1e-9):
        raise ValueError("laplacian must be symmetric")
    if n and not np.allclose(lap.sum(axis=1), 0.0, atol=1e-9):
        raise ValueError("laplacian rows must sum to zero")
    max_degree = float(np.max(np.diag(lap))) if n else 0.0
    if max_degree > 0 and config.alpha >= 1.0 / max_degree:
        raise ConfigurationError(
            f"alpha={config.alpha} violates the stability bound 1/max_degree="
            f"{1.0 / max_degree:.6g} for this graph")
    if n == 0:
        return []

    updated: dict[str, np.ndarray] = {}
    for name in _POSITIVE_CHANNELS:
        theta = np.array([getattr(p, name) for p in params], dtype=float)
        if config.log_space:
            if np.any(theta <= 0):
                raise ValueError(f"log-space averaging requires positive {name} values")
            theta = np.log(theta)
        theta = theta - config.alpha * (lap @ theta)
        updated[name] = np.exp(theta) if config.log_space else theta
    prior = np.array([p.prior_mean for p in params], dtype=float)
    prior = prior - config.alpha * (lap @ prior)

    channels = [updated[name] for name in _POSITIVE_CHANNELS] + [prior]
    return [Hyperparams(*map(float, values)) for values in zip(*channels)]
