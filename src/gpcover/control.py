"""Per-agent motion: normalized gradient descent with an Adam refinement phase.

Agents start with fixed-length steps down the cost gradient. Once the
exploration std of their cell stops changing (relative plateau over a short
history) they switch permanently to Adam, whose adaptive steps settle into
the local minimum instead of orbiting it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import Domain

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# gradients with a norm below this produce no motion instead of a blow-up
_GRAD_FLOOR = 1e-12
# history entries smaller than this contribute zero relative change
_SIGMA_FLOOR = 1e-12


class Phase(Enum):
    NORMALIZED_GD = "normalized_gd"
    ADAM = "adam"


@dataclass(frozen=True)
class OptimizerState:
    """Immutable optimizer bookkeeping carried by each agent between rounds."""

    eta: float = 5.0
    eta_adam: float = 2.0
    v_max: float = 10.0
    k: int = 10
    epsilon: float = 0.02
    phase: Phase = Phase.NORMALIZED_GD
    sigma_history: tuple[float, ...] = ()
    adam_m: tuple[float, float] = (0.0, 0.0)
    adam_v: tuple[float, float] = (0.0, 0.0)
    adam_t: int = 0

    def __post_init__(self):
        if not self.eta > 0 or not self.eta_adam > 0:
            raise ValueError("step sizes must be positive")
        if not self.v_max > 0:
            raise ValueError(f"v_max must be positive, got {self.v_max}")
        if self.k < 1:
            raise ValueError(f"history window k must be at least 1, got {self.k}")
        if not self.epsilon > 0:
            raise ValueError(f"plateau threshold must be positive, got {self.epsilon}")


def plateau_detected(state: OptimizerState) -> bool:
    """True when the mean relative change over the last k+1 stds is at most epsilon.

    Needs a full history window; near-zero entries contribute zero change so
    an agent whose exploration term has collapsed counts as plateaued.
    """
    hist = state.sigma_history
    if len(hist) < state.k + 1:
        return False
    changes = [
        0.0 if abs(prev) < _SIGMA_FLOOR else abs(cur - prev) / abs(prev)
        for prev, cur in zip(hist[:-1], hist[1:])
    ]
    return sum(changes) / state.k <= state.epsilon


def record_std(state: OptimizerState, std: float) -> OptimizerState:
    """Push the latest exploration std; flips to Adam once the plateau fires.

    The switch is permanent: once in the Adam phase the history no longer
    matters for phase selection.
    """
    hist = (state.sigma_history + (float(std),))[-(state.k + 1):]
    state = replace(state, sigma_history=hist)
    if state.phase is Phase.NORMALIZED_GD and plateau_detected(state):
        state = replace(state, phase=Phase.ADAM)
    return state


def adam_update(m, v, t: int, g, lr: float):
    """One bias-corrected Adam update at step ``t`` (1-based).

    Returns ``(lr * m_hat / (sqrt(v_hat) + eps), m, v)``: the parameter
    increment and the new first and second moments. A negative ``lr``
    descends the gradient, a positive one ascends it.
    """
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def step(pos, gradient, state: OptimizerState,
         domain: Domain) -> tuple[np.ndarray, OptimizerState]:
    """One motion update down the gradient, clipped to v_max and the workspace.

    Normalized-GD moves a fixed eta along ``-g / ||g||`` (no motion below the
    gradient floor); Adam applies the standard bias-corrected update with
    step eta_adam. Either displacement is capped at ``v_max`` and the new
    position is clamped to the workspace rectangle.
    """
    p = np.asarray(pos, dtype=float).reshape(2)
    g = np.asarray(gradient, dtype=float).reshape(2)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite gradient {g}")

    if state.phase is Phase.NORMALIZED_GD:
        norm = float(np.linalg.norm(g))
        disp = np.zeros(2) if norm < _GRAD_FLOOR else -state.eta * g / norm
        new_state = state
    else:
        t = state.adam_t + 1
        disp, m, v = adam_update(np.asarray(state.adam_m), np.asarray(state.adam_v), t, g,
                                 -state.eta_adam)
        new_state = replace(state, adam_m=tuple(m), adam_v=tuple(v), adam_t=t)

    return _capped_move(p, disp, state.v_max, domain), new_state


def _capped_move(pos, disp, v_max: float, domain: Domain) -> np.ndarray:
    """``pos + disp`` with the displacement capped at ``v_max``, clamped to the workspace."""
    speed = float(np.linalg.norm(disp))
    if speed > v_max:
        disp = disp * (v_max / speed)
    return domain.clamp(pos + disp)
