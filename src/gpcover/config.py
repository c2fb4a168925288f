"""Run configuration: workspace, scenario, team, model, and optimizer knobs."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .density import scenario_mixture
from .errors import ConfigurationError
from .geometry import Domain

_INIT_MODES = ("uniform_random", "cluster", "explicit")
_CORNERS = ("ll", "lr", "ul", "ur")
_INT_FIELDS = ("width", "height", "n_agents", "seed", "rounds", "T", "M", "k",
               "single_stride", "pair_budget", "refit_steps", "rmse_stride")
_FLOAT_FIELDS = ("cell_size", "beta", "eta", "eta_adam", "v_max", "epsilon", "alpha",
                 "prior_mean0", "hyper_spread", "lloyd_gamma")
# None selects a problem-scaled default (see SimConfig)
_OPTIONAL_FLOAT_FIELDS = ("noise_sigma", "lengthscale0", "signal_variance0", "noise_variance0")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _position_rows(value) -> tuple[tuple[float, float], ...]:
    """``explicit_positions`` as ``(x, y)`` float pairs; ``ConfigurationError`` on a bad row."""
    try:
        rows = [tuple(row) for row in value]
    except TypeError:
        raise ConfigurationError(
            f"explicit_positions must be a list of [x, y] pairs, got {value!r}") from None
    for i, row in enumerate(rows):
        if len(row) != 2 or not all(map(_is_real, row)):
            raise ConfigurationError(
                f"explicit_positions[{i}] must be an [x, y] pair of numbers, got {list(row)!r}")
    return tuple((float(x), float(y)) for x, y in rows)


def _check_inducing_blocks(value, n_agents: int) -> None:
    """``initial_inducing`` holds one ``(m, 3)`` block of finite numbers per agent, or empty."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != n_agents:
        raise ConfigurationError(f"initial_inducing must provide one block per agent ({n_agents})")
    for i, block in enumerate(value):
        try:
            arr = np.asarray(block)
            ok = arr.size == 0 or (arr.dtype.kind in "iuf" and arr.shape[1:] == (3,)
                                   and bool(np.isfinite(arr).all()))
        except ValueError:  # ragged rows
            ok = False
        if not ok:
            raise ConfigurationError(f"initial_inducing[{i}] must be an (m, 3) array of finite "
                                     f"[x, y, value] rows, got {block!r}")


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything that determines a run, including its random seed.

    ``None`` for the estimator initials means problem-scaled defaults:
    lengthscale from the workspace size, signal variance from the density
    peak, noise variance from the actual sampling noise.
    """

    # workspace and scenario
    width: int = 960
    height: int = 540
    cell_size: float = 1.0
    scenario: str = "four_gaussians"
    scenario_params: dict | None = None
    # team and schedule
    n_agents: int = 4
    seed: int = 0
    rounds: int = 500
    T: int = 5
    M: int = 60
    # cost shaping
    beta: float = 2.0
    single_stride: int = 1
    # the exploration term's lattice product costs at most pair_budget**2 multiply-adds
    pair_budget: int = 256
    # optimizer
    eta: float = 5.0
    eta_adam: float = 2.0
    v_max: float = 10.0
    k: int = 10
    epsilon: float = 0.02
    # consensus
    alpha: float = 0.2
    log_space_consensus: bool = True
    # sensing and estimator initialization
    noise_sigma: float | None = None
    lengthscale0: float | None = None
    signal_variance0: float | None = None
    noise_variance0: float | None = None
    prior_mean0: float = 0.0
    hyper_spread: float = 0.3
    refit_steps: int = 0
    # initial placement
    init_mode: str = "uniform_random"
    cluster_corner: str = "ll"
    explicit_positions: tuple[tuple[float, float], ...] | None = None
    initial_inducing: tuple | None = None
    # metrics and baseline
    rmse_stride: int = 8
    lloyd_gamma: float = 0.5

    def domain(self) -> Domain:
        return Domain(self.width, self.height, self.cell_size)

    def base_lengthscale(self) -> float:
        """``lengthscale0``, or by default 0.04 times the world's shorter side."""
        if self.lengthscale0 is not None:
            return self.lengthscale0
        return 0.04 * min(self.domain().world_width, self.domain().world_height)

    def validate(self) -> None:
        """Raise ``ConfigurationError`` on any mistyped or out-of-range field.

        Every float field must be finite: an infinite or NaN value would
        otherwise pass the range checks below and fail mid-run.

        ``scenario`` and ``scenario_params`` go through
        :func:`gpcover.density.scenario_mixture`, which builds the density's
        mixture on the domain with the checks that ``build_scenario`` makes,
        without rasterizing it. The world's squared diagonal must be finite, and
        ``2 * l**2`` positive and finite for every initial lengthscale ``l`` that
        a run can draw: the base lengthscale times ``exp(+-hyper_spread)`` at most.
        """
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS + _OPTIONAL_FLOAT_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FLOAT_FIELDS:
                continue
            if not _is_real(value):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if not isinstance(self.log_space_consensus, (bool, np.bool_)):
            raise ConfigurationError(
                f"log_space_consensus must be true or false, got {self.log_space_consensus!r}")
        checks = [
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
            (self.n_agents >= 1, f"n_agents must be at least 1, got {self.n_agents}"),
            (self.rounds >= 1, f"rounds must be at least 1, got {self.rounds}"),
            (self.T >= 1, f"refresh period T must be at least 1, got {self.T}"),
            (self.M >= 1, f"capacity M must be at least 1, got {self.M}"),
            (self.beta >= 0, f"beta must be non-negative, got {self.beta}"),
            (self.single_stride >= 1, f"single_stride must be at least 1, got {self.single_stride}"),
            (self.pair_budget >= 4, f"pair_budget must be at least 4, got {self.pair_budget}"),
            (self.eta > 0, f"eta must be positive, got {self.eta}"),
            (self.eta_adam > 0, f"eta_adam must be positive, got {self.eta_adam}"),
            (self.v_max > 0, f"v_max must be positive, got {self.v_max}"),
            (self.k >= 1, f"plateau window k must be at least 1, got {self.k}"),
            (self.epsilon > 0, f"plateau threshold must be positive, got {self.epsilon}"),
            (self.alpha > 0, f"consensus alpha must be positive, got {self.alpha}"),
            (self.hyper_spread >= 0, f"hyper_spread must be non-negative, got {self.hyper_spread}"),
            (self.refit_steps >= 0, f"refit_steps must be non-negative, got {self.refit_steps}"),
            (self.rmse_stride >= 1, f"rmse_stride must be at least 1, got {self.rmse_stride}"),
            (0 < self.lloyd_gamma <= 1, f"lloyd_gamma must be in (0, 1], got {self.lloyd_gamma}"),
            (self.init_mode in _INIT_MODES,
             f"init_mode must be one of {_INIT_MODES}, got {self.init_mode!r}"),
            (self.cluster_corner in _CORNERS,
             f"cluster_corner must be one of {_CORNERS}, got {self.cluster_corner!r}"),
            (self.noise_sigma is None or self.noise_sigma >= 0,
             f"noise_sigma must be non-negative, got {self.noise_sigma}"),
            (self.lengthscale0 is None or self.lengthscale0 > 0,
             f"lengthscale0 must be positive, got {self.lengthscale0}"),
            (self.signal_variance0 is None or self.signal_variance0 > 0,
             f"signal_variance0 must be positive, got {self.signal_variance0}"),
            (self.noise_variance0 is None or self.noise_variance0 >= 0,
             f"noise_variance0 must be non-negative, got {self.noise_variance0}"),
            # log-space consensus averages log(noise_variance)
            (self.noise_variance0 != 0 or not self.log_space_consensus,
             "noise_variance0 must be positive under log_space_consensus, got 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigurationError(message)
        domain = self.domain()
        if self.explicit_positions is not None:
            rows = _position_rows(self.explicit_positions)
        if self.init_mode == "explicit":
            if self.explicit_positions is None or len(rows) != self.n_agents:
                raise ConfigurationError(
                    "explicit init requires explicit_positions with one entry per agent")
            for i, (x, y) in enumerate(rows):
                if not domain.contains((x, y)):
                    raise ConfigurationError(f"explicit_positions[{i}] at ({x}, {y}) is "
                                             f"outside the workspace")
        if self.initial_inducing is not None:
            _check_inducing_blocks(self.initial_inducing, self.n_agents)
        scenario_mixture(self.scenario, domain, self.scenario_params)
        w, h = domain.world_width, domain.world_height
        if not math.isfinite(w * w + h * h):
            raise ConfigurationError(f"cell_size {self.cell_size} is out of range: the "
                                     f"{w}x{h} world's squared diagonal is not finite")
        with np.errstate(over="ignore", under="ignore"):
            two_var = 2.0 * (self.base_lengthscale()
                             * np.exp([-self.hyper_spread, self.hyper_spread])) ** 2
        if not np.all((two_var > 0) & (two_var < np.inf)):
            given = "cell_size" if self.lengthscale0 is None else "lengthscale0"
            raise ConfigurationError(
                f"{given} {getattr(self, given)} and hyper_spread {self.hyper_spread} give "
                f"initial lengthscales l out of range: 2*l**2 spans {two_var[0]}..{two_var[1]}")

    def with_overrides(self, **kwargs) -> "SimConfig":
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg


_FIELD_NAMES = {f.name for f in fields(SimConfig)}

# nested config-file sections and the fields they may set
_SECTIONS = {
    "domain": ("width", "height", "cell_size"),
    "gp": ("M", "T", "lengthscale0", "signal_variance0", "noise_variance0",
           "prior_mean0", "hyper_spread", "refit_steps"),
    "optimizer": ("eta", "eta_adam", "v_max", "k", "epsilon", "beta"),
    "consensus": ("alpha", "log_space_consensus"),
    "quadrature": ("single_stride", "pair_budget"),
    "init": ("init_mode", "cluster_corner", "explicit_positions"),
    "metrics": ("rmse_stride", "lloyd_gamma"),
}


def config_from_dict(data: dict) -> SimConfig:
    """Build a validated ``SimConfig`` from a (possibly nested) plain mapping.

    Top-level keys may be field names or one of the section names
    (``domain``, ``gp``, ``optimizer``, ``consensus``, ``quadrature``,
    ``init``, ``metrics``); unknown keys, or ``data`` that is neither a
    mapping nor ``None``, raise ``ConfigurationError``.
    """
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigurationError(f"configuration must be a mapping, got {type(data).__name__}")
    flat: dict = {}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigurationError(f"section {key!r} must be a mapping")
            for sub, subval in value.items():
                if sub not in _SECTIONS[key]:
                    raise ConfigurationError(f"unknown key {sub!r} in section {key!r}")
                flat[sub] = subval
        elif key in _FIELD_NAMES:
            flat[key] = value
        else:
            raise ConfigurationError(f"unknown configuration key {key!r}")
    if flat.get("explicit_positions") is not None:
        flat["explicit_positions"] = _position_rows(flat["explicit_positions"])
    try:
        cfg = SimConfig(**flat)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc
    cfg.validate()
    return cfg
