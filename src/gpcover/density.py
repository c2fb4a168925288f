"""Ground-truth density fields: Gaussian mixtures rasterized onto the grid.

Scenario layouts are defined on a 960x540 canonical workspace; building one
on a smaller or larger domain rescales blob centers with the domain and blob
widths with the horizontal scale factor.

The raster builds each blob's exponent from per-axis squared offsets,
``(y - cy)^2`` broadcast-added to ``(x - cx)^2`` in one reused ``(H, W)``
buffer, and calls ``np.exp`` only where that exponent is at least
``_EXP_CUT = -746``. Below about -745.13 ``exp`` returns exactly 0.0, so a
skipped term would only have added +0.0; numpy computes those zeros on a
slow path. :meth:`GaussianMixture.value_at` evaluates points with the same
formula, so the raster equals ``value_at`` at the pixel centres bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from math import floor, isfinite

import numpy as np

from .errors import ConfigurationError, OutsideDomainError
from .geometry import Domain

CANONICAL_WIDTH = 960.0
CANONICAL_HEIGHT = 540.0

# np.exp is exactly 0.0 below about -745.13 and slow there; blob terms whose
# exponent lies below this cut are skipped, as they would add +0.0
_EXP_CUT = -746.0


@dataclass(frozen=True)
class GaussianBlob:
    """Isotropic Gaussian bump ``amplitude * exp(-||q - center||^2 / (2 sigma^2))``.

    ``sigma`` must be positive with ``2 sigma^2`` a positive finite float, and
    ``amplitude`` a non-negative finite number.
    """

    center: tuple[float, float]
    sigma: float
    amplitude: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        try:
            two_var = 2.0 * self.sigma ** 2
        except OverflowError:
            two_var = float("inf")
        if not 0.0 < two_var < float("inf"):
            raise ValueError(f"sigma {self.sigma} is out of range: 2*sigma**2 is {two_var}")
        if not (isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be non-negative, got {self.amplitude}")


@dataclass(frozen=True)
class GaussianMixture:
    """Sum of Gaussian blobs over a constant non-negative background."""

    blobs: tuple[GaussianBlob, ...]
    background: float = 0.0

    def value_at(self, points) -> np.ndarray:
        """Evaluate the mixture at ``(k, 2)`` points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._evaluate(pts[:, 0], pts[:, 1], (len(pts),))

    def _evaluate(self, xs, ys, shape) -> np.ndarray:
        """The mixture where coordinates ``xs`` and ``ys`` broadcast to ``shape``.

        Each blob adds ``amplitude * exp(d2 / -(2 sigma^2))`` with
        ``d2 = (y - cy)^2 + (x - cx)^2``, skipping exponents below
        ``_EXP_CUT``. A skipped term is +0.0, which leaves every value but a
        -0.0 background as it is; that one becomes +0.0 once any blob is added.
        """
        background = float(self.background)
        if self.blobs:
            background += 0.0
        out = np.full(shape, background)
        arg = np.empty(shape)
        keep = np.empty(shape, dtype=bool)
        for blob in self.blobs:
            cx, cy = blob.center
            np.add((ys - cy) ** 2, (xs - cx) ** 2, out=arg)
            np.divide(arg, -(2.0 * blob.sigma ** 2), out=arg)
            # not below the cut; NaN goes to exp, which keeps it
            np.less(arg, _EXP_CUT, out=keep)
            np.logical_not(keep, out=keep)
            np.exp(arg, out=arg, where=keep)
            np.multiply(arg, blob.amplitude, out=arg, where=keep)
            np.add(out, arg, out=out, where=keep)
        return out


@dataclass(frozen=True, eq=False)
class DensityField:
    """Non-negative density sampled at every pixel center, shape ``(H, W)``."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.domain.height, self.domain.width):
            raise ValueError(
                f"values shape {self.values.shape} does not match domain "
                f"{self.domain.height}x{self.domain.width}")
        # min and max propagate NaN
        lo, hi = float(self.values.min()), float(self.values.max())
        if not (isfinite(lo) and isfinite(hi)):
            raise ValueError("density values must be finite")
        if lo < 0:
            raise ValueError("density values must be non-negative")

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @cached_property
    def x_weighted(self) -> np.ndarray:
        """The density times each pixel centre's x, built on first read: Lloyd's x moment."""
        return self.values * self.domain.axis_centers()[0]

    @cached_property
    def u2_weighted(self) -> np.ndarray:
        """The density times each pixel centre's squared x in pixel units, ``(ix + 0.5)**2``,
        built on first read: the true cost's second moment."""
        u = np.arange(self.domain.width) + 0.5
        return self.values * (u * u)

    @classmethod
    def from_mixture(cls, domain: Domain, mixture: GaussianMixture) -> "DensityField":
        xs, ys = domain.axis_centers()
        return cls(domain, mixture._evaluate(xs, ys[:, None], (domain.height, domain.width)))


def bilinear(field: DensityField, point) -> float:
    """Bilinear interpolation of the grid at a continuous workspace position.

    Exact at pixel centers; positions between the outermost pixel centers and
    the workspace boundary clamp to the edge row/column. Raises
    ``OutsideDomainError`` outside the workspace rectangle.
    """
    domain = field.domain
    if not domain.contains(point):
        raise OutsideDomainError(f"position ({point[0]}, {point[1]}) is outside the workspace")
    s = domain.cell_size
    u = float(point[0]) / s - 0.5
    v = float(point[1]) / s - 0.5
    u = min(max(u, 0.0), domain.width - 1.0)
    v = min(max(v, 0.0), domain.height - 1.0)
    ix = min(int(floor(u)), max(domain.width - 2, 0))
    iy = min(int(floor(v)), max(domain.height - 2, 0))
    fx = min(u - ix, 1.0) if domain.width > 1 else 0.0
    fy = min(v - iy, 1.0) if domain.height > 1 else 0.0
    jx = min(ix + 1, domain.width - 1)
    jy = min(iy + 1, domain.height - 1)
    vals = field.values
    return float((1.0 - fx) * (1.0 - fy) * vals[iy, ix]
                 + fx * (1.0 - fy) * vals[iy, jx]
                 + (1.0 - fx) * fy * vals[jy, ix]
                 + fx * fy * vals[jy, jx])


def _scales(domain: Domain) -> tuple[float, float, float]:
    sx = domain.world_width / CANONICAL_WIDTH
    sy = domain.world_height / CANONICAL_HEIGHT
    return sx, sy, sx


def four_gaussians(domain: Domain) -> GaussianMixture:
    """Four equal unit-amplitude bumps near the workspace corners."""
    sx, sy, ss = _scales(domain)
    centers = [(100.0, 100.0), (850.0, 450.0), (100.0, 450.0), (850.0, 100.0)]
    blobs = tuple(GaussianBlob((cx * sx, cy * sy), 10.0 * ss, 1.0) for cx, cy in centers)
    return GaussianMixture(blobs)


def hotspots(domain: Domain) -> GaussianMixture:
    """Three unequal-width bumps of amplitude 150 over a background of 20."""
    w, h = domain.world_width, domain.world_height
    _, _, ss = _scales(domain)
    layout = [((0.2 * w, 0.3 * h), 80.0), ((0.8 * w, 0.7 * h), 120.0), ((0.6 * w, 0.2 * h), 60.0)]
    blobs = tuple(GaussianBlob(center, sigma * ss, 150.0) for center, sigma in layout)
    return GaussianMixture(blobs, background=20.0)


def single_peak(domain: Domain) -> GaussianMixture:
    """One central bump of amplitude 150."""
    _, _, ss = _scales(domain)
    center = (domain.world_width / 2.0, domain.world_height / 2.0)
    return GaussianMixture((GaussianBlob(center, 80.0 * ss, 150.0),))


def uniform(domain: Domain) -> GaussianMixture:
    """Constant density of 1 everywhere."""
    return GaussianMixture(blobs=(), background=1.0)


# each named scenario's mixture on a domain; build_scenario rasterizes it
_SCENARIOS = {
    "four_gaussians": four_gaussians,
    "hotspots": hotspots,
    "single_peak": single_peak,
    "uniform": uniform,
}


def _finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and isfinite(value)


def _custom_mixture(params) -> GaussianMixture:
    params = params or {}
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"scenario_params of the custom scenario must be a mapping, got {params!r}")
    for key in params:
        if key not in ("blobs", "background"):
            raise ConfigurationError(
                f"unknown scenario_params key {key!r}; expected blobs or background")
    rows = params.get("blobs", ())
    if not isinstance(rows, (list, tuple)):
        raise ConfigurationError(f"scenario_params blobs must be a list of rows, got {rows!r}")
    blobs = []
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) == 4
                and all(map(_finite_number, row))):
            raise ConfigurationError(f"scenario_params blobs[{i}] must be four finite numbers "
                                     f"[cx, cy, sigma, amplitude], got {row!r}")
        cx, cy, sigma, amplitude = map(float, row)
        try:
            blobs.append(GaussianBlob((cx, cy), sigma, amplitude))
        except ValueError as exc:
            raise ConfigurationError(f"scenario_params blobs[{i}] {exc}") from None
    background = params.get("background", 0.0)
    if not (_finite_number(background) and background >= 0):
        raise ConfigurationError(
            f"scenario_params background must be a non-negative number, got {background!r}")
    return GaussianMixture(tuple(blobs), float(background))


def scenario_mixture(name, domain: Domain, params=None) -> GaussianMixture:
    """The mixture of a scenario on ``domain``, checked but not rasterized.

    Raises ``ConfigurationError`` on an unknown name, on parameters given to
    a named scenario, on bad custom parameters, and on a named scenario whose
    blob widths, scaled to the domain, leave the float range. Amplitudes and
    background must be non-negative and each ``2 * sigma**2`` a positive
    finite float, so every mixture returned rasterizes to a valid density.
    """
    if name == "custom":
        return _custom_mixture(params)
    if not isinstance(name, str) or name not in _SCENARIOS:
        known = ", ".join(sorted([*_SCENARIOS, "custom"]))
        raise ConfigurationError(f"unknown scenario {name!r}; expected one of: {known}")
    if params:
        raise ConfigurationError(f"scenario {name!r} takes no scenario_params")
    try:
        return _SCENARIOS[name](domain)
    except ValueError as exc:
        raise ConfigurationError(
            f"scenario {name!r} does not fit a {domain.width}x{domain.height} domain at "
            f"cell_size {domain.cell_size}: {exc}") from None


def build_scenario(name: str, domain: Domain, params: dict | None = None) -> DensityField:
    """Construct a named density scenario on the given domain.

    ``custom`` takes ``params`` with ``blobs`` (rows of
    ``[cx, cy, sigma, amplitude]`` in world coordinates) and an optional
    ``background``. The named scenarios take no parameters. The checks are
    those of :func:`scenario_mixture`.
    """
    return DensityField.from_mixture(domain, scenario_mixture(name, domain, params))
