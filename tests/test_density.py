"""Density rasters: the per-axis grid path against the parent formula, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from gpcover import ConfigurationError, Domain, SimConfig, build_scenario
from gpcover.density import (_EXP_CUT, DensityField, GaussianBlob, GaussianMixture,
                             _SCENARIOS, scenario_mixture)

DOMAINS = [Domain(960, 540), Domain(240, 135), Domain(96, 54), Domain(31, 17, 0.37),
           Domain(1, 1), Domain(7, 1, 2.5)]

CUSTOM = {
    "negative zero background": {"blobs": [[10.5, 5.5, 3.0, 2.0]], "background": -0.0},
    "negative zero background, no blob": {"background": -0.0},
    "zero amplitude": {"blobs": [[4.0, 3.0, 2.0, 0.0], [8.0, 1.0, 5.0, 1.5]],
                       "background": -0.0},
    "narrow, almost every term cut": {"blobs": [[3.0, 4.0, 0.01, 7.0]], "background": 0.25},
    "wide, no term cut": {"blobs": [[3.0, 4.0, 1e4, 7.0]]},
}


def reference(mixture: GaussianMixture, points) -> np.ndarray:
    """Every blob term through ``np.exp`` at ``(k, 2)`` points, none skipped."""
    out = np.full(len(points), float(mixture.background))
    for blob in mixture.blobs:
        d2 = ((points - np.asarray(blob.center)) ** 2).sum(axis=1)
        out += blob.amplitude * np.exp(-d2 / (2.0 * blob.sigma ** 2))
    return out


def pixel_centres(domain: Domain) -> np.ndarray:
    xs, ys = domain.axis_centers()
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: f"{d.width}x{d.height}@{d.cell_size}")
def test_raster_bytes_equal_value_at_and_the_uncut_formula(domain):
    cases = [(name, None) for name in _SCENARIOS]
    cases += [("custom", params) for params in CUSTOM.values()]
    points = pixel_centres(domain)
    for name, params in cases:
        raster = build_scenario(name, domain, params).values.tobytes()
        mixture = scenario_mixture(name, domain, params)
        assert mixture.value_at(points).tobytes() == raster
        assert reference(mixture, points).tobytes() == raster


def test_the_custom_cases_reach_both_sides_of_the_cut():
    # the narrow blob's exponent is below the cut from 0.39 world units off its
    # centre, the wide blob's nowhere; a -0.0 background turns +0.0 under any blob
    domain = Domain(31, 17, 0.37)
    d2 = ((pixel_centres(domain) - [3.0, 4.0]) ** 2).sum(axis=1)
    assert np.mean(d2 / -(2.0 * 0.01 ** 2) < _EXP_CUT) > 0.99
    assert not np.any(d2 / -(2.0 * 1e4 ** 2) < _EXP_CUT)
    zero = build_scenario("custom", domain, CUSTOM["negative zero background"]).values
    assert not np.any(np.signbit(zero))
    bare = build_scenario("custom", domain, CUSTOM["negative zero background, no blob"]).values
    assert np.all(np.signbit(bare))


def test_exp_is_exactly_zero_below_the_cut():
    # the cut relies on this numpy's exp: a different one fails here rather
    # than silently changing raster bytes
    sweep = np.concatenate([np.linspace(-1e6, _EXP_CUT, 200_001),
                            np.linspace(-800.0, _EXP_CUT, 100_001), [_EXP_CUT, -np.inf]])
    values = np.exp(sweep)
    assert np.all(values == 0.0) and not np.any(np.signbit(values))
    assert np.exp(-745.0) > 0.0 and np.exp(np.nextafter(-745.0, 0.0)) > 0.0


def test_density_field_rejects_non_finite_values():
    domain = Domain(3, 2)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones((2, 3))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityField(domain, values)
    with pytest.raises(ValueError, match="non-negative"):
        DensityField(domain, -np.ones((2, 3)))
    DensityField(domain, np.full((2, 3), -0.0))


def test_blob_widths_out_of_float_range_fail_up_front():
    # 2 * sigma**2 underflows to 0 (a 0/0 NaN at the centre pixel) or overflows
    for sigma in (1e-200, 1e200):
        params = {"blobs": [[10.5, 5.5, sigma, 1.0]]}
        with pytest.raises(ConfigurationError, match=r"blobs\[0\] sigma"):
            scenario_mixture("custom", Domain(48, 27), params)
        with pytest.raises(ConfigurationError, match="sigma"):
            SimConfig(width=48, height=27, scenario="custom", scenario_params=params).validate()
        with pytest.raises(ConfigurationError, match="sigma"):
            build_scenario("custom", Domain(48, 27), params)
        with pytest.raises(ValueError, match="sigma"):
            GaussianBlob((10.5, 5.5), sigma, 1.0)
    for amplitude in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="amplitude"):
            GaussianBlob((1.0, 1.0), 2.0, amplitude)
    # the smallest and largest widths in range still rasterize
    for sigma in (1e-150, 1e150):
        field = build_scenario("custom", Domain(48, 27), {"blobs": [[10.5, 5.5, sigma, 1.0]]})
        assert np.all(np.isfinite(field.values))
