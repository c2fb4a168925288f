"""Hyperparameter consensus over the neighbor graph."""

from __future__ import annotations

import numpy as np
import pytest

from gpcover import ConfigurationError, ConsensusConfig, Hyperparams, consensus_step

from oracles import laplacian

PATH_4 = laplacian([(1,), (0, 2), (1, 3), (2,)])


def _make(values):
    """Hyperparams list with every channel distinct per agent."""
    return [Hyperparams(v, 2.0 * v, 0.1 * v, prior_mean=v - 2.0) for v in values]


def test_identical_parameters_are_a_fixed_point():
    params = [Hyperparams(1.5, 2.0, 0.1, 0.3)] * 3
    lap = laplacian([(1,), (0, 2), (1,)])
    out = consensus_step(params, lap, ConsensusConfig(alpha=0.2))
    for p in out:
        assert p.lengthscale == pytest.approx(1.5, rel=1e-14)
        assert p.signal_variance == pytest.approx(2.0, rel=1e-14)
        assert p.noise_variance == pytest.approx(0.1, rel=1e-14)
        assert p.prior_mean == 0.3


def test_pair_averages_prior_mean_in_one_half_step():
    params = [Hyperparams(1.0, 1.0, 0.1, prior_mean=2.0),
              Hyperparams(1.0, 1.0, 0.1, prior_mean=4.0)]
    lap = laplacian([(1,), (0,)])
    out = consensus_step(params, lap, ConsensusConfig(alpha=0.5))
    assert out[0].prior_mean == pytest.approx(3.0)
    assert out[1].prior_mean == pytest.approx(3.0)


def test_log_space_converges_to_the_geometric_mean():
    values = [0.5, 1.0, 2.0, 4.0]
    params = _make(values)
    config = ConsensusConfig(alpha=0.2, log_space=True)
    for _ in range(400):
        params = consensus_step(params, PATH_4, config)
    target = float(np.exp(np.mean(np.log(values))))
    for p in params:
        assert p.lengthscale == pytest.approx(target, abs=1e-6)
        assert p.signal_variance == pytest.approx(2.0 * target, abs=2e-6)
    # the linear channel reaches the arithmetic mean instead
    linear_target = float(np.mean([v - 2.0 for v in values]))
    for p in params:
        assert p.prior_mean == pytest.approx(linear_target, abs=1e-6)


def test_each_step_preserves_the_averaging_space_sum():
    params = _make([0.5, 1.0, 2.0, 4.0])
    config = ConsensusConfig(alpha=0.2, log_space=True)
    before_log = sum(np.log(p.lengthscale) for p in params)
    before_linear = sum(p.prior_mean for p in params)
    for _ in range(50):
        params = consensus_step(params, PATH_4, config)
        assert sum(np.log(p.lengthscale) for p in params) == pytest.approx(
            before_log, abs=1e-10)
        assert sum(p.prior_mean for p in params) == pytest.approx(before_linear, abs=1e-10)


def test_each_step_contracts_the_value_range():
    rng = np.random.default_rng(9)
    params = _make(list(rng.uniform(0.2, 5.0, size=4)))
    config = ConsensusConfig(alpha=0.2, log_space=True)
    spread = max(p.lengthscale for p in params) / min(p.lengthscale for p in params)
    for _ in range(30):
        params = consensus_step(params, PATH_4, config)
        new_spread = max(p.lengthscale for p in params) / min(p.lengthscale for p in params)
        assert new_spread <= spread * (1 + 1e-12)
        spread = new_spread


def test_only_neighbors_influence_an_agent():
    base = _make([1.0, 2.0, 3.0, 4.0])
    perturbed = list(base)
    perturbed[3] = Hyperparams(40.0, 40.0, 4.0, prior_mean=40.0)
    config = ConsensusConfig(alpha=0.2)
    out_base = consensus_step(base, PATH_4, config)
    out_pert = consensus_step(perturbed, PATH_4, config)
    # agent 0 is two hops from agent 3 on the path graph: bit-identical result
    assert out_base[0].lengthscale == out_pert[0].lengthscale
    assert out_base[0].signal_variance == out_pert[0].signal_variance
    assert out_base[0].prior_mean == out_pert[0].prior_mean
    # agent 2 is adjacent to agent 3 and must move
    assert out_base[2].lengthscale != out_pert[2].lengthscale


def test_alpha_at_the_stability_bound_is_refused():
    params = _make([1.0, 2.0, 3.0, 4.0])
    star = laplacian([(1, 2, 3), (0,), (0,), (0,)])
    with pytest.raises(ConfigurationError):
        consensus_step(params, star, ConsensusConfig(alpha=1.0 / 3.0))
    # strictly below the bound is fine
    consensus_step(params, star, ConsensusConfig(alpha=0.33))


def test_disconnected_agents_are_untouched():
    params = _make([1.0, 2.0])
    lap = np.zeros((2, 2))
    out = consensus_step(params, lap, ConsensusConfig(alpha=0.9))
    assert out[0].lengthscale == pytest.approx(1.0, rel=1e-14)
    assert out[1].lengthscale == pytest.approx(2.0, rel=1e-14)


def test_invalid_laplacians_are_rejected():
    params = _make([1.0, 2.0])
    with pytest.raises(ValueError):
        consensus_step(params, np.array([[1.0, -1.0], [0.0, 0.0]]), ConsensusConfig())
    with pytest.raises(ValueError):
        consensus_step(params, np.array([[1.0, -0.5], [-0.5, 1.0]]), ConsensusConfig())
    with pytest.raises(ValueError):
        consensus_step(params, np.eye(3), ConsensusConfig())


def test_log_space_requires_positive_channels():
    # a zero noise variance is representable but cannot be log-averaged
    params = [Hyperparams(1.0, 1.0, 0.0), Hyperparams(1.0, 1.0, 0.1)]
    lap = laplacian([(1,), (0,)])
    with pytest.raises(ValueError):
        consensus_step(params, lap, ConsensusConfig(alpha=0.4, log_space=True))
    # linear averaging handles it
    out = consensus_step(params, lap, ConsensusConfig(alpha=0.4, log_space=False))
    assert out[0].noise_variance == pytest.approx(0.04)


def test_linear_mode_matches_the_laplacian_recursion():
    values = [1.0, 3.0, 5.0, 7.0]
    params = _make(values)
    config = ConsensusConfig(alpha=0.2, log_space=False)
    out = consensus_step(params, PATH_4, config)
    theta = np.array(values)
    expected = theta - 0.2 * (PATH_4 @ theta)
    for p, e in zip(out, expected):
        assert p.lengthscale == pytest.approx(e, rel=1e-14)
