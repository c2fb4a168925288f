"""Round engine: sampling, scheduling, audit, traces, Lloyd reference."""

from __future__ import annotations

import numpy as np
import pytest

from gpcover import (AccessAudit, AgentState, ConfigurationError, DecentralizationError,
                     Domain, Hyperparams, OptimizerState, SimConfig,
                     SparseGP, bilinear, build_scenario, compute_partition,
                     initial_positions, run, run_lloyd_baseline, sample_density)

TINY = SimConfig(width=24, height=14, scenario="four_gaussians", n_agents=3, seed=5,
                 rounds=8, T=3, M=12, beta=1.0, eta=0.8, eta_adam=0.3, v_max=1.5,
                 pair_budget=32, rmse_stride=4)


def test_sample_density_is_exact_at_pixel_centers_without_noise():
    domain = Domain(16, 9)
    field = build_scenario("four_gaussians", domain)
    rng = np.random.default_rng(0)
    value = sample_density(field, [4.5, 3.5], 0.0, rng)
    assert value == field.values[3, 4]


def test_bilinear_interpolates_between_centers():
    domain = Domain(4, 1)
    field_values = np.array([[0.0, 0.0, 2.0, 2.0]])
    from gpcover.density import DensityField
    field = DensityField(domain, field_values)
    assert bilinear(field, [2.0, 0.5]) == pytest.approx(1.0)
    # beyond the outermost centers the edge value holds
    assert bilinear(field, [0.1, 0.5]) == pytest.approx(0.0)
    assert bilinear(field, [3.9, 0.5]) == pytest.approx(2.0)


def test_sample_noise_has_the_requested_moments():
    domain = Domain(16, 9)
    field = build_scenario("uniform", domain)
    rng = np.random.default_rng(123)
    draws = np.array([sample_density(field, [8.0, 4.5], 0.05, rng) for _ in range(20_000)])
    assert abs(draws.mean() - 1.0) < 0.0015
    assert abs(draws.std() - 0.05) < 0.0025


def test_initial_positions_are_deterministic_and_extension_stable():
    domain = TINY.domain()
    base = initial_positions(TINY, domain)
    again = initial_positions(TINY, domain)
    np.testing.assert_array_equal(base, again)
    # adding an agent must not disturb the existing draws
    bigger = initial_positions(TINY.with_overrides(n_agents=5), domain)
    np.testing.assert_array_equal(bigger[:3], base)


def test_cluster_init_lands_in_the_requested_corner():
    config = TINY.with_overrides(init_mode="cluster", cluster_corner="ur", n_agents=6)
    domain = config.domain()
    pos = initial_positions(config, domain)
    assert np.all(pos[:, 0] >= 0.86 * domain.world_width)
    assert np.all(pos[:, 1] >= 0.86 * domain.world_height)


def test_explicit_init_is_used_verbatim():
    config = TINY.with_overrides(init_mode="explicit", n_agents=2,
                                 explicit_positions=((3.0, 4.0), (20.0, 10.0)))
    pos = initial_positions(config, config.domain())
    np.testing.assert_array_equal(pos, [[3.0, 4.0], [20.0, 10.0]])


def test_buffer_lifecycle_follows_the_refresh_period():
    observed: list[list[int]] = []
    hyper_consistent: list[bool] = []

    def probe(t, agents):
        observed.append([len(agent.buffer) for agent in agents])
        hyper_consistent.append(all(agent.gp.hyper == agent.hyper for agent in agents))

    run(TINY.with_overrides(rounds=10), sample_probe=probe)
    # the probe fires after sampling, before any refresh: sizes cycle with T=3
    expected = [1 if t == 0 else ((t - 1) % 3) + 1 for t in range(10)]
    for t, sizes in enumerate(observed):
        assert sizes == [expected[t]] * TINY.n_agents
    assert all(hyper_consistent)


def test_trace_shapes_and_bounds():
    trace = run(TINY)
    assert trace.n_rounds == 8
    assert trace.n_agents == 3
    np.testing.assert_array_equal(trace.steps, np.arange(1, 9))
    assert np.all(trace.true_cost > 0)
    assert np.all(np.isfinite(trace.rmse))
    assert np.all(trace.inducing_counts <= TINY.M)
    assert np.all(trace.inducing_counts >= 1)
    domain = TINY.domain()
    assert np.all(trace.positions[..., 0] >= 0) and np.all(trace.positions[..., 0] <= 24)
    assert np.all(trace.positions[..., 1] >= 0) and np.all(trace.positions[..., 1] <= 14)


def test_runs_are_bit_identical_for_the_same_config(tmp_path):
    trace_a = run(TINY)
    trace_b = run(TINY)
    np.testing.assert_array_equal(trace_a.true_cost, trace_b.true_cost)
    np.testing.assert_array_equal(trace_a.rmse, trace_b.rmse)
    np.testing.assert_array_equal(trace_a.positions, trace_b.positions)
    np.testing.assert_array_equal(trace_a.messages, trace_b.messages)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_a.to_csv(path_a)
    trace_b.to_csv(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_refit_run_reproduces_its_recorded_numbers():
    # acceptance 8's small hotspots config with the hyperparameter refit on;
    # the literals pin the numerics, so a refactor that moves them shows here
    config = SimConfig(width=96, height=54, scenario="hotspots", n_agents=4, seed=11,
                       rounds=20, T=5, M=40, refit_steps=3, single_stride=4,
                       pair_budget=128, rmse_stride=16)
    trace = run(config)
    np.testing.assert_allclose(trace.true_cost, [
        43680075.059832945, 35055829.33477037, 29734440.219142687, 31744844.478424624,
        30272341.514998518, 31718441.84134607, 30187762.419174902, 30194774.706441477,
        30328084.497387394, 31020801.043986358, 30034584.239149854, 31391415.878088757,
        30224408.870196022, 31723177.250358887, 30056130.390507888, 32479156.10677703,
        29833637.31434256, 32109185.799248017, 29683502.667298377, 32149403.19272884,
    ], rtol=1e-9)
    np.testing.assert_allclose(trace.rmse, [
        66.5861324907505, 66.58881360415154, 66.58964379787794, 66.59000683272352,
        66.59018958170813, 64.53997095287527, 64.54606517274033, 64.5483170350374,
        64.5493834100572, 64.5499659264336, 57.470077825529216, 57.46535927396721,
        57.4643648279233, 57.46411733702478, 57.464037976629584, 51.594107472664106,
        51.6065251715404, 51.61091903688499, 51.61285824712805, 51.613880666156646,
    ], rtol=1e-9)
    np.testing.assert_allclose(trace.positions[-1], [
        [69.49611185170136, 38.223215896580804], [62.81006081297745, 14.663922925651342],
        [23.703036366244294, 13.78393530963793], [27.45922614492184, 39.6076164965817],
    ], rtol=1e-9)


def test_different_seeds_give_different_runs():
    trace_a = run(TINY)
    trace_b = run(TINY.with_overrides(seed=6))
    assert not np.array_equal(trace_a.positions, trace_b.positions)


def test_message_counts_match_the_per_round_graphs():
    audit = AccessAudit()
    config = TINY.with_overrides(rounds=9)
    trace = run(config, audit=audit)
    domain = config.domain()
    positions = initial_positions(config, domain)
    for t in range(config.rounds):
        part = compute_partition(positions, domain)
        n_edges = len(part.edges())
        expected = 2 * n_edges * (2 if t % config.T == 0 else 1)
        assert trace.messages[t] == expected
        # every logged send of this round runs along a real edge
        edge_set = {(i, j) for i, j in part.edges()} | {(j, i) for i, j in part.edges()}
        for rnd, _kind, src, dst in audit.messages:
            if rnd == t:
                assert (src, dst) in edge_set
        positions = trace.positions[t]


def test_run_reports_zero_violations_through_the_audit():
    audit = AccessAudit()
    run(TINY, audit=audit)
    assert audit.violations == []


def test_audit_flags_unsanctioned_reads():
    audit = AccessAudit()
    hyper = Hyperparams(1.0, 1.0, 0.1)
    agent = AgentState(0, np.zeros(2), hyper, SparseGP.fit(np.zeros((0, 3)), hyper),
                       [], OptimizerState(), audit)
    _ = agent.pos  # engine context: positions are fair game
    assert audit.violations == []
    _ = agent.gp  # engine context must not see models
    assert len(audit.violations) == 1
    with audit.agent(1):
        _ = agent.buffer  # agent 1 peeking at agent 0
    assert len(audit.violations) == 2
    with audit.agent(0):
        _ = agent.buffer
    with audit.exchange("hyper"):
        _ = agent.hyper
    with audit.exchange("inducing"):
        _ = agent.gp
    with audit.metrics():
        _ = agent.opt
    assert len(audit.violations) == 2
    with audit.exchange("hyper"):
        _ = agent.gp  # models do not travel on the hyper channel
    assert len(audit.violations) == 3


def test_stationary_start_settles_after_the_plateau():
    domain_w, domain_h = 60, 40
    xs = np.linspace(3.0, 57.0, 9)
    ys = np.linspace(3.0, 37.0, 7)
    gx, gy = np.meshgrid(xs, ys)
    seed_pts = np.column_stack([gx.ravel(), gy.ravel()])
    field = build_scenario("single_peak", Domain(domain_w, domain_h))
    seed_vals = field.analytic.value_at(seed_pts)
    config = SimConfig(width=domain_w, height=domain_h, scenario="single_peak",
                       n_agents=1, seed=1, rounds=30, T=5, M=80, beta=0.0,
                       eta=1.0, eta_adam=0.25, v_max=2.0, k=10, epsilon=0.02,
                       noise_sigma=0.0, pair_budget=64, rmse_stride=4,
                       init_mode="explicit", explicit_positions=((30.0, 20.0),),
                       initial_inducing=(np.column_stack([seed_pts, seed_vals]),))
    trace = run(config)
    steps = np.linalg.norm(np.diff(trace.positions[:, 0, :], axis=0), axis=1)
    assert np.all(steps[20:] < 1.0)
    # and it never wandered far off the density peak
    final = trace.positions[-1, 0]
    assert np.linalg.norm(final - [30.0, 20.0]) < 4.0


def test_lloyd_cost_is_monotone_at_small_gamma():
    config = SimConfig(width=48, height=27, scenario="four_gaussians", n_agents=3,
                       seed=2, rounds=60, lloyd_gamma=0.1, v_max=10.0)
    trace = run_lloyd_baseline(config)
    diffs = np.diff(trace.true_cost)
    assert np.all(diffs <= 1e-9)


def test_lloyd_finds_the_single_blob():
    config = SimConfig(width=48, height=27, scenario="single_peak", n_agents=1,
                       seed=3, rounds=80, lloyd_gamma=0.5)
    trace = run_lloyd_baseline(config)
    final = trace.positions[-1, 0]
    np.testing.assert_allclose(final, [24.0, 13.5], atol=0.5)
    assert np.all(np.isnan(trace.rmse))
    assert np.all(trace.messages == 0)


def test_lloyd_two_agents_on_uniform_density_split_the_strip():
    config = SimConfig(width=40, height=10, scenario="uniform", n_agents=2,
                       seed=4, rounds=150, lloyd_gamma=0.5)
    trace = run_lloyd_baseline(config)
    finals = trace.positions[-1]
    finals = finals[np.argsort(finals[:, 0])]
    np.testing.assert_allclose(finals[:, 0], [10.0, 30.0], atol=0.6)
    np.testing.assert_allclose(finals[:, 1], [5.0, 5.0], atol=0.6)


def test_config_validation_rejects_bad_values():
    for overrides in (dict(n_agents=0), dict(rounds=0), dict(T=0), dict(M=0),
                      dict(beta=-1.0), dict(alpha=0.0), dict(pair_budget=2),
                      dict(init_mode="nope"), dict(lloyd_gamma=0.0)):
        with pytest.raises(ConfigurationError):
            SimConfig(**overrides).validate()
    with pytest.raises(ConfigurationError):
        SimConfig(init_mode="explicit", n_agents=2,
                  explicit_positions=((1.0, 1.0),)).validate()


def test_run_rejects_unstable_consensus_alpha():
    # five agents in a line: the middle ones reach degree 2; alpha = 0.6
    # violates the 1/d_max bound as soon as that graph appears
    config = SimConfig(width=50, height=6, scenario="uniform", n_agents=5, seed=0,
                       rounds=4, alpha=0.6, init_mode="explicit",
                       explicit_positions=((5.0, 3.0), (15.0, 3.0), (25.0, 3.0),
                                           (35.0, 3.0), (45.0, 3.0)))
    with pytest.raises(ConfigurationError):
        run(config)
