"""Round engine: sampling, scheduling, audit, traces, Lloyd reference."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import gpcover.sim as sim
from gpcover import (AccessAudit, AgentState, ConfigurationError, DecentralizationError,
                     Domain, Hyperparams, OptimizerState, SimConfig,
                     SparseGP, bilinear, build_scenario, cell_pixels, compute_partition,
                     initial_positions, mass_centroid, posterior_mean, run,
                     run_lloyd_baseline, sample_density)
from gpcover.density import DensityField, scenario_mixture

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
    agents: list = []
    hyper_consistent: list[bool] = []
    real_report = sim.cell_cost_report

    def probe(t, team):
        agents[:] = team
        observed.append([len(agent.buffer) for agent in agents])

    def report(cell, pos, gp, quad):
        # the cost reads agent i's model under agent i's agreed hyperparameters
        agent = agents[len(hyper_consistent) % len(agents)]
        hyper_consistent.append(gp is agent.gp and gp.hyper == agent.hyper)
        return real_report(cell, pos, gp, quad)

    with patch.object(sim, "cell_cost_report", report):
        run(TINY.with_overrides(rounds=10), sample_probe=probe)
    # the probe fires after sampling, before any refresh: sizes cycle with T=3
    expected = [1 if t == 0 else ((t - 1) % 3) + 1 for t in range(10)]
    for t, sizes in enumerate(observed):
        assert sizes == [expected[t]] * TINY.n_agents
    assert len(hyper_consistent) == 10 * TINY.n_agents and all(hyper_consistent)


def test_rmse_is_the_dense_rmse_of_the_agents_models():
    config = TINY.with_overrides(width=48, height=27, seed=1, rounds=20, rmse_stride=5,
                                 refit_steps=2)
    domain = config.domain()
    field = build_scenario(config.scenario, domain, config.scenario_params)
    xs, ys = domain.axis_centers()
    xs, ys = xs[::5], ys[::5]
    gx, gy = np.meshgrid(xs, ys)
    query = np.column_stack([gx.ravel(), gy.ravel()])
    phi = field.values[::5, ::5].ravel()
    audit, agents, held = AccessAudit(), [], []
    real_cost = sim.true_locational_cost

    def models_after_round(*args):
        # called once a round, after the rmse; the models it sees are those scored
        with audit.metrics():
            held.append([a.gp for a in agents])
        return real_cost(*args)

    with patch.object(sim, "true_locational_cost", models_after_round):
        trace = run(config, audit, sample_probe=lambda t, a: agents[:] or agents.extend(a))
    assert len(held) == config.rounds
    for t, models in enumerate(held):
        lattice = [float(np.sqrt(np.mean((sim.lattice_posterior_mean(gp, xs, ys) - phi) ** 2)))
                   for gp in models]
        assert trace.rmse[t] == float(np.mean(lattice))
        dense = [float(np.sqrt(np.mean((posterior_mean(gp, query) - phi) ** 2)))
                 for gp in models]
        np.testing.assert_allclose(np.mean(lattice), np.mean(dense), rtol=1e-12)


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


# a full-grid mean and a short acceptance-6 run, both with products well above
# the size at which OpenBLAS starts to use more than one thread; an odd box
# width is where a threaded GEMM was seen to round differently
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from gpcover import Hyperparams, SimConfig, SparseGP, run
from gpcover.gp import lattice_posterior_mean
rng = np.random.default_rng(5)
rows = np.column_stack([rng.uniform([0, 0], [171, 135], size=(60, 2)), rng.uniform(0, 1, 60)])
gp = SparseGP.fit(rows, Hyperparams(20.0, 1.0, 1e-3))
mean = lattice_posterior_mean(gp, np.arange(171) + 0.5, np.arange(135) + 0.5)
run(SimConfig(width=240, height=135, scenario="four_gaussians", n_agents=4, seed=1,
              rounds=20, T=3, M=60, beta=2.0, single_stride=2, pair_budget=256,
              signal_variance0=1.2e-4, noise_sigma=0.002, lengthscale0=24.0, epsilon=1e-4,
              eta=2.0, eta_adam=0.6, v_max=4.0, rmse_stride=8)).to_csv(sys.argv[1])
with open(sys.argv[1], "rb") as f:
    print(hashlib.sha256(mean.tobytes()).hexdigest(), hashlib.sha256(f.read()).hexdigest())
"""


# the paper scale: the cost reports of the four cells of the benchmark's paper
# start (perfbench/workloads.py's PAPER_START) under a 60-row GP, on boxes of
# about 300 by 490 pixels in 32-39 GEMM blocks each, at the default pair budget
# and at 1024, where the exploration term's lattice products are four times
# the GEMM bound, and a short run of the paper workload; the report and the
# run moved with the thread count while the expected cost reduced each cell's
# 130,000 pixels with 1-D products of that length
_PAPER_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from gpcover import (Domain, Hyperparams, QuadratureSpec, SimConfig, SparseGP, cell_cost_report,
                     cell_pixels, compute_partition, run)
start = [[297.6, 151.2], [652.8, 178.2], [326.4, 383.4], [633.6, 372.6]]
domain = Domain(960, 540)
part = compute_partition(start, domain)
rng = np.random.default_rng(5)
rows = np.column_stack([rng.uniform([0, 0], [960, 540], size=(60, 2)), rng.uniform(-0.2, 1, 60)])
gp = SparseGP.fit(rows, Hyperparams(21.6, 1.0, 1e-3))
reports = []
for budget in (256, 1024):
    report = hashlib.sha256()
    for i, pos in enumerate(start):
        r = cell_cost_report(cell_pixels(part, i, domain), pos, gp,
                             QuadratureSpec(pair_budget=budget, beta=2.0))
        report.update(np.array([r.expected, r.std, *r.grad_expected, *r.grad_std]).tobytes())
    reports.append(report.hexdigest())
trace = run(SimConfig(rounds=20, seed=4, init_mode="explicit", explicit_positions=start))
trace.to_csv(sys.argv[1])
with open(sys.argv[1], "rb") as f:
    print(*reports, hashlib.sha256(f.read()).hexdigest())
"""


# the benchmark's team workload (perfbench/workloads.py's TEAM): 12 cells a
# round and hyperparameter refits, which the other two probes do not reach
_TEAM_THREAD_PROBE = """
import hashlib, sys
from gpcover import SimConfig, run
run(SimConfig(width=240, height=135, scenario="hotspots", n_agents=12, seed=4, rounds=20,
              T=5, M=60, refit_steps=5, alpha=0.09, init_mode="cluster",
              cluster_corner="ll")).to_csv(sys.argv[1])
with open(sys.argv[1], "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())
"""


def test_runs_are_bit_identical_under_one_and_two_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        csv = str(tmp_path / f"{threads}.csv")
        digests.append([subprocess.run([sys.executable, "-c", probe, csv], env=env,
                                       capture_output=True, text=True, check=True).stdout.split()
                        for probe in (_THREAD_PROBE, _PAPER_THREAD_PROBE, _TEAM_THREAD_PROBE)])
    assert digests[0][0] == digests[1][0], "desk"
    assert digests[0][1] == digests[1][1], "paper"
    assert digests[0][2] == digests[1][2], "team"


def test_refit_run_reproduces_its_recorded_numbers():
    # acceptance 8's small hotspots config with the hyperparameter refit on;
    # the literals pin the numerics, so a refactor that moves them shows here
    config = SimConfig(width=96, height=54, scenario="hotspots", n_agents=4, seed=11,
                       rounds=20, T=5, M=40, refit_steps=3, single_stride=4,
                       pair_budget=128, rmse_stride=16)
    trace = run(config)
    np.testing.assert_allclose(trace.true_cost, [
        43633840.800980225, 35763474.70332304, 30697694.49198035, 28944520.492081195,
        30377724.56357477, 28986404.915171184, 30045584.52743783, 29991945.180042274,
        29748452.349743612, 29978029.354683608, 29689240.6306642, 30011614.042648192,
        29685372.006494693, 30003639.27233816, 29682106.99586934, 30033749.89384339,
        29682556.482739262, 30033111.880002268, 29684379.31069006, 30027433.690249152,
    ], rtol=1e-9)
    np.testing.assert_allclose(trace.rmse, [
        66.5861324907505, 66.58881360415154, 66.58964379787794, 66.59000683272352,
        66.59018958170813, 63.889412861250456, 63.890203918165426, 63.8896451521055,
        63.88909534738427, 63.88872170788467, 54.62808228468612, 54.63914953725707,
        54.64156662920475, 54.6421018422727, 54.64223932505924, 47.09527016552687,
        47.09023559514822, 47.0872881805668, 47.085566363988484, 47.08454464369652,
    ], rtol=1e-9)
    np.testing.assert_allclose(trace.positions[-1], [
        [76.95391764100843, 35.40907064723221], [66.42044964017515, 12.45017222376005],
        [16.324851584111983, 13.678787495472289], [22.474370178362776, 41.1260023518371],
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
    seed_vals = scenario_mixture("single_peak", Domain(domain_w, domain_h)).value_at(seed_pts)
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


def test_lloyd_run_reproduces_its_recorded_numbers():
    # acceptance 8's small hotspots config under the Lloyd step; the literals
    # pin the baseline's numerics, which otherwise only acceptance 6's ratio sees
    config = SimConfig(width=96, height=54, scenario="hotspots", n_agents=4, seed=11,
                       rounds=12)
    trace = run_lloyd_baseline(config)
    np.testing.assert_allclose(trace.true_cost, [
        39455345.61653732, 33208783.682727996, 30869566.71539411, 29825996.73208666,
        29269596.050274875, 28924058.99197927, 28691619.349170793, 28532877.69182801,
        28420241.104099825, 28342418.237375014, 28276204.022484705, 28234011.165397435,
    ], rtol=1e-9)
    np.testing.assert_allclose(trace.positions[-1], [
        [77.18209563275877, 37.54807458783355], [60.73548654383537, 14.191359445732012],
        [18.979513088977924, 14.49660184666639], [25.146787935856175, 38.46490525470149],
    ], rtol=1e-9)
    assert np.array_equal(trace.initial_positions, initial_positions(config, config.domain()))
    assert not trace.inducing_counts.any()


@pytest.mark.parametrize("exponent", [102, 130, 150])
def test_lloyd_runs_at_huge_cell_sizes(exponent):
    # the moments leave pixel_area out: x * pixel_area * density would overflow
    # to inf / inf = nan here, and the centroid step would leave the workspace
    config = SimConfig(width=48, height=27, n_agents=2, rounds=2, scenario="uniform",
                       cell_size=10.0 ** exponent)
    with np.errstate(over="ignore"):  # the true cost itself overflows (ROADMAP item 8)
        trace = run_lloyd_baseline(config)
    domain = config.domain()
    assert np.isfinite(trace.positions).all()
    assert all(domain.contains(p) for p in trace.positions.reshape(-1, 2))
    # on a uniform density each centroid is its cell's geometric centre
    part = compute_partition(trace.initial_positions, domain)
    field = build_scenario("uniform", domain)
    _, centroids = mass_centroid(part, field)
    for i, centroid in enumerate(centroids):
        np.testing.assert_allclose(centroid, cell_pixels(part, i, domain).geometric_center,
                                   rtol=1e-12)


def test_config_validation_rejects_bad_values():
    for overrides in (dict(n_agents=0), dict(rounds=0), dict(T=0), dict(M=0),
                      dict(beta=-1.0), dict(alpha=0.0), dict(pair_budget=2),
                      dict(init_mode="nope"), dict(lloyd_gamma=0.0),
                      dict(lengthscale0=-1.0), dict(signal_variance0=0.0),
                      dict(noise_variance0=-1e-3), dict(seed=-1), dict(rounds=2.5),
                      dict(n_agents=2.0), dict(n_agents=True), dict(pair_budget=16.5),
                      dict(width=24.0), dict(height="54"), dict(T=1.5), dict(M=8.0),
                      dict(k=None), dict(single_stride=2.0), dict(refit_steps=False),
                      dict(rmse_stride=4.5), dict(beta="2"), dict(v_max=None),
                      dict(cell_size="1"), dict(eta=True), dict(lengthscale0="24"),
                      dict(prior_mean0=None), dict(log_space_consensus="no"),
                      dict(explicit_positions=((1.0,),)),
                      dict(explicit_positions=((3.0, 4.0, 5.0),)),
                      dict(explicit_positions=(("1", 2.0),)), dict(noise_variance0=0.0),
                      dict(initial_inducing=(np.zeros((1, 3)),) * 3),
                      dict(initial_inducing=(((np.nan, 1.0, 1.0),),) + (np.zeros((0, 3)),) * 3),
                      dict(initial_inducing=(((1.0, 2.0),),) * 4),
                      dict(initial_inducing=((("1", 2.0, 3.0),),) * 4),
                      dict(initial_inducing=(((1.0, 2.0, 3.0), (4.0,)),) * 4),
                      dict(initial_inducing=5), dict(scenario="bogus"), dict(scenario=None),
                      dict(scenario_params={"background": 1.0}),
                      dict(scenario_params=[[1, 1, 2, 1]], scenario="custom"),
                      dict(scenario_params={"blobs": [[1, 1, 2, 1]], "sigma": 3},
                           scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, 2]]}, scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, "2", 1]]}, scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, 2, None]]}, scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, -1, 1]]}, scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, 0, 1]]}, scenario="custom"),
                      dict(scenario_params={"blobs": [[10, 10, 2, -1]]}, scenario="custom"),
                      dict(scenario_params={"blobs": 5}, scenario="custom"),
                      dict(scenario_params={"background": -0.5}, scenario="custom"),
                      dict(scenario_params={"background": float("nan")}, scenario="custom"),
                      # every float field must be finite, v_max too
                      dict(prior_mean0=float("nan")), dict(prior_mean0=float("inf")),
                      dict(beta=float("inf")), dict(noise_sigma=float("inf")),
                      dict(noise_variance0=float("inf")), dict(eta=float("inf")),
                      dict(hyper_spread=float("inf")), dict(cell_size=float("inf")),
                      dict(lengthscale0=float("inf")), dict(signal_variance0=float("inf")),
                      dict(v_max=float("inf")), dict(alpha=float("nan")),
                      dict(eta_adam=float("-inf")), dict(epsilon=np.float64("nan")),
                      dict(lloyd_gamma=float("nan")), dict(beta=10 ** 400),
                      # the named scenario's blob width, scaled to this domain, underflows
                      dict(cell_size=1e-170, width=48, height=27, n_agents=2, rounds=2),
                      # the world's squared diagonal overflows, or the world size itself
                      dict(cell_size=1e200, width=48, height=27, n_agents=2, rounds=2,
                           scenario="uniform"),
                      dict(cell_size=1e307, width=48, height=27, n_agents=2, rounds=2,
                           scenario="uniform"),
                      dict(cell_size=1e200, width=48, height=27, n_agents=2, rounds=2,
                           scenario="uniform", lengthscale0=24.0),
                      # 2 * l**2 of the derived, the given or the spread lengthscale
                      # underflows or overflows
                      dict(cell_size=1e-300, width=48, height=27, n_agents=2, rounds=2,
                           scenario="uniform"),
                      dict(lengthscale0=1e-200, width=48, height=27, n_agents=2, rounds=2),
                      dict(lengthscale0=1e200, width=48, height=27, n_agents=2, rounds=2),
                      dict(hyper_spread=800.0, width=48, height=27, n_agents=2, rounds=2),
                      # only the narrowest lengthscale that the spread can draw underflows
                      dict(hyper_spread=10.0, lengthscale0=1e-160)):
        with pytest.raises(ConfigurationError, match=next(iter(overrides))):
            SimConfig(**overrides).validate()
    # custom parameters are checked without rasterizing the density
    with patch.object(DensityField, "from_mixture", side_effect=AssertionError("rasterized")):
        SimConfig(scenario="custom",
                  scenario_params={"blobs": [[1, 2, 3, 4]], "background": 0.5}).validate()
        SimConfig(scenario="custom").validate()
        # so are the named scenarios, scaled to their domain
        SimConfig().validate()
        with pytest.raises(ConfigurationError, match="sigma"):
            SimConfig(width=48, height=27, n_agents=2, rounds=2, cell_size=1e-170).validate()
        # and the world's scales
        with pytest.raises(ConfigurationError, match="cell_size"):
            SimConfig(width=48, height=27, n_agents=2, rounds=2, scenario="uniform",
                      cell_size=1e200, lengthscale0=24.0).validate()
        with pytest.raises(ConfigurationError, match="hyper_spread"):
            SimConfig(hyper_spread=800.0).validate()
    # explicit positions outside the workspace fail up front, named and in plain floats
    with pytest.raises(ConfigurationError,
                       match=r"explicit_positions\[1\] at \(200\.0, 5\.0\) is outside"):
        SimConfig(width=24, height=14, n_agents=2, init_mode="explicit",
                  explicit_positions=((1.0, 1.0), (200.0, 5.0))).validate()
    # empty blocks are allowed, as are rows of integers
    SimConfig(n_agents=2, initial_inducing=(np.zeros((0, 3)), [[1, 2, 3]])).validate()
    # numpy integers are integers
    SimConfig(n_agents=np.int64(3), seed=np.int32(2)).validate()
    # far from the float range's ends, small and large scales are fine
    SimConfig(lengthscale0=1e-140, hyper_spread=10.0).validate()
    SimConfig(lengthscale0=1e140, hyper_spread=10.0).validate()
    # zero noise is fine when consensus averages the noise variance linearly
    SimConfig(noise_variance0=0.0, log_space_consensus=False).validate()
    with pytest.raises(ConfigurationError):
        SimConfig(init_mode="explicit", n_agents=2,
                  explicit_positions=((1.0, 1.0),)).validate()


def test_run_on_a_zero_density_needs_a_signal_variance():
    # a zero background, a blob of amplitude 0, and a blob that underflows to 0
    # at every pixel centre all rasterize to zero: signal_variance0 cannot be derived
    base = dict(width=48, height=27, n_agents=2, rounds=2, scenario="custom")
    for params in ({"background": 0.0}, {"blobs": [[10.0, 10.0, 3.0, 0.0]]},
                   {"blobs": [[10.0, 10.0, 0.01, 1.0]]}):
        config = SimConfig(**base, scenario_params=params)
        config.validate()
        with pytest.raises(ConfigurationError, match="signal_variance0"):
            run(config)
        # Lloyd needs no model and runs on it, at zero cost
        assert not run_lloyd_baseline(config).true_cost.any()
    trace = run(SimConfig(**base, scenario_params={"background": 0.0}, signal_variance0=1.0))
    assert trace.n_rounds == 2 and not trace.true_cost.any()


def test_run_rejects_unstable_consensus_alpha():
    # five agents in a line: the middle ones reach degree 2; alpha = 0.6
    # violates the 1/d_max bound as soon as that graph appears
    config = SimConfig(width=50, height=6, scenario="uniform", n_agents=5, seed=0,
                       rounds=4, alpha=0.6, init_mode="explicit",
                       explicit_positions=((5.0, 3.0), (15.0, 3.0), (25.0, 3.0),
                                           (35.0, 3.0), (45.0, 3.0)))
    with pytest.raises(ConfigurationError):
        run(config)
