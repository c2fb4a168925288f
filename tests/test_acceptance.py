"""End-to-end acceptance gate.

Nine numbered checks, each printing one ``[ACCEPTANCE] n name: PASS/FAIL``
line and enforcing a wall-time budget alongside its functional tolerance.
The lines are also replayed in the terminal summary (see conftest) so
they stay visible under default output capture.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import _acceptance_log
import gpcover
import oracles
from gpcover import (
    AccessAudit,
    ConsensusConfig,
    Domain,
    Hyperparams,
    QuadratureSpec,
    SimConfig,
    SparseGP,
    cell_pixels,
    compute_partition,
    consensus_step,
    expected_cost,
    greedy_select,
    merge_inducing,
    posterior_covariance_product,
    posterior_mean,
    run,
    run_lloyd_baseline,
    variance_cost,
)
from gpcover.gp import lattice_posterior_mean


def criterion(number, name, limit_s):
    """Wrap a test so it reports one acceptance line and a runtime budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            finished = False
            try:
                fn(*args, **kwargs)
                finished = True
            finally:
                # the time is reported on FAIL lines too, so the summary
                # tells a blown budget from a failed tolerance
                elapsed = time.perf_counter() - t0
                in_budget = elapsed < limit_s
                verdict = "PASS" if finished and in_budget else "FAIL"
                over = "" if in_budget else f", over the {limit_s} s budget"
                line = f"[ACCEPTANCE] {number} {name}: {verdict} ({elapsed:.1f} s{over})"
                print(line)
                _acceptance_log.LINES.append(line)
            assert in_budget, f"{name}: {elapsed:.1f} s exceeds the {limit_s} s budget"

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. analytic cost gradients vs central finite differences


@criterion(1, "gradient-oracle", 30)
def test_gradients_match_finite_differences():
    domain = Domain(96, 54)
    spec = QuadratureSpec(single_stride=3, pair_budget=64)
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n_agents = int(rng.integers(3, 7))
        positions = rng.uniform((2.0, 2.0), (94.0, 52.0), size=(n_agents, 2))
        partition = compute_partition(positions, domain)
        agent = int(rng.integers(0, n_agents))
        cell = cell_pixels(partition, agent, domain)

        inducing = np.column_stack([
            rng.uniform((0.0, 0.0), (96.0, 54.0), size=(20, 2)),
            rng.normal(0.5, 1.0, size=20),
        ])
        hyper = Hyperparams(
            lengthscale=float(rng.uniform(5.0, 15.0)),
            signal_variance=float(rng.uniform(0.5, 2.0)),
            noise_variance=float(rng.uniform(1e-3, 1e-2)),
        )
        gp = SparseGP.fit(inducing, hyper)
        pos = rng.uniform((5.0, 5.0), (91.0, 49.0), size=2)

        _, grad_e = expected_cost(cell, pos, gp, spec)
        std, grad_s = variance_cost(cell, pos, gp, spec)
        assert std > 1e-6

        fd_e = oracles.central_fd(
            lambda p: expected_cost(cell, p, gp, spec)[0], pos, h=1e-2)
        fd_s = oracles.central_fd(
            lambda p: variance_cost(cell, p, gp, spec)[0], pos, h=1e-2)

        rel_e = np.linalg.norm(grad_e - fd_e) / max(np.linalg.norm(fd_e), 1e-12)
        rel_s = np.linalg.norm(grad_s - fd_s) / max(np.linalg.norm(fd_s), 1e-12)
        assert rel_e < 1e-4, f"trial {trial}: expected-cost gradient off by {rel_e:.2e}"
        assert rel_s < 1e-3, f"trial {trial}: std gradient off by {rel_s:.2e}"


# ---------------------------------------------------------------------------
# 2. sparse conditioning with all samples inducing == dense exact GP


@criterion(2, "sparse-equals-full", 5)
def test_sparse_posterior_matches_dense_oracle():
    rng = np.random.default_rng(7)
    points = rng.uniform((0.0, 0.0), (96.0, 54.0), size=(40, 2))
    values = rng.normal(1.0, 0.8, size=40)
    hyper = Hyperparams(lengthscale=9.0, signal_variance=1.3,
                        noise_variance=5e-3, prior_mean=0.4)
    gp = SparseGP.fit(np.column_stack([points, values]), hyper)

    xs, ys = np.linspace(8, 88, 3), np.linspace(6, 48, 3)
    gx, gy = np.meshgrid(xs, ys)
    query = np.column_stack([gx.ravel(), gy.ravel()])

    ref_mean, ref_cov = oracles.dense_posterior(points, values, hyper, query)
    # the dense mean, the lattice mean that the expected cost and rmse read, and
    # the covariance product of the identity
    for mean in (posterior_mean(gp, query), lattice_posterior_mean(gp, xs, ys)):
        np.testing.assert_allclose(mean, ref_mean, rtol=0.0, atol=1e-8)
    cov = posterior_covariance_product(gp, query, np.eye(len(query)))
    np.testing.assert_allclose(cov, ref_cov, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# 3. incremental greedy selection == from-scratch greedy oracle


@criterion(3, "greedy-oracle", 5)
def test_greedy_selection_matches_from_scratch_oracle():
    for trial in range(5):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(8, 16))
        cand = np.column_stack([
            rng.uniform((0.0, 0.0), (60.0, 40.0), size=(n, 2)),
            rng.normal(0.0, 1.0, size=n),
        ])
        hyper = Hyperparams(lengthscale=float(rng.uniform(3.0, 12.0)),
                            signal_variance=1.0, noise_variance=1e-4)
        got = greedy_select(cand, 4, hyper)
        want = oracles.greedy_oracle(cand, 4, hyper)
        assert np.array_equal(got, want), f"trial {trial}: selection order differs"


# ---------------------------------------------------------------------------
# 4. consensus drives heterogeneous hyperparameters to the graph mean


@criterion(4, "consensus-convergence", 5)
def test_consensus_converges_on_delaunay_graphs():
    domain = Domain(96, 54)
    config = ConsensusConfig(alpha=0.2, log_space=True)
    for n_agents, seed in ((4, 0), (6, 0), (8, 6)):
        rng = np.random.default_rng(seed)
        positions = rng.uniform((2.0, 2.0), (94.0, 52.0), size=(n_agents, 2))
        partition = compute_partition(positions, domain)
        degrees = [len(nb) for nb in partition.neighbors]
        assert max(degrees) <= 4 and min(degrees) >= 1

        params = [
            Hyperparams(
                lengthscale=float(np.exp(rng.normal(2.0, 0.4))),
                signal_variance=float(np.exp(rng.normal(0.0, 0.5))),
                noise_variance=float(np.exp(rng.normal(-5.0, 0.5))),
                prior_mean=float(rng.normal(0.5, 0.3)),
            )
            for _ in range(n_agents)
        ]

        def averaging_space(ps):
            return np.array([
                [np.log(p.lengthscale), np.log(p.signal_variance),
                 np.log(p.noise_variance), p.prior_mean]
                for p in ps
            ])

        start = averaging_space(params)
        target = start.mean(axis=0)
        for _ in range(500):
            before = averaging_space(params).sum(axis=0)
            params = consensus_step(params, partition.laplacian, config)
            after = averaging_space(params).sum(axis=0)
            np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-10)

        final = averaging_space(params)
        assert np.abs(final - target).max() < 1e-6, (
            f"{n_agents} agents: consensus gap {np.abs(final - target).max():.2e}")


# ---------------------------------------------------------------------------
# 5. partition ownership, neighbor symmetry, Laplacian row sums


@criterion(5, "partition-invariants", 30)
def test_partition_against_brute_force_oracle():
    domain = Domain(96, 54)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_agents = 2 + seed % 7
        positions = rng.uniform((0.0, 0.0), (96.0, 54.0), size=(n_agents, 2))
        partition = compute_partition(positions, domain)

        assert np.array_equal(partition.owner,
                              oracles.brute_force_owner(positions, domain))
        for i, nb in enumerate(partition.neighbors):
            for j in nb:
                assert i in partition.neighbors[j]
        assert np.array_equal(partition.laplacian @ np.ones(n_agents, dtype=int),
                              np.zeros(n_agents, dtype=int))


# ---------------------------------------------------------------------------
# 6. desk-scale coverage trends against the privileged Lloyd baseline


ACCEPT6 = dict(
    width=240, height=135, scenario="four_gaussians", n_agents=4,
    rounds=500, T=3, M=60, beta=2.0, single_stride=2, pair_budget=256,
    signal_variance0=1.2e-4, noise_sigma=0.002, lengthscale0=24.0,
    epsilon=1e-4, eta=2.0, eta_adam=0.6, v_max=4.0, rmse_stride=8,
)

SEEDS = (1, 2, 3, 4, 5)


@criterion(6, "desk-scale-trends", 600)
def test_desk_scale_cost_trends():
    lloyd = [run_lloyd_baseline(SimConfig(seed=s, **ACCEPT6)).true_cost[-1]
             for s in SEEDS]
    proposed = [run(SimConfig(seed=s, **ACCEPT6)).true_cost[-1] for s in SEEDS]
    lloyd_med = float(np.median(lloyd))
    prop_med = float(np.median(proposed))
    print(f"  lloyd median {lloyd_med:.1f}, proposed median {prop_med:.1f} "
          f"(ratio {prop_med / lloyd_med:.3f})")
    assert prop_med <= 1.15 * lloyd_med, (
        f"median {prop_med:.1f} exceeds 115% of Lloyd median {lloyd_med:.1f}")

    cornered = dict(ACCEPT6, init_mode="cluster", cluster_corner="ll")
    explore = [run(SimConfig(seed=s, **cornered)).true_cost[-1] for s in SEEDS]
    greedy_only = [
        run(SimConfig(seed=s, **dict(cornered, beta=0.0))).true_cost[-1]
        for s in SEEDS
    ]
    med2, med0 = float(np.median(explore)), float(np.median(greedy_only))
    print(f"  cornered init: beta=2 median {med2:.1f}, beta=0 median {med0:.1f}")
    assert med2 < med0, (
        f"exploration term failed to escape the corner: {med2:.1f} vs {med0:.1f}")


# ---------------------------------------------------------------------------
# 7. decentralization audit over a full run


@criterion(7, "decentralization-audit", 120)
def test_no_unsanctioned_cross_agent_reads():
    audit = AccessAudit()
    config = SimConfig(width=96, height=54, scenario="four_gaussians",
                       n_agents=4, seed=3, rounds=500, T=5, M=40,
                       single_stride=4, pair_budget=128, rmse_stride=16)
    run(config, audit=audit)
    assert audit.violations == []


# ---------------------------------------------------------------------------
# 8. byte-identical traces for identical (config, seed)


@criterion(8, "determinism", 120)
def test_repeated_runs_are_byte_identical(tmp_path):
    config = SimConfig(width=96, height=54, scenario="hotspots", n_agents=4,
                       seed=11, rounds=60, T=5, M=40, single_stride=4,
                       pair_budget=128, rmse_stride=16)
    run(config).to_csv(tmp_path / "first.csv")
    run(config).to_csv(tmp_path / "second.csv")
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


# ---------------------------------------------------------------------------
# 9. refresh cost stays flat as history grows; dense refit does not


def _sparse_refresh(inducing, buffer, hyper, capacity):
    merged = merge_inducing(inducing, buffer)
    selected = greedy_select(merged, capacity, hyper)
    return SparseGP.fit(selected, hyper), selected


def _dense_refit(history, hyper):
    return SparseGP.fit(np.asarray(history), hyper)


def _refresh_scaling():
    """Acceptance 9's timed body: the sparse refresh against the dense refit."""
    rng = np.random.default_rng(42)
    hyper = Hyperparams(lengthscale=8.0, signal_variance=1.0, noise_variance=1e-2)
    stream = np.column_stack([
        rng.uniform((0.0, 0.0), (96.0, 54.0), size=(10_000, 2)),
        rng.normal(0.5, 1.0, size=10_000),
    ])

    def timed(fn, repeats=5):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    capacity = 60
    inducing = stream[:capacity].copy()
    sparse_times = {}
    for total in (100, 1_000, 10_000):
        # bring the inducing set up to date, then time a refresh against the
        # newest (disjoint) buffer so the candidate pool size is the real one
        _, inducing = _sparse_refresh(inducing, stream[total - 10:total - 5],
                                      hyper, capacity)
        buffer = stream[total - 5:total]
        sparse_times[total] = timed(
            lambda: _sparse_refresh(inducing, buffer, hyper, capacity))

    dense_times = {
        total: timed(lambda: _dense_refit(stream[:total], hyper), repeats=3)
        for total in (100, 1_600)
    }

    sparse_ratio = sparse_times[10_000] / sparse_times[100]
    dense_ratio = dense_times[1_600] / dense_times[100]
    print(f"  sparse refresh {sparse_times[100]*1e3:.1f} ms -> "
          f"{sparse_times[10_000]*1e3:.1f} ms (x{sparse_ratio:.2f}); "
          f"dense refit x{dense_ratio:.1f} for 16x the data")
    assert sparse_ratio <= 2.0, f"sparse refresh grew x{sparse_ratio:.2f}"
    assert dense_ratio > 16.0, (
        f"dense refit only grew x{dense_ratio:.1f} for 16x the data; "
        "expected clearly superlinear scaling")


# under two OpenBLAS threads, np.linalg.inv on a 100x100 factor sometimes
# spins for about 100 ms a call, through a whole stretch of the process, and
# the dense ratio then reads x6-x11; the timed body runs at one BLAS thread
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@criterion(9, "bounded-refresh", 120)
def test_sparse_refresh_time_is_bounded_while_dense_grows():
    env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
    paths = [str(Path(__file__).parent), str(Path(gpcover.__file__).parent.parent)]
    code = (f"import sys; sys.path[:0] = {paths!r}; "
            "import test_acceptance; test_acceptance._refresh_scaling()")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True)
    print(child.stdout, end="")
    lines = child.stderr.strip().splitlines()
    assert child.returncode == 0, lines[-1] if lines else f"exit code {child.returncode}"
