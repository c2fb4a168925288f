"""The benchmark's workloads: plain config mappings plus a run length.

Each mapping goes through ``gpcover.config_from_dict``, as a YAML file given
to ``gpcover run --config`` does; the benchmark adds only ``seed`` and
``rounds``. Round timings skip the first ``warmup`` rounds, during which the
agents' inducing sets are still filling and rounds are cheaper than in the
steady state (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mapping: dict
    rounds: int
    warmup: int


# the acceptance-6 (desk-scale-trends) config of tests/test_acceptance.py, without its
# rounds; the desk workload runs it from the check's cornered start
DESK = {
    "width": 240, "height": 135, "scenario": "four_gaussians", "n_agents": 4,
    "T": 3, "M": 60, "beta": 2.0, "single_stride": 2, "pair_budget": 256,
    "signal_variance0": 1.2e-4, "noise_sigma": 0.002, "lengthscale0": 24.0,
    "epsilon": 1e-4, "eta": 2.0, "eta_adam": 0.6, "v_max": 4.0, "rmse_stride": 8,
}

# every workload starts from positions that vary little with the seed; see README.md
CORNER = {"init_mode": "cluster", "cluster_corner": "ll"}
PAPER_START = [[297.6, 151.2], [652.8, 178.2], [326.4, 383.4], [633.6, 372.6]]

# 12 agents can have up to 11 Voronoi neighbours; alpha below 1/11 keeps every
# neighbour graph inside consensus_step's stability bound, whatever the seed
TEAM = {
    "domain": {"width": 240, "height": 135},
    "scenario": "hotspots",
    "n_agents": 12,
    "gp": {"T": 5, "M": 60, "refit_steps": 5},
    "consensus": {"alpha": 0.09},
    "init": CORNER,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("desk", "acceptance-6 config (240x135, 4 agents, T=3) from its cornered start: "
                 "greedy refreshes one round in three plus cell-cost evaluation, the path the "
                 "Tier-1 budget guards",
                 dict(DESK, **CORNER), rounds=120, warmup=30),
        Workload("paper", "default SimConfig at 960x540 from fixed starts: ~130k cost nodes per "
                 "cell make posterior_mean/kernel_matrix time and peak memory dominate; refresh "
                 "is light",
                 {"init": {"init_mode": "explicit", "explicit_positions": PAPER_START}},
                 rounds=52, warmup=20),
        Workload("team", "12 agents on hotspots with refits from a corner start: big greedy "
                 "candidate pools, ~55 messages a round, light cost evaluation, per-agent engine "
                 "overhead",
                 TEAM, rounds=90, warmup=25),
    )
}
