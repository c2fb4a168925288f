"""Synchronous round engine with a decentralization audit.

Every round each agent averages hyperparameters with its Voronoi neighbors,
samples the hidden density at its own position, periodically rebuilds its
sparse GP from its buffer plus its neighbors' inducing sets, and moves one
step down its spatially-informed cost. The engine runs each phase under an
explicit audit context; any read of agent-owned state that the active phase
does not sanction is recorded and fails the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .consensus import ConsensusConfig, consensus_step
from .control import OptimizerState, step as control_step, record_std
from .cost import QuadratureSpec, cell_cost_report, mass_centroid, true_locational_cost
from .density import DensityField, bilinear, build_scenario
from .errors import ConfigurationError, DecentralizationError
from .geometry import Domain, cell_pixels, compute_partition
from .gp import Hyperparams, SparseGP, greedy_select, merge_inducing, posterior_mean, \
    refit_hyperparams

_TRACKED_FIELDS = frozenset({"pos", "hyper", "gp", "buffer", "opt"})

CSV_FIXED_COLUMNS = ("step", "true_cost", "rmse", "messages")


def sample_density(field: DensityField, position, noise_sigma: float, rng) -> float:
    """One noisy point observation of the hidden density.

    Bilinear interpolation of the grid plus Gaussian noise; a draw is
    consumed even at ``noise_sigma == 0`` so streams stay aligned across
    noise settings.
    """
    return bilinear(field, position) + float(rng.normal(0.0, noise_sigma))


class AccessAudit:
    """Tracks reads of agent-owned state against the phase that performed them.

    The engine swaps contexts as it moves through the round; ``record_read``
    checks the active context's sanction table. Message sends are logged as
    ``(round, kind, src, dst)`` tuples, one per directed edge.
    """

    def __init__(self):
        self._context: tuple = ("engine",)
        self.round = -1
        self.violations: list[tuple] = []
        self.messages: list[tuple] = []

    @contextmanager
    def context(self, *ctx):
        previous = self._context
        self._context = ctx
        try:
            yield
        finally:
            self._context = previous

    def agent(self, agent_id: int):
        """Context for agent-local computation: only that agent's state is readable."""
        return self.context("agent", agent_id)

    def exchange(self, kind: str):
        """Context for a message exchange: only the exchanged field is readable."""
        return self.context("exchange", kind)

    def metrics(self):
        """Context for privileged evaluation: every read is sanctioned."""
        return self.context("metrics")

    def send(self, kind: str, src: int, dst: int) -> None:
        self.messages.append((self.round, kind, src, dst))

    def record_read(self, owner_id: int, field_name: str) -> None:
        ctx = self._context
        if ctx[0] == "metrics":
            return
        if ctx[0] == "agent":
            if ctx[1] == owner_id:
                return
        elif ctx[0] == "exchange":
            allowed = "hyper" if ctx[1] == "hyper" else "gp"
            if field_name == allowed:
                return
        elif ctx[0] == "engine":
            # the engine itself only needs positions, for partition geometry
            if field_name == "pos":
                return
        self.violations.append((self.round, ctx, owner_id, field_name))


@dataclass(repr=False, eq=False)
class AgentState:
    """One agent's private state; reads are reported to the audit when present.

    ``buffer`` holds the ``(x, y, value)`` observations since the last refresh.
    """

    id: int
    pos: np.ndarray
    hyper: Hyperparams
    gp: SparseGP
    buffer: list[tuple[float, float, float]]
    opt: OptimizerState
    audit: AccessAudit | None = None

    def __getattribute__(self, name):
        if name in _TRACKED_FIELDS:
            audit = object.__getattribute__(self, "__dict__").get("audit")
            if audit is not None:
                audit.record_read(object.__getattribute__(self, "id"), name)
        return object.__getattribute__(self, name)


@dataclass(eq=False)
class SimTrace:
    """Per-round metrics and positions of one run."""

    initial_positions: np.ndarray
    steps: np.ndarray
    true_cost: np.ndarray
    rmse: np.ndarray
    messages: np.ndarray
    positions: np.ndarray
    inducing_counts: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.positions.shape[1]

    @property
    def n_rounds(self) -> int:
        return len(self.steps)

    def header(self) -> str:
        agent_cols = [f"agent{i}_{axis}" for i in range(self.n_agents) for axis in ("x", "y")]
        return ",".join([*CSV_FIXED_COLUMNS, *agent_cols])

    def to_csv(self, path) -> None:
        """Write the trace with the pinned column schema; bit-stable formatting."""
        lines = [self.header()]
        for t in range(self.n_rounds):
            row = [str(int(self.steps[t])), repr(float(self.true_cost[t])),
                   repr(float(self.rmse[t])), str(int(self.messages[t]))]
            row.extend(repr(float(v)) for v in self.positions[t].ravel())
            lines.append(",".join(row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _corner_box(domain: Domain, corner: str) -> tuple[np.ndarray, np.ndarray]:
    w, h = domain.world_width, domain.world_height
    lo_frac, hi_frac = 0.02, 0.14
    x0, x1 = lo_frac * w, hi_frac * w
    y0, y1 = lo_frac * h, hi_frac * h
    if corner in ("lr", "ur"):
        x0, x1 = w - x1, w - x0
    if corner in ("ul", "ur"):
        y0, y1 = h - y1, h - y0
    return np.array([x0, y0]), np.array([x1, y1])


def initial_positions(config: SimConfig, domain: Domain) -> np.ndarray:
    """Deterministic per-seed starting positions, shared by all methods.

    Each agent draws from its own seed substream, so adding agents never
    perturbs the positions of existing ones.
    """
    if config.init_mode == "explicit":
        pos = np.array(config.explicit_positions, dtype=float)
        for i, p in enumerate(pos):
            if not domain.contains(p):
                raise ConfigurationError(f"explicit position {i} at {tuple(p)} is outside the workspace")
        return pos
    if config.init_mode == "cluster":
        lo, hi = _corner_box(domain, config.cluster_corner)
    else:
        lo = np.zeros(2)
        hi = np.array([domain.world_width, domain.world_height])
    out = np.empty((config.n_agents, 2))
    for i in range(config.n_agents):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0, i)))
        out[i] = lo + rng.uniform(size=2) * (hi - lo)
    return out


def _initial_hyper(config: SimConfig, domain: Domain, field: DensityField,
                   noise_sigma: float, agent_id: int) -> Hyperparams:
    base_l = config.lengthscale0
    if base_l is None:
        base_l = 0.04 * min(domain.world_width, domain.world_height)
    base_sv = config.signal_variance0
    if base_sv is None:
        base_sv = (0.5 * field.max_value) ** 2
    base_nv = config.noise_variance0
    if base_nv is None:
        # floored so log-space consensus stays defined under zero sampling noise
        base_nv = max(noise_sigma ** 2, 1e-6 * base_sv)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2, agent_id)))
    spread = config.hyper_spread
    f_l, f_sv, f_nv = np.exp(rng.uniform(-spread, spread, size=3))
    return Hyperparams(base_l * f_l, base_sv * f_sv, base_nv * f_nv, config.prior_mean0)


def _init_agents(config: SimConfig, domain: Domain, field: DensityField,
                 noise_sigma: float, audit: AccessAudit) -> list[AgentState]:
    positions = initial_positions(config, domain)
    seeds = config.initial_inducing
    if seeds is not None and len(seeds) != config.n_agents:
        raise ConfigurationError("initial_inducing must provide one block per agent")
    agents = []
    for i in range(config.n_agents):
        hyper = _initial_hyper(config, domain, field, noise_sigma, i)
        inducing = np.zeros((0, 3)) if seeds is None else np.asarray(seeds[i], dtype=float)
        gp = SparseGP.fit(inducing, hyper)
        opt = OptimizerState(eta=config.eta, eta_adam=config.eta_adam, v_max=config.v_max,
                             k=config.k, epsilon=config.epsilon)
        agents.append(AgentState(i, positions[i].copy(), hyper, gp, [], opt, audit))
    return agents


def _metric_grid(domain: Domain, field: DensityField, stride: int):
    xs, ys = domain.axis_centers()
    gx, gy = np.meshgrid(xs[::stride], ys[::stride])
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts, field.values[::stride, ::stride].ravel()


def run(config: SimConfig, audit: AccessAudit | None = None, sample_probe=None) -> SimTrace:
    """Run the decentralized method for ``config.rounds`` synchronous rounds.

    Returns the metrics trace; raises ``DecentralizationError`` if any phase
    read agent state it was not sanctioned to see. ``sample_probe(t, agents)``
    is an optional instrumentation hook invoked after the sampling phase of
    each round under the privileged metrics context.
    """
    config.validate()
    domain = config.domain()
    field = build_scenario(config.scenario, domain, config.scenario_params)
    noise_sigma = config.noise_sigma
    if noise_sigma is None:
        noise_sigma = 0.05 * field.max_value
    if audit is None:
        audit = AccessAudit()

    agents = _init_agents(config, domain, field, noise_sigma, audit)
    noise_rngs = [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, i)))
        for i in range(config.n_agents)
    ]
    quad = QuadratureSpec(config.single_stride, config.pair_budget, config.beta)
    consensus_cfg = ConsensusConfig(config.alpha, config.log_space_consensus)
    metric_pts, metric_phi = _metric_grid(domain, field, config.rmse_stride)

    n = config.n_agents
    init_positions = np.array([a.pos for a in agents])
    steps = np.arange(1, config.rounds + 1)
    true_cost = np.empty(config.rounds)
    rmse = np.empty(config.rounds)
    messages = np.zeros(config.rounds, dtype=np.int64)
    positions_log = np.empty((config.rounds, n, 2))
    inducing_counts = np.zeros((config.rounds, n), dtype=np.int64)

    partition = compute_partition([a.pos for a in agents], domain)

    for t in range(config.rounds):
        audit.round = t
        messages_before = len(audit.messages)
        edges = partition.edges()

        # hyperparameter consensus over the current neighbor graph
        with audit.exchange("hyper"):
            params = [a.hyper for a in agents]
            for i, j in edges:
                audit.send("hyper", i, j)
                audit.send("hyper", j, i)
        new_params = consensus_step(params, partition.laplacian, consensus_cfg)
        for i, agent in enumerate(agents):
            with audit.agent(i):
                agent.hyper = new_params[i]
                agent.gp = agent.gp.with_hyper(new_params[i])

        # each agent samples the hidden density at its own position
        for i, agent in enumerate(agents):
            with audit.agent(i):
                value = sample_density(field, agent.pos, noise_sigma, noise_rngs[i])
                agent.buffer.append((*agent.pos, value))
        if sample_probe is not None:
            with audit.metrics():
                sample_probe(t, agents)

        # periodic model refresh from buffer plus neighbor inducing sets
        if t % config.T == 0:
            with audit.exchange("inducing"):
                shared = [np.array(a.gp.inducing) for a in agents]
                for i, j in edges:
                    audit.send("inducing", i, j)
                    audit.send("inducing", j, i)
            for i, agent in enumerate(agents):
                with audit.agent(i):
                    received = [shared[j] for j in partition.neighbors[i]]
                    merged = merge_inducing(agent.gp.inducing, agent.buffer, received)
                    selected = greedy_select(merged, config.M, agent.hyper)
                    agent.gp = SparseGP.fit(selected, agent.hyper)
                    if config.refit_steps > 0:
                        refitted = refit_hyperparams(agent.gp, config.refit_steps)
                        agent.hyper = refitted
                        agent.gp = agent.gp.with_hyper(refitted)
                    agent.buffer.clear()

        # one motion step down the spatially-informed cost
        for i, agent in enumerate(agents):
            with audit.agent(i):
                cell = cell_pixels(partition, i, domain)
                report = cell_cost_report(cell, agent.pos, agent.gp, quad)
                agent.opt = record_std(agent.opt, report.std)
                agent.pos, agent.opt = control_step(agent.pos, report.grad_total,
                                                    agent.opt, domain)

        # end-of-round bookkeeping; the new partition carries into the next round
        current = np.array([a.pos for a in agents])
        partition = compute_partition(current, domain)
        positions_log[t] = current
        true_cost[t] = true_locational_cost(current, partition, field)
        with audit.metrics():
            errs = []
            for agent in agents:
                mu = posterior_mean(agent.gp, metric_pts)
                errs.append(float(np.sqrt(np.mean((mu - metric_phi) ** 2))))
                inducing_counts[t, agent.id] = len(agent.gp)
            rmse[t] = float(np.mean(errs))
        messages[t] = len(audit.messages) - messages_before

    if audit.violations:
        sample = audit.violations[:5]
        raise DecentralizationError(
            f"{len(audit.violations)} unsanctioned cross-agent reads, first: {sample}")
    return SimTrace(init_positions, steps, true_cost, rmse, messages,
                    positions_log, inducing_counts)


def run_lloyd_baseline(config: SimConfig) -> SimTrace:
    """Privileged Lloyd iteration on the true density, for comparison plots.

    Agents move a ``lloyd_gamma`` fraction toward their true-density cell
    centroid each round, with the same speed cap and workspace projection as
    the learned method. Model-fit columns are not meaningful here: ``rmse``
    is NaN and ``messages`` stays zero.
    """
    config.validate()
    domain = config.domain()
    field = build_scenario(config.scenario, domain, config.scenario_params)
    flat_values = field.values.ravel()

    positions = initial_positions(config, domain)
    n = config.n_agents
    steps = np.arange(1, config.rounds + 1)
    true_cost = np.empty(config.rounds)
    rmse = np.full(config.rounds, np.nan)
    messages = np.zeros(config.rounds, dtype=np.int64)
    positions_log = np.empty((config.rounds, n, 2))

    partition = compute_partition(positions, domain)
    for t in range(config.rounds):
        new_positions = positions.copy()
        for i in range(n):
            cell = cell_pixels(partition, i, domain)
            if len(cell) == 0:
                continue
            _, centroid = mass_centroid(cell, flat_values[partition.cells[i]])
            disp = config.lloyd_gamma * (centroid - positions[i])
            speed = float(np.linalg.norm(disp))
            if speed > config.v_max:
                disp = disp * (config.v_max / speed)
            new_positions[i] = domain.clamp(positions[i] + disp)
        positions = new_positions
        partition = compute_partition(positions, domain)
        positions_log[t] = positions
        true_cost[t] = true_locational_cost(positions, partition, field)

    return SimTrace(initial_positions(config, domain), steps, true_cost, rmse, messages,
                    positions_log, np.zeros((config.rounds, n), dtype=np.int64))
