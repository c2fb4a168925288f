"""Synchronous round engine with a decentralization audit.

Every round each agent averages hyperparameters with its Voronoi neighbors,
samples the hidden density at its own position, periodically rebuilds its
sparse GP from its buffer plus its neighbors' inducing sets, and moves one
step down its spatially-informed cost. The engine runs each phase under an
explicit audit context; any read of agent-owned state that the active phase
does not sanction is recorded and fails the run. The trace's ``rmse`` scores
each agent's posterior mean on every ``rmse_stride``-th pixel centre along each
axis, every round, through :func:`gpcover.gp.lattice_posterior_mean`: the same
per-axis kernel product that the expected cost reads, which agrees with
:func:`gpcover.gp.posterior_mean` to rounding.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .config import SimConfig
from .consensus import ConsensusConfig, consensus_step
from .control import OptimizerState, _capped_move, step as control_step, record_std
from .cost import QuadratureSpec, cell_cost_report, mass_centroid, true_locational_cost
from .density import DensityField, bilinear, build_scenario
from .errors import ConfigurationError, DecentralizationError
from .geometry import Domain, cell_pixels, compute_partition
from .gp import Hyperparams, SparseGP, greedy_select, lattice_posterior_mean, merge_inducing, \
    refit_hyperparams
# the dense path, kept importable here for callers that look it up by name
from .gp import posterior_mean  # noqa: F401

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
        return np.array(config.explicit_positions, dtype=float)
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


def _initial_hyper(config: SimConfig, field: DensityField, noise_sigma: float,
                   agent_id: int) -> Hyperparams:
    base_sv = config.signal_variance0
    if base_sv is None:
        base_sv = (0.5 * field.max_value) ** 2
    base_nv = config.noise_variance0
    if base_nv is None:
        # floored so log-space consensus stays defined under zero sampling noise
        base_nv = max(noise_sigma ** 2, 1e-6 * base_sv)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(2, agent_id)))
    f_l, f_sv, f_nv = np.exp(rng.uniform(-config.hyper_spread, config.hyper_spread, size=3))
    return Hyperparams(config.base_lengthscale() * f_l, base_sv * f_sv, base_nv * f_nv,
                       config.prior_mean0)


def _init_agents(config: SimConfig, field: DensityField, noise_sigma: float,
                 positions: np.ndarray, audit: AccessAudit) -> list[AgentState]:
    seeds = config.initial_inducing
    agents = []
    for i in range(config.n_agents):
        hyper = _initial_hyper(config, field, noise_sigma, i)
        inducing = np.zeros((0, 3)) if seeds is None else np.asarray(seeds[i], dtype=float)
        gp = SparseGP.fit(inducing, hyper)
        opt = OptimizerState(eta=config.eta, eta_adam=config.eta_adam, v_max=config.v_max,
                             k=config.k, epsilon=config.epsilon)
        agents.append(AgentState(i, positions[i].copy(), hyper, gp, [], opt, audit))
    return agents


def _metric_grid(domain: Domain, field: DensityField, stride: int):
    """Every ``stride``-th pixel centre along each axis, and the density there row-major."""
    xs, ys = domain.axis_centers()
    return xs[::stride], ys[::stride], field.values[::stride, ::stride].ravel()


def _rollout(config: SimConfig, domain: Domain, field: DensityField,
             positions: np.ndarray, advance) -> SimTrace:
    """The round loop of both runs: move the team, re-partition, log and score.

    ``advance(t, positions, partition)`` moves the whole team through round
    ``t`` and returns ``(new_positions, rmse, messages, inducing_counts)``;
    the partition of the new positions carries into the next round.
    """
    rounds, n = config.rounds, len(positions)
    true_cost = np.empty(rounds)
    rmse = np.empty(rounds)
    messages = np.zeros(rounds, dtype=np.int64)
    positions_log = np.empty((rounds, n, 2))
    inducing_counts = np.zeros((rounds, n), dtype=np.int64)

    current = positions
    partition = compute_partition(current, domain)
    for t in range(config.rounds):
        current, rmse[t], messages[t], inducing_counts[t] = advance(t, current, partition)
        partition = compute_partition(current, domain)
        positions_log[t] = current
        true_cost[t] = true_locational_cost(partition, field)
    return SimTrace(positions.copy(), np.arange(1, rounds + 1), true_cost, rmse, messages,
                    positions_log, inducing_counts)


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
    if config.signal_variance0 is None and not (0.5 * field.max_value) ** 2 > 0:
        raise ConfigurationError(f"signal_variance0 must be given: it is derived as (max density "
                                 f"/ 2)**2, and the density's maximum is {field.max_value}")
    noise_sigma = config.noise_sigma
    if noise_sigma is None:
        noise_sigma = 0.05 * field.max_value
    if audit is None:
        audit = AccessAudit()

    positions = initial_positions(config, domain)
    agents = _init_agents(config, field, noise_sigma, positions, audit)
    noise_rngs = [
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, i)))
        for i in range(config.n_agents)
    ]
    quad = QuadratureSpec(config.single_stride, config.pair_budget, config.beta)
    consensus_cfg = ConsensusConfig(config.alpha, config.log_space_consensus)
    metric_xs, metric_ys, metric_phi = _metric_grid(domain, field, config.rmse_stride)

    def advance(t, positions, partition):
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
                    if config.refit_steps > 0:
                        agent.hyper = refit_hyperparams(selected, agent.hyper,
                                                        config.refit_steps)
                    agent.gp = SparseGP.fit(selected, agent.hyper)
                    agent.buffer.clear()

        # one motion step down the spatially-informed cost, under the agreed
        # hyperparameters: a refresh has fitted them already, so each model is
        # fitted once a round
        for i, agent in enumerate(agents):
            with audit.agent(i):
                agent.gp = agent.gp.with_hyper(agent.hyper)
                cell = cell_pixels(partition, i, domain)
                report = cell_cost_report(cell, agent.pos, agent.gp, quad)
                agent.opt = record_std(agent.opt, report.std)
                agent.pos, agent.opt = control_step(agent.pos, report.grad_total,
                                                    agent.opt, domain)

        current = np.array([a.pos for a in agents])
        with audit.metrics():
            errs = [lattice_posterior_mean(a.gp, metric_xs, metric_ys) - metric_phi
                    for a in agents]
            counts = [len(a.gp) for a in agents]
        rmse = float(np.mean([np.sqrt(np.mean(err ** 2)) for err in errs]))
        return current, rmse, len(audit.messages) - messages_before, counts

    trace = _rollout(config, domain, field, positions, advance)
    if audit.violations:
        raise DecentralizationError(f"{len(audit.violations)} unsanctioned cross-agent "
                                    f"reads, first: {audit.violations[:5]}")
    return trace


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

    def advance(t, positions, partition):
        new_positions = positions.copy()
        _, centroids = mass_centroid(partition, field)
        for i, centroid in enumerate(centroids):
            if np.isnan(centroid[0]):
                continue  # an empty cell leaves its agent in place
            disp = config.lloyd_gamma * (centroid - positions[i])
            new_positions[i] = _capped_move(positions[i], disp, config.v_max, domain)
        return new_positions, np.nan, 0, 0

    return _rollout(config, domain, field, initial_positions(config, domain), advance)
