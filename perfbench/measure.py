"""One workload run: timed episodes, output checks and metric arithmetic.

An episode is one ``run()`` of the method plus ``run_lloyd_baseline`` on the
same config. Rounds are timed from outside: ``sample_probe`` is called once
per round, after sampling and before the refresh, so the interval from round
t's probe to round t+1's probe holds round t's refresh (when ``t % T == 0``)
and motion step. The last round's interval ends when ``run()`` returns.

Every episode of a run repeats the same computation bit for bit; the round
times of all repeats are pooled.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
from tracing import self_times
from gpcover import AccessAudit, posterior_mean, run, run_lloyd_baseline
from gpcover.sim import SimTrace

# relative tolerance between the engine's true_cost and the independent sum
COST_RTOL = 1e-9
# a dense solve and the cached inverse agree to this share of the value scale
GP_RTOL = 1e-7
SPAN_MS = 1e3


@dataclass
class Episode:
    trace: SimTrace
    lloyd: SimTrace
    stamps: list[float]
    end: float
    lloyd_s: list[float]
    audit: AccessAudit
    last_gps: list

    def round_ms(self) -> np.ndarray:
        """Wall time of each round, probe to probe, in ms."""
        return np.diff(np.array([*self.stamps, self.end])) * SPAN_MS


class _SetupDone(Exception):
    pass


def time_setup(config) -> float:
    """Seconds from entry to ``run()`` until round 0's probe; the run is stopped there."""

    def stop(t, agents):
        raise _SetupDone(time.perf_counter())

    start = time.perf_counter()
    try:
        run(config, sample_probe=stop)
    except _SetupDone as done:
        return done.args[0] - start
    raise RuntimeError("run() finished without reaching its first round")


def run_episode(config, audit=None, on_lloyd=None, lloyd_min_s=0.0) -> Episode:
    """Run the method, then Lloyd, on ``config``; ``on_lloyd()`` fires between them.

    Lloyd runs again, with identical output, until its runs have taken
    ``lloyd_min_s`` in all, so that its rate is not one short sample.
    """
    stamps: list[float] = []
    last_gps: list = []
    audit = audit if audit is not None else AccessAudit()

    def probe(t, agents):
        stamps.append(time.perf_counter())
        if t == config.rounds - 1:
            last_gps.extend(a.gp for a in agents)

    trace = run(config, audit=audit, sample_probe=probe)
    end = time.perf_counter()
    if on_lloyd is not None:
        on_lloyd()
    lloyd_s: list[float] = []
    while not lloyd_s or sum(lloyd_s) < lloyd_min_s:
        t0 = time.perf_counter()
        lloyd = run_lloyd_baseline(config)
        lloyd_s.append(time.perf_counter() - t0)
    return Episode(trace, lloyd, stamps, end, lloyd_s, audit, last_gps)


def round_samples(episodes, config, warmup):
    """Post-warm-up round times in ms of every episode, split into motion and refresh."""
    motion, refresh = [], []
    for ep in episodes:
        for t, ms in enumerate(ep.round_ms()):
            if t >= warmup:
                (refresh if t % config.T == 0 else motion).append(float(ms))
    return motion, refresh


def end_to_end(episodes, config, warmup, setups, peak_rss_mb, field_peak):
    """Every end-to-end metric as ``name -> (value, unit, samples)``."""
    motion, refresh = round_samples(episodes, config, warmup)
    first = episodes[0]
    trace = first.trace
    n_rounds = trace.n_rounds
    payload = checks.exchange_bytes(first.audit.messages, _sender_rows(config, trace))
    lloyd_runs = [s for ep in episodes for s in ep.lloyd_s]
    return {
        "rounds_per_s": (len(motion + refresh) / (sum(motion + refresh) / SPAN_MS),
                         "rounds/s", len(motion + refresh)),
        "motion_round_ms": (statistics.median(motion), "ms", len(motion)),
        "refresh_round_ms": (statistics.median(refresh), "ms", len(refresh)),
        "lloyd_rounds_per_s": (first.lloyd.n_rounds / statistics.median(lloyd_runs),
                               "rounds/s", len(lloyd_runs)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "messages_per_round": (float(np.mean(trace.messages)), "count", n_rounds),
        "exchange_kb_per_round": (payload / 1024.0 / n_rounds, "KiB", n_rounds),
        "coverage_cost_ratio": (float(np.mean(trace.true_cost) / np.mean(first.lloyd.true_cost)),
                                "ratio", n_rounds),
        "density_rmse_rel": (float(np.mean(trace.rmse)) / field_peak, "ratio", n_rounds),
    }


def _sender_rows(config, trace):
    # rows a sender shares in round t are those it ended round t-1 with, or
    # its initial set in round 0
    counts = trace.inducing_counts
    initial = config.initial_inducing

    def rows(rnd, src):
        if rnd > 0:
            return int(counts[rnd - 1, src])
        return 0 if initial is None else len(initial[src])

    return rows


def check_episode(config, field, ep: Episode, seed: int):
    """Every output check as ``(name, ok, detail)``; ``field`` is the run's density."""
    domain = config.domain()
    density = field.values
    trace, lloyd = ep.trace, ep.lloyd
    results = []

    def add(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that crashes is a failed check, not a crashed run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))

    def cost_matches(tr):
        # eight evenly spaced rounds, the first and the last among them
        rounds = sorted(set(np.linspace(0, tr.n_rounds - 1, 8).astype(int).tolist()))
        worst = 0.0
        for r in rounds:
            ref = checks.locational_cost(tr.positions[r], density, domain.cell_size)
            worst = max(worst, abs(tr.true_cost[r] - ref) / ref)
        return worst <= COST_RTOL, f"rounds {rounds}, worst relative error {worst:.3e}"

    def messages_match():
        prev = trace.initial_positions
        for t in range(trace.n_rounds):
            owner, _ = checks.nearest_centre(prev, domain.width, domain.height, domain.cell_size)
            want = checks.expected_messages(len(checks.neighbour_edges(owner)),
                                            t % config.T == 0)
            if int(trace.messages[t]) != want:
                return False, f"round {t}: {int(trace.messages[t])} messages, expected {want}"
            prev = trace.positions[t]
        return True, f"{trace.n_rounds} rounds"

    def motion_ok(tr):
        inside = checks.inside_workspace(tr.positions, domain.world_width, domain.world_height)
        step = checks.longest_step(tr.initial_positions, tr.positions)
        return inside and step <= config.v_max * (1 + 1e-12), \
            f"inside workspace {inside}, longest step {step:.6g} (v_max {config.v_max})"

    def inducing_cap():
        counts = [len(gp) for gp in ep.last_gps]
        ok = len(counts) == config.n_agents and max(counts) <= config.M \
            and int(trace.inducing_counts.max()) <= config.M
        return ok, f"last-round inducing rows {counts}, cap {config.M}"

    def dense_gp():
        rng = np.random.default_rng(seed)
        query = rng.uniform((0.0, 0.0), (domain.world_width, domain.world_height), size=(64, 2))
        worst = 0.0
        for gp in ep.last_gps:
            h = gp.hyper
            ref = checks.dense_gp_mean(gp.points, gp.values, h.lengthscale, h.signal_variance,
                                       h.noise_variance, h.prior_mean, query)
            scale = max(float(np.max(np.abs(gp.values - h.prior_mean), initial=0.0)),
                        abs(h.prior_mean), 1e-300)
            worst = max(worst, float(np.max(np.abs(posterior_mean(gp, query) - ref))) / scale)
        return worst <= GP_RTOL, f"worst error {worst:.3e} of the value scale"

    def cost_falls(tr):
        return tr.true_cost[-1] < tr.true_cost[0], \
            f"first {tr.true_cost[0]:.6g}, last {tr.true_cost[-1]:.6g}"

    add("method_true_cost", lambda: cost_matches(trace))
    add("lloyd_true_cost", lambda: cost_matches(lloyd))
    add("messages_per_round", messages_match)
    add("method_motion", lambda: motion_ok(trace))
    add("lloyd_motion", lambda: motion_ok(lloyd))
    add("inducing_cap", inducing_cap)
    add("dense_gp_mean", dense_gp)
    add("method_cost_falls", lambda: cost_falls(trace))
    add("lloyd_cost_falls", lambda: cost_falls(lloyd))
    return results


def layer_metrics(spans, rounds, warmup, T, window_wall_s, reads, lloyd_rounds,
                  to_csv_ms, partition_temp_mb, overhead_pct):
    """Per-layer metrics from method-phase and Lloyd-phase spans.

    Per-round figures divide by the post-warm-up rounds, per-refresh
    figures by the post-warm-up refresh rounds; a span belongs to the round
    the engine was in when it opened.
    """
    selfs = self_times(spans)
    window = range(warmup, rounds)
    n = len(window)
    n_refresh = sum(1 for t in window if t % T == 0)
    # the caller a kernel_matrix call serves: the nearest greedy or cost ancestor
    path: list[str | None] = []
    for s in spans:
        tag = {"gp.greedy_select": "greedy", "cost.cell_cost_report": "cost"}.get(s.name)
        path.append(tag or (path[s.parent] if s.parent is not None else None))

    method = [i for i, s in enumerate(spans) if s.phase == "method" and s.round >= warmup]

    def pick(name):
        return [i for i in method if spans[i].name == name]

    def ms(name, per, use_self=False):
        idx = pick(name)
        return _per(sum(selfs[i] if use_self else spans[i].duration for i in idx) * SPAN_MS,
                    per)

    def calls(name, per):
        return _per(len(pick(name)), per)

    kernel = pick("gp.kernel_matrix")
    entries = {tag: sum(spans[i].size for i in kernel if path[i] == tag)
               for tag in ("cost", "greedy")}
    kernel_self_s = sum(selfs[i] for i in kernel)
    pair_nodes = 0
    for i in pick("cost.variance_cost"):
        # variance_cost's first kernel call is the (nodes, nodes) covariance
        first = next((j for j in range(i + 1, len(spans)) if spans[j].parent == i
                      and spans[j].name == "gp.kernel_matrix"), None)
        if first is not None:
            pair_nodes += math.isqrt(spans[first].size)
    top_level_s = sum(spans[i].duration for i in method if spans[i].parent is None)
    greedy = pick("gp.greedy_select")
    refit = pick("gp.refit_hyperparams")
    lloyd_mass = [s for s in spans if s.phase == "lloyd" and s.name == "cost.mass_centroid"]
    setup_scenario = [s for s in spans if s.phase == "method" and s.round < 0
                      and s.name == "density.build_scenario"]
    partitions = pick("geometry.compute_partition")

    return {
        "gp.greedy_select.ms": (ms("gp.greedy_select", n_refresh), "ms/refresh"),
        "gp.greedy_select.self_ms": (ms("gp.greedy_select", n_refresh, True), "ms/refresh"),
        "gp.greedy_select.candidates": (
            _per(sum(spans[i].size for i in greedy), len(greedy)), "count/call"),
        "gp.smw_extend.calls": (calls("gp.smw_extend", n_refresh), "count/refresh"),
        "gp.smw_extend.ms": (ms("gp.smw_extend", n_refresh), "ms/refresh"),
        "gp.merge_inducing.ms": (ms("gp.merge_inducing", n_refresh), "ms/refresh"),
        "gp.refit_hyperparams.calls": (_per(len(refit), n_refresh), "count/refresh"),
        "gp.refit_hyperparams.share": (
            sum(spans[i].duration for i in refit) / window_wall_s, "ratio"),
        "gp.fit.calls": (calls("gp.fit", n), "count/round"),
        "gp.fit.ms": (ms("gp.fit", n), "ms/round"),
        "gp.posterior_mean.ms": (ms("gp.posterior_mean", n), "ms/round"),
        "gp.posterior_mean.nodes": (
            sum(spans[i].size for i in pick("gp.posterior_mean")) / n, "count/round"),
        "gp.kernel_matrix.self_ms": (kernel_self_s * SPAN_MS / n, "ms/round"),
        "gp.kernel_matrix.calls": (len(kernel) / n, "count/round"),
        "gp.kernel_matrix.entries.cost": (entries["cost"] / n, "count/round"),
        "gp.kernel_matrix.entries.greedy": (entries["greedy"] / n, "count/round"),
        "gp.kernel_matrix.mentries_per_s": (
            _per(sum(spans[i].size for i in kernel) / 1e6, kernel_self_s), "Mentries/s"),
        "cost.cell_cost_report.ms": (ms("cost.cell_cost_report", n), "ms/round"),
        "cost.cell_cost_report.self_ms": (ms("cost.cell_cost_report", n, True), "ms/round"),
        "cost.variance_cost.ms": (ms("cost.variance_cost", n), "ms/round"),
        "cost.pair_nodes": (pair_nodes / n, "count/round"),
        "cost.true_locational_cost.ms": (ms("cost.true_locational_cost", n), "ms/round"),
        "cost.mass_centroid.ms": (
            _per(sum(s.duration for s in lloyd_mass) * SPAN_MS, lloyd_rounds), "ms/round"),
        "geometry.compute_partition.ms": (
            ms("geometry.compute_partition", len(partitions)), "ms/call"),
        "geometry.partition_temp_mb": (partition_temp_mb, "MB"),
        "geometry.cell_pixels.ms": (ms("geometry.cell_pixels", n), "ms/round"),
        "consensus.consensus_step.ms": (ms("consensus.consensus_step", n), "ms/round"),
        "control.step.ms": (ms("control.step", n), "ms/round"),
        "control.record_std.ms": (ms("control.record_std", n), "ms/round"),
        "density.build_scenario.ms": (
            _per(sum(s.duration for s in setup_scenario) * SPAN_MS, len(setup_scenario)),
            "ms/call"),
        "density.sample_density.ms": (ms("density.sample_density", n), "ms/round"),
        "sim.rmse_eval.ms": (ms("sim.rmse_eval", n), "ms/round"),
        "sim.audit.reads": (sum(reads.get(t, 0) for t in window) / n, "count/round"),
        "sim.engine.self_ms": ((window_wall_s - top_level_s) * SPAN_MS / n, "ms/round"),
        "sim.to_csv.ms": (to_csv_ms, "ms/run"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def _per(total, count):
    """``total / count``, or 0 when nothing was counted."""
    return total / count if count else 0.0
