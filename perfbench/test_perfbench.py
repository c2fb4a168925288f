"""Tests of the benchmark's own helpers on small hand-worked cases.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from gpcover import config_from_dict, run  # noqa: E402
from gpcover import sim as gp_sim  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import DESK, WORKLOADS  # noqa: E402


def span(name, start, end, parent=None, rnd=0, phase="method", size=0):
    return Span(name, start, end, parent, rnd, phase, size)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("b.child", 6.0, 7.0, parent=2),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1, size=lambda x: x)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    got = [(s.name, s.start, s.end, s.parent, s.size) for s in rec.spans]
    assert got == [("outer", 0.0, 5.0, None, 0), ("inner", 1.0, 2.0, 0, 2),
                   ("inner", 3.0, 4.0, 0, 2)]
    assert tracing.self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_recorder_closes_a_span_when_the_call_raises():
    rec = tracing.Recorder()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert [s.name for s in rec.spans] == ["boom"] and rec._open == []


def test_traced_run_restores_the_library_and_keeps_its_output():
    config = config_from_dict({"width": 48, "height": 27, "n_agents": 3, "rounds": 7,
                               "T": 3, "M": 8, "seed": 4})
    original = gp_sim.compute_partition
    plain = run(config)
    rec = tracing.Recorder()
    audit = tracing.RoundAudit()
    rec.audit = audit
    with tracing.traced(rec):
        assert gp_sim.compute_partition is not original
        traced = run(config, audit=audit)
    assert gp_sim.compute_partition is original
    for field in ("true_cost", "rmse", "messages", "positions", "inducing_counts"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field))
    names = {s.name for s in rec.spans}
    assert {"gp.kernel_matrix", "gp.greedy_select", "cost.cell_cost_report",
            "geometry.compute_partition", "gp.fit"} <= names
    assert sorted(audit.round_starts) == list(range(-1, 7))
    # every span closes inside the round it opened in
    starts = audit.round_starts
    for s in rec.spans:
        if s.round >= 0:
            assert starts[s.round] <= s.start
            assert s.round == 6 or s.end <= starts[s.round + 1]


# rounds 2 and 3 are measured; round 2 is the only refresh round (T=2)
SYNTHETIC_SPANS = [
    span("density.build_scenario", 0.0, 0.004, rnd=-1),
    span("gp.greedy_select", 1.000, 1.010, rnd=2, size=30),
    span("gp.kernel_matrix", 1.002, 1.006, parent=1, rnd=2, size=12),
    span("cost.cell_cost_report", 1.020, 1.030, rnd=3),
    span("gp.posterior_mean", 1.021, 1.025, parent=3, rnd=3, size=100),
    span("gp.kernel_matrix", 1.022, 1.024, parent=4, rnd=3, size=600),
    span("cost.variance_cost", 1.026, 1.029, parent=3, rnd=3),
    span("gp.kernel_matrix", 1.0265, 1.0275, parent=6, rnd=3, size=16),
    span("gp.kernel_matrix", 1.0280, 1.0285, parent=6, rnd=3, size=8),
    span("geometry.compute_partition", 1.031, 1.033, rnd=3),
    span("cost.mass_centroid", 2.0, 2.003, phase="lloyd", rnd=-1),
    span("gp.kernel_matrix", 0.5, 0.6, rnd=1, size=999),  # warm-up: ignored
]


def synthetic_layer_metrics():
    return measure.layer_metrics(SYNTHETIC_SPANS, rounds=4, warmup=2, T=2, window_wall_s=0.05,
                                 reads={1: 7, 2: 10, 3: 20}, lloyd_rounds=3, to_csv_ms=1.5,
                                 partition_temp_mb=0.25, overhead_pct=4.0)


def test_layer_metrics_arithmetic():
    value = {k: v[0] for k, v in synthetic_layer_metrics().items()}
    assert value["gp.greedy_select.ms"] == pytest.approx(10.0)
    assert value["gp.greedy_select.self_ms"] == pytest.approx(6.0)
    assert value["gp.greedy_select.candidates"] == 30
    assert value["gp.kernel_matrix.entries.greedy"] == 6
    assert value["gp.kernel_matrix.entries.cost"] == 312
    assert value["gp.kernel_matrix.calls"] == 2
    assert value["gp.kernel_matrix.self_ms"] == pytest.approx(3.75)
    assert value["gp.kernel_matrix.mentries_per_s"] == pytest.approx(636 / 1e6 / 0.0075)
    assert value["gp.posterior_mean.nodes"] == 50
    assert value["cost.pair_nodes"] == 2
    assert value["cost.cell_cost_report.self_ms"] == pytest.approx(1.5)
    assert value["cost.mass_centroid.ms"] == pytest.approx(1.0)
    assert value["geometry.compute_partition.ms"] == pytest.approx(2.0)
    assert value["density.build_scenario.ms"] == pytest.approx(4.0)
    assert value["sim.audit.reads"] == 15
    # 50 ms of window minus 10 + 10 + 2 ms of top-level spans, over two rounds
    assert value["sim.engine.self_ms"] == pytest.approx(14.0)
    assert value["gp.refit_hyperparams.calls"] == 0


def test_nearest_centre_breaks_ties_to_the_lowest_index():
    owner, d2 = checks.nearest_centre([(0.5, 0.5), (2.5, 0.5)], width=3, height=2)
    assert owner.tolist() == [[0, 0, 1], [0, 0, 1]]
    assert d2.tolist() == [[0.0, 1.0, 0.0], [1.0, 2.0, 1.0]]
    assert checks.locational_cost([(0.5, 0.5), (2.5, 0.5)], np.ones((2, 3))) == 2.5
    # pixel area 4 and distances in world units at cell_size 2
    assert checks.locational_cost([(1.0, 1.0)], np.ones((1, 2)), cell_size=2.0) == 8.0


def test_neighbour_edges_use_four_adjacency():
    assert checks.neighbour_edges(np.array([[0, 0, 1], [2, 2, 1]])) == {(0, 1), (0, 2), (1, 2)}
    # 0 and 0 touch only diagonally, 1 and 1 likewise: one pair either way
    assert checks.neighbour_edges(np.array([[0, 1], [1, 0]])) == {(0, 1)}
    assert checks.neighbour_edges(np.zeros((3, 3), dtype=int)) == set()
    assert checks.expected_messages(3, refresh=False) == 6
    assert checks.expected_messages(3, refresh=True) == 12


def test_dense_gp_mean_on_one_point():
    # K = 1, noise 1: the mean at the point is prior + (y - prior) / 2
    at = checks.dense_gp_mean([(0.0, 0.0)], [2.0], 1.0, 1.0, 1.0, 0.0, [(0.0, 0.0)])
    assert at.tolist() == [1.0]
    far = checks.dense_gp_mean([(0.0, 0.0)], [2.0], 1.0, 1.0, 1.0, 0.5, [(100.0, 0.0)])
    assert far.tolist() == [0.5]
    empty = checks.dense_gp_mean(np.zeros((0, 2)), [], 1.0, 1.0, 1.0, 0.3, [(1.0, 1.0)])
    assert empty.tolist() == [0.3]


def test_motion_properties():
    path = np.array([[[3.0, 4.0]], [[3.0, 5.0]]])
    assert checks.longest_step([[0.0, 0.0]], path) == 5.0
    assert checks.inside_workspace(path, 10.0, 10.0)
    assert checks.inside_workspace([[0.0, 10.0]], 10.0, 10.0)
    assert not checks.inside_workspace([[10.5, 1.0]], 10.0, 10.0)


def test_exchange_bytes():
    log = [(0, "hyper", 0, 1), (0, "hyper", 1, 0), (1, "inducing", 0, 1)]
    assert checks.exchange_bytes(log, lambda rnd, src: 2) == 8 * (4 + 4 + 3 * 2)
    with pytest.raises(ValueError):
        checks.exchange_bytes([(0, "gossip", 0, 1)], lambda rnd, src: 0)


def test_round_samples_split_by_refresh():
    class Fake:
        def round_ms(self):
            return np.array([9.0, 1.0, 2.0, 30.0, 3.0, 4.0])

    motion, refresh = measure.round_samples([Fake()], type("C", (), {"T": 3}), warmup=1)
    assert motion == [1.0, 2.0, 3.0, 4.0] and refresh == [30.0]


def test_desk_is_the_acceptance_6_config():
    import test_acceptance

    assert DESK == {k: v for k, v in test_acceptance.ACCEPT6.items() if k != "rounds"}


def test_workloads_validate_and_team_alpha_is_below_every_degree_bound():
    for w in WORKLOADS.values():
        config = config_from_dict(dict(w.mapping, seed=1, rounds=w.rounds))
        assert 0 < w.warmup < w.rounds
        assert any(t % config.T == 0 for t in range(w.warmup, w.rounds))
    team = config_from_dict(WORKLOADS["team"].mapping)
    assert team.alpha < 1.0 / (team.n_agents - 1)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    config = config_from_dict({"width": 48, "height": 27, "n_agents": 3, "rounds": 7,
                               "T": 3, "M": 8, "seed": 2})
    episodes = [measure.run_episode(config) for _ in range(2)]
    e2e = measure.end_to_end(episodes, config, warmup=2, setups=[0.1, 0.2], peak_rss_mb=1.0,
                             field_peak=1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v[1]) for k, v in e2e.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, v[1]) for k, v in synthetic_layer_metrics().items()]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_sender_rows_use_the_previous_round_or_the_initial_sets():
    trace = type("Trace", (), {"inducing_counts": np.array([[3, 4], [5, 6]])})()
    plain = type("Config", (), {"initial_inducing": None})()
    seeded = type("Config", (), {"initial_inducing": (np.zeros((2, 3)), np.zeros((7, 3)))})()
    rows = measure._sender_rows(plain, trace)
    assert [rows(0, 1), rows(1, 0), rows(2, 1)] == [0, 3, 6]
    assert measure._sender_rows(seeded, trace)(0, 1) == 7
