"""Scenario builders, configuration loading, batch runner, CLI entry point."""

from __future__ import annotations

import math

import numpy as np
import pytest
import yaml

from gpcover import ConfigurationError, Domain, SimConfig, build_scenario, config_from_dict
from gpcover.cli import load_config, main, run_batch
from gpcover.density import scenario_mixture

FAST_KW = dict(width=24, height=14, n_agents=2, rounds=3, T=2, M=8, pair_budget=16,
               rmse_stride=4, eta=0.8, eta_adam=0.3, v_max=1.5)


def test_four_gaussians_has_unit_peaks_at_the_four_centers():
    field = build_scenario("four_gaussians", Domain(960, 540))
    mixture = scenario_mixture("four_gaussians", Domain(960, 540))
    for cx, cy in ((100, 100), (850, 450), (100, 450), (850, 100)):
        assert mixture.value_at([[cx, cy]])[0] == pytest.approx(1.0, abs=1e-12)
    # the nearest pixel center is half a pixel off each axis
    assert field.max_value == pytest.approx(math.exp(-0.5 / 200.0), rel=1e-9)
    assert np.all(field.values >= 0)


def test_four_gaussians_scales_with_the_domain():
    mixture = scenario_mixture("four_gaussians", Domain(240, 135))
    # centers scale to quarter size, sigma scales to 2.5
    assert mixture.value_at([[25.0, 25.0]])[0] == pytest.approx(1.0, abs=1e-12)
    assert mixture.value_at([[27.5, 25.0]])[0] == pytest.approx(
        math.exp(-0.5), abs=1e-9)


def test_hotspots_layout():
    domain = Domain(960, 540)
    field = build_scenario("hotspots", domain)
    mixture = scenario_mixture("hotspots", domain)
    # a far corner: background plus the long tail of the widest blob
    corner = mixture.value_at([[959.5, 0.5]])[0]
    assert field.values[0, -1] == pytest.approx(corner, rel=1e-12)
    assert 20.0 < field.values[0, -1] < 21.0
    # at the first blob center: background + its amplitude + faint cross terms
    value = mixture.value_at([[192.0, 162.0]])[0]
    assert value == pytest.approx(170.0, abs=0.01)
    sigmas = [blob.sigma for blob in mixture.blobs]
    assert sigmas == [80.0, 120.0, 60.0]


def test_single_peak_is_centered():
    field = build_scenario("single_peak", Domain(960, 540))
    mixture = scenario_mixture("single_peak", Domain(960, 540))
    assert mixture.value_at([[480.0, 270.0]])[0] == pytest.approx(150.0)
    iy, ix = np.unravel_index(np.argmax(field.values), field.values.shape)
    assert abs(ix + 0.5 - 480.0) <= 1.0
    assert abs(iy + 0.5 - 270.0) <= 1.0


def test_uniform_is_flat_one():
    field = build_scenario("uniform", Domain(32, 18))
    assert np.all(field.values == 1.0)


def test_custom_scenario_takes_explicit_blobs():
    params = {"blobs": [[16.0, 9.0, 3.0, 2.0]], "background": 0.5}
    field = build_scenario("custom", Domain(32, 18), params)
    assert scenario_mixture("custom", Domain(32, 18), params).value_at(
        [[16.0, 9.0]])[0] == pytest.approx(2.5)
    assert field.values[8, 15] == pytest.approx(0.5 + 2.0 * math.exp(-0.25 / 9.0))


def test_scenario_rasterization_is_deterministic():
    a = build_scenario("hotspots", Domain(96, 54))
    b = build_scenario("hotspots", Domain(96, 54))
    np.testing.assert_array_equal(a.values, b.values)


def test_unknown_scenario_and_stray_params_are_rejected():
    with pytest.raises(ConfigurationError):
        build_scenario("mystery", Domain(10, 10))
    with pytest.raises(ConfigurationError):
        build_scenario("uniform", Domain(10, 10), {"level": 3})


def test_config_from_dict_accepts_flat_and_nested_keys():
    config = config_from_dict({
        "scenario": "uniform",
        "seed": 9,
        "domain": {"width": 48, "height": 27},
        "gp": {"M": 20, "T": 4},
        "optimizer": {"eta": 2.0, "beta": 1.5},
        "consensus": {"alpha": 0.15},
    })
    assert config.scenario == "uniform"
    assert config.width == 48
    assert config.M == 20
    assert config.T == 4
    assert config.eta == 2.0
    assert config.beta == 1.5
    assert config.alpha == 0.15


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        config_from_dict({"speed": 3})
    with pytest.raises(ConfigurationError):
        config_from_dict({"gp": {"speed": 3}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"gp": 5})
    for data in (["width", 3], "abc", 5):
        with pytest.raises(ConfigurationError, match="configuration must be a mapping"):
            config_from_dict(data)
    assert repr(config_from_dict(None)) == repr(SimConfig())


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({
        "scenario": "single_peak",
        "n_agents": 3,
        "rounds": 7,
        "domain": {"width": 30, "height": 20},
    }))
    config = load_config(path)
    assert config.scenario == "single_peak"
    assert config.n_agents == 3
    assert config.rounds == 7
    assert config.width == 30


def test_trace_csv_has_the_pinned_schema(tmp_path):
    from gpcover import run

    config = SimConfig(scenario="uniform", seed=1, **FAST_KW)
    trace = run(config)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,true_cost,rmse,messages,agent0_x,agent0_y,agent1_x,agent1_y"
    assert len(lines) == 1 + config.rounds
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == trace.true_cost[0]


def test_run_batch_writes_traces_and_a_sorted_summary(tmp_path):
    configs = [
        SimConfig(scenario="uniform", seed=2, **FAST_KW),
        SimConfig(scenario="four_gaussians", seed=1, **FAST_KW),
        SimConfig(scenario="four_gaussians", seed=3, **FAST_KW),
    ]
    rows = run_batch(configs, tmp_path, baseline=True)
    assert len(rows) == 6  # method + lloyd per config
    keys = [(r["scenario"], r["n_agents"], r["seed"], r["method"]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert (tmp_path / row["trace_file"]).exists()
        assert row["final_cost"] > 0
        # 3-round runs have no 50-round checkpoint
        assert row["cost_r50"] is None
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("scenario,n_agents,seed,method,final_cost")
    assert len(summary) == 7


def test_run_batch_without_baseline(tmp_path):
    rows = run_batch([SimConfig(scenario="uniform", seed=1, **FAST_KW)],
                     tmp_path, baseline=False)
    assert [r["method"] for r in rows] == ["gpucb"]


def test_run_batch_with_no_configs(tmp_path):
    rows = run_batch([], tmp_path)
    assert rows == []
    assert (tmp_path / "summary.csv").read_text().startswith("scenario,")


def test_cli_run_command(tmp_path):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(yaml.safe_dump({
        "scenario": "uniform",
        "domain": {"width": 24, "height": 14},
        "n_agents": 2,
        "rounds": 2,
        "gp": {"M": 8, "T": 2},
        "quadrature": {"pair_budget": 16},
        "metrics": {"rmse_stride": 4},
    }))
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--seed", "7",
                 "--baseline", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "uniform_n2_s7_gpucb.csv").exists()
    assert (out_dir / "uniform_n2_s7_lloyd.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    # every bad field, the scenario and its parameters included, fails at load time;
    # a string is written as the file's text
    for mapping, field in (
        ("rounds: [1, 2", "YAML"),
        ({"n_agents": 0}, "n_agents"),
        ({"gp": {"lengthscale0": -1.0}}, "lengthscale0"),
        ({"scenario": "custom", "scenario_params": {"blobs": [[1, 1, -2, 1]]}}, "sigma"),
        ({"scenario": "custom", "scenario_params": [[1, 1, 2, 1]]}, "mapping"),
        ({"scenario": "bogus"}, "bogus"),
        ({"scenario": "custom", "scenario_params": {"blobs": [[10, 10, -1, 1]]}}, "sigma"),
        ({"scenario": "custom", "scenario_params": {"blobs": [[10, 10, 2]]}}, "blobs[0]"),
        ({"scenario": "custom", "scenario_params": {"blobs": [[10, 10, "x", 1]]}}, "blobs[0]"),
        # 2 * sigma**2 underflows: the centre pixel would rasterize to NaN
        ({"scenario": "custom", "scenario_params": {"blobs": [[10.5, 5.5, 1e-200, 1.0]]},
          "domain": {"width": 48, "height": 27}, "n_agents": 2, "rounds": 1}, "sigma"),
        # a named scenario's blob width, scaled to the domain, underflows
        ({"domain": {"width": 48, "height": 27, "cell_size": 1e-170}, "n_agents": 2,
          "rounds": 2}, "sigma"),
        # the world's squared diagonal overflows under a scenario with no blob to check
        ({"domain": {"width": 48, "height": 27, "cell_size": 1e200}, "scenario": "uniform",
          "n_agents": 2, "rounds": 2}, "cell_size"),
        # small and short, so that a run which ignores the unknown key ends quickly
        ({"scenario": "custom", "scenario_params": {"blobs": [[1, 1, 2, 1]], "sigma": 3},
          "domain": {"width": 24, "height": 14}, "n_agents": 2, "rounds": 1}, "sigma"),
        ({"rounds": 2.5}, "rounds"),
        ({"beta": "2"}, "beta"),
        ({"optimizer": {"v_max": None}}, "v_max"),
        ({"domain": {"cell_size": "1"}}, "cell_size"),
        ({"n_agents": 1, "init": {"init_mode": "explicit", "explicit_positions": [[1]]}},
         "explicit_positions"),
        ({"n_agents": 1, "init": {"init_mode": "explicit", "explicit_positions": [[3, 4, 5]]}},
         "explicit_positions"),
        ({"domain": {"width": 24, "height": 14}, "n_agents": 1,
          "init": {"init_mode": "explicit", "explicit_positions": [[200, 5]]}},
         "explicit_positions[0] at (200.0, 5.0)"),
        ({"domain": {"width": 24, "height": 14}, "n_agents": 2, "rounds": 1,
          "initial_inducing": [[[float("nan"), 1.0, 1.0]], [[2.0, 2.0, 1.0]]]},
         "initial_inducing[0]"),
        ({"domain": {"width": 24, "height": 14}, "n_agents": 2, "rounds": 1,
          "initial_inducing": [[[1.0, 1.0]], [[2.0, 2.0, 1.0]]]}, "initial_inducing[0]"),
        ({"n_agents": 2, "initial_inducing": [[[1.0, 1.0, 1.0]]]}, "initial_inducing"),
        # YAML's infinities and NaN are floats that validate must reject
        ("beta: .inf", "beta"),
        ("gp: {prior_mean0: .nan}", "prior_mean0"),
        ("optimizer: {eta: -.inf}", "eta"),
        ("noise_sigma: .NaN", "noise_sigma"),
        ("domain: {cell_size: .Inf}", "cell_size"),
        # a zero density leaves signal_variance0 nothing to derive from: run() refuses it
        ({"scenario": "custom", "scenario_params": {"background": 0.0},
          "domain": {"width": 48, "height": 27}, "n_agents": 2, "rounds": 2},
         "signal_variance0"),
    ):
        config_path = tmp_path / "bad.yaml"
        config_path.write_text(mapping if isinstance(mapping, str) else yaml.safe_dump(mapping))
        code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
    config_path.write_text("rounds: [1, 2")
    assert main(["batch", str(config_path), "--out", str(tmp_path / "batch")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "YAML" in err
    # a batch fails on its bad scenario before it runs any config or writes any trace
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump({"scenario": "uniform", "domain": {"width": 24, "height": 14},
                                    "n_agents": 2, "rounds": 1}))
    for scenario in ({"scenario": "bogus"},
                     {"scenario": "custom", "scenario_params": {"blobs": [[10, 10, -1, 1]]}}):
        config_path.write_text(yaml.safe_dump(scenario))
        out_dir = tmp_path / "batch_scenario"
        assert main(["batch", str(good), str(config_path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out_dir.exists() or not any(out_dir.iterdir())


def test_cli_scenario_dump(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["scenario", "--name", "four_gaussians", "--width", "96",
                 "--height", "54", "--out", str(out)])
    assert code == 0
    grid = np.loadtxt(out, delimiter=",")
    assert grid.shape == (54, 96)
    # sigma scales to 1 here, so the best pixel center sits at d^2 = 0.5
    assert grid.max() == pytest.approx(math.exp(-0.25), rel=1e-6)


def test_cli_scenario_rejects_bad_grid_arguments(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    for args, field in ((["--width", "0"], "1x1"), (["--cell-size", "-1"], "cell_size")):
        code = main(["scenario", "--name", "uniform", *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
    assert not out.exists()


def test_cli_batch_command(tmp_path):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(yaml.safe_dump({
        "scenario": "uniform",
        "domain": {"width": 24, "height": 14},
        "n_agents": 2,
        "rounds": 2,
        "gp": {"M": 8, "T": 2},
        "quadrature": {"pair_budget": 16},
        "metrics": {"rmse_stride": 4},
    }))
    out_dir = tmp_path / "batch"
    code = main(["batch", str(config_path), "--out", str(out_dir), "--no-baseline"])
    assert code == 0
    assert (out_dir / "summary.csv").exists()
