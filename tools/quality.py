"""Quality matrix: the method's final cost against Lloyd's and against no information.

    python3 tools/quality.py                     # prints the table
    python3 tools/quality.py --json QUALITY.json # also writes every run's numbers

For every scenario of ``SCENARIOS`` and every workload of ``SCALES`` (the
``perfbench/workloads.py`` mappings, their starts included), on each seed of
``SEEDS`` at ``ROUNDS`` rounds, it runs the method and the Lloyd baseline and
takes their final ``true_cost``. ``uniform_cvt`` is the scenario's true cost at
the final positions of a Lloyd run on ``scenario="uniform"`` from the same
start: where a team that knows nothing of the density ends. Each cell of the
table gives the median over seeds of the method/Lloyd ratio and of the
method's position between full and no information,
``(method - Lloyd) / (uniform_cvt - Lloyd)``: 0 is Lloyd's cost, 1 the
uniform configuration's. On the uniform scenario itself ``uniform_cvt`` is
Lloyd's cost, so the position is undefined and reported as null. A workload
mapping may fix ``signal_variance0`` and ``noise_sigma`` for its own scenario
(``desk`` fixes them for four_gaussians); on any other scenario both are left
out, so ``run()`` derives them from that scenario's density. The library is
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark: the run's matrices are small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from gpcover import (build_scenario, compute_partition, config_from_dict, run,  # noqa: E402
                     run_lloyd_baseline, true_locational_cost)
from workloads import WORKLOADS  # noqa: E402

SCENARIOS = ("four_gaussians", "single_peak", "hotspots", "uniform")
SCALES = ("desk", "paper")
SEEDS = range(1, 6)
ROUNDS = 150

# prior and noise that a workload may fix for its own scenario only
SCENARIO_FITTED = ("signal_variance0", "noise_sigma")


def scenario_mapping(scale: str, scenario: str, seed: int) -> dict:
    """The workload's mapping on ``scenario``, at ``seed`` and ``ROUNDS`` rounds.

    Off the workload's own scenario, ``SCENARIO_FITTED`` is dropped, so that
    ``run()`` derives the prior and the noise from the scenario's density.
    """
    mapping = dict(WORKLOADS[scale].mapping, seed=seed, rounds=ROUNDS)
    if config_from_dict(mapping).scenario != scenario:
        for key in SCENARIO_FITTED:
            mapping.pop(key, None)
    return dict(mapping, scenario=scenario)


def final_costs(mapping: dict, uniform_end: np.ndarray) -> dict:
    """Final true costs of the method, of Lloyd and of the uniform-density end positions."""
    config = config_from_dict(mapping)
    domain = config.domain()
    field = build_scenario(config.scenario, domain, config.scenario_params)
    method = float(run(config).true_cost[-1])
    lloyd = float(run_lloyd_baseline(config).true_cost[-1])
    uniform_cvt = true_locational_cost(compute_partition(uniform_end, domain), field)
    position = None if config.scenario == "uniform" else \
        (method - lloyd) / (uniform_cvt - lloyd)
    return {"method": method, "lloyd": lloyd, "uniform_cvt": uniform_cvt,
            "ratio": method / lloyd, "position": position}


def cell(scale: str, scenario: str, uniform_ends: dict) -> dict:
    """Every seed's costs on one scenario and scale, and the medians over seeds."""
    runs = []
    for seed in SEEDS:
        t0 = time.perf_counter()
        if seed not in uniform_ends:
            uniform = run_lloyd_baseline(config_from_dict(
                scenario_mapping(scale, "uniform", seed)))
            uniform_ends[seed] = uniform.positions[-1]
        runs.append(dict(seed=seed, **final_costs(scenario_mapping(scale, scenario, seed),
                                                  uniform_ends[seed])))
        print(f"{scale} {scenario} seed {seed}: ratio {runs[-1]['ratio']:.4g} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    positions = [r["position"] for r in runs]
    return {"median_ratio": float(np.median([r["ratio"] for r in runs])),
            "median_position": None if None in positions else float(np.median(positions)),
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="also write every run's numbers to this file")
    args = parser.parse_args(argv)

    table = {}
    for scale in SCALES:
        uniform_ends = {}  # the uniform Lloyd run depends on the scale and seed only
        table[scale] = {scenario: cell(scale, scenario, uniform_ends)
                        for scenario in SCENARIOS}

    print("| scenario | scale | method / Lloyd | (method - Lloyd) / (uniform_cvt - Lloyd) |")
    print("|---|---|---|---|")
    for scenario in SCENARIOS:
        for scale in SCALES:
            entry = table[scale][scenario]
            position = entry["median_position"]
            print(f"| {scenario} | {scale} | {entry['median_ratio']:.4g} | "
                  f"{'null' if position is None else f'{position:.4g}'} |")
    if args.json:
        args.json.write_text(json.dumps({
            "seeds": list(SEEDS), "rounds": ROUNDS, "numpy": np.__version__,
            "table": table,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
