"""Seed ensemble of one config: the method against Lloyd over many seeds.

    python3 tools/ensemble.py                          # seeds 1-20, 500 rounds
    python3 tools/ensemble.py --null                   # lengthscale0 up by 1 ulp
    python3 tools/ensemble.py --null noise_sigma- --json out.json
    python3 tools/ensemble.py --workload paper --scenario single_peak --rounds 150

Runs ``workloads.DESK`` (acceptance 6's config, uniform start), or with
``--workload`` the mapping of that benchmark workload (``perfbench/workloads.py``,
its start included), optionally on another ``--scenario``, for the method and
for the Lloyd baseline on every seed. It prints each seed's final
``true_cost``, the method's median and the ratio of that median to Lloyd's,
each with a bootstrap interval (seeds resampled in pairs). The final cost is
chaotic at rounding level, so a change that is not bit-identical is judged on
this ensemble against the parent's, with ``--null`` showing the spread that a
1-ulp change of one input causes on its own; the six moves of ``NULLS`` together
give a null distribution of the method's median. A move of an input that the
config derives (left at ``None``) is refused. The library is imported from
``src/`` next to this directory.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark: the run's matrices are small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from gpcover import config_from_dict, run, run_lloyd_baseline  # noqa: E402
from workloads import DESK, WORKLOADS  # noqa: E402

SEEDS = range(1, 21)
ROUNDS = 500
BOOTSTRAP_DRAWS = 10_000

# a float input of the desk config and the direction of its 1-ulp move
NULLS = {f"{field}{sign}": (field, direction)
         for field in ("lengthscale0", "signal_variance0", "noise_sigma")
         for sign, direction in (("+", math.inf), ("-", -math.inf))}


def base_mapping(workload: str | None, scenario: str | None) -> dict:
    """The desk config, or a benchmark workload's mapping, on ``scenario`` if given."""
    mapping = dict(DESK if workload is None else WORKLOADS[workload].mapping)
    if scenario is not None:
        mapping["scenario"] = scenario
    return mapping


def final_costs(base: dict, seed: int, null: str | None,
                rounds: int = ROUNDS) -> tuple[float, float]:
    """Final ``true_cost`` of the method and of Lloyd on one seed."""
    mapping = dict(base, seed=seed, rounds=rounds)
    if null:
        field, direction = NULLS[null]
        value = getattr(config_from_dict(mapping), field)
        if value is None:
            raise SystemExit(f"{field} is derived in this config; there is no input to move")
        mapping[field] = math.nextafter(value, direction)
    config = config_from_dict(mapping)
    return float(run(config).true_cost[-1]), float(run_lloyd_baseline(config).true_cost[-1])


def bootstrap(method, lloyd, draws: int = BOOTSTRAP_DRAWS, level: float = 0.95):
    """Percentile intervals of median(method) and of median(method) / median(lloyd),
    resampling seeds with their method and Lloyd costs kept in pairs."""
    method, lloyd = np.asarray(method), np.asarray(lloyd)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(method), size=(draws, len(method)))
    medians = np.median(method[idx], axis=1)
    ratios = medians / np.median(lloyd[idx], axis=1)
    tails = [100.0 * (1.0 - level) / 2.0, 100.0 * (1.0 + level) / 2.0]
    return np.percentile(medians, tails).tolist(), np.percentile(ratios, tails).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--null", nargs="?", const="lengthscale0+", choices=sorted(NULLS),
                        help="move one input by 1 ulp (default lengthscale0+) to show the "
                             "spread that rounding alone causes")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this benchmark workload's mapping instead of the desk config")
    parser.add_argument("--scenario", help="density scenario to run instead of the config's")
    parser.add_argument("--rounds", type=int, default=ROUNDS, help="rounds per run")
    parser.add_argument("--json", type=Path, help="also write the results to this file")
    args = parser.parse_args(argv)

    base = base_mapping(args.workload, args.scenario)
    method, lloyd = [], []
    print(f"{'seed':>4} {'method':>12} {'lloyd':>12} {'s':>6}", flush=True)
    for seed in SEEDS:
        t0 = time.perf_counter()
        m, ll = final_costs(base, seed, args.null, args.rounds)
        method.append(m)
        lloyd.append(ll)
        print(f"{seed:>4} {m:>12.1f} {ll:>12.1f} {time.perf_counter() - t0:>6.1f}", flush=True)

    ratio = float(np.median(method) / np.median(lloyd))
    median_interval, ratio_interval = bootstrap(method, lloyd)
    print(f"median method {np.median(method):.1f} (95% bootstrap interval "
          f"[{median_interval[0]:.1f}, {median_interval[1]:.1f}]), "
          f"median lloyd {np.median(lloyd):.1f}")
    print(f"ratio of medians {ratio:.3f} (95% bootstrap interval "
          f"[{ratio_interval[0]:.3f}, {ratio_interval[1]:.3f}])")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "scenario": args.scenario,
            "seeds": list(SEEDS), "rounds": args.rounds, "null": args.null,
            "method": method, "lloyd": lloyd, "ratio": ratio,
            "median_interval": median_interval, "ratio_interval": ratio_interval,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
