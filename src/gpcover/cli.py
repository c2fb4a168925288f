"""Command-line entry points and the batch experiment runner."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from .config import SimConfig, config_from_dict
from .density import build_scenario
from .errors import ConfigurationError, GPCoverError
from .sim import run, run_lloyd_baseline

CHECKPOINTS = (50, 100, 250, 500)

SUMMARY_COLUMNS = ("scenario", "n_agents", "seed", "method", "final_cost",
                   *(f"cost_r{cp}" for cp in CHECKPOINTS), "wall_time_s", "trace_file")


def load_config(path) -> SimConfig:
    """Read a YAML run configuration; raises ``ConfigurationError`` on bad YAML or keys."""
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must contain a mapping")
    return config_from_dict(data)


def _summary_row(config: SimConfig, method: str, trace, wall_time: float,
                 trace_file: str) -> dict:
    row = {
        "scenario": config.scenario,
        "n_agents": config.n_agents,
        "seed": config.seed,
        "method": method,
        "final_cost": float(trace.true_cost[-1]),
        "wall_time_s": wall_time,
        "trace_file": trace_file,
    }
    for cp in CHECKPOINTS:
        row[f"cost_r{cp}"] = float(trace.true_cost[cp - 1]) if config.rounds >= cp else None
    return row


def run_batch(configs, out_dir, baseline: bool = True) -> list[dict]:
    """Run every config (method plus optional Lloyd reference), collect summaries.

    Writes one trace CSV per run and a ``summary.csv`` with final and
    checkpoint costs, sorted by scenario, team size, seed, and method.
    Returns the summary rows as dicts in the same order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for idx, config in enumerate(configs):
        methods = [("gpucb", run)] + ([("lloyd", run_lloyd_baseline)] if baseline else [])
        for method, runner in methods:
            started = time.perf_counter()
            trace = runner(config)
            wall_time = time.perf_counter() - started
            name = f"{idx:03d}_{config.scenario}_n{config.n_agents}_s{config.seed}_{method}.csv"
            trace.to_csv(out / name)
            rows.append(_summary_row(config, method, trace, wall_time, name))
    rows.sort(key=lambda r: (r["scenario"], r["n_agents"], r["seed"], r["method"]))

    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        cells = []
        for col in SUMMARY_COLUMNS:
            value = row[col]
            cells.append("" if value is None else str(value))
        lines.append(",".join(cells))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return rows


def _apply_overrides(config: SimConfig, args) -> SimConfig:
    overrides = {}
    for arg_name, field in (("seed", "seed"), ("rounds", "rounds"), ("agents", "n_agents"),
                            ("beta", "beta"), ("scenario", "scenario")):
        value = getattr(args, arg_name)
        if value is not None:
            overrides[field] = value
    return config.with_overrides(**overrides) if overrides else config


def _cmd_run(args) -> int:
    config = load_config(args.config) if args.config else SimConfig()
    config = _apply_overrides(config, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    trace = run(config)
    stem = f"{config.scenario}_n{config.n_agents}_s{config.seed}"
    trace_path = out / f"{stem}_gpucb.csv"
    trace.to_csv(trace_path)
    print(f"method final cost {trace.true_cost[-1]:.6g} -> {trace_path}")
    if args.baseline:
        lloyd = run_lloyd_baseline(config)
        lloyd_path = out / f"{stem}_lloyd.csv"
        lloyd.to_csv(lloyd_path)
        print(f"lloyd  final cost {lloyd.true_cost[-1]:.6g} -> {lloyd_path}")
    return 0


def _cmd_batch(args) -> int:
    configs = [load_config(p) for p in args.configs]
    rows = run_batch(configs, args.out, baseline=not args.no_baseline)
    print(f"{len(rows)} runs -> {Path(args.out) / 'summary.csv'}")
    return 0


def _cmd_scenario(args) -> int:
    from .geometry import Domain

    domain = Domain(args.width, args.height, args.cell_size)
    field = build_scenario(args.name, domain)
    np.savetxt(args.out, field.values, delimiter=",")
    print(f"{args.name} on {args.width}x{args.height} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpcover",
                                     description="Decentralized GP coverage control")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    p_run.add_argument("--config", help="YAML configuration file")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--rounds", type=int)
    p_run.add_argument("--agents", type=int)
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--scenario")
    p_run.add_argument("--baseline", action="store_true",
                       help="also run the privileged Lloyd reference")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run several configurations")
    p_batch.add_argument("configs", nargs="+", help="YAML configuration files")
    p_batch.add_argument("--out", required=True, help="output directory")
    p_batch.add_argument("--no-baseline", action="store_true")
    p_batch.set_defaults(func=_cmd_batch)

    p_scn = sub.add_parser("scenario", help="rasterize a named density to CSV")
    p_scn.add_argument("--name", required=True)
    p_scn.add_argument("--width", type=int, default=960)
    p_scn.add_argument("--height", type=int, default=540)
    p_scn.add_argument("--cell-size", type=float, default=1.0, dest="cell_size")
    p_scn.add_argument("--out", required=True)
    p_scn.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GPCoverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
