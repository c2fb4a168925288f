"""Alternating parent/change benchmark pairs, summarised into one JSON record.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_6.json

Runs ``perfbench/run.py`` of two checkouts of the repository on every workload
of ``BENCHMARK.json`` for its ``run_seconds``, one pair per seed of ``SEEDS``,
alternating which side runs first. For every end-to-end metric it records each
run's value, each side's median and quartiles, and how many pairs the change
won (ties count for neither side). ``TRACED_RUNS`` ``--trace 1`` runs per side
and workload, on the first seed and alternating which side runs first, give the
per-layer metrics: the record keeps every traced run and each metric's median
over a side's runs, since one traced run on a busy machine can be far off.
Each checkout runs its own benchmark code on its own library; the benchmark
sets its own BLAS thread count. Every run records ``os.getloadavg()``, the
machine's 1, 5 and 15 minute load averages when it starts, since other work on
the machine moves the timings: each workload's ``loadavg`` lists the pairs'
per side, in seed order, and each traced run keeps its own. The load average
cannot see a virtual machine's host taking its CPUs, so every run also records
``steal``: how far the ``steal`` column of the ``cpu`` line of ``/proc/stat``
(in clock ticks, summed over CPUs) moved during the run, or null where that file
cannot be read; each workload lists it beside ``loadavg``. Each side's ``src_sha256`` (see
:func:`src_digest`) ties the record to the library it measured, committed or
not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# kept apart from seeds 1-3, on which a change is sized while it is written
SEEDS = range(4, 14)

# traced runs per side and workload; the per-layer metrics are their medians
TRACED_RUNS = 3


def src_digest(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the checkout's ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def steal_ticks() -> int | None:
    """The ``steal`` column of ``/proc/stat``'s ``cpu`` line, or None where it cannot be read."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the load averages at its start, the steal ticks during it,
    its environment line and its final JSON line."""
    loadavg = list(os.getloadavg())
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    steal_start = steal_ticks()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    steal_end = steal_ticks()
    steal = None if steal_start is None or steal_end is None else steal_end - steal_start
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                  "error": proc.stderr[-2000:]}
    return {"seed": seed, "returncode": proc.returncode, "loadavg": loadavg, "steal": steal,
            "env": env, **result}


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def compare(pairs, metric: str, better: str) -> dict:
    parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
    change = [p["change"]["metrics"][metric]["value"] for p in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {"better": better, "parent": summary(parent), "change": summary(change),
           "change_wins": int(wins), "change_losses": int(losses),
           "parent_runs": parent, "change_runs": change}
    base = out["parent"]["median"]
    if base:
        out["median_change_rel"] = out["change"]["median"] / base - 1.0
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def traced(sides: dict, workload: str, seconds: float) -> dict:
    """``TRACED_RUNS`` traced runs per side, alternating which side runs first,
    with each per-layer metric's median over a side's runs."""
    runs = {side: [] for side in sides}
    for k in range(TRACED_RUNS):
        for side in (sides if k % 2 == 0 else reversed(sides)):
            runs[side].append(run_once(sides[side], workload, SEEDS[0], seconds, 1))
            print(f"{workload} traced run {k} {side}: returncode "
                  f"{runs[side][-1]['returncode']}", flush=True)
    out = {}
    for side, side_runs in runs.items():
        names = [name for name in side_runs[0]["metrics"]
                 if all(name in r["metrics"] for r in side_runs)]
        median = {name: {"value": float(np.median([r["metrics"][name]["value"]
                                                   for r in side_runs])),
                         "unit": side_runs[0]["metrics"][name]["unit"]} for name in names}
        out[side] = {"median": median, "runs": side_runs}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = declared["run_seconds"]
    record = {"seconds": seconds, "seeds": list(SEEDS),
              "order": "pair i runs the parent first when its seed is even",
              "src_sha256": {s: src_digest(path) for s, path in sides.items()},
              "workloads": {}}
    for workload in (w["name"] for w in declared["workloads"]):
        pairs = []
        for seed in record["seeds"]:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds, 0)
                m = pair[side]["metrics"].get("rounds_per_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: rounds_per_s {m}, "
                      f"failed {pair[side]['failed']}", flush=True)
            pairs.append(pair)
        entry = {
            "failed": {s: sum(p[s]["failed"] or 0 for p in pairs) for s in sides},
            "all_correct": {s: all(p[s]["correct"] for p in pairs) for s in sides},
            "env": {s: pairs[0][s]["env"] for s in sides},
            "loadavg": {s: [p[s]["loadavg"] for p in pairs] for s in sides},
            "steal": {s: [p[s]["steal"] for p in pairs] for s in sides},
            "metrics": {m["name"]: compare(pairs, m["name"], m["better"])
                        for m in declared["end_to_end"]},
            "traced": traced(sides, workload, seconds),
        }
        record["workloads"][workload] = entry
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
