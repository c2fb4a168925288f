"""sha256 prefixes of the method and Lloyd trace CSVs of every benchmark workload.

    python3 tools/trace_digests.py

Runs each workload of ``perfbench/workloads.py`` on seeds 1 and 2 at its
benchmark length, for the method and for the Lloyd baseline, at one BLAS
thread, and prints one line per workload and seed with the first 16 hex
digits of each trace CSV's sha256 (method, then Lloyd). Before a workload's
seeds it prints the same prefix of its rasterized density's bytes
(``build_scenario(...).values.tobytes()``). A change meant to be
byte-identical prints the same lines as its parent. The library is imported
from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark: long 1-D products are threaded otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gpcover import build_scenario, config_from_dict, run, run_lloyd_baseline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)


def csv_digest(trace) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.to_csv(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def raster_digest(config) -> str:
    field = build_scenario(config.scenario, config.domain(), config.scenario_params)
    return hashlib.sha256(field.values.tobytes()).hexdigest()[:16]


def main() -> int:
    for name, workload in WORKLOADS.items():
        raster = raster_digest(config_from_dict(dict(workload.mapping)))
        print(f"{name} raster: {raster}", flush=True)
        for seed in SEEDS:
            cfg = config_from_dict(dict(workload.mapping, seed=seed, rounds=workload.rounds))
            method, lloyd = csv_digest(run(cfg)), csv_digest(run_lloyd_baseline(cfg))
            print(f"{name} seed {seed}: method {method} lloyd {lloyd}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
