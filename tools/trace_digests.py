"""sha256 prefixes of the method and Lloyd trace CSVs of every benchmark workload.

    python3 tools/trace_digests.py

Runs each workload of ``perfbench/workloads.py`` on seeds 1-13 at its
benchmark length, for the method and for the Lloyd baseline, at one BLAS
thread, and prints one line per workload and seed with the first 16 hex
digits of sha256 digests of the trace CSVs: the method's CSV, its path digest
(the CSV with its ``rmse`` column dropped) and Lloyd's CSV, then the positions
digests of the method and of Lloyd (the CSV with its ``rmse`` and
``true_cost`` columns dropped). A change that moves only the rmse metric keeps
every path digest, and one that moves only the metrics keeps every positions
digest. Before a workload's seeds it prints the same prefix of its rasterized
density's bytes (``build_scenario(...).values.tobytes()``), and after them the
prefixes of two digests of partitions: at every position of seed 1's Lloyd
trace and at every position of seed 1's method trace, each start included.
Each digest covers every partition's ``owner`` bytes and ``run_start``, every
agent's sorted flat pixel indices (``np.flatnonzero(owner.ravel() == i)``,
after their count) and the neighbor lists. A last line per workload prints,
for the same two sequences of partitions, digests of every partition's
``edges()`` (their ``repr``, so numpy integers in place of Python ones show),
its ``laplacian`` dtype and bytes, and every agent's cell box from
``cell_pixels``: ``x0``, ``y0`` and the mask's shape. A change meant to be
byte-identical prints the same lines as its parent; a change to Lloyd's
numerics alone moves the Lloyd digests, and the method-position partitions
show that the partitions themselves did not change. The library is imported
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

import numpy as np  # noqa: E402

from gpcover import (build_scenario, cell_pixels, compute_partition,  # noqa: E402
                     config_from_dict, run, run_lloyd_baseline)
from gpcover.sim import CSV_FIXED_COLUMNS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 14)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def csv_bytes(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace.to_csv(path)
        return path.read_bytes()


def drop_columns(csv: bytes, *names: str) -> bytes:
    """The trace CSV without the named columns."""
    cols = {CSV_FIXED_COLUMNS.index(name) for name in names}
    rows = [line.split(b",") for line in csv.split(b"\n")]
    return b"\n".join(b",".join(v for c, v in enumerate(row) if c not in cols) for row in rows)


def raster_digest(config) -> str:
    field = build_scenario(config.scenario, config.domain(), config.scenario_params)
    return _digest(field.values.tobytes())


def partition_digests(config, trace) -> tuple[str, str]:
    """The partition digest and the graph-and-box digest of every position of the trace."""
    domain = config.domain()
    digest, graph = hashlib.sha256(), hashlib.sha256()
    for positions in [trace.initial_positions, *trace.positions]:
        part = compute_partition(positions, domain)
        digest.update(part.owner.tobytes())
        digest.update(part.run_start.tobytes())
        flat_owner = part.owner.ravel()
        for i in range(part.n_agents):
            cell = np.flatnonzero(flat_owner == i)
            digest.update(len(cell).to_bytes(8, "little") + cell.tobytes())
            box = cell_pixels(part, i, domain)
            graph.update(repr((box.x0, box.y0, box.mask.shape)).encode())
        digest.update(repr(part.neighbors).encode())
        graph.update(repr(part.edges()).encode())
        graph.update(str(part.laplacian.dtype).encode() + part.laplacian.tobytes())
    return digest.hexdigest()[:16], graph.hexdigest()[:16]


def main() -> int:
    for name, workload in WORKLOADS.items():
        raster = raster_digest(config_from_dict(dict(workload.mapping)))
        print(f"{name} raster: {raster}", flush=True)
        for seed in SEEDS:
            cfg = config_from_dict(dict(workload.mapping, seed=seed, rounds=workload.rounds))
            lloyd, method = run_lloyd_baseline(cfg), run(cfg)
            if seed == SEEDS[0]:
                partitions = [partition_digests(cfg, trace) for trace in (lloyd, method)]
            csv, lloyd_csv = csv_bytes(method), csv_bytes(lloyd)
            positions = [_digest(drop_columns(c, "rmse", "true_cost")) for c in (csv, lloyd_csv)]
            print(f"{name} seed {seed}: method {_digest(csv)} path "
                  f"{_digest(drop_columns(csv, 'rmse'))} lloyd {_digest(lloyd_csv)} positions "
                  f"method {positions[0]} lloyd {positions[1]}", flush=True)
        (lloyd_part, lloyd_graph), (method_part, method_graph) = partitions
        print(f"{name} partitions: lloyd {lloyd_part} method {method_part}", flush=True)
        print(f"{name} graphs and boxes: lloyd {lloyd_graph} method {method_graph}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
