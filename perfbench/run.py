"""Benchmark of the gpcover round engine on the desk, paper and team workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run repeats episodes (one method run plus Lloyd runs on
the seed's config) while another one fits in ``--seconds``, at least one, times
``run()``'s set-up before each episode and after the last, checks the outputs
and prints the end-to-end metrics. With ``--trace 1`` it runs one untraced and one traced episode and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Traces, spans and a result record with the environment go to
``perfbench/out/``. The library is imported from ``src/`` next to this
directory; the run exits with code 2 when it is missing.
"""

from __future__ import annotations

import os

# one BLAS thread: on the small matrices of a round, more threads only add
# synchronisation (see README.md); this must precede the first numpy import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is timed in batches, one before each episode and one after the last,
# so that its median spans the same stretch of machine time as the rounds do; a
# batch runs for SETUP_BATCH_S and at least SETUP_BATCH_MIN times (one set-up
# takes 8-12 ms on desk and 0.1-0.15 s on paper)
SETUP_BATCH_S = 0.25
SETUP_BATCH_MIN = 3
# Lloyd repeats within an episode until its runs have taken this long
LLOYD_MIN_S = 1.0


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """The checked-out commit read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np):
    """Threads OpenBLAS reports it uses, or the requested count if it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "git_sha": git_sha(),
    }


class Ledger:
    """Counts attempted and failed operations; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not hide the others
            traceback.print_exc(file=sys.stderr)
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok, detail):
        self.attempted += 1
        self.checks.append((name, ok, detail))
        if not ok:
            self.fail(name, detail)

    def fail(self, name, detail):
        self.failed += 1
        self.failures.append(f"{name}: {detail}")
        print(f"FAILED {name}: {detail}", file=sys.stderr)


def write_traces(episode, stem):
    OUT.mkdir(exist_ok=True)
    paths = (OUT / f"{stem}_gpucb.csv", OUT / f"{stem}_lloyd.csv")
    t0 = time.perf_counter()
    episode.trace.to_csv(paths[0])
    to_csv_ms = (time.perf_counter() - t0) * 1e3
    episode.lloyd.to_csv(paths[1])
    return paths, to_csv_ms


def time_setups(config, ledger, into) -> bool:
    """Append one batch of set-up timings to ``into``; False if a set-up failed."""
    import measure as m

    t0 = time.perf_counter()
    count = 0
    while count < SETUP_BATCH_MIN or time.perf_counter() - t0 < SETUP_BATCH_S:
        setup = ledger.op("setup", m.time_setup, config)
        if setup is None:
            return False
        into.append(setup)
        count += 1
    return True


def measure_untraced(args, workload, config, ledger):
    """Episodes while another fits in ``--seconds`` (at least one), set-up timed around them."""
    import measure as m

    # the first set-up also pays one-off import and cache costs, so it is not counted
    if ledger.op("setup", m.time_setup, config) is None:
        return None
    setups: list[float] = []
    episodes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not time_setups(config, ledger, setups):
            return None
        episode = ledger.op("episode", m.run_episode, config, lloyd_min_s=LLOYD_MIN_S)
        if episode is None:
            return None
        episodes.append(episode)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    if not time_setups(config, ledger, setups):
        return None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stem = f"{workload.name}-seed{args.seed}"
    paths, _ = write_traces(episodes[0], stem)
    field = check_outputs(config, episodes[0], args.seed, ledger)
    for i, episode in enumerate(episodes[1:], start=1):
        again, _ = write_traces(episode, f"{stem}-repeat")
        ledger.check("repeat_identical", same_bytes(paths, again),
                     f"episode {i} against episode 0")
    metrics = m.end_to_end(episodes, config, workload.warmup, setups, peak_rss_mb,
                           field.max_value)
    raw = {"round_ms": [ep.round_ms().tolist() for ep in episodes],
           "lloyd_s": [ep.lloyd_s for ep in episodes], "setup_s": setups}
    return metrics, raw


def measure_traced(args, workload, config, ledger):
    """One untraced and one traced episode; per-layer metrics from the traced one."""
    import measure as m
    import tracing

    plain = ledger.op("episode", m.run_episode, config)
    recorder = tracing.Recorder()
    audit = tracing.RoundAudit()
    recorder.audit = audit

    def to_lloyd():
        recorder.phase = "lloyd"
        recorder.audit = None

    with tracing.traced(recorder):
        traced = ledger.op("traced_episode", m.run_episode, config, audit=audit,
                           on_lloyd=to_lloyd)
    if plain is None or traced is None:
        return None
    stem = f"{workload.name}-seed{args.seed}"
    paths, _ = write_traces(plain, stem)
    traced_paths, to_csv_ms = write_traces(traced, f"{stem}-traced")
    ledger.check("traced_traces_identical", same_bytes(paths, traced_paths),
                 "traced against untraced trace CSVs")
    check_outputs(config, plain, args.seed, ledger)
    write_spans(recorder.spans, OUT / f"{stem}-spans.csv")

    warmup = workload.warmup
    plain_wall = plain.end - plain.stamps[warmup]
    traced_wall = traced.end - traced.stamps[warmup]
    domain = config.domain()
    metrics = m.layer_metrics(
        recorder.spans, config.rounds, warmup, config.T,
        window_wall_s=traced.end - audit.round_starts[warmup],
        reads=audit.reads, lloyd_rounds=traced.lloyd.n_rounds, to_csv_ms=to_csv_ms,
        partition_temp_mb=config.n_agents * domain.n_pixels * 8 / 2 ** 20,
        overhead_pct=(traced_wall / plain_wall - 1.0) * 100.0)
    raw = {"plain_round_ms": plain.round_ms().tolist(),
           "traced_round_ms": traced.round_ms().tolist()}
    return metrics, raw


def check_outputs(config, episode, seed, ledger):
    """Record every output check in the ledger; returns the density field."""
    import measure as m
    from gpcover import build_scenario

    field = build_scenario(config.scenario, config.domain(), config.scenario_params)
    for name, ok, detail in m.check_episode(config, field, episode, seed):
        ledger.check(name, ok, detail)
    return field


def same_bytes(paths, others):
    return all(a.read_bytes() == b.read_bytes() for a, b in zip(paths, others))


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,round,phase,size\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.round},{s.phase},{s.size}\n")


def main(argv=None) -> int:
    if not (SRC / "gpcover" / "__init__.py").is_file():
        print(f"error: the gpcover sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import gpcover
    from workloads import WORKLOADS

    if Path(gpcover.__file__).resolve().parent != SRC / "gpcover":
        print(f"error: imported gpcover from {gpcover.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    ledger = Ledger()
    config = ledger.op("config", gpcover.config_from_dict,
                       dict(workload.mapping, seed=args.seed, rounds=workload.rounds))
    metrics, raw = {}, {}
    if config is not None:
        measure_fn = measure_traced if args.trace else measure_untraced
        measured = measure_fn(args, workload, config, ledger)
        if measured is not None:
            metrics, raw = measured

    for name, (value, unit, *samples) in metrics.items():
        count = f" (n={samples[0]})" if samples else ""
        print(f"  {name} = {value:.6g} {unit}{count}")
    print(f"  operations: {ledger.attempted} attempted, {ledger.failed} failed")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": dict(workload.mapping, seed=args.seed,
                                            rounds=workload.rounds),
        "warmup": workload.warmup, "env": env, "attempted": ledger.attempted,
        "failed": ledger.failed, "failures": ledger.failures, "checks": ledger.checks,
        "metrics": {k: {"value": v[0], "unit": v[1], **({"n": v[2]} if len(v) > 2 else {})}
                    for k, v in metrics.items()},
        "raw": raw,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
