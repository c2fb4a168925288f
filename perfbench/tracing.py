"""Spans around the calls into each layer, recorded from outside the library.

``traced()`` swaps each traced function for a wrapper at the place where
``gpcover.sim``, ``gpcover.cost`` and ``gpcover.gp`` look it up, and puts
the originals back on exit. A wrapper records one span: its name, start and
end, the span open when it started (its parent), the engine round, the run
(``method`` or ``lloyd``) and a size taken from the call's
arguments. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from gpcover import cost as gp_cost
from gpcover import gp as gp_core
from gpcover import sim as gp_sim
from gpcover.sim import AccessAudit


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int
    phase: str
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _rows(x) -> int:
    arr = np.asarray(x)
    return arr.shape[0] if arr.ndim >= 2 else 1


class RoundAudit(AccessAudit):
    """Access audit that also counts reads per round and stamps each round's start."""

    def __init__(self):
        self.round_starts: dict[int, float] = {}
        self.reads: dict[int, int] = {}
        super().__init__()

    @property
    def round(self) -> int:
        return self._round

    @round.setter
    def round(self, value: int) -> None:
        self._round = value
        self.round_starts[value] = time.perf_counter()

    def record_read(self, owner_id, field_name) -> None:
        self.reads[self._round] = self.reads.get(self._round, 0) + 1
        super().record_read(owner_id, field_name)


class Recorder:
    """In-memory span store; ``phase`` and ``audit`` are set by the caller."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = "method"
        self.audit: AccessAudit | None = None
        self._open: list[int] = []

    def wrap(self, name, fn, size=None):
        rec = self

        def traced_call(*args, **kwargs):
            parent = rec._open[-1] if rec._open else None
            index = len(rec.spans)
            rec.spans.append(None)  # keeps spans in opening order; filled on close
            rec._open.append(index)
            start = rec.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = rec.clock()
                rec._open.pop()
                rnd = rec.audit.round if rec.audit is not None else -1
                rec.spans[index] = Span(name, start, end, parent, rnd, rec.phase,
                                        size(*args, **kwargs) if size else 0)

        return traced_call


# (module or class, attribute, span name, size of the call)
TRACE_POINTS = (
    (gp_sim, "consensus_step", "consensus.consensus_step", None),
    (gp_sim, "record_std", "control.record_std", None),
    (gp_sim, "control_step", "control.step", None),
    (gp_sim, "cell_cost_report", "cost.cell_cost_report", None),
    (gp_sim, "mass_centroid", "cost.mass_centroid", None),
    (gp_sim, "true_locational_cost", "cost.true_locational_cost", None),
    (gp_sim, "build_scenario", "density.build_scenario", None),
    (gp_sim, "sample_density", "density.sample_density", None),
    (gp_sim, "cell_pixels", "geometry.cell_pixels", None),
    (gp_sim, "compute_partition", "geometry.compute_partition", None),
    (gp_sim, "greedy_select", "gp.greedy_select", lambda cand, *a, **k: _rows(cand)),
    (gp_sim, "merge_inducing", "gp.merge_inducing", None),
    (gp_sim, "refit_hyperparams", "gp.refit_hyperparams", None),
    (gp_sim, "posterior_mean", "sim.rmse_eval", lambda gp, q, *a, **k: _rows(q)),
    (gp_cost, "posterior_mean", "gp.posterior_mean", lambda gp, q, *a, **k: _rows(q)),
    (gp_cost, "variance_cost", "cost.variance_cost", None),
    (gp_cost, "kernel_matrix", "gp.kernel_matrix",
     lambda a, b, *r, **k: _rows(a) * _rows(b)),
    (gp_core, "kernel_matrix", "gp.kernel_matrix",
     lambda a, b, *r, **k: _rows(a) * _rows(b)),
    (gp_core, "smw_extend", "gp.smw_extend", None),
)


@contextmanager
def traced(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, size in TRACE_POINTS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, size))
        fit = gp_core.SparseGP.__dict__["fit"]
        saved.append((gp_core.SparseGP, "fit", fit))
        gp_core.SparseGP.fit = classmethod(recorder.wrap("gp.fit", fit.__func__))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
