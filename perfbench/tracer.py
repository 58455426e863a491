"""Spans and counters at qmg's module boundaries, recorded from outside qmg.

``Tracer.install`` replaces the public functions listed in ``BOUNDARIES``
with wrappers, in the module that defines each one and in every qmg module
that bound it with ``from ... import`` (``qmg.cli.compare_policies``,
``qmg.mac.sample_outcomes``, ...).  Each call becomes a span (name, start,
end, parent id, pass id) kept in memory; selected calls also record
counters and the peak memory tracemalloc sees during the call.

A tracer either times spans or counts.  Counting (argument binding,
counters over whole state vectors, tracemalloc on every Python
allocation) would slow the very calls it measures -- tracemalloc alone
more than doubles ``qudit.sample_counts`` -- so the traced run takes
self times from timing passes and counts and peaks from separate
counting passes.

Per-element helpers (``format_outcome``, ``index_to_tuple``,
``entangled_coefficient``, ...) are deliberately not wrapped: they run
hundreds of thousands of times per pass, and their cost belongs to the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from qmg.qudit import PROB_FLOOR


def _nonzero(amplitudes: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(amplitudes) ** 2 > PROB_FLOOR))


def _mac_slots(args, result):
    return {"mac.slot_policies": args["config"].slots}


def _csv_rows(args, result):
    return {"mac.csv_rows": len(args["self"])}


def _sample_rows(args, result):
    return {"game.sample_outcomes.rows": args["size"]}


def _strategy_bytes(args, result):
    # one sweep per site, each reading and writing all n**n amplitudes
    n = args["state"].n
    return {"qudit.apply_local_strategy.bytes_computed": n * 2 * result.amplitudes.nbytes}


def _sampled(args, result):
    amplitudes = args["state"].amplitudes
    return {"qudit.distinct_outcomes": len(result),
            "qudit.support_nonzero": _nonzero(amplitudes),
            "qudit.support_scanned": amplitudes.size}


def _circuit_work(args, result):
    return {"circuit.gates": len(args["gates"]),
            "circuit.nonzero": _nonzero(result.amplitudes),
            "circuit.amplitudes": result.amplitudes.size}


#: (module, attribute, span name, counter function, record peak allocation)
BOUNDARIES = (
    ("qmg.cli", "main", "cli", None, False),
    ("qmg.mac", "load_run_spec", "mac.load_run_spec", None, False),
    ("qmg.mac", "compare_policies", "mac.compare_policies", None, False),
    ("qmg.mac", "run_cell", "mac.run_cell", _mac_slots, True),
    ("qmg.mac", "run_mesh_rounds", "mac.run_mesh_rounds", _mac_slots, True),
    ("qmg.mac", "SlotLog.write_csv", "mac.SlotLog.write_csv", _csv_rows, False),
    ("qmg.game", "strategy_matrix", "game.strategy_matrix", None, False),
    ("qmg.game", "sample_outcomes", "game.sample_outcomes", _sample_rows, False),
    ("qmg.qudit", "prepare_entangled", "qudit.prepare_entangled", None, False),
    ("qmg.qudit", "apply_local_strategy", "qudit.apply_local_strategy", _strategy_bytes, False),
    ("qmg.qudit", "sample_counts", "qudit.sample_counts", _sampled, True),
    ("qmg.circuit", "build_preparation_circuit", "circuit.build_preparation_circuit", None, False),
    ("qmg.circuit", "run_circuit", "circuit.run_circuit", _circuit_work, True),
    ("qmg.circuit", "register_to_qudit", "circuit.register_to_qudit", None, False),
    ("qmg.circuit", "audit_preparation_circuit", "circuit.audit_preparation_circuit", None, False),
    ("qmg.circuit", "export_circuit", "circuit.export_circuit", None, False),
)


class Tracer:
    """In-memory spans and counters for one pass of one workload."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self, counting: bool) -> None:
        """Wrap every boundary; with ``counting`` set, also record counters
        and per-call peak allocations, at the cost of usable times."""
        qmg_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qmg"]
        for module_name, attribute, name, counter, peak in BOUNDARIES:
            holder_path, _, attr = attribute.rpartition(".")
            holder = importlib.import_module(module_name)
            if holder_path:
                holder = getattr(holder, holder_path)
            original = getattr(holder, attr)
            if not counting:
                counter, peak = None, False
            wrapped = self._wrap(name, original, counter, peak)
            setattr(holder, attr, wrapped)
            for module in qmg_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, name, fn, counter, peak):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            if peak:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if peak:
                    span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counters[key] += int(value)
            return result

        return traced


#: spans whose self time and call count are per-layer metrics
TIMED_SPANS = ("cli", "mac.run_cell", "mac.SlotLog.write_csv", "mac.run_mesh_rounds",
               "game.sample_outcomes", "qudit.apply_local_strategy", "qudit.sample_counts",
               "circuit.run_circuit", "circuit.audit_preparation_circuit")

#: spans whose peak tracemalloc allocation is a per-layer metric
PEAK_SPANS = ("mac.run_cell", "mac.run_mesh_rounds", "qudit.sample_counts", "circuit.run_circuit")

#: counters reported as recorded
COUNTS = ("mac.csv_rows", "mac.slot_policies", "game.sample_outcomes.rows",
          "qudit.apply_local_strategy.bytes_computed", "qudit.distinct_outcomes", "circuit.gates")


def timing_metrics(spans: list[dict], run_s: float) -> dict[str, float]:
    """Self times and call counts of one timing pass.  A layer the workload
    never enters reports zero time and zero calls."""
    self_s = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            self_s[span["parent"]] -= span["end"] - span["start"]
    metrics: dict[str, float] = {}
    for name in TIMED_SPANS:
        mine = [span["id"] for span in spans if span["name"] == name]
        metrics[f"{name}.self_s"] = sum(self_s[i] for i in mine)
        metrics[f"{name}.calls"] = len(mine)
    metrics["trace.coverage"] = sum(self_s.values()) / run_s
    return metrics


def counting_metrics(spans: list[dict], counters: dict[str, int]) -> dict[str, float]:
    """Peak allocations and counts of one counting pass; zero where the
    workload never enters the layer."""
    metrics: dict[str, float] = {}
    for name in PEAK_SPANS:
        peaks = [span["peak_alloc_bytes"] for span in spans if span["name"] == name]
        metrics[f"{name}.peak_alloc_mb"] = max(peaks, default=0) / 1e6
    for name in COUNTS:
        metrics[name] = counters.get(name, 0)
    metrics["qudit.support_fraction"] = _ratio(counters, "qudit.support_nonzero", "qudit.support_scanned")
    metrics["circuit.nonzero_fraction"] = _ratio(counters, "circuit.nonzero", "circuit.amplitudes")
    return metrics


def _ratio(counters: dict[str, int], part: str, whole: str) -> float:
    return counters[part] / counters[whole] if counters.get(whole) else 0.0
