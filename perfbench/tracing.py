"""Layer spans recorded from outside the program, and the per-layer metrics.

:func:`instrument` wraps the public entry points of each ``repro`` layer
(module functions wherever a module has imported them, and class methods)
so that every call records a span: name, start, end, parent span and op id.
Spans are kept in memory by a :class:`Tracer`; :func:`layer_metrics`
reduces them, together with deltas of the program's own counters, to the
per-layer metrics named in ``BENCHMARK.json``.  Work inside shard worker
processes is not traced: it shows up only as the parent's
``execution.sharding.wait_s`` and the counters the workers send back.

A span's self time is its duration minus the union of its child spans'
intervals.  Spans opened on a thread with no open span of its own (a
service worker thread, say) become children of the span the op's thread has
open, so the client's wait for a service job is the parent of the job's
server-side work.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


class Tracer:
    """In-memory span recorder shared by every instrumented call.

    One op runs at a time (the workloads are closed loops with one caller);
    :meth:`run_op` marks it.  A span opened on a thread with no open span
    of its own (a service worker thread, say) becomes a child of the span
    the op's thread has open at that moment.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        #: Fingerprints of every channel twirled.
        self.twirled: set = set()
        #: Per density-matrix noise model: [a circuit it ran, model, runs].
        self.dm_programs: Dict[int, list] = {}
        self._op_stack: List[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._op_stack[-1]
            except IndexError:
                parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.op))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def run_op(self, op_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as op ``op_id`` under a root ``op`` span."""
        self.op = op_id
        self._op_stack = self._stack()
        try:
            return self.call("op", fn, args, {})
        finally:
            self.op = None


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            start = time.perf_counter()
            after(tracer, args, kwargs, result)
            tracer.count("trace.hook_s", time.perf_counter() - start)
        return result
    return traced


def span_cost_s(calls: int = 2000, repeats: int = 5) -> float:
    """Median time one traced call adds to the call it wraps."""
    tracer = Tracer()

    def noop():
        return None

    traced = _wrap(tracer, "calibrate", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        tracer.run_op(0, lambda: [traced() for _ in range(calls)])
        middle = time.perf_counter()
        [noop() for _ in range(calls)]
        end = time.perf_counter()
        costs.append(((middle - start) - (end - middle)) / calls)
    return statistics.median(costs)


class Instrumentation:
    """Installs span wrappers and undoes them on :meth:`remove`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, module_name: str, attr: str, name: str,
                 after: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` in every ``repro`` module that binds it."""
        original = getattr(sys.modules[module_name], attr)
        traced = _wrap(self.tracer, name, original, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, traced)

    def method(self, cls, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(self.tracer, name, original, after))

    def remove(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def _argument(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the public entry points of every layer the benchmark reads."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.execution.executor import Executor
    from repro.execution.sharding import ShardPlanner
    from repro.service.client import ServiceClient
    from repro.simulators.density_matrix import DensityMatrixSimulator
    from repro.simulators.noise import NoiseModel
    from repro.simulators.program import CompiledProgram
    from repro.vqe.clifford_vqe import CliffordVQE
    from repro.vqe.energy import BackendEnergyEvaluator

    def note_plan(tracer, args, kwargs, plan):
        if plan.is_parallel:
            tracer.count("sharding.parallel_items",
                         _argument(args, kwargs, 1, "num_items"))

    def note_shards(tracer, args, kwargs, result):
        tracer.count("sharding.shards",
                     len(_argument(args, kwargs, 2, "payloads")))

    def note_batch(tracer, args, kwargs, result):
        tracer.count("program.batch_rows",
                     len(_argument(args, kwargs, 0, "programs")))

    def note_twirl(tracer, args, kwargs, result):
        tracer.twirled.add(_argument(args, kwargs, 0, "channel").fingerprint())

    def note_dm_run(tracer, args, kwargs, result):
        simulator, circuit = args[0], _argument(args, kwargs, 1, "circuit")
        entry = tracer.dm_programs.setdefault(
            id(simulator.noise_model), [circuit, simulator.noise_model, 0])
        entry[2] += 1

    patch = Instrumentation(tracer)
    patch.method(ShardPlanner, "plan", "execution.sharding.plan", note_plan)
    patch.function("repro.execution.sharding", "run_sharded",
                   "execution.sharding.run_sharded", note_shards)
    for attr in ("run", "evaluate_observable", "evaluate_sweep",
                 "term_expectations"):
        patch.method(Executor, attr, f"execution.executor.{attr}")
    patch.function("repro.simulators.program", "compile_circuit",
                   "simulators.program.compile")
    patch.method(CompiledProgram, "bind", "simulators.program.bind")
    patch.function("repro.simulators.program", "run_batch",
                   "simulators.program.run_batch", note_batch)
    for attr in ("statevector_term_expectations",
                 "statevector_term_expectations_batch",
                 "density_matrix_term_expectations"):
        patch.function("repro.simulators.kernels", attr,
                       f"simulators.kernels.{attr}")
    patch.method(DensityMatrixSimulator, "run",
                 "simulators.density_matrix.run", note_dm_run)
    patch.function("repro.simulators.noise", "pauli_twirl",
                   "simulators.noise.twirl", note_twirl)
    patch.method(NoiseModel, "error_locations",
                 "simulators.noise.error_locations")
    patch.function("repro.simulators.pauli_propagation", "propagate",
                   "simulators.pauli_propagation.propagate")
    patch.method(QuantumCircuit, "bind_parameters", "circuits.bind")
    patch.method(CliffordVQE, "energy_from_population",
                 "vqe.energy_from_population")
    for attr in ("evaluate", "evaluate_sweep"):
        patch.method(BackendEnergyEvaluator, attr, f"vqe.{attr}")
    for attr in ("submit", "result"):
        patch.method(ServiceClient, attr, f"service.{attr}")
    patch.function("repro.qec.sampling", "sample_errors",
                   "qec.sampling.sample")
    for attr in ("packed_syndromes_and_flips", "syndromes_and_flips"):
        patch.function("repro.qec.sampling", attr, "qec.sampling.syndrome")
    for attr in ("batch_decode_packed", "batch_decode"):
        patch.function("repro.qec.decoders.base", attr,
                       "qec.decoders.decode")
    for attr in ("minimum_fault_weight", "stratum_probabilities",
                 "tilt_for_mean_weight"):
        patch.function("repro.qec.rare_event", attr, "qec.rare_event.plan")
    return patch


# ---------------------------------------------------------------------------
# counters the program keeps itself
# ---------------------------------------------------------------------------


def program_counters(executors) -> Dict[str, float]:
    """A snapshot of the program's own counters, for before/after deltas."""
    from repro.qec.decoders.base import batch_decode_stats
    from repro.qec.sampling import sampling_stats
    from repro.simulators.program import program_cache_counters
    compiled, hits = program_cache_counters()
    sampling = sampling_stats()
    decode = batch_decode_stats()
    snapshot = {"program.compiled": compiled, "program.hits": hits,
                "qec.shots_sampled": sampling.shots_sampled,
                "qec.shots_decoded": decode.shots_decoded,
                "qec.syndromes_decoded": decode.syndromes_decoded,
                "executor.retries": 0, "cache.hits": 0, "cache.misses": 0}
    for executor in {id(e): e for e in executors}.values():
        snapshot["executor.retries"] += executor.stats.shard_retries
        stats = executor.cache_stats
        snapshot["cache.hits"] += stats.hits
        snapshot["cache.misses"] += stats.misses
    return snapshot


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


def _union_length(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - _union_length(children[span.id], span.start, span.end)
            for span in spans}


def _kraus_per_run(tracer: Tracer) -> float:
    """Kraus operators one density-matrix run applies (computed from the
    compiled program, weighted by how often each program ran)."""
    from repro.simulators.program import OP_CHANNEL, compile_circuit
    runs = kraus = 0
    for circuit, noise_model, count in tracer.dm_programs.values():
        program = compile_circuit(circuit, noise_model=noise_model)
        per_run = sum(len(op.data) for op in program.ops
                      if op.kind == OP_CHANNEL)
        kraus += per_run * count
        runs += count
    return kraus / runs if runs else 0.0


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "execution.sharding.plans": "1/op",
    "execution.sharding.shards": "1/op",
    "execution.sharding.items_per_shard": "count",
    "execution.sharding.wait_s": "s/op",
    "execution.sharding.retries": "1/op",
    "simulators.program.compiles": "1/op",
    "simulators.program.compile_s": "s/op",
    "simulators.program.binds": "1/op",
    "simulators.program.bind_s": "s/op",
    "simulators.program.run_batch_s": "s/op",
    "simulators.program.batch_width": "count",
    "simulators.program.cache_hit_ratio": "ratio",
    "execution.executor.calls": "1/op",
    "execution.executor.self_s": "s/op",
    "execution.cache.lookups": "1/op",
    "execution.cache.hit_ratio": "ratio",
    "simulators.kernels.calls": "1/op",
    "simulators.kernels.self_s": "s/op",
    "simulators.density_matrix.runs": "1/op",
    "simulators.density_matrix.self_s": "s/op",
    "simulators.noise.kraus_per_run": "count",
    "simulators.noise.twirl_calls": "1/op",
    "simulators.noise.twirl_unique": "count",
    "simulators.noise.twirl_reuse_ratio": "ratio",
    "simulators.noise.twirl_s": "s/op",
    "simulators.noise.error_locations_s": "s/op",
    "simulators.pauli_propagation.calls": "1/op",
    "simulators.pauli_propagation.self_s": "s/op",
    "circuits.binds": "1/op",
    "circuits.bind_s": "s/op",
    "vqe.calls": "1/op",
    "vqe.self_s": "s/op",
    "qec.sampling.shots": "1/op",
    "qec.sampling.sample_s": "s/op",
    "qec.sampling.syndrome_s": "s/op",
    "qec.decoders.shots": "1/op",
    "qec.decoders.unique_syndromes": "1/op",
    "qec.decoders.unique_ratio": "ratio",
    "qec.decoders.decode_s": "s/op",
    "qec.rare_event.strata": "1/op",
    "qec.rare_event.plan_s": "s/op",
    "service.queue_wait_s": "s/op",
    "service.run_s": "s/op",
    "service.overhead_s": "s/op",
    "service.attempts": "1/op",
    "service.failed": "1/op",
    "unattributed_s": "s/op",
    "trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_overhead(tracer: Tracer, elapsed: float,
                   span_cost: float) -> float:
    """Estimated untraced over traced ``ops_per_s`` of a phase lasting
    ``elapsed`` seconds: every span costs ``span_cost`` seconds, and the
    counter hooks cost what they were timed at."""
    cost = len(tracer.spans) * span_cost + tracer.counters["trace.hook_s"]
    return elapsed / (elapsed - cost)


def layer_metrics(tracer: Tracer, ops: int, before: Dict[str, float],
                  after: Dict[str, float], service_rows: List[dict],
                  overhead: float) -> Tuple[Dict[str, float], dict]:
    """``(metrics, layer self times)`` of one traced phase of ``ops`` ops.

    ``service_rows`` are the registry rows (with the client-side round
    trip added as ``round_trip_s``) of the phase's service jobs, if any;
    ``overhead`` is the phase's :func:`trace_overhead`.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_by_layer = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        if span.name != "op":
            self_by_layer[span.layer] += own[span.id]
    self_by_layer = dict(self_by_layer)
    delta = {key: after[key] - before[key] for key in before}
    counters = tracer.counters

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def prefixed(prefix: str, table) -> float:
        return sum(value for name, value in table.items()
                   if name.startswith(prefix))

    # An op span's self time is the op time no layer span covers.
    unattributed = sum(own[span.id] for span in spans if span.name == "op")

    shards = counters["sharding.shards"]
    compiled, hits = delta["program.compiled"], delta["program.hits"]
    lookups = delta["cache.hits"] + delta["cache.misses"]
    twirls = calls["simulators.noise.twirl"]
    decoded = delta["qec.shots_decoded"]
    rows = service_rows
    metrics = {
        "execution.sharding.plans": per_op(calls["execution.sharding.plan"]),
        "execution.sharding.shards": per_op(shards),
        "execution.sharding.items_per_shard": _ratio(
            counters["sharding.parallel_items"], shards),
        "execution.sharding.wait_s": per_op(
            total["execution.sharding.run_sharded"]),
        "execution.sharding.retries": per_op(delta["executor.retries"]),
        "simulators.program.compiles": per_op(compiled),
        "simulators.program.compile_s": per_op(
            total["simulators.program.compile"]),
        "simulators.program.binds": per_op(calls["simulators.program.bind"]),
        "simulators.program.bind_s": per_op(total["simulators.program.bind"]),
        "simulators.program.run_batch_s": per_op(
            total["simulators.program.run_batch"]),
        "simulators.program.batch_width": _ratio(
            counters["program.batch_rows"],
            calls["simulators.program.run_batch"]),
        "simulators.program.cache_hit_ratio": _ratio(hits, compiled + hits),
        "execution.executor.calls": per_op(
            prefixed("execution.executor.", calls)),
        "execution.executor.self_s": per_op(
            self_by_layer.get("execution.executor", 0.0)),
        "execution.cache.lookups": per_op(lookups),
        "execution.cache.hit_ratio": _ratio(delta["cache.hits"], lookups),
        "simulators.kernels.calls": per_op(
            prefixed("simulators.kernels.", calls)),
        "simulators.kernels.self_s": per_op(
            self_by_layer.get("simulators.kernels", 0.0)),
        "simulators.density_matrix.runs": per_op(
            calls["simulators.density_matrix.run"]),
        "simulators.density_matrix.self_s": per_op(
            self_by_layer.get("simulators.density_matrix", 0.0)),
        "simulators.noise.kraus_per_run": _kraus_per_run(tracer),
        "simulators.noise.twirl_calls": per_op(twirls),
        "simulators.noise.twirl_unique": len(tracer.twirled),
        "simulators.noise.twirl_reuse_ratio": _ratio(
            twirls - len(tracer.twirled), twirls),
        "simulators.noise.twirl_s": per_op(total["simulators.noise.twirl"]),
        "simulators.noise.error_locations_s": per_op(
            total["simulators.noise.error_locations"]),
        "simulators.pauli_propagation.calls": per_op(
            calls["simulators.pauli_propagation.propagate"]),
        "simulators.pauli_propagation.self_s": per_op(
            self_by_layer.get("simulators.pauli_propagation", 0.0)),
        "circuits.binds": per_op(calls["circuits.bind"]),
        "circuits.bind_s": per_op(total["circuits.bind"]),
        "vqe.calls": per_op(prefixed("vqe.", calls)),
        "vqe.self_s": per_op(self_by_layer.get("vqe", 0.0)),
        "qec.sampling.shots": per_op(delta["qec.shots_sampled"]),
        "qec.sampling.sample_s": per_op(total["qec.sampling.sample"]),
        "qec.sampling.syndrome_s": per_op(total["qec.sampling.syndrome"]),
        "qec.decoders.shots": per_op(decoded),
        "qec.decoders.unique_syndromes": per_op(
            delta["qec.syndromes_decoded"]),
        "qec.decoders.unique_ratio": _ratio(delta["qec.syndromes_decoded"],
                                            decoded),
        "qec.decoders.decode_s": per_op(total["qec.decoders.decode"]),
        "qec.rare_event.strata": per_op(sum(row.get("strata", 0)
                                            for row in rows)),
        "qec.rare_event.plan_s": per_op(total["qec.rare_event.plan"]),
        "service.queue_wait_s": per_op(sum(row["queue_wait_s"]
                                           for row in rows)),
        "service.run_s": per_op(sum(row["run_s"] for row in rows)),
        "service.overhead_s": per_op(sum(row["round_trip_s"] - row["run_s"]
                                         for row in rows)),
        "service.attempts": per_op(sum(row["attempts"] for row in rows)),
        "service.failed": per_op(sum(row["state"] == "failed"
                                     for row in rows)),
        "unattributed_s": per_op(unattributed),
        "trace_overhead": overhead,
    }
    return metrics, self_by_layer
