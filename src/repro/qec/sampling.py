"""Batched, executor-routed Monte-Carlo sampling for QEC memory experiments.

The paper's QEC headline numbers (logical error rates behind Figs. 4–6 and
the decoder ablations) come from Monte-Carlo memory experiments.  Before this
module they were sampled one shot at a time in pure Python; now a whole
experiment is three NumPy operations plus one batched decode:

1. **Bernoulli matrix** — every elementary error mechanism is one column, so
   all shots draw as a single ``(shots, n_edges)`` comparison against the
   per-edge probabilities (recovered from the decoding-graph weights).
2. **Syndrome matmul** — a precomputed edge→detector incidence matrix turns
   the error matrix into all detector syndromes with one mod-2 matmul; the
   logical-mask vector yields every shot's true logical flip the same way.
   The default ``"packed"`` kernel (:mod:`repro.qec.bitops`) does this in
   bit-packed uint64 words via a precompiled gather-table plan — exact
   integer mod-2 math at any size; the legacy ``"dense"`` float32-GEMM
   kernel remains selectable (``kernel=`` / ``REPRO_QEC_KERNEL``) and both
   produce bitwise-identical failure counts.
3. **Batched decode** — the decoder's ``decode_batch``
   (:mod:`repro.qec.decoders.base`) deduplicates shots to unique syndromes
   and decodes each once.

Execution-layer contract (mirrors :mod:`repro.execution.sharding`):

* Shots are partitioned into fixed-size **blocks** of :data:`SHOT_BLOCK`;
  each block is seeded by its own ``SeedSequence.spawn`` child.  Blocks — not
  workers — are the determinism unit, so failure counts are **bitwise
  identical** for any ``max_workers`` and for the inline/thread/process
  paths (workers only change how blocks are *grouped*).
* Process shards are planned by the executor's
  :class:`~repro.execution.sharding.ShardPlanner` and run on the shared
  persistent pool; decoder diagnostic counters mutated in workers are
  shipped home as deltas and folded into the caller's decoder.
* Seeded experiments cache their ``(failures, total defects)`` in the
  executor's expectation cache (in-memory LRU, plus the on-disk L2 when
  ``REPRO_CACHE_DIR`` / ``cache_dir=`` is configured), keyed on the graph's
  content :meth:`~repro.qec.decoders.graph.DecodingGraph.fingerprint`, the
  decoder's cache token, shots, block size and seed — so a warm figure-suite
  re-run decodes nothing (provable via :func:`sampling_stats`).
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..execution.broker import make_broker
from ..execution.sharding import run_sharded, split_evenly
from .bitops import Mod2GatherPlan, mod2_matvec_packed, pack_rows, popcount
from .decoders.base import (absorb_batch_decode_delta, batch_decode,
                            batch_decode_delta, batch_decode_packed,
                            batch_decode_stats,
                            decoder_cache_token,
                            apply_decoder_counter_delta,
                            decoder_counter_delta, decoder_counter_snapshot,
                            reset_batch_decode_stats)
from .decoders.graph import BOUNDARY, DecodingGraph

#: Shots per deterministic sampling block.  Each block draws from its own
#: ``SeedSequence.spawn`` child, so results never depend on how blocks are
#: distributed over workers.  Changing this constant changes which child
#: seeds a given shot — it is folded into the cache key for that reason.
SHOT_BLOCK = 256

SeedLike = Union[None, int, np.random.SeedSequence]


# ---------------------------------------------------------------------------
# Sampling kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingArrays:
    """Precomputed per-graph arrays driving the vectorized sampler.

    ``incidence`` is the ``(n_edges, n_detectors)`` edge→detector matrix
    (columns follow :meth:`DecodingGraph.detector_order`), ``probabilities``
    the per-edge Bernoulli rates recovered from the edge weights, and
    ``logical_mask`` the 0/1 vector marking edges that cross the logical
    operator representative.
    """

    probabilities: np.ndarray
    incidence: np.ndarray
    logical_mask: np.ndarray
    # float32 copies drive the legacy dense kernel: integer matmuls bypass
    # BLAS, so its mod-2 reductions run over small-count float32 GEMMs
    # (exact only while detector degrees stay below float32's 2^24 integer
    # ceiling — the limit the packed kernel removes).
    incidence_f32: np.ndarray
    logical_mask_f32: np.ndarray
    # Bit-packed kernel state (repro.qec.bitops): the gather-table matmul
    # plan for the fixed incidence matrix and the packed logical mask.
    incidence_plan: Mod2GatherPlan
    logical_mask_words: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[0]

    @property
    def num_detectors(self) -> int:
        return self.incidence.shape[1]


#: Per-graph memo for the precomputed arrays; weak keys so a dropped graph
#: frees its arrays, and the memo never mutates the graph object itself.
_arrays_cache: "weakref.WeakKeyDictionary[DecodingGraph, Tuple[tuple, SamplingArrays]]" = \
    weakref.WeakKeyDictionary()


def sampling_arrays(graph: DecodingGraph) -> SamplingArrays:
    """The (memoized) :class:`SamplingArrays` for ``graph``."""
    token = graph._shape_token()
    cached = _arrays_cache.get(graph)
    if cached is not None and cached[0] == token:
        return cached[1]
    detectors = graph.detector_order()
    index = {detector: i for i, detector in enumerate(detectors)}
    edges = graph.edges
    incidence = np.zeros((len(edges), len(detectors)), dtype=np.uint8)
    logical_mask = np.zeros(len(edges), dtype=np.uint8)
    probabilities = np.empty(len(edges), dtype=np.float64)
    for position, edge in enumerate(edges):
        probabilities[position] = 1.0 / (1.0 + math.exp(edge.weight))
        logical_mask[position] = 1 if edge.flips_logical else 0
        for node in (edge.node_a, edge.node_b):
            if node != BOUNDARY:
                incidence[position, index[node]] ^= 1
    arrays = SamplingArrays(probabilities=probabilities, incidence=incidence,
                            logical_mask=logical_mask,
                            incidence_f32=incidence.astype(np.float32),
                            logical_mask_f32=logical_mask.astype(np.float32),
                            incidence_plan=Mod2GatherPlan(incidence),
                            logical_mask_words=pack_rows(logical_mask))
    _arrays_cache[graph] = (token, arrays)
    return arrays


def sample_errors(arrays: SamplingArrays, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """All shots' elementary-error indicators as one Bernoulli matrix.

    Row ``i`` of the returned ``(shots, n_edges)`` uint8 matrix is bitwise
    identical to what ``i`` sequential ``rng.random(n_edges)`` draws against
    the same probabilities would produce — the legacy per-shot sampler and
    this kernel consume the generator identically.
    """
    draws = rng.random((int(shots), arrays.num_edges))
    return (draws < arrays.probabilities).view(np.uint8)


def syndromes_of_errors(arrays: SamplingArrays,
                        errors: np.ndarray) -> np.ndarray:
    """All shots' detector syndromes via one mod-2 matmul.

    The count matmul runs in float32 (BLAS; exact — per-detector counts are
    bounded by the detector degree) and the ``& 1`` recovers the XOR of
    incident error edges per detector.
    """
    counts = errors.astype(np.float32) @ arrays.incidence_f32
    return counts.astype(np.uint8) & 1


def logical_flips_of_errors(arrays: SamplingArrays,
                            errors: np.ndarray) -> np.ndarray:
    """Each shot's true logical-flip parity (uint8 vector of 0/1)."""
    counts = errors.astype(np.float32) @ arrays.logical_mask_f32
    return counts.astype(np.uint8) & 1


def syndromes_and_flips(arrays: SamplingArrays, errors: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(syndromes, logical flips)`` sharing one float32 error conversion."""
    errors_f32 = errors.astype(np.float32)
    syndromes = (errors_f32 @ arrays.incidence_f32).astype(np.uint8) & 1
    flips = (errors_f32 @ arrays.logical_mask_f32).astype(np.uint8) & 1
    return syndromes, flips


def packed_syndromes_and_flips(arrays: SamplingArrays, errors: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(packed syndrome words, logical flips)`` via the bit-packed kernel.

    The error matrix is packed once
    (:func:`repro.qec.bitops.pack_rows`); syndromes come from the
    precompiled incidence :class:`~repro.qec.bitops.Mod2GatherPlan` as
    ``(shots, packed_words(n_detectors))`` uint64 words, and the logical
    flips from one packed mod-2 matvec against the logical mask.  Exact
    mod-2 arithmetic at any size — no float32 ceiling — and bit-for-bit
    equal to :func:`syndromes_and_flips` after
    :func:`~repro.qec.bitops.unpack_rows`.
    """
    error_words = pack_rows(errors, arrays.num_edges)
    syndrome_words = arrays.incidence_plan.matmul_packed(error_words)
    flips = mod2_matvec_packed(error_words, arrays.logical_mask_words)
    return syndrome_words, flips


#: Environment knob selecting the default syndrome kernel
#: (``"packed"`` | ``"dense"``); per-call ``kernel=`` overrides win.
_KERNEL_ENV = "REPRO_QEC_KERNEL"
_KERNELS = ("packed", "dense")


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """The effective syndrome kernel: argument > ``REPRO_QEC_KERNEL`` > packed.

    Both kernels produce bitwise-identical failure counts (the property
    suite holds them to it), so the choice never enters a cache key — a
    result cached under one kernel is valid for the other.
    """
    choice = kernel or os.environ.get(_KERNEL_ENV) or "packed"
    if choice not in _KERNELS:
        raise ValueError(
            f"unknown QEC kernel {choice!r}; expected one of {_KERNELS}")
    return choice


# ---------------------------------------------------------------------------
# Statistics (what "a warm cache decodes nothing" is proven with)
# ---------------------------------------------------------------------------


@dataclass
class QECSamplingStats:
    """Process-wide counters for the batched QEC sampling pipeline.

    ``experiments``/``cached_experiments`` count :func:`run_memory_sampling`
    calls (and how many were served entirely from the expectation cache
    without sampling or decoding); ``shots_sampled`` counts freshly sampled
    shots; ``process_shards`` counts shard payloads submitted to the worker
    pool.  ``syndromes_decoded``/``shots_decoded``/``batch_calls`` mirror
    :func:`repro.qec.decoders.batch_decode_stats` — unique syndromes that
    actually reached a decoder versus shots served by dedup.
    """

    experiments: int = 0
    cached_experiments: int = 0
    shots_sampled: int = 0
    process_shards: int = 0
    batch_calls: int = 0
    shots_decoded: int = 0
    syndromes_decoded: int = 0


_counters_lock = threading.Lock()
_experiments = 0
_cached_experiments = 0
_shots_sampled = 0
_process_shards = 0


def sampling_stats() -> QECSamplingStats:
    """A snapshot of the process-wide QEC sampling counters."""
    decode = batch_decode_stats()
    with _counters_lock:
        return QECSamplingStats(
            experiments=_experiments,
            cached_experiments=_cached_experiments,
            shots_sampled=_shots_sampled,
            process_shards=_process_shards,
            batch_calls=decode.batch_calls,
            shots_decoded=decode.shots_decoded,
            syndromes_decoded=decode.syndromes_decoded)


def reset_sampling_stats() -> None:
    """Zero the QEC sampling counters (tests and benchmarks)."""
    global _experiments, _cached_experiments, _shots_sampled, _process_shards
    with _counters_lock:
        _experiments = 0
        _cached_experiments = 0
        _shots_sampled = 0
        _process_shards = 0
    reset_batch_decode_stats()


def _note_experiment(shots: int, cached: bool, process_shards: int) -> None:
    global _experiments, _cached_experiments, _shots_sampled, _process_shards
    with _counters_lock:
        _experiments += 1
        if cached:
            _cached_experiments += 1
        else:
            _shots_sampled += int(shots)
        _process_shards += int(process_shards)


# ---------------------------------------------------------------------------
# Binomial uncertainty helpers (shared by both result dataclasses)
# ---------------------------------------------------------------------------


def binomial_standard_error(failures: int, shots: int) -> float:
    """Plain binomial standard error of an empirical failure rate."""
    if shots <= 0:
        return 0.0
    rate = failures / shots
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / shots)


def wilson_interval(failures: int, shots: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Unlike the normal approximation it stays inside ``[0, 1]`` and remains
    honest at the extreme rates QEC sweeps produce (zero observed failures
    at low ``p``, near-certain failure above threshold).
    """
    if shots <= 0:
        return (0.0, 1.0)
    rate = failures / shots
    denominator = 1.0 + z * z / shots
    center = (rate + z * z / (2.0 * shots)) / denominator
    half = (z / denominator) * math.sqrt(
        rate * (1.0 - rate) / shots + z * z / (4.0 * shots * shots))
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# Seeds and blocks
# ---------------------------------------------------------------------------


def as_seed_sequence(seed: SeedLike
                     ) -> Tuple[np.random.SeedSequence, Optional[tuple]]:
    """``(SeedSequence, cache-key component)`` for a user-facing seed.

    ``None`` yields fresh OS entropy and no key (the run is not cacheable);
    an integer and a :class:`numpy.random.SeedSequence` (e.g. a sweep's
    spawned child) both yield stable, encodable key components.

    A provided ``SeedSequence`` is **rebuilt** from its ``(entropy,
    spawn_key)`` identity rather than used directly: ``spawn()`` advances a
    stateful child counter on the original object, so spawning from the
    caller's instance would make repeat runs draw different blocks (and
    diverge from the cache key, which only encodes the identity).
    """
    if seed is None:
        return np.random.SeedSequence(), None
    if isinstance(seed, np.random.SeedSequence):
        key = ("seedseq", str(seed.entropy),
               tuple(int(k) for k in seed.spawn_key))
        fresh = np.random.SeedSequence(entropy=seed.entropy,
                                       spawn_key=seed.spawn_key)
        return fresh, key
    return np.random.SeedSequence(int(seed)), ("seed", int(seed))


def _shot_blocks(seed_sequence: np.random.SeedSequence, shots: int
                 ) -> List[Tuple[np.random.SeedSequence, int]]:
    """Deterministic ``(child seed, block size)`` pairs covering ``shots``."""
    num_blocks = max(1, -(-int(shots) // SHOT_BLOCK))
    children = seed_sequence.spawn(num_blocks)
    sizes = [SHOT_BLOCK] * (num_blocks - 1)
    sizes.append(int(shots) - SHOT_BLOCK * (num_blocks - 1))
    return list(zip(children, sizes))


# ---------------------------------------------------------------------------
# Shard payload (module-level: pickles by reference into worker processes)
# ---------------------------------------------------------------------------


def _memory_sampling_shard(graph: DecodingGraph, decoder,
                           blocks: Sequence[Tuple[np.random.SeedSequence,
                                                  int]],
                           kernel: str = "packed",
                           streaming: bool = False) -> Dict:
    """Sample + decode one worker's slice of blocks.

    ``kernel`` picks the syndrome-extraction math: ``"packed"`` (bit-packed
    uint64 words, :mod:`repro.qec.bitops`) or ``"dense"`` (the legacy
    float32 GEMM).  Both sample the identical Bernoulli stream and produce
    bitwise-identical failure counts.  ``streaming`` (packed kernel only)
    decodes and folds each :data:`SHOT_BLOCK`-shot block as it is sampled —
    constant memory in the shot count; neither the ``(shots, n_edges)``
    error matrix nor any per-shard syndrome accumulation is ever
    materialized.  Decoding is deterministic, so folding per block instead
    of deduplicating across the shard cannot change any verdict.

    Returns plain ints plus the decode/decoder counter deltas accumulated
    inside this call, so the parent process can fold worker-side accounting
    back into its own counters (process mode only; inline/thread mode
    mutates the caller's objects directly and ignores the deltas).
    """
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    decode_before = batch_decode_stats()
    counters_before = decoder_counter_snapshot(decoder)

    shots = 0
    failures = 0
    total_defects = 0
    if kernel == "dense":
        syndrome_rows: List[np.ndarray] = []
        flip_rows: List[np.ndarray] = []
        for seed_sequence, block_shots in blocks:
            rng = np.random.default_rng(seed_sequence)
            errors = sample_errors(arrays, block_shots, rng)
            block_syndromes, block_flips = syndromes_and_flips(arrays, errors)
            syndrome_rows.append(block_syndromes)
            flip_rows.append(block_flips)
        syndromes = np.concatenate(syndrome_rows, axis=0)
        error_flips = np.concatenate(flip_rows, axis=0).astype(bool)
        decoder_flips = batch_decode(decoder, syndromes, detectors)
        shots = int(syndromes.shape[0])
        failures = int(np.sum(decoder_flips != error_flips))
        total_defects = int(syndromes.sum(dtype=np.int64))
    elif streaming:
        # sample → pack → decode → fold, one block at a time.
        for seed_sequence, block_shots in blocks:
            rng = np.random.default_rng(seed_sequence)
            errors = sample_errors(arrays, block_shots, rng)
            syndrome_words, block_flips = \
                packed_syndromes_and_flips(arrays, errors)
            decoder_flips = batch_decode_packed(decoder, syndrome_words,
                                                detectors)
            shots += int(block_shots)
            failures += int(np.sum(decoder_flips
                                   != block_flips.astype(bool)))
            total_defects += int(popcount(syndrome_words))
    else:
        # Packed batch path: only the 8×-smaller packed syndrome words are
        # accumulated across blocks (the error matrix stays per-block), and
        # dedup spans the whole shard for maximum decode sharing.
        word_rows: List[np.ndarray] = []
        flip_blocks: List[np.ndarray] = []
        for seed_sequence, block_shots in blocks:
            rng = np.random.default_rng(seed_sequence)
            errors = sample_errors(arrays, block_shots, rng)
            syndrome_words, block_flips = \
                packed_syndromes_and_flips(arrays, errors)
            word_rows.append(syndrome_words)
            flip_blocks.append(block_flips)
        all_words = np.concatenate(word_rows, axis=0)
        error_flips = np.concatenate(flip_blocks, axis=0).astype(bool)
        decoder_flips = batch_decode_packed(decoder, all_words, detectors)
        shots = int(all_words.shape[0])
        failures = int(np.sum(decoder_flips != error_flips))
        total_defects = int(popcount(all_words))

    return {
        "shots": shots,
        "failures": failures,
        "total_defects": total_defects,
        "decode_delta": batch_decode_delta(decode_before,
                                           batch_decode_stats()),
        "decoder_delta": decoder_counter_delta(counters_before,
                                               decoder_counter_snapshot(decoder)),
    }


# ---------------------------------------------------------------------------
# Shard dispatch (shared with the rare-event estimators)
# ---------------------------------------------------------------------------


def _dispatch_shards(executor, policy, shard, units: Sequence,
                     payload: Callable[[list], tuple], decoder,
                     fault_reports: list) -> Tuple[List, int]:
    """Run ``shard(*payload(chunk))`` over ``units`` through the executor's
    planner and the policy's broker.

    Units are split into one contiguous chunk per planned worker; shard
    results come back in unit order together with the number of process
    shards that crossed a process boundary.  Decode and decoder counter
    deltas of those shards are folded into this process and ``decoder``;
    fault reports are appended to ``fault_reports`` and noted on the
    executor.
    """
    if not units:
        return [], 0
    plan = executor.planner.plan(num_items=len(units), hints=("process",),
                                 parallel=policy.parallel,
                                 max_workers=policy.max_workers)
    chunks = (split_evenly(list(units), plan.workers) if plan.is_parallel
              else [list(units)])
    payloads = [payload(chunk) for chunk in chunks]
    # run_sharded executes a single payload inline even under a process
    # plan, in which case the caller's objects were mutated directly and
    # the returned deltas must NOT be applied a second time.
    crosses_processes = (plan.mode == "process" and plan.is_parallel
                         and len(payloads) > 1)
    reports: list = []

    def _on_fault(report) -> None:
        reports.append(report)
        note = getattr(executor, "note_fault_report", None)
        if note is not None:
            note(report)

    broker = (make_broker(policy.broker, plan.workers)
              if plan.mode == "process" else None)
    results = run_sharded(plan, shard, payloads, policy=policy.retry,
                          broker=broker, on_fault=_on_fault)
    fault_reports.extend(reports)
    if not crosses_processes:
        return results, 0
    # Shards the supervisor degraded to inline execution mutated this
    # process's counters directly — folding their deltas again would
    # double-count them.
    inline_shards = {index for report in reports
                     for index in report.inline_indices}
    for index, result in enumerate(results):
        if index not in inline_shards:
            absorb_batch_decode_delta(result["decode_delta"])
            apply_decoder_counter_delta(decoder, result["decoder_delta"])
    executor.note_process_shards(len(payloads))
    return results, len(payloads)


# ---------------------------------------------------------------------------
# The executor-routed experiment entry point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingRun:
    """Raw outcome of one batched memory-experiment sampling run.

    ``fault_report`` is the shard supervisor's
    :class:`~repro.execution.sharding.FaultReport` when process dispatch
    had to recover from a worker crash/timeout (None on a healthy run);
    recovery never changes the counts — retried shards are re-seeded
    identically.
    """

    shots: int
    failures: int
    total_defects: int
    from_cache: bool
    fault_report: Optional[object] = None

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def average_defects(self) -> float:
        return self.total_defects / self.shots if self.shots else 0.0


def _cache_keys(graph: DecodingGraph, decoder_token: tuple, shots: int,
                seed_key: tuple) -> Tuple[tuple, tuple]:
    base = ("qec-memory", graph.fingerprint(), decoder_token,
            int(shots), int(SHOT_BLOCK), seed_key)
    return base + ("failures",), base + ("defects",)


def _chunk_cache_keys(graph: DecodingGraph, decoder_token: tuple,
                      shots: int, seed_key: tuple, start_block: int,
                      num_blocks: int) -> Tuple[tuple, tuple]:
    """Checkpoint keys for one streamed chunk of sampling blocks.

    Keyed by chunk position *and* width on top of the full-run identity,
    so a resumed :func:`stream_memory_sampling` with the same
    ``chunk_blocks`` re-decodes nothing already flushed, while a different
    chunking can never alias a partial count onto the wrong shots.
    """
    base = ("qec-memory-chunk", graph.fingerprint(), decoder_token,
            int(shots), int(SHOT_BLOCK), seed_key, int(start_block),
            int(num_blocks))
    return base + ("failures",), base + ("defects",)


def run_memory_sampling(graph: DecodingGraph, decoder, shots: int, *,
                        seed: SeedLike = None,
                        executor=None,
                        use_cache: Optional[bool] = None,
                        kernel: Optional[str] = None,
                        streaming: bool = False,
                        policy=None) -> SamplingRun:
    """Run a batched Monte-Carlo memory experiment over ``graph``.

    ``decoder`` needs only the graph-protocol ``decode(defects)``; in-repo
    decoders additionally implement ``decode_batch`` (via
    :class:`~repro.qec.decoders.base.SyndromeBatchDecoder`) and are decoded
    through it, while plain decoders get the generic dedup shell
    (:func:`repro.qec.decoders.base.batch_decode`).
    ``executor`` supplies the shard planner, the expectation cache and the
    stats block (default: the process-wide
    :func:`repro.execution.executor.default_executor`); ``policy`` (an
    :class:`~repro.execution.policy.ExecutionPolicy`) overrides its fan-out
    policy — including the shard broker — for this call.

    ``kernel`` selects the syndrome math (:func:`resolve_kernel`:
    ``"packed"`` bit-packed words by default, ``"dense"`` the legacy
    float32 GEMM); ``streaming=True`` decodes and folds each
    :data:`SHOT_BLOCK`-shot block as it is sampled, keeping memory
    constant in the shot count (d≥15 surface-code runs fit where the
    dense path cannot — see ``benchmarks/test_bitpacked_kernels.py``).

    Failure counts are bitwise identical for any worker count, any of the
    inline/thread/process paths, either kernel, and streaming on or off:
    all variants consume the identical per-block Bernoulli draw stream and
    decoding is deterministic.  Seeded runs therefore share one cache
    entry — the key encodes none of those execution choices — so
    repeating a seeded experiment decodes nothing.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    kernel = resolve_kernel(kernel)
    if streaming and kernel != "packed":
        raise ValueError("streaming mode requires the packed kernel")
    from ..execution.executor import default_executor
    if executor is None:
        executor = default_executor()
    if use_cache is None:
        use_cache = executor.use_cache

    seed_sequence, seed_key = as_seed_sequence(seed)
    decoder_token = decoder_cache_token(decoder)
    # Cacheable only when the run is seeded AND the decoder's behaviour is
    # fully pinned down by a content token (None = unknown configuration).
    cacheable = (use_cache and seed_key is not None
                 and decoder_token is not None)
    if cacheable:
        failures_key, defects_key = _cache_keys(graph, decoder_token, shots,
                                                seed_key)
        failures_hit = executor.cache.get(failures_key)
        defects_hit = executor.cache.get(defects_key)
        if failures_hit is not None and defects_hit is not None:
            _note_experiment(shots, cached=True, process_shards=0)
            return SamplingRun(shots=int(shots),
                               failures=int(round(failures_hit)),
                               total_defects=int(round(defects_hit)),
                               from_cache=True)

    blocks = _shot_blocks(seed_sequence, shots)
    fault_reports: list = []
    shard_results, process_shards = _dispatch_shards(
        executor, executor._resolve_policy(policy), _memory_sampling_shard,
        blocks, lambda chunk: (graph, decoder, chunk, kernel, streaming),
        decoder, fault_reports)
    failures = sum(result["failures"] for result in shard_results)
    total_defects = sum(result["total_defects"] for result in shard_results)
    _note_experiment(shots, cached=False, process_shards=process_shards)

    if cacheable:
        executor.cache.put(failures_key, float(failures))
        executor.cache.put(defects_key, float(total_defects))
    return SamplingRun(shots=int(shots), failures=int(failures),
                       total_defects=int(total_defects), from_cache=False,
                       fault_report=fault_reports[0] if fault_reports
                       else None)


def stream_memory_sampling(graph: DecodingGraph, decoder, shots: int, *,
                           seed: SeedLike = None,
                           executor=None,
                           chunk_blocks: int = 4,
                           use_cache: Optional[bool] = None,
                           kernel: Optional[str] = None):
    """Generator variant of :func:`run_memory_sampling` with partial results.

    Yields **cumulative** :class:`SamplingRun` snapshots after every
    ``chunk_blocks`` sampling blocks (each :data:`SHOT_BLOCK` shots); the
    final yield covers all ``shots`` and its failure count is **bitwise
    identical** to ``run_memory_sampling(graph, decoder, shots, seed=seed)``
    — both iterate the same per-block ``SeedSequence.spawn`` children, a
    chunk boundary can never move a draw.  This is what the service layer
    streams running Wilson intervals from
    (:func:`wilson_interval` applied to each snapshot).

    Seeded runs share the executor expectation-cache entry with
    :func:`run_memory_sampling`: a warm cache yields the final snapshot
    immediately (one yield, ``from_cache=True``) and decodes nothing, and a
    cold streamed run writes the entry the batched entry point will hit.
    Sampling happens inline (no process shards) — streaming is about
    latency, not throughput.

    Seeded streamed runs additionally **checkpoint each chunk** through the
    same cache (and its persistent disk tier when configured): after every
    ``chunk_blocks`` chunk, its failure/defect counts are flushed under a
    chunk-position key.  A resumed run — a retried service job, a restarted
    server, a new process over the same cache directory — replays cached
    chunks without sampling or decoding them and only computes from where
    the previous attempt died.  Chunk checkpoints are exact partial sums of
    the same per-block stream, so a resumed run's snapshots and final
    counts stay bitwise identical to an uninterrupted one.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if chunk_blocks < 1:
        raise ValueError("chunk_blocks must be a positive integer")
    kernel = resolve_kernel(kernel)
    from ..execution.executor import default_executor
    if executor is None:
        executor = default_executor()
    if use_cache is None:
        use_cache = executor.use_cache

    seed_sequence, seed_key = as_seed_sequence(seed)
    decoder_token = decoder_cache_token(decoder)
    cacheable = (use_cache and seed_key is not None
                 and decoder_token is not None)
    if cacheable:
        failures_key, defects_key = _cache_keys(graph, decoder_token, shots,
                                                seed_key)
        failures_hit = executor.cache.get(failures_key)
        defects_hit = executor.cache.get(defects_key)
        if failures_hit is not None and defects_hit is not None:
            _note_experiment(shots, cached=True, process_shards=0)
            yield SamplingRun(shots=int(shots),
                              failures=int(round(failures_hit)),
                              total_defects=int(round(defects_hit)),
                              from_cache=True)
            return

    blocks = _shot_blocks(seed_sequence, shots)
    done_shots = 0
    failures = 0
    total_defects = 0
    for start in range(0, len(blocks), int(chunk_blocks)):
        chunk = blocks[start:start + int(chunk_blocks)]
        chunk_keys = None
        if cacheable:
            chunk_keys = _chunk_cache_keys(graph, decoder_token, shots,
                                           seed_key, start, len(chunk))
            chunk_failures = executor.cache.get(chunk_keys[0])
            chunk_defects = executor.cache.get(chunk_keys[1])
            if chunk_failures is not None and chunk_defects is not None:
                # Checkpointed by a previous attempt: fold the flushed
                # counts, decode nothing.
                done_shots += sum(block_shots for _, block_shots in chunk)
                failures += int(round(chunk_failures))
                total_defects += int(round(chunk_defects))
                yield SamplingRun(shots=done_shots, failures=failures,
                                  total_defects=total_defects,
                                  from_cache=False)
                continue
        partial = _memory_sampling_shard(graph, decoder, chunk, kernel)
        done_shots += partial["shots"]
        failures += partial["failures"]
        total_defects += partial["total_defects"]
        if chunk_keys is not None:
            executor.cache.put(chunk_keys[0], float(partial["failures"]))
            executor.cache.put(chunk_keys[1],
                               float(partial["total_defects"]))
        yield SamplingRun(shots=done_shots, failures=failures,
                          total_defects=total_defects, from_cache=False)
    _note_experiment(shots, cached=False, process_shards=0)
    if cacheable:
        executor.cache.put(failures_key, float(failures))
        executor.cache.put(defects_key, float(total_defects))
