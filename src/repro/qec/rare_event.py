"""Rare-event logical-error-rate estimation for the low-``p`` tail.

The paper's EFT-era claims live where logical failures are rare: a direct
Monte-Carlo estimate of a logical error rate of ~1e-6 at ``p`` ≈ 1e-4 needs
~1e8 decoded shots before the confidence interval says anything.  This
module attacks the exponent instead of the constant with two
variance-reduction estimators over the same edge-Bernoulli error model the
direct sampler (:mod:`repro.qec.sampling`) draws from:

**Exponentially tilted importance sampling** (``method="importance"``) —
errors are drawn from a per-edge *tilted* distribution ``q`` instead of the
physical ``p``, and every shot is reweighted by its likelihood ratio

.. code-block:: text

    log w(e) = Σ_i  e_i · (log p_i − log q_i)
             + (1 − e_i) · (log(1 − p_i) − log(1 − q_i))

computed in log space as one matvec over the ``(shots, n_edges)`` error
matrix, so the weights stay finite at any ``p``/``q`` in ``(0, 1)``.  The
estimate ``p̂ = Σ w_i·fail_i / shots`` is unbiased; the effective sample
size ``(Σw)² / Σw²`` diagnoses tilt quality, and the interval is an
**effective-n Wilson interval** (the Wilson score formula evaluated at the
direct-sample count that would match the estimator's variance).  With
``q == p`` every weight is *identically* ``1.0`` — the log-ratio is an
exact zero — and the path consumes the very same ``rng.random((S, N))``
stream as :func:`~repro.qec.sampling.run_memory_sampling`, so it reproduces
the direct sampler **bitwise**.  That is the determinism anchor the tests
hold the implementation to.

**Weight-stratified subset sampling** (``method="stratified"``) — shots are
conditioned on the total error weight ``w`` (number of flipped edges).
Each stratum's probability ``P(W = w)`` is *exact*: a binomial when every
edge shares one rate, a Poisson-binomial dynamic program otherwise.  Strata
below the code's minimum fault weight — a minimum-weight decoder cannot
fail on fewer than ``⌈d/2⌉`` errors — are skipped as exact zeros, and the
decode budget is spent adaptively where the variance is: a pilot round
measures each stratum's conditional failure rate, the remainder allocates
by Neyman weights ``P_w · √(f_w(1 − f_w))``.  Conditional fixed-weight
samples are drawn exactly (no rejection) with the suffix-probability table
of the same dynamic program, so heterogeneous edge rates are handled
without approximation.

Both estimators ride the existing engine end to end: the per-graph
:class:`~repro.qec.sampling.SamplingArrays`, the bit-packed syndrome
kernels, per-block ``SeedSequence.spawn`` seeding (blocks — never workers —
are the determinism unit), executor shard dispatch through any
:class:`~repro.execution.broker.ShardBroker`, and expectation-cache
checkpointing (full-run keys here, per-chunk keys in
:func:`stream_rare_event_sampling`).  Floating-point aggregates are folded
with :func:`math.fsum` over *per-block* partial sums — ``fsum`` is
correctly rounded regardless of summand order, so how blocks are grouped
onto workers or brokers can never move a bit of the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bitops import popcount
from .decoders.base import (batch_decode, batch_decode_delta,
                            batch_decode_packed, batch_decode_stats,
                            decoder_cache_token,
                            decoder_counter_delta, decoder_counter_snapshot)
from .decoders.graph import DecodingGraph
from .sampling import (SHOT_BLOCK, SamplingArrays, SeedLike, _dispatch_shards,
                       _note_experiment, _shot_blocks, as_seed_sequence,
                       packed_syndromes_and_flips, resolve_kernel,
                       sampling_arrays, syndromes_and_flips, wilson_interval)

__all__ = [
    "RareEventResult", "StratumResult", "effective_wilson_interval",
    "minimum_fault_weight", "run_rare_event_sampling",
    "stream_rare_event_sampling", "stratum_probabilities",
    "tilt_for_mean_weight", "tilted_probabilities",
]

#: Tilt spec accepted by ``run_rare_event_sampling``: ``None`` (auto —
#: tilt the mean error weight onto the minimum fault weight), a scalar
#: exponential-tilt parameter θ, or an explicit per-edge ``q`` array.
TiltLike = Union[None, float, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# Tilting and stratum probabilities (pure math, no sampling)
# ---------------------------------------------------------------------------


def tilted_probabilities(probabilities: np.ndarray,
                         theta: float) -> np.ndarray:
    """Exponentially tilted Bernoulli rates ``q_i = p_i e^θ / (1 − p_i + p_i e^θ)``.

    ``θ > 0`` pushes mass toward more errors per shot, ``θ < 0`` toward
    fewer; ``θ = 0`` returns ``probabilities`` itself (bit-for-bit — the
    identity tilt must preserve the ``q == p`` determinism anchor, and a
    float round-trip through odds space would not).
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if theta == 0.0:
        return probabilities.copy()
    # Work in log-odds so extreme θ cannot overflow: the tilted odds are
    # exp(logit(p) + θ) and the sigmoid maps them back into (0, 1).
    logits = np.log(probabilities) - np.log1p(-probabilities)
    tilted = logits + float(theta)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-tilted))


def tilt_for_mean_weight(probabilities: np.ndarray,
                         target_weight: float) -> float:
    """The tilt θ making the *expected* error weight ``Σ q_i(θ)`` hit
    ``target_weight``.

    ``Σ q_i(θ)`` is strictly increasing in θ, so a fixed-iteration
    bisection (deterministic — the value participates in cache keys via
    the tilted ``q``) converges to machine precision.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    target = float(target_weight)
    if not 0.0 < target < probabilities.size:
        raise ValueError(
            f"target mean weight must lie in (0, {probabilities.size}), "
            f"got {target}")
    low, high = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if float(tilted_probabilities(probabilities, mid).sum()) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def stratum_probabilities(probabilities: np.ndarray,
                          max_weight: int) -> Tuple[np.ndarray, float]:
    """``(P, tail)``: exact ``P[w] = P(total weight = w)`` for
    ``w = 0..max_weight`` plus the truncated tail mass ``P(W > max_weight)``.

    One Poisson-binomial dynamic program over the edges (``O(n·max_weight)``)
    — with homogeneous rates it reduces to the exact binomial.  Truncation
    is exact for the kept bins: in the forward recurrence probability only
    flows *upward* in weight, so dropping bins above ``max_weight`` cannot
    perturb the bins below.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    max_weight = int(max_weight)
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    dist = np.zeros(max_weight + 1, dtype=np.float64)
    dist[0] = 1.0
    for rate in probabilities:
        keep = dist * (1.0 - rate)
        keep[1:] += dist[:-1] * rate
        dist = keep
    tail = max(0.0, 1.0 - math.fsum(dist.tolist()))
    return dist, tail


def minimum_fault_weight(graph: DecodingGraph) -> int:
    """The smallest error weight that can defeat a minimum-weight decoder.

    Any failing shot satisfies ``|error| + |correction| ≥ d`` (the error
    plus the correction close a logical-class cycle, whose weight is at
    least the code distance) and a minimum-weight correction never weighs
    more than the error that produced its syndrome, so ``|error| ≥ ⌈d/2⌉``.
    The bound assumes uniform edge weights and a minimum-weight (or better)
    decoder — pass ``min_fault_weight=1`` to ``run_rare_event_sampling``
    to disable the skip for decoders outside that contract.
    """
    return (int(graph.distance) + 1) // 2


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def effective_wilson_interval(estimate: float, variance: float,
                              z: float = 1.96,
                              tail: float = 0.0) -> Tuple[float, float]:
    """Wilson score interval at the *effective* sample count.

    ``n_eff = p̂(1 − p̂) / Var[p̂]`` is the direct-sample shot count whose
    binomial estimator would match this estimator's variance; evaluating
    the Wilson formula at ``(p̂·n_eff, n_eff)`` keeps the interval inside
    ``[0, 1]`` and honest near zero, exactly like the direct sampler's
    :func:`~repro.qec.sampling.wilson_interval`.  ``tail`` (an upper bound
    on truncation bias, e.g. the skipped stratum mass) widens the upper
    edge only.  A zero estimate with positive variance has no effective
    count (``n_eff = 0``); its upper edge is the normal one, ``z·σ``.
    """
    estimate = float(estimate)
    if variance <= 0.0:
        return (max(0.0, estimate), min(1.0, estimate + tail))
    if estimate <= 0.0:
        return (0.0, min(1.0, z * math.sqrt(variance) + float(tail)))
    clipped = min(max(estimate, 1e-300), 1.0 - 1e-12)
    n_eff = clipped * (1.0 - clipped) / float(variance)
    low, high = wilson_interval(estimate * n_eff, n_eff, z=z)
    return (low, min(1.0, high + float(tail)))


@dataclass(frozen=True)
class StratumResult:
    """One weight stratum of a stratified run: its exact probability mass
    and the conditional Monte-Carlo evidence collected in it."""

    weight: int
    probability: float
    shots: int
    failures: int

    @property
    def conditional_failure_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def contribution(self) -> float:
        """This stratum's share of the logical-error-rate estimate."""
        return self.probability * self.conditional_failure_rate


@dataclass(frozen=True)
class RareEventResult:
    """Outcome of a rare-event estimation run.

    ``shots`` counts *decoded* shots (the cost the estimator is judged
    by); ``estimate`` is the unbiased logical-error-rate estimate with
    estimator ``variance`` and effective sample size ``ess``;
    ``raw_failures`` counts the unweighted decoder disagreements actually
    observed (diagnostics — under a tilt they are *not* an error-rate
    numerator).  ``strata`` carries the per-stratum breakdown
    (stratified method only) and ``tail_probability`` bounds the bias of
    skipping strata above the truncation weight.
    """

    method: str
    shots: int
    estimate: float
    variance: float
    ess: float
    raw_failures: int
    total_defects: int
    from_cache: bool
    strata: Tuple[StratumResult, ...] = ()
    tail_probability: float = 0.0
    fault_report: Optional[object] = None

    @property
    def logical_error_rate(self) -> float:
        """Alias for :attr:`estimate` (mirrors ``SamplingRun``)."""
        return self.estimate

    @property
    def standard_error(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Effective-n Wilson interval (truncation tail widens the top)."""
        return effective_wilson_interval(self.estimate, self.variance, z=z,
                                         tail=self.tail_probability)


# ---------------------------------------------------------------------------
# The resolved run specification (shared by batch + streaming paths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RareEventSpec:
    """Everything derived from the arguments before any sampling happens.

    The spec is a pure function of (graph, method, knobs) — building it
    twice yields identical values, which is what lets the cache keys and
    the resumed streaming path agree with the original run.
    """

    method: str
    q: Optional[np.ndarray]              # importance only
    strata: Tuple[int, ...]              # stratified only
    stratum_probability: Dict[int, float]
    tail: float
    pilot_shots: int
    method_token: tuple


def _digest_array(values: np.ndarray) -> str:
    import hashlib
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return hasher.hexdigest()


def _resolve_spec(graph: DecodingGraph, arrays: SamplingArrays, method: str,
                  shots: int, tilt: TiltLike, min_fault_weight_arg,
                  max_weight_arg, pilot_shots: int,
                  tail_rtol: float) -> _RareEventSpec:
    if method == "importance":
        probabilities = arrays.probabilities
        if tilt is None:
            target = float(minimum_fault_weight(graph))
            theta = tilt_for_mean_weight(probabilities, target)
            q = tilted_probabilities(probabilities, theta)
        elif np.isscalar(tilt):
            q = tilted_probabilities(probabilities, float(tilt))
        else:
            q = np.asarray(tilt, dtype=np.float64)
            if q.shape != probabilities.shape:
                raise ValueError(
                    f"tilt array must have one rate per edge "
                    f"({probabilities.size}), got shape {q.shape}")
        if q.size and (float(q.min()) <= 0.0 or float(q.max()) >= 1.0):
            raise ValueError("tilted probabilities must lie strictly in "
                             "(0, 1) — the likelihood ratio is undefined "
                             "at 0 and 1")
        return _RareEventSpec(method="importance", q=q, strata=(),
                              stratum_probability={}, tail=0.0,
                              pilot_shots=0,
                              method_token=("importance", _digest_array(q)))

    if method != "stratified":
        raise ValueError(f"unknown rare-event method {method!r} "
                         f"(expected 'importance' or 'stratified')")
    n_edges = arrays.num_edges
    min_fault = (minimum_fault_weight(graph) if min_fault_weight_arg is None
                 else int(min_fault_weight_arg))
    if not 1 <= min_fault <= n_edges:
        raise ValueError(f"min_fault_weight must lie in [1, {n_edges}], "
                         f"got {min_fault}")
    if max_weight_arg is None:
        # Extend the truncation weight until the dropped tail is a
        # negligible fraction of the covered stratum mass (deterministic:
        # depends only on the edge rates).
        max_weight = min_fault
        ceiling = min(n_edges, min_fault + 16)
        while max_weight < ceiling:
            dist, tail = stratum_probabilities(arrays.probabilities,
                                               max_weight)
            covered = math.fsum(dist[min_fault:].tolist())
            if tail <= tail_rtol * covered:
                break
            max_weight += 1
    else:
        max_weight = int(max_weight_arg)
        if max_weight < min_fault:
            raise ValueError(
                f"max_weight ({max_weight}) must be >= the minimum fault "
                f"weight ({min_fault})")
        max_weight = min(max_weight, n_edges)
    dist, tail = stratum_probabilities(arrays.probabilities, max_weight)
    strata = tuple(w for w in range(min_fault, max_weight + 1)
                   if dist[w] > 0.0)
    if not strata:
        raise ValueError(
            f"no stratum in [{min_fault}, {max_weight}] has positive "
            f"probability — the error model cannot reach the fault weight")
    pilot = max(1, min(int(pilot_shots), int(shots) // (2 * len(strata))))
    return _RareEventSpec(
        method="stratified", q=None, strata=strata,
        stratum_probability={w: float(dist[w]) for w in strata}, tail=tail,
        pilot_shots=pilot,
        method_token=("stratified", min_fault, max_weight, pilot))


# ---------------------------------------------------------------------------
# Conditional fixed-weight sampling (exact, DP-based — no rejection)
# ---------------------------------------------------------------------------


def _conditional_include_table(probabilities: np.ndarray,
                               weight: int) -> np.ndarray:
    """``(n_edges, weight + 1)`` inclusion probabilities for exact
    fixed-weight sampling.

    Entry ``[i, k]`` is ``P(edge i flips | k errors remain among edges
    i..n−1)`` — ``p_i · T[i+1, k−1] / T[i, k]`` with the suffix table
    ``T[i, k] = P(edges i.. carry exactly k errors)``.  Sampling edges in
    order with these probabilities draws a subset of size exactly
    ``weight`` from the true conditional distribution (uniform over
    subsets when the rates are homogeneous, the tilted conditional
    otherwise), with no rejection loop.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n = probabilities.size
    weight = int(weight)
    table = np.zeros((n + 1, weight + 1), dtype=np.float64)
    table[n, 0] = 1.0
    for i in range(n - 1, -1, -1):
        rate = probabilities[i]
        table[i] = table[i + 1] * (1.0 - rate)
        table[i, 1:] += table[i + 1, :-1] * rate
    include = np.zeros((n, weight + 1), dtype=np.float64)
    for i in range(n):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(table[i, 1:] > 0.0,
                             probabilities[i] * table[i + 1, :-1]
                             / table[i, 1:], 0.0)
        include[i, 1:] = np.clip(ratio, 0.0, 1.0)
        # Forced inclusions: as many errors left as edges — float division
        # may land a hair under 1.0, which would strand a shot above
        # weight 0 at the end.
        forced = np.arange(weight + 1) >= (n - i)
        include[i, forced & (np.arange(weight + 1) > 0)] = 1.0
    return include


def _sample_fixed_weight(arrays: SamplingArrays, weight: int, shots: int,
                         rng: np.random.Generator,
                         include: np.ndarray) -> np.ndarray:
    """``(shots, n_edges)`` error matrix with exactly ``weight`` flips/row.

    Consumes one ``rng.random((shots, n_edges))`` draw — the same stream
    shape as the direct sampler — and walks the edges once, vectorized
    over shots.
    """
    n = arrays.num_edges
    draws = rng.random((int(shots), n))
    remaining = np.full(int(shots), int(weight), dtype=np.int64)
    errors = np.zeros((int(shots), n), dtype=np.uint8)
    for i in range(n):
        flip = draws[:, i] < include[i, remaining]
        errors[:, i] = flip
        remaining -= flip
    return errors


# ---------------------------------------------------------------------------
# The shard payload (module-level: pickles by reference into workers)
# ---------------------------------------------------------------------------


def _log_weight_terms(p: np.ndarray, q: np.ndarray
                      ) -> Tuple[float, np.ndarray]:
    """``(base_log, log_ratio)`` such that a shot with error vector ``e``
    carries likelihood-ratio log-weight ``base_log + e @ log_ratio``.

    ``base_log`` is the all-zeros weight (every edge kept clean under both
    measures) and ``log_ratio`` the per-edge swing of flipping one edge.
    Both terms are exact zeros when ``q == p`` (identical arrays subtract
    to 0.0), which is what makes the identity-tilt anchor bitwise; and
    both stay finite for any rates strictly inside (0, 1) because each
    factor goes through ``log``/``log1p`` before any ratio is formed.
    """
    keep = np.log1p(-p) - np.log1p(-q)
    log_ratio = (np.log(p) - np.log(q)) - keep
    return float(keep.sum()), log_ratio


def _decode_failures(arrays: SamplingArrays, errors: np.ndarray, decoder,
                     detectors, kernel: str
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(per-shot failure bools, error flips, total defects)`` for one
    block of errors, through either syndrome kernel."""
    if kernel == "dense":
        syndromes, flips = syndromes_and_flips(arrays, errors)
        decoder_flips = batch_decode(decoder, syndromes, detectors)
        defects = int(syndromes.sum(dtype=np.int64))
    else:
        words, flips = packed_syndromes_and_flips(arrays, errors)
        decoder_flips = batch_decode_packed(decoder, words, detectors)
        defects = int(popcount(words))
    return decoder_flips != flips.astype(bool), flips, defects


def _rare_event_shard(graph: DecodingGraph, decoder, q: Optional[np.ndarray],
                      units: Sequence[Tuple[Optional[int],
                                            np.random.SeedSequence, int]],
                      kernel: str = "packed") -> Dict:
    """Sample + decode one worker's slice of rare-event blocks.

    Each unit is ``(stratum weight | None, block seed, block shots)``:
    ``None`` means an importance-sampling block drawn from the tilted
    rates ``q``; an integer means a stratified block conditioned on that
    exact error weight.  Returns **per-block** partial sums (never folded
    inside the shard) so the parent can reduce them with ``math.fsum`` in
    a grouping-independent way, plus the decode/decoder counter deltas
    accumulated in this process.
    """
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    decode_before = batch_decode_stats()
    counters_before = decoder_counter_snapshot(decoder)

    log_ratio = base_log = None
    if q is not None:
        base_log, log_ratio = _log_weight_terms(arrays.probabilities, q)

    include_tables: Dict[int, np.ndarray] = {}
    blocks: List[Dict] = []
    for weight, seed_child, block_shots in units:
        rng = np.random.default_rng(seed_child)
        if weight is None:
            draws = rng.random((int(block_shots), arrays.num_edges))
            errors = (draws < q).view(np.uint8)
            failures, _, defects = _decode_failures(arrays, errors, decoder,
                                                    detectors, kernel)
            log_weights = base_log + errors @ log_ratio
            weights = np.exp(log_weights)
            weighted = weights * failures
            blocks.append({
                "shots": int(block_shots),
                "raw_failures": int(failures.sum()),
                "defects": defects,
                "wf": float(weighted.sum()),
                "wf2": float((weighted * weighted).sum()),
                "w": float(weights.sum()),
                "w2": float((weights * weights).sum()),
            })
        else:
            include = include_tables.get(int(weight))
            if include is None:
                include = _conditional_include_table(arrays.probabilities,
                                                     int(weight))
                include_tables[int(weight)] = include
            errors = _sample_fixed_weight(arrays, int(weight), block_shots,
                                          rng, include)
            failures, _, defects = _decode_failures(arrays, errors, decoder,
                                                    detectors, kernel)
            blocks.append({
                "weight": int(weight),
                "shots": int(block_shots),
                "failures": int(failures.sum()),
                "defects": defects,
            })
    return {
        "blocks": blocks,
        "decode_delta": batch_decode_delta(decode_before,
                                           batch_decode_stats()),
        "decoder_delta": decoder_counter_delta(
            counters_before, decoder_counter_snapshot(decoder)),
    }


# ---------------------------------------------------------------------------
# Folding per-block results (fsum: grouping-independent to the last bit)
# ---------------------------------------------------------------------------


def _fold_importance(blocks: Sequence[Dict], shots: int
                     ) -> Tuple[float, float, float, int, int]:
    """``(estimate, variance, ess, raw failures, defects)`` from per-block
    importance partial sums."""
    wf = math.fsum(block["wf"] for block in blocks)
    wf2 = math.fsum(block["wf2"] for block in blocks)
    w = math.fsum(block["w"] for block in blocks)
    w2 = math.fsum(block["w2"] for block in blocks)
    raw = sum(block["raw_failures"] for block in blocks)
    defects = sum(block["defects"] for block in blocks)
    shots = int(shots)
    estimate = wf / shots
    if shots > 1:
        # Sample variance of x_i = w_i·fail_i over the S draws, then /S
        # for the variance of the mean.
        sample_var = max(wf2 - shots * estimate * estimate, 0.0) / (shots - 1)
        variance = sample_var / shots
    else:
        variance = 0.0
    ess = (w * w / w2) if w2 > 0.0 else 0.0
    return estimate, variance, ess, raw, defects


def _fold_strata(blocks: Sequence[Dict], spec: _RareEventSpec
                 ) -> Tuple[float, float, float, int, int,
                            Tuple[StratumResult, ...]]:
    """``(estimate, variance, ess, raw failures, defects, strata)`` from
    per-block stratified counts (all integers — order cannot matter)."""
    shots_by = {w: 0 for w in spec.strata}
    failures_by = {w: 0 for w in spec.strata}
    defects = 0
    for block in blocks:
        weight = block["weight"]
        shots_by[weight] += block["shots"]
        failures_by[weight] += block["failures"]
        defects += block["defects"]
    strata = tuple(StratumResult(weight=w,
                                 probability=spec.stratum_probability[w],
                                 shots=shots_by[w], failures=failures_by[w])
                   for w in spec.strata)
    estimate = math.fsum(s.contribution for s in strata)
    # Laplace-smoothed conditional rates for the variance only: a stratum
    # with zero observed failures still carries nonzero uncertainty.
    variance = math.fsum(
        s.probability * s.probability
        * ((s.failures + 1) / (s.shots + 2))
        * (1.0 - (s.failures + 1) / (s.shots + 2)) / s.shots
        for s in strata if s.shots > 0)
    clipped = min(max(estimate, 1e-300), 1.0 - 1e-12)
    ess = clipped * (1.0 - clipped) / variance if variance > 0.0 else 0.0
    raw = sum(s.failures for s in strata)
    return estimate, variance, ess, raw, defects, strata


def _allocate_main_shots(spec: _RareEventSpec,
                         pilot: Dict[int, Tuple[int, int]],
                         budget: int) -> Dict[int, int]:
    """Neyman allocation of the post-pilot budget.

    ``score_w = P_w · √(f̃_w (1 − f̃_w))`` with Laplace-smoothed pilot
    rates ``f̃ = (failures + 1)/(shots + 2)`` (a zero-failure pilot must
    not zero a stratum out — its rate is merely *small*).  Largest-
    remainder rounding keeps the total exactly ``budget`` and is a pure
    function of integers, so every worker layout allocates identically.
    """
    scores = {}
    for weight in spec.strata:
        shots, failures = pilot[weight]
        smoothed = (failures + 1) / (shots + 2)
        scores[weight] = (spec.stratum_probability[weight]
                          * math.sqrt(smoothed * (1.0 - smoothed)))
    total = math.fsum(scores.values())
    if total <= 0.0 or budget <= 0:
        return {weight: 0 for weight in spec.strata}
    raw = {weight: budget * scores[weight] / total for weight in spec.strata}
    allocation = {weight: int(raw[weight]) for weight in spec.strata}
    shortfall = budget - sum(allocation.values())
    remainders = sorted(spec.strata,
                        key=lambda w: (raw[w] - allocation[w], -w),
                        reverse=True)
    for weight in remainders[:shortfall]:
        allocation[weight] += 1
    return allocation


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def _rare_cache_base(graph: DecodingGraph, decoder_token: tuple,
                     spec: _RareEventSpec, shots: int, seed_key: tuple
                     ) -> tuple:
    return ("qec-rare", graph.fingerprint(), decoder_token,
            spec.method_token, int(shots), int(SHOT_BLOCK), seed_key)


_SCALAR_COMPONENTS = ("estimate", "variance", "ess", "raw", "defects")


def _load_cached_result(executor, base: tuple, spec: _RareEventSpec,
                        shots: int) -> Optional[RareEventResult]:
    values = {}
    for component in _SCALAR_COMPONENTS:
        hit = executor.cache.get(base + (component,))
        if hit is None:
            return None
        values[component] = hit
    strata: List[StratumResult] = []
    for weight in spec.strata:
        stratum_shots = executor.cache.get(base + ("stratum", weight,
                                                   "shots"))
        stratum_failures = executor.cache.get(base + ("stratum", weight,
                                                      "failures"))
        if stratum_shots is None or stratum_failures is None:
            return None
        strata.append(StratumResult(
            weight=weight, probability=spec.stratum_probability[weight],
            shots=int(round(stratum_shots)),
            failures=int(round(stratum_failures))))
    return RareEventResult(
        method=spec.method, shots=int(shots),
        estimate=float(values["estimate"]),
        variance=float(values["variance"]), ess=float(values["ess"]),
        raw_failures=int(round(values["raw"])),
        total_defects=int(round(values["defects"])), from_cache=True,
        strata=tuple(strata), tail_probability=spec.tail)


def _store_result(executor, base: tuple, result: RareEventResult) -> None:
    executor.cache.put(base + ("estimate",), float(result.estimate))
    executor.cache.put(base + ("variance",), float(result.variance))
    executor.cache.put(base + ("ess",), float(result.ess))
    executor.cache.put(base + ("raw",), float(result.raw_failures))
    executor.cache.put(base + ("defects",), float(result.total_defects))
    for stratum in result.strata:
        executor.cache.put(base + ("stratum", stratum.weight, "shots"),
                           float(stratum.shots))
        executor.cache.put(base + ("stratum", stratum.weight, "failures"),
                           float(stratum.failures))


def _chunk_keys(base: tuple, phase: str, weight: Optional[int], start: int,
                count: int, components: Sequence[str]) -> Dict[str, tuple]:
    prefix = ("qec-rare-chunk",) + base[1:] + (
        phase, -1 if weight is None else int(weight), int(start), int(count))
    return {component: prefix + (component,) for component in components}


# ---------------------------------------------------------------------------
# Work-unit construction (the seed-spawning contract)
# ---------------------------------------------------------------------------


def _stratum_blocks(child: np.random.SeedSequence, shots: int
                    ) -> List[Tuple[np.random.SeedSequence, int]]:
    """Deterministic per-stratum blocks (same shape as ``_shot_blocks``)."""
    return _shot_blocks(child, shots) if shots > 0 else []


def _stratum_children(seed_sequence: np.random.SeedSequence,
                      spec: _RareEventSpec) -> Dict[int, tuple]:
    """Per-stratum ``(pilot child, main child)`` seed pairs.

    The spawn layout depends only on the stratum list, which is resolved
    from the graph and the knobs before any sampling — so pilot draws are
    unchanged by how the main budget ends up allocated.
    """
    children = seed_sequence.spawn(2 * len(spec.strata))
    return {weight: (children[2 * index], children[2 * index + 1])
            for index, weight in enumerate(spec.strata)}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                            method: str = "stratified",
                            seed: SeedLike = None,
                            executor=None,
                            use_cache: Optional[bool] = None,
                            kernel: Optional[str] = None,
                            policy=None,
                            tilt: TiltLike = None,
                            min_fault_weight: Optional[int] = None,
                            max_weight: Optional[int] = None,
                            pilot_shots: int = SHOT_BLOCK,
                            tail_rtol: float = 1e-3) -> RareEventResult:
    """Estimate the logical error rate with a rare-event estimator.

    ``shots`` is the **decode budget** — every method decodes exactly this
    many shots, which is the axis the benchmark gate compares against
    direct sampling.  ``method="importance"`` draws from exponentially
    tilted edge rates (``tilt``: ``None`` auto-solves the tilt that puts
    the mean error weight on the code's minimum fault weight, a float is
    the tilt parameter θ itself, an array is an explicit per-edge ``q``;
    ``tilt=0.0`` reproduces :func:`~repro.qec.sampling.run_memory_sampling`
    bitwise).  ``method="stratified"`` conditions on total error weight:
    strata below ``min_fault_weight`` (default ``⌈d/2⌉``) are exact zeros
    and never decoded, ``max_weight`` truncates the scored range (default:
    extend until the dropped tail is below ``tail_rtol`` of the covered
    mass), and the budget is spent pilot-then-Neyman across strata.

    Execution mirrors :func:`~repro.qec.sampling.run_memory_sampling`:
    blocks of :data:`~repro.qec.sampling.SHOT_BLOCK` shots seeded by
    ``SeedSequence.spawn`` children are the determinism unit, shards run
    through the executor's planner and any configured
    :class:`~repro.execution.broker.ShardBroker`, and seeded runs cache
    their aggregates in the executor's expectation cache (memory + disk
    tiers) under keys that encode none of the fan-out choices.  Results
    are **bitwise identical** for any ``max_workers``, any
    inline/thread/process path and any broker: integer counts fold
    exactly, and floating-point aggregates fold with ``math.fsum`` over
    per-block partial sums, whose correctly-rounded total is independent
    of how blocks were grouped.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    kernel = resolve_kernel(kernel)
    from ..execution.executor import default_executor
    if executor is None:
        executor = default_executor()
    if use_cache is None:
        use_cache = executor.use_cache

    arrays = sampling_arrays(graph)
    spec = _resolve_spec(graph, arrays, method, shots, tilt,
                         min_fault_weight, max_weight, pilot_shots,
                         tail_rtol)
    seed_sequence, seed_key = as_seed_sequence(seed)
    decoder_token = decoder_cache_token(decoder)
    cacheable = (use_cache and seed_key is not None
                 and decoder_token is not None)
    base = None
    if cacheable:
        base = _rare_cache_base(graph, decoder_token, spec, shots, seed_key)
        cached = _load_cached_result(executor, base, spec, shots)
        if cached is not None:
            _note_experiment(shots, cached=True, process_shards=0)
            return cached

    effective = executor._resolve_policy(policy)
    fault_reports: list = []

    def dispatch(units) -> Tuple[List[Dict], int]:
        """Per-block results in unit order, plus the process-shard count."""
        results, process_shards = _dispatch_shards(
            executor, effective, _rare_event_shard, units,
            lambda chunk: (graph, decoder, spec.q, chunk, kernel), decoder,
            fault_reports)
        return ([block for result in results for block in result["blocks"]],
                process_shards)

    if spec.method == "importance":
        units = [(None, child, block_shots)
                 for child, block_shots in _shot_blocks(seed_sequence, shots)]
        blocks, process_shards = dispatch(units)
        estimate, variance, ess, raw, defects = _fold_importance(blocks,
                                                                 shots)
        strata: Tuple[StratumResult, ...] = ()
    else:
        children = _stratum_children(seed_sequence, spec)
        pilot_units = [(weight, child, block_shots)
                       for weight in spec.strata
                       for child, block_shots in _stratum_blocks(
                           children[weight][0], spec.pilot_shots)]
        pilot_blocks, pilot_shards = dispatch(pilot_units)
        pilot: Dict[int, Tuple[int, int]] = {w: (0, 0) for w in spec.strata}
        for block in pilot_blocks:
            shots_so_far, failures_so_far = pilot[block["weight"]]
            pilot[block["weight"]] = (shots_so_far + block["shots"],
                                      failures_so_far + block["failures"])
        budget = int(shots) - sum(count for count, _ in pilot.values())
        allocation = _allocate_main_shots(spec, pilot, budget)
        main_units = [(weight, child, block_shots)
                      for weight in spec.strata
                      for child, block_shots in _stratum_blocks(
                          children[weight][1], allocation[weight])]
        main_blocks, main_shards = dispatch(main_units)
        process_shards = pilot_shards + main_shards
        estimate, variance, ess, raw, defects, strata = _fold_strata(
            pilot_blocks + main_blocks, spec)
    _note_experiment(shots, cached=False, process_shards=process_shards)

    result = RareEventResult(
        method=spec.method, shots=int(shots), estimate=estimate,
        variance=variance, ess=ess, raw_failures=raw, total_defects=defects,
        from_cache=False, strata=strata, tail_probability=spec.tail,
        fault_report=fault_reports[0] if fault_reports else None)
    if cacheable:
        _store_result(executor, base, result)
    return result


def stream_rare_event_sampling(graph: DecodingGraph, decoder, shots: int, *,
                               method: str = "stratified",
                               seed: SeedLike = None,
                               executor=None,
                               chunk_blocks: int = 4,
                               use_cache: Optional[bool] = None,
                               kernel: Optional[str] = None,
                               tilt: TiltLike = None,
                               min_fault_weight: Optional[int] = None,
                               max_weight: Optional[int] = None,
                               pilot_shots: int = SHOT_BLOCK,
                               tail_rtol: float = 1e-3):
    """Generator variant of :func:`run_rare_event_sampling` with partials.

    Yields cumulative :class:`RareEventResult` snapshots after every
    ``chunk_blocks`` sampling blocks — the service layer streams
    per-stratum partials and running effective-n Wilson intervals from
    these.  Sampling happens inline (streaming is about latency, not
    throughput), and seeded runs **checkpoint every chunk** through the
    executor's expectation cache exactly like
    :func:`~repro.qec.sampling.stream_memory_sampling`: a resumed run — a
    retried service job, a restarted server, a new process over the same
    cache directory — replays flushed chunks without sampling or decoding
    and produces snapshots bitwise identical to an uninterrupted run
    (chunk aggregates are folded the same way whether they come from the
    cache or from fresh decoding).

    The final snapshot writes the same full-run cache entries
    :func:`run_rare_event_sampling` uses, so batch and streaming runs warm
    each other.  Integer aggregates (the whole stratified method) match
    the batch path bitwise; importance-sampling float aggregates fold
    per-chunk here versus per-block there, so they agree to ``fsum``
    rounding of the partial sums (exactly equal whenever the weights are
    exact — e.g. the ``q == p`` anchor).
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

    arrays = sampling_arrays(graph)
    spec = _resolve_spec(graph, arrays, method, shots, tilt,
                         min_fault_weight, max_weight, pilot_shots,
                         tail_rtol)
    seed_sequence, seed_key = as_seed_sequence(seed)
    decoder_token = decoder_cache_token(decoder)
    cacheable = (use_cache and seed_key is not None
                 and decoder_token is not None)
    base = None
    if cacheable:
        base = _rare_cache_base(graph, decoder_token, spec, shots, seed_key)
        cached = _load_cached_result(executor, base, spec, shots)
        if cached is not None:
            _note_experiment(shots, cached=True, process_shards=0)
            yield cached
            return

    importance_components = ("wf", "wf2", "w", "w2", "raw", "defects",
                             "shots")
    stratified_components = ("failures", "defects", "shots")

    def _run_chunks(phase: str, weight: Optional[int], block_seeds):
        """Yield per-chunk aggregate dicts (cache-served or computed)."""
        for start in range(0, len(block_seeds), int(chunk_blocks)):
            chunk = block_seeds[start:start + int(chunk_blocks)]
            components = (importance_components if weight is None
                          else stratified_components)
            keys = None
            if cacheable:
                keys = _chunk_keys(base, phase, weight, start, len(chunk),
                                   components)
                hits = {component: executor.cache.get(key)
                        for component, key in keys.items()}
                if all(value is not None for value in hits.values()):
                    yield {component: hits[component]
                           for component in components}
                    continue
            units = [(weight, child, block_shots)
                     for child, block_shots in chunk]
            shard = _rare_event_shard(graph, decoder, spec.q, units, kernel)
            if weight is None:
                aggregate = {
                    "wf": math.fsum(b["wf"] for b in shard["blocks"]),
                    "wf2": math.fsum(b["wf2"] for b in shard["blocks"]),
                    "w": math.fsum(b["w"] for b in shard["blocks"]),
                    "w2": math.fsum(b["w2"] for b in shard["blocks"]),
                    "raw": float(sum(b["raw_failures"]
                                     for b in shard["blocks"])),
                    "defects": float(sum(b["defects"]
                                         for b in shard["blocks"])),
                    "shots": float(sum(b["shots"] for b in shard["blocks"])),
                }
            else:
                aggregate = {
                    "failures": float(sum(b["failures"]
                                          for b in shard["blocks"])),
                    "defects": float(sum(b["defects"]
                                         for b in shard["blocks"])),
                    "shots": float(sum(b["shots"] for b in shard["blocks"])),
                }
            if keys is not None:
                for component, key in keys.items():
                    executor.cache.put(key, float(aggregate[component]))
            yield aggregate

    if spec.method == "importance":
        chunks: List[Dict] = []
        done_shots = 0
        block_seeds = _shot_blocks(seed_sequence, shots)
        final = None
        for aggregate in _run_chunks("is", None, block_seeds):
            chunks.append(aggregate)
            done_shots += int(round(aggregate["shots"]))
            wf = math.fsum(c["wf"] for c in chunks)
            wf2 = math.fsum(c["wf2"] for c in chunks)
            w = math.fsum(c["w"] for c in chunks)
            w2 = math.fsum(c["w2"] for c in chunks)
            raw = int(round(math.fsum(c["raw"] for c in chunks)))
            defects = int(round(math.fsum(c["defects"] for c in chunks)))
            estimate = wf / done_shots
            if done_shots > 1:
                sample_var = max(wf2 - done_shots * estimate * estimate,
                                 0.0) / (done_shots - 1)
                variance = sample_var / done_shots
            else:
                variance = 0.0
            ess = (w * w / w2) if w2 > 0.0 else 0.0
            final = RareEventResult(
                method="importance", shots=done_shots, estimate=estimate,
                variance=variance, ess=ess, raw_failures=raw,
                total_defects=defects, from_cache=False)
            yield final
    else:
        children = _stratum_children(seed_sequence, spec)
        counts: Dict[int, Tuple[int, int]] = {w: (0, 0) for w in spec.strata}
        defects = 0

        def _snapshot() -> RareEventResult:
            strata = tuple(StratumResult(
                weight=w, probability=spec.stratum_probability[w],
                shots=counts[w][0], failures=counts[w][1])
                for w in spec.strata)
            estimate = math.fsum(s.contribution for s in strata)
            variance = math.fsum(
                s.probability * s.probability
                * ((s.failures + 1) / (s.shots + 2))
                * (1.0 - (s.failures + 1) / (s.shots + 2)) / s.shots
                for s in strata if s.shots > 0)
            clipped = min(max(estimate, 1e-300), 1.0 - 1e-12)
            ess = (clipped * (1.0 - clipped) / variance
                   if variance > 0.0 else 0.0)
            return RareEventResult(
                method="stratified",
                shots=sum(s.shots for s in strata), estimate=estimate,
                variance=variance, ess=ess,
                raw_failures=sum(s.failures for s in strata),
                total_defects=defects, from_cache=False, strata=strata,
                tail_probability=spec.tail)

        for phase in ("pilot", "main"):
            if phase == "main":
                budget = int(shots) - sum(count
                                          for count, _ in counts.values())
                allocation = _allocate_main_shots(spec, counts, budget)
            for weight in spec.strata:
                if phase == "pilot":
                    block_seeds = _stratum_blocks(children[weight][0],
                                                  spec.pilot_shots)
                else:
                    block_seeds = _stratum_blocks(children[weight][1],
                                                  allocation[weight])
                for aggregate in _run_chunks(phase, weight, block_seeds):
                    old_shots, old_failures = counts[weight]
                    counts[weight] = (
                        old_shots + int(round(aggregate["shots"])),
                        old_failures + int(round(aggregate["failures"])))
                    defects += int(round(aggregate["defects"]))
                    yield _snapshot()
        final = _snapshot()

    _note_experiment(shots, cached=False, process_shards=0)
    if cacheable and final is not None:
        _store_result(executor, base, final)
