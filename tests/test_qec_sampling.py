"""Tests for the batched QEC Monte-Carlo engine (PR 5).

Covers the four refactor layers:

* the sampling kernel (incidence matmul syndromes, Bernoulli matrix bitwise
  equal to the per-shot reference sampler, graph fingerprints);
* the ``decode_batch`` protocol (batch-vs-loop bitwise equivalence for all
  four decoders on randomized graphs, the lookup decoder's vectorized table
  path, counter semantics);
* the execution routing (worker-count and inline/thread/process determinism
  of failure counts, process-shard counter fold-back, expectation-cache
  keying with warm-cache zero-decode accounting);
* the consumers (memory experiments batched-vs-reference equality, the
  collision-free sweep seeding, Wilson intervals on both result classes).
"""

import numpy as np
import pytest

from reference.qec import (run_memory_sampling_reference, sample_error_edges,
                           syndrome_of)
from repro.execution import ExecutionPolicy, Executor
from repro.qec.decoders import (CliquePredecoder, LookupDecoder, MWPMDecoder,
                                UnionFindDecoder, batch_decode_stats,
                                decoder_cache_token)
from repro.qec.decoders.base import (apply_decoder_counter_delta,
                                     decoder_counter_delta,
                                     decoder_counter_snapshot)
from repro.qec.decoders.graph import (repetition_code_graph,
                                      rotated_surface_code_graph)
from repro.qec.bitops import unpack_rows
from repro.qec.sampling import (SHOT_BLOCK, as_seed_sequence,
                                binomial_standard_error,
                                logical_flips_of_errors,
                                packed_syndromes_and_flips,
                                reset_sampling_stats, resolve_kernel,
                                run_memory_sampling, sample_errors,
                                sampling_arrays, sampling_stats,
                                syndromes_of_errors, wilson_interval)
from repro.qec.surface_memory import (MemoryExperimentOutcome,
                                      SurfaceCodeMemory, decoder_comparison,
                                      logical_error_rate_curve,
                                      surface_code_memory_experiment)


def _graph_decoder_factories():
    """All four decoders of the ablation set."""

    def lookup(graph):
        return LookupDecoder(graph, max_error_weight=2)

    return {
        "mwpm": MWPMDecoder,
        "union_find": UnionFindDecoder,
        "lookup": lookup,
        "clique_predecoder": CliquePredecoder,
    }


def _random_syndromes(graph, shots, seed, boost=1.0):
    arrays = sampling_arrays(graph)
    rng = np.random.default_rng(seed)
    draws = rng.random((shots, arrays.num_edges))
    errors = (draws < np.minimum(arrays.probabilities * boost, 0.5)
              ).view(np.uint8)
    return syndromes_of_errors(arrays, errors)


# ---------------------------------------------------------------------------
# Sampling kernel
# ---------------------------------------------------------------------------


class TestSamplingKernel:
    def test_arrays_shapes_and_columns(self):
        graph = rotated_surface_code_graph(3, 2, 1e-2)
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        assert arrays.incidence.shape == (len(graph.edges), len(detectors))
        assert detectors == sorted(graph.detectors)
        # Every non-boundary edge endpoint appears in its incidence column.
        for edge in graph.edges:
            touched = np.flatnonzero(arrays.incidence[edge.identifier])
            expected = {detectors.index(node)
                        for node in (edge.node_a, edge.node_b)
                        if node != "boundary"}
            assert set(touched.tolist()) == expected

    def test_arrays_memoized_per_graph(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        assert sampling_arrays(graph) is sampling_arrays(graph)

    def test_bernoulli_matrix_bitwise_matches_per_shot_sampler(self):
        """rng.random((S, N)) consumes the stream exactly like S sequential
        rng.random(N) calls, so the kernel and the per-shot reference
        sampler draw identical error realizations from the same seed."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 20, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for shot in range(20):
            edge_ids = sorted(edge.identifier
                              for edge in sample_error_edges(graph, rng))
            assert edge_ids == np.flatnonzero(errors[shot]).tolist()

    def test_syndrome_matmul_matches_per_shot_syndromes(self):
        graph = rotated_surface_code_graph(3, 2, 0.05)
        arrays = sampling_arrays(graph)
        detectors = graph.detector_order()
        errors = sample_errors(arrays, 40, np.random.default_rng(3))
        syndromes = syndromes_of_errors(arrays, errors)
        edges = graph.edges
        for shot in range(40):
            sample = [edges[e] for e in np.flatnonzero(errors[shot])]
            expected = set(syndrome_of(sample))
            got = {detectors[c] for c in np.flatnonzero(syndromes[shot])}
            assert got == expected

    def test_logical_flips_match_graph_parity(self):
        graph = repetition_code_graph(5, 2, 0.05)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 60, np.random.default_rng(8))
        flips = logical_flips_of_errors(arrays, errors)
        edges = graph.edges
        for shot in range(60):
            sample = [edges[e] for e in np.flatnonzero(errors[shot])]
            assert bool(flips[shot]) == graph.correction_flips_logical(sample)


class TestGraphFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = rotated_surface_code_graph(3, 2, 1e-3)
        b = rotated_surface_code_graph(3, 2, 1e-3)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("other", [
        lambda: rotated_surface_code_graph(3, 2, 2e-3),
        lambda: rotated_surface_code_graph(3, 3, 1e-3),
        lambda: rotated_surface_code_graph(5, 2, 1e-3),
        lambda: repetition_code_graph(3, 2, 1e-3),
        lambda: rotated_surface_code_graph(3, 2, 1e-3,
                                           measurement_error_rate=5e-3),
    ])
    def test_different_content_different_fingerprint(self, other):
        base = rotated_surface_code_graph(3, 2, 1e-3)
        assert base.fingerprint() != other().fingerprint()

    def test_fingerprint_invalidates_when_graph_grows(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        before = graph.fingerprint()
        graph.add_edge((0, 0), (1, 0), 1e-3, "space", data_qubit=1,
                       round_index=0)
        assert graph.fingerprint() != before


# ---------------------------------------------------------------------------
# decode_batch protocol
# ---------------------------------------------------------------------------


class TestDecodeBatch:
    @pytest.mark.parametrize("builder", [
        lambda: rotated_surface_code_graph(3, 2, 0.02),
        lambda: repetition_code_graph(5, 2, 0.03),
    ])
    def test_batch_vs_loop_bitwise_for_all_decoders(self, builder):
        graph = builder()
        syndromes = _random_syndromes(graph, 80, seed=5, boost=3.0)
        detectors = graph.detector_order()
        for name, factory in _graph_decoder_factories().items():
            batch = factory(graph).decode_batch(syndromes)
            loop_decoder = factory(graph)
            loop = [bool(loop_decoder.decode(
                [detectors[c] for c in np.flatnonzero(row)]).flips_logical)
                for row in syndromes]
            assert batch.tolist() == loop, f"{name} batch != loop"

    def test_decode_batch_validates_shape(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            MWPMDecoder(graph).decode_batch(np.zeros((4, 3), dtype=np.uint8))

    def test_decode_batch_empty(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        detectors = graph.detector_order()
        out = MWPMDecoder(graph).decode_batch(
            np.zeros((0, len(detectors)), dtype=np.uint8))
        assert out.shape == (0,)

    def test_dedup_counts_unique_syndromes_only(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        detectors = graph.detector_order()
        row = np.zeros(len(detectors), dtype=np.uint8)
        row[0] = 1
        syndromes = np.stack([row] * 7 + [np.zeros_like(row)] * 3)
        before = batch_decode_stats()
        MWPMDecoder(graph).decode_batch(syndromes)
        after = batch_decode_stats()
        assert after.shots_decoded - before.shots_decoded == 10
        assert after.syndromes_decoded - before.syndromes_decoded == 2

    def test_cache_tokens_cover_configuration(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        weight2 = LookupDecoder(graph, max_error_weight=2)
        weight1 = LookupDecoder(graph, max_error_weight=1)
        assert decoder_cache_token(weight2) != decoder_cache_token(weight1)
        assert decoder_cache_token(MWPMDecoder(graph)) == ("mwpm",)
        clique = CliquePredecoder(graph)
        assert "mwpm" in decoder_cache_token(clique)


class TestLookupDecoderBatch:
    def test_vectorized_table_matches_generic_path(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        syndromes = _random_syndromes(graph, 60, seed=13, boost=2.0)
        vectorized = LookupDecoder(graph, max_error_weight=2)
        fast = vectorized.decode_batch(syndromes)
        generic = LookupDecoder(graph, max_error_weight=2)
        slow = super(LookupDecoder, generic).decode_batch.__get__(generic)(
            syndromes)
        assert fast.tolist() == slow.tolist()

    def test_unknown_detector_rejected_via_precomputed_set(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = LookupDecoder(graph, max_error_weight=1)
        assert decoder._known_detectors == frozenset(graph.detectors)
        with pytest.raises(ValueError):
            decoder.decode([(99, 99)])

    def test_fallback_count_counts_unique_batch_misses(self):
        graph = repetition_code_graph(5, 2, 2e-2)
        decoder = LookupDecoder(graph, max_error_weight=1)
        detectors = graph.detector_order()
        # A three-error syndrome lies outside a weight-1 table.
        heavy = np.zeros(len(detectors), dtype=np.uint8)
        heavy[[0, 3, 5]] = 1
        syndromes = np.stack([heavy] * 9 + [np.zeros_like(heavy)])
        decoder.decode_batch(syndromes)
        assert decoder.fallback_count == 1  # unique miss, not per shot
        decoder.reset_counters()
        assert decoder.fallback_count == 0


# ---------------------------------------------------------------------------
# Executor routing: determinism, counters, caching
# ---------------------------------------------------------------------------


class TestShardedDeterminism:
    SHOTS = 2 * SHOT_BLOCK + 17   # three blocks, uneven tail

    def _failures(self, parallel, workers):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        decoder = MWPMDecoder(graph)
        run = run_memory_sampling(graph, decoder, self.SHOTS, seed=321,
                                  executor=Executor(use_cache=False),
                                  policy=ExecutionPolicy(
                                      parallel=parallel, max_workers=workers))
        return run.failures, run.total_defects

    def test_failure_counts_identical_across_modes_and_workers(self):
        inline = self._failures("none", 1)
        assert self._failures("process", 1) == inline
        assert self._failures("process", 2) == inline
        assert self._failures("process", 4) == inline
        assert self._failures("thread", 2) == inline

    def test_process_shards_recorded_and_counters_folded(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        decoder = CliquePredecoder(graph)
        executor = Executor(use_cache=False)
        run_memory_sampling(graph, decoder, self.SHOTS, seed=55,
                            executor=executor,
                            policy=ExecutionPolicy(parallel="process",
                                                   max_workers=2))
        assert executor.stats.process_shards == 2
        # The workers' offload tallies came home across the pickle boundary.
        assert decoder.predecoded_defects + decoder.forwarded_defects > 0

    def test_counter_delta_roundtrip(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        decoder = CliquePredecoder(
            graph, backing_decoder=LookupDecoder(graph, max_error_weight=1))
        before = decoder_counter_snapshot(decoder)
        assert "_backing.fallback_count" in before  # nested decoders walk too
        decoder.predecoded_defects += 4
        decoder._backing.fallback_count += 2
        after = decoder_counter_snapshot(decoder)
        delta = decoder_counter_delta(before, after)
        assert delta == {"predecoded_defects": 4, "_backing.fallback_count": 2}
        apply_decoder_counter_delta(decoder, delta)
        assert decoder.predecoded_defects == 8
        assert decoder._backing.fallback_count == 4


class TestExperimentCache:
    def test_seeded_rerun_served_from_cache_with_zero_decodes(self):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        executor = Executor()
        cold = run_memory_sampling(graph, MWPMDecoder(graph), 150, seed=77,
                                   executor=executor)
        assert not cold.from_cache
        reset_sampling_stats()
        warm = run_memory_sampling(graph, MWPMDecoder(graph), 150, seed=77,
                                   executor=executor)
        stats = sampling_stats()
        assert warm.from_cache
        assert (warm.failures, warm.total_defects) == \
            (cold.failures, cold.total_defects)
        assert stats.syndromes_decoded == 0
        assert stats.shots_sampled == 0
        assert stats.cached_experiments == 1

    def test_unseeded_runs_never_cache(self):
        graph = repetition_code_graph(3, 1, 0.01)
        executor = Executor()
        run_memory_sampling(graph, MWPMDecoder(graph), 50, seed=None,
                            executor=executor)
        second = run_memory_sampling(graph, MWPMDecoder(graph), 50, seed=None,
                                     executor=executor)
        assert not second.from_cache

    def test_cache_key_distinguishes_decoders(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        executor = Executor()
        run_memory_sampling(graph, MWPMDecoder(graph), 80, seed=5,
                            executor=executor)
        other = run_memory_sampling(graph, UnionFindDecoder(graph), 80,
                                    seed=5, executor=executor)
        assert not other.from_cache

    def test_warm_disk_cache_across_executors(self, tmp_path):
        graph = rotated_surface_code_graph(3, 2, 0.01)
        cold = run_memory_sampling(graph, MWPMDecoder(graph), 120, seed=19,
                                   executor=Executor(cache_dir=tmp_path))
        warm = run_memory_sampling(graph, MWPMDecoder(graph), 120, seed=19,
                                   executor=Executor(cache_dir=tmp_path))
        assert warm.from_cache
        assert warm.failures == cold.failures

    def test_shots_validation(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError):
            run_memory_sampling(graph, MWPMDecoder(graph), 0, seed=1)


# ---------------------------------------------------------------------------
# Consumers
# ---------------------------------------------------------------------------


class TestBatchedMemoryExperiments:
    def test_surface_run_matches_reference_bitwise(self):
        graph = rotated_surface_code_graph(3, 3, 0.02)
        for name, factory in _graph_decoder_factories().items():
            batched = SurfaceCodeMemory(graph, factory, seed=31).run(
                300, use_cache=False)
            reference = run_memory_sampling_reference(graph, factory(graph),
                                                      300, seed=31)
            assert batched.failures == reference.failures, name
            assert batched.average_defects == reference.average_defects

    def test_repetition_run_matches_reference_bitwise(self):
        graph = repetition_code_graph(5, 3, 0.03)
        batched = run_memory_sampling(graph, MWPMDecoder(graph), 280,
                                      seed=13,
                                      executor=Executor(use_cache=False))
        reference = run_memory_sampling_reference(graph, MWPMDecoder(graph),
                                                  280, seed=13)
        assert batched.failures == reference.failures

    def test_plain_decode_only_decoder_still_supported(self):
        """The historical 'any decoder with a decode(defects) method'
        contract survives the batch refactor: a decoder without
        decode_batch rides the generic dedup shell, is never cached (no
        cache token pins down its configuration), and matches the decoder
        it wraps bitwise."""

        class PlainDecoder:
            def __init__(self, graph):
                self._inner = MWPMDecoder(graph)

            def decode(self, defects):
                return self._inner.decode(defects)

        graph = rotated_surface_code_graph(3, 2, 0.02)
        executor = Executor()
        plain = SurfaceCodeMemory(graph, PlainDecoder, seed=21)
        first = plain.run(200, executor=executor)
        mwpm = SurfaceCodeMemory(graph, MWPMDecoder, seed=21).run(
            200, use_cache=False)
        assert first.failures == mwpm.failures
        assert decoder_cache_token(plain.decoder) is None
        repeat = run_memory_sampling(graph, PlainDecoder(graph), 200,
                                     seed=21, executor=executor)
        assert not repeat.from_cache  # unknown config is never cached


class TestCodeNames:
    def test_surface_spelling_runs_the_rotated_graph(self):
        kwargs = dict(shots=64, seed=4, use_cache=False)
        outcome = decoder_comparison(3, 0.02, {"mwpm": MWPMDecoder},
                                     code="surface", **kwargs)["mwpm"]
        assert outcome.code == "rotated_surface"
        assert logical_error_rate_curve([3], [0.02], code="surface",
                                        **kwargs) == \
            logical_error_rate_curve([3], [0.02], code="rotated_surface",
                                     **kwargs)

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown code family"):
            logical_error_rate_curve([3], [0.02], code="bogus", shots=8)
        with pytest.raises(ValueError, match="unknown code family"):
            decoder_comparison(3, 0.02, {"mwpm": MWPMDecoder}, shots=8,
                               code="bogus")


class TestSweepSeeding:
    def test_sweep_cells_get_distinct_spawned_seeds(self):
        # The historical derivation seed + d*1000 + int(rate*1e6) collides
        # e.g. for (3, 0.003) and (5, 0.001); spawn keys cannot.
        cells = [(3, 0.003), (5, 0.001)]
        old_style = {7 + d * 1000 + int(rate * 1e6) for d, rate in cells}
        assert len(old_style) == 1  # the collision this PR fixes
        children = np.random.SeedSequence(7).spawn(len(cells))
        assert children[0].spawn_key != children[1].spawn_key

    def test_sweep_deterministic_and_complete(self):
        kwargs = dict(shots=120, seed=42, code="repetition", use_cache=False)
        first = logical_error_rate_curve([3, 5], [0.003, 0.001], **kwargs)
        second = logical_error_rate_curve([3, 5], [0.003, 0.001], **kwargs)
        assert first == second
        assert set(first) == {(3, 0.003), (3, 0.001), (5, 0.003), (5, 0.001)}

    def test_warm_sweep_decodes_nothing(self, tmp_path):
        grid = dict(distances=[3, 5], physical_error_rates=[0.005, 0.02],
                    shots=150, seed=9, code="repetition")
        cold = logical_error_rate_curve(
            executor=Executor(cache_dir=tmp_path), **grid)
        reset_sampling_stats()
        warm = logical_error_rate_curve(
            executor=Executor(cache_dir=tmp_path), **grid)
        stats = sampling_stats()
        assert warm == cold
        assert stats.syndromes_decoded == 0
        assert stats.cached_experiments == 4

    def test_seed_key_encodings(self):
        _, none_key = as_seed_sequence(None)
        assert none_key is None
        _, int_key = as_seed_sequence(9)
        assert int_key == ("seed", 9)
        child = np.random.SeedSequence(9).spawn(2)[1]
        _, child_key = as_seed_sequence(child)
        assert child_key == ("seedseq", "9", (1,))

    def test_seed_sequence_reuse_is_deterministic(self):
        """A caller's SeedSequence is rebuilt, never spawned from: repeat
        runs on the same instance (and the per-shot reference) stay bitwise
        identical, and a pre-spawned sequence equals a fresh one."""
        graph = rotated_surface_code_graph(3, 2, 0.02)
        shared = np.random.SeedSequence(7)
        shared.spawn(3)  # advance the caller-side child counter
        memory = SurfaceCodeMemory(graph, MWPMDecoder, seed=shared)
        first = memory.run(200, use_cache=False)
        second = memory.run(200, use_cache=False)
        reference = run_memory_sampling_reference(graph, MWPMDecoder(graph),
                                                  200, seed=shared)
        fresh = SurfaceCodeMemory(
            graph, MWPMDecoder, seed=np.random.SeedSequence(7)).run(
                200, use_cache=False)
        assert (first.failures == second.failures == reference.failures
                == fresh.failures)


class TestUncertainty:
    def test_wilson_interval_properties(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0 and 0.0 < high < 0.05
        low, high = wilson_interval(200, 200)
        assert high == 1.0 and low > 0.95
        low, high = wilson_interval(30, 200)
        assert low < 30 / 200 < high
        assert wilson_interval(1, 0) == (0.0, 1.0)

    def test_standard_error_formula(self):
        assert binomial_standard_error(50, 200) == pytest.approx(
            (0.25 * 0.75 / 200) ** 0.5)
        assert binomial_standard_error(0, 0) == 0.0

    def test_memory_outcomes_expose_uncertainty(self):
        result = MemoryExperimentOutcome(
            code="repetition", distance=3, rounds=3, physical_error_rate=1e-3,
            shots=200, failures=8, decoder_name="mwpm", average_defects=0.5)
        outcome = surface_code_memory_experiment(3, 0.02, rounds=2, shots=80,
                                                 seed=5, use_cache=False)
        for stats in (result, outcome):
            assert stats.standard_error > 0
            low, high = stats.wilson_interval()
            assert 0.0 <= low <= stats.logical_error_rate <= high <= 1.0


# ---------------------------------------------------------------------------
# Bit-packed kernel (PR 7)
# ---------------------------------------------------------------------------


class TestPackedKernel:
    """The bit-packed syndrome path: selection, equivalence, cache identity."""

    def test_packed_syndromes_and_flips_match_dense(self):
        graph = rotated_surface_code_graph(3, 2, 0.05)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, 60, np.random.default_rng(4))
        words, flips = packed_syndromes_and_flips(arrays, errors)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, arrays.num_detectors),
                              syndromes_of_errors(arrays, errors))
        assert np.array_equal(flips, logical_flips_of_errors(arrays, errors))

    def test_resolve_kernel_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_QEC_KERNEL", raising=False)
        assert resolve_kernel() == "packed"          # default
        monkeypatch.setenv("REPRO_QEC_KERNEL", "dense")
        assert resolve_kernel() == "dense"           # env overrides default
        assert resolve_kernel("packed") == "packed"  # argument overrides env
        with pytest.raises(ValueError, match="unknown QEC kernel"):
            resolve_kernel("float128")
        monkeypatch.setenv("REPRO_QEC_KERNEL", "simd")
        with pytest.raises(ValueError, match="unknown QEC kernel"):
            resolve_kernel()

    def test_streaming_requires_packed_kernel(self):
        graph = repetition_code_graph(3, 1, 1e-3)
        with pytest.raises(ValueError, match="streaming"):
            run_memory_sampling(graph, MWPMDecoder(graph), 10, seed=1,
                                kernel="dense", streaming=True,
                                use_cache=False)

    def test_kernels_and_streaming_bitwise_identical_with_real_failures(self):
        graph = rotated_surface_code_graph(3, 2, 0.03)
        decoder = MWPMDecoder(graph)
        shots = 2 * SHOT_BLOCK + 17   # three blocks, uneven tail
        runs = {
            mode: run_memory_sampling(
                graph, decoder, shots, seed=321,
                executor=Executor(use_cache=False),
                kernel=kernel, streaming=streaming)
            for mode, (kernel, streaming) in {
                "dense": ("dense", False),
                "packed": ("packed", False),
                "streaming": ("packed", True),
            }.items()
        }
        reference = run_memory_sampling_reference(graph, decoder, shots,
                                                  seed=321)
        assert runs["dense"].failures > 0, "workload should produce failures"
        assert len({run.failures for run in runs.values()}) == 1
        assert len({run.total_defects for run in runs.values()}) == 1
        assert runs["dense"].failures == reference.failures
        assert runs["dense"].total_defects == reference.total_defects

    def test_worker_count_determinism_with_real_failures(self):
        """Small-shot tier-1 version of the benchmark determinism gate:
        failure counts are bitwise identical across shard modes/workers on a
        workload that actually fails, for both kernels."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        shots = 2 * SHOT_BLOCK + 17

        def failures(parallel, workers, **kwargs):
            run = run_memory_sampling(graph, MWPMDecoder(graph), shots,
                                      seed=321,
                                      executor=Executor(use_cache=False),
                                      policy=ExecutionPolicy(
                                          parallel=parallel,
                                          max_workers=workers),
                                      **kwargs)
            return run.failures, run.total_defects

        inline = failures("none", 1)
        assert inline[0] > 0, "workload should produce real failures"
        assert failures("process", 2) == inline
        assert failures("thread", 2) == inline
        assert failures("process", 2, kernel="dense") == inline
        assert failures("process", 2, streaming=True) == inline

    def test_kernel_choice_not_in_cache_key(self, tmp_path):
        """Dense, packed and streaming runs are bitwise identical, so the
        kernel deliberately stays out of the cache key: a packed (or
        streaming) re-run of a dense-cached experiment is served without
        decoding a single syndrome."""
        graph = rotated_surface_code_graph(3, 2, 0.03)
        kwargs = dict(shots=200, seed=9)
        cold = run_memory_sampling(graph, MWPMDecoder(graph),
                                   executor=Executor(cache_dir=tmp_path),
                                   kernel="dense", **kwargs)
        reset_sampling_stats()
        for kernel, streaming in (("packed", False), ("packed", True)):
            warm = run_memory_sampling(graph, MWPMDecoder(graph),
                                       executor=Executor(cache_dir=tmp_path),
                                       kernel=kernel, streaming=streaming,
                                       **kwargs)
            assert (warm.failures, warm.total_defects) \
                == (cold.failures, cold.total_defects)
        stats = sampling_stats()
        assert stats.syndromes_decoded == 0
        assert stats.shots_sampled == 0
        assert stats.cached_experiments == 2


class TestSyndromeNormalization:
    """Regression tests for the decode_batch input-normalization contract."""

    def test_non_contiguous_batches_decode_identically(self):
        graph = rotated_surface_code_graph(3, 2, 0.02)
        syndromes = _random_syndromes(graph, 24, seed=13, boost=3.0)
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        baseline = decoder.decode_batch(syndromes, detectors)
        fortran = np.asfortranarray(syndromes)
        strided = np.repeat(syndromes, 2, axis=0)[::2]
        assert not fortran.flags.c_contiguous
        assert not strided.flags.c_contiguous
        assert np.array_equal(decoder.decode_batch(fortran, detectors),
                              baseline)
        assert np.array_equal(decoder.decode_batch(strided, detectors),
                              baseline)

    def test_unnormalized_input_not_mutated(self):
        graph = repetition_code_graph(3, 2, 1e-3)
        detectors = graph.detector_order()
        decoder = UnionFindDecoder(graph)
        raw = (_random_syndromes(graph, 12, seed=5, boost=50.0)
               .astype(np.int64) * 3)          # values in {0, 3}: needs & 1
        snapshot = raw.copy()
        masked = decoder.decode_batch(raw, detectors)
        assert np.array_equal(raw, snapshot), "caller's array was mutated"
        assert np.array_equal(
            masked, decoder.decode_batch((raw & 1).astype(np.uint8),
                                         detectors))
