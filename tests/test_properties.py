"""Property-based differential harness for every bitwise-equivalence contract.

The repo's core invariant is that every fast path is *bitwise* identical to
its reference path.  PRs 3–6 asserted this with hand-picked spot checks;
this module turns each contract into a hypothesis property so shrinking
finds minimal counterexamples and CI (``--hypothesis-profile=ci``, see
``conftest.py``) explores ≥200 examples per contract deterministically.

Contracts covered, one test class per contract family:

* pack/unpack round-trips and popcount native-vs-LUT
  (:mod:`repro.qec.bitops`)
* packed mod-2 matmul / matvec / gather-plan vs dense integer matmul
* packed-vs-byte stabilizer tableau evolution, including the measurement
  RNG draw stream (:class:`StabilizerState` vs :class:`DenseStabilizerState`)
* ``decode_batch`` vs per-shot ``decode`` — and ``decode_batch_packed`` vs
  ``decode_batch`` — for all five decoder configurations
* packed vs dense vs streaming Monte-Carlo memory sampling
* compiled vs interpreted statevector programs (≤ 1e-12)
* channel superoperators vs the Kraus loop, alone and in compiled noisy
  programs under the pQEC and NISQ noise models (≤ 1e-12)
* grouped vs per-term observable readout (≤ 1e-12)

Everything numeric that is *discrete* is compared exactly; only genuinely
floating-point contracts get the 1e-12 tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro._bitops import _POPCOUNT_LUT, _WORD_BYTES
from repro.circuits.circuit import QuantumCircuit
from repro.core.regimes import NISQRegime, PQECRegime
from repro.operators.pauli import PauliString, PauliSum
from repro.qec.bitops import (Mod2GatherPlan, mod2_matmul_packed,
                              mod2_matvec_packed, pack_rows, packed_words,
                              parity, popcount, popcount_words, row_parity,
                              unpack_rows)
from repro.qec.decoders import (CliquePredecoder, LookupDecoder, MWPMDecoder,
                                UnionFindDecoder, batch_decode,
                                batch_decode_packed)
from repro.qec.decoders.graph import repetition_code_graph
from repro.qec.rare_event import (_conditional_include_table,
                                  _log_weight_terms, _sample_fixed_weight,
                                  stratum_probabilities,
                                  tilted_probabilities)
from repro.qec.sampling import (packed_syndromes_and_flips, sample_errors,
                                sampling_arrays, syndromes_and_flips)
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.noise import QuantumChannel
from repro.simulators.program import (_dm_apply_channel, compile_circuit,
                                      run_interpreted)
from repro.simulators.stabilizer import (DenseStabilizerState,
                                         StabilizerSimulator, StabilizerState)
from repro.simulators.statevector import StatevectorSimulator

from reference.density_matrix import apply_channel, naive_density_matrix_run


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def bit_matrices(max_rows: int = 12, max_cols: int = 200):
    """Random 0/1 uint8 matrices spanning word-boundary edge cases."""
    # Sprinkle exact word-boundary widths in with the uniform draw: off-by-
    # one bugs live at 63/64/65, not at random widths.
    cols = st.one_of(st.integers(1, max_cols),
                     st.sampled_from([1, 7, 8, 63, 64, 65, 127, 128, 129]))
    return st.tuples(st.integers(1, max_rows), cols, st.integers(0, 2**31)) \
        .map(lambda args: np.random.default_rng(args[2])
             .integers(0, 2, size=(args[0], args[1]), dtype=np.uint8))


@st.composite
def clifford_programs(draw, max_qubits: int = 6, max_ops: int = 30):
    """``(num_qubits, [op codes])`` describing a random Clifford+measure run."""
    n = draw(st.integers(1, max_qubits))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["h", "s", "sdg", "x", "y", "z", "cx",
                                   "cz", "swap", "measure", "reset"]),
                  st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_ops))
    return n, ops


def _apply_ops(state, ops, rng):
    """Replay a clifford_programs op list onto either tableau implementation."""
    outcomes = []
    for name, q, q2 in ops:
        if name == "cx" or name == "cz" or name == "swap":
            if q == q2:
                continue
            getattr(state, f"apply_{name}")(q, q2)
        elif name == "measure":
            outcomes.append(state.measure(q, rng))
        elif name == "reset":
            state.reset(q, rng)
        else:
            getattr(state, f"apply_{name}")(q)
    return outcomes


@st.composite
def statevector_circuits(draw, max_qubits: int = 4, max_ops: int = 20):
    """Random (non-Clifford) circuits for the compiled-vs-interpreted contract."""
    n = draw(st.integers(1, max_qubits))
    circuit = QuantumCircuit(n)
    count = draw(st.integers(0, max_ops))
    for _ in range(count):
        kind = draw(st.sampled_from(["h", "x", "s", "t", "rz", "rx", "ry",
                                     "cx", "cz", "rzz"]))
        q = draw(st.integers(0, n - 1))
        if kind in ("rz", "rx", "ry"):
            angle = draw(st.floats(-2 * math.pi, 2 * math.pi,
                                   allow_nan=False, allow_infinity=False))
            getattr(circuit, kind)(angle, q)
        elif kind in ("cx", "cz", "rzz"):
            q2 = draw(st.integers(0, n - 1))
            if q2 == q:
                continue
            if kind == "rzz":
                angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
                circuit.rzz(angle, q, q2)
            else:
                getattr(circuit, kind)(q, q2)
        else:
            getattr(circuit, kind)(q)
    return circuit


@st.composite
def cptp_channels(draw, num_qubits: int):
    """Random CPTP channels: 1–4 Gaussian Kraus operators, normalized by
    ``(Σ G†G)^(-1/2)`` so that ``Σ K†K = I``."""
    dim = 2 ** num_qubits
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = (rng.standard_normal((count, dim, dim))
           + 1j * rng.standard_normal((count, dim, dim)))
    values, vectors = np.linalg.eigh(
        sum(op.conj().T @ op for op in raw))
    inverse_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return QuantumChannel([op @ inverse_root for op in raw], name="random")


@st.composite
def pauli_sums(draw, max_qubits: int = 5, max_terms: int = 6):
    """Random Hermitian Pauli sums with real coefficients."""
    n = draw(st.integers(1, max_qubits))
    observable = PauliSum(n)
    for _ in range(draw(st.integers(1, max_terms))):
        label = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
        observable.add_label(label, coeff)
    return observable


@st.composite
def decoding_setups(draw):
    """``(graph, syndromes, detectors)`` with decodable syndrome batches.

    Syndromes are generated from random error subsets of the graph's edges,
    so every row is reachable by a physical error pattern (what the
    decoders' contracts are defined over).
    """
    distance = draw(st.sampled_from([3, 5]))
    rounds = draw(st.integers(1, 3))
    graph = repetition_code_graph(distance, rounds, 0.05)
    arrays = sampling_arrays(graph)
    shots = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    errors = (rng.random((shots, arrays.num_edges)) < 0.08).astype(np.uint8)
    syndromes, _ = syndromes_and_flips(arrays, errors)
    return graph, syndromes


def _decoder_suite(graph):
    """The five in-repo decoder configurations under contract."""
    return [
        MWPMDecoder(graph),
        UnionFindDecoder(graph),
        LookupDecoder(graph, max_error_weight=1),
        LookupDecoder(graph, max_error_weight=2),
        CliquePredecoder(graph, MWPMDecoder(graph)),
    ]


# ---------------------------------------------------------------------------
# bitops: packing, popcount, parity
# ---------------------------------------------------------------------------

class TestBitopsProperties:
    @given(rows=bit_matrices())
    def test_pack_unpack_roundtrip(self, rows):
        words = pack_rows(rows)
        assert words.dtype == np.uint64
        assert words.shape == (rows.shape[0], packed_words(rows.shape[1]))
        assert np.array_equal(unpack_rows(words, rows.shape[1]), rows)

    @given(rows=bit_matrices())
    def test_packed_tail_bits_are_zero(self, rows):
        words = pack_rows(rows)
        tail = rows.shape[1] % 64
        if tail:
            assert not np.any(words[:, -1] >> np.uint64(tail))

    @given(rows=bit_matrices())
    def test_popcount_matches_dense_sum(self, rows):
        words = pack_rows(rows)
        assert np.array_equal(popcount_words(words).sum(axis=1),
                              rows.sum(axis=1, dtype=np.int64))
        assert popcount(words) == int(rows.sum())

    @given(rows=bit_matrices())
    def test_popcount_native_equals_lut(self, rows):
        words = pack_rows(rows)
        native = popcount_words(words)
        byte_view = np.ascontiguousarray(words).view(np.uint8)
        lut = _POPCOUNT_LUT[byte_view] \
            .reshape(words.shape + (_WORD_BYTES,)).sum(axis=-1, dtype=np.uint8)
        assert np.array_equal(native, lut)

    @given(rows=bit_matrices())
    def test_parity_matches_mod2_sum(self, rows):
        words = pack_rows(rows)
        assert np.array_equal(row_parity(words),
                              (rows.sum(axis=1) % 2).astype(np.uint8))
        # axis=0 folds the shot rows first: word w's parity is the mod-2
        # sum of ALL bits landing in columns [64w, 64w+64).
        n_words = words.shape[1]
        padded = np.zeros(n_words * 64, dtype=np.int64)
        padded[:rows.shape[1]] = rows.sum(axis=0)
        expected = (padded.reshape(n_words, 64).sum(axis=1) % 2)
        assert np.array_equal(parity(words, axis=0),
                              expected.astype(np.uint8))


# ---------------------------------------------------------------------------
# bitops: mod-2 matmul contracts
# ---------------------------------------------------------------------------

class TestMod2MatmulProperties:
    @given(data=st.data())
    def test_matmul_packed_vs_dense(self, data):
        left = data.draw(bit_matrices(max_rows=8, max_cols=150), label="left")
        n_cols = left.shape[1]
        seed = data.draw(st.integers(0, 2**31), label="seed")
        right = np.random.default_rng(seed).integers(
            0, 2, size=(data.draw(st.integers(1, 8), label="rb"), n_cols),
            dtype=np.uint8)
        expected = (left.astype(np.int64) @ right.T.astype(np.int64)) % 2
        got = mod2_matmul_packed(pack_rows(left), pack_rows(right))
        assert np.array_equal(got, expected.astype(np.uint8))

    @given(data=st.data())
    def test_matvec_packed_vs_dense(self, data):
        rows = data.draw(bit_matrices(max_rows=10, max_cols=150))
        seed = data.draw(st.integers(0, 2**31))
        vector = np.random.default_rng(seed).integers(
            0, 2, size=rows.shape[1], dtype=np.uint8)
        expected = ((rows.astype(np.int64) @ vector.astype(np.int64)) % 2)
        got = mod2_matvec_packed(pack_rows(rows), pack_rows(vector))
        assert np.array_equal(got, expected.astype(np.uint8))

    @given(data=st.data())
    def test_gather_plan_vs_dense(self, data):
        rows = data.draw(bit_matrices(max_rows=10, max_cols=100))
        seed = data.draw(st.integers(0, 2**31))
        n_out = data.draw(st.integers(1, 100))
        matrix = np.random.default_rng(seed).integers(
            0, 2, size=(rows.shape[1], n_out), dtype=np.uint8)
        expected = ((rows.astype(np.int64) @ matrix.astype(np.int64)) % 2)
        plan = Mod2GatherPlan(matrix)
        packed_out = plan.matmul_rows(rows)
        assert np.array_equal(unpack_rows(packed_out, n_out),
                              expected.astype(np.uint8))
        assert np.array_equal(plan.matmul_packed(pack_rows(rows)), packed_out)


# ---------------------------------------------------------------------------
# Tableau: packed vs byte reference
# ---------------------------------------------------------------------------

class TestTableauProperties:
    @given(program=clifford_programs(), seed=st.integers(0, 2**31))
    def test_packed_vs_dense_evolution(self, program, seed):
        n, ops = program
        packed = StabilizerState(n)
        dense = DenseStabilizerState(n)
        packed_outcomes = _apply_ops(packed, ops, np.random.default_rng(seed))
        dense_outcomes = _apply_ops(dense, ops, np.random.default_rng(seed))
        # Identical measurement outcomes (same draw stream) and identical
        # final tableaus, bit for bit, sign for sign.
        assert packed_outcomes == dense_outcomes
        assert np.array_equal(packed.x, dense.x)
        assert np.array_equal(packed.z, dense.z)
        assert np.array_equal(packed.r, dense.r)

    @given(program=clifford_programs(max_qubits=5), seed=st.integers(0, 2**31),
           data=st.data())
    def test_packed_vs_dense_expectations(self, program, seed, data):
        n, ops = program
        packed = StabilizerState(n)
        dense = DenseStabilizerState(n)
        _apply_ops(packed, ops, np.random.default_rng(seed))
        _apply_ops(dense, ops, np.random.default_rng(seed))
        label = "".join(data.draw(st.sampled_from("IXYZ")) for _ in range(n))
        pauli = PauliString(label)
        assert packed.expectation_pauli(pauli) == dense.expectation_pauli(pauli)
        assert [str(s) for s in packed.stabilizer_strings()] \
            == [str(s) for s in dense.stabilizer_strings()]

    @given(st.integers(1, 80))
    def test_fresh_tableau_matches(self, n):
        packed = StabilizerState(n)
        dense = DenseStabilizerState(n)
        assert np.array_equal(packed.x, dense.x)
        assert np.array_equal(packed.z, dense.z)


# ---------------------------------------------------------------------------
# Decoders: batch vs per-shot, packed vs dense
# ---------------------------------------------------------------------------

class TestDecoderProperties:
    @given(setup=decoding_setups())
    @settings(max_examples=20)
    def test_decode_batch_vs_decode_all_decoders(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        for decoder in _decoder_suite(graph):
            batched = decoder.decode_batch(syndromes, detectors)
            for row in range(syndromes.shape[0]):
                defects = [detectors[col]
                           for col in np.flatnonzero(syndromes[row])]
                single = bool(decoder.decode(defects).flips_logical)
                assert bool(batched[row]) == single, type(decoder).__name__

    @given(setup=decoding_setups())
    @settings(max_examples=20)
    def test_decode_batch_packed_vs_dense_all_decoders(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        words = pack_rows(syndromes, len(detectors))
        for decoder in _decoder_suite(graph):
            dense_flips = decoder.decode_batch(syndromes, detectors)
            packed_flips = decoder.decode_batch_packed(words, detectors)
            assert np.array_equal(dense_flips, packed_flips), \
                type(decoder).__name__

    @given(setup=decoding_setups())
    @settings(max_examples=15)
    def test_non_contiguous_syndromes_decode_identically(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()
        decoder = MWPMDecoder(graph)
        baseline = batch_decode(decoder, syndromes, detectors)
        # A Fortran-ordered copy and a doubled-then-strided view exercise
        # the one-normalization contract in _prepare_syndromes.
        fortran = np.asfortranarray(syndromes)
        strided = np.repeat(syndromes, 2, axis=0)[::2]
        assert not strided.flags.c_contiguous or syndromes.shape[0] == 1
        assert np.array_equal(batch_decode(decoder, fortran, detectors),
                              baseline)
        assert np.array_equal(batch_decode(decoder, strided, detectors),
                              baseline)

    @given(setup=decoding_setups())
    @settings(max_examples=15)
    def test_module_level_packed_shell_matches(self, setup):
        graph, syndromes = setup
        detectors = graph.detector_order()

        class PlainDecoder:
            """decode()-only decoder: exercises the generic packed shell."""

            def __init__(self):
                self._inner = MWPMDecoder(graph)

            def decode(self, defects):
                return self._inner.decode(defects)

        words = pack_rows(syndromes, len(detectors))
        dense_flips = batch_decode(PlainDecoder(), syndromes, detectors)
        packed_flips = batch_decode_packed(PlainDecoder(), words, detectors)
        assert np.array_equal(dense_flips, packed_flips)


# ---------------------------------------------------------------------------
# Sampling: packed vs dense vs streaming
# ---------------------------------------------------------------------------

class TestSamplingKernelProperties:
    @given(seed=st.integers(0, 2**31), shots=st.integers(1, 64),
           distance=st.sampled_from([3, 5]), rounds=st.integers(1, 3))
    def test_packed_syndromes_match_dense(self, seed, shots, distance, rounds):
        graph = repetition_code_graph(distance, rounds, 0.02)
        arrays = sampling_arrays(graph)
        errors = sample_errors(arrays, shots, np.random.default_rng(seed))
        dense_syndromes, dense_flips = syndromes_and_flips(arrays, errors)
        words, packed_flips = packed_syndromes_and_flips(arrays, errors)
        assert np.array_equal(unpack_rows(words, arrays.num_detectors),
                              dense_syndromes)
        assert np.array_equal(packed_flips, dense_flips)

    @given(seed=st.integers(0, 2**31), shots=st.integers(1, 700))
    @settings(max_examples=15)
    def test_run_memory_sampling_kernel_equivalence(self, seed, shots):
        from repro.execution.executor import Executor
        from repro.qec.sampling import run_memory_sampling
        graph = repetition_code_graph(3, 2, 0.05)
        executor = Executor(use_cache=False)
        results = [
            run_memory_sampling(graph, MWPMDecoder(graph), shots, seed=seed,
                                executor=executor, kernel=kernel,
                                streaming=streaming)
            for kernel, streaming in (("dense", False), ("packed", False),
                                      ("packed", True))
        ]
        failures = {r.failures for r in results}
        defects = {r.total_defects for r in results}
        assert len(failures) == 1 and len(defects) == 1


# ---------------------------------------------------------------------------
# Programs: compiled vs interpreted
# ---------------------------------------------------------------------------

class TestProgramProperties:
    @given(circuit=statevector_circuits())
    def test_compiled_matches_interpreted(self, circuit):
        compiled_state = compile_circuit(circuit).run_statevector()
        interpreted_state = run_interpreted(circuit)
        np.testing.assert_allclose(compiled_state, interpreted_state,
                                   atol=1e-12, rtol=0)

    @given(data=st.data())
    def test_superoperator_matches_kraus_loop(self, data):
        k = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(k, 5))
        channel = data.draw(cptp_channels(k))
        # any ordered tuple: reversed and non-adjacent pairs included
        qubits = tuple(data.draw(st.permutations(range(n)))[:k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        dim = 2 ** n
        rho = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        np.testing.assert_allclose(
            _dm_apply_channel(rho, channel.superoperator(), qubits, n),
            apply_channel(rho, channel, qubits, n), atol=1e-12, rtol=0)

    @given(data=st.data())
    def test_compose_is_superoperator_product(self, data):
        k = data.draw(st.integers(1, 2))
        a = data.draw(cptp_channels(k))
        b = data.draw(cptp_channels(k))
        np.testing.assert_allclose(a.compose(b).superoperator(),
                                   a.superoperator() @ b.superoperator(),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("regime", [PQECRegime(), NISQRegime()],
                             ids=["pqec", "nisq"])
    @given(data=st.data())
    def test_noisy_program_matches_kraus_loop(self, regime, data):
        circuit = data.draw(statevector_circuits(max_ops=15))
        n = circuit.num_qubits
        circuit.reset(data.draw(st.integers(0, n - 1)))
        circuit.h(data.draw(st.integers(0, n - 1)))
        circuit.measure_all()
        noise = regime.noise_model()
        compiled = DensityMatrixSimulator(noise).run(
            circuit, apply_measure_noise=True).data
        np.testing.assert_allclose(
            compiled, naive_density_matrix_run(noise, circuit, True),
            atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# Observables: grouped vs per-term readout
# ---------------------------------------------------------------------------

class TestGroupedReadoutProperties:
    @given(data=st.data())
    def test_statevector_grouped_vs_per_term(self, data):
        observable = data.draw(pauli_sums())
        circuit = data.draw(statevector_circuits(
            max_qubits=observable.num_qubits, max_ops=12))
        assume(circuit.num_qubits == observable.num_qubits)
        simulator = StatevectorSimulator()
        grouped = simulator.expectation_many(circuit, observable)
        state = simulator.run(circuit)
        for index, (pauli, _) in enumerate(observable.terms()):
            single = PauliSum(observable.num_qubits).add_term(pauli, 1.0)
            assert abs(grouped[index] - state.expectation(single)) <= 1e-12

    @given(program=clifford_programs(max_qubits=4, max_ops=15),
           data=st.data())
    def test_stabilizer_grouped_vs_per_term(self, program, data):
        n, ops = program
        circuit = QuantumCircuit(n)
        for name, q, q2 in ops:
            if name in ("cx", "cz", "swap"):
                if q != q2:
                    getattr(circuit, name)(q, q2)
            elif name not in ("measure", "reset"):
                getattr(circuit, name)(q)
        observable = data.draw(pauli_sums(max_qubits=n))
        assume(observable.num_qubits == n)
        simulator = StabilizerSimulator()
        grouped = simulator.expectation_many(circuit, observable)
        state = simulator.run(circuit, inject_noise=False)
        for index, (pauli, _) in enumerate(observable.terms()):
            expected = (1.0 if pauli.is_identity()
                        else state.expectation_pauli(pauli))
            assert abs(grouped[index] - expected) <= 1e-12


class TestRareEventProperties:
    """Contracts of the PR 10 rare-event estimators: log-weights stay
    finite at any tilt, the identity tilt is an exact no-op, and the
    Poisson-binomial stratum math is exact."""

    @given(data=st.data())
    def test_log_weights_finite_at_extreme_rates(self, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        # rates spanning ~300 orders of magnitude downward and as close to
        # 1 as float64 can represent while staying strictly below it (the
        # estimator's contract is rates strictly inside (0, 1))
        p = 10.0 ** rng.uniform(-300, -0.001, size=n)
        q = 1.0 - 10.0 ** rng.uniform(-15, -0.001, size=n)
        base_log, log_ratio = _log_weight_terms(p, q)
        assert math.isfinite(base_log)
        assert np.all(np.isfinite(log_ratio))
        # the heaviest possible shot (every edge flipped) still yields a
        # finite log-weight — only exp() may round it to 0.0 or overflow
        assert math.isfinite(base_log + float(log_ratio.sum()))

    @given(data=st.data())
    def test_identity_tilt_weights_are_exactly_one(self, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        p = rng.uniform(1e-12, 1.0 - 1e-12, size=n)
        q = tilted_probabilities(p, 0.0)
        assert np.array_equal(q, p)
        base_log, log_ratio = _log_weight_terms(p, q)
        # exact zeros, not merely small: identical arrays subtract to 0.0
        assert base_log == 0.0
        assert np.all(log_ratio == 0.0)
        errors = (rng.random((16, n)) < p).view(np.uint8)
        assert np.all(np.exp(base_log + errors @ log_ratio) == 1.0)

    @given(data=st.data())
    def test_tilted_rates_stay_in_unit_interval(self, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        theta = data.draw(st.floats(min_value=-700, max_value=700,
                                    allow_nan=False))
        p = np.random.default_rng(seed).uniform(1e-9, 1 - 1e-9, size=n)
        q = tilted_probabilities(p, theta)
        # extreme tilts may saturate to an exact 0.0/1.0 in float64 (the
        # estimator's (0,1) validation rejects those) but never overflow
        assert np.all(np.isfinite(q))
        assert np.all((q >= 0.0) & (q <= 1.0))
        # moderate tilts keep every rate strictly inside the interval
        moderate = tilted_probabilities(
            np.clip(p, 1e-6, 1 - 1e-6), max(-20.0, min(20.0, theta)))
        assert np.all((moderate > 0.0) & (moderate < 1.0))

    @given(data=st.data())
    def test_stratum_probabilities_normalize(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        max_weight = data.draw(st.integers(min_value=0, max_value=n))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        p = np.random.default_rng(seed).uniform(1e-8, 0.5, size=n)
        dist, tail = stratum_probabilities(p, max_weight)
        assert dist.shape == (max_weight + 1,)
        assert np.all(dist >= 0.0) and tail >= 0.0
        assert math.fsum(dist.tolist()) + tail == pytest.approx(1.0,
                                                                abs=1e-12)
        # truncation is exact for the kept bins: widening the window must
        # not change them (probability only ever flows upward in weight)
        wider, _ = stratum_probabilities(p, min(n, max_weight + 3))
        assert np.array_equal(dist, wider[:max_weight + 1])

    @given(data=st.data())
    def test_homogeneous_strata_match_binomial(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        rate = data.draw(st.floats(min_value=1e-6, max_value=0.5))
        dist, _ = stratum_probabilities(np.full(n, rate), n)
        for w in range(n + 1):
            exact = math.comb(n, w) * rate ** w * (1 - rate) ** (n - w)
            assert dist[w] == pytest.approx(exact, rel=1e-9, abs=1e-300)

    @given(data=st.data())
    @settings(deadline=None)
    def test_conditional_samples_carry_exact_weight(self, data):
        n = data.draw(st.integers(min_value=2, max_value=24))
        weight = data.draw(st.integers(min_value=1, max_value=n))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        p = rng.uniform(1e-6, 0.5, size=n)
        include = _conditional_include_table(p, weight)
        assert np.all((include >= 0.0) & (include <= 1.0))
        graph = repetition_code_graph(3, 2, 0.1)
        arrays = sampling_arrays(graph)
        table = _conditional_include_table(arrays.probabilities,
                                           min(weight, arrays.num_edges))
        errors = _sample_fixed_weight(arrays, min(weight, arrays.num_edges),
                                      32, rng, table)
        assert np.all(errors.sum(axis=1) == min(weight, arrays.num_edges))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
