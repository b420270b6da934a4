"""Dense density-matrix simulator with CPTP-channel noise.

This is the substitute for Qiskit's ``AerSimulator`` density-matrix backend
used by the paper for 8–12 qubit evaluations (Sec. 5.2.1).  Gates are applied
as unitary conjugations and noise as one channel superoperator per noisy
slot, both via tensor contraction, so the cost per gate is O(4^n · 4^k)
rather than O(16^n).

Index convention matches the rest of the package: qubit ``q`` is bit ``q`` of
the computational-basis index (little-endian); multi-qubit gate matrices put
``qubits[0]`` on the least-significant index bit.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..operators.pauli import PauliSum
from .noise import NoiseModel
from .statevector import Statevector, counts_from_outcomes


class DensityMatrix:
    """A density operator on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("density matrix must be square")
        num_qubits = int(round(math.log2(data.shape[0])))
        if 2 ** num_qubits != data.shape[0]:
            raise ValueError("density matrix dimension must be a power of two")
        self._data = data
        self._num_qubits = num_qubits

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        dim = 2 ** num_qubits
        data = np.zeros((dim, dim), dtype=complex)
        data[0, 0] = 1.0
        return cls(data)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        vector = state.data.reshape(-1, 1)
        return cls(vector @ vector.conj().T)

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        dim = 2 ** num_qubits
        return cls(np.eye(dim, dtype=complex) / dim)

    # -- properties -----------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def data(self) -> np.ndarray:
        return self._data

    def trace(self) -> float:
        return float(np.trace(self._data).real)

    def purity(self) -> float:
        return float(np.trace(self._data @ self._data).real)

    def probabilities(self) -> np.ndarray:
        return np.clip(np.real(np.diag(self._data)), 0.0, None)

    def expectation(self, observable: PauliSum) -> float:
        """Tr(ρ H) for a Hermitian Pauli-sum observable."""
        from .kernels import density_matrix_term_expectations
        if observable.num_qubits != self._num_qubits:
            raise ValueError("observable acts on a different number of qubits")
        coefficients, x_bits, z_bits = observable.bit_matrices()
        if not len(coefficients):
            return 0.0
        values = density_matrix_term_expectations(self._data, x_bits, z_bits)
        return float(np.real(np.sum(coefficients * values)))

    def expectation_many(self, observable: PauliSum) -> np.ndarray:
        """Tr(ρ·P_i) for every bare Pauli term of ``observable``.

        One vectorized off-diagonal gather per term (see
        :mod:`repro.simulators.kernels`); values align with
        ``observable.terms()`` and exclude the coefficients.
        """
        from .kernels import density_matrix_term_expectations
        if observable.num_qubits != self._num_qubits:
            raise ValueError("observable acts on a different number of qubits")
        return density_matrix_term_expectations(self._data,
                                                observable=observable)

    def fidelity_with_pure_state(self, state: Statevector) -> float:
        """⟨ψ|ρ|ψ⟩ — state fidelity against a pure reference."""
        vector = state.data
        return float(np.real(np.vdot(vector, self._data @ vector)))

    def sample_counts(self, shots: int,
                      rng: Optional[np.random.Generator] = None) -> Dict[str, int]:
        rng = rng or np.random.default_rng()
        probabilities = self.probabilities()
        probabilities = probabilities / probabilities.sum()
        outcomes = rng.choice(len(probabilities), size=shots, p=probabilities)
        return counts_from_outcomes(outcomes, self._num_qubits)


class DensityMatrixSimulator:
    """Executes circuits on density matrices under a :class:`NoiseModel`."""

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 seed: Optional[int] = None):
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)

    # -- execution ----------------------------------------------------------------
    def run(self, circuit: QuantumCircuit,
            initial_state: Optional[DensityMatrix] = None,
            apply_measure_noise: bool = False) -> DensityMatrix:
        """Simulate the circuit and return the final density matrix.

        The circuit is lowered through
        :func:`repro.simulators.program.compile_circuit`: gate matrices are
        resolved at compile time, each noisy slot carries one channel
        superoperator, and diagonal gates apply as row/column phase
        multiplies.  The program is not cached: this method receives bound,
        one-shot circuits, and exact repeats are already served by the
        execution layer's expectation cache.

        ``measure`` instructions do not collapse the state (the evaluation
        works with expectation values); with ``apply_measure_noise=True`` the
        noise model's readout bit-flip channel is applied to each measured
        qubit, which is the correct treatment for diagonal observables.
        """
        from .program import compile_circuit
        num_qubits = circuit.num_qubits
        if initial_state is not None \
                and initial_state.num_qubits != num_qubits:
            raise ValueError("initial state size mismatch")
        program = compile_circuit(circuit, noise_model=self.noise_model,
                                  use_cache=False)
        rho = program.run_density_matrix(
            None if initial_state is None else initial_state.data,
            apply_measure_noise=apply_measure_noise)
        return DensityMatrix(rho)

    def expectation(self, circuit: QuantumCircuit, observable: PauliSum, *,
                    initial_state: Optional[DensityMatrix] = None,
                    trajectories: Optional[int] = None) -> float:
        """Noisy expectation value Tr(ρ H) of the prepared state.

        ``trajectories`` is accepted for signature parity with
        :class:`~repro.simulators.stabilizer.StabilizerSimulator` and ignored:
        the density-matrix expectation is exact.
        """
        values = self.expectation_many(circuit, observable,
                                       initial_state=initial_state)
        coefficients = np.array([float(np.real(c))
                                 for _, c in observable.terms()])
        return float(np.dot(coefficients, values))

    def expectation_many(self, circuit: QuantumCircuit, observable: PauliSum, *,
                         initial_state: Optional[DensityMatrix] = None,
                         trajectories: Optional[int] = None) -> np.ndarray:
        """Per-term noisy ⟨P_i⟩ from a **single** density-matrix evolution.

        The grouped-observable fast path: the circuit runs once and every
        term is read off the final ρ with the vectorized bitmask kernel.
        Symmetric readout bit flips damp each term by ``(1 − 2·p_meas)^w``
        (``w`` the term's weight), exactly as in :meth:`expectation`.  Values
        align with ``observable.terms()`` (coefficients are not applied);
        ``trajectories`` is accepted for signature parity and ignored.
        """
        state = self.run(circuit.without_measurements(), initial_state)
        values = state.expectation_many(observable)
        if self.noise_model is not None and self.noise_model.readout_error > 0:
            # Symmetric readout bit flips damp each Pauli term by
            # (1 - 2·p_meas)^weight; exact for uncorrelated symmetric flips.
            damping = 1.0 - 2.0 * self.noise_model.readout_error
            weights = np.array([pauli.weight()
                                for pauli, _ in observable.terms()])
            values = values * damping ** weights
        return values

    def sample(self, circuit: QuantumCircuit, shots: int) -> Dict[str, int]:
        """Sample computational-basis outcomes including readout errors."""
        state = self.run(circuit, apply_measure_noise=True)
        return state.sample_counts(shots, self._rng)
