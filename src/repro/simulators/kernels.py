"""Vectorized bitmask/phase kernels for many-term Pauli expectations.

Evaluating a T-term Pauli observable against a dense state by building one
(sparse) matrix per term costs far more than the simulation that produced the
state.  These kernels instead exploit the symplectic structure of a Pauli
string ``P = i^{n_Y} X^{x} Z^{z}`` acting on computational-basis states:

    P |j⟩ = i^{n_Y} · (−1)^{popcount(j & z)} · |j ⊕ x⟩,

where ``x``/``z`` are the string's X/Z bitmasks (qubit ``q`` ↔ bit ``q``,
matching the package-wide little-endian convention) and ``n_Y`` counts Y
factors.  Every term expectation then reduces to one masked gather plus one
parity-signed reduction over the state — no matrices, no per-term circuit
evolution.  The grouped-observable execution path evolves each circuit
**once** and hands the final state to these kernels for all terms.

All functions accept the observable either as a :class:`PauliSum`-like object
(anything with ``num_qubits`` and ``terms()``) or as pre-extracted
``(x_bits, z_bits)`` uint8 bit matrices of shape ``(num_terms, num_qubits)``.
Returned values are the expectations of the *bare* (phase-free, Hermitian)
Pauli strings in ``terms()`` order; coefficients are applied by the caller.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "observable_bit_matrices",
    "pauli_masks",
    "statevector_term_expectations",
    "statevector_term_expectations_batch",
    "density_matrix_term_expectations",
]


def observable_bit_matrices(observable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract ``(coefficients, x_bits, z_bits)`` arrays from a Pauli sum.

    ``coefficients`` is complex of shape ``(T,)``; ``x_bits``/``z_bits`` are
    uint8 of shape ``(T, n)`` in the iteration order of
    ``observable.terms()``.  Example::

        coeffs, x_bits, z_bits = observable_bit_matrices(hamiltonian)
        values = statevector_term_expectations(state, x_bits, z_bits)
        energy = float(np.real(np.sum(coeffs * values)))
    """
    terms = list(observable.terms())
    num_terms = len(terms)
    num_qubits = observable.num_qubits
    coefficients = np.empty(num_terms, dtype=complex)
    x_bits = np.zeros((num_terms, num_qubits), dtype=np.uint8)
    z_bits = np.zeros((num_terms, num_qubits), dtype=np.uint8)
    for index, (pauli, coeff) in enumerate(terms):
        coefficients[index] = complex(coeff) * pauli.phase
        x_bits[index] = pauli.x
        z_bits[index] = pauli.z
    return coefficients, x_bits, z_bits


def pauli_masks(x_bits: np.ndarray, z_bits: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer bitmasks and phase factors from symplectic bit matrices.

    Returns ``(x_masks, z_masks, phases)`` where the masks are int64 arrays of
    shape ``(T,)`` with qubit ``q`` on bit ``q``, and ``phases[t] = i^{n_Y}``
    accounts for the Y factors of term ``t``.
    """
    x_bits = np.atleast_2d(np.asarray(x_bits, dtype=np.uint8))
    z_bits = np.atleast_2d(np.asarray(z_bits, dtype=np.uint8))
    if x_bits.shape != z_bits.shape:
        raise ValueError("x and z bit matrices must have equal shape")
    num_qubits = x_bits.shape[1]
    if num_qubits > 62:
        raise ValueError("bitmask kernels support at most 62 qubits")
    weights = (np.int64(1) << np.arange(num_qubits, dtype=np.int64))
    x_masks = (x_bits.astype(np.int64) @ weights)
    z_masks = (z_bits.astype(np.int64) @ weights)
    num_y = (x_bits & z_bits).sum(axis=1).astype(np.int64)
    phases = np.power(1.0j, num_y % 4)
    return x_masks, z_masks, phases


def _resolve_bits(observable, x_bits, z_bits):
    if observable is not None:
        _, x_bits, z_bits = observable_bit_matrices(observable)
    if x_bits is None or z_bits is None:
        raise ValueError("provide either an observable or both bit matrices")
    return (np.atleast_2d(np.asarray(x_bits, dtype=np.uint8)),
            np.atleast_2d(np.asarray(z_bits, dtype=np.uint8)))


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0
    _popcount = np.bitwise_count
else:  # pragma: no cover - exercised only on NumPy 1.x installs
    #: 16-bit popcount table; 62-bit masks fold into four table lookups.
    _POPCOUNT16 = np.unpackbits(
        np.arange(1 << 16, dtype=">u2").view(np.uint8)
    ).reshape(-1, 16).sum(axis=1).astype(np.uint8)

    def _popcount(values):
        total = _POPCOUNT16[values & 0xFFFF].astype(np.int64)
        total += _POPCOUNT16[(values >> 16) & 0xFFFF]
        total += _POPCOUNT16[(values >> 32) & 0xFFFF]
        total += _POPCOUNT16[(values >> 48) & 0xFFFF]
        return total


def _parity_signs(indices: np.ndarray, z_mask: int) -> np.ndarray:
    """(−1)^popcount(j & z_mask) for every index ``j`` (float64)."""
    if z_mask == 0:
        return np.ones(indices.size)
    parity = _popcount(indices & z_mask).astype(np.int64) & 1
    return 1.0 - 2.0 * parity


def statevector_term_expectations(state: np.ndarray,
                                  x_bits: Optional[np.ndarray] = None,
                                  z_bits: Optional[np.ndarray] = None,
                                  observable=None) -> np.ndarray:
    """⟨ψ|P_t|ψ⟩ for every bare Pauli term, from one statevector.

    ``state`` is a dense little-endian statevector of length ``2^n``.  Terms
    come either from ``observable`` (a :class:`~repro.operators.pauli.PauliSum`)
    or from explicit ``(T, n)`` bit matrices.  Returns a float64 array of
    length ``T``; each value is exact (the bare strings are Hermitian, so the
    imaginary parts cancel analytically).  Example::

        state = StatevectorSimulator().run(circuit).data
        values = statevector_term_expectations(state, observable=hamiltonian)
    """
    state = np.asarray(state, dtype=complex).ravel()
    x_bits, z_bits = _resolve_bits(observable, x_bits, z_bits)
    if state.size != 1 << x_bits.shape[1]:
        raise ValueError(
            f"state has dimension {state.size} but terms act on "
            f"{x_bits.shape[1]} qubits")
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(state.size, dtype=np.int64)
    conj_state = np.conj(state)
    values = np.empty(len(x_masks))
    for t in range(len(x_masks)):
        signed = _parity_signs(indices, int(z_masks[t])) * state
        x_mask = int(x_masks[t])
        bra = conj_state if x_mask == 0 else conj_state[indices ^ x_mask]
        values[t] = np.real(phases[t] * np.dot(bra, signed))
    return values


def statevector_term_expectations_batch(states: np.ndarray,
                                        x_bits: Optional[np.ndarray] = None,
                                        z_bits: Optional[np.ndarray] = None,
                                        observable=None) -> np.ndarray:
    """⟨ψ_b|P_t|ψ_b⟩ for a whole ``(B, 2^n)`` batch of statevectors at once.

    The sweep-readout companion of :func:`statevector_term_expectations`:
    each term's parity signs and gather indices are computed once and applied
    across every state of the batch in one vectorized pass, which is how the
    batched parameter-sweep pipeline reads a many-term Hamiltonian off all
    sweep points together.  Returns a float64 array of shape ``(B, T)``.
    Example::

        states = program.run_sweep(parameter_sets)       # (B, 2^n)
        values = statevector_term_expectations_batch(
            states, observable=hamiltonian)              # (B, T)
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    x_bits, z_bits = _resolve_bits(observable, x_bits, z_bits)
    if states.shape[1] != 1 << x_bits.shape[1]:
        raise ValueError(
            f"states have dimension {states.shape[1]} but terms act on "
            f"{x_bits.shape[1]} qubits")
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(states.shape[1], dtype=np.int64)
    values = np.empty((states.shape[0], len(x_masks)))
    # Diagonal terms (no X component, so i^{n_Y} = 1) reduce to signed sums
    # of probabilities; all of them are served by one (B, 2^n) x (2^n, T_d)
    # contraction against the parity-sign table.  It is an einsum, not a
    # BLAS matmul: OpenBLAS threads this GEMM from about 32 rows at 12
    # qubits, and its helper thread then spins beside the rest of the
    # readout, which doubled CPU and wall time on a 2-CPU box.
    diagonal = np.flatnonzero(x_masks == 0)
    if len(diagonal):
        parities = _popcount(indices[None, :]
                             & z_masks[diagonal][:, None]).astype(np.int64) & 1
        signs = 1.0 - 2.0 * parities
        probabilities = np.abs(states) ** 2
        values[:, diagonal] = np.einsum("bi,ti->bt", probabilities, signs)
    conj_states = np.conj(states) if len(diagonal) < len(x_masks) else None
    for t in np.flatnonzero(x_masks != 0):
        z_mask = int(z_masks[t])
        signed = (states if z_mask == 0
                  else _parity_signs(indices, z_mask) * states)
        bras = conj_states[:, indices ^ int(x_masks[t])]
        # einsum contracts without materializing the elementwise product.
        values[:, t] = np.real(phases[t]
                               * np.einsum("bi,bi->b", bras, signed))
    return values


def density_matrix_term_expectations(rho: np.ndarray,
                                     x_bits: Optional[np.ndarray] = None,
                                     z_bits: Optional[np.ndarray] = None,
                                     observable=None) -> np.ndarray:
    """Tr(ρ·P_t) for every bare Pauli term, from one density matrix.

    ``rho`` is a dense ``2^n × 2^n`` density matrix.  The trace gathers one
    (possibly off-) diagonal per term — ``Tr(ρP) = Σ_j c_j ρ[j, j⊕x]`` with
    ``c_j`` the bitmask phase of ``P|j⟩`` — so the cost per term is ``O(2^n)``
    instead of a ``4^n`` sparse-matrix product.  Example::

        rho = DensityMatrixSimulator(noise).run(circuit).data
        values = density_matrix_term_expectations(rho, observable=hamiltonian)
    """
    rho = np.asarray(rho, dtype=complex)
    x_bits, z_bits = _resolve_bits(observable, x_bits, z_bits)
    dim = 1 << x_bits.shape[1]
    if rho.shape != (dim, dim):
        raise ValueError(
            f"density matrix has shape {rho.shape} but terms act on "
            f"{x_bits.shape[1]} qubits")
    x_masks, z_masks, phases = pauli_masks(x_bits, z_bits)
    indices = np.arange(dim, dtype=np.int64)
    values = np.empty(len(x_masks))
    for t in range(len(x_masks)):
        signs = _parity_signs(indices, int(z_masks[t]))
        gathered = rho[indices, indices ^ int(x_masks[t])]
        values[t] = np.real(phases[t] * np.dot(signs, gathered))
    return values
