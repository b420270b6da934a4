"""Kraus-loop references for the compiled density-matrix programs.

Every channel is applied operator by operator, ``ρ → Σ_k K_k ρ K_k†``, with
two tensor contractions per Kraus operator, and every instruction is
interpreted in layer order: the per-instruction loop the superoperator
programs of :mod:`repro.simulators.program` replace.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.simulators.noise import (NoiseModel, QuantumChannel, RESET_CHANNEL,
                                    bit_flip_channel)


def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray,
                  tensor_axes: List[int]) -> np.ndarray:
    """Contract ``matrix`` against ``tensor_axes`` of a ``(2,)*2n`` tensor."""
    k = len(tensor_axes)
    gate_tensor = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor,
                          axes=(list(range(k, 2 * k)), tensor_axes))
    return np.moveaxis(tensor, list(range(k)), tensor_axes)


def apply_unitary(rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int],
                  num_qubits: int) -> np.ndarray:
    """``M ρ M†`` for a k-qubit ``matrix`` on ``qubits``."""
    tensor = rho.reshape([2] * (2 * num_qubits))
    # Row axis of qubit q is (num_qubits - 1 - q); column axis adds num_qubits.
    row_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    col_axes = [num_qubits + axis for axis in row_axes]
    tensor = _apply_matrix(tensor, matrix, row_axes)
    tensor = _apply_matrix(tensor, matrix.conj(), col_axes)
    dim = 2 ** num_qubits
    return tensor.reshape(dim, dim)


def apply_channel(rho: np.ndarray, channel: QuantumChannel,
                  qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """``Σ_k K_k ρ K_k†``, one Kraus operator at a time."""
    return sum(apply_unitary(rho, kraus, qubits, num_qubits)
               for kraus in channel.kraus_operators)


def apply_reset(rho: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Reset a qubit to |0⟩ (trace out and re-prepare)."""
    return apply_channel(rho, RESET_CHANNEL, (qubit,), num_qubits)


def naive_density_matrix_run(noise: Optional[NoiseModel],
                             circuit: QuantumCircuit,
                             apply_measure_noise: bool = False) -> np.ndarray:
    """The pre-compile per-instruction density-matrix loop."""
    num_qubits = circuit.num_qubits
    dim = 2 ** num_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    idle = noise.idle_channel if noise is not None else None
    for layer in circuit.layers():
        busy = set()
        for inst in layer:
            busy.update(inst.qubits)
            if inst.name == "measure":
                if apply_measure_noise and noise is not None \
                        and noise.readout_error > 0:
                    rho = apply_channel(
                        rho, bit_flip_channel(noise.readout_error),
                        inst.qubits, num_qubits)
                continue
            if inst.name == "reset":
                rho = apply_reset(rho, inst.qubits[0], num_qubits)
                continue
            if inst.name == "barrier":
                continue
            rho = apply_unitary(rho, inst.gate.matrix(), inst.qubits,
                                num_qubits)
            if noise is not None:
                for channel in noise.gate_channels(inst.name):
                    rho = apply_channel(rho, channel, inst.qubits, num_qubits)
        if idle is not None:
            for qubit in range(num_qubits):
                if qubit not in busy:
                    rho = apply_channel(rho, idle, (qubit,), num_qubits)
    return rho
