"""Compiled circuit programs and batched parameter-sweep execution.

The interpreted simulator loops pay Python-level costs per gate per run:
``Gate.matrix()`` resolution, tensor-axis derivation, one generic
``tensordot`` per instruction — and every optimizer step (COBYLA/SPSA
queries, parameter-shift pairs, genetic populations, VQD levels, classifier
batches) re-simulates near-identical circuits one at a time.  This module
lowers a :class:`~repro.circuits.circuit.QuantumCircuit` **once** into a flat
:class:`CompiledProgram` and executes it — alone or across a whole parameter
sweep in one NumPy pass:

* **compile** — :func:`compile_circuit` resolves every gate matrix, derives
  tensor axes, fuses adjacent same-qubit unitaries (2×2/4×4 matmuls at
  compile time) and lowers diagonal gates (``rz``/``cz``/``rzz``/``z``/``s``/
  ``t``/…) to elementwise phase vectors instead of tensordots.  Compiling
  with a :class:`~repro.simulators.noise.NoiseModel` produces the
  density-matrix program: layer-ordered ops with one **superoperator**
  (``Σ K⊗K̄``, the gate's channels multiplied together) per noisy slot plus
  idle/readout channel ops (fusion is skipped so channels keep their exact
  positions).
* **cache** — programs are cached by ``circuit.fingerprint()`` (+ the noise
  model's identity and mutation ``version``), so optimizer re-queries and
  repeated executor traffic skip compilation entirely.
  :func:`program_cache_counters` feeds the execution layer's
  ``programs_compiled`` / ``program_cache_hits`` stats.
* **bind** — a program compiled from a parametric template keeps its
  structure and rebuilds only the parametric matrices:
  ``program.bind(theta)`` is the per-sweep-point cost.
* **batch** — :func:`run_batch` executes ``B`` structure-sharing bound
  programs as one ``(B, 2^n)`` stacked pass: every op is applied across the
  whole batch in a single (batched) matmul or broadcast multiply, which is
  what serves SPSA ± pairs, gradient pairs, genetic populations and
  parameter sweeps at NumPy speed.

Example::

    template = ansatz.build()                      # free parameters
    program = compile_circuit(template)            # compiled once, cached
    states = run_batch([program.bind(theta) for theta in sweep])
    # states.shape == (len(sweep), 2 ** n)
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import DIAGONAL_GATE_NAMES, parametric_matrix
from ..circuits.parameters import Parameter, ParameterExpression
from .noise import NoiseModel, RESET_CHANNEL, bit_flip_channel

__all__ = [
    "CompiledOp",
    "CompiledProgram",
    "compile_circuit",
    "run_batch",
    "run_interpreted",
    "clear_program_cache",
    "program_cache_counters",
    "OP_UNITARY",
    "OP_DIAG",
    "OP_RESET",
    "OP_CHANNEL",
    "OP_MEASURE_NOISE",
]

# Op kinds -------------------------------------------------------------------
OP_UNITARY = "unitary"          # dense k-qubit matrix, tensor contraction
OP_DIAG = "diag"                # k-qubit diagonal, elementwise phase multiply
OP_PERM = "perm"                # monomial matrix (CX/SWAP/X/...), index gather
OP_RESET = "reset"              # projective reset to |0> (stochastic on kets)
OP_CHANNEL = "channel"          # channel superoperator (density-matrix programs)
OP_MEASURE_NOISE = "measure_noise"  # readout flip channel, applied on demand

#: Above this qubit count the per-op full-index gather tables of the
#: permutation fast path (O(2^n) int64 entries) cost more than they save.
_MAX_PERM_QUBITS = 20

#: Multiply-adds per GEMM call in the superoperator applier.  OpenBLAS
#: (0.3.31, measured) hands complex GEMMs of 65536 multiply-adds and more
#: to its thread pool, which on small density matrices doubles the CPU time
#: for no wall-clock gain; smaller blocks keep every call on the calling
#: thread.
_SUPEROP_BLOCK_WORK = 1 << 15


def _diag_vector(matrix: np.ndarray) -> np.ndarray:
    """The diagonal of a (known-diagonal) gate unitary."""
    return np.ascontiguousarray(np.diag(matrix))


def _parametric_diag(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Diagonal phase vector of a parametric diagonal gate (rz / rzz)."""
    half = params[0] / 2.0
    phase, conj = np.exp(-1j * half), np.exp(1j * half)
    if name == "rz":
        return np.array([phase, conj])
    if name == "rzz":
        return np.array([phase, conj, conj, phase])
    raise ValueError(f"gate {name!r} is not a parametric diagonal gate")


def _broadcast_diag(diag: np.ndarray, qubits: Tuple[int, ...],
                    num_qubits: int) -> np.ndarray:
    """Reshape a ``2^k`` diagonal so it broadcasts onto the state tensor.

    The returned array has ``num_qubits`` axes: size 2 at the state-tensor
    axis of each target qubit (axis ``n-1-q`` for qubit ``q``), size 1
    elsewhere.  Multiplying the ``(…, 2, 2, …)`` state tensor by it applies
    the diagonal gate; a leading batch axis broadcasts for free.
    """
    k = len(qubits)
    tensor = np.asarray(diag, dtype=complex).reshape([2] * k)
    # tensor axis for qubits[j] is k-1-j (qubits[0] = least significant bit).
    # Reorder axes so they land in ascending state-tensor axis order, which
    # is descending qubit order.
    order = sorted(range(k), key=lambda j: qubits[j], reverse=True)
    tensor = np.transpose(tensor, axes=[k - 1 - j for j in order])
    shape = [1] * num_qubits
    for qubit in qubits:
        shape[num_qubits - 1 - qubit] = 2
    return np.ascontiguousarray(tensor).reshape(shape)


_ARANGE_CACHE: Dict[int, np.ndarray] = {}


def _index_arange(dim: int) -> np.ndarray:
    """A shared read-only ``arange(dim)`` (index tables are built often)."""
    cached = _ARANGE_CACHE.get(dim)
    if cached is None:
        cached = np.arange(dim, dtype=np.int64)
        cached.setflags(write=False)
        _ARANGE_CACHE[dim] = cached
    return cached


def _perm_apply_to_values(values: np.ndarray, qubits: Tuple[int, ...],
                          columns: np.ndarray,
                          phases: Optional[np.ndarray]
                          ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply a monomial op's index action elementwise to ``values``.

    Treating each entry of ``values`` as a basis index, replaces its target-
    qubit bits through the op's column permutation and extracts the matching
    phase factors — pure bit arithmetic, no gather tables.  This is both how
    a single perm op materializes its full table and how a whole run of perm
    ops composes into one (apply each op's action to the evolving table).
    """
    small = (values >> qubits[0]) & 1
    for j in range(1, len(qubits)):
        small = small | (((values >> qubits[j]) & 1) << j)
    mapped = columns[small]
    mask = 0
    for qubit in qubits:
        mask |= 1 << qubit
    out = values & ~mask
    out = out | ((mapped & 1) << qubits[0])
    for j in range(1, len(qubits)):
        out |= ((mapped >> j) & 1) << qubits[j]
    return out, (None if phases is None else phases[small])


class _Factor:
    """One instruction's contribution to a (possibly fused) compiled op.

    Static factors carry their resolved array (a matrix, or a bare diagonal
    vector when ``diag``); parametric factors carry the gate name and its raw
    parameter expressions and are rebuilt on :meth:`CompiledProgram.bind`.
    """

    __slots__ = ("name", "params", "static", "diag")

    def __init__(self, name: str, params: Optional[tuple],
                 static: Optional[np.ndarray], diag: bool):
        self.name = name
        self.params = params
        self.static = static
        self.diag = diag

    @property
    def is_parametric(self) -> bool:
        return self.static is None

    def resolve(self, bindings: Mapping) -> Tuple[np.ndarray, bool]:
        """The factor's array at the given bindings: ``(array, is_diag)``."""
        if self.static is not None:
            return self.static, self.diag
        values = []
        for param in self.params:
            if isinstance(param, ParameterExpression):
                values.append(float(param.bind(bindings)))
            else:
                values.append(float(param))
        values = tuple(values)
        if self.diag:
            return _parametric_diag(self.name, values), True
        return parametric_matrix(self.name, values), False


class CompiledOp:
    """One lowered operation of a :class:`CompiledProgram`.

    ``data`` depends on ``kind``: the dense matrix (:data:`OP_UNITARY`), the
    broadcast-shaped phase tensor (:data:`OP_DIAG`), a ``(columns, phases)``
    pair over the small ``2^k`` index space (:data:`OP_PERM`), the channel's
    ``(4^k, 4^k)`` superoperator (:data:`OP_CHANNEL` /
    :data:`OP_MEASURE_NOISE`, see
    :meth:`~repro.simulators.noise.QuantumChannel.superoperator`) or
    ``None`` (:data:`OP_RESET`).  ``factors`` (gate ops only) records the
    constituent instructions so parametric ops can be rebuilt on bind;
    ``data is None`` marks an op still awaiting parameter binding.
    """

    __slots__ = ("kind", "qubits", "data", "factors", "raw_diag",
                 "is_parametric", "_full")

    def __init__(self, kind: str, qubits: Tuple[int, ...], data,
                 factors: Optional[List[_Factor]] = None,
                 raw_diag: Optional[np.ndarray] = None):
        self.kind = kind
        self.qubits = qubits
        self.data = data
        self.factors = factors
        self.raw_diag = raw_diag  # bare 2^k diagonal (diag ops only)
        self.is_parametric = bool(factors) and any(f.is_parametric
                                                   for f in factors)
        self._full = None  # lazy full-index gather table (perm ops)

    def full_indices(self, num_qubits: int
                     ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Memoized ``(source_indices, phases)`` gather table of a perm op.

        ``out[j] = phases[j] * in[source_indices[j]]`` applies the monomial
        matrix over the full ``2^n`` index space; ``phases`` is ``None`` for
        pure permutations (CX, SWAP, X).
        """
        if self._full is None:
            columns, phases = self.data
            self._full = _perm_apply_to_values(
                _index_arange(1 << num_qubits), self.qubits, columns, phases)
        return self._full

    def bound(self, bindings: Mapping, num_qubits: int) -> "CompiledOp":
        """A bound copy with parametric factor matrices rebuilt."""
        if not self.is_parametric:
            return self
        if self.kind == OP_DIAG:
            diag = None
            for factor in self.factors:
                array, _ = factor.resolve(bindings)
                diag = array if diag is None else diag * array
            return CompiledOp(OP_DIAG, self.qubits,
                              _broadcast_diag(diag, self.qubits, num_qubits),
                              self.factors, raw_diag=diag)
        matrix = None
        for factor in self.factors:
            array, is_diag = factor.resolve(bindings)
            if is_diag:
                array = np.diag(array)
            matrix = array if matrix is None else array @ matrix
        return CompiledOp(OP_UNITARY, self.qubits, matrix, self.factors)

    def __repr__(self):
        return f"CompiledOp({self.kind}, qubits={self.qubits})"


class CompiledProgram:
    """A circuit lowered to a flat op stream with resolved numerics.

    Produced by :func:`compile_circuit`.  A program compiled from a
    parametric template is *structural*: its parametric ops carry no data
    until :meth:`bind` resolves them against a parameter vector (aligned
    with the source circuit's ``ordered_parameters()``) or a mapping.  Bound
    programs from one template share every static op, which is what lets
    :func:`run_batch` stack only the genuinely varying matrices.  Example::

        program = compile_circuit(ansatz.build())
        state = program.bind(theta).run_statevector()
    """

    __slots__ = ("num_qubits", "ops", "parameters", "noise_model",
                 "fingerprint", "fused", "_template", "_structure",
                 "_parametric_indices")

    def __init__(self, num_qubits: int, ops: List[CompiledOp],
                 parameters: List[Parameter],
                 noise_model: Optional[NoiseModel],
                 fingerprint: Optional[str], fused: bool,
                 template: Optional["CompiledProgram"] = None):
        self.num_qubits = num_qubits
        self.ops = ops
        self.parameters = parameters
        self.noise_model = noise_model
        self.fingerprint = fingerprint
        self.fused = fused
        self._template = template or self
        self._structure = None
        self._parametric_indices = [index for index, op in enumerate(ops)
                                    if op.is_parametric]

    # -- classification ------------------------------------------------------
    @property
    def is_parametric(self) -> bool:
        return bool(self.parameters)

    @property
    def is_bound(self) -> bool:
        """True when every op has resolved numeric data."""
        return all(op.data is not None or op.kind == OP_RESET
                   or op._full is not None for op in self.ops)

    @property
    def has_reset(self) -> bool:
        return any(op.kind == OP_RESET for op in self.ops)

    @property
    def has_channels(self) -> bool:
        return any(op.kind in (OP_CHANNEL, OP_MEASURE_NOISE)
                   for op in self.ops)

    def structure_key(self) -> Tuple:
        """Hashable op-stream shape; equal keys ⇒ batchable together."""
        if self._structure is None:
            self._structure = tuple((op.kind, op.qubits) for op in self.ops)
        return self._structure

    # -- binding -------------------------------------------------------------
    def bind(self, parameters) -> "CompiledProgram":
        """Bind the template's free parameters, rebuilding only parametric ops.

        ``parameters`` is a mapping ``{Parameter: value}`` or a sequence
        aligned with the source circuit's ``ordered_parameters()``.  Static
        ops (matrices, diagonals, channels) are shared with the template —
        only ops touching a free parameter are recomputed.
        """
        if isinstance(parameters, Mapping):
            bindings = dict(parameters)
        else:
            values = list(parameters)
            if len(values) != len(self.parameters):
                raise ValueError(
                    f"expected {len(self.parameters)} parameter values, "
                    f"got {len(values)}")
            bindings = dict(zip(self.parameters, values))
        ops = list(self.ops)
        for index in self._parametric_indices:
            ops[index] = ops[index].bound(bindings, self.num_qubits)
        return CompiledProgram(self.num_qubits, ops, [], self.noise_model,
                               None, self.fused, template=self._template)

    # -- execution -----------------------------------------------------------
    def run_statevector(self, initial_state: Optional[np.ndarray] = None,
                        rng: Optional[np.random.Generator] = None
                        ) -> np.ndarray:
        """Execute on a dense ket; returns the final ``2^n`` statevector.

        Requires a bound, channel-free program.  ``rng`` drives projective
        resets (one uniform draw per reset, matching the interpreted path).
        """
        if self.has_channels:
            raise ValueError(
                "program carries noise channels; use run_density_matrix")
        n = self.num_qubits
        dim = 1 << n
        if initial_state is None:
            state = np.zeros(dim, dtype=complex)
            state[0] = 1.0
        else:
            state = np.array(initial_state, dtype=complex).ravel()
        tensor = state.reshape([2] * n)
        for op in self.ops:
            if op.kind == OP_DIAG:
                tensor = tensor * op.data
            elif op.kind == OP_PERM:
                source, phases = op.full_indices(n)
                flat = tensor.reshape(-1)[source]
                if phases is not None:
                    flat = flat * phases
                tensor = flat.reshape([2] * n)
            elif op.kind == OP_UNITARY:
                tensor = _apply_unitary_tensor(tensor, op.data, op.qubits, n)
            elif op.kind == OP_RESET:
                flat = tensor.reshape(-1)
                flat = _reset_ket(flat, op.qubits[0],
                                  rng or np.random.default_rng())
                tensor = flat.reshape([2] * n)
            else:  # pragma: no cover - guarded above
                raise ValueError(f"statevector program cannot run {op.kind}")
        return tensor.reshape(-1)

    def run_density_matrix(self, initial_state: Optional[np.ndarray] = None,
                           apply_measure_noise: bool = False) -> np.ndarray:
        """Execute on a density matrix; returns the final ``2^n × 2^n`` ρ.

        Unitaries are applied as conjugations (diagonal ops as row/column
        phase multiplies); channels, resets and readout flips each as one
        superoperator contraction.  :data:`OP_MEASURE_NOISE` ops fire only
        when ``apply_measure_noise``.
        """
        n = self.num_qubits
        dim = 1 << n
        if initial_state is None:
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
        else:
            rho = np.array(initial_state, dtype=complex).reshape(dim, dim)
        for op in self.ops:
            if op.kind == OP_DIAG:
                rho = _dm_apply_diag(rho, op.data, n)
            elif op.kind == OP_PERM:
                source, phases = op.full_indices(n)
                rho = rho[source[:, None], source[None, :]]
                if phases is not None:
                    rho = rho * np.outer(phases, np.conj(phases))
            elif op.kind == OP_UNITARY:
                rho = _dm_apply_unitary(rho, op.data, op.qubits, n)
            elif op.kind == OP_CHANNEL:
                rho = _dm_apply_channel(rho, op.data, op.qubits, n)
            elif op.kind == OP_RESET:
                rho = _dm_apply_channel(rho, RESET_CHANNEL.superoperator(),
                                        op.qubits, n)
            elif op.kind == OP_MEASURE_NOISE:
                if apply_measure_noise:
                    rho = _dm_apply_channel(rho, op.data, op.qubits, n)
        return rho

    def run_sweep(self, parameter_sets: Sequence[Sequence[float]]
                  ) -> np.ndarray:
        """Bind every parameter set and execute the batch in one pass.

        Returns the ``(B, 2^n)`` matrix of final statevectors — see
        :func:`run_batch` for the batching mechanics and restrictions.
        """
        return run_batch([self.bind(values) for values in parameter_sets])

    def __repr__(self):
        kind = "noisy" if self.noise_model is not None else "noiseless"
        return (f"CompiledProgram(qubits={self.num_qubits}, "
                f"ops={len(self.ops)}, {kind}, "
                f"parametric={self.is_parametric})")


# ---------------------------------------------------------------------------
# Low-level appliers
# ---------------------------------------------------------------------------

def _apply_unitary_tensor(tensor: np.ndarray, matrix: np.ndarray,
                          qubits: Tuple[int, ...], num_qubits: int
                          ) -> np.ndarray:
    """Contract a k-qubit matrix into a ``(2,)*n`` state tensor."""
    k = len(qubits)
    axes = [num_qubits - 1 - q for q in qubits]
    gate_tensor = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor,
                          axes=(list(range(k, 2 * k)), list(reversed(axes))))
    return np.moveaxis(tensor, list(range(k)), list(reversed(axes)))


def _reset_ket(state: np.ndarray, qubit: int,
               rng: np.random.Generator) -> np.ndarray:
    """Projective reset of one qubit of a flat ket (one uniform draw)."""
    indices = np.arange(state.size)
    mask_one = (indices >> qubit) & 1 == 1
    prob_one = float(np.sum(np.abs(state[mask_one]) ** 2))
    if rng.random() < prob_one:
        new_state = np.zeros_like(state)
        new_state[indices[mask_one] ^ (1 << qubit)] = state[mask_one]
        norm = math.sqrt(prob_one)
    else:
        new_state = state.copy()
        new_state[mask_one] = 0.0
        norm = math.sqrt(max(1.0 - prob_one, 1e-300))
    return new_state / norm


def _batch_apply_unitary(states: np.ndarray, matrices: np.ndarray,
                         qubits: Tuple[int, ...], num_qubits: int
                         ) -> np.ndarray:
    """Apply a (shared or per-batch) matrix across a flat ``(B, 2^n)`` batch.

    ``matrices`` is ``(2^k, 2^k)`` (shared) or ``(B, 2^k, 2^k)`` (one per
    batch element); either way the whole batch is served by a single
    (stacked) matmul.
    """
    k = len(qubits)
    dim_k = 1 << k
    batch = states.shape[0]
    tensor = states.reshape([batch] + [2] * num_qubits)
    # State-tensor axes of the target qubits, most-significant qubit first,
    # offset by the leading batch axis.
    src = [1 + num_qubits - 1 - q for q in reversed(qubits)]
    dest = list(range(1, k + 1))
    moved = np.moveaxis(tensor, src, dest)
    shape = moved.shape
    flat = moved.reshape(batch, dim_k, -1)
    out = np.matmul(matrices, flat)
    out = np.moveaxis(out.reshape(shape), dest, src)
    return out.reshape(batch, -1)


def _dm_apply_matrix(tensor: np.ndarray, matrix: np.ndarray,
                     tensor_axes: List[int]) -> np.ndarray:
    k = len(tensor_axes)
    gate_tensor = matrix.reshape([2] * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor,
                          axes=(list(range(k, 2 * k)), tensor_axes))
    return np.moveaxis(tensor, list(range(k)), tensor_axes)


def _dm_axes(qubits: Sequence[int], num_qubits: int
             ) -> Tuple[List[int], List[int]]:
    row_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    col_axes = [num_qubits + axis for axis in row_axes]
    return row_axes, col_axes


def _dm_apply_unitary(rho: np.ndarray, matrix: np.ndarray,
                      qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    row_axes, col_axes = _dm_axes(qubits, num_qubits)
    tensor = rho.reshape([2] * (2 * num_qubits))
    tensor = _dm_apply_matrix(tensor, matrix, row_axes)
    tensor = _dm_apply_matrix(tensor, matrix.conj(), col_axes)
    return tensor.reshape(dim, dim)


def _dm_apply_diag(rho: np.ndarray, diag_tensor: np.ndarray,
                   num_qubits: int) -> np.ndarray:
    """ρ → D ρ D† for a diagonal D given as a broadcast-shaped phase tensor."""
    tensor = rho.reshape([2] * (2 * num_qubits))
    # Trailing-axis broadcasting hits the column axes; prepending singleton
    # axes shifts the same tensor onto the row axes.
    row_view = diag_tensor.reshape(diag_tensor.shape + (1,) * num_qubits)
    tensor = tensor * row_view
    tensor = tensor * np.conj(diag_tensor)
    dim = 1 << num_qubits
    return tensor.reshape(dim, dim)


def _dm_apply_channel(rho: np.ndarray, superop: np.ndarray,
                      qubits: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """ρ → Σ K ρ K† as one contraction with the superoperator ``Σ K⊗K̄``.

    The target row and column axes move to the end, so ρ becomes a
    ``(4^(n-k), 4^k)`` matrix whose rows are local ``vec(ρ)`` blocks; one
    product with ``superop.T`` maps them all, in row blocks small enough
    that BLAS stays on the calling thread.
    """
    dim = 1 << num_qubits
    order, inverse = _channel_axes(qubits, num_qubits)
    moved = rho.reshape([2] * (2 * num_qubits)).transpose(order)
    local = superop.shape[0]
    flat = moved.reshape(-1, local)
    out = np.empty_like(flat)
    transposed = superop.T
    step = max(1, _SUPEROP_BLOCK_WORK // (local * local))
    for start in range(0, len(flat), step):
        np.matmul(flat[start:start + step], transposed,
                  out=out[start:start + step])
    return out.reshape(moved.shape).transpose(inverse).reshape(dim, dim)


@functools.lru_cache(maxsize=None)
def _channel_axes(qubits: Tuple[int, ...], num_qubits: int
                  ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Transpose orders that move an op's row and column axes last, and back."""
    row_axes, col_axes = _dm_axes(qubits, num_qubits)
    targets = row_axes + col_axes
    order = [axis for axis in range(2 * num_qubits)
             if axis not in targets] + targets
    return tuple(order), tuple(int(axis) for axis in np.argsort(order))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _as_perm_op(op: CompiledOp) -> CompiledOp:
    """Convert a static unitary op to :data:`OP_PERM` when it is monomial.

    A monomial unitary (one nonzero per row — CX, SWAP, X, Y, and their
    products) applies as an index gather plus optional phases: one pass over
    the state instead of a matmul's several.  Non-monomial ops are returned
    unchanged.
    """
    matrix = op.data
    nonzero = np.abs(matrix) > 1e-12
    if (nonzero.sum(axis=1) != 1).any():
        return op
    columns = np.argmax(nonzero, axis=1).astype(np.int64)
    phases = matrix[np.arange(len(matrix)), columns]
    if (phases == 1.0).all():
        phases = None
    return CompiledOp(OP_PERM, op.qubits, (columns, phases), op.factors)


def _fuse_perm_run(run: List[CompiledOp], num_qubits: int) -> CompiledOp:
    """Collapse consecutive PERM ops into one full-index gather.

    Permutation composition happens index-wise over the full ``2^n`` space,
    so a whole CNOT ladder (or any monomial-gate run) becomes a *single*
    gather per execution, regardless of which qubits each gate touched.
    """
    if len(run) == 1:
        return run[0]
    # Walk the run in reverse, applying each op's bit-level action to the
    # evolving index table: the composed gather builds in O(run length)
    # vectorized passes with no per-op tables.
    source = _index_arange(1 << num_qubits)
    phases = None
    for op in reversed(run):
        columns, op_phases = op.data
        source, phase_factors = _perm_apply_to_values(source, op.qubits,
                                                      columns, op_phases)
        if phase_factors is not None:
            phases = (phase_factors if phases is None
                      else phases * phase_factors)
    qubits = tuple(sorted({q for op in run for q in op.qubits}))
    factors = [factor for op in run for factor in (op.factors or [])]
    fused = CompiledOp(OP_PERM, qubits, None, factors)
    fused._full = (source, phases)
    return fused


def _finalize_ops(ops: List[CompiledOp], num_qubits: int) -> List[CompiledOp]:
    """Post-fusion lowering pass for static monomial unitaries.

    Each static unitary with exactly one nonzero per row (CX, SWAP, X, Y and
    their products) is rewritten as an index gather (:data:`OP_PERM`), and
    consecutive gathers collapse into one.
    """
    if num_qubits > _MAX_PERM_QUBITS:
        return ops
    lowered = [_as_perm_op(op)
               if op.kind == OP_UNITARY and not op.is_parametric else op
               for op in ops]
    finalized: List[CompiledOp] = []
    run: List[CompiledOp] = []
    for op in lowered:
        if op.kind == OP_PERM:
            run.append(op)
            continue
        if run:
            finalized.append(_fuse_perm_run(run, num_qubits))
            run = []
        finalized.append(op)
    if run:
        finalized.append(_fuse_perm_run(run, num_qubits))
    return finalized


def _make_gate_op(inst, num_qubits: int) -> CompiledOp:
    """Lower one unitary instruction to an (unfused) compiled op."""
    gate = inst.gate
    diag = gate.name in DIAGONAL_GATE_NAMES
    if gate.is_parameterized:
        factor = _Factor(gate.name, gate.params, None, diag)
        return CompiledOp(OP_DIAG if diag else OP_UNITARY, inst.qubits,
                          None, [factor])
    matrix = gate.matrix()
    if diag:
        vector = _diag_vector(matrix)
        factor = _Factor(gate.name, None, vector, True)
        return CompiledOp(OP_DIAG, inst.qubits,
                          _broadcast_diag(vector, inst.qubits, num_qubits),
                          [factor], raw_diag=vector)
    factor = _Factor(gate.name, None, matrix, False)
    return CompiledOp(OP_UNITARY, inst.qubits, matrix, [factor])


def _try_fuse(previous: CompiledOp, new: CompiledOp,
              num_qubits: int) -> Optional[CompiledOp]:
    """Fuse two adjacent gate ops acting on the identical qubit tuple."""
    if previous.kind not in (OP_UNITARY, OP_DIAG):
        return None
    if new.kind not in (OP_UNITARY, OP_DIAG):
        return None
    if previous.qubits != new.qubits:
        return None
    factors = list(previous.factors) + list(new.factors)
    if previous.is_parametric or new.is_parametric:
        diag = previous.kind == OP_DIAG and new.kind == OP_DIAG
        return CompiledOp(OP_DIAG if diag else OP_UNITARY, new.qubits,
                          None, factors)
    if previous.kind == OP_DIAG and new.kind == OP_DIAG:
        merged = previous.raw_diag * new.raw_diag
        return CompiledOp(OP_DIAG, new.qubits,
                          _broadcast_diag(merged, new.qubits, num_qubits),
                          factors, raw_diag=merged)
    left = (np.diag(new.raw_diag) if new.kind == OP_DIAG else new.data)
    right = (np.diag(previous.raw_diag) if previous.kind == OP_DIAG
             else previous.data)
    return CompiledOp(OP_UNITARY, new.qubits, left @ right, factors)


def _compile_noiseless(circuit: QuantumCircuit, fuse: bool
                       ) -> List[CompiledOp]:
    """Instruction-order lowering: fusion + diagonal fast path, no channels."""
    num_qubits = circuit.num_qubits
    ops: List[CompiledOp] = []
    for inst in circuit:
        name = inst.name
        if name in ("barrier", "measure", "i", "id"):
            continue  # no-ops on a noiseless ket; identities are dropped
        if name == "reset":
            ops.append(CompiledOp(OP_RESET, inst.qubits, None))
            continue
        new = _make_gate_op(inst, num_qubits)
        if fuse and ops:
            fused = _try_fuse(ops[-1], new, num_qubits)
            if fused is not None:
                ops[-1] = fused
                continue
        ops.append(new)
    return ops


def _compile_noisy(circuit: QuantumCircuit,
                   noise_model: NoiseModel) -> List[CompiledOp]:
    """Layer-order lowering mirroring ``DensityMatrixSimulator.run``.

    Fusion is skipped: every unitary keeps its exact position so its noise
    lands where the interpreted loop put it.  A gate's channels become one
    superoperator, their product with the first-applied channel rightmost.
    Idle channels are appended per layer, readout flips become
    :data:`OP_MEASURE_NOISE` ops the executor applies on demand.  Idle
    channels and single-channel gates use the channel's memoized
    superoperator array, shared by every program compiled against it.
    """
    num_qubits = circuit.num_qubits
    idle_channel = noise_model.idle_channel
    merged_cache: Dict[str, Optional[np.ndarray]] = {}
    readout = None  # built on the first measurement
    ops: List[CompiledOp] = []
    for layer in circuit.layers():
        busy: set = set()
        for inst in layer:
            busy.update(inst.qubits)
            name = inst.name
            if name == "measure":
                if noise_model.readout_error > 0:
                    if readout is None:
                        readout = bit_flip_channel(
                            noise_model.readout_error).superoperator()
                    ops.append(CompiledOp(OP_MEASURE_NOISE, inst.qubits,
                                          readout))
                continue
            if name == "reset":
                ops.append(CompiledOp(OP_RESET, inst.qubits, None))
                continue
            ops.append(_make_gate_op(inst, num_qubits))
            if name not in merged_cache:
                merged = None
                for channel in noise_model.gate_channels(name):
                    superop = channel.superoperator()
                    merged = superop if merged is None else superop @ merged
                merged_cache[name] = merged
            merged = merged_cache[name]
            if merged is not None:
                ops.append(CompiledOp(OP_CHANNEL, inst.qubits, merged))
        if idle_channel is not None:
            idle = idle_channel.superoperator()
            for qubit in range(num_qubits):
                if qubit not in busy:
                    ops.append(CompiledOp(OP_CHANNEL, (qubit,), idle))
    return ops


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------

_CACHE_MAX_SIZE = 512
#: Approximate payload ceiling for the program cache.  Fused permutation
#: ops hold O(2^n) gather tables, so one-shot bound circuits at high qubit
#: counts would otherwise pin gigabytes of never-reused programs.
_CACHE_MAX_BYTES = 256 * 1024 * 1024
_PROGRAM_CACHE: "OrderedDict[Tuple, Tuple[CompiledProgram, int]]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_BYTES = 0
_COMPILED_COUNT = 0
_HIT_COUNT = 0


def _program_nbytes(program: CompiledProgram) -> int:
    """Estimated numeric payload of a program (for cache accounting).

    Perm ops that have not materialized their ``O(2^n)`` gather tables yet
    are charged their *eventual* size: the tables appear lazily on first
    run, after the program has been inserted into the cache, so accounting
    only what exists at insert time would defeat the byte ceiling.
    """
    dim = 1 << program.num_qubits
    total = 0
    for op in program.ops:
        parts = op.data if isinstance(op.data, (tuple, list)) else (op.data,)
        for part in parts:
            if isinstance(part, np.ndarray):
                total += part.nbytes
        if op._full is not None:
            for part in op._full:
                if isinstance(part, np.ndarray):
                    total += part.nbytes
        elif op.kind == OP_PERM:
            total += dim * 8  # int64 source table, built on first run
            if op.data[1] is not None:
                total += dim * 16  # complex128 phase table
    return total


def program_cache_counters() -> Tuple[int, int]:
    """Process-wide ``(programs_compiled, program_cache_hits)`` counters.

    The execution layer samples these around dispatch to attribute compile
    activity to its :class:`~repro.execution.executor.ExecutionStats`.
    """
    with _CACHE_LOCK:
        return _COMPILED_COUNT, _HIT_COUNT


def clear_program_cache() -> None:
    """Drop every cached program and reset the counters (mainly for tests)."""
    global _COMPILED_COUNT, _HIT_COUNT, _CACHE_BYTES
    with _CACHE_LOCK:
        _PROGRAM_CACHE.clear()
        _CACHE_BYTES = 0
        _COMPILED_COUNT = 0
        _HIT_COUNT = 0


def _noise_cache_token(noise_model: Optional[NoiseModel]):
    if noise_model is None or not noise_model.has_noise():
        return None
    return (id(noise_model), noise_model.version)


def compile_circuit(circuit: QuantumCircuit,
                    noise_model: Optional[NoiseModel] = None,
                    fuse: bool = True,
                    use_cache: bool = True) -> CompiledProgram:
    """Lower ``circuit`` to a :class:`CompiledProgram` (cached).

    Without a noise model the program is the statevector fast path:
    instruction-ordered, adjacent same-qubit unitaries fused, diagonal gates
    lowered to phase vectors, barriers/measurements dropped.  With a noise
    model the program is layer-ordered with one superoperator op per noisy
    slot and **fusion disabled** (channels must keep their positions); it is
    what :class:`~repro.simulators.density_matrix.DensityMatrixSimulator`
    executes.

    Programs are cached by ``circuit.fingerprint()`` plus the noise model's
    identity and mutation :attr:`~repro.simulators.noise.NoiseModel.version`
    (and the ``fuse`` flag), so an in-place ``add_*`` edit invalidates stale
    programs.  Parametric circuits compile their structure once; use
    :meth:`CompiledProgram.bind` per parameter vector.  ``use_cache=False``
    compiles without reading or filling the cache, for one-shot circuits
    that would only evict reusable programs.
    """
    global _COMPILED_COUNT, _HIT_COUNT
    parameters = circuit.ordered_parameters()
    key = None
    if use_cache:
        # Parameter *identities* join the key: two structurally identical
        # templates built from distinct Parameter objects share a
        # fingerprint, but a cached program holds the first template's
        # Parameter objects and mapping-based bind() matches by identity.
        # (The cached program pins its parameters, so ids cannot recycle.)
        key = (circuit.fingerprint(),
               tuple(id(parameter) for parameter in parameters), fuse,
               _noise_cache_token(noise_model))
        with _CACHE_LOCK:
            cached = _PROGRAM_CACHE.get(key)
            if cached is not None:
                _PROGRAM_CACHE.move_to_end(key)
                _HIT_COUNT += 1
                return cached[0]
    if noise_model is not None and noise_model.has_noise():
        ops = _compile_noisy(circuit, noise_model)
        effective_fuse = False
    else:
        ops = _compile_noiseless(circuit, fuse)
        effective_fuse = fuse
    ops = _finalize_ops(ops, circuit.num_qubits)
    program = CompiledProgram(circuit.num_qubits, ops, parameters,
                              noise_model,
                              circuit.fingerprint() if key is None else key[0],
                              effective_fuse)
    if use_cache:
        nbytes = _program_nbytes(program)
        global _CACHE_BYTES
        with _CACHE_LOCK:
            _COMPILED_COUNT += 1
            previous = _PROGRAM_CACHE.get(key)
            if previous is not None:
                _CACHE_BYTES -= previous[1]
            _PROGRAM_CACHE[key] = (program, nbytes)
            _PROGRAM_CACHE.move_to_end(key)
            _CACHE_BYTES += nbytes
            while _PROGRAM_CACHE and (len(_PROGRAM_CACHE) > _CACHE_MAX_SIZE
                                      or _CACHE_BYTES > _CACHE_MAX_BYTES):
                _, (_, evicted_bytes) = _PROGRAM_CACHE.popitem(last=False)
                _CACHE_BYTES -= evicted_bytes
    else:
        with _CACHE_LOCK:
            _COMPILED_COUNT += 1
    return program


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------

def run_batch(programs: Sequence[CompiledProgram],
              initial_states: Optional[np.ndarray] = None) -> np.ndarray:
    """Execute structure-sharing bound programs as one stacked pass.

    All programs must be bound, channel- and reset-free, and share one op
    structure (programs bound from one template always do).  Each op is
    applied across the whole ``(B, 2^n)`` batch in a single contraction:
    ops that are static in the template are applied as one broadcast matmul
    or phase multiply; parametric ops stack their per-program matrices into
    one ``(B, 2^k, 2^k)`` batched matmul.  Returns the ``(B, 2^n)`` final
    states in input order.  Example::

        program = compile_circuit(template)
        states = run_batch([program.bind(theta) for theta in sweep])
    """
    programs = list(programs)
    if not programs:
        return np.zeros((0, 0), dtype=complex)
    first = programs[0]
    n = first.num_qubits
    dim = 1 << n
    structure = first.structure_key()
    for program in programs[1:]:
        if program.structure_key() != structure:
            raise ValueError(
                "run_batch requires programs sharing one op structure "
                "(bind them from the same compiled template)")
    for program in programs:
        if program.has_channels:
            raise ValueError("run_batch cannot execute noisy programs")
        if program.has_reset:
            raise ValueError(
                "run_batch cannot batch programs with projective resets")
        if not program.is_bound:
            raise ValueError("run_batch requires bound programs")

    batch = len(programs)
    if initial_states is None:
        states = np.zeros((batch, dim), dtype=complex)
        states[:, 0] = 1.0
    else:
        states = np.array(initial_states, dtype=complex).reshape(batch, dim)

    # Programs bound from one template share every static op object, so the
    # per-op stacking decision reduces to the template's parametric index
    # set; mixed-origin batches fall back to identity checks per op.
    template = first._template
    same_template = all(program._template is template
                        for program in programs[1:])
    parametric_indices = set(first._parametric_indices)

    for index in range(len(first.ops)):
        lead = first.ops[index]
        if same_template and index not in parametric_indices:
            ops = None
            shared = True
        else:
            ops = [program.ops[index] for program in programs]
            shared = all(op is lead for op in ops)
        if lead.kind == OP_PERM:
            # Static by construction (parametric ops never lower to PERM),
            # but mixed-origin batches may hold *different* monomials behind
            # one structure key — those gather row by row.
            if shared:
                source, phases = lead.full_indices(n)
                states = states[:, source]
                if phases is not None:
                    states *= phases
            else:
                for row, op in enumerate(ops):
                    source, phases = op.full_indices(n)
                    gathered = states[row, source]
                    if phases is not None:
                        gathered = gathered * phases
                    states[row] = gathered
        elif lead.kind == OP_DIAG:
            tensor = states.reshape([batch] + [2] * n)
            if shared:
                tensor = tensor * lead.data
            else:
                tensor = tensor * np.stack([op.data for op in ops])
            states = tensor.reshape(batch, dim)
        else:  # OP_UNITARY
            if shared:
                matrices = lead.data
            else:
                matrices = np.stack([op.data for op in ops])
            states = _batch_apply_unitary(states, matrices, lead.qubits, n)
    return states.reshape(batch, dim)


# ---------------------------------------------------------------------------
# Interpreted reference
# ---------------------------------------------------------------------------

def run_interpreted(circuit: QuantumCircuit,
                    initial_state: Optional[np.ndarray] = None,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Gate-by-gate statevector execution without compilation.

    The pre-compile hot loop, kept as the correctness reference for the
    compile layer's equality tests and as the baseline for the
    compiled-vs-interpreted benchmarks: per instruction it re-resolves the
    gate matrix and re-derives tensor axes, then applies one generic
    ``tensordot`` — exactly what :func:`compile_circuit` amortizes away.
    """
    n = circuit.num_qubits
    dim = 1 << n
    if initial_state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.array(initial_state, dtype=complex).ravel()
    for inst in circuit:
        if inst.name in ("barrier", "measure"):
            continue
        if inst.name == "reset":
            state = _reset_ket(state, inst.qubits[0],
                               rng or np.random.default_rng())
            continue
        tensor = state.reshape([2] * n)
        tensor = _apply_unitary_tensor(tensor, inst.gate.matrix(),
                                       inst.qubits, n)
        state = tensor.reshape(-1)
    return state
