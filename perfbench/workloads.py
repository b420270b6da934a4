"""The four benchmark workloads and their fixed input catalogues.

Every workload draws its inputs from a *catalogue*: a fixed, finite list of
inputs generated from :data:`MASTER_SEED`.  The workload seed only chooses
the order in which a run walks each catalogue (and, for ``sweep``, which
earlier inputs it repeats), so every input a run can send has a reference
output recorded in ``references.npz`` by
``record_references.py``.  A run that exhausts a catalogue walks a fresh
permutation of it; the catalogues hold several times what one run uses at
the recorded speed, and a later reuse is far outside every in-memory cache
window.

Each workload is a closed loop over a fixed *cycle* of op kinds, so every
run has the same op mix and the timed phase always ends on a cycle boundary.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seed of every catalogue; changing it invalidates ``references.npz``.
MASTER_SEED = 20250611

#: Energies must match the inline-policy references within this tolerance.
ENERGY_ATOL = 1e-10

#: The interpreter hash seed of every run and of the references.
#: ``UnionFindDecoder._peel`` walks sets whose order follows string hashes,
#: so union-find failure counts repeat only under one fixed hash seed.
HASH_SEED = "0"

#: Private directory, under the working directory, for the service's
#: socket and registry.
WORKDIR = ".perfbench_tmp"


def pin_hash_seed() -> None:
    """Re-execute this script in place under ``PYTHONHASHSEED=HASH_SEED``.

    ``os.execv`` keeps the process id, so no child process is left behind.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


@dataclass
class Op:
    """One closed-loop operation: entry ``index`` of catalogue ``kind``."""

    kind: str
    index: int
    inputs: Any
    items: int
    job_id: Optional[str] = None


@dataclass
class Verdict:
    """The reference check of one op.

    ``status`` is ``"ok"``, ``"failed"`` (an exception or a failed job),
    ``"mismatch"`` (an output that differs from its reference) or
    ``"unverified"`` (the op succeeded where the reference run raised, so
    no reference value exists).
    """

    status: str
    detail: str = ""


class Catalogue:
    """Seed-ordered walk over ``size`` catalogue entries of one op kind."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self._rng = rng
        self._order = rng.permutation(size)
        self._next = 0

    def take(self) -> int:
        if self._next == self.size:
            self._order = self._rng.permutation(self.size)
            self._next = 0
        index = int(self._order[self._next])
        self._next += 1
        return index


def _digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def _workload_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(
        [int(seed), int.from_bytes(workload.encode(), "little") % (1 << 32)])


class Workload:
    """Base class: a cycle of op kinds, a seeded op stream and checks."""

    name = ""
    cycle: Tuple[str, ...] = ()
    #: What one item is, for ``items_per_s``.
    item = ""

    def __init__(self, seed: int, references):
        self.seed = int(seed)
        self.references = references
        self.rng = _workload_rng(seed, self.name)

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Build everything the ops need (Hamiltonians, templates, ...)."""

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""

    def setup_verdict(self) -> Verdict:
        """The reference check of what :meth:`setup` computed, if anything."""
        return Verdict("ok")

    def executors(self) -> List[Any]:
        """Executors whose :class:`ExecutionStats` the trace reads."""
        from repro.execution import default_executor
        return [default_executor()]

    # -- ops ------------------------------------------------------------
    def next_op(self, kind: str) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> Verdict:
        raise NotImplementedError

    def catalogue_digest(self) -> Dict[str, str]:
        """Digests of the generated catalogue inputs, per reference key."""
        return {}

    def service_row(self, op: Op, output: Any) -> Optional[Dict[str, Any]]:
        """The service registry row of ``op``, for service workloads."""
        return None

    def probes(self) -> Dict[str, Any]:
        """Checks of known program defects, run after the timed phase."""
        return {}

    def _check_energies(self, key: str, index: int,
                        energies: Sequence[float]) -> Verdict:
        reference = np.atleast_1d(self.references[key][index])
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        if energies.shape != reference.shape:
            return Verdict("mismatch", f"{key}[{index}] shape {energies.shape}"
                                       f" != {reference.shape}")
        gap = float(np.max(np.abs(energies - reference)))
        if not gap <= ENERGY_ATOL:
            return Verdict("mismatch", f"{key}[{index}] off by {gap:.3e}")
        return Verdict("ok")


# ---------------------------------------------------------------------------
# sweep: batched statevector parameter sweeps through the executor
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    """One ``Executor.evaluate_sweep`` call per op (default policy).

    12-qubit depth-1 fully connected hardware-efficient ansatz on the
    23-term Ising chain (J=1).  Each call has :attr:`POINTS` points, of
    which :meth:`repeats` repeat points of the previous call, the way
    :class:`GeneticOptimizer` re-scores its elites in every generation.
    """

    name = "sweep"
    cycle = ("sweep",)
    item = "energy point"
    NUM_QUBITS = 12
    POINTS = 32
    CATALOGUE = 16384

    @classmethod
    def repeats(cls) -> int:
        """Repeated points per call: ``POINTS`` times the elite share
        ``elite_count / population_size`` of the optimizer's defaults."""
        from repro.vqe.optimizers import GeneticOptimizer
        defaults = inspect.signature(GeneticOptimizer).parameters
        share = (defaults["elite_count"].default
                 / defaults["population_size"].default)
        return round(cls.POINTS * share)

    @classmethod
    def catalogue_points(cls) -> np.ndarray:
        from repro.ansatz import FullyConnectedAnsatz
        num_parameters = len(
            FullyConnectedAnsatz(cls.NUM_QUBITS, 1).build()
            .ordered_parameters())
        rng = np.random.default_rng([MASTER_SEED, 1])
        return rng.uniform(-math.pi, math.pi,
                           (cls.CATALOGUE, num_parameters))

    @classmethod
    def build_problem(cls):
        from repro.ansatz import FullyConnectedAnsatz
        from repro.operators import ising_hamiltonian
        return (FullyConnectedAnsatz(cls.NUM_QUBITS, 1).build(),
                ising_hamiltonian(cls.NUM_QUBITS, coupling=1.0))

    def setup(self) -> None:
        from repro.execution import Executor
        self.template, self.hamiltonian = self.build_problem()
        self.points = self.catalogue_points()
        self.walk = Catalogue(self.CATALOGUE, self.rng)
        self.executor = Executor()
        self.num_repeats = self.repeats()
        self.previous: List[int] = []

    def executors(self):
        return [self.executor]

    def catalogue_digest(self):
        return {"sweep.energy": _digest(self.points)}

    def next_op(self, kind):
        repeats = self.num_repeats if self.previous else 0
        fresh = [self.walk.take() for _ in range(self.POINTS - repeats)]
        repeated = [int(i) for i in self.rng.choice(
            self.previous, repeats, replace=False)]
        indices = fresh + repeated
        self.rng.shuffle(indices)
        self.previous = indices
        return Op(kind, -1, indices, len(indices))

    def run(self, op):
        return self.executor.evaluate_sweep(
            self.template, self.points[op.inputs], self.hamiltonian,
            backend="statevector")

    def check(self, op, output):
        for index, energy in zip(op.inputs, output):
            verdict = self._check_energies("sweep.energy", index, [energy])
            if verdict.status != "ok":
                return verdict
        return Verdict("ok")


# ---------------------------------------------------------------------------
# noisy-dm: Fig. 13 optimal-parameter re-scores on the density matrix
# ---------------------------------------------------------------------------


class NoisyDensityMatrixWorkload(Workload):
    """One ``BackendEnergyEvaluator.density_matrix(...).evaluate`` per op.

    6-qubit depth-1 FCHE at catalogue parameters, on the Ising chain (J=1)
    or the 60-term synthetic H2O Hamiltonian, under the pQEC or NISQ noise
    model.  The cycle runs three pQEC re-scores per Hamiltonian for each
    NISQ one, so the median op is a pQEC op and the tail a NISQ op.
    """

    name = "noisy-dm"
    cycle = ("pqec-h2o", "pqec-ising", "pqec-h2o", "nisq-ising",
             "pqec-ising", "pqec-h2o", "pqec-ising", "nisq-h2o")
    item = "evaluation"
    NUM_QUBITS = 6
    CATALOGUE = {"pqec-ising": 512, "pqec-h2o": 512,
                 "nisq-ising": 128, "nisq-h2o": 128}

    @classmethod
    def build_problem(cls):
        from repro.ansatz import FullyConnectedAnsatz
        from repro.core.regimes import NISQRegime, PQECRegime
        from repro.operators import ising_hamiltonian
        from repro.operators.molecules import molecular_hamiltonian
        hamiltonians = {
            "ising": ising_hamiltonian(cls.NUM_QUBITS, coupling=1.0),
            "h2o": molecular_hamiltonian("H2O", 1.0,
                                         num_qubits=cls.NUM_QUBITS,
                                         num_terms=60)}
        noise = {"pqec": PQECRegime().noise_model(),
                 "nisq": NISQRegime().noise_model()}
        return (FullyConnectedAnsatz(cls.NUM_QUBITS, 1).build(),
                hamiltonians, noise)

    @classmethod
    def catalogue_parameters(cls, kind: str, num_parameters: int):
        rng = np.random.default_rng(
            [MASTER_SEED, 2, sorted(cls.CATALOGUE).index(kind)])
        return rng.uniform(-math.pi, math.pi,
                           (cls.CATALOGUE[kind], num_parameters))

    def setup(self) -> None:
        from repro.vqe.energy import BackendEnergyEvaluator
        self.template, hamiltonians, noise = self.build_problem()
        num_parameters = len(self.template.ordered_parameters())
        self.parameters = {kind: self.catalogue_parameters(kind,
                                                           num_parameters)
                           for kind in self.CATALOGUE}
        self.evaluators = {}
        for kind in self.CATALOGUE:
            regime, hamiltonian = kind.split("-")
            self.evaluators[kind] = BackendEnergyEvaluator.density_matrix(
                hamiltonians[hamiltonian], noise[regime])
        self.walks = {kind: Catalogue(size, self.rng)
                      for kind, size in sorted(self.CATALOGUE.items())}

    def catalogue_digest(self):
        return {f"noisy-dm.{kind}.energy": _digest(values)
                for kind, values in self.parameters.items()}

    def next_op(self, kind):
        index = self.walks[kind].take()
        return Op(kind, index, self.parameters[kind][index], 1)

    def run(self, op):
        circuit = self.template.bind_parameters(list(op.inputs))
        return self.evaluators[op.kind].evaluate(circuit)

    def check(self, op, output):
        return self._check_energies(f"noisy-dm.{op.kind}.energy", op.index,
                                    [output])


# ---------------------------------------------------------------------------
# clifford: Fig. 12/14 Clifford-proxy GA population scores at 24 qubits
# ---------------------------------------------------------------------------


class CliffordWorkload(Workload):
    """One noisy ``CliffordVQE.energy_from_population`` call per op.

    24 qubits; Heisenberg (J=1) with the FCHE ansatz and Ising (J=0.25)
    with the blocked all-to-all ansatz, under pQEC and NISQ noise.  An op
    scores the two offspring of one steady-state GA step.  Set-up runs the
    noiseless ``best_noiseless_clifford_energy`` search for both problems.
    The cycle has six pQEC scores per NISQ score: a NISQ score costs ~8x a
    pQEC one, so NISQ (twirl-bound) work is over half the time.  The slower
    pQEC problem (Ising, blocked) has twice the ops of the other, so the
    median and the tail both fall inside its block.
    """

    name = "clifford"
    cycle = (("pqec-ising", "pqec-heisenberg", "pqec-ising") * 2
             + ("nisq-heisenberg",)
             + ("pqec-ising", "pqec-heisenberg", "pqec-ising") * 2
             + ("nisq-ising",))
    item = "chromosome"
    NUM_QUBITS = 24
    POPULATION = 2
    CATALOGUE = {"pqec-heisenberg": 256, "pqec-ising": 256,
                 "nisq-heisenberg": 32, "nisq-ising": 32}
    #: Small noiseless GA for set-up (population, generations, seed).
    SEARCH = (8, 6, 7)

    @classmethod
    def build_problems(cls):
        from repro.ansatz import BlockedAllToAllAnsatz, FullyConnectedAnsatz
        from repro.operators import heisenberg_hamiltonian, ising_hamiltonian
        n = cls.NUM_QUBITS
        return {"heisenberg": (heisenberg_hamiltonian(n, coupling=1.0),
                               FullyConnectedAnsatz(n, 1)),
                "ising": (ising_hamiltonian(n, coupling=0.25),
                          BlockedAllToAllAnsatz(n, 1))}

    @classmethod
    def noiseless_search(cls, hamiltonian, ansatz) -> float:
        from repro.vqe.clifford_vqe import best_noiseless_clifford_energy
        from repro.vqe.optimizers import GeneticOptimizer
        population, generations, seed = cls.SEARCH
        optimizer = GeneticOptimizer(population_size=population,
                                     generations=generations, seed=seed)
        return float(best_noiseless_clifford_energy(
            hamiltonian, ansatz, optimizer, seed=seed).best_energy)

    @classmethod
    def catalogue_populations(cls, kind: str, num_parameters: int):
        rng = np.random.default_rng(
            [MASTER_SEED, 3, sorted(cls.CATALOGUE).index(kind)])
        return rng.integers(0, 4, (cls.CATALOGUE[kind], cls.POPULATION,
                                   num_parameters))

    @classmethod
    def build_vqes(cls, problems):
        from repro.core.regimes import NISQRegime, PQECRegime
        from repro.vqe.clifford_vqe import CliffordVQE
        noise = {"pqec": PQECRegime().noise_model(),
                 "nisq": NISQRegime().noise_model()}
        vqes = {}
        for kind in cls.CATALOGUE:
            regime, problem = kind.split("-")
            hamiltonian, ansatz = problems[problem]
            vqes[kind] = CliffordVQE(hamiltonian, ansatz,
                                     noise_model=noise[regime])
        return vqes

    def setup(self) -> None:
        problems = self.build_problems()
        self.noiseless = {name: self.noiseless_search(*problem)
                          for name, problem in sorted(problems.items())}
        self.vqes = self.build_vqes(problems)
        self.populations = {
            kind: self.catalogue_populations(
                kind, problems[kind.split("-")[1]][1].num_parameters())
            for kind in self.CATALOGUE}
        self.walks = {kind: Catalogue(size, self.rng)
                      for kind, size in sorted(self.CATALOGUE.items())}

    def setup_verdict(self) -> Verdict:
        for name, energy in sorted(self.noiseless.items()):
            verdict = self._check_energies(f"clifford.{name}.noiseless", 0,
                                           [energy])
            if verdict.status != "ok":
                return verdict
        return Verdict("ok")

    def catalogue_digest(self):
        return {f"clifford.{kind}.energy": _digest(values)
                for kind, values in self.populations.items()}

    def next_op(self, kind):
        index = self.walks[kind].take()
        return Op(kind, index, self.populations[kind][index],
                  self.POPULATION)

    def run(self, op):
        return self.vqes[op.kind].energy_from_population(op.inputs)

    def check(self, op, output):
        return self._check_energies(f"clifford.{op.kind}.energy", op.index,
                                    output)


# ---------------------------------------------------------------------------
# qec-service: QEC jobs through the job server's unix socket
# ---------------------------------------------------------------------------


def qec_payload(kind: str, seed: int) -> Tuple[str, Dict[str, Any]]:
    """``(job kind, payload)`` of one catalogue QEC job."""
    from repro.service.protocol import (qec_memory_payload,
                                        qec_rare_event_payload)
    if kind == "rare-d5":
        return "qec_rare_event", qec_rare_event_payload(
            code="surface", distance=5, rounds=5, error_rate=1e-4,
            decoder="mwpm", shots=2048, method="stratified", seed=seed)
    distance = int(kind[len("memory-d")])
    decoder = "mwpm" if kind.endswith("mwpm") else "union_find"
    return "qec_memory", qec_memory_payload(
        code="surface", distance=distance, rounds=distance, error_rate=1e-3,
        decoder=decoder, shots=16384, seed=seed)


def inline_job_context():
    """A job context whose executor never fans out or caches."""
    from repro.execution import Executor
    from repro.service.jobs import JobContext
    return JobContext(executor=Executor(parallel="none", use_cache=False),
                      emit=lambda kind, data: None,
                      cancelled=threading.Event())


def run_job_inline(kind: str, seed: int, context=None) -> Dict[str, Any]:
    """Run one catalogue QEC job in this process, as the references do."""
    from repro.service.jobs import prepare_job
    job_kind, payload = qec_payload(kind, seed)
    return prepare_job(job_kind, payload).run(context or inline_job_context())


class QECServiceWorkload(Workload):
    """One job round trip (submit, then wait for the result) per op.

    One :class:`ServiceClient` talks to an in-process ``start_in_thread``
    server (2 job workers) over a unix socket; registry and socket live in
    a private directory under :data:`WORKDIR`, removed on close.  Memory
    jobs run the rotated surface code at p=1e-3 (d=5 and d=7, rounds=d,
    MWPM and union-find, 16384 shots); rare-event jobs run d=5 at p=1e-4,
    stratified, 2048-shot budget.  Every job is a fresh catalogue entry: no
    caller in the program resubmits a finished QEC job.  Job seeds are
    catalogue entries, taken in seed order whatever their outcome.
    """

    name = "qec-service"
    #: 17 ops, ~12 s: d5 MWPM jobs hold the median, d5 union-find jobs the
    #: tail (the 11th-slowest op of a two-cycle run), and the rare-event
    #: and d7 jobs sit above it.
    cycle = ("memory-d5-mwpm", "memory-d5-mwpm", "memory-d5-uf",
             "memory-d5-mwpm", "rare-d5", "memory-d5-mwpm", "memory-d5-mwpm",
             "memory-d7-mwpm", "memory-d5-mwpm", "memory-d5-uf",
             "memory-d5-mwpm", "memory-d5-mwpm", "memory-d7-uf",
             "memory-d5-mwpm", "memory-d5-uf", "memory-d5-mwpm",
             "memory-d5-mwpm")
    item = "requested shot"
    CATALOGUE = {"memory-d5-mwpm": 128, "memory-d5-uf": 64,
                 "memory-d7-mwpm": 32, "memory-d7-uf": 32, "rare-d5": 64}
    #: Job seeds of catalogue entry ``i`` are ``SEED_BASE[kind] + i``.
    SEED_BASE = {"memory-d5-mwpm": 1000, "memory-d5-uf": 2000,
                 "memory-d7-mwpm": 3000, "memory-d7-uf": 4000,
                 "rare-d5": 100}
    #: The union-find job the hash-seed probe runs, and the hash seeds.
    PROBE_KIND, PROBE_HASH_SEEDS = "memory-d5-uf", ("0", "1")

    def __init__(self, seed, references):
        super().__init__(seed, references)
        self.workdir = os.path.join(WORKDIR,
                                    f"{os.getpid()}-{threading.get_ident()}")
        self.handle = None
        self.client = None

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.config import ServiceConfig
        from repro.service.server import start_in_thread
        os.makedirs(self.workdir)
        # A relative path keeps the socket name under the 108-byte
        # sun_path limit however deep the checkout sits.
        socket_path = os.path.relpath(os.path.join(self.workdir, "s.sock"))
        self.handle = start_in_thread(ServiceConfig(
            socket_path=socket_path,
            db_path=os.path.join(self.workdir, "registry.sqlite"),
            workers=2))
        self.client = ServiceClient(socket_path)
        self.walks = {kind: Catalogue(size, self.rng)
                      for kind, size in sorted(self.CATALOGUE.items())}

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
            if self.handle is not None:
                self.handle.stop()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def executors(self):
        from repro.execution import default_executor
        return [default_executor()] + (
            [self.handle.server.executor] if self.handle else [])

    def next_op(self, kind):
        index = self.walks[kind].take()
        job_kind, payload = qec_payload(kind, self.SEED_BASE[kind] + index)
        return Op(kind, index, (job_kind, payload), int(payload["shots"]))

    def run(self, op):
        job_kind, payload = op.inputs
        op.job_id = self.client.submit(job_kind, payload).job_id
        return self.client.result(op.job_id, wait=True)

    def check(self, op, response):
        prefix = f"qec.{op.kind}"
        raised = (prefix + ".raised") in self.references and bool(
            self.references[prefix + ".raised"][op.index])
        if response.state != "done":
            return Verdict("failed", f"{op.kind}[{op.index}] "
                                     f"{response.state}: {response.error}")
        result = response.result
        if op.kind == "rare-d5":
            if raised:
                return Verdict("unverified",
                               f"{op.kind}[{op.index}] raised at reference")
            expected = self.references[prefix + ".estimate"][op.index]
            if np.float64(result["estimate"]).tobytes() != expected.tobytes():
                return Verdict("mismatch",
                               f"{op.kind}[{op.index}] estimate "
                               f"{result['estimate']!r} != {expected!r}")
            return Verdict("ok")
        for field_name in ("failures", "total_defects"):
            expected = int(self.references[f"{prefix}.{field_name}"]
                           [op.index])
            if int(result[field_name]) != expected:
                return Verdict("mismatch",
                               f"{op.kind}[{op.index}] {field_name} "
                               f"{result[field_name]} != {expected}")
        return Verdict("ok")

    def service_row(self, op: Op, response) -> Dict[str, Any]:
        """The registry row of ``op``'s job, as the trace reads it."""
        row = self.client.status(op.job_id)
        result = response.result or {}
        return {"queue_wait_s": row["started_at"] - row["created_at"],
                "run_s": row["finished_at"] - row["started_at"],
                "attempts": row["attempts"], "state": row["state"],
                "strata": len(result.get("strata", ()))}

    def probes(self):
        """Union-find failures of one job under two hash seeds.

        The references hold only for :data:`HASH_SEED`; this probe keeps
        the decoder's hash-order dependence visible in every record.
        """
        code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
                "from workloads import run_job_inline; "
                "print(run_job_inline(sys.argv[3], int(sys.argv[4]))"
                "['failures'])")
        here = os.path.dirname(os.path.abspath(__file__))
        argv = [sys.executable, "-c", code,
                os.path.join(os.path.dirname(here), "src"), here,
                self.PROBE_KIND, str(self.SEED_BASE[self.PROBE_KIND])]
        children = {
            hash_seed: subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed))
            for hash_seed in self.PROBE_HASH_SEEDS}
        failures = {}
        for hash_seed, child in children.items():
            out, _ = child.communicate(timeout=120)
            failures[hash_seed] = (int(out) if child.returncode == 0
                                   else None)
        return {"union_find_hash_seed": {
            "job": f"{self.PROBE_KIND}[0]",
            "failures_by_hash_seed": failures,
            "disagree": len(set(failures.values())) > 1}}

    def catalogue_digest(self):
        seeds = np.array([self.SEED_BASE[kind] for kind
                          in sorted(self.CATALOGUE)], dtype=np.int64)
        return {"qec.seed_base": _digest(seeds)}


WORKLOADS = {workload.name: workload for workload in (
    SweepWorkload, NoisyDensityMatrixWorkload, CliffordWorkload,
    QECServiceWorkload)}
