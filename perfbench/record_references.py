"""Record the reference outputs of every catalogue input.

Run from the repository root::

    python3 perfbench/record_references.py            # all workloads
    python3 perfbench/record_references.py sweep      # one workload

Everything runs under the inline policy (one worker, no fan-out), the
reference the benchmark compares every op against, and under the same
fixed ``PYTHONHASHSEED`` as the benchmark (the script re-executes itself
to set it).  Outputs go to
``perfbench/references.npz``; re-record only when a change is meant to
alter the program's numbers, and say so in that change.  Recording all four
workloads takes about a quarter of an hour on a 2-CPU machine.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.npz"


def _sweep(out: dict) -> None:
    from repro.execution import Executor
    from workloads import SweepWorkload as W
    template, hamiltonian = W.build_problem()
    points = W.catalogue_points()
    executor = Executor(parallel="none", use_cache=False)
    energies = []
    for start in range(0, len(points), 512):
        energies.extend(executor.evaluate_sweep(
            template, points[start:start + 512], hamiltonian,
            backend="statevector"))
    out["sweep.energy"] = np.array(energies)
    out["digest.sweep.energy"] = np.array(_digest(points))


def _noisy_dm(out: dict) -> None:
    from repro.vqe.energy import BackendEnergyEvaluator
    from workloads import NoisyDensityMatrixWorkload as W
    template, hamiltonians, noise = W.build_problem()
    num_parameters = len(template.ordered_parameters())
    for kind in sorted(W.CATALOGUE):
        regime, name = kind.split("-")
        evaluator = BackendEnergyEvaluator.density_matrix(
            hamiltonians[name], noise[regime])
        parameters = W.catalogue_parameters(kind, num_parameters)
        out[f"noisy-dm.{kind}.energy"] = np.array(
            [evaluator.evaluate(template.bind_parameters(list(values)))
             for values in parameters])
        out[f"digest.noisy-dm.{kind}.energy"] = np.array(_digest(parameters))


def _clifford(out: dict) -> None:
    from workloads import CliffordWorkload as W
    problems = W.build_problems()
    for name, problem in sorted(problems.items()):
        out[f"clifford.{name}.noiseless"] = np.array(
            [W.noiseless_search(*problem)])
    vqes = W.build_vqes(problems)
    for kind in sorted(W.CATALOGUE):
        populations = W.catalogue_populations(
            kind, problems[kind.split("-")[1]][1].num_parameters())
        out[f"clifford.{kind}.energy"] = np.array(
            [vqes[kind].energy_from_population(population)
             for population in populations])
        out[f"digest.clifford.{kind}.energy"] = np.array(
            _digest(populations))


def _qec(out: dict) -> None:
    from workloads import QECServiceWorkload as W
    from workloads import inline_job_context, run_job_inline
    context = inline_job_context()
    for kind in sorted(W.CATALOGUE):
        rows = []
        for index in range(W.CATALOGUE[kind]):
            try:
                rows.append(run_job_inline(kind, W.SEED_BASE[kind] + index,
                                           context))
            except ZeroDivisionError:
                # The known rare-event defect; recorded, not avoided.
                rows.append(None)
        if kind == "rare-d5":
            out[f"qec.{kind}.raised"] = np.array([row is None
                                                  for row in rows])
            out[f"qec.{kind}.estimate"] = np.array(
                [np.nan if row is None else row["estimate"] for row in rows])
        else:
            for field in ("failures", "total_defects"):
                out[f"qec.{kind}.{field}"] = np.array(
                    [row[field] for row in rows], dtype=np.int64)
    seeds = np.array([W.SEED_BASE[kind] for kind in sorted(W.CATALOGUE)],
                     dtype=np.int64)
    out["digest.qec.seed_base"] = np.array(_digest(seeds))


RECORDERS = {"sweep": _sweep, "noisy-dm": _noisy_dm, "clifford": _clifford,
             "qec-service": _qec}


def main(argv) -> int:
    names = argv or sorted(RECORDERS)
    out = dict(np.load(REFERENCES)) if REFERENCES.exists() else {}
    for name in names:
        start = time.perf_counter()
        RECORDERS[name](out)
        print(f"{name}: {time.perf_counter() - start:.1f} s", flush=True)
        np.savez_compressed(REFERENCES, **out)
    return 0


if __name__ == "__main__":
    # The inline policy: a single worker never fans out.
    os.environ["REPRO_WORKERS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import _digest, pin_hash_seed
    pin_hash_seed()
    raise SystemExit(main(sys.argv[1:]))
