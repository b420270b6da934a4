"""Ablation benchmarks for the design choices called out in DESIGN.md §5.
* E[g] (expected injections per logical rotation) sensitivity of the Fig. 11
  crossover;
* the analytic surface-code scaling model versus the Monte-Carlo
  repetition-code memory experiment;
* factory choice sensitivity for qec-conventional (complementing Fig. 4);
* optimizer choice on a fixed density-matrix benchmark.
"""



from repro.ansatz import BlockedAllToAllAnsatz, FullyConnectedAnsatz
from repro.core import (CircuitProfile, NISQRegime, PQECRegime, nisq_fidelity,
                        pqec_fidelity)
from repro.mitigation import cafqa_initialization
from repro.operators import ising_hamiltonian
from repro.qec import (logical_error_rate, repetition_code_memory_experiment,
                       surface_code_memory_experiment)
from repro.vqe import (VQE, BackendEnergyEvaluator, CobylaOptimizer,
                       NelderMeadOptimizer, SPSAOptimizer)

from conftest import full_mode, print_table


def test_ablation_expected_injections(benchmark):
    """The pQEC-vs-NISQ break-even shifts with E[g] (Sec. 4.4 sensitivity)."""

    def compute():
        results = {}
        for expected_g in (1.0, 1.5, 2.0, 3.0):
            regime = PQECRegime(consumption_success_probability=1.0 / expected_g)
            winners = []
            for num_qubits in (8, 12, 16, 20):
                profile = CircuitProfile.from_ansatz(
                    BlockedAllToAllAnsatz(num_qubits, 20))
                pqec = pqec_fidelity(profile, regime).fidelity
                nisq = nisq_fidelity(profile, NISQRegime()).fidelity
                winners.append("pQEC" if pqec > nisq else "NISQ")
            results[expected_g] = winners
        return results

    results = benchmark(compute)
    rows = [[g] + winners for g, winners in results.items()]
    print_table("Ablation: winner vs E[g] at depth 20 (crossover moves right as "
                "E[g] grows)", ["E[g]", "N=8", "N=12", "N=16", "N=20"], rows)
    # With fewer injections per rotation pQEC wins earlier.
    assert results[1.0].count("pQEC") >= results[3.0].count("pQEC")


def test_ablation_surface_code_model_vs_monte_carlo(benchmark):
    """The analytic exponential-suppression model matches the Monte-Carlo
    memory experiments' qualitative behaviour below threshold.

    Each column is evaluated below *its own* code's threshold: the repetition
    code tolerates percent-level noise, the rotated surface code is probed at
    p = 0.02, and the analytic surface-code scaling model at the paper's
    EFT operating point p = 1e-3.
    """

    shots = 400 if full_mode() else 150
    surface_shots = 250 if full_mode() else 120

    def compute():
        repetition = {}
        surface = {}
        for distance in (3, 5, 7):
            repetition[distance] = repetition_code_memory_experiment(
                distance, 0.03, shots=shots, seed=17)
        for distance in (3, 5):
            surface[distance] = surface_code_memory_experiment(
                distance, 0.02, rounds=distance, shots=surface_shots, seed=23)
        return ({d: r.logical_error_rate for d, r in repetition.items()},
                surface,
                {d: r.wilson_interval() for d, r in repetition.items()})

    repetition, surface_outcomes, repetition_ci = benchmark(compute)
    surface = {d: outcome.logical_error_rate
               for d, outcome in surface_outcomes.items()}
    rows = [[d, f"{repetition[d]:.4f}",
             "[{:.3f}, {:.3f}]".format(*repetition_ci[d]),
             f"{surface.get(d, float('nan')):.4f}" if d in surface else "-",
             ("[{:.3f}, {:.3f}]".format(*surface_outcomes[d].wilson_interval())
              if d in surface_outcomes else "-"),
             f"{logical_error_rate(d, 1e-3):.2e}"]
            for d in sorted(repetition)]
    print_table("Ablation: Monte-Carlo memory experiments vs analytic model "
                "(all suppress errors as distance grows below threshold)",
                ["distance", "repetition MC (p=0.03)", "repetition 95% CI",
                 "rotated surface MC (p=0.02)", "surface 95% CI",
                 "analytic model (p=1e-3)"],
                rows)
    assert repetition[7] <= repetition[3] + 0.02
    assert surface[5] <= surface[3] + 0.03
    assert logical_error_rate(7, 1e-3) < logical_error_rate(3, 1e-3)


def test_ablation_optimizers(benchmark):
    """COBYLA / Nelder–Mead / SPSA on the same noisy 4-qubit VQE."""

    hamiltonian = ising_hamiltonian(4, 1.0)
    reference = hamiltonian.ground_state_energy()
    ansatz = FullyConnectedAnsatz(4, 1)
    noise = PQECRegime().noise_model()
    # All optimizers start from the same CAFQA Clifford bootstrap so the
    # comparison measures refinement ability, not initialization luck.
    bootstrap = cafqa_initialization(hamiltonian, ansatz, seed=3)

    def run(optimizer):
        vqe = VQE(hamiltonian, ansatz,
                  BackendEnergyEvaluator.density_matrix(hamiltonian, noise), optimizer,
                  reference_energy=reference)
        return vqe.run(initial_parameters=bootstrap.angles, seed=3)

    def compute():
        return {
            "cobyla": run(CobylaOptimizer(max_iterations=80)),
            "nelder_mead": run(NelderMeadOptimizer(max_iterations=100)),
            "spsa": run(SPSAOptimizer(max_iterations=120, seed=2)),
        }

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [[name, f"{res.best_energy:.4f}", f"{res.energy_gap:.4f}",
             res.num_evaluations]
            for name, res in results.items()]
    print_table(f"Ablation: optimizer comparison (reference E0 = {reference:.4f})",
                ["optimizer", "best energy", "gap to E0", "evaluations"], rows)
    # Every optimizer family must close a meaningful fraction of the gap; the
    # gradient-free stochastic SPSA is the loosest of the three.
    assert results["cobyla"].energy_gap < abs(reference) * 0.6
    assert results["nelder_mead"].energy_gap < abs(reference) * 0.6
    assert results["spsa"].energy_gap < abs(reference) * 0.85
