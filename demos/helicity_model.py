#
# Two-level helicity model: closed forms against the generic pipeline
#
# Unequal couplings k1 != k2 make the generator non-Hermitian while the
# spectrum stays real (for alpha*beta > 0), so probabilities follow
# closed forms yet are free to leave [0, 1].  Everything the generic
# eigensystem machinery computes must agree with those closed forms.
#
import numpy as np

from pseudoherm import (
    ModelParams,
    biorthonormal_system,
    coupling_ratio,
    effective_hamiltonian,
    level_splitting,
    model_intertwiner,
    probe_asymmetry,
    probe_probability,
    probe_state,
    spin_flip_probability,
    transition_probability,
)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


def main():
    params = ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=1.0, k2=0.5)
    print("generator:")
    print(effective_hamiltonian(params))
    print(f"coupling ratio  {coupling_ratio(params):.6f}")
    print(f"level splitting {level_splitting(params).real:.6f}")
    metric = np.diag(model_intertwiner(params)).real
    print(f"metric          diag({metric[0]:.6f}, {metric[1]:.6f})")

    #
    # closed-form curves, with the generic pipeline run alongside
    #
    system = biorthonormal_system(effective_hamiltonian(params))
    print("\n    t     spin flip   probe fwd   probe bwd   asymmetry   pipeline gap")
    for t in np.linspace(0.0, 8.0, 9):
        flip = spin_flip_probability(params, t)
        fwd = probe_probability(params, t)
        bwd = probe_probability(params, -t)
        asym = probe_asymmetry(params, t)
        gap = max(
            abs(flip - transition_probability(system, DOWN, UP, t)),
            abs(fwd - transition_probability(system, DOWN, probe_state(), t)))
        print(f"  {t:5.2f}   {flip:9.6f}   {fwd:9.6f}   {bwd:9.6f}"
              f"   {asym: 9.6f}   {gap:.1e}")

    #
    # non-unitary evolution: the flip probability peaks at chi, which
    # exceeds one whenever the couplings differ; reported raw, not
    # clamped
    #
    t_peak = np.pi / (2.0 * level_splitting(params).real)
    print(f"\nflip probability at the peak t = {t_peak:.4f}: "
          f"{spin_flip_probability(params, t_peak):.6f} "
          f"(= chi, exceeds one)")


if __name__ == "__main__":
    main()
