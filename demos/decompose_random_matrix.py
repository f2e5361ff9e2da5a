#
# Biorthonormal decomposition of a non-normal matrix
#
# Build a matrix with a known spectrum (two real levels, one of them
# doubly degenerate, plus a conjugate pair), hide it behind a random
# similarity, and recover everything with the generic pipeline.
#
import numpy as np

from pseudoherm import (
    biorthonormal_system,
    classify_spectrum,
    reconstruct,
)


def main():
    rng = np.random.default_rng(42)

    spectrum = [2.0, -1.0, -1.0, 0.5 + 1.0j, 0.5 - 1.0j]
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = s @ np.diag(spectrum) @ np.linalg.inv(s)

    system = biorthonormal_system(h)
    print("eigenvalue groups (value, multiplicity):")
    for value, mult in zip(system.eigenvalues, system.multiplicities):
        print(f"  {value: .6f}   x{mult}")

    #
    # the left and right vectors form a biorthonormal pair: the Gram
    # matrix of left against right columns is the identity, and summing
    # the dyads restores the identity and the matrix itself
    #
    gram = system.left_vectors.conj().T @ system.right_vectors
    completeness = system.right_vectors @ system.left_vectors.conj().T
    print(f"\nbiorthonormality  max|<phi_m|psi_n> - delta| = "
          f"{np.max(np.abs(gram - np.eye(5))):.2e}")
    print(f"completeness      ||sum of dyads - identity|| = "
          f"{np.linalg.norm(completeness - np.eye(5)):.2e}")
    print(f"reconstruction    ||V diag(E) V^-1 - H||      = "
          f"{np.linalg.norm(reconstruct(system) - h):.2e}")

    #
    # the spectrum is real-or-paired, so the matrix is pseudohermitian;
    # the classifier separates the system's real groups from its
    # conjugate pairs
    #
    classification = classify_spectrum(system)
    print("\nclassification:")
    for value, mult in classification.real_groups:
        print(f"  real level   {value: .6f}  multiplicity {mult}")
    for upper, lower, mult in classification.conjugate_pairs:
        print(f"  pair         {upper:.6f} / {lower:.6f}  "
              f"multiplicity {mult} each")


if __name__ == "__main__":
    main()
