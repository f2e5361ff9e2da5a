#
# The Kramers theorem both ways on the helicity model and its double
#
# An antilinear T with T^2 = -1 commutes with H exactly when H is
# pseudohermitian and every real level is evenly degenerate.  The 2 x 2
# helicity generator H has simple real levels E +- R in its real regime,
# so it admits no such T: the necessity side.  Doubled, H4 = H (x) 1_2 has
# every level twice, and sigma_z conj(H) = H sigma_z makes
# A = sigma_z (x) i sigma_y an exact witness, T v = A conj(v) with
# A conj(A) = -1: the sufficiency side, with a closed-form answer.  Under
# a similarity S the witness becomes S A conj(S)^-1, and kramers_test
# must find one of its own.
#
import numpy as np

from pseudoherm import (
    AntilinearOperator,
    ModelParams,
    OddDegeneracyError,
    biorthonormal_system,
    build_antilinear_symmetry,
    commutator_residual,
    effective_hamiltonian,
    kramers_test,
    square_residual,
)

I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
EXACT = np.kron(np.diag([1.0, -1.0]), I_SIGMA_Y)

REGIMES = {
    "real": ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=1.0, k2=0.5),
    "complex": ModelParams(E=1.0, muB=0.3, omega2=1.0, k1=1.0, k2=0.5),
    "hermitian": ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=0.8, k2=0.8),
}


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def main():
    rng = np.random.default_rng(11)

    #
    # necessity: the 2 x 2 model's two simple real levels admit no T
    #
    h = effective_hamiltonian(REGIMES["real"])
    report = kramers_test(h)
    print("2 x 2 model, real regime")
    print("  real levels     ", report.real_degeneracies)
    print("  pseudohermitian ", report.pseudohermitian)
    print("  admits T        ", report.admits_symmetry)
    try:
        build_antilinear_symmetry(biorthonormal_system(h))
    except OddDegeneracyError as exc:
        print("  builder refused:", exc)

    #
    # sufficiency: H (x) 1_2 against the exact witness, then under a
    # similarity of condition number 1e2, S = Q1 diag(1, .., 100) Q2
    #
    print("\nH (x) 1_2: residuals (commutator, ||T^2 + 1||) of the exact witness on H4,")
    print("then on S H4 S^-1 those of kramers_test's witness and of S A conj(S)^-1")
    print("  regime      exact on H4          admits  kramers_test         exact under S")
    for regime, params in REGIMES.items():
        h4 = np.kron(effective_hamiltonian(params), np.eye(2))
        exact = AntilinearOperator(EXACT)
        s = (haar_unitary(rng, 4) * np.logspace(0, 2, 4)) @ haar_unitary(rng, 4)
        moved = s @ h4 @ np.linalg.inv(s)
        # T' = S A conj(S)^-1 commutes with S H4 S^-1 whenever T does with H4
        carried = AntilinearOperator(s @ EXACT @ np.linalg.inv(s.conj()))
        report = kramers_test(moved)
        print(f"  {regime:10}  {commutator_residual(h4, exact):.1e}  "
              f"{square_residual(exact):.1e}   {str(report.admits_symmetry):6}  "
              f"{report.commutator_residual:.1e}  {report.square_residual:.1e}   "
              f"{commutator_residual(moved, carried):.1e}  {square_residual(carried):.1e}")


if __name__ == "__main__":
    main()
