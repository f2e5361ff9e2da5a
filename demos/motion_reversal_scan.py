#
# Motion-reversal asymmetry across the parameter plane
#
# Sweep the magnetic term through the regime boundary at fixed
# couplings.  Inside the real-spectrum regime the two levels are simple,
# so no antilinear symmetry with T^2 = -1 can exist (odd degeneracies),
# and the probe asymmetry is nonzero; this holds on the equal-coupling
# line too, where the generator is Hermitian.
#
import numpy as np

from pseudoherm import (
    ModelParams,
    effective_hamiltonian,
    kramers_test,
    probe_asymmetry,
    real_spectrum_regime,
)
from pseudoherm.exceptions import NotDiagonalizableError

TIMES = np.linspace(0.0, 6.0, 61)


def scan_line(k1, k2, label):
    print(f"\n{label} (k1 = {k1}, k2 = {k2})")
    print("   muB    regime   even degeneracies   max |asymmetry|")
    for muB in np.linspace(-0.4, 0.4, 9):
        params = ModelParams(E=1.0, muB=float(muB), omega2=1.0, k1=k1, k2=k2)
        regime = real_spectrum_regime(params)
        try:
            even = str(kramers_test(effective_hamiltonian(params)).all_even)
        except NotDiagonalizableError:
            even = "(defective)"
        peak = f"{np.abs(probe_asymmetry(params, TIMES)).max():.4f}"
        print(f"  {muB: 5.2f}   {str(regime):5s}    {even:12s}       {peak}")


def main():
    scan_line(1.0, 0.5, "unequal couplings")
    scan_line(1.0, 1.0, "equal couplings, Hermitian generator")
    print("\nthe asymmetry survives the Hermitian line: the rotational"
          "\ncoupling itself distinguishes forward from reversed motion")


if __name__ == "__main__":
    main()
