"""Finite-time propagators generated by diagonalizable matrices.

The evolution operator of a (generally non-Hermitian) generator ``H`` is
assembled spectrally,

    U(t) = sum_n exp(-i E_n t) |psi_n><phi_n|,

so no matrix exponential iteration is involved and ``U(t) U(s) = U(t+s)``
holds to roundoff by construction.  Complex eigenvalues make ``U``
non-unitary with exponentially growing or decaying channels; the module
refuses time arguments whose exponentials would overflow rather than
silently returning infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EvolutionRangeError
from .spectral import BiorthonormalSystem

__all__ = [
    "EvolutionOperator",
    "evolution_operator",
    "propagate",
    "time_asymmetry",
    "transition_probability",
]

# exp overflows double precision near exp(709); stay just below
EXP_ARG_LIMIT = 700.0


@dataclass
class EvolutionOperator:
    """Propagator matrix tagged with the time it was built for."""

    time: float
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _phases(system: BiorthonormalSystem, t: float) -> np.ndarray:
    """``exp(-i E_n t)`` per column, refusing times that would overflow."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    energies = system.expanded_eigenvalues()
    growth = float(np.max(np.abs(energies.imag))) * abs(t)
    if growth > EXP_ARG_LIMIT:
        raise EvolutionRangeError(
            f"|Im E| * |t| = {growth:.3e} exceeds the representable "
            f"exponent range {EXP_ARG_LIMIT:g}")
    return np.exp(-1j * energies * t)


def _state(state, dim: int) -> np.ndarray:
    v = np.asarray(state, dtype=complex)
    if v.shape != (dim,):
        raise ValueError(
            f"state shape {v.shape} does not match dimension {dim}")
    return v


def evolution_operator(system: BiorthonormalSystem, t: float) -> EvolutionOperator:
    """Build the propagator at time ``t`` from an eigensystem.

    Parameters
    ----------
    system : BiorthonormalSystem
    t : float
        Evolution time; may be negative (the inverse propagator).

    Returns
    -------
    EvolutionOperator

    Raises
    ------
    EvolutionRangeError
        If ``max|Im E| * |t|`` exceeds the double-precision exponent
        range, where the non-unitary channels would overflow.
    """
    t = float(t)
    phases = _phases(system, t)
    u = (system.right_vectors * phases) @ system.left_vectors.conj().T
    return EvolutionOperator(time=t, matrix=u)


def propagate(operator: EvolutionOperator, state) -> np.ndarray:
    """Apply a propagator to a state vector."""
    return operator.matrix @ _state(state, operator.dim)


def transition_probability(system: BiorthonormalSystem, initial, final,
                           t: float) -> float:
    """Squared overlap of the evolved initial state with the final state.

    Computes ``|<final| U(t) |initial>|**2`` with the states taken as
    given; callers supply unit-norm vectors when a probability reading is
    intended.  For non-Hermitian generators the result is not bounded by
    one and the forward and backward values generally differ.  The
    amplitude is ``<final| Psi (phases * (Phi^H |initial>))``, so ``U(t)``
    itself is never formed.
    """
    phases = _phases(system, float(t))
    v = _state(initial, system.dim)
    coefficients = system.left_vectors.conj().T @ v
    amplitude = np.vdot(np.asarray(final, dtype=complex),
                        system.right_vectors @ (phases * coefficients))
    return float(np.abs(amplitude) ** 2)


def time_asymmetry(system: BiorthonormalSystem, initial, final, t: float) -> float:
    """Forward minus backward transition probability at time ``t``.

    For a Hermitian generator ``U(-t) = U(t).conj().T`` and the value
    reduces to ``|U_fi|**2 - |U_if|**2``, which vanishes for symmetric
    transitions such as ``initial == final`` but can survive between
    different states when the generator couples them asymmetrically.  A
    nonzero value probes dynamics that are not invariant under motion
    reversal.
    """
    return (transition_probability(system, initial, final, t)
            - transition_probability(system, initial, final, -t))
