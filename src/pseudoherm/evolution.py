"""Finite-time propagators generated by diagonalizable matrices.

The evolution operator of a (generally non-Hermitian) generator ``H`` is
assembled spectrally,

    U(t) = sum_n exp(-i E_n t) |psi_n><phi_n|,

so no matrix exponential iteration is involved and ``U(t) U(s) = U(t+s)``
holds to roundoff by construction.  Complex eigenvalues make ``U``
non-unitary with exponentially growing or decaying channels; the module
refuses time arguments whose exponentials would overflow (one reduction
checks all of a call's times), and a propagator or probability that
overflows even though every exponential is representable, rather than
silently returning infinities.

``transition_probability`` and ``time_asymmetry`` take a float time or
an ndarray of times: a float in gives a float out, an array in gives an
array of the same shape out.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import EvolutionRangeError
from .spectral import BiorthonormalSystem

__all__ = [
    "evolution_operator",
    "time_asymmetry",
    "transition_probability",
]

# exp overflows double precision near exp(709); stay just below
EXP_ARG_LIMIT = 700.0


def _finite_time(t) -> np.ndarray:
    """``t`` as a float array (0-d for a scalar), refusing non-finite entries."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("time must be finite")
    return t


def _first(values, mask):
    """The entry of ``values`` at the first true entry of ``mask``, in
    array order."""
    return np.ravel(values)[np.argmax(np.ravel(mask))]


def _refuse_overflow(value, t):
    """``value`` as a float if it is 0-d, else as an array.

    ``value``'s leading axes are ``t``'s.  Raises ``EvolutionRangeError``
    naming the first time, in array order, whose value holds an entry
    that overflowed to ``inf`` or ``nan``.
    """
    if not (math.isfinite(value) if np.ndim(value) == 0 else np.isfinite(value).all()):
        raise _overflow_error(t, ~np.isfinite(value).reshape(np.size(t), -1).all(axis=1))
    return float(value) if np.ndim(value) == 0 else np.ascontiguousarray(value)


def _overflow_error(t, overflowed) -> EvolutionRangeError:
    """The refusal naming the first time of ``t``, in array order, whose
    entry of ``overflowed`` is true."""
    return EvolutionRangeError(
        f"the value at t = {_first(t, overflowed):.6g} overflows "
        f"double precision")


def _exponents(system: BiorthonormalSystem, t) -> np.ndarray:
    """``-i E_n t`` along a last axis of length n, for a time or an array
    of times.  One reduction, the largest ``|Re|``, checks every time (a
    non-finite one fails it); only a failed check walks the times, to
    refuse a non-finite time or else the first out of range.  Callers
    hold ``np.errstate(over="ignore", invalid="ignore")``: an exponent
    that overflows is then refused, here or as an overflowing value."""
    t = np.asarray(t, dtype=float)
    energies = system.expanded_eigenvalues()
    exponents = np.multiply.outer(t, -1j * energies)
    if not np.abs(exponents.real).max(initial=0.0) <= EXP_ARG_LIMIT:
        _finite_time(t)
        growth = np.abs(energies.imag).max() * np.abs(t)
        raise EvolutionRangeError(
            f"|Im E| * |t| = {_first(growth, growth > EXP_ARG_LIMIT):.3e} "
            f"exceeds the representable exponent range {EXP_ARG_LIMIT:g}")
    return exponents


def _state(state, dim: int) -> np.ndarray:
    v = np.asarray(state, dtype=complex)
    if v.shape != (dim,):
        raise ValueError(
            f"state shape {v.shape} does not match dimension {dim}")
    return v


def evolution_operator(system: BiorthonormalSystem, t: float) -> np.ndarray:
    """Build the propagator at time ``t`` from an eigensystem: the n x n
    matrix ``U(t)``, with ``U(t) @ state`` the evolved state.  ``t`` may be
    negative (the inverse propagator).

    Raises
    ------
    EvolutionRangeError
        If ``max|Im E| * |t|`` exceeds the double-precision exponent
        range, where the non-unitary channels would overflow, or if an
        entry of the propagator overflows although every exponential is
        representable.
    """
    t = float(t)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(_exponents(system, t))
        u = (system.right_vectors * phases) @ system.left_vectors.conj().T
    return _refuse_overflow(u, t)


def _amplitudes(system: BiorthonormalSystem, initial, final, t) -> np.ndarray:
    """``<final| U(t) |initial>`` for a time or an array of times.

    ``Phi^H |initial>`` and ``<final| Psi`` are formed once per call, at
    O(n^2), so within a call each time costs O(n): the amplitude is
    ``sum_n (<final| Psi)_n exp(-i E_n t) (Phi^H |initial>)_n``.
    """
    phases = np.exp(_exponents(system, t))
    # Phi^H |initial> as the conjugate of <initial| Phi: no n x n copy
    coefficients = (_state(initial, system.dim).conj() @ system.left_vectors).conj()
    overlaps = _state(final, system.dim).conj() @ system.right_vectors
    return phases @ (overlaps * coefficients)


def transition_probability(system: BiorthonormalSystem, initial, final, t):
    """Squared overlap of the evolved initial state with the final state.

    Computes ``|<final| U(t) |initial>|**2`` with the states taken as
    given; callers supply unit-norm vectors when a probability reading is
    intended.  For non-Hermitian generators the result is not bounded by
    one and the forward and backward values generally differ.  ``U(t)``
    itself is never formed: a call projects the states once, at O(n^2),
    and each time then costs O(n), so pass a grid as one array.

    ``t`` is a float or an ndarray of times; a float gives a float and an
    array gives an array of the same shape.

    Raises
    ------
    ValueError
        If any time is not finite or a state has the wrong shape.
    EvolutionRangeError
        If an exponential or the probability itself would overflow; the
        message describes the first such time in array order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        probability = np.abs(_amplitudes(system, initial, final, t)) ** 2
    return _refuse_overflow(probability, t)


def time_asymmetry(system: BiorthonormalSystem, initial, final, t):
    """Forward minus backward transition probability at time ``t``.

    For a Hermitian generator ``U(-t) = U(t).conj().T`` and the value
    reduces to ``|U_fi|**2 - |U_if|**2``, which vanishes for symmetric
    transitions such as ``initial == final`` but can survive between
    different states when the generator couples them asymmetrically.  A
    nonzero value probes dynamics that are not invariant under motion
    reversal.

    ``t`` is a float or an ndarray of times, as for
    :func:`transition_probability`; both directions come from one pass
    over the states, and the same errors are raised.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        forward, backward = np.abs(
            _amplitudes(system, initial, final, np.array([t, -t]))) ** 2
        asymmetry = forward - backward
    return _refuse_overflow(asymmetry, t)
