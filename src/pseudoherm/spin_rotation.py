"""Two-level helicity model with unequal spin-rotation couplings.

A spin-1/2 particle carried around a circular path couples to the
rotation with an energy shift proportional to its helicity.  Letting the
two helicity states couple with different strengths ``k1`` and ``k2``
(equal strengths recover the Hermitian case) and including a magnetic
interaction energy ``muB`` gives, in the helicity basis, the effective
two-level generator

    H = [[E, i*alpha], [-i*beta, E]],
    alpha = k1*omega2/2 - muB,   beta = k2*omega2/2 - muB.

``H`` is non-Hermitian whenever ``alpha != beta``, yet its spectrum
``E +- sqrt(alpha*beta)`` is real for ``alpha*beta > 0`` and a conjugate
pair otherwise, so the model exercises the whole pseudohermitian
machinery while staying exactly solvable.  The closed forms here are the
oracle against which the generic eigensystem pipeline is tested:

    coupling ratio      chi = alpha/beta
    level splitting     R = sqrt(alpha*beta)     (principal root)
    spin flip           (chi/2) (1 - cos 2Rt)
    probe transition    (1/2) (cos Rt + alpha t sinc(Rt))^2
    probe asymmetry     2 alpha t sinc(2Rt)

written with ``alpha*t*sinc(Rt)`` instead of ``sqrt(chi)*sin(Rt)`` so a
single expression covers both spectral regimes and every sign of
``alpha`` without choosing a square-root branch.

Each closed form takes a float time or an ndarray of times: a float in
gives a float out, an array in gives an array of the same shape out, and
every entry of the array equals the float result at that time bit for
bit, so a time grid is evaluated in one call.  The arithmetic stays
complex throughout: ``Rt`` is real or purely imaginary, so every complex
product has a factor with zero imaginary part and rounds the same in
numpy's array loops as in its scalar arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import EXP_ARG_LIMIT, _finite_time, _first, _refuse_overflow
from .exceptions import (
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    ZeroSplittingError,
)
from .spectral import DEFAULT_TOL, BiorthonormalSystem
from .symmetry import Intertwiner

__all__ = [
    "ModelParams",
    "coupling_ratio",
    "effective_hamiltonian",
    "level_splitting",
    "model_eigenbasis",
    "model_intertwiner",
    "probe_asymmetry",
    "probe_probability",
    "probe_state",
    "real_spectrum_regime",
    "spin_flip_probability",
]

# relative threshold below which alpha or beta counts as exactly zero
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; all energies in the same (arbitrary) unit.

    Attributes
    ----------
    E : float
        Common level energy.
    muB : float
        Magnetic interaction energy.
    omega2 : float
        Rotation rate entering the helicity coupling.
    k1, k2 : float
        Coupling strengths of the two helicity states; any reals.
    """

    E: float = 1.0
    muB: float = 0.0
    omega2: float = 1.0
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self):
        for name in ("E", "muB", "omega2", "k1", "k2"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)


def _alpha(params: ModelParams) -> float:
    return params.k1 * params.omega2 / 2.0 - params.muB


def _beta(params: ModelParams) -> float:
    return params.k2 * params.omega2 / 2.0 - params.muB


def _scale(params: ModelParams) -> float:
    return max(1.0, abs(params.k1 * params.omega2) / 2.0,
               abs(params.k2 * params.omega2) / 2.0, abs(params.muB))


def _require_coupling_ratio(params: ModelParams) -> None:
    if abs(_beta(params)) <= DEGENERACY_TOL * _scale(params):
        raise DegenerateModelError(
            "k2*omega2/2 - muB vanishes; the coupling ratio is undefined")


def _check_range(z) -> None:
    """Refuse growth beyond the exponent range; names the first entry."""
    growth = np.abs(np.imag(z))
    if (growth > EXP_ARG_LIMIT).any():
        raise EvolutionRangeError(
            f"|Im(R t)| = {_first(growth, growth > EXP_ARG_LIMIT):.3e} exceeds "
            f"the representable exponent range {EXP_ARG_LIMIT:g}")


def _sinc(z) -> np.ndarray:
    """sin(z)/z continued through z = 0; complex z, a scalar or an array."""
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.sin(safe) / safe)


def effective_hamiltonian(params: ModelParams) -> np.ndarray:
    """Two-level generator in the helicity basis."""
    a, b = _alpha(params), _beta(params)
    return np.array([[params.E, 1j * a], [-1j * b, params.E]], dtype=complex)


def coupling_ratio(params: ModelParams) -> float:
    """Ratio of the two off-diagonal couplings (real for real parameters).

    Raises
    ------
    DegenerateModelError
        If the denominator coupling vanishes.
    """
    _require_coupling_ratio(params)
    return _alpha(params) / _beta(params)


def level_splitting(params: ModelParams) -> complex:
    """Principal square root of the off-diagonal product.

    The eigenvalues are ``E +- level_splitting``; the value is real and
    positive in the real-spectrum regime, positive imaginary outside it,
    and zero exactly when either coupling vanishes.
    """
    return complex(np.sqrt(complex(_alpha(params) * _beta(params))))


def real_spectrum_regime(params: ModelParams) -> bool:
    """Whether both couplings have the same strict sign.

    True exactly when the spectrum is real and non-degenerate.  The
    boundary (either coupling zero) counts as outside the regime.
    """
    return bool(_alpha(params) * _beta(params) > 0.0)


def model_eigenbasis(params: ModelParams) -> BiorthonormalSystem:
    """Closed-form biorthonormal eigensystem of the two-level generator.

    With ``r = sqrt(chi)`` (principal), the right eigenvectors are
    ``(i r, 1)/sqrt(2)`` and ``(-i r, 1)/sqrt(2)`` with eigenvalues
    ``E + beta r`` and ``E - beta r``; the left vectors follow from the
    closed-form inverse.  Columns are ordered like the generic pipeline
    orders them, by (real, imag) of the eigenvalue.

    Raises
    ------
    DegenerateModelError
        If the coupling ratio is undefined.
    ZeroSplittingError
        If the splitting vanishes; the generator is then a Jordan block
        with no eigenbasis.
    """
    chi = coupling_ratio(params)
    if abs(_alpha(params)) <= DEGENERACY_TOL * _scale(params):
        raise ZeroSplittingError(
            "k1*omega2/2 - muB vanishes; the generator is not diagonalizable")
    root = complex(np.sqrt(complex(chi)))
    beta = _beta(params)
    sqrt2 = math.sqrt(2.0)
    columns = [
        (complex(params.E + beta * root),
         np.array([1j * root, 1.0]) / sqrt2,
         np.array([1j / np.conj(root), 1.0]) / sqrt2),
        (complex(params.E - beta * root),
         np.array([-1j * root, 1.0]) / sqrt2,
         np.array([-1j / np.conj(root), 1.0]) / sqrt2),
    ]
    columns.sort(key=lambda item: (item[0].real, item[0].imag))
    values = np.array([item[0] for item in columns])
    right = np.column_stack([item[1] for item in columns])
    left = np.column_stack([item[2] for item in columns])
    return BiorthonormalSystem(
        eigenvalues=values,
        multiplicities=np.array([1, 1]),
        right_vectors=right,
        left_vectors=left,
        tolerance=DEFAULT_TOL,
    )


def model_intertwiner(params: ModelParams) -> Intertwiner:
    """Closed-form diagonal metric ``diag(1/chi, 1)``.

    Only defined in the real-spectrum regime, where ``chi > 0`` makes the
    metric positive definite.

    Raises
    ------
    ComplexSpectrumRegimeError
        Outside the real-spectrum regime (boundary included).
    """
    if not real_spectrum_regime(params):
        raise ComplexSpectrumRegimeError(
            "closed-form metric exists only for a real non-degenerate spectrum")
    chi = coupling_ratio(params)
    return Intertwiner(matrix=np.diag([1.0 / chi, 1.0]).astype(complex))


def spin_flip_probability(params: ModelParams, t):
    """Probability of flipping from the second helicity state to the first.

    Evaluates ``(chi/2) (1 - cos 2Rt)``; in the complex-spectrum regime
    the cosine turns hyperbolic and the probability grows without bound.
    ``t`` is a float or an ndarray of times; a float gives a float and an
    array gives an array of the same shape.

    Raises
    ------
    ValueError
        If any time is not finite.
    DegenerateModelError
        If the coupling ratio is undefined.
    EvolutionRangeError
        If the hyperbolic growth or the probability would overflow; the
        message describes the first such time in array order.
    """
    t = _finite_time(t)
    chi = coupling_ratio(params)
    z = 2.0 * level_splitting(params) * t
    _check_range(z)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (chi / 2.0) * (1.0 - np.cos(z))
    return _refuse_overflow(value.real, t)


def probe_state() -> np.ndarray:
    """Balanced superposition of the two helicity states."""
    return np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def probe_probability(params: ModelParams, t):
    """Transition probability from the second helicity state to the probe.

    Evaluates ``(1/2) (cos Rt + alpha t sinc(Rt))**2``, the squared
    overlap of the evolved second basis state with
    ``(first + second)/sqrt(2)``.  Equals one half at ``t = 0`` since the
    probe and the initial state are not orthogonal.  ``t`` is a float or
    an ndarray of times; a float gives a float and an array gives an
    array of the same shape.

    Raises
    ------
    ValueError
        If any time is not finite.
    DegenerateModelError
        If the coupling ratio is undefined.
    EvolutionRangeError
        If the hyperbolic growth or the probability would overflow; the
        message describes the first such time in array order.
    """
    t = _finite_time(t)
    _require_coupling_ratio(params)
    z = level_splitting(params) * t
    _check_range(z)
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = np.cos(z) + _alpha(params) * t * _sinc(z)
        value = 0.5 * amplitude * amplitude
    return _refuse_overflow(value.real, t)


def probe_asymmetry(params: ModelParams, t):
    """Forward minus backward probe transition probability.

    Evaluates ``2 alpha t sinc(2Rt)``, which vanishes identically only
    when the numerator coupling does.  It survives in the Hermitian
    equal-coupling limit, where the rotational term itself already breaks
    invariance under motion reversal, and it stays nonzero for generic
    ``t`` throughout the real-spectrum regime.  ``t`` is a float or an
    ndarray of times; a float gives a float and an array gives an array
    of the same shape.

    Raises
    ------
    ValueError
        If any time is not finite.
    DegenerateModelError
        If the coupling ratio is undefined.
    EvolutionRangeError
        If the hyperbolic growth or the asymmetry would overflow; the
        message describes the first such time in array order.
    """
    t = _finite_time(t)
    _require_coupling_ratio(params)
    z = 2.0 * level_splitting(params) * t
    _check_range(z)
    with np.errstate(over="ignore", invalid="ignore"):
        value = 2.0 * _alpha(params) * t * _sinc(z)
    return _refuse_overflow(value.real, t)
