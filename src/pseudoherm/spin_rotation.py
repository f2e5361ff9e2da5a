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
    spin flip           (alpha t sinc(Rt))^2
    probe transition    (1/2) (cos Rt + alpha t sinc(Rt))^2
    probe asymmetry     2 alpha t sinc(2Rt)

written with ``alpha*t*sinc(Rt)`` instead of ``sqrt(chi)*sin(Rt)`` so a
single expression covers both spectral regimes and every sign of
``alpha`` without choosing a square-root branch.  The spin flip equals
``(chi/2) (1 - cos 2Rt)`` but neither divides by ``beta`` nor cancels at
small ``Rt``.  Where a coupling vanishes, the forms give the Jordan
block's limits ``(alpha t)^2``, ``(1 + alpha t)^2/2`` and ``2 alpha t``.

One rule decides when a model quantity vanishes: ``x`` counts as zero
when ``|x| <= DEGENERACY_TOL * s``, with ``s`` the coupling scale
``max(|k1*omega2|/2, |k2*omega2|/2, |muB|)`` and no floor (``s`` reads 1
only when it is exactly zero).  With ``x = beta`` it makes the coupling
ratio undefined, with ``x = alpha`` the splitting zero, and with
``x = alpha - beta`` (``||H - H^H||_F = sqrt(2)|alpha - beta|``) the
generator Hermitian; with either coupling it puts the model outside the
real-spectrum regime.  Scaling ``E``, ``muB`` and ``omega2`` by ``c > 0``
scales ``alpha``, ``beta`` and ``s`` by ``c``, so it changes none of these
decisions, and each closed form at ``t/c`` keeps its value.

Each closed form takes a float time or an ndarray of times: a float in
gives a float out, an array in gives an array of the same shape out, and
every entry of the array equals the float result at that time bit for
bit, so a time grid is evaluated in one call.  The three closed forms
are the N = 1 cases of one evaluator over field columns, arrays with one
entry per model: it checks the times once, then refuses a model in one
order (growth ``|Im z|`` out of the exponent range, value overflowing).
A scan builds no ``ModelParams``: the parameter checks and the generator
take field columns too.  The
arithmetic stays complex throughout: ``Rt`` is real or purely
imaginary, so every complex product has a factor with zero imaginary
part and rounds the same in numpy's array loops as in its scalar
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .evolution import (
    EXP_ARG_LIMIT,
    _finite_time,
    _first,
    _overflow_error,
)
from .exceptions import (
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    ZeroSplittingError,
)
from .spectral import DEFAULT_TOL, BiorthonormalSystem, _radius, _tolerance_scale

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

# alpha, beta or alpha - beta counts as exactly zero at or below this
# times the coupling scale max(|k1*omega2|/2, |k2*omega2|/2, |muB|), with
# no floor at 1 (the module docstring states the rule)
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
        Coupling strengths of the two helicity states; any reals for
        which the couplings ``alpha, beta = k*omega2/2 - muB`` stay
        finite.

    The generator's squared Frobenius norm ``2*E**2 + alpha**2 + beta**2``
    must be finite too, so that every norm and product of the model is.
    """

    E: float = 1.0
    muB: float = 0.0
    omega2: float = 1.0
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            value = float(getattr(self, field.name))
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite")
            object.__setattr__(self, field.name, value)
        alpha, beta = _alpha(self), _beta(self)
        for name, coupling in (("k1", alpha), ("k2", beta)):
            if not math.isfinite(coupling):
                raise ValueError(f"{name}*omega2/2 - muB must be finite")
        if not math.isfinite(_squared_norm(self.E, alpha, beta)):
            raise ValueError("the squared generator norm "
                             "2*E**2 + alpha**2 + beta**2 must be finite")


# The field formulas below take a ModelParams, or any object whose fields
# E, muB, omega2, k1 and k2 are floats or arrays of one entry per model
# (field columns), and give a float or an array of the same values.

def _alpha(params: ModelParams) -> float:
    return params.k1 * params.omega2 / 2.0 - params.muB


def _beta(params: ModelParams) -> float:
    return params.k2 * params.omega2 / 2.0 - params.muB


def _squared_norm(E, alpha, beta):
    return 2.0 * E * E + alpha * alpha + beta * beta


def _in_real_regime(params: ModelParams):
    """``alpha*beta > 0`` with neither coupling vanishing by :func:`_vanishes`."""
    alpha, beta = _alpha(params), _beta(params)
    return (alpha * beta > 0.0) & ~(_vanishes(alpha, params) | _vanishes(beta, params))


def _accepted(fields) -> int:
    """How many leading models of the field columns ``fields`` pass
    :class:`ModelParams`' checks: any failure leaves the squared norm inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        refused = ~np.isfinite(_squared_norm(fields.E, _alpha(fields), _beta(fields)))
    return int(np.argmax(refused)) if refused.any() else refused.size


def _splitting(params: ModelParams):
    """``sqrt(alpha*beta)``, the principal root, as numpy complex.

    The product is taken on ``alpha`` and ``beta`` over the power of two
    ``unit`` of the larger, and the root is scaled back by ``unit``: bit
    for bit the plain root wherever ``alpha*beta`` is a normal float, and
    no underflow where it is not (couplings below about 1e-154)."""
    alpha, beta = _alpha(params), _beta(params)
    unit = np.ldexp(1.0, np.frexp(np.maximum(abs(alpha), abs(beta)))[1])
    return unit * np.sqrt(np.asarray(alpha / unit * (beta / unit), dtype=complex))


def _vanishes(x, fields):
    """Whether ``x`` counts as zero for the models of ``fields``: the one
    rule of :data:`DEGENERACY_TOL`, with ``x`` and the fields floats or
    field columns."""
    scale = np.maximum(np.maximum(abs(fields.k1 * fields.omega2) / 2.0,
                                  abs(fields.k2 * fields.omega2) / 2.0),
                       abs(fields.muB))
    return abs(x) <= DEGENERACY_TOL * _tolerance_scale(scale)


def _sinc(z) -> np.ndarray:
    """sin(z)/z continued through z = 0; complex z, a scalar or an array."""
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.sin(safe) / safe)


def effective_hamiltonian(params: ModelParams) -> np.ndarray:
    """Two-level generator in the helicity basis."""
    return _hamiltonian_stack(params)[0]


def _hamiltonian_stack(fields) -> np.ndarray:
    """The ``(N, 2, 2)`` generators of the field columns ``fields``, each
    bit for bit :func:`effective_hamiltonian`, their N = 1 case."""
    h = np.empty((np.size(fields.k1), 2, 2), dtype=complex)
    h[:, 0, 0] = h[:, 1, 1] = fields.E
    h[:, 0, 1], h[:, 1, 0] = 1j * _alpha(fields), -1j * _beta(fields)
    return h


def coupling_ratio(params: ModelParams) -> float:
    """Ratio of the two off-diagonal couplings (real for real parameters).

    Raises
    ------
    DegenerateModelError
        If the denominator coupling ``beta`` vanishes: ``|beta|`` is at
        most ``DEGENERACY_TOL`` times the coupling scale
        ``max(|k1*omega2|/2, |k2*omega2|/2, |muB|)``, with no floor.
    """
    beta = _beta(params)
    if _vanishes(beta, params):
        raise DegenerateModelError(
            "k2*omega2/2 - muB vanishes; the coupling ratio is undefined")
    return _alpha(params) / beta


def level_splitting(params: ModelParams) -> complex:
    """Principal square root of the off-diagonal product.

    The eigenvalues are ``E +- level_splitting``; the value is real and
    positive in the real-spectrum regime, positive imaginary outside it,
    and zero exactly when either coupling vanishes.
    """
    return complex(_splitting(params))


def real_spectrum_regime(params: ModelParams) -> bool:
    """Whether both couplings have the same strict sign and neither
    vanishes by the model's one rule.

    True exactly when the spectrum is real and non-degenerate.  The
    boundary (either coupling zero, or vanishing against the coupling
    scale) counts as outside the regime.
    """
    return bool(_in_real_regime(params))


def _hermitian(params: ModelParams) -> bool:
    """Whether ``||H - H^H||_F = sqrt(2) |alpha - beta|`` vanishes, by
    the model's one rule."""
    return bool(_vanishes(_alpha(params) - _beta(params), params))


def model_eigenbasis(params: ModelParams) -> BiorthonormalSystem:
    """Closed-form biorthonormal eigensystem of the two-level generator.

    With ``r = sqrt(chi)`` (principal), the right eigenvectors are
    ``(i r, 1)/sqrt(2)`` and ``(-i r, 1)/sqrt(2)`` with eigenvalues
    ``E + beta r`` and ``E - beta r``; the left vectors follow from the
    closed-form inverse.  Columns are ordered like the generic pipeline
    orders them, by (real, imag) of the eigenvalue.  The right-vector
    matrix is ``diag(i r, 1)`` times a unitary, so its singular values are
    ``|r|`` and 1 and its condition number is ``max(|r|, 1/|r|)``; its
    radius is the clustering's, by the same rule, :func:`spectral._radius`.

    Raises
    ------
    DegenerateModelError
        If the coupling ratio is undefined.
    ZeroSplittingError
        If the numerator coupling ``alpha`` vanishes by the rule
        :func:`coupling_ratio` applies to ``beta``; the generator is then
        a Jordan block with no eigenbasis.
    """
    chi = coupling_ratio(params)
    if _vanishes(_alpha(params), params):
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
    values, right, left = zip(*columns)
    return BiorthonormalSystem(
        eigenvalues=np.array(values), multiplicities=np.array([1, 1]),
        right_vectors=np.column_stack(right), left_vectors=np.column_stack(left),
        tolerance=DEFAULT_TOL, condition=max(abs(root), 1.0 / abs(root)),
        radius=float(_radius(DEFAULT_TOL, np.array(values))))


def model_intertwiner(params: ModelParams) -> np.ndarray:
    """Closed-form diagonal metric ``diag(1/chi, 1)``, as a 2x2 complex
    ndarray.

    Only defined in the real-spectrum regime, where ``chi > 0`` makes the
    metric positive definite.

    Raises
    ------
    ComplexSpectrumRegimeError
        Outside the real-spectrum regime, boundary included: also where a
        coupling vanishes, and so wherever the coupling ratio is undefined.
    """
    if not real_spectrum_regime(params):
        raise ComplexSpectrumRegimeError(
            "closed-form metric exists only for a real non-degenerate spectrum")
    chi = coupling_ratio(params)
    return np.diag([1.0 / chi, 1.0]).astype(complex)


def spin_flip_probability(params: ModelParams, t):
    """Probability of flipping from the second helicity state to the first.

    Evaluates ``(alpha t sinc(Rt))**2``, equal to ``(chi/2) (1 - cos 2Rt)``
    but accurate to rounding at small ``Rt``, never ``-0.0``, and the Jordan
    block's ``(alpha t)**2`` at a vanishing ``beta``; in the complex-spectrum
    regime the sine turns hyperbolic and the probability grows without
    bound.  ``t`` is a float or an ndarray of times; a float gives a float
    and an array gives an array of the same shape.  The refusals below are
    checked in the order listed, here and in the other closed forms.

    Raises
    ------
    ValueError
        If any time is not finite.
    EvolutionRangeError
        If the hyperbolic growth or the value would overflow; the
        message describes the first such time in array order.
    """
    return _closed_form(params, t, _flip)


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
    array of the same shape.  Raises as :func:`spin_flip_probability`
    does.
    """
    return _closed_form(params, t, _probe)


def probe_asymmetry(params: ModelParams, t):
    """Forward minus backward probe transition probability.

    Evaluates ``2 alpha t sinc(2Rt)``, which vanishes identically only
    when the numerator coupling does.  It survives in the Hermitian
    equal-coupling limit, where the rotational term itself already breaks
    invariance under motion reversal, and it stays nonzero for generic
    ``t`` throughout the real-spectrum regime.  ``t`` is a float or an
    ndarray of times; a float gives a float and an array gives an array
    of the same shape.  Raises as :func:`spin_flip_probability` does.
    """
    return _closed_form(params, t, _asymmetry)


# The closed forms on columns of alpha and R, one row per model, over the
# times t: each returns its growth argument z and its complex value.

def _flip(alpha, root, t):
    z = root * t
    amplitude = alpha * t * _sinc(z)
    return 2.0 * z, amplitude * amplitude


def _probe(alpha, root, t):
    z = root * t
    amplitude = np.cos(z) + alpha * t * _sinc(z)
    return z, 0.5 * amplitude * amplitude


def _asymmetry(alpha, root, t):
    z = 2.0 * root * t
    return z, 2.0 * alpha * t * _sinc(z)


def _closed_form_stack(fields, t, form) -> tuple[np.ndarray, list[Exception | None]]:
    """The closed form ``form`` of each model of the field columns
    ``fields`` over the times ``t``, in one array pass.

    Checks the times once, raising ``ValueError`` for a non-finite one.
    Returns the real values, of shape ``(N, *t.shape)``, and per model
    ``None`` or the error the model's own closed form raises, decided in
    the order :func:`spin_flip_probability` lists.  A refused model's
    values mean nothing.  The public closed forms are the N = 1 case, so
    a value computed here is bit for bit theirs.
    """
    t = _finite_time(t)
    alpha = _alpha(fields)
    count = np.size(alpha)
    column = (count,) + (1,) * t.ndim
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing R t is out of range, and refused as such
        z, value = form(np.reshape(alpha, column),
                        np.reshape(_splitting(fields), column), t)
    values = value.real
    growth = np.abs(z.imag).reshape(count, t.size)
    far = growth > EXP_ARG_LIMIT
    overflowed = ~np.isfinite(values).reshape(count, t.size)
    refused = far.any(axis=1) | overflowed.any(axis=1)
    refusals: list[Exception | None] = [None] * count
    for k in np.flatnonzero(refused).tolist():
        if far[k].any():
            refusals[k] = EvolutionRangeError(
                f"|Im(R t)| = {_first(growth[k], far[k]):.3e} exceeds "
                f"the representable exponent range {EXP_ARG_LIMIT:g}")
        else:
            refusals[k] = _overflow_error(t, overflowed[k])
    return values, refusals


def _closed_form(params: ModelParams, t, form):
    """``form`` of the one model ``params``: the N = 1 stack, whose
    refusal is raised, as a float for a float time."""
    values, (refusal,) = _closed_form_stack(params, t, form)
    if refusal is not None:
        raise refusal
    return float(values[0]) if values.ndim == 1 else np.ascontiguousarray(values[0])
