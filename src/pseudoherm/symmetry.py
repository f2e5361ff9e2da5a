"""Intertwining metrics and antilinear symmetries of diagonalizable matrices.

Two structural facts about a diagonalizable ``H`` whose spectrum is real
or conjugate-paired are made computable here.  First, such an ``H`` is
pseudohermitian: there is a Hermitian invertible ``eta`` with
``eta H inv(eta) = H.conj().T``, and one such metric is assembled
directly from the left eigenvectors as ``eta = Phi P Phi^dag`` with ``P``
the identity on real eigenvalue groups and a cross swap on conjugate
pairs.  Second, an antilinear operator ``T`` that commutes with ``H`` and
squares to minus the identity exists precisely when, in addition, every
real eigenvalue group has even multiplicity; the witness is built as a
signed pairing ``S`` of biorthonormal partners and both defining
residuals are measured rather than assumed; :func:`kramers_test` refuses
a witness whose commutator residual its tolerance does not explain.
``P`` and ``S`` are applied as column maps, gathers of columns, and no
n x n pairing matrix is built.

Antilinear maps are represented by their matrix ``A`` acting as
``v -> A @ conj(v)``, so the composition of two of them is the plain
linear map ``A @ conj(B)`` and the square of a symmetry is an ordinary
matrix that can be compared against ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    AmbiguousSpectrumError,
    OddDegeneracyError,
    SingularIntertwinerError,
)
from .spectral import (
    DEFAULT_COND_CEILING,
    DEFAULT_TOL,
    BiorthonormalSystem,
    SpectrumClassification,
    _classification,
    _square_complex,
    _tolerance_scale,
    biorthonormal_system,
    classify_spectrum,
)

__all__ = [
    "AntilinearOperator",
    "KramersReport",
    "build_antilinear_symmetry",
    "build_intertwiner",
    "commutator_residual",
    "intertwining_residual",
    "kramers_test",
    "square_residual",
]

SINGULAR_COND = 1e14
# rounding allowance of the residual gate, in units of n * eps
_GATE_ROUNDING = 1e3


@dataclass
class AntilinearOperator:
    """Matrix representation ``A`` of the map ``v -> A @ conj(v)``."""

    matrix: np.ndarray

    def apply(self, state) -> np.ndarray:
        """Act on a vector: conjugate first, then multiply."""
        v = np.asarray(state, dtype=complex)
        return self.matrix @ np.conj(v)


@dataclass
class KramersReport:
    """Outcome of the even-degeneracy test for an antilinear symmetry.

    Attributes
    ----------
    pseudohermitian : bool
        Whether the spectrum is real or conjugate-paired with matched
        multiplicities.
    real_degeneracies : list of (float, int)
        Each real eigenvalue group with its multiplicity.
    all_even : bool
        True when every real group has even multiplicity (vacuously true
        with no real groups).
    witness : AntilinearOperator or None
        A commuting antilinear operator squaring to minus the identity,
        present exactly when ``pseudohermitian and all_even``.
    commutator_residual : float or None
        ``norm(H A - A conj(H), 'fro') / _tolerance_scale(norm(H, 'fro'))``
        for the witness: relative to ``norm(H, 'fro')``, and absolute
        only for the zero matrix.
    square_residual : float or None
        ``norm(A conj(A) + 1, 'fro')`` for the witness.
    """

    pseudohermitian: bool
    real_degeneracies: list[tuple[float, int]]
    all_even: bool
    witness: AntilinearOperator | None
    commutator_residual: float | None
    square_residual: float | None

    @property
    def admits_symmetry(self) -> bool:
        return self.pseudohermitian and self.all_even


def build_intertwiner(system: BiorthonormalSystem) -> np.ndarray:
    """Construct a Hermitian metric intertwining the matrix and its adjoint.

    Returns the metric ``eta`` itself, an ``(n, n)`` complex ndarray with
    ``eta H inv(eta) = H.conj().T``, equal to its conjugate transpose
    exactly.  With ``Phi`` the left-vector matrix, the metric is
    ``Phi P Phi.conj().T`` where ``P`` is the identity on columns of real
    eigenvalue groups and swaps the paired columns of conjugate groups.
    ``P D = conj(D) P`` for the diagonal eigenvalue matrix ``D``, which is
    exactly the intertwining relation after conjugation by ``Phi``.

    The system's own eigenvalue groups are classified by
    :func:`classify_spectrum`, at its radius.

    Raises
    ------
    NotPseudohermitianError
        If the spectrum is not real-or-paired (no metric exists).
    """
    return _intertwiner(system, classify_spectrum(system))


def _pairing(system: BiorthonormalSystem, cls: SpectrumClassification
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P`` and ``S`` on ``system``'s groups as ``cls`` classifies them,
    as column maps: column ``j`` of ``M P`` is column ``swap[j]`` of ``M``
    and of ``M S`` column ``partner[j]`` times ``sign[j]``.  Both exchange
    the groups of each conjugate pair, ``S`` negating the lower one; ``S``
    also exchanges each real group's halves, negating the first."""
    mults = system.multiplicities.tolist()
    starts = np.cumsum([0] + mults).tolist()
    swap = np.arange(system.dim)
    sign = np.ones(system.dim)
    for ku, kl in cls.pair_group_indices:
        a, b, m = starts[ku], starts[kl], mults[ku]
        swap[a:a + m], swap[b:b + m] = range(b, b + m), range(a, a + m)
        sign[b:b + m] = -1.0
    partner = swap.copy()
    for k in cls.real_group_indices:
        a, half = starts[k], mults[k] // 2
        partner[a:a + 2 * half] = np.roll(partner[a:a + 2 * half], half)
        sign[a:a + half] = -1.0
    return swap, partner, sign


def _intertwiner(system: BiorthonormalSystem,
                 cls: SpectrumClassification) -> np.ndarray:
    """:func:`build_intertwiner` on the groups as ``cls`` classifies them."""
    phi = system.left_vectors
    eta = phi[:, _pairing(system, cls)[0]] @ phi.conj().T
    return 0.5 * (eta + eta.conj().T)


def intertwining_residual(matrix, metric) -> float:
    """Relative departure from the pseudohermiticity relation.

    ``metric`` is the matrix ``eta`` (array_like), as
    :func:`build_intertwiner` and
    :func:`~pseudoherm.spin_rotation.model_intertwiner` return it.
    Returns ``norm(eta H inv(eta) - H.conj().T, 'fro')`` divided by
    ``_tolerance_scale(norm(H, 'fro'))``: relative to ``norm(H, 'fro')``,
    so that scaling ``H`` leaves it unchanged, and divided by 1 only for
    the zero matrix.

    The metric's 2-norm condition number, its largest over its smallest
    singular value, decides whether it can be inverted.  A metric that
    equals its conjugate transpose exactly, as :func:`build_intertwiner`
    returns it, takes its singular values from its eigenvalues
    (``eigvalsh``); any other metric goes through the general SVD.

    Raises
    ------
    ValueError
        If the metric's shape differs from the matrix's or it has a
        non-finite entry.
    SingularIntertwinerError
        If the metric is too ill-conditioned to invert meaningfully.
    """
    h = _square_complex(matrix)
    eta = np.asarray(metric, dtype=complex)
    if eta.shape != h.shape:
        raise ValueError("metric and matrix dimensions disagree")
    if not np.isfinite(eta).all():
        raise ValueError("metric has non-finite entries")
    singular = np.linalg.svd(eta, compute_uv=False,
                             hermitian=np.array_equal(eta, eta.conj().T))
    with np.errstate(over="ignore"):
        cond = singular[0] / singular[-1] if singular[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        raise SingularIntertwinerError(
            f"metric condition number {cond:.3e} exceeds {SINGULAR_COND:.1e}")
    # X = eta H inv(eta), computed as the solution of X eta = eta H.
    x = np.linalg.solve(eta.T, (eta @ h).T).T
    return float(np.linalg.norm(x - h.conj().T)
                 / _tolerance_scale(np.linalg.norm(h)))


def build_antilinear_symmetry(system: BiorthonormalSystem) -> AntilinearOperator:
    """Construct a commuting antilinear operator squaring to minus one.

    The witness is ``A = V S Phi.T`` with ``S`` a real signed pairing:
    within each real eigenvalue group the first half of the columns is
    paired against the second half, and the two groups of each conjugate
    pair are paired against each other.  Because ``Phi.T conj(V) = 1``,
    the square ``A conj(A)`` collapses to ``V S S inv(V) = -1`` exactly;
    floating point enters only through ``inv(V)``.  The system's own
    eigenvalue groups are classified by :func:`classify_spectrum`, at its
    radius.

    Raises
    ------
    OddDegeneracyError
        If some real eigenvalue group has odd multiplicity; no such
        operator exists then.
    NotPseudohermitianError
        If the spectrum is not real-or-paired.
    """
    cls = classify_spectrum(system)
    odd = [(value, mult) for value, mult in cls.real_groups if mult % 2]
    if odd:
        raise OddDegeneracyError(odd)
    return _antilinear_witness(system, cls)


def _antilinear_witness(system: BiorthonormalSystem,
                        cls: SpectrumClassification) -> AntilinearOperator:
    """The witness of :func:`build_antilinear_symmetry` on the groups of
    ``system`` as ``cls`` classifies them, all real ones even."""
    _, partner, sign = _pairing(system, cls)
    witness = (system.right_vectors[:, partner] * sign) @ system.left_vectors.T
    return AntilinearOperator(matrix=witness)


def commutator_residual(matrix, operator: AntilinearOperator) -> float:
    """Relative size of the commutator of ``matrix`` with an antilinear map.

    For an antilinear operator with matrix ``A`` the commutator condition
    reads ``H A = A conj(H)``; returns the Frobenius norm of the
    difference over ``_tolerance_scale(norm(H, 'fro'))``: relative to
    ``norm(H, 'fro')``, so that scaling ``H`` leaves it unchanged, and
    divided by 1 only for the zero matrix.
    """
    h = _square_complex(matrix)
    a = operator.matrix
    if a.shape != h.shape:
        raise ValueError("operator and matrix dimensions disagree")
    return float(np.linalg.norm(h @ a - a @ np.conj(h))
                 / _tolerance_scale(np.linalg.norm(h)))


def square_residual(operator: AntilinearOperator) -> float:
    """Frobenius distance of the operator's square from minus the identity."""
    a = operator.matrix
    return float(np.linalg.norm(a @ np.conj(a) + np.eye(len(a))))


def kramers_test(matrix, tol: float = DEFAULT_TOL,
                 cond_ceiling: float = DEFAULT_COND_CEILING) -> KramersReport:
    """Decide whether a matrix admits an antilinear symmetry with square -1.

    Diagonalizes the matrix, classifies its groups once, checks the two
    structural requirements (real-or-paired spectrum, even multiplicity
    of every real eigenvalue), and when both hold, constructs the witness
    and measures its residuals instead of trusting the construction.

    ``tol`` enters twice.  Clustering, realness and pairing apply
    ``tol * rho`` (``rho`` the spectral radius, 1 for an exactly zero
    spectrum) as a forward radius on the computed eigenvalues; it does not
    grow with their condition, so a large ``cond(V)`` can split a level or
    part two partners by more.  Only the residual gate reads ``tol`` as a
    backward error: a witness whose commutator residual, relative to
    ``norm(H, 'fro')``, exceeds ``(tol + 1e3 n eps) cond(V)`` is refused;
    a verdict that denies the symmetry builds none and passes no gate.
    At ``tol=0.5``, ``diag(1, 1.6)`` admits, its levels merged at a
    residual of 0.45, and ``diag(1, 2)`` is refused, at 0.63.  No metric
    is built or gated here, unlike in ``analyze``: at ``tol=0.5``,
    ``diag(10, 10.4, 1+5.15i)`` reads pseudohermitian here, while
    ``analyze --tol 0.5`` refuses it (exit 2), its metric residual 0.67.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix; must be numerically diagonalizable.
    tol, cond_ceiling : float
        Forwarded to the eigendecomposition and classification.

    Returns
    -------
    KramersReport

    Raises
    ------
    NotDiagonalizableError
        If the eigenvector matrix is too ill-conditioned.
    AmbiguousSpectrumError
        If the witness's commutator residual exceeds the bound above:
        the groups it was built on merge levels ``tol`` does not cover.
    ValueError
        If the input is not a finite square matrix or a tolerance is not
        finite and positive.
    """
    h = _square_complex(matrix)
    system = biorthonormal_system(h, tol=tol, cond_ceiling=cond_ceiling)
    return _kramers_verdict(h, system)[0]


def _residual_gate(system: BiorthonormalSystem, residual: float, what: str) -> None:
    """Refuse a construction on ``system``'s groups whose relative
    ``residual`` exceeds ``(tol + 1e3 n eps) cond(V)``: a backward error
    of ``tol`` plus rounding, amplified by cond(V).  Raises
    :class:`AmbiguousSpectrumError` naming ``what`` was refused."""
    rounding = _GATE_ROUNDING * system.dim * np.finfo(float).eps
    bound = (system.tolerance + rounding) * system.condition
    if not residual <= bound:
        raise AmbiguousSpectrumError(
            f"ambiguous spectrum: {what} residual {residual:.3e} "
            f"exceeds {bound:.3e}, the bound at tolerance "
            f"{system.tolerance:g} and cond(V) {system.condition:.3e}")


def _kramers_verdict(matrix, system: BiorthonormalSystem
                     ) -> tuple[KramersReport, SpectrumClassification]:
    """The Kramers report on ``system``'s own groups, and their
    classification: one classification decides pseudohermiticity and
    evenness, and the witness, like any metric, is built on it.  A
    witness whose commutator residual is out of :func:`kramers_test`'s
    bound raises :class:`AmbiguousSpectrumError`."""
    cls, all_even, refusal = _classification(system)
    witness = comm = square = None
    if refusal is None and all_even:
        witness = _antilinear_witness(system, cls)
        comm = commutator_residual(matrix, witness)
        _residual_gate(system, comm, "witness commutator")
        square = square_residual(witness)
    report = KramersReport(
        pseudohermitian=refusal is None,
        real_degeneracies=cls.real_groups,
        all_even=all_even,
        witness=witness,
        commutator_residual=comm,
        square_residual=square,
    )
    return report, cls
