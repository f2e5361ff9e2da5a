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
signed pairing of biorthonormal partners and both defining residuals are
measured rather than assumed.

Antilinear maps are represented by their matrix ``A`` acting as
``v -> A @ conj(v)``, so the composition of two of them is the plain
linear map ``A @ conj(B)`` and the square of a symmetry is an ordinary
matrix that can be compared against ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NotPseudohermitianError,
    OddDegeneracyError,
    SingularIntertwinerError,
)
from .spectral import (
    DEFAULT_COND_CEILING,
    DEFAULT_TOL,
    BiorthonormalSystem,
    _classify_groups,
    _is_real,
    _square_complex,
    biorthonormal_system,
)

__all__ = [
    "AntilinearOperator",
    "Intertwiner",
    "KramersReport",
    "build_antilinear_symmetry",
    "build_intertwiner",
    "commutator_residual",
    "intertwining_residual",
    "kramers_test",
    "square_residual",
]

SINGULAR_COND = 1e14


@dataclass
class Intertwiner:
    """Hermitian metric relating a matrix to its adjoint."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class AntilinearOperator:
    """Matrix representation ``A`` of the map ``v -> A @ conj(v)``."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, state) -> np.ndarray:
        """Act on a vector: conjugate first, then multiply."""
        v = np.asarray(state, dtype=complex)
        return self.matrix @ np.conj(v)

    def compose(self, other: "AntilinearOperator") -> np.ndarray:
        """Matrix of ``self`` after ``other``.

        Two antilinear maps compose to a linear one, so the result is a
        plain matrix, ``A @ conj(B)``, not another antilinear operator.
        """
        return self.matrix @ np.conj(other.matrix)

    def squared(self) -> np.ndarray:
        """Matrix of the operator applied twice (a linear map)."""
        return self.compose(self)


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
        ``norm(H A - A conj(H), 'fro') / max(1, norm(H, 'fro'))`` for the
        witness.
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


def build_intertwiner(system: BiorthonormalSystem) -> Intertwiner:
    """Construct a Hermitian metric intertwining the matrix and its adjoint.

    With ``Phi`` the left-vector matrix, the metric is
    ``Phi P Phi.conj().T`` where ``P`` is the identity on columns of real
    eigenvalue groups and swaps the paired columns of conjugate groups.
    ``P D = conj(D) P`` for the diagonal eigenvalue matrix ``D``, which is
    exactly the intertwining relation after conjugation by ``Phi``.

    The system's own eigenvalue groups are classified, at its tolerance.

    Raises
    ------
    NotPseudohermitianError
        If the spectrum is not real-or-paired (no metric exists).
    """
    cls = _classify_groups(system.eigenvalues, system.multiplicities,
                           system.tolerance)
    dim = system.dim
    p = np.zeros((dim, dim))
    for k in cls.real_group_indices:
        cols = system.group_columns(k)
        p[cols, cols] = 1.0
    for ku, kl in cls.pair_group_indices:
        for a, b in zip(system.group_columns(ku), system.group_columns(kl)):
            p[a, b] = 1.0
            p[b, a] = 1.0
    phi = system.left_vectors
    eta = phi @ p @ phi.conj().T
    eta = 0.5 * (eta + eta.conj().T)
    return Intertwiner(matrix=eta)


def intertwining_residual(matrix, intertwiner) -> float:
    """Relative departure from the pseudohermiticity relation.

    Returns ``norm(eta H inv(eta) - H.conj().T, 'fro')`` divided by
    ``max(1, norm(H, 'fro'))``.

    Raises
    ------
    SingularIntertwinerError
        If the metric is too ill-conditioned to invert meaningfully.
    """
    h = _square_complex(matrix)
    eta = np.asarray(getattr(intertwiner, "matrix", intertwiner), dtype=complex)
    if eta.shape != h.shape:
        raise ValueError("metric and matrix dimensions disagree")
    cond = np.linalg.cond(eta)
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        raise SingularIntertwinerError(
            f"metric condition number {cond:.3e} exceeds {SINGULAR_COND:.1e}")
    # X = eta H inv(eta), computed as the solution of X eta = eta H.
    x = np.linalg.solve(eta.T, (eta @ h).T).T
    return float(np.linalg.norm(x - h.conj().T)
                 / max(1.0, np.linalg.norm(h)))


def build_antilinear_symmetry(system: BiorthonormalSystem) -> AntilinearOperator:
    """Construct a commuting antilinear operator squaring to minus one.

    The witness is ``A = V S Phi.T`` with ``S`` a real signed pairing:
    within each real eigenvalue group the first half of the columns is
    paired against the second half, and the two groups of each conjugate
    pair are paired against each other.  Because ``Phi.T conj(V) = 1``,
    the square ``A conj(A)`` collapses to ``V S S inv(V) = -1`` exactly;
    floating point enters only through ``inv(V)``.  The system's own
    eigenvalue groups are classified, at its tolerance.

    Raises
    ------
    OddDegeneracyError
        If some real eigenvalue group has odd multiplicity; no such
        operator exists then.
    NotPseudohermitianError
        If the spectrum is not real-or-paired.
    """
    cls = _classify_groups(system.eigenvalues, system.multiplicities,
                           system.tolerance)
    odd = [(value, mult) for value, mult in cls.real_groups if mult % 2]
    if odd:
        raise OddDegeneracyError(odd)
    dim = system.dim
    s = np.zeros((dim, dim))
    for k in cls.real_group_indices:
        cols = system.group_columns(k)
        half = len(cols) // 2
        for a in range(half):
            s[cols[a], cols[a + half]] = 1.0
            s[cols[a + half], cols[a]] = -1.0
    for ku, kl in cls.pair_group_indices:
        for a, b in zip(system.group_columns(ku), system.group_columns(kl)):
            s[b, a] = 1.0
            s[a, b] = -1.0
    a_mat = system.right_vectors @ s @ system.left_vectors.T
    return AntilinearOperator(matrix=a_mat)


def commutator_residual(matrix, operator: AntilinearOperator) -> float:
    """Relative size of the commutator of ``matrix`` with an antilinear map.

    For an antilinear operator with matrix ``A`` the commutator condition
    reads ``H A = A conj(H)``; returns the Frobenius norm of the
    difference over ``max(1, norm(H, 'fro'))``.
    """
    h = _square_complex(matrix)
    a = operator.matrix
    if a.shape != h.shape:
        raise ValueError("operator and matrix dimensions disagree")
    return float(np.linalg.norm(h @ a - a @ np.conj(h))
                 / max(1.0, np.linalg.norm(h)))


def square_residual(operator: AntilinearOperator) -> float:
    """Frobenius distance of the operator's square from minus the identity."""
    return float(np.linalg.norm(operator.squared() + np.eye(operator.dim)))


def kramers_test(matrix, tol: float = DEFAULT_TOL,
                 cond_ceiling: float = DEFAULT_COND_CEILING) -> KramersReport:
    """Decide whether a matrix admits an antilinear symmetry with square -1.

    Diagonalizes the matrix, classifies its groups once, checks the two
    structural requirements (real-or-paired spectrum, even multiplicity
    of every real eigenvalue), and when both hold, constructs the witness
    and measures its residuals instead of trusting the construction.

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
    ValueError
        If the input is not a finite square matrix or a tolerance is not
        finite and positive.
    """
    h = _square_complex(matrix)
    system = biorthonormal_system(h, tol=tol, cond_ceiling=cond_ceiling)
    return _kramers_verdict(h, system)


def _kramers_verdict(matrix, system: BiorthonormalSystem) -> KramersReport:
    """The Kramers report on ``system``'s own groups, classified once.

    When every real group is even, building the witness is the
    classification; otherwise the groups are classified only to decide
    pseudohermiticity.
    """
    real = _is_real(system.eigenvalues, system.tolerance)
    real_degeneracies = [
        (float(value.real), int(mult))
        for value, mult in zip(system.eigenvalues[real], system.multiplicities[real])
    ]
    all_even = all(mult % 2 == 0 for _, mult in real_degeneracies)
    witness = comm = square = None
    pseudohermitian = True
    try:
        if all_even:
            witness = build_antilinear_symmetry(system)
        else:
            _classify_groups(system.eigenvalues, system.multiplicities,
                             system.tolerance)
    except NotPseudohermitianError:
        pseudohermitian = False
    if witness is not None:
        comm = commutator_residual(matrix, witness)
        square = square_residual(witness)
    return KramersReport(
        pseudohermitian=pseudohermitian,
        real_degeneracies=real_degeneracies,
        all_even=all_even,
        witness=witness,
        commutator_residual=comm,
        square_residual=square,
    )
