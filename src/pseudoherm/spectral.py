"""Eigendecompositions with biorthonormal left/right vector pairs.

A diagonalizable operator ``H`` that is not normal has eigenvectors that
are not mutually orthogonal, so the usual orthonormal machinery fails.
The standard replacement is a biorthonormal system: right eigenvectors
``psi`` (columns of ``V``) together with left vectors ``phi`` (columns of
``inv(V).conj().T``) satisfying

    <phi_m | psi_n> = delta_mn,      sum_n |psi_n><phi_n| = 1,

which restores a resolution of the identity and the spectral expansion
``H = sum_n E_n |psi_n><phi_n|``.  Everything downstream (intertwining
metrics, antilinear symmetries, non-unitary propagators) is built on
these pairs, so this module also carries the eigenvalue bookkeeping:
clustering a raw spectrum into degenerate groups and splitting the
groups into real ones and complex-conjugate partners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotDiagonalizableError, NotPseudohermitianError

__all__ = [
    "BiorthonormalSystem",
    "SpectrumClassification",
    "biorthonormal_system",
    "classify_spectrum",
    "reconstruct",
]

DEFAULT_TOL = 1e-9
DEFAULT_COND_CEILING = 1e12


def _square_complex(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a square complex ndarray."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected a nonempty matrix")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not finite and positive (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _is_real(values, tol: float):
    """Whether each value lies within ``tol * max(1, |value|)`` of the real axis."""
    return np.abs(np.imag(values)) <= tol * np.maximum(1.0, np.abs(values))


def _cluster(values: np.ndarray, tol: float):
    """Group nearly equal eigenvalues.

    Returns ``(perm, means, mults)`` where ``perm`` reorders the input so
    that members of each group are adjacent, in (real, imag) order, and
    groups are sorted by (real, imag) of their mean.  Values chained
    within ``tol * max(1, spectral_radius)`` of each other form one group
    (a connected component), whatever the input order.
    """
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    ws = values[order]
    scale = tol * max(1.0, float(np.max(np.abs(ws))))
    near = np.abs(ws[:, None] - ws) <= scale
    # label each value with the smallest index it reaches: solver jitter can
    # interleave +ib / -ib members under the sort, so groups need not be runs
    root = np.arange(len(ws))
    while True:
        step = np.where(near, root, len(ws)).min(axis=1)
        step = step[step]
        if np.array_equal(step, root):
            break
        root = step
    groups: dict[int, list[int]] = {}
    for i, head in enumerate(root.tolist()):
        groups.setdefault(head, []).append(i)
    members = list(groups.values())
    means = np.array([np.mean(ws[g]) for g in members])
    gorder = np.lexsort((means.imag, means.real))
    perm = order[[i for k in gorder for i in members[k]]]
    return perm, means[gorder], np.array([len(members[k]) for k in gorder])


@dataclass
class BiorthonormalSystem:
    """Eigenvalue groups plus paired right/left eigenvector columns.

    Eigenvalues are clustered once, when the system is built: values
    chained within ``tolerance * max(1, spectral_radius)`` form one group,
    whatever order the solver returns them in.  Analyses of the system
    classify these groups instead of clustering again.

    Attributes
    ----------
    eigenvalues : ndarray
        One representative value per degenerate group, sorted by
        (real, imag).
    multiplicities : ndarray
        Group sizes; sums to the dimension.
    right_vectors : ndarray
        Columns are the right eigenvectors ``psi``, group by group.
    left_vectors : ndarray
        Columns are the left vectors ``phi``; satisfies
        ``left_vectors.conj().T @ right_vectors == 1`` exactly up to
        floating point because it is built from the inverse.
    tolerance : float
        Relative tolerance used to form the groups.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    tolerance: float = DEFAULT_TOL

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    def expanded_eigenvalues(self) -> np.ndarray:
        """Group representatives repeated per multiplicity, one per column."""
        return np.repeat(self.eigenvalues, self.multiplicities)

    def group_columns(self, group: int) -> np.ndarray:
        """Column indices belonging to eigenvalue group ``group``."""
        start = int(np.sum(self.multiplicities[:group]))
        return np.arange(start, start + int(self.multiplicities[group]))


@dataclass
class SpectrumClassification:
    """Partition of eigenvalue groups into real and conjugate-paired ones.

    Attributes
    ----------
    real_groups : list of (float, int)
        Real eigenvalue and multiplicity, in ascending order.
    conjugate_pairs : list of (complex, complex, int)
        Upper half-plane member, its partner, and the shared multiplicity.
    real_group_indices : list of int
        Positions of the real groups in the clustered group ordering.
    pair_group_indices : list of (int, int)
        Positions of the (upper, lower) members of each pair.
    """

    real_groups: list[tuple[float, int]]
    conjugate_pairs: list[tuple[complex, complex, int]]
    real_group_indices: list[int]
    pair_group_indices: list[tuple[int, int]]

    @property
    def is_entirely_real(self) -> bool:
        return not self.conjugate_pairs


def biorthonormal_system(matrix, tol: float = DEFAULT_TOL,
                         cond_ceiling: float = DEFAULT_COND_CEILING) -> BiorthonormalSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    The left vectors are the columns of ``inv(V).conj().T`` where ``V``
    holds the right eigenvectors, so biorthonormality and completeness
    hold to machine precision whenever the inverse is accurate, which the
    condition-number ceiling enforces.

    Raises
    ------
    NotDiagonalizableError
        If the eigenvector matrix has condition number above
        ``cond_ceiling``.
    ValueError
        If the input is not a finite square matrix or the tolerances are
        not finite and positive.
    """
    a = _square_complex(matrix)
    _check_tolerance("tol", tol)
    _check_tolerance("cond_ceiling", cond_ceiling)
    w, v = np.linalg.eig(a)
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > cond_ceiling:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition number {cond:.3e} exceeds "
            f"ceiling {cond_ceiling:.3e}")
    perm, values, mults = _cluster(w, tol)
    v = v[:, perm]
    phi = np.linalg.inv(v).conj().T
    return BiorthonormalSystem(
        eigenvalues=values,
        multiplicities=mults,
        right_vectors=v,
        left_vectors=phi,
        tolerance=tol,
    )


def classify_spectrum(eigenvalues, tol: float = DEFAULT_TOL) -> SpectrumClassification:
    """Split a raw spectrum into real groups and conjugate pairs.

    The spectrum is clustered by the rule of :class:`BiorthonormalSystem`
    and its groups are classified; analyses of a matrix classify the
    groups of its biorthonormal system instead.

    Parameters
    ----------
    eigenvalues : array_like
        Raw eigenvalue sequence; repeats carry multiplicity.  Pass the
        expanded spectrum, not the group representatives, or the
        multiplicities will all come out as one.
    tol : float
        Relative tolerance, applied against ``max(1, spectral_radius)``
        for clustering and against the group magnitudes for realness and
        pairing.

    Returns
    -------
    SpectrumClassification

    Raises
    ------
    NotPseudohermitianError
        If some complex group has no conjugate partner within tolerance,
        or partners disagree in multiplicity.  Such a spectrum cannot
        belong to an operator similar to its own adjoint.
    """
    w = np.asarray(eigenvalues, dtype=complex).ravel()
    if w.size == 0:
        raise ValueError("expected at least one eigenvalue")
    if not np.all(np.isfinite(w.view(float))):
        raise ValueError("eigenvalues must be finite")
    _check_tolerance("tol", tol)
    _, values, mults = _cluster(w, tol)
    return _classify_groups(values, mults, tol)


def _classify_groups(values: np.ndarray, mults: np.ndarray,
                     tol: float) -> SpectrumClassification:
    """Classify already clustered groups, sorted as :func:`_cluster` sorts them."""
    real_groups: list[tuple[float, int]] = []
    real_idx: list[int] = []
    upper: list[int] = []
    lower: list[int] = []
    for k, (val, real) in enumerate(zip(values, _is_real(values, tol))):
        if real:
            real_groups.append((float(val.real), int(mults[k])))
            real_idx.append(k)
        elif val.imag > 0:
            upper.append(k)
        else:
            lower.append(k)

    pairs: list[tuple[complex, complex, int]] = []
    pair_idx: list[tuple[int, int]] = []
    unused = list(lower)
    for k in upper:
        target = np.conj(values[k])
        if not unused:
            raise NotPseudohermitianError(
                f"eigenvalue {values[k]:g} has no conjugate partner")
        dists = [abs(values[j] - target) for j in unused]
        jbest = unused[int(np.argmin(dists))]
        if min(dists) > tol * max(1.0, abs(values[k]), abs(values[jbest])):
            raise NotPseudohermitianError(
                f"eigenvalue {values[k]:g} has no conjugate partner "
                f"within tolerance")
        if mults[k] != mults[jbest]:
            raise NotPseudohermitianError(
                f"conjugate pair {values[k]:g} / {values[jbest]:g} has "
                f"mismatched multiplicities {mults[k]} and {mults[jbest]}")
        unused.remove(jbest)
        pairs.append((complex(values[k]), complex(values[jbest]), int(mults[k])))
        pair_idx.append((k, jbest))
    if unused:
        stray = ", ".join(f"{values[j]:g}" for j in unused)
        raise NotPseudohermitianError(
            f"eigenvalues without conjugate partners: {stray}")

    return SpectrumClassification(
        real_groups=real_groups,
        conjugate_pairs=pairs,
        real_group_indices=real_idx,
        pair_group_indices=pair_idx,
    )


def reconstruct(system: BiorthonormalSystem) -> np.ndarray:
    """Reassemble the matrix from its spectral expansion.

    Computes ``sum_n E_n |psi_n><phi_n|``; round-tripping through
    :func:`biorthonormal_system` and back reproduces the input to within
    a few units of machine roundoff times the norm.
    """
    phases = system.expanded_eigenvalues()
    return (system.right_vectors * phases) @ system.left_vectors.conj().T
