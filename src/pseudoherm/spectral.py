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
clustering the spectrum into degenerate groups once, when the system is
built, and splitting those groups into real ones and complex-conjugate
partners.  Each system has one radius, ``tol * _tolerance_scale(rho)``
with ``rho`` its spectral radius (:func:`_radius`), computed by the
clustering alone, and that radius decides which values cluster into one
group, which groups are real (``|Im z|`` within it) and which are
conjugate partners (distance within it).  :func:`_real_groups` applies
the "real" rule and the parity to a stack of systems as arrays;
:func:`_classification` alone pairs, one system at a time: each upper
half-plane group, in group order, takes the nearest lower group not yet
taken, within the radius and at equal multiplicity.  One function,
:func:`_tolerance_scale`, says what a relative tolerance is relative to,
for the radius, for the residuals of :mod:`pseudoherm.symmetry` and for
the two-level model's "vanishes" rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """``matrix`` as a square complex ndarray with a finite squared norm."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected a nonempty matrix")
    parts = a.ravel().view(float)
    if not np.all(np.isfinite(parts)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        if not np.isfinite(parts @ parts):
            raise ValueError("the squared Frobenius norm of the matrix must be finite")
    return a


def _check_tolerance(name: str, value: float) -> None:
    """Refuse a tolerance that is not finite and positive (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _tolerance_scale(magnitude):
    """The scale a relative tolerance is taken against: ``magnitude``
    itself, and 1 only where it is exactly zero, so that a zero spectrum
    or a zero matrix still has a scale.

    Its callers: the clustering radius here, the residuals of
    :mod:`pseudoherm.symmetry`, and the two-level model's one "vanishes"
    rule, ``spin_rotation._vanishes``, against the model's coupling
    scale."""
    return np.where(magnitude == 0, 1.0, magnitude)


def _radius(tol: float, values: np.ndarray):
    """The radius of each row of ``values``, ``tol * _tolerance_scale(rho)``
    with ``rho`` the row's spectral radius: the one rule that both the
    clustering and the two-level model's closed-form system apply."""
    return tol * _tolerance_scale(np.abs(values).max(axis=-1, initial=0.0))


def _cluster_stack(values: np.ndarray, tol: float):
    """Group nearly equal eigenvalues, row by row of an ``(N, n)`` stack.

    Values chained within their row's radius ``tol * _tolerance_scale(rho)``
    of others in the row, with ``rho`` the row's spectral radius, form one
    group (a connected component), whatever the input order.  A group's
    representative is ``np.mean`` of its members in (real, imag) order,
    bit for bit, so the group order does not hang on how the means are
    summed.

    Returns ``(perm, means, mults, counts, radii)``.  ``perm`` reorders
    each row so that the members of each group are adjacent, in (real,
    imag) order, and the groups are sorted by (real, imag) of their mean.
    ``means`` and ``mults`` list the groups' representatives and sizes in
    that order, row after row; row ``e`` has ``counts[e]`` of them and
    the radius ``radii[e]``.  The last four are the groups as
    :func:`_real_groups` takes them.
    """
    count, n = values.shape
    size = count * n
    # the rows index one flat array: a label is a flat position
    offset = np.arange(0, size, n)[:, None]
    order = np.lexsort((values.imag, values.real)) + offset
    ws = values.ravel()[order]
    radii = _radius(tol, ws)
    near = np.abs(ws[:, :, None] - ws[:, None, :]) <= radii[:, None, None]
    # label each value with the smallest index it reaches: solver jitter can
    # interleave +ib / -ib members under the sort, so groups need not be runs
    root = np.arange(size).reshape(count, n)
    while True:
        step = np.where(near, root[:, None, :], size).min(axis=2)
        step = step.ravel()[step]
        if (step == root).all():
            break
        root = step
    labels = root.ravel()
    sizes = np.bincount(labels, minlength=size)
    # members by group size, then group, then position: the groups of one
    # size fill a block of that many columns, averaged in one call
    of_size = sizes[labels]
    members = np.lexsort((labels, of_size))
    ws = ws.ravel()
    means = np.empty(size, dtype=complex)
    start = 0
    for k, total in enumerate(np.bincount(of_size).tolist()):
        if total:
            block = members[start:start + total].reshape(-1, k)
            # np.mean's sum and division, without its Python overhead
            means[block[:, 0]] = np.add.reduce(ws[block], axis=1) / k
            start += total
    # each value keyed by its group's mean; tied groups keep label order
    key = means[root]
    within = np.lexsort((root, key.imag, key.real)) + offset
    first = labels[within] == within
    heads = within[first]
    return (order.ravel()[within] - offset, means[heads], sizes[heads],
            first.sum(axis=1).tolist(), radii)


@dataclass
class BiorthonormalSystem:
    """Eigenvalue groups plus paired right/left eigenvector columns.

    Eigenvalues are clustered once, when the system is built: values
    chained within the system's radius ``tolerance * _tolerance_scale(rho)``,
    with ``rho`` the spectral radius, form one group, whatever order the
    solver returns them in.  Analyses of the system classify these groups
    at that radius, ``radius``, instead of clustering again.

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
    condition : float
        2-norm condition number of ``right_vectors``, the ``cond(V)`` the
        condition ceiling was checked against.
    radius : float
        The radius the clustering computed and grouped the values at.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    tolerance: float = DEFAULT_TOL
    condition: float = field(kw_only=True)
    radius: float = field(kw_only=True)

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    def expanded_eigenvalues(self) -> np.ndarray:
        """Group representatives repeated per multiplicity, one per column."""
        return self.eigenvalues.repeat(self.multiplicities)


@dataclass
class SpectrumClassification:
    """Partition of a system's eigenvalue groups into real and
    conjugate-paired ones, as :func:`classify_spectrum` returns it.

    Holds the groups of the classified :class:`BiorthonormalSystem`, in
    its order, and the positions of the real and the paired ones among
    them; the value lists are derived from these.

    Attributes
    ----------
    eigenvalues : list of complex
        Group representatives in the system's group ordering.
    multiplicities : list of int
        Multiplicity of each group.
    real_group_indices : list of int
        Positions of the real groups, in ascending order of value.
    pair_group_indices : list of (int, int)
        Positions of the (upper, lower) members of each pair.
    real_groups : list of (float, int)
        Real eigenvalue and multiplicity, in ascending order.
    conjugate_pairs : list of (complex, complex, int)
        Upper half-plane member, its partner, and the shared multiplicity.
    """

    eigenvalues: list[complex]
    multiplicities: list[int]
    real_group_indices: list[int]
    pair_group_indices: list[tuple[int, int]]

    @property
    def real_groups(self) -> list[tuple[float, int]]:
        return [(self.eigenvalues[k].real, self.multiplicities[k])
                for k in self.real_group_indices]

    @property
    def conjugate_pairs(self) -> list[tuple[complex, complex, int]]:
        return [(self.eigenvalues[ku], self.eigenvalues[kl], self.multiplicities[ku])
                for ku, kl in self.pair_group_indices]


def biorthonormal_system(matrix, tol: float = DEFAULT_TOL,
                         cond_ceiling: float = DEFAULT_COND_CEILING) -> BiorthonormalSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    The left vectors are the columns of ``inv(V).conj().T`` where ``V``
    holds the right eigenvectors, so biorthonormality and completeness
    hold to machine precision whenever the inverse is accurate, which the
    condition-number ceiling enforces.

    The eigenvalues are grouped by :func:`_group_stack` on a stack of
    one (N = 1), so a system's groups and radius are bit for bit its row
    of a larger stack; only here are the vectors inverted.  ``tol`` sets
    the radius ``tol * rho``, a forward distance between computed
    eigenvalues, not a backward error of the matrix.

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
    v, cond, kept, perm, groups = _group_stack(a[None], tol, cond_ceiling)
    if not kept[0]:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition number {cond[0]:.3e} exceeds "
            f"ceiling {cond_ceiling:.3e}")
    values, mults, _, (radius,) = groups
    # columns gathered as rows: the right vectors are the Fortran-ordered
    # matrix a column gather ``v[:, perm]`` gives, and the products built
    # on them round as they do on that layout
    rows = v[0].T[perm[0]]
    return BiorthonormalSystem(
        eigenvalues=values, multiplicities=mults, right_vectors=rows.T,
        left_vectors=np.linalg.inv(rows.T).conj().T, tolerance=tol,
        condition=float(cond[0]), radius=float(radius))


def _group_stack(stack: np.ndarray, tol: float, cond_ceiling: float):
    """The eigenvalue groups of each matrix of an ``(N, n, n)`` stack, as
    arrays: one eigensolve, unit-norm eigenvector columns, their condition
    numbers and one clustering, with no inverse and no system built.

    Returns ``(vectors, condition, kept, perm, groups)``.  Per matrix,
    ``vectors`` holds its unit right eigenvectors in the solver's order,
    ``condition`` their ``cond(V)``, and ``kept`` whether it is
    diagonalizable by the one test, ``cond(V) <= cond_ceiling`` (NaN and
    inf fail it).  ``perm`` and ``groups`` are :func:`_cluster_stack`'s
    for the kept matrices; ``groups`` is what :func:`_real_groups` takes.

    Raises
    ------
    ValueError
        If an entry is not finite (``LinAlgError`` from the eigensolver)
        or the tolerances are not finite and positive.
    """
    _check_tolerance("tol", tol)
    _check_tolerance("cond_ceiling", cond_ceiling)
    w, v = np.linalg.eig(stack)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    cond = np.linalg.cond(v)
    kept = cond <= cond_ceiling
    perm, *groups = _cluster_stack(w[kept], tol)
    return v, cond, kept, perm, groups


def classify_spectrum(system: BiorthonormalSystem) -> SpectrumClassification:
    """Split the eigenvalue groups of ``system`` into real groups and
    conjugate pairs.

    The groups are the ones ``system`` was clustered into, classified
    at the radius they were clustered at, ``r = system.radius``
    (:func:`_radius`): a forward radius on the computed values, not a
    backward error, that does not grow with their condition.  A group
    ``z`` is real when ``|Im z| <= r``.  Each upper half-plane group, in
    group order, takes the nearest lower group not yet taken (the lower
    index on a tie); the pair holds when their distance is within ``r``
    and their multiplicities agree.
    No spectrum is clustered here: classify the system of a matrix,
    built once by :func:`biorthonormal_system`.

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
    cls, _, refusal = _classification(system)
    if refusal is not None:
        raise refusal
    return cls


def _real_groups(values: np.ndarray, mults: np.ndarray, counts: list[int],
                 radii: np.ndarray):
    """The one "real" rule and the parity, over the groups of a stack of
    systems as :func:`_cluster_stack` returns them: system ``e`` has
    ``counts[e]`` groups and the radius ``radii[e]``.  Returns ``(real,
    all_even)``: ``real`` flags, over the groups of the systems in turn,
    those with ``|Im z| <= radii[e]``; per system, ``all_even`` is
    whether none of its real groups is odd.  No group is paired here."""
    owner = np.repeat(np.arange(len(counts)), counts)
    real = np.abs(values.imag) <= radii[owner]
    odd = np.bincount(owner, weights=real & (mults % 2 == 1), minlength=len(counts))
    return real, (odd == 0).tolist()


def _classification(system: BiorthonormalSystem):
    """Classify ``system``'s own groups at its radius, by
    :func:`classify_spectrum`'s rule: ``(classification, all_even,
    refusal)``, with ``refusal`` ``None`` or the error.  The real groups
    are always complete; the pairs only when ``refusal`` is ``None``."""
    values, mults, radius = system.eigenvalues, system.multiplicities, system.radius
    real, (all_even,) = _real_groups(values, mults, [values.size], np.array([radius]))
    upper = ~real & (values.imag > 0)
    lowers = np.flatnonzero(~real & ~upper)
    free = np.ones(lowers.size, dtype=bool)
    pairs, refusal = [], None
    for u in np.flatnonzero(upper).tolist():
        if not free.any():
            message = f"eigenvalue {values[u]:g} has no conjugate partner"
        else:
            # the nearest lower group not yet taken, the lower index on a tie
            dist = np.where(free, np.abs(values[lowers] - np.conj(values[u])), np.inf)
            j = int(dist.argmin())
            low = int(lowers[j])
            if not dist[j] <= radius:
                message = (f"eigenvalue {values[u]:g} has no conjugate partner "
                           "within tolerance")
            elif mults[u] != mults[low]:
                message = (f"conjugate pair {values[u]:g} / {values[low]:g} has mismatched "
                           f"multiplicities {mults[u]} and {mults[low]}")
            else:
                free[j] = False
                pairs.append((u, low))
                continue
        refusal = NotPseudohermitianError(message)
        break
    if refusal is None and free.any():
        listing = ", ".join(f"{values[j]:g}" for j in lowers[free])
        refusal = NotPseudohermitianError(f"eigenvalues without conjugate partners: {listing}")
    return SpectrumClassification(
        eigenvalues=values.tolist(), multiplicities=mults.tolist(),
        real_group_indices=np.flatnonzero(real).tolist(), pair_group_indices=pairs,
    ), all_even, refusal


def reconstruct(system: BiorthonormalSystem) -> np.ndarray:
    """Reassemble the matrix from its spectral expansion.

    Computes ``sum_n E_n |psi_n><phi_n|``; round-tripping through
    :func:`biorthonormal_system` and back reproduces the input to within
    a few units of machine roundoff times the norm.
    """
    phases = system.expanded_eigenvalues()
    return (system.right_vectors * phases) @ system.left_vectors.conj().T
