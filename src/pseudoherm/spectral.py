"""Eigendecompositions with biorthonormal left/right vector pairs.

A diagonalizable operator ``H`` that is not normal has eigenvectors that
are not mutually orthogonal, so the usual orthonormal machinery fails.
The standard replacement is a biorthonormal system: right eigenvectors
``psi`` (columns of ``V``) together with left vectors ``phi`` (columns of
``inv(V).conj().T``) satisfying

    <phi_m | psi_n> = delta_mn,      sum_n |psi_n><phi_n| = 1,

which restores a resolution of the identity and the spectral expansion
``H = sum_n E_n |psi_n><phi_n|``.  Everything downstream is built on
these pairs, so this module also clusters the spectrum into degenerate
groups once, when the system is built, and splits them into real ones
and conjugate partners.  Each system has one radius, ``r = tol *
_tolerance_scale(rho)``, ``rho`` its spectral radius, and each eigenvalue
an error bound ``e_i = n eps ||H||_F kappa_i``, ``kappa_i`` the row norm
of the one ``inv(V)`` each system takes, for unit columns of ``V``.
Values join within ``max(r, e_i + e_j)``; a group, ``e_g`` its members'
largest ``e_i``, is real when ``|Im z| <= max(r, e_g)``; two groups pair
within ``max(r, e_u + e_l)``.  Bounds past ``r`` must hold up
(:func:`_bounds_hold`), or the matrix is refused: a join must leave one
level, and nothing may rest on them where the residual gate reaches 1.
:func:`_real_groups` applies the "real" rule and the parity to a stack
of systems as arrays; :func:`_classification` alone pairs, one system at
a time: each upper half-plane group, in group order, takes the nearest
lower group not yet taken, within that distance and at equal multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AmbiguousSpectrumError, NotDiagonalizableError, NotPseudohermitianError

__all__ = [
    "BiorthonormalSystem",
    "SpectrumClassification",
    "biorthonormal_system",
    "classify_spectrum",
    "reconstruct",
]

DEFAULT_TOL = 1e-9
DEFAULT_COND_CEILING = 1e12
# rounding allowance of the residual gate, in units of n * eps
_GATE_ROUNDING = 1e3


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
    """The scale a relative tolerance is taken against, for the radius,
    the residuals of :mod:`pseudoherm.symmetry` and the model's "vanishes"
    rule: ``magnitude`` itself, and 1 only where it is exactly zero, so
    that a zero spectrum or a zero matrix still has a scale."""
    return np.where(magnitude == 0, 1.0, magnitude)


def _radius(tol: float, values: np.ndarray):
    """The radius ``tol * _tolerance_scale(rho)`` of each row of ``values``,
    ``rho`` its spectral radius, for clustering and the model's system."""
    return tol * _tolerance_scale(np.abs(values).max(axis=-1, initial=0.0))


def _frobenius(stack):
    """``||H||_F`` of each matrix of a stack, or of one matrix, over a power
    of two near its largest part: no square under- or overflows."""
    parts = np.ascontiguousarray(stack).reshape(*np.shape(stack)[:-2], -1).view(float)
    unit = np.ldexp(1.0, np.minimum(-np.frexp(np.abs(parts).max(axis=-1))[1], 1000))
    return np.linalg.norm(parts * unit[..., None], axis=-1) / unit


def _gate_bound(tol: float, n: int, cond):
    """The residual gate, ``(tol + 1e3 n eps) cond(V)`` relative to
    ``||H||_F``: a backward error of ``tol`` plus rounding, amplified by
    ``cond(V)``.  At 1 or more it passes a commutator as large as ``H``:
    no decision may rest on the error bounds there."""
    return (tol + _GATE_ROUNDING * n * np.finfo(float).eps) * cond


def _cluster_stack(values: np.ndarray, tol: float, errors: np.ndarray):
    """Group nearly equal eigenvalues, row by row of an ``(N, n)`` stack.

    Values chained within ``max(r, e_i + e_j)`` of others in the row,
    with ``r`` the row's radius (:func:`_radius`) and ``e_i`` their
    ``errors``, form one group (a connected component), whatever the
    input order.  A group's representative is ``np.mean`` of its members
    in (real, imag) order, bit for bit, so the group order does not hang
    on how the means are summed.

    Returns ``(perm, means, mults, counts, radii, errors)``.  ``perm``
    reorders each row so that the members of each group are adjacent, in
    (real, imag) order, and the groups are sorted by (real, imag) of
    their mean.  ``means``, ``mults`` and ``errors`` list the groups'
    representatives, sizes and largest ``e_i`` in that order, row after
    row; row ``e`` has ``counts[e]`` of them and the radius ``radii[e]``.
    The last five are the groups as :func:`_real_groups` takes them.
    """
    count, n = values.shape
    size = count * n
    # the rows index one flat array: a label is a flat position
    offset = np.arange(0, size, n)[:, None]
    order = np.lexsort((values.imag, values.real)) + offset
    ws = values.ravel()[order]
    es = errors.ravel()[order]
    radii = _radius(tol, ws)
    near = np.abs(ws[:, :, None] - ws[:, None, :]) <= np.maximum(
        radii[:, None, None], es[:, :, None] + es[:, None, :])
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
    bounds = np.zeros(size)
    np.maximum.at(bounds, labels, es.ravel())
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
            first.sum(axis=1).tolist(), radii, bounds[heads])


@dataclass
class BiorthonormalSystem:
    """Eigenvalue groups plus paired right/left eigenvector columns,
    clustered once, when the system is built, by the module's rule;
    analyses classify these groups by ``radius`` and ``errors``.

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
        ``tolerance * rho``, the floor of every distance the groups read.
    errors : ndarray
        Each group's largest ``n eps ||H||_F ||phi_i||``; 0 in closed form.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    tolerance: float = DEFAULT_TOL
    condition: float = field(kw_only=True)
    radius: float = field(kw_only=True)
    errors: np.ndarray = field(kw_only=True)

    @property
    def dim(self) -> int:
        return self.right_vectors.shape[0]

    def expanded_eigenvalues(self) -> np.ndarray:
        """Group representatives repeated per multiplicity, one per column."""
        return self.eigenvalues.repeat(self.multiplicities)


@dataclass
class SpectrumClassification:
    """Partition of a system's eigenvalue groups into real and
    conjugate-paired ones, as :func:`classify_spectrum` returns it: the
    system's groups and the positions of the real and the paired ones, from
    which the value lists are derived.

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

    The eigenvalues are grouped by :func:`_group_stack` on a stack of one,
    so a system's groups, radius and errors are bit for bit its row of a
    larger stack.  The left vectors, the columns of ``inv(V).conj().T``,
    are rows of the one inverse it takes: biorthonormality and
    completeness hold to machine precision while the condition-number
    ceiling keeps that inverse accurate.  ``tol`` sets the floor ``tol *
    rho`` of the distances the module's rule reads, not a backward error.

    Raises
    ------
    NotDiagonalizableError
        If the eigenvector matrix's condition number exceeds ``cond_ceiling``.
    AmbiguousSpectrumError
        If a join or real call that rests on the error bounds does not hold
        up (:func:`_bounds_hold`).
    ValueError
        If the input is not a finite square matrix or the tolerances are
        not finite and positive.
    """
    a = _square_complex(matrix)
    v, inverse, cond, kept, perm, groups = _group_stack(a[None], tol, cond_ceiling)
    if not kept[0] and cond[0] <= cond_ceiling:
        raise AmbiguousSpectrumError(f"ambiguous spectrum: at cond(V) {cond[0]:.3e} a join "
                                     "or real call resting on the error bounds fails")
    if not kept[0]:
        raise NotDiagonalizableError(f"eigenvector matrix condition number {cond[0]:.3e} "
                                     f"exceeds ceiling {cond_ceiling:.3e}")
    values, mults, _, (radius,), errors = groups
    # columns gathered as rows: the right vectors are the Fortran-ordered
    # matrix ``v[:, perm]`` gives, and products on them round as on that layout
    rows = v[0].T[perm[0]]
    return BiorthonormalSystem(
        eigenvalues=values, multiplicities=mults, right_vectors=rows.T,
        left_vectors=inverse[0][perm[0]].conj().T, tolerance=tol,
        condition=float(cond[0]), radius=float(radius), errors=errors)


def _group_stack(stack: np.ndarray, tol: float, cond_ceiling: float):
    """The eigenvalue groups of each matrix of an ``(N, n, n)`` stack, as
    arrays: one eigensolve, unit-norm eigenvector columns, their condition
    numbers, one inverse and one clustering, with no system built.

    Returns ``(vectors, inverse, condition, kept, perm, groups)``.  Per
    matrix, ``vectors`` holds its unit right eigenvectors in the solver's
    order, ``condition`` their ``cond(V)``, and ``kept`` whether it is
    diagonalizable, ``cond(V) <= cond_ceiling`` (NaN and inf fail it), and
    its groups hold up by :func:`_bounds_hold`.  For the kept matrices,
    ``inverse`` is ``inv(V)``, whose row norms give the error bounds, and
    ``perm`` and ``groups`` :func:`_cluster_stack`'s.

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
    inverse = np.linalg.inv(v[kept])
    n = stack.shape[-1]
    errors = n * np.finfo(float).eps * _frobenius(stack)[kept, None] * np.linalg.norm(
        inverse, axis=-1)
    perm, *groups = _cluster_stack(w[kept], tol, errors)
    held = _bounds_hold(stack[kept], v[kept], w[kept], perm, groups, tol, cond[kept])
    kept[kept] = held
    means, mults, counts, radii, bounds = groups
    member = np.repeat(held, counts)
    return v, inverse[held], cond, kept, perm[held], [
        means[member], mults[member], np.array(counts)[held].tolist(), radii[held], bounds[member]]


def _bounds_hold(stack, vectors, values, perm, groups, tol: float, cond):
    """Whether each row's groups hold where their error bounds reach past
    the floor ``r``.  A real call past ``r`` holds only where the residual
    gate (:func:`_gate_bound`) is below 1 and so checks it.  A group whose
    ``2 e_g`` passes ``r`` must also be one level up to rounding: with ``Q``
    an orthonormal basis of its eigenvectors, ``||Q^H H Q - z I||_F <=
    (tol + 1e3 n eps cond(V)) ||H||_F``.  A split multiple level meets it;
    a near-Jordan pair, its eigenvectors all but parallel, misses by about
    ``||H||_F``."""
    means, mults, counts, radii, bounds = groups
    count, n = values.shape
    owner = np.repeat(np.arange(count), counts)
    gate = _gate_bound(tol, n, cond)
    past = (radii[owner] < np.abs(means.imag)) & (np.abs(means.imag) <= bounds)
    held = (gate < 1) | (np.bincount(owner, past, count) == 0)
    rounding = tol + _GATE_ROUNDING * n * np.finfo(float).eps * cond
    start = np.cumsum(mults) - mults - owner * n
    for g in np.flatnonzero((mults > 1) & (2 * bounds > radii[owner])).tolist():
        e, h = owner[g], stack[owner[g]]
        q = np.linalg.qr(vectors[e][:, perm[e][start[g]:start[g] + mults[g]]])[0]
        departure = _frobenius(q.conj().T @ h @ q - means[g] * np.eye(mults[g]))
        held[e] &= gate[e] < 1 and departure <= rounding[e] * _frobenius(h)
    return held


def classify_spectrum(system: BiorthonormalSystem) -> SpectrumClassification:
    """Split the eigenvalue groups of ``system`` into real groups and
    conjugate pairs.

    The groups are the ones ``system`` was clustered into, classified by
    the radius ``r = system.radius`` and each group's error bound
    ``e_g = system.errors[g]``, which grows with its condition.  A group
    ``z`` is real when ``|Im z| <= max(r, e_g)``.  Each upper half-plane
    group ``u``, in group order, takes the nearest lower group ``l`` not
    yet taken (the lower index on a tie); the pair holds when their
    distance is within ``max(r, e_u + e_l)`` and their multiplicities agree.
    No spectrum is clustered here: classify the system of a matrix,
    built once by :func:`biorthonormal_system`.

    Raises
    ------
    NotPseudohermitianError
        If some complex group has no conjugate partner within tolerance,
        or partners disagree in multiplicity.  Such a spectrum cannot
        belong to an operator similar to its own adjoint.
    AmbiguousSpectrumError
        If the error bounds pair two groups the floor would not, and the
        residual gate, at 1 or more, cannot check them.
    """
    cls, _, refusal = _classification(system)
    if refusal is not None:
        raise refusal
    return cls


def _real_groups(values: np.ndarray, mults: np.ndarray, counts: list[int],
                 radii: np.ndarray, errors: np.ndarray):
    """The one "real" rule and the parity, over the groups of a stack of
    systems as :func:`_cluster_stack` returns them: system ``e`` has
    ``counts[e]`` groups and the radius ``radii[e]``.  Returns ``(real,
    all_even)``: ``real`` flags, over the groups of the systems in turn,
    those with ``|Im z| <= max(radii[e], errors[g])``; per system,
    ``all_even`` is whether none of its real groups is odd."""
    owner = np.repeat(np.arange(len(counts)), counts)
    real = np.abs(values.imag) <= np.maximum(radii[owner], errors)
    odd = np.bincount(owner, weights=real & (mults % 2 == 1), minlength=len(counts))
    return real, (odd == 0).tolist()


def _classification(system: BiorthonormalSystem):
    """Classify ``system``'s own groups by its radius and errors, by
    :func:`classify_spectrum`'s rule: ``(classification, all_even,
    refusal)``, with ``refusal`` ``None`` or the error.  The real groups
    are always complete; the pairs only when ``refusal`` is ``None``."""
    values, mults, errors = system.eigenvalues, system.multiplicities, system.errors
    radius = system.radius
    real, (all_even,) = _real_groups(values, mults, [values.size], np.array([radius]), errors)
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
            if not dist[j] <= max(radius, errors[u] + errors[low]):
                message = (f"eigenvalue {values[u]:g} has no conjugate partner "
                           "within tolerance")
            elif mults[u] != mults[low]:
                message = (f"conjugate pair {values[u]:g} / {values[low]:g} has mismatched "
                           f"multiplicities {mults[u]} and {mults[low]}")
            elif dist[j] > radius and _gate_bound(system.tolerance, system.dim,
                                                  system.condition) >= 1:
                raise AmbiguousSpectrumError(
                    f"ambiguous spectrum: at cond(V) {system.condition:.3e} the gate "
                    f"cannot check the bounds that pair {values[u]:g}")
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
