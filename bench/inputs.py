"""Seeded benchmark inputs with a known verdict for every matrix.

Matrices are ``S D inv(S)`` with ``S = U diag(sigma) W^H`` (Haar ``U``,
``W``; ``sigma`` in [0.5, 2], so cond(S) <= 4), which keeps every
eigenproblem well conditioned.  Eigenvalue groups sit on a lattice of
spacing ``SPACING``: real groups on distinct points of the real axis,
conjugate pairs at distinct real parts with imaginary part a positive
multiple of the spacing.  Any two groups are therefore at least
``SPACING`` apart, many orders of magnitude above the library's cluster
radius ``1e-9 * max(1, rho)`` for every size generated here, so the
groups the library finds are exactly the groups constructed.  Placing
groups on free lattice slots, instead of rejection-sampling separated
reals, makes generation a handful of matrix products at any size.

Kinds of spectrum and the verdict each one must get:

``even``       every real group even, complex groups paired: admits a witness
``odd``        some real group odd, complex groups paired: metric, no witness
``unpaired``   one complex eigenvalue without its conjugate: not pseudohermitian
``defective``  an exact 2x2 Jordan block: ``NotDiagonalizableError``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPACING = 0.25
KINDS = ("even", "odd", "unpaired", "defective")


@dataclass
class Spectrum:
    """Expanded spectrum plus the facts a correct analysis must report."""

    kind: str
    values: np.ndarray
    real_groups: list[tuple[float, int]]
    groups: int

    @property
    def pseudohermitian(self) -> bool:
        return self.kind != "unpaired"

    @property
    def all_even(self) -> bool:
        return all(mult % 2 == 0 for _, mult in self.real_groups)

    @property
    def admits_symmetry(self) -> bool:
        return self.pseudohermitian and self.all_even


class _Lattice:
    """Hands out group centres that are pairwise at least SPACING apart."""

    def __init__(self, rng, n: int, max_imag_steps: int):
        self.rng = rng
        self.real_slots = list(rng.permutation(np.arange(-n, n + 1)))
        self.pair_slots = list(rng.permutation(np.arange(-n, n + 1)))
        self.max_imag_steps = max_imag_steps

    def real(self) -> float:
        return SPACING * float(self.real_slots.pop())

    def complex(self) -> complex:
        steps = int(self.rng.integers(1, self.max_imag_steps + 1))
        return complex(SPACING * float(self.pair_slots.pop()), SPACING * steps)


def spectrum(rng, n: int, kind: str, max_imag_steps: int = 3,
             layout=None) -> Spectrum:
    """Random spectrum of dimension ``n`` of the given kind.

    ``layout`` (default ``rng``) draws the group structure: which groups
    are real, which are pairs, and their multiplicities.  ``rng`` draws
    where the groups sit.  A fixed ``layout`` gives every seed the same
    structure, so the work an analysis does varies little with the seed.
    ``max_imag_steps`` caps the imaginary parts at that many lattice
    steps, which bounds the growth of the evolution exponentials.
    """
    layout = rng if layout is None else layout
    if kind not in KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    if kind == "even" and n % 2:
        raise ValueError("an even spectrum needs an even dimension")
    lattice = _Lattice(rng, n, max_imag_steps)
    values: list[complex] = []
    reals: list[tuple[float, int]] = []
    groups = 0

    def add_real(mult):
        nonlocal groups
        value = lattice.real()
        values.extend([complex(value)] * mult)
        reals.append((value, mult))
        groups += 1

    if kind == "odd":
        add_real(3 if n >= 3 and layout.random() < 0.3 else 1)
    elif kind == "unpaired":
        values.append(lattice.complex())
        groups += 1
    elif kind == "defective":
        if n < 2:
            raise ValueError("a Jordan block needs dimension >= 2")
        # the first two values become the Jordan block in case()
        values.extend([complex(lattice.real())] * 2)
        groups += 1
    if (n - len(values)) % 2:
        add_real(1)
    while len(values) < n:
        size = 4 if n - len(values) >= 4 and layout.random() < 0.3 else 2
        if layout.random() < 0.5:
            add_real(size)
        else:
            z = lattice.complex()
            values.extend([z] * (size // 2) + [z.conjugate()] * (size // 2))
            groups += 2
    return Spectrum(kind=kind, values=np.array(values),
                    real_groups=sorted(reals), groups=groups)


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass
class Similarity:
    """``S = U diag(sigma) W^H`` and its exact-form inverse."""

    u: np.ndarray
    sigma: np.ndarray
    w: np.ndarray

    @classmethod
    def random(cls, rng, n: int) -> "Similarity":
        return cls(haar_unitary(rng, n), rng.uniform(0.5, 2.0, size=n),
                   haar_unitary(rng, n))

    @property
    def matrix(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.w.conj().T

    @property
    def inverse(self) -> np.ndarray:
        return self.w @ (self.u.conj().T / self.sigma[:, None])

    def apply(self, diagonal) -> np.ndarray:
        """``S diag(diagonal) inv(S)``."""
        inner = (self.w.conj().T * diagonal) @ self.w
        return (self.u * self.sigma) @ inner @ (self.u.conj().T / self.sigma[:, None])


@dataclass
class Case:
    """One generated matrix with its ground truth."""

    matrix: np.ndarray
    spectrum: Spectrum
    similarity: Similarity | None


def case(rng, n: int, kind: str, max_imag_steps: int = 3, layout=None) -> Case:
    """A matrix of dimension ``n`` whose spectrum has the given kind.

    A defective case is a permuted block diagonal: the exact Jordan block
    ``[[a, 1], [0, a]]`` next to a similarity-transformed diagonalizable
    rest, so rounding cannot split the block into two distinct
    eigenvectors.  Every other case is ``S D inv(S)``.
    """
    spec = spectrum(rng, n, kind, max_imag_steps, layout)
    if kind != "defective":
        sim = Similarity.random(rng, n)
        return Case(sim.apply(spec.values), spec, sim)
    jordan_value, rest = spec.values[0], spec.values[2:]
    h = np.zeros((n, n), dtype=complex)
    h[0, 0] = h[1, 1] = jordan_value
    h[0, 1] = 1.0
    if n > 2:
        h[2:, 2:] = Similarity.random(rng, n - 2).apply(rest)
    perm = rng.permutation(n)
    return Case(h[np.ix_(perm, perm)], spec, None)


def matrix_text(matrix) -> str:
    """Matrix file text that parses back to exactly ``matrix``."""
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row)
            for row in np.asarray(matrix, dtype=complex)]
    return f"{len(rows)}\n" + "\n".join(rows) + "\n"
