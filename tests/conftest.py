"""Random-matrix corpus builders and model cases shared across the test
modules.

Test matrices are built as S D inv(S) with a controlled spectrum D and a
similarity S of bounded condition number (singular values drawn from
[0.5, 2], so cond(S) <= 4), which keeps every eigenproblem far from the
defective regime and makes 1e-9 residual targets meaningful.
"""

import math

import numpy as np

# (E, muB, omega2, k1, k2) of the two-level model in each regime: real,
# complex, Hermitian (alpha = beta exactly), undefined coupling ratio
# (beta = 0) and zero splitting (alpha = 0)
MODEL_REGIMES = [
    (1.0, 0.1, 1.0, 1.0, 0.5),
    (1.0, 0.3, 1.0, 1.0, 0.5),
    (1.0, 0.1, 1.0, 0.8, 0.8),
    (1.0, 0.25, 1.0, 1.0, 0.5),
    (1.0, 0.25, 1.0, 0.5, 1.0),
]
# factors on E, muB and omega2, with k1 and k2 fixed: each scales alpha,
# beta and the spectrum by c, and no decision of the model may change
MODEL_SCALES = [1e-160, 1e-13, 1e-6, 1e6, 1e12]


def scaled_model(case, c):
    """The model ``case`` with ``E``, ``muB`` and ``omega2`` times ``c``."""
    E, muB, omega2, k1, k2 = case
    return c * E, c * muB, c * omega2, k1, k2


def haar_unitary(rng, n):
    """Haar-distributed unitary via phase-fixed QR."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def bounded_similarity(rng, n):
    """Random invertible matrix with singular values in [0.5, 2]."""
    left = haar_unitary(rng, n)
    right = haar_unitary(rng, n)
    singulars = rng.uniform(0.5, 2.0, size=n)
    return (left * singulars) @ right


def with_spectrum(rng, eigenvalues):
    """Similarity-transform a diagonal matrix with the given spectrum."""
    values = np.asarray(eigenvalues, dtype=complex)
    s = bounded_similarity(rng, len(values))
    return s @ np.diag(values) @ np.linalg.inv(s)


def _room(placed, gap, lo, hi):
    """How many more values fit in ``[lo, hi]``, more than ``gap`` apart
    from each other and from every value in ``placed``."""
    room, start = 0, lo
    for y in [*sorted(placed), math.inf]:
        end = min(hi, y - gap)
        if end > start:
            # k values fit in an open stretch of length L when (k-1)*gap < L
            room += math.ceil((end - start) / gap)
        start = max(start, y + gap)
    return room


def separated_reals(rng, count, taken=(), gap=0.1, lo=-3.0, hi=3.0):
    """Draw reals pairwise separated by more than ``gap``.

    Raises ``ValueError`` before a draw that could never be accepted
    because the values still wanted no longer fit in ``[lo, hi]``; the
    check consumes no random numbers, so it leaves every corpus that
    does fit unchanged.
    """
    picked = []
    while len(picked) < count:
        if _room([*taken, *picked], gap, lo, hi) < count - len(picked):
            raise ValueError(
                f"{count - len(picked)} more reals do not fit in [{lo}, {hi}] "
                f"more than {gap} apart from the {len(taken) + len(picked)} placed")
        while True:
            x = float(rng.uniform(lo, hi))
            if all(abs(x - y) > gap for y in [*taken, *picked]):
                picked.append(x)
                break
    return picked


def kramers_spectrum(rng, n):
    """Spectrum with even-multiplicity real groups and conjugate pairs."""
    values = []
    reals_taken = []
    remaining = n
    while remaining:
        mult = 4 if remaining >= 4 and rng.random() < 0.3 else 2
        if rng.random() < 0.5:
            value = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(value)
            values.extend([complex(value)] * mult)
        else:
            re = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(re)
            z = complex(re, rng.uniform(0.2, 2.0))
            half = mult // 2
            values.extend([z] * half + [z.conjugate()] * half)
        remaining -= mult
    values = np.array(values)
    return values[rng.permutation(len(values))]


def odd_real_spectrum(rng, n):
    """Real-or-paired spectrum with at least one odd real multiplicity."""
    values = []
    reals_taken = []
    odd_placed = False
    remaining = n
    while remaining:
        if not odd_placed and (remaining <= 2 or rng.random() < 0.6):
            mult = 3 if remaining >= 3 and rng.random() < 0.3 else 1
            value = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(value)
            values.extend([complex(value)] * mult)
            odd_placed = True
            remaining -= mult
        elif remaining >= 2 and rng.random() < 0.5:
            value = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(value)
            values.extend([complex(value)] * 2)
            remaining -= 2
        elif remaining >= 2:
            re = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(re)
            z = complex(re, rng.uniform(0.2, 2.0))
            values.extend([z, z.conjugate()])
            remaining -= 2
        else:
            value = separated_reals(rng, 1, taken=reals_taken)[0]
            reals_taken.append(value)
            values.append(complex(value))
            odd_placed = True
            remaining -= 1
    values = np.array(values)
    return values[rng.permutation(len(values))]


# the Sylvester kernel's SVD costs O(n^6): refused above this dimension
SYLVESTER_MAX_DIM = 24


def sylvester_kernel(h):
    """``(d, gap)``: ``d = dim{X : H X = X conj(H)}`` and the gap that
    decides it, with no clustering of eigenvalues.

    ``X`` lies in the null space of ``K = I (x) H - conj(H)^T (x) I``
    (column-major vec).  For a diagonalizable ``H`` with groups
    ``(lambda_k, m_k)``, ``d = sum of m_k m_l over lambda_k = conj(lambda_l)``.
    With ``K``'s singular values in descending order after ``2 ||H||_2``,
    a bound on ``||K||_2``, and each floored at eps times that bound,
    ``d`` is read at the largest ratio of neighbours, and the gap is that
    ratio: large when the null block stands clear.  A small gap means no
    block does, and ``d`` then means nothing.
    """
    h = np.asarray(h, dtype=complex)
    n = len(h)
    if n > SYLVESTER_MAX_DIM:
        raise ValueError(f"the Sylvester kernel of a {n} x {n} matrix is too "
                         f"costly; at most {SYLVESTER_MAX_DIM}")
    bound = 2.0 * np.linalg.norm(h, 2)
    if bound == 0:
        return n * n, math.inf
    eye = np.eye(n)
    s = np.linalg.svd(np.kron(eye, h) - np.kron(h.conj().T, eye), compute_uv=False)
    s = np.maximum(np.concatenate([[bound], s]), np.finfo(float).eps * bound)
    ratios = s[:-1] / s[1:]
    k = int(np.argmax(ratios))
    # the null block is s[k + 1:]
    return n * n - k, float(ratios[k])
