"""A derandomized hunt for silent wrong verdicts.

Hypothesis draws a spectrum by its structure, on the lattice 0.25 (Z + iZ):
real levels of multiplicity 1-4, conjugate pairs of multiplicity 1-2 and
at most one unpaired value, n <= 8.  The structure alone gives the
verdict: pseudohermitian when no value is unpaired, all even when every
real multiplicity is, and the symmetry admitted when both hold.  The
matrix is ``S D S^-1`` with ``S`` a similarity of condition 10^u, then
one of the transforms no verdict may depend on.  kramers_test must give
the structure's verdict or refuse the matrix.

The settings fix the examples (``derandomize``) and write nothing to
disk (``database=None``), so every run checks the same matrices.
"""

import numpy as np
import pytest
from conftest import conditioned_similarity, invariance_transforms
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import PseudohermError, kramers_test

LATTICE = 0.25
MAX_DIM = 8
TRANSFORMS = tuple(invariance_transforms(np.random.default_rng(0), 1))


@st.composite
def structured_spectra(draw):
    """``(values, verdict)``: a spectrum drawn by structure and the
    ``(pseudohermitian, all_even, admits_symmetry)`` it implies."""
    # distinct levels a + ib, b >= 0: real when b = 0, else a pair
    levels = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 8)),
                           min_size=1, max_size=MAX_DIM, unique=True))
    values, real_mults = [], []
    for a, b in levels:
        room = MAX_DIM - len(values)
        z = LATTICE * complex(a, b)
        if b == 0:
            mult = draw(st.integers(1, min(4, room)))
            values += [z] * mult
            real_mults.append(mult)
        elif room >= 2:
            values += [z, z.conjugate()] * draw(st.integers(1, min(2, room // 2)))
        if len(values) == MAX_DIM:
            break
    paired = len(values) == MAX_DIM or not draw(st.booleans())
    if not paired:
        # one value off the real axis with no partner, in either half plane
        a, b = draw(st.integers(-8, 8)), draw(st.integers(-8, 8).filter(bool))
        values.append(LATTICE * complex(a, b))
    all_even = all(mult % 2 == 0 for mult in real_mults)
    return np.array(values), (paired, all_even, paired and all_even)


def _right_or_refused(spectrum, seed, u, transform):
    """Whether kramers_test, on ``transform(S D S^-1)`` with ``S`` of
    condition 10^u drawn from ``seed``, refuses the matrix or gives
    ``spectrum``'s verdict."""
    values, expected = spectrum
    rng = np.random.default_rng(seed)
    s = conditioned_similarity(rng, values.size, 10.0 ** u)
    h = s @ np.diag(values) @ np.linalg.inv(s)
    matrix = invariance_transforms(rng, values.size)[transform](h)
    try:
        report = kramers_test(matrix)
    except PseudohermError:
        return True
    return (report.pseudohermitian, report.all_even, report.admits_symmetry) == expected


SEEDS = st.integers(0, 2**32 - 1)
HUNT = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@settings(HUNT, max_examples=1000)
@given(structured_spectra(), SEEDS, st.floats(0.0, 3.0), st.sampled_from(TRANSFORMS))
def test_verdict_is_right_or_refused_under_a_conditioned_similarity(
        spectrum, seed, u, transform):
    assert _right_or_refused(spectrum, seed, u, transform)


def _wrong_verdicts(low, high):
    """The examples of :data:`HUNT` with ``u`` in ``[low, high]`` whose
    verdict is neither right nor refused.  They are counted, not raised:
    no example fails inside Hypothesis, so none is shrunk or written out."""
    wrong = []

    @HUNT
    @given(structured_spectra(), SEEDS, st.floats(low, high), st.sampled_from(TRANSFORMS))
    def hunt(spectrum, seed, u, transform):
        if not _right_or_refused(spectrum, seed, u, transform):
            wrong.append((spectrum[0].tolist(), seed, u, transform))

    hunt()
    return wrong


def test_verdict_is_right_or_refused_under_an_ill_conditioned_similarity():
    assert _wrong_verdicts(5.0, 7.0) == []


def test_verdict_is_right_or_refused_in_the_band_below():
    # u in [3, 4) is covered by neither band; its 300 examples give no
    # wrong verdict either, as the examples at u <= 3 above do
    assert _wrong_verdicts(4.0, 5.0) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: at u in [7, 8] the first-order error "
                          "disks of distinct levels overlap, so groups merge or "
                          "split without a count certificate")
def test_verdict_is_right_or_refused_in_the_band_above():
    # five of its 300 examples are wrong: distinct levels joined, their
    # departure from one level within rounding, and read as unpaired
    assert _wrong_verdicts(7.0, 8.0) == []


def test_shrunk_counterexample_is_right_or_refused():
    # the hunt at u in [5, 7], shrunk: the simple pair +-0.25i under seed
    # 0's similarity of condition 1e5, its computed partners 23 floor radii
    # tol * rho apart but within the sum of their error bounds
    spectrum = np.array([0.25j, -0.25j]), (True, True, True)
    assert _right_or_refused(spectrum, 0, 5.0, "scale 1e10")
