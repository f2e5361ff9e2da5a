"""Eigendecomposition, biorthonormality, and spectrum classification."""

import numpy as np
import pytest
from conftest import (
    bounded_similarity,
    kramers_spectrum,
    separated_reals,
    with_spectrum,
)

from pseudoherm import (
    NotDiagonalizableError,
    NotPseudohermitianError,
    biorthonormal_system,
    classify_spectrum,
    reconstruct,
)


def test_diagonalize_diagonal_matrix():
    system = biorthonormal_system(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(system.expanded_eigenvalues(), [1.0, 2.0, 3.0])
    # columns are standard basis vectors up to phase
    assert np.allclose(np.abs(system.right_vectors), np.eye(3))


def test_diagonalize_rejects_jordan_block():
    with pytest.raises(NotDiagonalizableError):
        biorthonormal_system(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_diagonalize_eigen_equation_on_random_corpus():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            h = bounded_similarity(rng, n) @ np.diag(rng.standard_normal(n)) \
                @ np.linalg.inv(bounded_similarity(rng, n))
            system = biorthonormal_system(h)
            values, vectors = system.expanded_eigenvalues(), system.right_vectors
            residual = np.linalg.norm(h @ vectors - vectors * values)
            assert residual <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_cond_ceiling_is_adjustable():
    h = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-3]])
    biorthonormal_system(h)  # fine at the default ceiling
    with pytest.raises(NotDiagonalizableError):
        biorthonormal_system(h, cond_ceiling=1e2)


def test_input_validation():
    with pytest.raises(ValueError):
        biorthonormal_system(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        biorthonormal_system(np.array([[np.nan, 0], [0, 1]]))
    # NaN passes a plain `tol <= 0` check; inf would merge every eigenvalue
    for bad in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            biorthonormal_system(np.eye(2), tol=bad)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            classify_spectrum([1.0, 2.0], tol=bad)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="cond_ceiling must be finite and positive"):
            biorthonormal_system(np.eye(2), cond_ceiling=bad)
    with pytest.raises(ValueError):
        classify_spectrum([])


def test_biorthonormality_and_completeness():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            h = with_spectrum(rng, kramers_spectrum(rng, n))
            system = biorthonormal_system(h)
            overlap = system.left_vectors.conj().T @ system.right_vectors
            assert np.max(np.abs(overlap - np.eye(n))) <= 1e-9
            completeness = system.right_vectors @ system.left_vectors.conj().T
            assert np.linalg.norm(completeness - np.eye(n)) <= 1e-9 * n


def test_left_vectors_are_adjoint_eigenvectors():
    rng = np.random.default_rng(13)
    h = with_spectrum(rng, kramers_spectrum(rng, 6))
    system = biorthonormal_system(h)
    energies = system.expanded_eigenvalues()
    residual = np.linalg.norm(
        h.conj().T @ system.left_vectors - system.left_vectors * np.conj(energies))
    assert residual <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_degenerate_groups_are_clustered():
    rng = np.random.default_rng(17)
    h = with_spectrum(rng, [2.0, 2.0, -1.0, 0.5 + 1j, 0.5 - 1j, -1.0])
    system = biorthonormal_system(h)
    assert sorted(system.multiplicities.tolist()) == [1, 1, 2, 2]
    assert int(np.sum(system.multiplicities)) == 6
    # groups sorted by (real, imag) of the representative
    keys = [(v.real, v.imag) for v in system.eigenvalues]
    assert keys == sorted(keys)


def test_group_columns_partition_the_basis():
    rng = np.random.default_rng(19)
    h = with_spectrum(rng, [1.0, 1.0, 3.0, 3.0])
    system = biorthonormal_system(h)
    columns = np.concatenate([system.group_columns(g)
                              for g in range(len(system.eigenvalues))])
    assert columns.tolist() == [0, 1, 2, 3]
    for g in range(len(system.eigenvalues)):
        cols = system.group_columns(g)
        block = h @ system.right_vectors[:, cols]
        assert np.allclose(block, system.right_vectors[:, cols]
                           * system.eigenvalues[g], atol=1e-9)


def test_classify_real_and_paired():
    cls = classify_spectrum([1.0, 2.0, 3.0])
    assert cls.real_groups == [(1.0, 1), (2.0, 1), (3.0, 1)]
    assert cls.conjugate_pairs == []
    assert cls.is_entirely_real

    cls = classify_spectrum([1 + 2j, 1 - 2j, 5.0])
    assert cls.real_groups == [(5.0, 1)]
    assert len(cls.conjugate_pairs) == 1
    upper, lower, mult = cls.conjugate_pairs[0]
    assert upper == 1 + 2j and lower == 1 - 2j and mult == 1


def test_classify_rejects_unpaired_multiplicity():
    with pytest.raises(NotPseudohermitianError):
        classify_spectrum([1j, 1j, -1j])


def test_classify_rejects_missing_partner():
    with pytest.raises(NotPseudohermitianError):
        classify_spectrum([1j, 2j])
    with pytest.raises(NotPseudohermitianError):
        classify_spectrum([0.5 - 0.25j, 1.0])


def test_classify_conjugation_equivariance():
    rng = np.random.default_rng(23)
    # jitter in the real part interleaves the members of the 1+2i and
    # 1-2i groups under the lexicographic sort
    jittered = np.array([1 + 2j, 1 + 1e-12 - 2j, 1 + 1e-12 + 2j, 1 - 2j,
                         3.0, 3.0 + 1e-13])
    for spectrum in (kramers_spectrum(rng, 8), jittered):
        forward = classify_spectrum(spectrum)
        for moved in (np.conj(spectrum), spectrum[rng.permutation(len(spectrum))]):
            other = classify_spectrum(moved)
            assert forward.real_groups == other.real_groups
            assert forward.conjugate_pairs == other.conjugate_pairs
    assert [mult for _, mult in forward.real_groups] == [2]
    assert [mult for _, _, mult in forward.conjugate_pairs] == [2]


def test_separated_reals_refuses_what_cannot_fit():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        separated_reals(rng, 100)
    with pytest.raises(ValueError):
        separated_reals(rng, 1, taken=[-1.0, -0.5, 0.0, 0.5, 1.0], gap=0.25,
                        lo=-1.0, hi=1.0)
    assert rng.bit_generator.state == state  # refused before any draw
    # large corpora used to jam part way and draw forever
    with pytest.raises(ValueError):
        kramers_spectrum(np.random.default_rng(0), 256)


def test_classify_multiplicities_sum_to_dim():
    rng = np.random.default_rng(29)
    for n in (2, 4, 6, 8):
        spectrum = kramers_spectrum(rng, n)
        cls = classify_spectrum(spectrum)
        total = sum(m for _, m in cls.real_groups)
        total += 2 * sum(m for _, _, m in cls.conjugate_pairs)
        assert total == n


def test_reconstruct_round_trip():
    rng = np.random.default_rng(31)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            h = with_spectrum(rng, kramers_spectrum(rng, n))
            system = biorthonormal_system(h)
            err = np.linalg.norm(reconstruct(system) - h)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(h))


def test_reconstruct_diagonal_and_zero():
    system = biorthonormal_system(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(reconstruct(system), np.diag([1, 2, 3]), atol=1e-12)
    system = biorthonormal_system(np.zeros((3, 3)))
    assert np.allclose(reconstruct(system), np.zeros((3, 3)), atol=1e-12)


def test_hermitian_input_left_equals_right():
    rng = np.random.default_rng(37)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    system = biorthonormal_system(h)
    # for a Hermitian matrix the left family coincides with the right one
    assert np.allclose(system.left_vectors, system.right_vectors, atol=1e-9)
