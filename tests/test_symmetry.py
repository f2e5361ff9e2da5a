"""Intertwiner construction, antilinear witnesses, and the Kramers test."""

import numpy as np
import pytest
from conftest import (
    bounded_similarity,
    kramers_spectrum,
    odd_real_spectrum,
    with_spectrum,
)

from pseudoherm import (
    AntilinearOperator,
    NotPseudohermitianError,
    OddDegeneracyError,
    SingularIntertwinerError,
    biorthonormal_system,
    build_antilinear_symmetry,
    build_intertwiner,
    commutator_residual,
    intertwining_residual,
    kramers_test,
    spectral,
    square_residual,
    symmetry,
)
from pseudoherm.cli import build_analysis_report

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_intertwiner_of_hermitian_matrix_is_identity():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    eta = build_intertwiner(biorthonormal_system(h))
    assert np.allclose(eta.matrix, np.eye(4), atol=1e-9)


def test_intertwiner_of_conjugate_pair_is_swap():
    eta = build_intertwiner(biorthonormal_system(np.diag([1j, -1j])))
    assert np.allclose(eta.matrix, SIGMA_X, atol=1e-12)
    assert intertwining_residual(np.diag([1j, -1j]), eta) <= 1e-12


def test_intertwiner_is_hermitian():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        h = with_spectrum(rng, kramers_spectrum(rng, n))
        eta = build_intertwiner(biorthonormal_system(h)).matrix
        assert np.linalg.norm(eta - eta.conj().T) <= 1e-10 * np.linalg.norm(eta)


def test_intertwiner_certifies_random_corpus():
    rng = np.random.default_rng(7)
    for n in (2, 4, 6, 8):
        for spectrum_of in (kramers_spectrum, odd_real_spectrum):
            h = with_spectrum(rng, spectrum_of(rng, n))
            eta = build_intertwiner(biorthonormal_system(h))
            assert intertwining_residual(h, eta) <= 1e-8


def test_intertwining_residual_identity_metric_on_hermitian():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = z + z.conj().T
    assert intertwining_residual(h, np.eye(3)) <= 1e-12


def test_intertwining_residual_detects_unpairable_spectrum():
    # spectra {i, 2i} and {-i, -2i} are disjoint, so no metric can work
    h = np.diag([1j, 2j])
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        eta = z + z.conj().T + 3 * np.eye(2)
        assert intertwining_residual(h, eta) > 0.1


def test_intertwining_residual_rejects_singular_metric():
    with pytest.raises(SingularIntertwinerError):
        intertwining_residual(np.eye(2), np.diag([1.0, 1e-20]))
    with pytest.raises(ValueError):
        intertwining_residual(np.eye(3), np.eye(2))


def test_witness_for_doubly_degenerate_real_eigenvalue():
    system = biorthonormal_system(np.diag([2.0, 2.0]))
    witness = build_antilinear_symmetry(system)
    assert np.allclose(witness.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.allclose(witness.squared(), -np.eye(2), atol=1e-12)


def test_witness_for_conjugate_pair():
    h = np.diag([1j, -1j])
    witness = build_antilinear_symmetry(biorthonormal_system(h))
    assert np.allclose(witness.matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    product = h @ witness.matrix
    assert np.allclose(product, witness.matrix @ np.conj(h), atol=1e-12)
    assert np.allclose(product, [[0.0, -1j], [-1j, 0.0]], atol=1e-12)


def test_odd_degeneracy_is_refused_with_groups_attached():
    system = biorthonormal_system(np.diag([1.0, 2.0]))
    with pytest.raises(OddDegeneracyError) as info:
        build_antilinear_symmetry(system)
    assert info.value.groups == [(1.0, 1), (2.0, 1)]


def test_antilinear_application_and_composition():
    conjugator = AntilinearOperator(matrix=np.eye(2, dtype=complex))
    assert np.allclose(conjugator.apply([1j, 0.0]), [-1j, 0.0])

    rotator = AntilinearOperator(matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(rotator.apply([1.0, 0.0]), [0.0, -1.0])

    # antilinearity: T(au + bv) = conj(a) T(u) + conj(b) T(v)
    rng = np.random.default_rng(13)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = AntilinearOperator(matrix=z)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    assert np.allclose(op.apply(a * u + b * v),
                       np.conj(a) * op.apply(u) + np.conj(b) * op.apply(v))

    # composition of two antilinear maps is the linear map A conj(B)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    other = AntilinearOperator(matrix=w)
    composed = op.compose(other)
    assert np.allclose(composed @ u, op.apply(other.apply(u)))


def test_witness_applied_twice_negates():
    rng = np.random.default_rng(17)
    h = with_spectrum(rng, kramers_spectrum(rng, 4))
    witness = kramers_test(h).witness
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(witness.apply(witness.apply(v)), -v, atol=1e-9)


def test_commutator_residual_values():
    block = AntilinearOperator(matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert commutator_residual(np.diag([2.0, 2.0]), block) <= 1e-15

    pair = AntilinearOperator(matrix=np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert commutator_residual(np.diag([1j, -1j]), pair) <= 1e-12

    # sqrt(2)/sqrt(5): Frobenius norms of [[0,1],[1,0]] and diag(1,2)
    value = commutator_residual(np.diag([1.0, 2.0]), block)
    assert abs(value - 0.6324555320336759) <= 1e-15


def test_kramers_flags_on_hand_matrices():
    report = kramers_test(np.diag([2.0, 2.0]))
    assert report.pseudohermitian and report.all_even and report.admits_symmetry
    assert report.commutator_residual <= 1e-12
    assert report.square_residual <= 1e-12

    report = kramers_test(np.diag([1j, 2j]))
    assert not report.pseudohermitian
    assert report.witness is None
    assert report.commutator_residual is None

    report = kramers_test(np.diag([1.0, 2.0]))
    assert report.pseudohermitian and not report.all_even
    assert report.witness is None
    assert report.real_degeneracies == [(1.0, 1), (2.0, 1)]


def test_kramers_vacuous_evenness_with_no_real_eigenvalues():
    report = kramers_test(np.diag([1j, -1j]))
    assert report.pseudohermitian and report.all_even
    assert report.real_degeneracies == []
    assert report.witness is not None


def test_witness_soundness_on_random_corpus():
    rng = np.random.default_rng(19)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            h = with_spectrum(rng, kramers_spectrum(rng, n))
            report = kramers_test(h)
            assert report.admits_symmetry
            assert report.square_residual <= 1e-9 * n
            assert report.commutator_residual <= 1e-9


def test_odd_corpus_never_gets_witness():
    rng = np.random.default_rng(23)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            h = with_spectrum(rng, odd_real_spectrum(rng, n))
            report = kramers_test(h)
            assert report.pseudohermitian
            assert not report.all_even
            assert report.witness is None


def test_basis_covariance_of_flags():
    rng = np.random.default_rng(29)
    h = with_spectrum(rng, kramers_spectrum(rng, 6))
    s = bounded_similarity(rng, 6)
    transformed = s @ h @ np.linalg.inv(s)
    base = kramers_test(h)
    moved = kramers_test(transformed)
    assert base.pseudohermitian == moved.pseudohermitian
    assert base.all_even == moved.all_even
    # witnesses transform as A -> S A conj(S)^-1; check residuals only
    mapped = AntilinearOperator(
        matrix=s @ base.witness.matrix @ np.conj(np.linalg.inv(s)))
    assert commutator_residual(transformed, mapped) <= 1e-8
    assert square_residual(mapped) <= 1e-8 * 6


def test_non_pseudohermitian_spectrum_raises_in_builders():
    system = biorthonormal_system(np.diag([1j, 2j]))
    with pytest.raises(NotPseudohermitianError):
        build_intertwiner(system)
    with pytest.raises(NotPseudohermitianError):
        build_antilinear_symmetry(system)


def test_each_analysis_clusters_once(monkeypatch):
    clusters, classifications = [], []
    cluster, classify = spectral._cluster, spectral._classify_groups

    def counted_cluster(*args, **kwargs):
        clusters.append(args)
        return cluster(*args, **kwargs)

    def counted_classify(*args, **kwargs):
        classifications.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(spectral, "_cluster", counted_cluster)
    monkeypatch.setattr(spectral, "_classify_groups", counted_classify)
    monkeypatch.setattr(symmetry, "_classify_groups", counted_classify)
    rng = np.random.default_rng(41)
    # admits a witness, has an odd real group, has an unpaired eigenvalue
    for h in (with_spectrum(rng, kramers_spectrum(rng, 6)),
              with_spectrum(rng, odd_real_spectrum(rng, 5)),
              np.diag([1j, 2j])):
        for analyze, most in ((kramers_test, 1), (build_analysis_report, 2)):
            clusters.clear()
            classifications.clear()
            analyze(h)
            assert len(clusters) == 1
            assert 1 <= len(classifications) <= most
