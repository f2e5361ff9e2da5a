"""Intertwining metrics, antilinear witnesses, and the Kramers test."""

import numpy as np
import pytest
from conftest import (
    MODEL_REGIMES,
    bounded_similarity,
    conditioned_similarity,
    invariance_transforms,
    kramers_spectrum,
    odd_real_spectrum,
    separated_reals,
    sylvester_kernel,
    with_spectrum,
)

from pseudoherm import (
    AmbiguousSpectrumError,
    AntilinearOperator,
    ModelParams,
    NotDiagonalizableError,
    NotPseudohermitianError,
    OddDegeneracyError,
    PseudohermError,
    SingularIntertwinerError,
    biorthonormal_system,
    build_antilinear_symmetry,
    build_intertwiner,
    commutator_residual,
    effective_hamiltonian,
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
    assert np.allclose(eta, np.eye(4), atol=1e-9)


def test_intertwiner_of_conjugate_pair_is_swap():
    eta = build_intertwiner(biorthonormal_system(np.diag([1j, -1j])))
    assert np.allclose(eta, SIGMA_X, atol=1e-12)
    assert intertwining_residual(np.diag([1j, -1j]), eta) <= 1e-12


def test_intertwiner_is_hermitian():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        h = with_spectrum(rng, kramers_spectrum(rng, n))
        eta = build_intertwiner(biorthonormal_system(h))
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
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            intertwining_residual(np.eye(2), [[bad, 0.0], [0.0, 1.0]])


def test_metric_condition_boundary(monkeypatch):
    # Hermitian metrics: cond(eta) = 1e20 is refused, 5e13 accepted
    with pytest.raises(SingularIntertwinerError, match="1.000e[+]20"):
        intertwining_residual(np.eye(2), np.diag([1.0, 1e-20]))
    assert intertwining_residual(np.eye(2), np.diag([1.0, 2e-14])) == 0.0
    with pytest.raises(SingularIntertwinerError, match="inf exceeds"):
        intertwining_residual(np.eye(2), np.zeros((2, 2)))
    # non-Hermitian metrics: cond about 2e15 refused, about 2e13 accepted
    with pytest.raises(SingularIntertwinerError, match="2.000e[+]15"):
        intertwining_residual(np.eye(2), [[1.0, 1.0], [0.0, 1e-15]])
    intertwining_residual(np.eye(2), [[1.0, 1.0], [0.0, 1e-13]])
    # the exactly Hermitian metric of the analysis takes the eigvalsh route
    routes = []
    svd = np.linalg.svd

    def spied(a, *args, **kwargs):
        routes.append(kwargs.get("hermitian"))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied)
    rng = np.random.default_rng(59)
    h = with_spectrum(rng, kramers_spectrum(rng, 8))
    build_analysis_report(h)
    eta = build_intertwiner(biorthonormal_system(h))
    intertwining_residual(h, eta + np.triu(np.full((8, 8), 1e-9), 1))
    assert routes == [True, False]


def test_witness_for_doubly_degenerate_real_eigenvalue():
    system = biorthonormal_system(np.diag([2.0, 2.0]))
    witness = build_antilinear_symmetry(system)
    assert np.allclose(witness.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.allclose(witness.matrix @ np.conj(witness.matrix), -np.eye(2), atol=1e-12)


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
    composed = op.matrix @ np.conj(other.matrix)
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

    with pytest.raises(ValueError, match="dimensions disagree"):
        commutator_residual(np.eye(2), AntilinearOperator(matrix=np.eye(3)))


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


def test_all_even_stack_matches_each_report():
    # scan's parity column over many systems at once, against the rule
    # kramers_test applies to each alone; a defective matrix stays None
    rng = np.random.default_rng(17)
    matrices = [with_spectrum(rng, kramers_spectrum(rng, 4)),
                with_spectrum(rng, odd_real_spectrum(rng, 4)),
                np.diag([1.0, 1.0, 2.0, 2.0]),
                np.diag([1.0, 1.0, 1.0, 1j]),      # one odd real group of three
                np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]]),
                np.diag([1j, -1j, 2.0, 2.0]),
                np.diag([1j, 2j, 3.0, 4.0])]
    _, _, _, kept, _, groups = spectral._group_stack(
        np.stack(matrices).astype(complex), spectral.DEFAULT_TOL,
        spectral.DEFAULT_COND_CEILING)
    expected = []
    for h in matrices:
        try:
            expected.append(kramers_test(h).all_even)
        except NotDiagonalizableError:
            expected.append(None)
    parity = np.full(kept.size, None)
    parity[kept] = spectral._real_groups(*groups)[1]
    assert parity.tolist() == expected
    assert expected == [True, False, True, False, None, True, False]
    empty = (np.zeros(0, dtype=complex), np.zeros(0, dtype=int), [], np.zeros(0),
             np.zeros(0))
    assert spectral._real_groups(*empty)[1] == []


def test_each_analysis_clusters_once(monkeypatch):
    clusters, classifications = [], []
    cluster, classify = spectral._cluster_stack, spectral._real_groups

    def counted_cluster(*args, **kwargs):
        clusters.append(cluster(*args, **kwargs))
        return clusters[-1]

    def counted_classify(*args, **kwargs):
        classifications.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(spectral, "_cluster_stack", counted_cluster)
    monkeypatch.setattr(spectral, "_real_groups", counted_classify)
    rng = np.random.default_rng(41)
    # admits a witness, has an odd real group, has an unpaired eigenvalue
    for h in (with_spectrum(rng, kramers_spectrum(rng, 6)),
              with_spectrum(rng, odd_real_spectrum(rng, 5)),
              np.diag([1j, 2j])):
        for analyze in (kramers_test, build_analysis_report):
            clusters.clear()
            classifications.clear()
            analyze(h)
            assert len(clusters) == 1
            assert len(classifications) == 1
            # the classifier reads the one radius the clustering computed
            assert classifications[0][3].tobytes() == clusters[0][4].tobytes()
        # the classifier itself clusters nothing: the system's one clustering
        clusters.clear()
        classifications.clear()
        try:
            spectral.classify_spectrum(biorthonormal_system(h))
        except NotPseudohermitianError:
            pass
        assert len(clusters) == 1 and len(classifications) == 1
        assert classifications[0][3].tobytes() == clusters[0][4].tobytes()


def _one_radius_case():
    # clustered at 0.5 * 10.4 = 5.2, the radius of the raw eigenvalues;
    # the group means 10.2 and 1+5.15j would give 5.1, and 1+5.15j lies
    # between the two radii from the real axis
    return np.diag([10, 10.4, 1 + 5.15j])


def test_one_radius_clusters_and_classifies():
    system = biorthonormal_system(_one_radius_case(), tol=0.5)
    assert system.radius == 5.2
    assert spectral.classify_spectrum(system).real_groups == [(1.0, 1), (10.2, 2)]
    report = kramers_test(_one_radius_case(), tol=0.5)
    assert report.pseudohermitian and not report.all_even
    assert report.witness is None
    # the metric on those groups is not backed by its residual, 0.67 over
    # the bound (tol + 1e3 n eps) cond(V) = 0.5: refused
    with pytest.raises(AmbiguousSpectrumError, match="metric intertwining residual"):
        build_analysis_report(_one_radius_case(), tol=0.5)


def _dense_pairings(system, cls):
    """``P`` and ``S`` as dense n x n 0/+-1 matrices, the reference for the
    column maps; ``S`` only where every real group is even."""
    n = system.dim
    ends = np.cumsum(system.multiplicities)
    ranges = [np.arange(end - m, end) for end, m in zip(ends, system.multiplicities)]
    p, s = np.zeros((n, n)), np.zeros((n, n))
    for k in cls.real_group_indices:
        cols = ranges[k]
        p[cols, cols] = 1.0
        half = len(cols) // 2
        s[cols[:half], cols[half:]] = 1.0
        s[cols[half:], cols[:half]] = -1.0
    for ku, kl in cls.pair_group_indices:
        a, b = ranges[ku], ranges[kl]
        p[a, b] = p[b, a] = 1.0
        s[b, a], s[a, b] = 1.0, -1.0
    return p, s


def _pairing_corpus():
    """Spectra with real groups of multiplicity 2, 4, 6, pairs of
    multiplicity 1, 2, 3, both mixed, and two with odd real groups."""
    rng = np.random.default_rng(71)

    def spectrum(real_mults, pair_mults):
        xs = separated_reals(rng, len(real_mults) + len(pair_mults))
        values = [x for x, m in zip(xs, real_mults) for _ in range(m)]
        for x, m in zip(xs[len(real_mults):], pair_mults):
            z = complex(x, rng.uniform(0.2, 2.0))
            values += [z] * m + [z.conjugate()] * m
        return np.array(values)[rng.permutation(len(values))]

    spectra = [spectrum([2, 4, 6], []), spectrum([4], []),
               spectrum([], [1, 2, 3]), spectrum([], [2]),
               spectrum([2, 4], [1, 3]), spectrum([6], [2]),
               kramers_spectrum(rng, 8), kramers_spectrum(rng, 10),
               spectrum([1, 3], [2]), odd_real_spectrum(rng, 7)]
    return [np.array([[2.5]])] + [with_spectrum(rng, values) for values in spectra]


def _assert_within_ulps(got, expected):
    assert np.abs(got - expected).max() <= 4 * np.spacing(np.abs(expected).max())


def test_pairing_column_maps_match_dense_pairings():
    witnesses = 0
    for h in _pairing_corpus():
        system = biorthonormal_system(h)
        cls = spectral.classify_spectrum(system)
        swap, partner, sign = symmetry._pairing(system, cls)
        n = system.dim
        assert np.array_equal(swap[swap], np.arange(n))
        assert np.array_equal(partner[partner], np.arange(n))
        assert np.array_equal(sign ** 2, np.ones(n))
        p, s = _dense_pairings(system, cls)
        assert np.array_equal(np.eye(n)[:, swap], p)
        phi = system.left_vectors
        expected = phi @ p @ phi.conj().T
        _assert_within_ulps(build_intertwiner(system),
                            0.5 * (expected + expected.conj().T))
        if all(mult % 2 == 0 for _, mult in cls.real_groups):
            witnesses += 1
            # S squares to minus one: each column and its partner differ in sign
            assert np.array_equal(sign * sign[partner], -np.ones(n))
            assert np.array_equal(np.eye(n)[:, partner] * sign, s)
            _assert_within_ulps(build_antilinear_symmetry(system).matrix,
                                system.right_vectors @ s @ phi.T)
    assert witnesses == 8


# ------------------------------------------- right or refused, never wrong
#
# A verdict is a claim at the system's radius and its eigenvalues' error
# bounds, and is refused when its witness does not bear it out.  Past a
# similarity of condition 1e7 the first-order bounds of distinct levels
# overlap and a verdict can still be silently wrong.  A refusal is any
# package error kramers_test raises.

def _verdict(matrix, **kwargs):
    """``(pseudohermitian, all_even, admits_symmetry)``, or None if the
    test refuses the matrix."""
    try:
        report = kramers_test(matrix, **kwargs)
    except PseudohermError:
        return None
    return report.pseudohermitian, report.all_even, report.admits_symmetry


def test_coarse_tol_does_not_admit_two_simple_levels():
    verdict = _verdict(np.diag([1.0, 2.0]), tol=0.5)
    assert verdict is None or not verdict[2]


def test_residual_gate_refuses_and_admits_at_coarse_tol():
    # merged levels whose witness residual, 0.63, exceeds tol = 0.5 are
    # refused; at 0.45, within it, the merge is the backward error asked for
    with pytest.raises(AmbiguousSpectrumError, match="ambiguous spectrum"):
        kramers_test(np.diag([1.0, 2.0]), tol=0.5)
    report = kramers_test(np.diag([1.0, 1.6]), tol=0.5)
    assert report.admits_symmetry
    assert 0.44 < report.commutator_residual <= 0.5


def test_bounds_the_gate_cannot_check_are_refused():
    # 1 and 1.01 under a 1e8 coupling: cond(V) 2e10 puts the gate at 20,
    # above any residual, and the levels' error bounds, ~444, would join
    # them into one even level that passes it.  The floor keeps them apart,
    # so the bounds would decide: refused, here, scaled, shifted and
    # transposed
    h = np.array([[1.0, 1e8], [0.0, 1.01]])
    for matrix in (h, 1e-170 * h, 1e140 * h, 3 * np.eye(2) - h, h.T):
        with pytest.raises(AmbiguousSpectrumError, match="resting on the error bounds"):
            kramers_test(matrix)
    with pytest.raises(AmbiguousSpectrumError):
        build_analysis_report(h)


def test_joins_that_leave_no_one_level_are_refused():
    # 1 and 1.0001 under a 1e4 coupling: cond(V) 2e8 puts the gate at 0.2,
    # their witness would pass it at 1.4e-8, and their error bounds join
    # them into one even level.  Their eigenvectors all but coincide, so
    # the group is off one level by about ||H||_F: refused, under every
    # transform no verdict may depend on
    bad = np.array([[1.0, 1e4], [0.0, 1.0001]])
    for transform in invariance_transforms(np.random.default_rng(0), 2).values():
        with pytest.raises(AmbiguousSpectrumError, match="resting on the error bounds"):
            kramers_test(transform(bad))
    # a double level split a thousand radii by a similarity of condition
    # 1e6 is one level up to rounding: joined, and the symmetry admitted
    s = conditioned_similarity(np.random.default_rng(0), 4, 1e6)
    h = s @ np.diag([1.0, 1.0, 2.0, 2.0]) @ np.linalg.inv(s)
    w = np.sort_complex(np.linalg.eigvals(h))
    system = biorthonormal_system(h)
    assert abs(w[1] - w[0]) > 1e3 * system.radius
    assert system.multiplicities.tolist() == [2, 2]
    assert kramers_test(h).admits_symmetry
    # in a stack, only the matrix whose join fails is dropped
    block = np.zeros((4, 4))
    block[:2, :2], block[2:, 2:] = bad, np.diag([5.0, 7.0])
    assert spectral._group_stack(np.stack([h, block, h]), 1e-9, 1e12)[3].tolist() == [
        True, False, True]


def test_unchecked_real_calls_and_pairs_are_refused(monkeypatch):
    # a real call beyond the floor: 1 + 1e-6i lies within an error bound
    # inflated to ~4e-4, and the gate, forced to 1, cannot check it
    h = np.diag([1 + 1e-6j, 3.0])
    monkeypatch.setattr(spectral, "_frobenius", lambda stack: np.full(len(stack), 1e12))
    assert biorthonormal_system(h).eigenvalues[0].imag == 1e-6
    monkeypatch.setattr(spectral, "_gate_bound", lambda tol, n, cond: np.ones_like(cond))
    with pytest.raises(AmbiguousSpectrumError, match="resting on the error bounds"):
        biorthonormal_system(h)
    # a pair beyond the floor, within the bounds, at cond(V) 1e10: refused
    monkeypatch.undo()
    eye = np.eye(2, dtype=complex)
    system = spectral.BiorthonormalSystem(
        np.array([1 + 1j, 1.001 - 1j]), np.array([1, 1]), eye, eye,
        condition=1e10, radius=1e-9, errors=np.array([0.01, 0.01]))
    with pytest.raises(AmbiguousSpectrumError, match="pair 1\\+1j"):
        spectral.classify_spectrum(system)
    system.condition = 1e5
    assert spectral.classify_spectrum(system).pair_group_indices == [(0, 1)]


@pytest.mark.parametrize("values", [[0, 0, 1, 1, 2j, -2j], [1e-12, 1e-12, 1, 1],
                                    [0, 0, 0, 0]])
def test_zero_and_tiny_levels_admit(values):
    # the radius is tol times the spectral radius, never per value: a zero
    # level's solver noise, ~1e-16, would exceed a radius of tol * |z|
    rng = np.random.default_rng(23)
    for _ in range(50):
        assert _verdict(with_spectrum(rng, values)) == (True, True, True)


def test_residuals_are_relative_to_the_matrix_norm():
    rng = np.random.default_rng(29)
    h = with_spectrum(rng, kramers_spectrum(rng, 4))
    # operators that fail the relations by O(1), so the residuals are
    # not rounding noise
    a = AntilinearOperator(rng.standard_normal((4, 4))
                           + 1j * rng.standard_normal((4, 4)))
    eta = bounded_similarity(rng, 4)
    eta = eta @ eta.conj().T
    # 1e-170 and 1e-300: every square of an entry underflows
    for scale in (1e-10, 1e10, 1e-170, 1e-300, 1e140):
        assert np.isclose(commutator_residual(scale * h, a),
                          commutator_residual(h, a), rtol=1e-12, atol=0)
        assert np.isclose(intertwining_residual(scale * h, eta),
                          intertwining_residual(h, eta), rtol=1e-12, atol=0)
    # the zero matrix is the one case taken absolutely
    assert commutator_residual(np.zeros((4, 4)), a) == 0.0


def test_verdict_survives_scaling_down():
    rng = np.random.default_rng(4048)
    changed = 0
    for n in (2, 3, 4, 6):
        for _ in range(20):
            h = with_spectrum(rng, separated_reals(rng, n))
            scaled = _verdict(1e-10 * h)
            changed += scaled is not None and scaled != _verdict(h)
    assert changed == 0


def _report_verdict(matrix):
    """``analyze``'s ``(pseudohermitian, all_even, admits_symmetry)`` and
    real multiplicities, or None if it refuses the matrix."""
    try:
        report = build_analysis_report(matrix)
    except PseudohermError:
        return None
    return (report.pseudohermitian, report.all_even, report.admits_symmetry,
            [mult for _, mult in report.real_degeneracies])


def test_verdicts_survive_scaling_shift_similarity_and_transposes():
    rng = np.random.default_rng(4099)
    compared = changed = 0
    for n in range(2, 13):
        for spectrum in (kramers_spectrum, odd_real_spectrum):
            if spectrum is kramers_spectrum and n % 2:
                continue
            for _ in range(3):
                h = with_spectrum(rng, spectrum(rng, n))
                expected = _verdict(h), _report_verdict(h)
                for name, transform in invariance_transforms(rng, n).items():
                    g = transform(h)
                    for verdict, got in zip(expected, (_verdict(g), _report_verdict(g))):
                        if verdict is not None and got is not None:
                            compared += 1
                            changed += got != verdict
    assert changed == 0
    # refusals are rare on a well-separated corpus, so the check has teeth
    assert compared >= 0.95 * 2 * 6 * 3 * (6 + 11)


def _similarity_sweep(c):
    """``S H S^-1`` for seeds 0-9, with H = diag(1, 1, -0.5, -0.5,
    0.3 +- 0.7i) and ``S = Q1 diag(logspace(0, log10 c, 6)) Q2``, whose
    condition number is c."""
    values = np.array([1.0, 1.0, -0.5, -0.5, 0.3 + 0.7j, 0.3 - 0.7j])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        s = conditioned_similarity(rng, 6, c)
        yield s @ np.diag(values) @ np.linalg.inv(s)


def test_ill_conditioned_similarity_is_right_or_refused():
    wrong = 0
    for h in _similarity_sweep(1e5):
        verdict = _verdict(h)
        wrong += verdict not in (None, (True, True, True))
    assert wrong == 0


_DISKS_OVERLAP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 5: at a similarity this ill-conditioned the first-order "
           "error disks of distinct levels overlap, so groups merge or split "
           "without a count certificate")


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e5, 1e6, 1e7,
                               pytest.param(1e8, marks=_DISKS_OVERLAP)])
def test_ill_conditioned_similarity_is_counted_by_the_sylvester_kernel(c):
    # the Sylvester kernel judges every draw (its gap stands clear), and
    # the groups must count its dimension d
    assert [_miscounted(h) for h in _similarity_sweep(c)] == [False] * 10


# the helicity model doubled, H (x) 1_2, commutes exactly with the
# antilinear map of sigma_z (x) i sigma_y, whose square is -1: sigma_z
# conj(H) = H sigma_z, and every entry involved is 0, +-1 or a coupling
I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
DOUBLED_WITNESS = np.kron(np.diag([1.0, -1.0]), I_SIGMA_Y).astype(complex)


def _doubled_models():
    """``H (x) 1_2`` for the model's real, complex and Hermitian regimes."""
    return {regime: np.kron(effective_hamiltonian(ModelParams(*case)), np.eye(2))
            for regime, case in zip(("real", "complex", "hermitian"), MODEL_REGIMES)}


def test_doubled_model_has_an_exact_witness():
    witness = AntilinearOperator(DOUBLED_WITNESS)
    assert square_residual(witness) == 0.0
    for h in _doubled_models().values():
        assert commutator_residual(h, witness) == 0.0


def _doubled_draws(c):
    """``(regime, draw, S H4 S^-1)`` for ten draws per regime of
    ``S = Q1 diag(logspace(0, log10 c, 4)) Q2``, whose condition number is c."""
    rng = np.random.default_rng(4129)
    for regime, h in _doubled_models().items():
        for draw in range(10):
            s = conditioned_similarity(rng, 4, c)
            yield regime, draw, s @ h @ np.linalg.inv(s)


def _miscounted(h):
    """Whether the classification of ``h`` is refused or its groups' sum
    of ``m_k m_l`` over conjugate groups is not the Sylvester kernel's
    dimension ``d``; None where the kernel's gap does not stand clear."""
    d, gap = sylvester_kernel(h)
    if gap <= 1e3:
        return None
    try:
        cls = spectral.classify_spectrum(biorthonormal_system(h))
    except PseudohermError:
        return True
    return (sum(m * m for _, m in cls.real_groups)
            + 2 * sum(m * m for _, _, m in cls.conjugate_pairs)) != d


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e5, 1e6,
                               pytest.param(1e8, marks=_DISKS_OVERLAP)])
def test_doubled_model_admits_under_similarity(c):
    # where the Sylvester kernel's gap stands clear, the groups must
    # count its dimension d
    refused, miscounted, compared = [], [], 0
    for regime, draw, h in _doubled_draws(c):
        try:
            admitted = kramers_test(h).admits_symmetry
        except PseudohermError:
            admitted = False
        if not admitted:
            refused.append((regime, draw))
        wrong = _miscounted(h)
        compared += wrong is not None
        if wrong:
            miscounted.append((regime, draw))
    assert refused == [] and miscounted == []
    assert compared == 30


def test_doubled_model_is_never_pseudohermitian_with_an_odd_level():
    # every real level of H (x) 1_2 is doubled: "pseudohermitian with an
    # odd real group" is wrong, where "not pseudohermitian" only refuses
    # too much; at cond 1e5 Hermitian draws 3 and 8 answer it
    wrong = []
    for regime, draw, h in _doubled_draws(1e5):
        try:
            verdict = kramers_test(h)
        except PseudohermError:
            continue
        if verdict.pseudohermitian and not verdict.all_even:
            wrong.append((regime, draw))
    assert wrong == []


# the helicity model paired with a second generator B, H (x) 1_2 +
# B (x) i sigma_y, commutes exactly with the same antilinear map, since
# sigma_z conj(B) = B sigma_z as for H; its levels are those of H + iB and
# H - iB, two simple conjugate pairs and no real level, so the pairing,
# not the parity of real levels, carries the verdict

def _paired_models():
    """``(H, B, H (x) 1_2 + B (x) i sigma_y)`` for H and B each the model's
    real, complex or Hermitian generator."""
    generators = [effective_hamiltonian(ModelParams(*case)) for case in MODEL_REGIMES[:3]]
    return [(h, b, np.kron(h, np.eye(2)) + np.kron(b, I_SIGMA_Y))
            for h in generators for b in generators]


def test_paired_model_has_an_exact_witness():
    witness = AntilinearOperator(DOUBLED_WITNESS)
    for h, b, paired in _paired_models():
        assert commutator_residual(paired, witness) == 0.0
        report = kramers_test(paired)
        assert report.admits_symmetry and report.real_degeneracies == []
        system = biorthonormal_system(paired)
        cls = spectral.classify_spectrum(system)
        assert cls.real_group_indices == []
        assert [m for _, _, m in cls.conjugate_pairs] == [1, 1]
        # the levels of H + iB and H - iB, as multisets
        levels = np.concatenate([np.linalg.eigvals(h + 1j * b),
                                 np.linalg.eigvals(h - 1j * b)])
        gaps = np.abs(system.expanded_eigenvalues()[:, None] - levels)
        assert sorted(gaps.argmin(axis=1).tolist()) == [0, 1, 2, 3]
        assert gaps.min(axis=1).max() <= 1e-14


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e5])
def test_paired_model_admits_under_similarity(c):
    # five draws per pair of S = Q1 diag(logspace(0, log10 c, 4)) Q2, whose
    # condition number is c; where the Sylvester kernel's gap stands clear,
    # sum m_k m_l over conjugate groups must be its dimension d
    rng = np.random.default_rng(4132)
    refused, miscounted, compared = [], [], 0
    for pair, (_, _, paired) in enumerate(_paired_models()):
        for draw in range(5):
            s = conditioned_similarity(rng, 4, c)
            h = s @ paired @ np.linalg.inv(s)
            try:
                admitted = kramers_test(h).admits_symmetry
            except PseudohermError:
                admitted = False
            if not admitted:
                refused.append((pair, draw))
            wrong = _miscounted(h)
            compared += wrong is not None
            if wrong:
                miscounted.append((pair, draw))
    assert refused == [] and miscounted == []
    assert compared == 45


def _odd_real_draws(c):
    """``(n, draw, S D S^-1)`` for ten draws of ``odd_real_spectrum`` D at
    each n in (3, 4, 5, 6, 8), under ``conditioned_similarity`` S of
    condition c; the spectra are the same at every c."""
    spectra, similarities = np.random.default_rng(7), np.random.default_rng(11)
    for n in (3, 4, 5, 6, 8):
        for draw in range(10):
            values = odd_real_spectrum(spectra, n)
            s = conditioned_similarity(similarities, n, c)
            yield n, draw, s @ np.diag(values) @ np.linalg.inv(s)


_KERNEL_MISREADS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 4: every verdict and group is right, but "
           "conftest.sylvester_kernel misreads d on draws (4, 0), (5, 0) and "
           "(5, 1), its gap still above 1e3")


@pytest.mark.parametrize("c", [1.0, 1e2, 1e4, 1e5, 1e6,
                               pytest.param(1e7, marks=_KERNEL_MISREADS),
                               pytest.param(1e8, marks=_DISKS_OVERLAP)])
def test_odd_real_corpus_is_right_or_refused(c):
    # pseudohermitian with an odd real level: no T with T^2 = -1; where
    # the verdict is given and the Sylvester kernel's gap stands clear,
    # the groups must count its dimension d
    wrong, miscounted = [], []
    for n, draw, h in _odd_real_draws(c):
        verdict = _verdict(h)
        if verdict is None:
            continue
        if verdict != (True, False, False):
            wrong.append((n, draw))
        if _miscounted(h):
            miscounted.append((n, draw))
    assert wrong == [] and miscounted == []
