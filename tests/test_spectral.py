"""Eigendecomposition, biorthonormality, and spectrum classification."""

import numpy as np
import pytest
from conftest import (
    MODEL_REGIMES,
    bounded_similarity,
    conditioned_similarity,
    kramers_spectrum,
    odd_real_spectrum,
    separated_reals,
    sylvester_kernel,
    with_spectrum,
)

from pseudoherm import (
    ModelParams,
    NotDiagonalizableError,
    NotPseudohermitianError,
    biorthonormal_system,
    classify_spectrum,
    effective_hamiltonian,
    kramers_test,
    model_eigenbasis,
    reconstruct,
    spectral,
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
    with pytest.raises(NotDiagonalizableError) as refused:
        biorthonormal_system(h, cond_ceiling=1e2)
    assert str(refused.value) == ("eigenvector matrix condition number 2.000e+03 "
                                  "exceeds ceiling 1.000e+02")


def test_input_validation():
    with pytest.raises(ValueError):
        biorthonormal_system(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        biorthonormal_system(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="nonempty"):
        biorthonormal_system(np.zeros((0, 0)))
    # NaN passes a plain `tol <= 0` check; inf would merge every eigenvalue
    for bad in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            biorthonormal_system(np.eye(2), tol=bad)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="cond_ceiling must be finite and positive"):
            biorthonormal_system(np.eye(2), cond_ceiling=bad)


def test_strided_complex_input():
    # a transposed, column-reversed or every-other-column complex matrix
    # is a view whose last axis is not contiguous; it is analyzed as its
    # contiguous copy
    rng = np.random.default_rng(61)
    h = with_spectrum(rng, kramers_spectrum(rng, 4))
    for view in (h.T, h[:, ::-1], np.repeat(h, 2, axis=1)[:, ::2]):
        system = biorthonormal_system(view)
        copied = biorthonormal_system(view.copy())
        assert system.eigenvalues.tobytes() == copied.eigenvalues.tobytes()
        assert system.right_vectors.tobytes() == copied.right_vectors.tobytes()
        assert system.errors.tobytes() == copied.errors.tobytes()


def test_stacked_pass_equals_single_matrix_calls():
    rng = np.random.default_rng(43)
    for n in (2, 4, 16):
        # a Jordan block split by 1e-14: eigenvector condition about 1e14
        near_defective = np.diag(1.0 + 1e-14 * np.arange(n)).astype(complex)
        near_defective[0, 1] = 1.0
        stack = np.stack([
            with_spectrum(rng, kramers_spectrum(rng, n)),
            near_defective,
            with_spectrum(rng, odd_real_spectrum(rng, n)),
            # an unpaired complex eigenvalue
            with_spectrum(rng, [0.5 + 1j, *separated_reals(rng, n - 1)]),
            # a wide spectrum next to a fine one: each row clusters at
            # its own radius, the fine levels 1e-5 apart stay apart
            with_spectrum(rng, 1e6 * np.array(separated_reals(rng, n))),
            with_spectrum(rng, 1.0 + 1e-5 * np.arange(n)),
            with_spectrum(rng, kramers_spectrum(rng, n)),
        ])
        vectors, _, cond, kept, perm, groups = spectral._group_stack(stack, 1e-9, 1e12)
        values, mults, counts, radii, errors = groups
        assert kept.tolist() == [True, False, True, True, True, True, True]
        # a matrix's groups and radius alone are its row of the stack's
        start, row = 0, 0
        for e, h in enumerate(stack):
            try:
                alone = biorthonormal_system(h)
            except NotDiagonalizableError as exc:
                assert not kept[e]
                assert str(exc) == (f"eigenvector matrix condition number {cond[e]:.3e} "
                                    "exceeds ceiling 1.000e+12")
                continue
            assert kept[e]
            stop = start + counts[row]
            stacked = {"eigenvalues": values[start:stop],
                       "multiplicities": mults[start:stop],
                       "right_vectors": vectors[e][:, perm[row]],
                       "errors": errors[start:stop]}
            for name, mine in stacked.items():
                single = getattr(alone, name)
                assert mine.dtype == single.dtype and mine.shape == single.shape
                assert mine.tobytes() == single.tobytes(), (n, name)
            assert np.float64(alone.radius).tobytes() == radii[row].tobytes()
            assert alone.tolerance == 1e-9
            assert cond[e] == alone.condition
            # cond(V), taken before the columns were grouped
            assert np.isclose(alone.condition, np.linalg.cond(alone.right_vectors),
                              rtol=1e-12, atol=0)
            if e == 5:
                assert alone.multiplicities.tolist() == [1] * n
            start, row = stop, row + 1
        assert start == values.size and row == len(counts) == radii.size


def test_group_representatives_are_member_means():
    # a representative is np.mean of its members in (real, imag) order,
    # bit for bit: a sum taken in another order can differ in the last
    # bit and reorder groups whose real parts tie
    rng = np.random.default_rng(47)
    rows, expected = [], []
    for sizes in ((1, 2, 3, 5, 8, 9, 17, 130), (130, 17, 9, 8, 5, 3, 2, 1)):
        centres = np.arange(len(sizes)) * 0.25 + 1j * rng.choice([0.0, 1.0], len(sizes))
        groups = [centre + 1e-12 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
                  for centre, k in zip(centres, sizes)]
        rows.append(rng.permutation(np.concatenate(groups)))
        members = [g[np.lexsort((g.imag, g.real))] for g in groups]
        expected.append(sorted((np.mean(m) for m in members),
                               key=lambda z: (z.real, z.imag)))
    rows = np.array(rows)
    _, means, mults, counts, _, _ = spectral._cluster_stack(rows, 1e-9,
                                                            np.zeros(rows.shape))
    assert counts == [8, 8]
    assert means.tobytes() == np.array(expected).ravel().tobytes()
    assert mults.tolist() == [1, 2, 3, 5, 8, 9, 17, 130, 130, 17, 9, 8, 5, 3, 2, 1]


def test_errors_are_read_off_the_left_vectors(monkeypatch):
    # kappa_i is the norm of the left vector of a unit right one, so a
    # group's error bound, n eps ||H||_F times its members' largest kappa_i,
    # follows from the system alone: the one inverse it takes gives both
    rng = np.random.default_rng(53)
    s = conditioned_similarity(rng, 8, 1e4)
    dense = s @ np.diag(kramers_spectrum(rng, 8)) @ np.linalg.inv(s)
    models = [effective_hamiltonian(ModelParams(*case)) for case in MODEL_REGIMES[:3]]
    inverses = []
    inv = np.linalg.inv

    def counted(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    for h in (dense, *models):
        inverses.clear()
        system = biorthonormal_system(h)
        assert len(inverses) == 1
        kappa = np.linalg.norm(system.left_vectors, axis=0)
        ends = np.cumsum(system.multiplicities)
        scale = system.dim * np.finfo(float).eps * np.linalg.norm(h)
        expected = [scale * kappa[end - m:end].max()
                    for end, m in zip(ends, system.multiplicities)]
        assert system.errors.shape == system.eigenvalues.shape
        assert np.allclose(system.errors, expected, rtol=1e-12, atol=0)
        # the dense matrix has doubled levels: some max is over members
        assert system.multiplicities.max() == (2 if h is dense else 1)
    # the closed-form system carries no rounding bound
    for case in MODEL_REGIMES[:3]:
        assert model_eigenbasis(ModelParams(*case)).errors.tolist() == [0.0, 0.0]


def test_errors_scale_with_the_matrix():
    # ||H||_F is taken over a power of two near the largest part: at
    # 1e-170 a plain sum of squares underflows to 0, and the pair +-0.25i
    # under a similarity of condition 1e5 would read "not pseudohermitian"
    rng = np.random.default_rng(0)
    s = conditioned_similarity(rng, 2, 1e5)
    h = s @ np.diag([0.25j, -0.25j]) @ np.linalg.inv(s)
    base = biorthonormal_system(h)
    for scale in (1e-170, 1e-300, 1e140):
        system = biorthonormal_system(scale * h)
        assert np.allclose(system.errors, scale * base.errors, rtol=1e-6, atol=0)
        assert kramers_test(scale * h).pseudohermitian


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
    # group g holds the columns from ends[g] - mults[g] up to ends[g]
    ends = np.cumsum(system.multiplicities)
    ranges = [np.arange(end - m, end) for end, m in zip(ends, system.multiplicities)]
    columns = np.concatenate(ranges)
    assert columns.tolist() == [0, 1, 2, 3]
    for g, cols in enumerate(ranges):
        block = h @ system.right_vectors[:, cols]
        assert np.allclose(block, system.right_vectors[:, cols]
                           * system.eigenvalues[g], atol=1e-9)


def _classify(spectrum):
    """The classification of the diagonal matrix with this spectrum;
    LAPACK returns a diagonal matrix's entries exactly."""
    return classify_spectrum(biorthonormal_system(np.diag(spectrum)))


def test_classify_real_and_paired():
    cls = _classify([1.0, 2.0, 3.0])
    assert cls.real_groups == [(1.0, 1), (2.0, 1), (3.0, 1)]
    assert cls.conjugate_pairs == []
    assert not cls.pair_group_indices

    cls = _classify([1 + 2j, 1 - 2j, 5.0])
    assert cls.real_groups == [(5.0, 1)]
    assert len(cls.conjugate_pairs) == 1
    upper, lower, mult = cls.conjugate_pairs[0]
    assert upper == 1 + 2j and lower == 1 - 2j and mult == 1


def test_classify_rejects_unpaired_multiplicity():
    with pytest.raises(NotPseudohermitianError):
        _classify([1j, 1j, -1j])


def test_classify_rejects_missing_partner():
    with pytest.raises(NotPseudohermitianError):
        _classify([1j, 2j])
    with pytest.raises(NotPseudohermitianError):
        _classify([0.5 - 0.25j, 1.0])


def test_classify_conjugation_equivariance():
    rng = np.random.default_rng(23)
    # jitter in the real part interleaves the members of the 1+2i and
    # 1-2i groups under the lexicographic sort
    jittered = np.array([1 + 2j, 1 + 1e-12 - 2j, 1 + 1e-12 + 2j, 1 - 2j,
                         3.0, 3.0 + 1e-13])
    for spectrum in (kramers_spectrum(rng, 8), jittered):
        forward = _classify(spectrum)
        assert forward == _classify(spectrum)
        for moved in (np.conj(spectrum), spectrum[rng.permutation(len(spectrum))]):
            other = _classify(moved)
            assert forward.real_groups == other.real_groups
            assert forward.conjugate_pairs == other.conjugate_pairs
    assert [mult for _, mult in forward.real_groups] == [2]
    assert [mult for _, _, mult in forward.conjugate_pairs] == [2]


def test_classify_takes_a_system_only():
    # a raw spectrum is not clustered and classified a second way
    for raw in ([1.0, 2.0], np.array([1j, -1j])):
        with pytest.raises(AttributeError):
            classify_spectrum(raw)


def test_classify_agrees_with_kramers_test():
    rng = np.random.default_rng(53)
    for n in (2, 4, 6):
        for spectrum in (kramers_spectrum(rng, n), odd_real_spectrum(rng, n),
                         [0.5 + 1j, *separated_reals(rng, n - 1)]):
            h = with_spectrum(rng, spectrum)
            report = kramers_test(h)
            try:
                cls = classify_spectrum(biorthonormal_system(h))
            except NotPseudohermitianError:
                assert not report.pseudohermitian
                continue
            assert report.pseudohermitian
            assert cls.real_groups == report.real_degeneracies


def test_stacked_classifier_equals_each_system_alone():
    rng = np.random.default_rng(61)
    spectra = [
        [1j, -1j, 2 + 1j, 2 - 1j, 3.0, 3.0],         # admits, two pairs
        [1.0, 2.0, 3.0, 0.5j, -0.5j, 4.0],           # odd real groups
        [1j, -1j, -2j, -2j, 1.0, 1.0],               # a stray lower group
        [1j, 1j, -1j, 2.0, 3.0, 4.0],                # mismatched multiplicities
        [1j, 2j, 3j, 1.0, 2.0, 3.0],                 # no lower group
        [1 + 1j, 1.5 - 1j, 2.0, 2.0, 4.0, 4.0],      # partner out of reach
        [1 + 1j, 1 - 1j, -1 + 3j, -1 - 3j, 2 + 1j, 2 - 1j],  # three pairs
        [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],              # real, all even
    ]
    matrices = [with_spectrum(rng, spectrum) for spectrum in spectra]
    _, _, _, kept, _, groups = spectral._group_stack(
        np.stack(matrices), spectral.DEFAULT_TOL, spectral.DEFAULT_COND_CEILING)
    assert kept.tolist() == [True] * len(matrices)
    real, all_even = spectral._real_groups(*groups)
    start = 0
    messages = []
    for e, matrix in enumerate(matrices):
        system = biorthonormal_system(matrix)
        stop = start + len(system.eigenvalues)
        alone = spectral._real_groups(
            system.eigenvalues, system.multiplicities, [len(system.eigenvalues)],
            np.array([system.radius]), system.errors)
        assert np.array_equal(real[start:stop], alone[0])
        assert [all_even[e]] == alone[1]
        # the N = 1 call is the one classify_spectrum pairs after
        cls, even, refusal = spectral._classification(system)
        assert even == all_even[e]
        assert cls.real_group_indices == np.flatnonzero(real[start:stop]).tolist()
        try:
            classify_spectrum(system)
        except NotPseudohermitianError as error:
            messages.append(str(error))
            assert str(refusal) == str(error)
        else:
            messages.append(None)
            assert refusal is None
            assert all(not real[start + k] and not real[start + j]
                       for k, j in cls.pair_group_indices)
        assert all_even[e] == kramers_test(matrices[e]).all_even
        start = stop
    assert start == real.size
    assert all_even == [True, False, True, False, False, True, True, True]
    assert [m is None for m in messages] == [True, True, False, False, False,
                                             False, True, True]
    assert messages[2].startswith("eigenvalues without conjugate partners")
    assert "mismatched multiplicities 2 and 1" in messages[3]
    assert messages[4].endswith("has no conjugate partner")
    assert messages[5].endswith("within tolerance")
    empty = spectral._real_groups(np.zeros(0, dtype=complex), np.zeros(0, dtype=int),
                                  [], np.zeros(0), np.zeros(0))
    assert empty[0].size == 0 and empty[1] == []


def test_pairing_follows_group_order():
    # the first upper group takes its nearest lower one, -1i, although
    # -1i is nearer still to the second upper group; a mutual-nearest
    # rule would pair those two and leave the first without a partner
    h = np.diag([-7e-10 + 1j, 4e-10 + 1j, -1j, 1.2e-9 - 1j])
    cls = classify_spectrum(biorthonormal_system(h))
    assert cls.eigenvalues == [-7e-10 + 1j, -1j, 4e-10 + 1j, 1.2e-9 - 1j]
    assert cls.pair_group_indices == [(0, 1), (2, 3)]
    report = kramers_test(h)
    assert report.admits_symmetry
    assert report.commutator_residual == pytest.approx(7.5166e-10, rel=1e-4)


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
        cls = _classify(spectrum)
        total = sum(m for _, m in cls.real_groups)
        total += 2 * sum(m for _, _, m in cls.conjugate_pairs)
        assert total == n


def test_sylvester_kernel_on_known_spectra():
    # diag(1, 1, 2i, -2i): 2^2 for the real level, 2 * 1 for the pair
    assert sylvester_kernel(np.diag([1.0, 1.0, 2j, -2j]))[0] == 6
    # unpaired levels leave no null block: no gap stands clear
    assert sylvester_kernel(np.diag([1j, 2j]))[1] < 1e3
    assert sylvester_kernel(np.diag([1.0, 3.0, 3.0, 3.0]))[0] == 10
    # a multiple of the identity, and zero: every X commutes
    assert sylvester_kernel(2.5 * np.eye(3))[0] == sylvester_kernel(np.zeros((3, 3)))[0] == 9
    with pytest.raises(ValueError):
        sylvester_kernel(np.eye(25))


def test_classification_matches_the_sylvester_kernel():
    rng = np.random.default_rng(4111)
    compared = 0
    for n in range(2, 13):
        for spectrum in (kramers_spectrum, odd_real_spectrum):
            if spectrum is kramers_spectrum and n % 2:
                continue
            for _ in range(3):
                h = with_spectrum(rng, spectrum(rng, n))
                d, gap = sylvester_kernel(h)
                if gap <= 1e3:
                    continue
                cls = classify_spectrum(biorthonormal_system(h))
                claimed = (sum(m * m for _, m in cls.real_groups)
                           + 2 * sum(m * m for _, _, m in cls.conjugate_pairs))
                assert claimed == d, (n, spectrum.__name__)
                compared += 1
    # the corpus is well separated, so the gap stands clear almost always
    assert compared >= 0.95 * 3 * (6 + 11)


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
