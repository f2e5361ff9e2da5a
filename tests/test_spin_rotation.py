"""Two-level rotational model: closed forms against the generic pipeline."""

import re
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import MODEL_REGIMES, MODEL_SCALES, scaled_model

from pseudoherm import (
    ComplexSpectrumRegimeError,
    DegenerateModelError,
    EvolutionRangeError,
    ModelParams,
    ZeroSplittingError,
    biorthonormal_system,
    build_intertwiner,
    coupling_ratio,
    effective_hamiltonian,
    evolution_operator,
    intertwining_residual,
    kramers_test,
    level_splitting,
    model_eigenbasis,
    model_intertwiner,
    probe_asymmetry,
    probe_probability,
    probe_state,
    real_spectrum_regime,
    reconstruct,
    spin_flip_probability,
    time_asymmetry,
    transition_probability,
)
from pseudoherm import spin_rotation

P1 = ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=1.0, k2=0.5)
HERMITIAN = ModelParams(E=1.0, muB=0.0, omega2=1.0, k1=1.0, k2=1.0)
COMPLEX_REGIME = ModelParams(E=1.0, muB=0.3, omega2=1.0, k1=1.0, k2=0.5)
SPLITTING = 0.24494897427831780982  # sqrt(0.06)


def test_effective_hamiltonian_entries():
    h = effective_hamiltonian(P1)
    assert np.allclose(h, [[1.0, 0.4j], [-0.15j, 1.0]], atol=1e-15)
    h = effective_hamiltonian(HERMITIAN)
    assert np.allclose(h, [[1.0, 0.5j], [-0.5j, 1.0]], atol=1e-15)
    h = effective_hamiltonian(ModelParams(E=0.0, muB=0.3, omega2=1.0,
                                          k1=1.0, k2=0.5))
    assert np.allclose(h, [[0.0, 0.2j], [0.05j, 0.0]], atol=1e-15)


def test_generator_stack_equals_each_effective_hamiltonian():
    values = np.array([-1.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1e-300, 3e150])
    grid = np.array(list(product(values, values, values[::3]))).T
    for E, omega2 in ((1.0, 1.0), (-0.0, 2.0), (0.3, -0.7)):
        fields = SimpleNamespace(E=E, omega2=omega2, k1=grid[0], k2=grid[1], muB=grid[2])
        stack = spin_rotation._hamiltonian_stack(fields)
        assert stack.shape == (grid.shape[1], 2, 2)
        for h, (k1, k2, muB) in zip(stack, grid.T.tolist()):
            params = ModelParams(E=E, muB=muB, omega2=omega2, k1=k1, k2=k2)
            assert h.tobytes() == effective_hamiltonian(params).tobytes()
            # scalar arithmetic as reference, signed zeros included
            alpha, beta = k1 * omega2 / 2.0 - muB, k2 * omega2 / 2.0 - muB
            scalar = np.array([[E, 1j * alpha], [-1j * beta, E]], dtype=complex)
            assert h.tobytes() == scalar.tobytes()


def test_coupling_ratio_values():
    assert coupling_ratio(HERMITIAN) == 1.0
    assert abs(coupling_ratio(P1) - 8.0 / 3.0) <= 1e-15
    assert abs(coupling_ratio(COMPLEX_REGIME) - (-4.0)) <= 1e-15
    assert isinstance(coupling_ratio(P1), float)


def test_coupling_ratio_degenerate_denominator():
    with pytest.raises(DegenerateModelError):
        coupling_ratio(ModelParams(E=1.0, muB=0.25, omega2=1.0,
                                   k1=1.0, k2=0.5))


def test_level_splitting_values():
    assert abs(level_splitting(P1) - SPLITTING) <= 1e-15
    assert abs(level_splitting(COMPLEX_REGIME) - 0.1j) <= 1e-15
    zero_alpha = ModelParams(E=1.0, muB=0.5, omega2=1.0, k1=1.0, k2=0.6)
    assert level_splitting(zero_alpha) == 0.0


def test_splitting_is_the_plain_root_where_the_product_is_normal():
    rng = np.random.default_rng(31)
    k1, k2 = (rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-150, 150, 4000)
              for _ in range(2))
    k1[:3], k2[:3] = [0.0, -0.0, 2.0], [1.0, 3.0, -0.0]
    fields = SimpleNamespace(E=1.0, muB=0.0, omega2=2.0, k1=k1, k2=k2)
    plain = np.sqrt((k1 * k2).astype(complex))
    assert spin_rotation._splitting(fields).tobytes() == plain.tobytes()


def test_real_spectrum_regime():
    assert real_spectrum_regime(P1) is True
    assert real_spectrum_regime(COMPLEX_REGIME) is False
    # vanishing product sits on the boundary and does not qualify
    boundary = ModelParams(E=1.0, muB=0.5, omega2=1.0, k1=1.0, k2=0.6)
    assert real_spectrum_regime(boundary) is False
    # so does a product of one sign whose coupling vanishes by the model's
    # rule; the closed-form metric is refused as outside the regime
    for vanishing in (ModelParams(k1=1.0, k2=1e-18), ModelParams(k1=1e-18, k2=1.0)):
        assert real_spectrum_regime(vanishing) is False
        with pytest.raises(ComplexSpectrumRegimeError):
            model_intertwiner(vanishing)
    assert real_spectrum_regime(ModelParams(k1=1.0, k2=1e-10)) is True


def test_model_eigenbasis_biorthonormality():
    for params in (P1, COMPLEX_REGIME, HERMITIAN):
        system = model_eigenbasis(params)
        gram = system.left_vectors.conj().T @ system.right_vectors
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        assert np.isclose(system.condition, np.linalg.cond(system.right_vectors),
                          rtol=1e-12, atol=0)
        h = effective_hamiltonian(params)
        assert np.linalg.norm(reconstruct(system) - h) <= 1e-10 * max(
            1.0, np.linalg.norm(h))


def test_model_eigenbasis_eigenvalues():
    system = model_eigenbasis(P1)
    expected = sorted([1.0 + SPLITTING, 1.0 - SPLITTING])
    got = sorted(system.eigenvalues.real)
    assert np.allclose(got, expected, atol=1e-10)
    assert np.max(np.abs(system.eigenvalues.imag)) <= 1e-12
    numeric = sorted(np.linalg.eigvals(effective_hamiltonian(P1)),
                     key=lambda z: (z.real, z.imag))
    assert np.allclose(sorted(system.eigenvalues,
                              key=lambda z: (z.real, z.imag)),
                       numeric, atol=1e-10)


def test_model_eigenbasis_vector_pairing():
    system = model_eigenbasis(P1)
    root = np.sqrt(8.0 / 3.0)
    upper = int(np.argmax(system.eigenvalues.real))
    column = system.right_vectors[:, upper]
    expected = np.array([1j * root, 1.0]) / np.sqrt(1.0 + root * root)
    phase = column[1] / expected[1]
    assert np.allclose(column, phase * expected, atol=1e-12)


def test_model_eigenbasis_degenerate_couplings():
    with pytest.raises(DegenerateModelError):
        model_eigenbasis(ModelParams(E=1.0, muB=0.25, omega2=1.0,
                                     k1=1.0, k2=0.5))
    with pytest.raises(ZeroSplittingError):
        model_eigenbasis(ModelParams(E=1.0, muB=0.5, omega2=1.0,
                                     k1=1.0, k2=0.6))


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type of the model error it raises."""
    try:
        return call(*args)
    except (DegenerateModelError, ZeroSplittingError) as exc:
        return type(exc)


def _assert_close(got, expected, rtol, atol=0.0):
    """``got`` equals ``expected`` to rounding, or both are one refusal."""
    if isinstance(got, type) or isinstance(expected, type):
        assert got is expected
    else:
        assert np.all(np.abs(got - expected) <= rtol * np.abs(expected) + atol)


def _eigenvalues(params, unit):
    return model_eigenbasis(params).eigenvalues / unit


@pytest.mark.parametrize("c", MODEL_SCALES)
def test_model_decisions_survive_scaling(c):
    times = np.linspace(-10.0, 10.0, 41)
    for case in MODEL_REGIMES:
        params, scaled = ModelParams(*case), ModelParams(*scaled_model(case, c))
        assert real_spectrum_regime(scaled) == real_spectrum_regime(params)
        _assert_close(_outcome(coupling_ratio, scaled),
                      _outcome(coupling_ratio, params), 1e-14)
        _assert_close(_outcome(_eigenvalues, scaled, c),
                      _outcome(_eigenvalues, params, 1.0), 1e-14)
        # each closed form at t/c is the same probability, to rounding
        for closed_form in (spin_flip_probability, probe_probability,
                            probe_asymmetry):
            _assert_close(_outcome(closed_form, scaled, times / c),
                          _outcome(closed_form, params, times), 1e-12, 1e-13)


def test_model_intertwiner_values():
    eta = model_intertwiner(P1)
    assert np.allclose(eta, np.diag([0.375, 1.0]), atol=1e-15)
    assert np.allclose(model_intertwiner(HERMITIAN), np.eye(2),
                       atol=1e-15)
    with pytest.raises(ComplexSpectrumRegimeError):
        model_intertwiner(COMPLEX_REGIME)


def test_model_intertwiner_certifies():
    for params in (P1, HERMITIAN,
                   ModelParams(E=0.5, muB=-0.2, omega2=1.5, k1=2.0, k2=0.8)):
        h = effective_hamiltonian(params)
        assert intertwining_residual(h, model_intertwiner(params)) <= 1e-10


def test_model_and_generic_intertwiners_agree_up_to_scale():
    for params in (P1,
                   ModelParams(E=0.5, muB=-0.2, omega2=1.5, k1=2.0, k2=0.8)):
        h = effective_hamiltonian(params)
        closed = model_intertwiner(params)
        generic = build_intertwiner(biorthonormal_system(h))
        assert intertwining_residual(h, generic) <= 1e-10
        ratio = generic @ np.linalg.inv(closed)
        scale = ratio[0, 0].real
        assert scale > 0
        assert np.linalg.norm(ratio - scale * np.eye(2)) <= 1e-10 * scale


def test_spin_flip_probability_values():
    assert spin_flip_probability(P1, 0.0) == 0.0
    assert abs(spin_flip_probability(P1, 1.0)
               - 0.156825490577754467) <= 1e-12
    peak = np.pi / (2.0 * SPLITTING)
    assert abs(spin_flip_probability(P1, peak) - 8.0 / 3.0) <= 1e-12


def test_probe_probability_values():
    assert abs(probe_probability(P1, 0.0) - 0.5) <= 1e-15
    assert abs(probe_probability(P1, 1.0) - 0.93319887231186702615) <= 1e-12
    assert abs(probe_probability(P1, -1.0) - 0.16481705929922951572) <= 1e-12


def test_probe_asymmetry_values():
    assert probe_asymmetry(P1, 0.0) == 0.0
    assert abs(probe_asymmetry(P1, 1.0) - 0.76838181301263751043) <= 1e-12


def test_probe_asymmetry_survives_equal_couplings():
    # R = 1/2 for these parameters, so the closed form is sin(t)
    for t in (0.4, 1.0, 3.0):
        assert abs(probe_asymmetry(HERMITIAN, t) - np.sin(t)) <= 1e-12


def test_closed_forms_match_pipeline_in_complex_regime():
    system = biorthonormal_system(effective_hamiltonian(COMPLEX_REGIME))
    down = np.array([0.0, 1.0], dtype=complex)
    up = np.array([1.0, 0.0], dtype=complex)
    for t in (0.4, 1.7, -2.3):
        flip = transition_probability(system, down, up, t)
        assert abs(flip - spin_flip_probability(COMPLEX_REGIME, t)) <= 1e-10
        fwd = transition_probability(system, down, probe_state(), t)
        assert abs(fwd - probe_probability(COMPLEX_REGIME, t)) <= 1e-10
        asym = time_asymmetry(system, down, probe_state(), t)
        assert abs(asym - probe_asymmetry(COMPLEX_REGIME, t)) <= 1e-10


def test_kramers_verdict_for_model():
    report = kramers_test(effective_hamiltonian(P1))
    assert report.pseudohermitian is True
    assert [mult for _, mult in report.real_degeneracies] == [1, 1]
    assert np.allclose([value for value, _ in report.real_degeneracies],
                       [1.0 - SPLITTING, 1.0 + SPLITTING], atol=1e-10)
    assert report.all_even is False
    assert report.witness is None
    # complex-regime spectrum has no real levels, so evenness holds vacuously
    report = kramers_test(effective_hamiltonian(COMPLEX_REGIME))
    assert report.all_even is True
    assert report.witness is not None
    assert report.square_residual <= 1e-12


def test_probability_range_guard():
    with pytest.raises(EvolutionRangeError):
        spin_flip_probability(COMPLEX_REGIME, 1e5)
    with pytest.raises(EvolutionRangeError):
        probe_asymmetry(COMPLEX_REGIME, -1e5)
    # real-regime splittings never overflow
    assert np.isfinite(probe_probability(P1, 1e5))
    # |Im(R t)| = 450 is in range, but the squared amplitude overflows
    with pytest.raises(EvolutionRangeError, match="t = 300 overflows"):
        probe_probability(ModelParams(k1=3.0, k2=-3.0), 300.0)


# both regimes, the Hermitian limit, and a vanishing splitting (R = 0,
# where every z is zero and sinc takes its t = 0 branch)
ARRAY_PARAMS = (P1, COMPLEX_REGIME, HERMITIAN,
                ModelParams(E=1.0, muB=0.5, omega2=1.0, k1=1.0, k2=0.6))
ARRAY_TIMES = np.array([0.0, -0.0, 1e-9, -1e-9, 0.4, -1.7, 3.0, -12.5, 40.0, 1e3])
CLOSED_FORMS = (spin_flip_probability, probe_probability, probe_asymmetry)


def test_closed_forms_evaluate_time_arrays_bit_for_bit():
    for params in ARRAY_PARAMS:
        for closed_form in CLOSED_FORMS:
            values = closed_form(params, ARRAY_TIMES)
            assert isinstance(values, np.ndarray) and values.dtype == float
            scalars = [closed_form(params, float(t)) for t in ARRAY_TIMES]
            assert all(type(value) is float for value in scalars)
            # tobytes tells -0.0 from 0.0
            assert values.tobytes() == np.array(scalars).tobytes()
            grid = closed_form(params, ARRAY_TIMES.reshape(2, 5))
            assert grid.shape == (2, 5)
            assert grid.tobytes() == values.tobytes()


def test_closed_forms_refuse_any_non_finite_time():
    for bad in (np.nan, np.inf, -np.inf):
        for position in (0, 4, -1):
            times = ARRAY_TIMES.copy()
            times[position] = bad
            for closed_form in CLOSED_FORMS:
                with pytest.raises(ValueError, match="time must be finite"):
                    closed_form(P1, times)


def test_closed_form_range_error_names_first_offending_time():
    # 2 |Im R| t exceeds the exponent range from |t| = 3500 on
    times = np.array([1.0, -2.0, 2e4, -5e4, 3e4])
    for closed_form in CLOSED_FORMS:
        with pytest.raises(EvolutionRangeError) as scalar:
            closed_form(COMPLEX_REGIME, 2e4)
        with pytest.raises(EvolutionRangeError) as array:
            closed_form(COMPLEX_REGIME, times)
        assert str(array.value) == str(scalar.value)
    # the forward probe grows as exp(3t) and decays backward in time
    growing = ModelParams(k1=3.0, k2=-3.0)
    with pytest.raises(EvolutionRangeError, match="t = 310 overflows"):
        probe_probability(growing, np.array([1.0, -400.0, 200.0, 310.0, 320.0]))


def test_closed_forms_refuse_overflowing_exponent_without_warning():
    # R t overflows to inf: each closed form refuses it as out of range,
    # with no numpy warning first (tier-1 turns RuntimeWarning into an error)
    steep = ModelParams(k1=1e150, k2=-1e150)
    for closed_form in CLOSED_FORMS:
        for t in (1e300, np.array([0.0, 5e299, 1e300])):
            with pytest.raises(EvolutionRangeError, match="= inf exceeds"):
                closed_form(steep, t)


def test_closed_forms_refuse_growth_past_the_limit_with_finite_values():
    # |Im| of the exponent is 705: past the limit, though cosh and sinh
    # are still finite there
    for closed_form, t in ((spin_flip_probability, 3525.0),
                           (probe_probability, 7050.0),
                           (probe_asymmetry, 3525.0)):
        for times in (t, np.array([0.0, t])):
            with pytest.raises(EvolutionRangeError, match="7.050e.02 exceeds"):
                closed_form(COMPLEX_REGIME, times)


def test_stacked_closed_forms_match_each_model():
    # models that pass, a Jordan block (beta = 0) that passes too, one
    # whose growth leaves the range by t = 3525 and one whose value overflows
    k1 = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 2e4, 1e-300])
    k2 = np.array([0.5, 0.5, 0.5, 1.0, -3.0, -2e-7, -1e-300])
    muB = np.array([0.1, 0.25, 0.3, 0.0, 0.0, 0.0, 0.0])
    fields = SimpleNamespace(E=1.0, omega2=1.0, k1=k1, k2=k2, muB=muB)
    forms = ((spin_rotation._flip, spin_flip_probability),
             (spin_rotation._probe, probe_probability),
             (spin_rotation._asymmetry, probe_asymmetry))
    for form, closed_form in forms:
        for t in (np.linspace(-3525.0, 3525.0, 7), 11060.0):
            values, refusals = spin_rotation._closed_form_stack(fields, t, form)
            assert values.shape == (k1.size, *np.shape(t))
            for row, refusal, point in zip(values, refusals, zip(k1, k2, muB)):
                params = ModelParams(E=1.0, omega2=1.0, k1=point[0], k2=point[1],
                                     muB=point[2])
                if refusal is None:
                    assert row.tobytes() == np.asarray(closed_form(params, t)).tobytes()
                else:
                    with pytest.raises(type(refusal), match=re.escape(str(refusal))):
                        closed_form(params, t)
            assert refusals[1] is None  # the beta = 0 row, checked above
        assert {type(r) for r in refusals} == {type(None), EvolutionRangeError}


def test_spin_flip_keeps_its_precision_at_small_angles():
    # the series (alpha t)^2 (1 - (Rt)^2/3) of the flip has its next term
    # below 5e-18 relative for |Rt| <= 1e-4; (chi/2)(1 - cos 2Rt) cancels there
    cases = [((0.1, 0.5), [1e-9, -1e-9, 1e-6, -1e-6]),  # (muB, k2), times
             ((0.25, 0.5 + 2e-8), [1e-9, 1e-6, 1e-3, 0.5, -1.0, 1.5])]
    for (muB, k2), times in cases:
        params = ModelParams(muB=muB, k2=k2)
        alpha, beta = 1.0 / 2.0 - muB, k2 / 2.0 - muB
        rt = np.sqrt(alpha * beta) * np.array(times)
        assert np.abs(rt).max() <= 1e-4
        expected = (alpha * np.array(times)) ** 2 * (1.0 - rt * rt / 3.0)
        scalars = [spin_flip_probability(params, t) for t in times]
        for got in (spin_flip_probability(params, np.array(times)), np.array(scalars)):
            assert np.all(np.abs(got - expected) <= 1e-12 * expected)


# H - E is nilpotent where a coupling vanishes, so the propagator is
# exp(-iEt) (1 - i t (H - E)): [[1, alpha t], [0, 1]] at beta = 0 and
# [[1, 0], [-beta t, 1]] at alpha = 0, up to that phase.  Its entries give
# the flip |U_12|^2 = (alpha t)^2, the probe |U_12 + U_22|^2 / 2 =
# (1 + alpha t)^2 / 2 and the asymmetry (1 + alpha t)^2/2 - (1 - alpha t)^2/2
# = 2 alpha t (with alpha t = 0 at alpha = 0).
JORDAN_PARAMS = (ModelParams(muB=0.25, k2=0.5), ModelParams(muB=0.75, k2=1.5),
                 ModelParams(muB=0.5, k2=0.6))


def test_closed_forms_take_the_jordan_limits():
    times = np.array([0.0, -0.0, 1e-9, -0.4, 1.7, -12.5, 40.0, 3e5])
    for params in JORDAN_PARAMS:
        alpha = params.k1 * params.omega2 / 2.0 - params.muB
        expected = ((alpha * times) ** 2, 0.5 * (1.0 + alpha * times) ** 2,
                    2.0 * alpha * times)
        for closed_form, values in zip(CLOSED_FORMS, expected):
            scalars = [closed_form(params, t) for t in times.tolist()]
            for got in (closed_form(params, times), np.array(scalars)):
                assert np.all(np.abs(got - values) <= 1e-15 * np.abs(values))


def test_spin_flip_is_never_negative_zero():
    # every regime and sign of alpha, at both signed zeros of time; the
    # times stop short of 1e3, where complex-regime growth leaves the range
    rng = np.random.default_rng(7)
    k1, k2, muB = rng.uniform(-1.0, 1.0, (3, 200))
    fields = SimpleNamespace(E=1.0, omega2=1.0, k1=k1, k2=k2, muB=muB)
    values, refusals = spin_rotation._closed_form_stack(
        fields, ARRAY_TIMES[:-1], spin_rotation._flip)
    assert refusals == [None] * k1.size and not np.signbit(values).any()
    for params in ARRAY_PARAMS + JORDAN_PARAMS:
        assert not np.signbit(spin_flip_probability(params, ARRAY_TIMES)).any()
        assert not any(np.signbit(spin_flip_probability(params, t))
                       for t in ARRAY_TIMES.tolist())


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(E=np.nan)
    with pytest.raises(ValueError):
        ModelParams(k1=np.inf)
    # finite fields whose couplings k*omega2/2 - muB overflow
    with pytest.raises(ValueError, match=r"k1\*omega2/2 - muB must be finite"):
        ModelParams(k1=1e308, omega2=10.0)
    with pytest.raises(ValueError, match=r"k2\*omega2/2 - muB must be finite"):
        ModelParams(k2=-1e308, omega2=1.0, muB=1.7e308)
    # finite couplings whose squares overflow the generator's norm
    norm = r"squared generator norm 2\*E\*\*2 \+ alpha\*\*2 \+ beta\*\*2 must be finite"
    for fields in ({"k1": 1e200, "k2": 1e200}, {"k1": 1e200, "k2": 1e-100},
                   {"E": 1e155}, {"muB": 1e160}):
        with pytest.raises(ValueError, match=norm):
            ModelParams(**fields)
    with pytest.raises(ValueError):
        spin_flip_probability(P1, np.nan)


def test_probe_state_is_normalized():
    state = probe_state()
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-15
    assert np.allclose(state, [1.0 / np.sqrt(2.0)] * 2, atol=1e-15)


def test_evolution_operator_from_model_basis():
    # the closed-form basis feeds the generic propagator directly
    u_model = evolution_operator(model_eigenbasis(P1), 1.0)
    u_generic = evolution_operator(
        biorthonormal_system(effective_hamiltonian(P1)), 1.0)
    assert np.linalg.norm(u_model - u_generic) <= 1e-12
