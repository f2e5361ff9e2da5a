"""Spectral propagators: semigroup, closed forms, unitary limit, guards."""

import numpy as np
import pytest
from conftest import kramers_spectrum, with_spectrum

from pseudoherm import (
    EvolutionRangeError,
    ModelParams,
    biorthonormal_system,
    effective_hamiltonian,
    evolution_operator,
    probe_state,
    time_asymmetry,
    transition_probability,
)

# reference parameter point: couplings 1 and 0.5, magnetic term 0.1
P1 = ModelParams(E=1.0, muB=0.1, omega2=1.0, k1=1.0, k2=0.5)
SPLITTING = 0.24494897427831780982  # sqrt(0.06), 50-digit evaluation
E_UP = 1.0 + SPLITTING
E_DOWN = 1.0 - SPLITTING

# U(1) entries for P1, frozen from a 50-digit scalar evaluation of the
# closed form U = (1/2) [[p+m, i r (p-m)], [-i (p-m)/r, p+m]] with
# p = exp(-i E_UP), m = exp(-i E_DOWN), r = sqrt(8/3)
U00_REF = 0.52417412012083685825 - 0.81635282374037793683j
U01_REF = 0.21396618749684289815 - 0.33323259322254228864j
U10_REF = -0.080237320311316086808 + 0.12496222245845335824j

BASIS_UP = np.array([1.0, 0.0], dtype=complex)
BASIS_DOWN = np.array([0.0, 1.0], dtype=complex)


def _p1_system():
    return biorthonormal_system(effective_hamiltonian(P1))


def test_zero_time_is_identity():
    rng = np.random.default_rng(3)
    for n in (2, 5):
        h = with_spectrum(rng, kramers_spectrum(rng, n) if n == 2
                          else rng.standard_normal(n))
        u = evolution_operator(biorthonormal_system(h), 0.0)
        assert np.allclose(u, np.eye(n), atol=1e-12)


def test_semigroup_property():
    rng = np.random.default_rng(5)
    h = with_spectrum(rng, kramers_spectrum(rng, 6))
    system = biorthonormal_system(h)
    for t, s in ((0.7, -1.3), (2.0, 3.5), (-0.4, -0.9)):
        u_t = evolution_operator(system, t)
        u_s = evolution_operator(system, s)
        u_sum = evolution_operator(system, t + s)
        bound = 1e-9 * (1.0 + np.linalg.norm(u_t) * np.linalg.norm(u_s))
        assert np.linalg.norm(u_sum - u_t @ u_s) <= bound


def test_propagator_matches_two_level_closed_form():
    u = evolution_operator(_p1_system(), 1.0)
    assert abs(u[0, 0] - U00_REF) <= 1e-12
    assert abs(u[0, 1] - U01_REF) <= 1e-12
    assert abs(u[1, 0] - U10_REF) <= 1e-12
    assert abs(u[1, 1] - U00_REF) <= 1e-12  # diagonal entries coincide


def test_propagate_matches_evolved_state_closed_form():
    system = _p1_system()
    t = 1.0
    state = evolution_operator(system, t) @ BASIS_DOWN
    ratio = np.sqrt(8.0 / 3.0)
    plus, minus = np.exp(-1j * E_UP * t), np.exp(-1j * E_DOWN * t)
    expected = 0.5 * np.array([1j * ratio * (plus - minus), plus + minus])
    assert np.allclose(state, expected, atol=1e-12)


def test_propagate_validates_dimension():
    with pytest.raises(ValueError):
        transition_probability(_p1_system(), np.ones(3), BASIS_UP, 0.5)
    # the final state is held to the same shape as the initial one
    for final in (BASIS_UP.reshape(1, 2), BASIS_UP.reshape(2, 1), np.ones(3)):
        for evaluate in (transition_probability, time_asymmetry):
            with pytest.raises(ValueError, match="does not match dimension 2"):
                evaluate(_p1_system(), BASIS_UP, final, 0.5)


def test_transition_probability_matches_propagator():
    rng = np.random.default_rng(19)
    spectrum = kramers_spectrum(rng, 64)
    assert np.any(spectrum.imag != 0)  # non-unitary channels present
    system = biorthonormal_system(with_spectrum(rng, spectrum))
    initial, final = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    for t in (0.4, -0.4, 1.7, -1.7):
        u = evolution_operator(system, t)
        expected = abs(np.vdot(final, u @ initial)) ** 2
        value = transition_probability(system, initial, final, t)
        assert abs(value - expected) <= 1e-12 * expected


def test_orthogonal_states_at_zero_time():
    assert transition_probability(_p1_system(), BASIS_DOWN, BASIS_UP, 0.0) <= 1e-15


def test_spin_flip_value_at_reference_point():
    p = transition_probability(_p1_system(), BASIS_DOWN, BASIS_UP, 1.0)
    assert abs(p - 0.156825490577754467) <= 1e-12


def test_probe_transition_values_at_reference_point():
    system = _p1_system()
    fwd = transition_probability(system, BASIS_DOWN, probe_state(), 1.0)
    bwd = transition_probability(system, BASIS_DOWN, probe_state(), -1.0)
    assert abs(fwd - 0.93319887231186702615) <= 1e-12
    assert abs(bwd - 0.16481705929922951572) <= 1e-12


def test_flip_channel_is_time_even():
    system = _p1_system()
    for t in (0.3, 1.0, 2.7, 8.1):
        assert abs(time_asymmetry(system, BASIS_DOWN, BASIS_UP, t)) <= 1e-12


def test_probe_asymmetry_at_reference_point():
    value = time_asymmetry(_p1_system(), BASIS_DOWN, probe_state(), 1.0)
    assert abs(value - 0.76838181301263751043) <= 1e-12


def test_asymmetry_survives_hermitian_coupling():
    # equal couplings keep the generator Hermitian, yet the rotational
    # term still produces sin(2Rt) between the probe and a basis state
    params = ModelParams(E=1.0, muB=0.0, omega2=1.0, k1=1.0, k2=1.0)
    system = biorthonormal_system(effective_hamiltonian(params))
    for t in (0.5, 1.0, 2.0):
        value = time_asymmetry(system, BASIS_DOWN, probe_state(), t)
        assert abs(value - np.sin(t)) <= 1e-10  # R = 1/2 here


def test_spin_flip_probability_may_exceed_one():
    system = _p1_system()
    t_peak = np.pi / (2.0 * SPLITTING)
    p = transition_probability(system, BASIS_DOWN, BASIS_UP, t_peak)
    assert abs(p - 8.0 / 3.0) <= 1e-10  # raw value, not clamped


def test_hermitian_limit_is_unitary():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    system = biorthonormal_system(h)
    for t in (0.5, 12.0, 1000.0, -1000.0):
        u = evolution_operator(system, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(np.linalg.norm(u @ v) - np.linalg.norm(v)) <= 1e-10


def test_overflow_guard():
    system = biorthonormal_system(np.diag([1j, -1j]))
    evolution_operator(system, 600.0)  # exp(600) still representable
    with pytest.raises(EvolutionRangeError):
        evolution_operator(system, 1e6)
    with pytest.raises(ValueError):
        evolution_operator(system, np.inf)
    # every exponential is representable, the propagator's entries are not
    skewed = biorthonormal_system(np.array([[1j, 1e5], [0.0, -1j]]))
    evolution_operator(skewed, 600.0)
    with pytest.raises(EvolutionRangeError, match="t = 699 overflows"):
        evolution_operator(skewed, 699.0)
    state = np.array([1.0, 0.0])
    transition_probability(system, state, state, 300.0)
    # exp(600) is representable, its square is not
    with pytest.raises(EvolutionRangeError, match="t = 600 overflows"):
        transition_probability(system, state, state, 600.0)
    with pytest.raises(EvolutionRangeError, match="t = 600 overflows"):
        time_asymmetry(system, state, state, 600.0)
    with pytest.raises(EvolutionRangeError):
        transition_probability(system, state, state, -1e6)
    with pytest.raises(ValueError):
        transition_probability(system, state, state, np.nan)


def test_overflowing_exponent_is_refused_without_warning():
    # |Im E| * |t| overflows to inf: refused as out of range, with no
    # numpy warning first (tier-1 turns RuntimeWarning into an error)
    state = np.array([1.0, 0.0])
    steep = biorthonormal_system(np.diag([1e100j, -1e100j]))
    calls = (lambda t: evolution_operator(steep, t),
             lambda t: transition_probability(steep, state, state, t),
             lambda t: time_asymmetry(steep, state, state, t))
    for call in calls:
        with pytest.raises(EvolutionRangeError, match="= inf exceeds"):
            call(1e300)
    # the phase E t overflows although |Im E| * |t| is zero: the NaN it
    # leaves is refused as an overflow
    fast = biorthonormal_system(np.diag([1e150, -1e150]))
    for call in (lambda t: evolution_operator(fast, t),
                 lambda t: transition_probability(fast, state, state, t),
                 lambda t: time_asymmetry(fast, state, state, t)):
        with pytest.raises(EvolutionRangeError, match="t = 1e.200 overflows"):
            call(1e200)


def _kramers_system(seed, n):
    rng = np.random.default_rng(seed)
    system = biorthonormal_system(with_spectrum(rng, kramers_spectrum(rng, n)))
    initial, final = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return system, initial, final


TIMES = np.array([0.0, -0.0, 1e-9, 0.4, -0.4, 1.7, -2.9, 5.0])


def test_propagators_evaluate_time_arrays():
    system, initial, final = _kramers_system(23, 16)
    forward = transition_probability(system, initial, final, TIMES)
    backward = transition_probability(system, initial, final, -TIMES)
    asymmetry = time_asymmetry(system, initial, final, TIMES)
    assert forward.shape == asymmetry.shape == TIMES.shape
    for k, t in enumerate(TIMES):
        value = transition_probability(system, initial, final, float(t))
        assert type(value) is float
        assert abs(forward[k] - value) <= 1e-12 * value
        value = time_asymmetry(system, initial, final, float(t))
        assert type(value) is float
        assert abs(asymmetry[k] - value) <= 1e-12 * (forward[k] + backward[k])
    grid = time_asymmetry(system, initial, final, TIMES.reshape(2, 4))
    assert grid.shape == (2, 4)
    assert np.allclose(grid.ravel(), asymmetry, rtol=1e-12, atol=0.0)


def test_propagators_refuse_any_non_finite_time():
    system, initial, final = _kramers_system(29, 4)
    for bad in (np.nan, np.inf):
        for position in (0, 3, -1):
            times = TIMES.copy()
            times[position] = bad
            with pytest.raises(ValueError, match="time must be finite"):
                transition_probability(system, initial, final, times)
            with pytest.raises(ValueError, match="time must be finite"):
                time_asymmetry(system, initial, final, times)


def test_propagator_range_error_names_first_offending_time():
    system = biorthonormal_system(np.diag([1j, -1j]))
    state = np.array([1.0, 0.0])
    times = np.array([1.0, -300.0, 800.0, -900.0, 750.0])
    for evaluate in (transition_probability, time_asymmetry):
        with pytest.raises(EvolutionRangeError) as scalar:
            evaluate(system, state, state, 800.0)
        with pytest.raises(EvolutionRangeError) as array:
            evaluate(system, state, state, times)
        assert str(array.value) == str(scalar.value)


def test_hermitian_generator_refuses_infinite_time():
    # every Im E is zero, so only the check on the exponents sees t = inf
    system = biorthonormal_system(np.array([[1.0, 2.0], [2.0, -1.0]]))
    state = np.array([1.0, 0.0])
    for call in (lambda t: evolution_operator(system, t),
                 lambda t: transition_probability(system, state, state, t),
                 lambda t: time_asymmetry(system, state, state, t)):
        for t in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^time must be finite$"):
                call(t)


def test_non_finite_time_is_refused_before_an_out_of_range_one():
    # 800 is out of range and comes first, yet the NaN decides the error
    system = biorthonormal_system(np.diag([1j, -1j]))
    state = np.array([1.0, 0.0])
    for evaluate in (transition_probability, time_asymmetry):
        with pytest.raises(ValueError, match="^time must be finite$"):
            evaluate(system, state, state, np.array([800.0, np.nan]))


def test_time_shapes_pass_through():
    system, initial, final = _kramers_system(31, 4)
    for evaluate in (transition_probability, time_asymmetry):
        empty = evaluate(system, initial, final, np.array([]))
        assert type(empty) is np.ndarray and empty.shape == (0,)
        value = evaluate(system, initial, final, np.array(0.7))
        assert type(value) is float
        assert value == evaluate(system, initial, final, 0.7)
