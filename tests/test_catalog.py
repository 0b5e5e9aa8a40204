import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtangle import (
    RoofConfig,
    StateError,
    abd_components,
    bell,
    ghz,
    one_tangle,
    partial_trace,
    phi_abd,
    psi4,
    psi6,
    psi_n1,
    rho_abd,
    rho_ghz_w,
    rho_wn_mix,
    roof_minimize,
    smolin,
    w,
)
from qtangle.formulas import (
    abd_excitation_weight,
    alpha0,
    c_ab_sq_ghzw,
    c_ab_sq_smolin,
    e_ms_psi4_closed,
    e_ms_psi6_closed,
    tau3_family,
)
from qtangle.states import check_subset
from qtangle.sweep import SweepSpec

from helpers import projector, psi4_kron_oracle


def test_ghz_amplitudes():
    g = ghz(3)
    assert abs(g.amplitudes[0] - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(g.amplitudes[7] - 1.0 / np.sqrt(2.0)) < 1e-15
    assert np.count_nonzero(g.amplitudes) == 2


def test_w_amplitudes():
    # Single-excitation states: indices 1, 2, 4 with qubit 0 most significant.
    psi = w(3)
    for idx in (1, 2, 4):
        assert abs(psi.amplitudes[idx] - 1.0 / np.sqrt(3.0)) < 1e-15
    assert np.count_nonzero(psi.amplitudes) == 3


def test_bell_convention():
    np.testing.assert_allclose(
        bell(0).amplitudes, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15
    )
    np.testing.assert_allclose(
        bell(3).amplitudes, np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), atol=1e-15
    )
    np.testing.assert_array_equal(bell(np.int64(3)).amplitudes, bell(3).amplitudes)
    for index in (4, -1, 2.5, 2.0, True, "1", None):
        with pytest.raises(StateError):
            bell(index)


def test_rho_ghz_w_is_advertised_mixture():
    for p in (0.0, 0.3, 1.0):
        rho = rho_ghz_w(p)
        expect = p * projector(ghz(3)) + (1.0 - p) * projector(w(3))
        np.testing.assert_allclose(rho.matrix, expect, atol=1e-14)


def test_psi4_matches_kron_formula_bit_for_bit():
    for p in np.linspace(0.0, 1.0, 1001):
        assert np.array_equal(psi4(float(p)).amplitudes, psi4_kron_oracle(float(p)))


def test_psi4_purifies_rho_ghz_w():
    for p in np.linspace(0.0, 1.0, 11):
        reduced = partial_trace(psi4(p), (0, 1, 2))
        np.testing.assert_allclose(reduced.matrix, rho_ghz_w(p).matrix, atol=1e-12)


def test_abd_components_match_reduction():
    for p in (0.1, 0.5, 0.9):
        weight, first, second = abd_components(p)
        assert abs(weight - (2.0 + p) / 6.0) < 1e-12
        rebuilt = weight * projector(first) + (1.0 - weight) * projector(second)
        np.testing.assert_allclose(rebuilt, rho_abd(p).matrix, atol=1e-12)
        # The components are the conditional branches, so they are orthogonal.
        assert abs(np.vdot(first.amplitudes, second.amplitudes)) < 1e-12


def test_abd_component_profiles():
    p = 0.4
    _, first, second = abd_components(p)
    a = 3.0 * p / (2.0 + p)
    assert abs(abs(first.amplitudes[0]) ** 2 - (1.0 - a)) < 1e-12
    assert abs(abs(first.amplitudes[7]) ** 2 - a) < 1e-12
    b = 3.0 * p / (4.0 - p)
    assert abs(abs(second.amplitudes[1]) ** 2 - b) < 1e-12
    assert abs(abs(second.amplitudes[2]) ** 2 - (1.0 - b) / 2.0) < 1e-12
    assert abs(abs(second.amplitudes[4]) ** 2 - (1.0 - b) / 2.0) < 1e-12


def test_phi_abd_phase_zero_is_difference():
    alpha, p = 0.6, 0.3
    _, first, second = abd_components(p)
    expect = np.sqrt(alpha) * first.amplitudes - np.sqrt(1.0 - alpha) * second.amplitudes
    np.testing.assert_allclose(phi_abd(alpha, p, 0.0).amplitudes, expect, atol=1e-14)


def test_smolin_eigenvalues():
    p = 0.6
    eigs = np.linalg.eigvalsh(smolin(p).matrix)
    nonzero = eigs[eigs > 1e-12]
    np.testing.assert_allclose(
        np.sort(nonzero), np.sort([p / 4.0] * 3 + [1.0 - 3.0 * p / 4.0]), atol=1e-12
    )


def test_smolin_swap_symmetry():
    rho = smolin(0.8).matrix.reshape((2,) * 8)
    swapped = rho.transpose(1, 0, 2, 3, 5, 4, 6, 7)  # swap A<->B on both sides
    np.testing.assert_allclose(swapped, smolin(0.8).matrix.reshape((2,) * 8), atol=1e-13)
    swapped = rho.transpose(2, 3, 0, 1, 6, 7, 4, 5)  # swap pair AB <-> CD
    np.testing.assert_allclose(swapped, smolin(0.8).matrix.reshape((2,) * 8), atol=1e-13)


def test_psi6_purifies_smolin():
    for p in (0.0, 0.4, 0.7, 1.0):
        reduced = partial_trace(psi6(p), (0, 1, 2, 3))
        np.testing.assert_allclose(reduced.matrix, smolin(p).matrix, atol=1e-12)


def test_psi_n1_purifies_rho_wn_mix():
    for n in (3, 5):
        for alpha in (0.2, 1.0 / (n + 1.0), 0.9):
            reduced = partial_trace(psi_n1(n, alpha), tuple(range(n)))
            np.testing.assert_allclose(
                reduced.matrix, rho_wn_mix(n, alpha).matrix, atol=1e-12
            )


def test_domain_errors():
    with pytest.raises(StateError):
        rho_ghz_w(1.2)
    with pytest.raises(StateError):
        psi4(-0.1)
    with pytest.raises(StateError):
        smolin(1.0001)
    with pytest.raises(StateError):
        ghz(1)
    with pytest.raises(StateError):
        w(11)
    with pytest.raises(StateError):
        rho_wn_mix(10, 0.5)
    with pytest.raises(StateError):
        phi_abd(1.5, 0.5, 0.0)
    assert phi_abd(0.5, 0.5, 7.0).n_qubits == 3


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -np.inf])
def test_phi_abd_refuses_non_finite_phase(phi):
    # The phase is checked before any NumPy arithmetic: the suite turns the
    # RuntimeWarning that np.exp(1j * inf) gives into a failure.
    with pytest.raises(StateError):
        phi_abd(0.5, 0.5, phi)
    # Non-integer qubit counts are refused, not truncated.
    for bad in (3.7, 3.0, np.float64(4.0), True, "3", None):
        with pytest.raises(StateError):
            ghz(bad)
        with pytest.raises(StateError):
            w(bad)
    with pytest.raises(StateError):
        rho_wn_mix(3.9, 0.5)
    with pytest.raises(StateError):
        psi_n1(2.2, 0.3)
    assert ghz(np.int32(3)).n_qubits == 3
    assert psi_n1(np.int64(3), 0.5).n_qubits == 4


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_ANY_FLOAT)
@example(3.0)
@example(0.0)
@example(1.0)
def test_float_counts_and_indices_are_refused(value):
    for build in (ghz, w, lambda n: rho_wn_mix(n, 0.5), lambda n: psi_n1(n, 0.5), bell):
        with pytest.raises(StateError):
            build(value)
    with pytest.raises(StateError):
        check_subset((value,), 3)
    with pytest.raises(StateError):
        check_subset((0, value), 3)


_NON_REAL = st.one_of(
    st.text(), st.none(), st.booleans(), st.complex_numbers(), st.lists(st.floats())
)

# Every real parameter of the catalog and formulas entries and of a sweep's
# range, fed one value with the other arguments valid.
_REAL_PARAMETERS = (
    rho_ghz_w,
    psi4,
    abd_components,
    rho_abd,
    smolin,
    psi6,
    lambda v: phi_abd(v, 0.5, 0.0),
    lambda v: phi_abd(0.5, v, 0.0),
    lambda v: phi_abd(0.5, 0.5, v),
    lambda v: rho_wn_mix(3, v),
    lambda v: psi_n1(3, v),
    c_ab_sq_ghzw,
    alpha0,
    e_ms_psi4_closed,
    c_ab_sq_smolin,
    e_ms_psi6_closed,
    abd_excitation_weight,
    lambda v: tau3_family(v, 0.5, 0.0),
    lambda v: tau3_family(0.5, v, 0.0),
    lambda v: tau3_family(0.5, 0.5, v),
    lambda v: SweepSpec("ghz_w", v, 1.0, 5, ("e_ms_psi4",), RoofConfig()),
    lambda v: SweepSpec("ghz_w", 0.0, v, 5, ("e_ms_psi4",), RoofConfig()),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_NON_REAL)
@example(np.True_)
@example("0.5")
@example([0.5])
def test_non_real_parameters_are_refused(value):
    # Refused, not converted: float("0.5") and float(True) are numbers.
    for build in _REAL_PARAMETERS:
        with pytest.raises(StateError):
            build(value)


def test_numpy_real_parameters_are_accepted():
    # NumPy scalars and Python ints mean the same number as the float.
    for value in (np.float32(0.5), np.float64(0.5), np.int64(1), 0):
        for build in _REAL_PARAMETERS[:-2]:
            build(value)
    SweepSpec("ghz_w", np.int64(0), np.float32(0.5), 5, ("e_ms_psi4",), RoofConfig())
    np.testing.assert_array_equal(smolin(np.float32(0.5)).matrix, smolin(0.5).matrix)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_NON_REAL)
@example(0)
@example(np.int64(2))
def test_malformed_subsets_and_measure_names_are_refused(value):
    psi = ghz(3)
    rho = rho_ghz_w(0.5)
    # A bare index is not a subset; (0,) would be a valid one.
    subsets = [value] if isinstance(value, (int, np.integer)) else [value, (value,)]
    for subset in subsets:
        with pytest.raises(StateError):
            one_tangle(psi, subset)
        with pytest.raises(StateError):
            partial_trace(psi, subset)
        with pytest.raises(StateError):
            roof_minimize(rho, "one_tangle", partition=subset)
    if not isinstance(value, str):
        with pytest.raises(StateError):
            roof_minimize(rho, value)
