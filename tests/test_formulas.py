import numpy as np
import pytest

from qtangle import (
    StateError,
    abd_excitation_weight,
    alpha0,
    c_ab_sq_ghzw,
    c_ab_sq_smolin,
    concurrence,
    e_ms_psi4_closed,
    e_ms_psi6_closed,
    one_tangle,
    p0,
    p1,
    partial_trace,
    phi_abd,
    rho_ghz_w,
    smolin,
    tau3_family,
    tau_a1_formula,
    three_tangle_pure,
    w,
)


def test_p0_digits():
    assert abs(p0() - 0.2917960675006306) < 1e-15


def test_p1_closed_form():
    assert abs(p1() - 0.6268510148499474) < 1e-15


def test_c_ab_sq_ghzw_landmarks():
    assert abs(c_ab_sq_ghzw(0.0) - 4.0 / 9.0) < 1e-15
    assert c_ab_sq_ghzw(p0()) < 1e-15
    assert c_ab_sq_ghzw(1.0) == 0.0


def test_c_ab_sq_ghzw_matches_wootters():
    for p in np.linspace(0.0, 1.0, 41):
        direct = concurrence(partial_trace(rho_ghz_w(p), (0, 1))) ** 2
        assert abs(c_ab_sq_ghzw(p) - direct) < 1e-10


def test_tau3_family_matches_direct():
    for alpha in np.linspace(0.05, 0.95, 7):
        for p in np.linspace(0.1, 0.9, 5):
            for phi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                direct = three_tangle_pure(phi_abd(alpha, p, phi))
                assert abs(tau3_family(alpha, p, phi) - direct) < 1e-8


def test_alpha0_kills_the_family_tangle():
    for p in np.linspace(0.1, 0.9, 9):
        for k in range(3):
            assert tau3_family(alpha0(p), p, 2.0 * k * np.pi / 3.0) < 1e-12


def test_alpha0_endpoints_and_monotonicity():
    assert abs(alpha0(0.0) - 0.5575066659755579) < 1e-12
    assert abs(alpha0(1.0) - 0.7158963465833499) < 1e-12
    grid = [alpha0(p) for p in np.linspace(0.0, 1.0, 21)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_e_ms_psi4_branch_two_agrees():
    for p in np.linspace(0.35, 1.0, 14):
        res = e_ms_psi4_closed(p)
        assert not res.discrepancy_flag
        assert abs(res.value_as_printed - res.value_direct) < 1e-10


def test_e_ms_psi4_branch_one_disagrees():
    res = e_ms_psi4_closed(p0())
    assert res.discrepancy_flag
    assert abs(res.value_as_printed - 0.8234654599282003) < 1e-12
    assert abs(res.value_direct - 0.914855054991167) < 1e-10


def test_e_ms_psi4_peak_value():
    res = e_ms_psi4_closed(7.0 / 13.0)
    assert abs(res.value_as_printed - 153.0 / 156.0) < 1e-12
    assert abs(res.value_direct - 153.0 / 156.0) < 1e-10


def test_e_ms_psi6_branches():
    probe = e_ms_psi6_closed(2.0 / 3.0)
    assert probe.discrepancy_flag
    assert abs(probe.value_as_printed - 10.0 / 27.0) < 1e-12
    assert abs(probe.value_direct - 26.0 / 27.0) < 1e-10
    for p in np.linspace(0.7, 1.0, 7):
        res = e_ms_psi6_closed(p)
        assert not res.discrepancy_flag
        assert abs(res.value_as_printed - res.value_direct) < 1e-10
    assert abs(e_ms_psi6_closed(1.0).value_as_printed - 1.0) < 1e-15


def test_c_ab_sq_smolin_landmarks():
    assert abs(c_ab_sq_smolin(1.0 / 3.0) - 0.25) < 1e-15
    for p in np.linspace(2.0 / 3.0, 1.0, 8):
        assert c_ab_sq_smolin(p) == 0.0
    for p in (0.7, 0.85, 1.0):
        direct = concurrence(partial_trace(smolin(p), (0, 1)))
        assert direct < 1e-10


def test_tau_a1_formula_matches_spectral_average():
    # At alpha = 1/(n+1) the W component carries all the one-tangle, so the
    # spectral ensemble average is (1 - alpha) * one_tangle(w(n)) exactly.
    for n in range(2, 10):
        alpha = 1.0 / (n + 1.0)
        expect = (1.0 - alpha) * one_tangle(w(n), (0,))
        assert abs(tau_a1_formula(n) - expect) < 1e-14
    assert abs(tau_a1_formula(3) - 2.0 / 3.0) < 1e-15
    assert abs(tau_a1_formula(4) - 3.0 / 5.0) < 1e-15


def test_abd_excitation_weight_flags():
    res = abd_excitation_weight(0.5)
    assert res.discrepancy_flag
    assert abs(res.value_as_printed - 1.0) < 1e-15
    assert abs(res.value_direct - 0.6) < 1e-12
    assert not abd_excitation_weight(0.0).discrepancy_flag


def test_domain_errors():
    with pytest.raises(StateError):
        c_ab_sq_ghzw(1.5)
    with pytest.raises(StateError):
        tau3_family(0.5, -0.1, 0.0)
    with pytest.raises(StateError):
        alpha0(2.0)
    with pytest.raises(StateError):
        e_ms_psi4_closed(1.01)
    with pytest.raises(StateError):
        tau_a1_formula(10)
    with pytest.raises(StateError):
        abd_excitation_weight(-0.5)


def test_tau_a1_formula_refuses_non_integer_counts():
    # Refused, not truncated to the value at int(n).
    for bad in (3.7, 3.0, np.float64(4.0), float("nan"), True, "3"):
        with pytest.raises(StateError):
            tau_a1_formula(bad)
    assert tau_a1_formula(np.int64(3)) == tau_a1_formula(3)


def test_tau3_family_refuses_non_finite_phase():
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(StateError):
            tau3_family(0.5, 0.5, bad)
