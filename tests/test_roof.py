import numpy as np
import pytest

from qtangle import (
    DecompositionIsometry,
    Ensemble,
    PovmElement,
    RoofConfig,
    StateError,
    ensemble_from_isometry,
    ghz,
    measure_env_povm,
    one_tangle,
    partial_trace,
    psi4,
    rho_abd,
    rho_ghz_w,
    roof_minimize,
    smolin,
    three_tangle_pure,
    w,
)

from qtangle.roof import _LockstepPolish, _resolve_measure

from helpers import dense_linearize, random_density

LIGHT = RoofConfig(restarts=4, max_iterations=100, seed=1)


def test_ensemble_validation():
    g = ghz(3)
    with pytest.raises(StateError):
        Ensemble(())
    with pytest.raises(StateError):
        Ensemble(((0.6, g), (0.3, w(3))))  # sums to 0.9
    with pytest.raises(StateError):
        Ensemble(((1.2, g), (-0.2, w(3))))


def test_ensemble_mixture_and_average():
    ens = Ensemble(((0.25, ghz(3)), (0.75, w(3))))
    np.testing.assert_allclose(ens.mixture(), rho_ghz_w(0.25).matrix, atol=1e-14)
    ens.check_mixture(rho_ghz_w(0.25))
    with pytest.raises(StateError):
        ens.check_mixture(rho_ghz_w(0.5))
    expect = 0.25 * three_tangle_pure(ghz(3)) + 0.75 * three_tangle_pure(w(3))
    assert abs(ens.average(three_tangle_pure) - expect) < 1e-12


def test_isometry_validation():
    DecompositionIsometry(np.eye(3)[:, :2])
    with pytest.raises(StateError):
        DecompositionIsometry(np.array([[1.0, 0.0]]))  # 1 x 2, too flat
    with pytest.raises(StateError):
        DecompositionIsometry(np.ones((2, 2)) / np.sqrt(2.0))
    v = DecompositionIsometry(np.eye(4)[:, :3])
    assert (v.rows, v.cols) == (4, 3)


def test_povm_element_validation():
    PovmElement(np.eye(2) * 0.5)
    with pytest.raises(StateError):
        PovmElement(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        PovmElement(np.diag([1.0, -0.5]))
    with pytest.raises(StateError):
        PovmElement(np.zeros((2, 3)))


def test_roof_config_validation():
    with pytest.raises(StateError):
        RoofConfig(restarts=0)
    with pytest.raises(StateError):
        RoofConfig(max_ensemble_size=0)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(StateError):
            RoofConfig(objective_tolerance=tol)
    with pytest.raises(StateError):
        RoofConfig(max_iterations=-5)
    RoofConfig(objective_tolerance=0.0, max_iterations=0)


def test_ensemble_from_identity_isometry_is_spectral():
    rho = rho_ghz_w(0.7)
    ens = ensemble_from_isometry(rho, DecompositionIsometry(np.eye(2)))
    probs = [p for p, _ in ens.members]
    np.testing.assert_allclose(probs, [0.7, 0.3], atol=1e-12)
    assert abs(abs(np.vdot(ens.members[0][1].amplitudes, ghz(3).amplitudes)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(ens.members[1][1].amplitudes, w(3).amplitudes)) - 1.0) < 1e-12


def test_ensemble_from_balanced_isometry():
    p = 0.7
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ens = ensemble_from_isometry(rho_ghz_w(p), DecompositionIsometry(had))
    assert len(ens.members) == 2
    for sign, (prob, psi) in zip((1.0, -1.0), ens.members):
        assert abs(prob - 0.5) < 1e-12
        expect = np.sqrt(p) * ghz(3).amplitudes + sign * np.sqrt(1.0 - p) * w(3).amplitudes
        assert abs(abs(np.vdot(psi.amplitudes, expect)) - 1.0) < 1e-12


def test_ensemble_from_isometry_drops_empty_rows():
    pad = np.zeros((3, 2))
    pad[0, 0] = pad[1, 1] = 1.0
    ens = ensemble_from_isometry(rho_ghz_w(0.5), DecompositionIsometry(pad))
    assert len(ens.members) == 2


def test_ensemble_from_isometry_rank_mismatch():
    with pytest.raises(StateError):
        ensemble_from_isometry(rho_ghz_w(0.5), DecompositionIsometry(np.eye(3)))


def test_roof_pure_state_shortcut():
    res = roof_minimize(ghz(3).density(), "three_tangle", LIGHT)
    assert abs(res.value - 1.0) < 1e-12
    assert len(res.ensemble.members) == 1
    assert abs(res.ensemble.members[0][0] - 1.0) < 1e-12


def test_roof_spectral_shortcut_on_zero_measure_state():
    # tr_D of the Bell-mixture family: its eigenstates are products of a Bell
    # pair with a one-qubit mixture, so the spectral average already vanishes
    # and the search never starts.
    reduced = partial_trace(smolin(0.8), (0, 1, 2))
    res = roof_minimize(reduced, "three_tangle", LIGHT)
    assert res.value <= 1e-8


def test_roof_never_beats_zero_nor_spectral():
    rng = np.random.default_rng(67)
    for _ in range(5):
        rho = random_density(rng, 3, 2)
        spectral = ensemble_from_isometry(
            rho, DecompositionIsometry(np.eye(2))
        ).average(three_tangle_pure)
        res = roof_minimize(rho, "three_tangle", LIGHT)
        assert -1e-12 <= res.value <= spectral + 1e-12
        # Scalar recomputation differs from the batched objective by the sqrt
        # noise of near-zero Wootters eigenvalues, which the optimizer steers
        # straight into; ~1e-7 is the routes' real agreement floor there.
        assert abs(res.ensemble.average(three_tangle_pure) - res.value) < 1e-6


def test_roof_reports_reachable_average():
    res = roof_minimize(rho_abd(0.5), "three_tangle")
    assert res.value <= 1e-6
    res.ensemble.check_mixture(rho_abd(0.5))


def test_roof_determinism():
    cfg = RoofConfig(restarts=6, max_iterations=60, seed=3)
    first = roof_minimize(rho_ghz_w(0.5), "three_tangle", cfg)
    second = roof_minimize(rho_ghz_w(0.5), "three_tangle", cfg)
    assert first.value == second.value
    assert len(first.ensemble.members) == len(second.ensemble.members)
    for (p1, s1), (p2, s2) in zip(first.ensemble.members, second.ensemble.members):
        assert p1 == p2
        assert np.array_equal(s1.amplitudes, s2.amplitudes)


def _random_columns(rng: np.random.Generator, restarts: int, dim: int, m: int) -> np.ndarray:
    return rng.normal(size=(restarts, dim, m)) + 1j * rng.normal(size=(restarts, dim, m))


@pytest.mark.parametrize(
    "measure, n, m",
    [("three_tangle", 3, 4), ("one_tangle", 3, 4), ("e_ms", 4, 8)],
)
def test_polish_linearize_matches_dense_probes(measure, n, m):
    rng = np.random.default_rng(97)
    fn = _resolve_measure(measure, n, (0,))
    polish = _LockstepPolish(m)
    w = _random_columns(rng, 3, 2**n, m) / 4.0
    contrib, res, jac = polish.linearize(w, fn)
    dense_res, dense_jac = dense_linearize(w, fn, polish.STEP)
    assert np.array_equal(res, dense_res)
    assert np.array_equal(jac, dense_jac)
    assert np.array_equal(res, np.sqrt(np.maximum(contrib, 0.0)))


@pytest.mark.parametrize("m", [4, 8])
def test_polish_iterate_makes_one_kernel_call(m):
    rng = np.random.default_rng(101)
    kernel = _resolve_measure("three_tangle", 3, (0,))
    calls = []

    def fn(states):
        calls.append(states.shape[0])
        return kernel(states)

    polish = _LockstepPolish(m)
    restarts = 5
    w = _random_columns(rng, restarts, 8, m) / 4.0
    contrib, res, jac = polish.linearize(w, fn)
    cost = np.maximum(contrib, 0.0).sum(axis=1)
    calls.clear()
    out = polish.iterate(w, cost, np.full(restarts, 1e-2), res, jac, fn)
    assert calls == [2 * m * m * restarts]
    w_new, _, _, accept, res_new, jac_new = out
    assert accept.any() and not accept.all()
    # Accepted restarts carry the candidate's exact linearization; rejected
    # ones keep the old one, which is still exact because w did not move.
    _, fresh_res, fresh_jac = polish.linearize(w_new, kernel)
    assert np.array_equal(res_new, fresh_res)
    assert np.array_equal(jac_new, fresh_jac)


def test_roof_rank_above_cap_rejected():
    with pytest.raises(StateError):
        roof_minimize(rho_abd(0.5), "three_tangle", RoofConfig(max_ensemble_size=1))


def test_roof_measure_validation():
    with pytest.raises(StateError):
        roof_minimize(rho_ghz_w(0.5), "entropy", LIGHT)
    with pytest.raises(StateError):
        roof_minimize(smolin(0.5), "three_tangle", LIGHT)  # needs 3 qubits
    with pytest.raises(StateError):
        roof_minimize(rho_ghz_w(0.5), "one_tangle", LIGHT, partition=(0, 1, 2))


def test_roof_one_tangle_partition():
    # Rank-1 case with a nontrivial partition: the roof is just the pure value.
    psi = psi4(0.3)
    res = roof_minimize(psi.density(), "one_tangle", LIGHT, partition=(0, 1))
    assert abs(res.value - one_tangle(psi, (0, 1))) < 1e-12


def _plus_minus() -> list[PovmElement]:
    return [
        PovmElement(np.array([[0.5, 0.5], [0.5, 0.5]])),
        PovmElement(np.array([[0.5, -0.5], [-0.5, 0.5]])),
    ]


def test_measure_env_povm_plus_minus():
    p = 0.4
    ens = measure_env_povm(psi4(p), (3,), _plus_minus())
    assert len(ens.members) == 2
    for sign, (prob, psi) in zip((1.0, -1.0), ens.members):
        assert abs(prob - 0.5) < 1e-12
        expect = np.sqrt(1.0 - p) * w(3).amplitudes + sign * np.sqrt(p) * ghz(3).amplitudes
        assert abs(abs(np.vdot(psi.amplitudes, expect)) - 1.0) < 1e-12
    ens.check_mixture(rho_ghz_w(p))


def test_measure_env_povm_trine():
    omega = np.exp(2j * np.pi / 3.0)
    elements = []
    for k in range(3):
        m = np.array([1.0, -(omega ** (-k))]) / np.sqrt(2.0)
        elements.append(PovmElement((2.0 / 3.0) * np.outer(m, m.conj())))
    ens = measure_env_povm(psi4(0.6), (3,), elements)
    assert len(ens.members) == 3
    for prob, _ in ens.members:
        assert abs(prob - 1.0 / 3.0) < 1e-12
    ens.check_mixture(rho_ghz_w(0.6))


def test_measure_env_povm_rejects_incomplete_set():
    with pytest.raises(StateError):
        measure_env_povm(psi4(0.5), (3,), _plus_minus()[:1])


def test_measure_env_povm_rejects_mixed_elements():
    half = PovmElement(np.eye(2) * 0.5)
    with pytest.raises(StateError, match="mixed-unsupported"):
        measure_env_povm(psi4(0.5), (3,), [half, half])


def test_measure_env_povm_rejects_wrong_dimension():
    with pytest.raises(StateError):
        measure_env_povm(psi4(0.5), (3,), [PovmElement(np.eye(4) * 0.5)] * 2)
