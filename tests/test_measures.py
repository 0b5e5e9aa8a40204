from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qtangle import (
    DensityMatrix,
    StateError,
    StateVector,
    bell,
    concurrence,
    e_ms,
    ghz,
    negativity,
    one_tangle,
    partial_trace,
    psi4,
    psi6,
    single_property,
    three_tangle_pure,
    w,
)
from qtangle._batched import (
    _pair_spin_flip_matrix,
    concurrence_sq_batch,
    e_ms_batch,
    hyperdeterminant_batch,
    one_tangle_batch,
    three_tangle_batch,
)
from qtangle.verification import _haar_unitary

from helpers import (
    ckw_residual_oracle,
    concurrence_oracle,
    e_ms_oracle,
    hyperdeterminant_oracle,
    one_tangle_oracle,
    random_density,
    random_state,
)


def _werner(q: float) -> DensityMatrix:
    phi = bell(0)
    mat = q * np.outer(phi.amplitudes, phi.amplitudes.conj()) + (1.0 - q) * np.eye(4) / 4.0
    return DensityMatrix(mat, 2)


def test_one_tangle_landmarks():
    assert abs(one_tangle(ghz(3), (0,)) - 1.0) < 1e-14
    assert abs(one_tangle(w(3), (0,)) - 8.0 / 9.0) < 1e-14
    product = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), 2)
    assert one_tangle(product, (0,)) == 0.0


def test_single_property_complements_one_tangle():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        k = (int(rng.integers(0, n)),)
        # Exact by construction: both sides read off the same purity.
        assert one_tangle(psi, k) + single_property(psi, k) == 1.0


def test_one_tangle_schmidt_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        size = int(rng.integers(1, n))
        keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        rest = tuple(q for q in range(n) if q not in keep)
        assert abs(one_tangle(psi, keep) - one_tangle(psi, rest)) < 1e-12


def test_concurrence_landmarks():
    for k in range(4):
        assert abs(concurrence(bell(k).density()) - 1.0) < 1e-12
    assert concurrence(DensityMatrix(np.eye(4) / 4.0, 2)) == 0.0
    for q in np.linspace(0.0, 1.0, 21):
        expect = max(0.0, (3.0 * q - 1.0) / 2.0)
        assert abs(concurrence(_werner(q)) - expect) < 1e-12


def test_concurrence_against_hermitian_route():
    # The oracle's nested matrix square roots carry sqrt(eps)-level noise on
    # rank-deficient inputs, so the two routes agree to ~1e-8, not 1e-12.
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = random_density(rng, 2, int(rng.integers(1, 5)))
        assert abs(concurrence(rho) - concurrence_oracle(rho.matrix)) < 1e-7


def test_concurrence_needs_two_qubits():
    with pytest.raises(StateError):
        concurrence(DensityMatrix(np.eye(8) / 8.0, 3))


def test_three_tangle_landmarks():
    assert abs(three_tangle_pure(ghz(3)) - 1.0) < 1e-12
    assert three_tangle_pure(w(3)) < 1e-12
    with pytest.raises(StateError):
        three_tangle_pure(ghz(4))


def test_three_tangle_matches_ckw_residual():
    rng = np.random.default_rng(41)
    for _ in range(200):
        psi = random_state(rng, 3)
        assert abs(three_tangle_pure(psi) - ckw_residual_oracle(psi)) < 1e-9


_PARTS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_PARTS, min_size=16, max_size=16), st.permutations([0, 1, 2]))
# A pair value of 4.4e-17 next to 0.44 in the Wootters product: the residual
# keeps the kernel's 1.78e-8 only if no absolute cutoff zeroes it.
@example([1.0, 0, 0, 0, 0, 0, 1e-8, 0] + [0, 0, 0, 1.0, 0, 1.0, 0, 0], [0, 1, 2])
def test_three_tangle_kernel_properties(parts, order):
    amps = np.array(parts[:8]) + 1j * np.array(parts[8:])
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    amps = amps / norm
    permuted = amps.reshape(2, 2, 2).transpose(order).reshape(8)
    tau, tau_permuted = three_tangle_batch(np.stack([amps, permuted]))
    assert 0.0 <= tau <= 1.0 + 1e-12
    assert abs(tau - ckw_residual_oracle(StateVector(amps, 3))) < 1e-9
    assert abs(tau - tau_permuted) < 1e-12


def test_hyperdeterminant_matches_expanded_oracle():
    # Unnormalized rows over six decades of scale: D is a quartic, so the
    # error is measured against the fourth power of the row norm.
    rng = np.random.default_rng(43)
    rows = (rng.normal(size=(500, 8)) + 1j * rng.normal(size=(500, 8))) * 10.0 ** rng.uniform(
        -3.0, 3.0, size=(500, 1)
    )
    scale = np.linalg.norm(rows, axis=1) ** 4
    err = np.abs(hyperdeterminant_batch(rows) - hyperdeterminant_oracle(rows))
    assert np.all(err <= 1e-12 * scale)
    # 1/sqrt(2) is inexact, so the products of ghz(3)'s amplitudes round and
    # D comes out within 2^-53 of 1/4. With the binary-exact amplitudes of
    # ((1 + i)|000> + (1 - i)|111>)/2, a GHZ state up to a local phase, every
    # product is exact and so is D = 1/4.
    ghz_exact = np.zeros(8, dtype=complex)
    ghz_exact[0], ghz_exact[7] = 0.5 + 0.5j, 0.5 - 0.5j
    assert hyperdeterminant_batch(ghz_exact[None])[0] == 0.25
    assert abs(hyperdeterminant_batch(ghz(3).amplitudes[None])[0] - 0.25) <= 2.0**-53
    assert hyperdeterminant_batch(w(3).amplitudes[None])[0] == 0.0


def test_three_tangle_qubit_choice_irrelevant():
    # The residual tau_k - sum of squared pair concurrences is the same for
    # every choice of the distinguished qubit.
    rng = np.random.default_rng(43)
    for _ in range(20):
        psi = random_state(rng, 3)
        residuals = []
        for k in range(3):
            pairs = [tuple(sorted((k, j))) for j in range(3) if j != k]
            c_sq = sum(concurrence(partial_trace(psi, pr)) ** 2 for pr in pairs)
            residuals.append(one_tangle(psi, (k,)) - c_sq)
        assert max(residuals) - min(residuals) < 1e-9


def test_e_ms_landmarks():
    assert abs(e_ms(psi4(1.0)) - 0.75) < 1e-12
    assert abs(e_ms(psi6(1.0)) - 1.0) < 1e-12
    assert abs(e_ms(ghz(3)) - three_tangle_pure(ghz(3))) < 1e-14
    with pytest.raises(StateError):
        e_ms(bell(0))


def test_e_ms_equals_three_tangle_on_three_qubits():
    rng = np.random.default_rng(47)
    for _ in range(30):
        psi = random_state(rng, 3)
        assert abs(e_ms(psi) - three_tangle_pure(psi)) < 1e-12


def test_negativity_landmarks():
    assert abs(negativity(bell(0).density(), (0,)) - 0.5) < 1e-12
    assert negativity(DensityMatrix(np.eye(4) / 4.0, 2), (1,)) == 0.0


def test_measures_invariant_under_local_unitaries():
    rng = np.random.default_rng(53)
    for _ in range(10):
        psi = random_state(rng, 3)
        u = np.kron(np.kron(_haar_unitary(rng), _haar_unitary(rng)), _haar_unitary(rng))
        rotated = StateVector(u @ psi.amplitudes, 3)
        assert abs(one_tangle(psi, (0,)) - one_tangle(rotated, (0,))) < 1e-9
        assert abs(three_tangle_pure(psi) - three_tangle_pure(rotated)) < 1e-9
        assert abs(e_ms(psi) - e_ms(rotated)) < 1e-9
        c_old = concurrence(partial_trace(psi, (0, 1)))
        c_new = concurrence(partial_trace(rotated, (0, 1)))
        assert abs(c_old - c_new) < 1e-9


def _stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    return np.stack([random_state(rng, n).amplitudes for _ in range(count)])


def test_batched_kernels_match_oracles():
    rng = np.random.default_rng(59)
    pure3 = _stack(rng, 3, 40)
    batch_tau = one_tangle_batch(pure3, 3, (0,))
    batch_t3 = three_tangle_batch(pure3)
    batch_ems3 = e_ms_batch(pure3, 3)
    for i, amps in enumerate(pure3):
        psi = StateVector(amps, 3)
        assert abs(batch_tau[i] - one_tangle_oracle(psi, (0,))) < 1e-10
        assert abs(batch_t3[i] - ckw_residual_oracle(psi)) < 1e-10
        assert abs(batch_ems3[i] - e_ms_oracle(psi)) < 1e-10
    for n, count in ((4, 20), (5, 10), (6, 5)):
        pure = _stack(rng, n, count)
        batch_ems = e_ms_batch(pure, n)
        for i, amps in enumerate(pure):
            assert abs(batch_ems[i] - e_ms_oracle(StateVector(amps, n))) < 1e-10


def _product_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        amps = np.kron(amps, random_state(rng, 1).amplitudes)
    return amps


def test_batched_concurrence_matches_scalar():
    # All three pair-matrix branches: E = 2 (three qubits), the 4x4 SVD (four)
    # and the QR compression to 4x4 (five and six).
    rng = np.random.default_rng(61)
    for n in (3, 4):
        states = _stack(rng, n, 30)
        for i, j in ((0, 1), (1, n - 1)):
            batch = concurrence_sq_batch(states, n, i, j)
            for k, amps in enumerate(states):
                reduced = partial_trace(StateVector(amps, n), (i, j))
                assert abs(batch[k] - concurrence(reduced) ** 2) < 1e-10
    for n in (5, 6):
        states = _stack(rng, n, 20)
        for i, j in ((0, 1), (1, n - 1), (2, 4)):
            batch = concurrence_sq_batch(states, n, i, j)
            for k, amps in enumerate(states):
                reduced = partial_trace(StateVector(amps, n), (i, j)).matrix
                assert abs(batch[k] - concurrence_oracle(reduced) ** 2) < 1e-10
    # Pair matrices of rank below 4 put the QR compression at its edge.
    special = [ghz(5), w(5), StateVector(_product_state(rng, 5), 5)]
    special += [ghz(6), w(6), StateVector(_product_state(rng, 6), 6)]
    special += [psi6(p) for p in (0.0, 2.0 / 3.0, 1.0)]
    for psi in special:
        n = psi.n_qubits
        for i, j in combinations(range(n), 2):
            c_sq = concurrence_sq_batch(psi.amplitudes[None], n, i, j)[0]
            reduced = partial_trace(psi, (i, j)).matrix
            assert abs(c_sq - concurrence_oracle(reduced) ** 2) < 1e-10


def test_pair_spin_flip_matrix_is_4x4_beyond_four_qubits():
    rng = np.random.default_rng(71)
    for n in (5, 6):
        states = _stack(rng, n, 3)
        assert _pair_spin_flip_matrix(states, n, 0, 1).shape == (3, 4, 4)
        assert _pair_spin_flip_matrix(states, n, 2, n - 1).shape == (3, 4, 4)
