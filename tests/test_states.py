import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtangle import (
    DensityMatrix,
    StateError,
    StateVector,
    ghz,
    partial_trace,
    partial_transpose,
    purify,
    spectral_decomposition,
    tensor_product,
    trace_norm,
)
from qtangle.states import check_subset

from helpers import projector, purify_oracle, random_density, random_state


def test_state_vector_validation():
    with pytest.raises(StateError):
        StateVector(np.array([1.0, 0.0, 0.0]), 1)  # not a power-of-two length
    with pytest.raises(StateError):
        StateVector(np.array([1.0, 1.0]), 1)  # not normalized
    with pytest.raises(StateError):
        StateVector(np.array([1.0, 0.0, 0.0, 0.0]), 1)  # qubit count mismatch
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(StateError, match="finite"):
            StateVector(np.array([bad, 0.0, 0.0, 0.0]), 2)
    psi = StateVector(np.array([1.0, 0.0]), 1)
    assert psi.dim == 2


def test_state_vector_density():
    rng = np.random.default_rng(7)
    psi = random_state(rng, 2)
    rho = psi.density()
    assert rho.n_qubits == 2
    np.testing.assert_allclose(rho.matrix, projector(psi), atol=1e-14)


def test_density_matrix_validation():
    eye = np.eye(4) / 4.0
    DensityMatrix(eye, 2)
    with pytest.raises(StateError):
        DensityMatrix(eye * 2.0, 2)  # trace 2
    bad = eye.astype(complex).copy()
    bad[0, 1] = 0.5j
    with pytest.raises(StateError):
        DensityMatrix(bad, 2)  # not Hermitian
    neg = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(StateError):
        DensityMatrix(neg, 2)  # negative eigenvalue


_NON_INTEGER_COUNTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_NON_INTEGER_COUNTS)
@example(3.0)
@example(np.float64(3.0))
@example(1.0)
@example(True)
@example(np.True_)
def test_float_and_bool_qubit_counts_are_refused(value):
    # A stored float count crashes later (partial_trace, one_tangle); the
    # containers refuse it, even where it equals the inferred count.
    for psi in (StateVector(np.array([1.0, 0.0]), 1), ghz(3)):
        with pytest.raises(StateError, match="integer"):
            StateVector(psi.amplitudes, value)
        with pytest.raises(StateError, match="integer"):
            DensityMatrix(psi.density().matrix, value)


def test_numpy_integer_qubit_counts_are_accepted():
    amps = ghz(3).amplitudes
    assert StateVector(amps, np.int64(3)).n_qubits == 3
    assert DensityMatrix(np.outer(amps, amps.conj()), np.int32(3)).n_qubits == 3


def test_tensor_product_shapes_and_kind():
    a = StateVector(np.array([1.0, 0.0]), 1)
    b = StateVector(np.array([0.0, 1.0]), 1)
    ab = tensor_product(a, b)
    assert ab.n_qubits == 2
    assert ab.amplitudes[1] == 1.0  # |01>, qubit 0 most significant
    with pytest.raises(StateError):
        tensor_product(a, a.density())


def test_check_subset_rules():
    assert check_subset((0, 2), 3) == (0, 2)
    with pytest.raises(StateError):
        check_subset((2, 0), 3)  # must be strictly increasing
    with pytest.raises(StateError):
        check_subset((0, 0), 3)
    with pytest.raises(StateError):
        check_subset((3,), 3)
    with pytest.raises(StateError):
        check_subset((), 3)
    with pytest.raises(StateError):
        check_subset((0, 1, 2), 3, allow_full=False)
    # Entries must be integers: no float, integral or not, and no bool.
    for bad in ((0.7,), (1.9,), (0, 2.0), (True,), (0, np.float64(1.0)), ("1",)):
        with pytest.raises(StateError):
            check_subset(bad, 3)
    assert check_subset(np.array([0, 2]), 3) == (0, 2)
    assert all(type(q) is int for q in check_subset((np.int64(1),), 3))


def test_partial_trace_pure_and_mixed_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        psi = random_state(rng, n)
        size = int(rng.integers(1, n + 1))
        keep = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        from_pure = partial_trace(psi, keep)
        from_mixed = partial_trace(psi.density(), keep)
        np.testing.assert_allclose(from_pure.matrix, from_mixed.matrix, atol=1e-12)
        assert abs(np.trace(from_pure.matrix) - 1.0) < 1e-12


def test_partial_trace_keeps_register_order():
    # |psi> = |0>_A |1>_B: keeping B alone must give |1><1|.
    psi = StateVector(np.array([0.0, 1.0, 0.0, 0.0]), 2)
    rho_b = partial_trace(psi, (1,))
    np.testing.assert_allclose(rho_b.matrix, np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_transpose_involution_and_bell():
    # A separable mixture keeps its PT positive, so the intermediate result can
    # be rewrapped and transposed back.
    rng = np.random.default_rng(13)
    parts = [
        np.kron(projector(random_state(rng, 1)), projector(random_state(rng, 1)))
        for _ in range(3)
    ]
    rho = DensityMatrix(sum(parts) / 3.0, 2)
    pt = partial_transpose(rho, (0,))
    back = partial_transpose(DensityMatrix(pt, 2), (0,))
    np.testing.assert_allclose(back, rho.matrix, atol=1e-14)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    pt = partial_transpose(StateVector(bell, 2).density(), (0,))
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12


def test_trace_norm():
    mat = np.diag([0.5, -0.25, 0.25]).astype(complex)
    assert abs(trace_norm(mat) - 1.0) < 1e-14
    with pytest.raises(StateError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_spectral_decomposition_reconstructs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(rng, 2, int(rng.integers(1, 5)))
        spec = spectral_decomposition(rho)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-15)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-10)
        # Phase convention: the largest-magnitude component is real positive.
        for col in spec.eigenvectors.T:
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) < 1e-12 and lead.real > 0.0


def test_purify_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 2**n + 1))
        rho = random_density(rng, n, rank)
        psi = purify(rho)
        back = partial_trace(psi, tuple(range(n)))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-10)


def test_purify_matches_zero_buffer_oracle_bit_for_bit():
    rng = np.random.default_rng(29)
    states = [ghz(3).density()]
    for n in (1, 2, 3):
        states += [random_density(rng, n, rank) for rank in range(1, 2**n + 1)]
    for rho in states:
        assert purify(rho).amplitudes.tobytes() == purify_oracle(rho).tobytes()


def test_purify_environment_size():
    # Rank 1 still gets one environment qubit; rank 3 needs two.
    pure = StateVector(np.array([1.0, 0.0]), 1).density()
    assert purify(pure).n_qubits == 2
    rng = np.random.default_rng(23)
    rho = random_density(rng, 2, 3)
    assert purify(rho).n_qubits == 4
