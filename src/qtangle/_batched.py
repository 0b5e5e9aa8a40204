"""Vectorized measure kernels over stacks of pure states.

These are the production implementations of every pure-state measure: they
take a (K, 2^n) array of normalized state vectors at once, with no per-state
Python overhead. The convex-roof optimizer calls them thousands of times per
run, and the scalar measures in :mod:`qtangle.measures` call them on one row.
Tests pin them against independent oracles that live in ``tests/helpers.py``.

Pairwise concurrences use a rank-reduction identity instead of the 4x4
eigenproblem: for a pure state with pair reshape M of shape (4, E),
E = 2^(n-2), the sqrt-eigenvalues of the Wootters product equal the singular
values of S = M^T (sigma_y x sigma_y) M, which has rank at most 4. There are
three branches:

- E = 2 (three qubits): the two singular values come from the Frobenius norm
  and the determinant of S alone, so these batches need no LAPACK at all;
- E = 4 (four qubits): a batched SVD of the 4x4 S;
- E > 4 (five qubits or more): an R-only QR of M^H = Q R first. S then has
  the singular values of the 4x4 R^* YY R^H, which goes through the same SVD,
  and the (E, E) matrix is never built. Stacked ``qr(mode="r")`` needs
  NumPy >= 1.22, which the declared floor of 1.24 covers.
"""

from __future__ import annotations

import numpy as np

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def qubits_first(states: np.ndarray, n: int, front: tuple[int, ...]) -> np.ndarray:
    """(K, 2^n) rows as (K, 2^|front|, rest) matrices: rows index the ``front``
    qubits in the order given, columns the others in register order."""
    k = states.shape[0]
    t = states.reshape((k,) + (2,) * n)
    order = list(front) + [q for q in range(n) if q not in front]
    t = np.moveaxis(t, [1 + q for q in order], range(1, n + 1))
    return t.reshape(k, 2 ** len(front), -1)


def one_tangle_batch(states: np.ndarray, n: int, subset: tuple[int, ...]) -> np.ndarray:
    """2(1 - tr rho_k^2) for each row of ``states``."""
    m = qubits_first(states, n, subset)
    gram = m @ m.conj().transpose(0, 2, 1)
    purity = np.einsum("kij,kij->k", gram, gram.conj()).real
    return 2.0 * (1.0 - purity)


def _pair_spin_flip_matrix(states: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """S = M^T (sigma_y x sigma_y) M with the (i, j) pair axes moved to the front.

    The result is (K, E, E) for E = 2 and E = 4. For E > 4 the pair matrix is
    first compressed: with M^H = Q R, S = conj(Q) (R^* YY R^H) Q^H has the
    singular values of R^* YY R^H, so M is replaced by the 4x4 R^H and the
    result is (K, 4, 4). The (E, E) matrix is never formed.
    """
    m = qubits_first(states, n, (i, j))
    if m.shape[2] > 4:
        m = np.linalg.qr(m.conj().transpose(0, 2, 1), mode="r").conj().transpose(0, 2, 1)
    return m.transpose(0, 2, 1) @ (_YY @ m)


def concurrence_sq_batch(states: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Squared Wootters concurrence of the (i, j) reduction of each pure state."""
    s = _pair_spin_flip_matrix(states, n, i, j)
    if s.shape[1] == 2:
        # Two singular values s1 >= s2: C^2 = max(0, s1^2+s2^2 - 2 s1 s2)
        # = max(0, ||S||_F^2 - 2|det S|).
        fro2 = np.einsum("kij,kij->k", s, s.conj()).real
        det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
        return np.maximum(0.0, fro2 - 2.0 * np.abs(det))
    sv = np.linalg.svd(s, compute_uv=False)[:, :4]
    c = sv[:, 0] - sv[:, 1:].sum(axis=1)
    return np.maximum(0.0, c) ** 2


def three_tangle_batch(states: np.ndarray) -> np.ndarray:
    """Three-tangle 4|D| of a (K, 8) batch of normalized states.

    The modulus of Cayley's 2x2x2 hyperdeterminant (Coffman, Kundu and
    Wootters, PRA 61, 052306 (2000)); it equals the CKW residual
    tau_A - C_AB^2 - C_AC^2 and is never negative.
    """
    return 4.0 * np.abs(hyperdeterminant_batch(states))


def hyperdeterminant_batch(states: np.ndarray) -> np.ndarray:
    """Cayley's hyperdeterminant D of each (K, 8) row, complex.

    With A0 and A1 the 2x2 slices of a row at qubit 0 = 0 and 1,
    det(A0 + x A1) = c0 + c1 x + c2 x^2, and D is its discriminant
    c1^2 - 4 c0 c2: 17 array operations, where the expanded d1 - 2 d2 + 4 d3
    of Coffman, Kundu and Wootters takes about 45. Both are the same complex
    quartic, phase included, which the roof's zero-set start relies on when
    it fits a quartic to D on a range. D is homogeneous in the amplitudes,
    so rows need not be normalized.
    """
    a = states.reshape(-1, 2, 2, 2)
    a000, a001, a010, a011 = a[:, 0, 0, 0], a[:, 0, 0, 1], a[:, 0, 1, 0], a[:, 0, 1, 1]
    a100, a101, a110, a111 = a[:, 1, 0, 0], a[:, 1, 0, 1], a[:, 1, 1, 0], a[:, 1, 1, 1]
    c0 = a000 * a011 - a001 * a010
    c1 = a000 * a111 + a100 * a011 - a001 * a110 - a101 * a010
    c2 = a100 * a111 - a101 * a110
    return c1 * c1 - 4.0 * c0 * c2


def e_ms_batch(states: np.ndarray, n: int) -> np.ndarray:
    """Mean residual tangle for a (K, 2^n) batch, n >= 3."""
    tau_sum = np.zeros(states.shape[0])
    for q in range(n):
        tau_sum += one_tangle_batch(states, n, (q,))
    c_sq_sum = np.zeros(states.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            c_sq_sum += concurrence_sq_batch(states, n, i, j)
    return (tau_sum - 2.0 * c_sq_sum) / n
