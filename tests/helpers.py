"""Shared test utilities: random state factories and independent oracles.

The oracles here deliberately avoid the package's own computation paths:
the concurrence oracle goes through the Hermitian square-root construction,
and the pure-state measure oracles (one-tangle, CKW residual, e_ms) take the
purity and the Wootters concurrence of explicit reduced density matrices,
where the production kernels in ``qtangle._batched`` work on reshaped
amplitudes and evaluate the three-tangle as a hyperdeterminant.
``losu_tau3_roof`` and ``ghz_w_one_tangle_roof`` are the exact GHZ/W
three-tangle and one-tangle roofs from the literature.
The dense polish linearization rebuilds every finite-difference probe
ensemble in full, as the sparse production path avoids doing.
"""

from itertools import combinations

import numpy as np

from qtangle import DensityMatrix, StateVector, concurrence, partial_trace
from qtangle.roof import _cayley, _contributions, _generator_directions
from qtangle.verification import _random_pure

SY2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


random_state = _random_pure


def random_density(rng: np.random.Generator, n: int, rank: int) -> DensityMatrix:
    weights = rng.dirichlet(np.ones(rank))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for wgt in weights:
        psi = random_state(rng, n)
        mat += wgt * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(mat, n)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def concurrence_oracle(rho: np.ndarray) -> float:
    """Wootters concurrence via the Hermitian R-matrix, not via eigvals of rho*rho~."""
    flipped = SY2 @ rho.conj() @ SY2
    root = _psd_sqrt(rho)
    r_mat = _psd_sqrt(root @ flipped @ root)
    lam = np.sort(np.linalg.eigvalsh(r_mat))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def one_tangle_oracle(psi: StateVector, k: tuple[int, ...]) -> float:
    """2(1 - tr rho_k^2) from the explicit reduced density matrix."""
    reduced = partial_trace(psi, k).matrix
    return 2.0 * (1.0 - float(np.einsum("ij,ji->", reduced, reduced).real))


def ckw_residual_oracle(psi: StateVector) -> float:
    """Unclamped monogamy residual tau_A - C_AB^2 - C_AC^2 of a three-qubit state."""
    c_ab = concurrence(partial_trace(psi, (0, 1)))
    c_ac = concurrence(partial_trace(psi, (0, 2)))
    return one_tangle_oracle(psi, (0,)) - c_ab**2 - c_ac**2


def e_ms_oracle(psi: StateVector) -> float:
    """Unclamped [sum_k tau_k - 2 sum_{i<j} C_ij^2] / N over explicit reductions."""
    n = psi.n_qubits
    tau_sum = sum(one_tangle_oracle(psi, (k,)) for k in range(n))
    c_sq_sum = sum(
        concurrence(partial_trace(psi, pair)) ** 2 for pair in combinations(range(n), 2)
    )
    return (tau_sum - 2.0 * c_sq_sum) / n


def losu_tau3_roof(p: float) -> float:
    """Exact three-tangle roof of p|GHZ><GHZ| + (1 - p)|W><W|.

    Lohmayer, Osterloh, Siewert and Uhlmann, PRL 97, 260502 (2006): zero up to
    4 2^(1/3) / (3 + 4 2^(1/3)) = 0.626851 (``formulas.p1``), then
    g(p) = p^2 - (8 sqrt(6)/9) sqrt(p (1 - p)^3) up to
    1/2 + 3 sqrt(465)/310 = 0.708683, then the straight line from there to (1, 1).
    """
    zero_end = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))
    line_start = 0.5 + 3.0 * np.sqrt(465.0) / 310.0

    def g(q: float) -> float:
        return q**2 - (8.0 * np.sqrt(6.0) / 9.0) * np.sqrt(q * (1.0 - q) ** 3)

    if p <= zero_end:
        return 0.0
    if p <= line_start:
        return g(p)
    g1 = g(line_start)
    return g1 + (1.0 - g1) * (p - line_start) / (1.0 - line_start)


def ghz_w_one_tangle_roof(p: float) -> float:
    """Exact one-tangle roof of qubit A of p|GHZ><GHZ| + (1 - p)|W><W|.

    (8 - 4p + 5p^2)/9 is the one-tangle of both members
    sqrt(1 - p)|W> +- sqrt(p)|GHZ> of the +- ensemble, and that ensemble is
    optimal because the state has rank 2 (T. J. Osborne, PRA 72, 022309 (2005)).
    """
    return (8.0 - 4.0 * p + 5.0 * p * p) / 9.0


def projector(psi: StateVector) -> np.ndarray:
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def dense_linearize(w: np.ndarray, fn, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (R, m) and Jacobian (m^2, R, m) from all m^2 + 1 probe ensembles."""
    m = w.shape[-1]
    eye = np.eye(m, dtype=complex)
    probe = np.concatenate([eye[None], _cayley(step * _generator_directions(m))], axis=0)
    probed = np.einsum("rdm,pmn->prdn", w, probe)
    res = np.sqrt(np.maximum(_contributions(probed, fn), 0.0))  # (m^2 + 1, R, m)
    return res[0], (res[1:] - res[0]) / step
