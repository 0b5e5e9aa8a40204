"""Shared test utilities: random state factories and independent oracles.

The oracles here deliberately avoid the package's own computation paths:
the concurrence oracle goes through the Hermitian square-root construction,
and the three-tangle oracle evaluates the degree-4 polynomial invariant.
The dense polish linearization rebuilds every finite-difference probe
ensemble in full, as the sparse production path avoids doing.
"""

import numpy as np

from qtangle import DensityMatrix, StateVector
from qtangle.roof import _cayley, _contributions, _generator_directions

SY2 = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


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


def hyperdet_tau_oracle(amps: np.ndarray) -> float:
    """Three-tangle as the modulus of the 2x2x2 hyperdeterminant, times 4."""
    a = amps.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


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
