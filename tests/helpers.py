"""Shared test utilities: random state factories and independent oracles.

The oracles here deliberately avoid the package's own computation paths:
the concurrence oracle goes through the Hermitian square-root construction,
and the pure-state measure oracles (one-tangle, CKW residual, e_ms) take the
purity and the Wootters concurrence of explicit reduced density matrices,
where the production kernels in ``qtangle._batched`` work on reshaped
amplitudes and evaluate the three-tangle as a hyperdeterminant.
``losu_tau3_roof`` and ``ghz_w_one_tangle_roof`` are the exact GHZ/W
three-tangle and one-tangle roofs from the literature, and
``wn_mix_one_tangle_roof`` is the exact one-tangle roof of the W_n mixtures.
``hyperdeterminant_oracle`` expands Cayley's hyperdeterminant term by term,
where the production kernel takes a discriminant of two 2x2 slices.
``_contributions`` prices ensemble members from their columns w = B C,
where production prices every candidate from its range coordinates C.
The dense polish linearization applies every finite-difference probe to
every member, where the production path mixes at most two members per
probed one, and
``dense_lm_step`` solves the damped step over all m^2 parameters, where the
production step solves an m x m system in the residual space.
The ``*_oracle`` builders write each mixed family and its purification out
term by term, from fresh ``ghz``, ``w`` and ``bell`` states and Kronecker
products, where the catalog derives both from one weight rule over a constant
member matrix; ``purify_oracle`` fills a zero environment buffer by hand.
"""

from itertools import combinations

import numpy as np

from qtangle import (
    DensityMatrix,
    StateVector,
    bell,
    concurrence,
    ghz,
    partial_trace,
    spectral_decomposition,
    w,
)
from qtangle.roof import _cayley, _generator_directions, _range_contributions
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


def hyperdeterminant_oracle(states: np.ndarray) -> np.ndarray:
    """Cayley's hyperdeterminant d1 - 2 d2 + 4 d3 of each (K, 8) row, expanded."""
    a = states.reshape(-1, 2, 2, 2)
    a000, a001, a010, a011 = a[:, 0, 0, 0], a[:, 0, 0, 1], a[:, 0, 1, 0], a[:, 0, 1, 1]
    a100, a101, a110, a111 = a[:, 1, 0, 0], a[:, 1, 0, 1], a[:, 1, 1, 0], a[:, 1, 1, 1]
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return d1 - 2.0 * d2 + 4.0 * d3


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


def wn_mix_one_tangle_roof(n: int, alpha: float) -> float:
    """Exact one-tangle roof of qubit 0 of alpha|1...1><1...1| + (1 - alpha)|W_n><W_n|, n >= 3.

    For a member a|W_n> + b|1...1> with x = |a|^2, the two branches of qubit 0
    have orthogonal supports (Hamming weights 1 against 0 and n - 1), so
    rho_0 = diag((n - 1)x/n, 1 - (n - 1)x/n) whatever the phases, and the
    one-tangle 4 det rho_0 is a concave function f(x). Every ensemble has
    mean x equal to <W|rho|W> = 1 - alpha, so its average is at least the
    chord of f from x = 0 to x = 1 there, 4(n - 1)(1 - alpha)/n^2, and the
    spectral ensemble attains it.
    """
    return 4.0 * (n - 1) * (1.0 - alpha) / n**2


def psi4_kron_oracle(p: float) -> np.ndarray:
    """Amplitudes sqrt(1 - p) |W>|0> + sqrt(p) |GHZ>|1> from two fresh krons."""
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    return np.sqrt(1.0 - p) * np.kron(w(3).amplitudes, e0) + np.sqrt(p) * np.kron(
        ghz(3).amplitudes, e1
    )


def rho_ghz_w_oracle(p: float) -> np.ndarray:
    """p |GHZ><GHZ| + (1 - p) |W><W| as a sum of two outer products."""
    g = ghz(3).amplitudes
    ww = w(3).amplitudes
    return p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(ww, ww.conj())


def smolin_oracle(p: float) -> np.ndarray:
    """Bell pair k on AB and CD with weight p/4 (k < 3) or 1 - 3p/4 (k = 3)."""
    weights = (p / 4.0, p / 4.0, p / 4.0, 1.0 - 3.0 * p / 4.0)
    mat = np.zeros((16, 16), dtype=complex)
    for k, wk in enumerate(weights):
        pair = np.kron(bell(k).amplitudes, bell(k).amplitudes)
        mat += wk * np.outer(pair, pair.conj())
    return mat


def psi6_oracle(p: float) -> np.ndarray:
    """Sum over k of sqrt(weight k) |Bell k>_AB |Bell k>_CD |k>_EF."""
    coeffs = (np.sqrt(p / 4.0),) * 3 + (np.sqrt(1.0 - 3.0 * p / 4.0),)
    amps = np.zeros(64, dtype=complex)
    for k, ck in enumerate(coeffs):
        env = np.zeros(4, dtype=complex)
        env[k] = 1.0
        amps += ck * np.kron(np.kron(bell(k).amplitudes, bell(k).amplitudes), env)
    return amps


def rho_wn_mix_oracle(n: int, alpha: float) -> np.ndarray:
    """alpha |1...1><1...1| + (1 - alpha) |W_n><W_n| as two outer products."""
    ones = np.zeros(2**n, dtype=complex)
    ones[-1] = 1.0
    wn = w(n).amplitudes
    return alpha * np.outer(ones, ones.conj()) + (1.0 - alpha) * np.outer(wn, wn.conj())


def psi_n1_oracle(n: int, alpha: float) -> np.ndarray:
    """sqrt(alpha) |1...1>|1> + sqrt(1 - alpha) |W_n>|0> from two fresh krons."""
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    ones = np.zeros(2**n, dtype=complex)
    ones[-1] = 1.0
    return np.sqrt(alpha) * np.kron(ones, e1) + np.sqrt(1.0 - alpha) * np.kron(
        w(n).amplitudes, e0
    )


def purify_oracle(rho: DensityMatrix) -> np.ndarray:
    """Scaled eigenvectors written into a zero (system, environment) buffer."""
    spec = spectral_decomposition(rho)
    rank = spec.eigenvalues.shape[0]
    n_env = max(1, int(np.ceil(np.log2(rank))))
    psi = np.zeros((rho.dim, 2**n_env), dtype=complex)
    psi[:, :rank] = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    return psi.reshape(-1)


def projector(psi: StateVector) -> np.ndarray:
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def _contributions(columns: np.ndarray, fn) -> np.ndarray:
    """p_i * measure(psi_i) >= 0 for every member column; leading axes are batch axes."""
    norms = np.einsum("...di,...di->...i", columns, columns.conj()).real
    safe = np.sqrt(np.maximum(norms, 1e-300))
    states = (columns / safe[..., None, :]).swapaxes(-1, -2)
    flat = np.ascontiguousarray(states.reshape(-1, columns.shape[-2]))
    vals = fn(flat).reshape(norms.shape)
    vals = np.where(norms > 1e-14, vals, 0.0)
    return np.maximum(norms * vals, 0.0)


def dense_linearize(
    coords: np.ndarray, basis_t: np.ndarray, eigenvalues: np.ndarray, fn, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (R, m) and Jacobian (R, m^2, m) of the coordinates (R, r, m)
    in one range (basis_t and eigenvalues as ``roof._range_contributions`` takes
    them) from all m^2 + 1 probe ensembles, each applied to every member."""
    m = coords.shape[-1]
    eye = np.eye(m, dtype=complex)
    probe = np.concatenate([eye[None], _cayley(step * _generator_directions(m))], axis=0)
    probed = np.einsum("rjm,pmn->prjn", coords, probe)
    res = np.sqrt(_range_contributions(probed, basis_t, eigenvalues, fn))  # (m^2 + 1, R, m)
    return res[0], (res[1:] - res[0]).swapaxes(0, 1) / step


def dense_lm_step(jac: np.ndarray, res: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt steps (R, P) from the P x P normal equations
    (J J^T + lam I_P) delta = -J r of every (P, m) Jacobian J."""
    n_params = jac.shape[1]
    hess = jac @ jac.transpose(0, 2, 1) + damping[:, None, None] * np.eye(n_params)
    grad = np.einsum("rpm,rm->rp", jac, res)
    return np.linalg.solve(hess, -grad[..., None])[..., 0]
