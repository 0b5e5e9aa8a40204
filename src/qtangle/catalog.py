"""Constructors for the state families the package studies.

Parameter names follow the conventions used across the package: ``p`` is the
GHZ-vs-W (or Bell-weight) mixing parameter, ``alpha`` a superposition or mixing
weight, ``phi`` a relative phase. All live in [0, 1] (``phi`` in [0, 2*pi)).
"""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, StateVector, check_int, check_real, check_unit, partial_trace

__all__ = [
    "ghz",
    "w",
    "bell",
    "rho_ghz_w",
    "psi4",
    "phi_abd",
    "rho_abd",
    "abd_components",
    "smolin",
    "psi6",
    "rho_wn_mix",
    "psi_n1",
]


def ghz(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = check_int("n", n, 2, 10)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, n)


def w(n: int) -> StateVector:
    """Equal superposition of all single-excitation basis states on n qubits."""
    n = check_int("n", n, 2, 10)
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return StateVector(amps, n)


# Bell pair conventions, fixed once for the whole package:
# 0 -> (|00>+|11>)/sqrt2, 1 -> (|00>-|11>)/sqrt2, 2 -> (|01>+|10>)/sqrt2,
# 3 -> (|01>-|10>)/sqrt2 (the singlet).
_BELL_SUPPORT = {0: (0, 3, 1.0), 1: (0, 3, -1.0), 2: (1, 2, 1.0), 3: (1, 2, -1.0)}


def bell(index: int) -> StateVector:
    """One of the four Bell pairs; see the module-level index convention."""
    i, j, sign = _BELL_SUPPORT[check_int("bell index", index, 0, 3)]
    amps = np.zeros(4, dtype=complex)
    amps[i] = 1.0 / np.sqrt(2.0)
    amps[j] = sign / np.sqrt(2.0)
    return StateVector(amps, 2)


def rho_ghz_w(p: float) -> DensityMatrix:
    """Rank-2 mixture p*|GHZ><GHZ| + (1-p)*|W><W| on three qubits."""
    p = check_unit("p", p)
    g = ghz(3).amplitudes
    ww = w(3).amplitudes
    mat = p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(ww, ww.conj())
    return DensityMatrix(mat, 3)


# The two blocks |W>|0> and |GHZ>|1> of psi4, built once.
_W3_0 = np.kron(w(3).amplitudes, np.array([1.0, 0.0], dtype=complex))
_GHZ3_1 = np.kron(ghz(3).amplitudes, np.array([0.0, 1.0], dtype=complex))


def psi4(p: float) -> StateVector:
    """Four-qubit purification sqrt(1-p)|W>|0> + sqrt(p)|GHZ>|1>, qubit order A,B,C,D."""
    p = check_unit("p", p)
    return StateVector(np.sqrt(1.0 - p) * _W3_0 + np.sqrt(p) * _GHZ3_1, 4)


def abd_components(p: float) -> tuple[float, StateVector, StateVector]:
    """Weight and principal components of the A,B,D reduction of psi4(p).

    Returns (weight, first, second) with the reduction equal to
    weight*|first><first| + (1-weight)*|second><second|. The components are the
    conditional states of psi4(p) given qubit C, so their coefficients come from
    the partial trace itself rather than from any quoted formula:
    weight = (2+p)/6, first = sqrt(1-a)|000> + sqrt(a)|111> with a = 3p/(2+p),
    and second = sqrt(b)|001> + sqrt((1-b)/2)(|010> + |100>) with b = 3p/(4-p).
    """
    p = check_unit("p", p)
    # Conditional branches of psi4 on qubit C (position 2): C=1 collects the
    # |111> part of GHZ and the W excitation sitting on C; C=0 the rest.
    t = psi4(p).amplitudes.reshape(2, 2, 2, 2)
    branch1 = t[:, :, 1, :].reshape(8)  # qubits A,B,D after fixing C=1
    branch0 = t[:, :, 0, :].reshape(8)
    w1 = float(np.sum(np.abs(branch1) ** 2))
    first = StateVector(branch1 / np.sqrt(w1), 3)
    second = StateVector(branch0 / np.sqrt(1.0 - w1), 3)
    return w1, first, second


def phi_abd(alpha: float, p: float, phi: float) -> StateVector:
    """Superposition sqrt(alpha)|first> - e^{i phi} sqrt(1-alpha)|second> of the
    two principal components from :func:`abd_components`."""
    alpha = check_unit("alpha", alpha)
    phi = check_real("phi", phi, -np.inf, np.inf)
    _, first, second = abd_components(p)
    amps = np.sqrt(alpha) * first.amplitudes - np.exp(1j * phi) * np.sqrt(
        1.0 - alpha
    ) * second.amplitudes
    return StateVector(amps, 3)


def rho_abd(p: float) -> DensityMatrix:
    """Reduction of psi4(p) onto qubits A, B, D (tracing out C)."""
    return partial_trace(psi4(p), (0, 1, 3))


def smolin(p: float) -> DensityMatrix:
    """Four-qubit Bell-pair-product mixture with weights (p/4, p/4, p/4, 1-3p/4).

    The first three Bell pairs appear with weight p/4 each and the singlet pair
    with weight 1-3p/4, each as the same pair on qubits AB and CD; p=1 gives the
    equally weighted mixture. Invariant under swapping A with B, C with D, and
    the AB pair with the CD pair.
    """
    p = check_unit("p", p)
    weights = (p / 4.0, p / 4.0, p / 4.0, 1.0 - 3.0 * p / 4.0)
    mat = np.zeros((16, 16), dtype=complex)
    for k, wk in enumerate(weights):
        pair = np.kron(bell(k).amplitudes, bell(k).amplitudes)
        mat += wk * np.outer(pair, pair.conj())
    return DensityMatrix(mat, 4)


def psi6(p: float) -> StateVector:
    """Six-qubit purification of smolin(p), qubit order A,B,C,D,E,F.

    Component (i, j) of the EF register carries the Bell pair with index 2i+j on
    both AB and CD; coefficients are sqrt(p/4) on the first three and
    sqrt(1-3p/4) on |11>_EF.
    """
    p = check_unit("p", p)
    coeffs = (np.sqrt(p / 4.0),) * 3 + (np.sqrt(1.0 - 3.0 * p / 4.0),)
    amps = np.zeros(64, dtype=complex)
    for k, ck in enumerate(coeffs):
        env = np.zeros(4, dtype=complex)
        env[k] = 1.0
        amps += ck * np.kron(np.kron(bell(k).amplitudes, bell(k).amplitudes), env)
    return StateVector(amps, 6)


def rho_wn_mix(n: int, alpha: float) -> DensityMatrix:
    """Rank-2 mixture alpha*|1...1><1...1| + (1-alpha)*|W_n><W_n| on n qubits."""
    n = check_int("n", n, 2, 9)
    alpha = check_unit("alpha", alpha)
    ones = np.zeros(2**n, dtype=complex)
    ones[-1] = 1.0
    wn = w(n).amplitudes
    mat = alpha * np.outer(ones, ones.conj()) + (1.0 - alpha) * np.outer(wn, wn.conj())
    return DensityMatrix(mat, n)


def psi_n1(n: int, alpha: float) -> StateVector:
    """(n+1)-qubit purification sqrt(alpha)|1^(n+1)> + sqrt(1-alpha)|W_n>|0>."""
    n = check_int("n", n, 2, 9)
    alpha = check_unit("alpha", alpha)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    ones = np.zeros(2**n, dtype=complex)
    ones[-1] = 1.0
    amps = np.sqrt(alpha) * np.kron(ones, e1) + np.sqrt(1.0 - alpha) * np.kron(
        w(n).amplitudes, e0
    )
    return StateVector(amps, n + 1)
