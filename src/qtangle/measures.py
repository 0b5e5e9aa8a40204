"""Entanglement measures: one-tangle, Wootters concurrence, three-tangle,
the mean residual tangle e_ms, and negativity.

The pure-state measures are one-row calls into the :mod:`qtangle._batched`
kernels, which are their only production implementation; independent scalar
oracles for them live in ``tests/helpers.py``. The mixed-state ``concurrence``
and ``negativity`` are computed here.

All measures share one clamping policy: a result in (-1e-9, 0) is floating-point
noise and clamps to 0; anything at or below -1e-9 raises, because that signals a
bug rather than roundoff.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ._batched import _YY, e_ms_batch, one_tangle_batch, three_tangle_batch
from .states import (
    DensityMatrix,
    StateError,
    StateVector,
    _clean_spectrum,
    check_subset,
    partial_transpose,
    trace_norm,
)

__all__ = [
    "one_tangle",
    "single_property",
    "concurrence",
    "three_tangle_pure",
    "e_ms",
    "negativity",
]

CLAMP_FLOOR = -1e-9


def _clamp(value: float, what: str) -> float:
    if value < CLAMP_FLOOR:
        raise StateError(f"{what} = {value!r} is below the {CLAMP_FLOOR} noise floor")
    return 0.0 if value < 0.0 else value


def one_tangle(psi: StateVector, k: Iterable[int]) -> float:
    """Linear entropy 2(1 - tr rho_k^2) of the reduction onto subset ``k``.

    ``k`` must be a proper, nonempty subset of the register.
    """
    subset = check_subset(k, psi.n_qubits, allow_full=False)
    return float(one_tangle_batch(psi.amplitudes[None], psi.n_qubits, subset)[0])


def single_property(psi: StateVector, k: Iterable[int]) -> float:
    """Complement 2 tr rho_k^2 - 1 of the one-tangle; the two sum to exactly 1."""
    return 1.0 - one_tangle(psi, k)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    With rho = X X^dagger for X = V sqrt(Lambda), the sqrt-eigenvalues of the
    Wootters product are the singular values of X^T (sigma_y x sigma_y) X, the
    rank-reduction identity of :mod:`qtangle._batched`. Only the spectrum of rho
    is floored, relative to its largest eigenvalue, so a Wootters value near
    1e-8 survives next to one of order 1.
    """
    if rho.n_qubits != 2:
        raise StateError(f"concurrence needs 2 qubits, got {rho.n_qubits}")
    vals, vecs = np.linalg.eigh(rho.matrix)
    x = vecs * np.sqrt(_clean_spectrum(vals))
    lam = np.linalg.svd(x.T @ _YY @ x, compute_uv=False)
    # The singular-value difference goes genuinely negative on separable states;
    # the measure is its positive part, so no noise-floor check here.
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def three_tangle_pure(psi: StateVector) -> float:
    """Three-tangle 4|hyperdet| of a three-qubit pure state.

    It equals the residual tau_A - C_AB^2 - C_AC^2, which the monogamy
    relation keeps in [0, 1] whichever qubit plays the role of A; rounding
    above 1 is cut off.
    """
    if psi.n_qubits != 3:
        raise StateError(f"three_tangle_pure needs 3 qubits, got {psi.n_qubits}")
    value = float(three_tangle_batch(psi.amplitudes[None])[0])
    return min(_clamp(value, "three-tangle"), 1.0)


def e_ms(psi: StateVector) -> float:
    """Mean residual tangle [sum_k tau_k - 2 sum_{i<j} C_ij^2] / N.

    Averages, over the N qubits, how much each one-tangle exceeds the pairwise
    concurrences it feeds; zero exactly when all entanglement is pairwise. For
    N = 3 this equals the three-tangle.
    """
    n = psi.n_qubits
    if n < 3:
        raise StateError(f"e_ms needs at least 3 qubits, got {n}")
    return _clamp(float(e_ms_batch(psi.amplitudes[None], n)[0]), "e_ms")


def negativity(rho: DensityMatrix, subset: Iterable[int]) -> float:
    """(||rho^{T_subset}||_1 - 1) / 2 under the trace norm."""
    transposed = partial_transpose(rho, subset)
    return _clamp((trace_norm(transposed) - 1.0) / 2.0, "negativity")
