"""Core state containers and the linear-algebra primitives every other module builds on.

Convention used throughout the package: qubit 0 is the most significant bit of the
computational-basis index, so ``|q0 q1 ... q_{n-1}>`` maps to index
``q0*2**(n-1) + ... + q_{n-1}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._batched import qubits_first

__all__ = [
    "StateError",
    "StateVector",
    "DensityMatrix",
    "Spectrum",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "trace_norm",
    "spectral_decomposition",
    "purify",
]

# Tolerances shared by the validation layer. Unit-norm / unit-trace / Hermiticity
# violations beyond 1e-10 are rejected; eigenvalues may dip to -1e-10 from float
# noise, anything lower is treated as a real bug in the caller.
UNIT_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
RANK_CUTOFF = 1e-10


class StateError(ValueError):
    """Raised when a state container or operation receives invalid data."""


def _infer_n_qubits(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise StateError(f"{what} dimension {dim} is not a power of two >= 2")
    return n


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int: a Python or NumPy integer in [lo, hi], never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StateError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise StateError(f"{name} must be {bound}, got {value!r}")
    return value


def check_real(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a float: a finite real number in [lo, hi], never a bool.

    Strings, None, complex numbers and sequences are refused, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise StateError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise StateError(f"{name} must be finite, got {value!r}")
    if not lo <= value <= hi:
        raise StateError(f"{name}={value!r} outside [{lo:g}, {hi:g}]")
    return value


def check_unit(name: str, value) -> float:
    """``value`` as a float in the unit interval [0, 1]."""
    return check_real(name, value, 0.0, 1.0)


def check_hermitian(mat: np.ndarray, what: str) -> None:
    """Refuse a square matrix that differs from its adjoint by more than HERMITIAN_ATOL."""
    if not np.allclose(mat, mat.conj().T, atol=HERMITIAN_ATOL, rtol=0.0):
        raise StateError(f"{what} is not Hermitian within {HERMITIAN_ATOL}")


def check_subset(
    indices: Iterable[int],
    n_qubits: int,
    *,
    allow_full: bool = True,
) -> tuple[int, ...]:
    """Validate a strictly increasing qubit subset and return it as a tuple."""
    try:
        subset = tuple(indices)
    except TypeError:
        raise StateError(f"qubit subset must be iterable, got {indices!r}") from None
    subset = tuple(check_int("qubit index", q, 0, n_qubits - 1) for q in subset)
    if any(subset[i] >= subset[i + 1] for i in range(len(subset) - 1)):
        raise StateError(f"qubit subset {subset} must be strictly increasing")
    if not subset:
        raise StateError("qubit subset must be nonempty")
    if len(subset) == n_qubits and not allow_full:
        raise StateError("qubit subset must be a proper subset of the register")
    return subset


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state on ``n_qubits`` qubits.

    ``amplitudes[i]`` is the coefficient of the computational-basis vector whose
    bits spell ``i`` with qubit 0 as the most significant bit.
    """

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        check_int("n_qubits", self.n_qubits, 1)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise StateError("amplitudes must be a 1-D array")
        n = _infer_n_qubits(amps.shape[0], "state vector")
        if n != self.n_qubits:
            raise StateError(f"length {amps.shape[0]} does not match n_qubits={self.n_qubits}")
        norm = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm):  # NaN and infinite amplitudes propagate here
            raise StateError(f"state vector amplitudes must be finite, got norm**2 = {norm!r}")
        if abs(norm - 1.0) > UNIT_ATOL:
            raise StateError(f"state vector norm**2 = {norm!r} is not 1 within {UNIT_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        """The projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.n_qubits)


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace, Hermitian, positive-semidefinite operator on ``n_qubits`` qubits."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        check_int("n_qubits", self.n_qubits, 1)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise StateError("density matrix must be square")
        n = _infer_n_qubits(mat.shape[0], "density matrix")
        if n != self.n_qubits:
            raise StateError(f"dimension {mat.shape[0]} does not match n_qubits={self.n_qubits}")
        check_hermitian(mat, "density matrix")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > UNIT_ATOL:
            raise StateError(f"trace {trace!r} is not 1 within {UNIT_ATOL}")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise StateError(f"eigenvalue {lowest!r} below {EIGENVALUE_FLOOR}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with descending eigenvalues and orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def tensor_product(a, b):
    """Kronecker composition; a's qubits come first in the combined register."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.n_qubits + b.n_qubits)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.n_qubits + b.n_qubits)
    raise StateError("tensor_product needs two StateVectors or two DensityMatrices")


def _as_tensor(state) -> tuple[np.ndarray, int, bool]:
    if isinstance(state, StateVector):
        return state.amplitudes, state.n_qubits, True
    if isinstance(state, DensityMatrix):
        return state.matrix, state.n_qubits, False
    raise StateError(f"expected StateVector or DensityMatrix, got {type(state).__name__}")


def partial_trace(state, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubits, tracing out the rest.

    ``keep`` lists the qubit positions to retain, in increasing order; the result's
    qubit ordering follows it. Tracing out everything is rejected (the full trace is
    a scalar, not a state).
    """
    data, n, pure = _as_tensor(state)
    kept = check_subset(keep, n)
    if pure:
        # For |psi>, build the (kept, dropped) reshape and contract the dropped side.
        psi = qubits_first(data[None], n, kept)[0]
        reduced = psi @ psi.conj().T
    else:
        dropped = [q for q in range(n) if q not in kept]
        rho = data.reshape([2] * (2 * n))
        order = list(kept) + dropped
        rho = np.moveaxis(rho, order + [n + q for q in order], range(2 * n))
        dk, dd = 2 ** len(kept), 2 ** len(dropped)
        rho = rho.reshape(dk, dd, dk, dd)
        reduced = np.einsum("ikjk->ij", rho)
    reduced = 0.5 * (reduced + reduced.conj().T)  # scrub float asymmetry
    return DensityMatrix(reduced, len(kept))


def partial_transpose(rho: DensityMatrix, subset: Iterable[int]) -> np.ndarray:
    """Transpose the listed qubits' indices; returns a plain (possibly non-PSD) matrix."""
    chosen = check_subset(subset, rho.n_qubits)
    n = rho.n_qubits
    t = rho.matrix.reshape([2] * (2 * n))
    src: list[int] = []
    dst: list[int] = []
    for q in chosen:
        src += [q, n + q]
        dst += [n + q, q]
    t = np.moveaxis(t, src, dst)
    return np.ascontiguousarray(t.reshape(rho.dim, rho.dim))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StateError("trace_norm expects a square matrix")
    check_hermitian(mat, "trace_norm input")
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def _clean_spectrum(vals: np.ndarray) -> np.ndarray:
    """Zero the eigenvalues at or below 1e-12 of the largest.

    Eigenvalue noise near zero turns into sqrt(eps)-sized garbage under the
    square root, so it must be zeroed, not just clipped.
    """
    floor = 1e-12 * max(float(vals.max()), 0.0)
    return np.where(vals > floor, vals, 0.0)


def spectral_decomposition(rho: DensityMatrix) -> Spectrum:
    """Eigendecomposition restricted to eigenvalues above ``RANK_CUTOFF``.

    Eigenvalues come out descending. Each eigenvector's phase is fixed by making its
    largest-magnitude component real positive, so repeated calls (and different
    LAPACK builds) agree wherever the spectrum is nondegenerate.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    rank = int(np.sum(vals > RANK_CUTOFF))
    if rank == 0:
        raise StateError("state has no eigenvalue above the rank cutoff")
    vals, vecs = vals[:rank].copy(), vecs[:, :rank].copy()
    for j in range(rank):
        k = int(np.argmax(np.abs(vecs[:, j])))
        phase = vecs[k, j] / abs(vecs[k, j])
        vecs[:, j] = vecs[:, j] / phase
    return Spectrum(vals, vecs)


def _mixture(weights, vectors) -> np.ndarray:
    """Sum of w_k |v_k><v_k| as a plain matrix, summed in the order given from zero."""
    dim = len(vectors[0])
    out = np.zeros((dim, dim), dtype=complex)
    for wk, v in zip(weights, vectors):
        out += wk * np.outer(v, v.conj())
    return out


def _purification(weights, columns: np.ndarray, n_qubits: int) -> StateVector:
    """sum_k sqrt(w_k) |v_k>|k> for the columns v_k of a (2**n_qubits, K) matrix.

    The environment comes after the system qubits. It is the smallest qubit
    register that holds every k, never less than one qubit; the basis states
    past the last member stay empty.
    """
    count = len(weights)
    n_env = (count - 1).bit_length() or 1
    amps = columns * np.sqrt(weights)
    if 0.0 in weights:
        amps += 0.0  # zero times a negative amplitude is -0.0; a sum from zero gives 0.0
    if count < 2**n_env:
        amps = np.hstack([amps, np.zeros((amps.shape[0], 2**n_env - count))])
    return StateVector(amps.reshape(-1), n_qubits + n_env)


def purify(rho: DensityMatrix) -> StateVector:
    """A pure state on system + environment whose system reduction is ``rho``.

    Eigenvector k in descending-eigenvalue order, scaled by the square root of
    its eigenvalue, sits on environment basis state k, under the environment
    rule of :func:`_purification` (a rank-1 input still gets one environment
    qubit, left in |0>).
    """
    spec = spectral_decomposition(rho)
    return _purification(spec.eigenvalues, spec.eigenvectors, rho.n_qubits)
