"""Convex-roof extension of pure-state measures by ensemble-decomposition search.

Every decomposition of a rank-r state into m pure pieces is an m x r isometry
applied to the scaled eigenbasis, so the roof minimum is a search over the
Stiefel manifold. The optimizer has two phases and runs seeded random
restarts in lockstep: each restart draws an isometry, then a batched
Levenberg-Marquardt polish of the member-mixing unitary (Cayley-parameterized,
residuals sqrt(p_i * measure_i)) takes it down, to 1e-8 and below on states
whose optimal ensembles sit in narrow curved valleys. Its finite-difference
Jacobian evaluates only the member columns a probe changes (one per diagonal
generator, two per off-diagonal one), so each step is one kernel call of 2m^2
rows per restart, and a rejected step keeps the Jacobian it already has.

Restart draws alternate between Haar isometries and, when the spectrum has a
degenerate cluster, block-diagonal draws that keep each cluster's members inside
its own eigenspace; degenerate states (where the eigenbasis is arbitrary inside
a cluster) are exactly the ones whose optima need that alignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _batched
from .states import (
    DensityMatrix,
    StateError,
    StateVector,
    check_subset,
    partial_trace,
    spectral_decomposition,
)

__all__ = [
    "Ensemble",
    "DecompositionIsometry",
    "RoofConfig",
    "PovmElement",
    "RoofResult",
    "ensemble_from_isometry",
    "roof_minimize",
    "measure_env_povm",
]

MIXTURE_ATOL = 1e-9
PROB_SUM_ATOL = 1e-10
MEMBER_DROP = 1e-12
DEGENERACY_ATOL = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """A pure-state decomposition: members are (probability, state) pairs."""

    members: tuple[tuple[float, StateVector], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise StateError("ensemble needs at least one member")
        probs = np.array([p for p, _ in self.members])
        if np.any(probs <= 0.0):
            raise StateError("ensemble probabilities must be positive")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_ATOL:
            raise StateError(f"ensemble probabilities sum to {probs.sum()!r}, not 1")

    def mixture(self) -> np.ndarray:
        """Sum of p_i |psi_i><psi_i| as a plain matrix."""
        dim = self.members[0][1].dim
        out = np.zeros((dim, dim), dtype=complex)
        for p, psi in self.members:
            out += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return out

    def average(self, measure: Callable[[StateVector], float]) -> float:
        return float(sum(p * measure(psi) for p, psi in self.members))

    def check_mixture(self, rho: DensityMatrix, atol: float = MIXTURE_ATOL) -> None:
        err = float(np.max(np.abs(self.mixture() - rho.matrix)))
        if err > atol:
            raise StateError(f"ensemble mixture misses its source by {err!r} (max norm)")


@dataclass(frozen=True)
class DecompositionIsometry:
    """An m x r matrix with orthonormal columns; rows index ensemble members."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.entries, dtype=complex)
        if v.ndim != 2 or v.shape[0] < v.shape[1]:
            raise StateError("isometry needs shape (m, r) with m >= r")
        gram = v.conj().T @ v
        if not np.allclose(gram, np.eye(v.shape[1]), atol=1e-10, rtol=0.0):
            raise StateError("isometry columns are not orthonormal within 1e-10")
        v.setflags(write=False)
        object.__setattr__(self, "entries", v)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class RoofConfig:
    """Knobs for roof_minimize; the defaults match the acceptance runs.

    ``max_ensemble_size`` of None resolves per state to min(2*rank, 8).
    ``max_iterations`` caps refinement effort per run: it counts
    Levenberg-Marquardt polish steps.
    """

    restarts: int = 32
    max_ensemble_size: int | None = None
    objective_tolerance: float = 1e-8
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        counts = {"restarts": 1, "max_iterations": 0, "seed": 0}
        if self.max_ensemble_size is not None:
            counts["max_ensemble_size"] = 1
        for name, least in counts.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise StateError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise StateError(f"{name} must be >= {least}, got {value!r}")
        if not (0.0 <= self.objective_tolerance < np.inf):
            raise StateError(
                f"objective_tolerance must be finite and >= 0, got {self.objective_tolerance!r}"
            )


@dataclass(frozen=True)
class PovmElement:
    """One positive operator of a measurement; elements must sum to identity."""

    operator: np.ndarray

    def __post_init__(self) -> None:
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise StateError("POVM element must be square")
        if not np.allclose(op, op.conj().T, atol=1e-10, rtol=0.0):
            raise StateError("POVM element is not Hermitian within 1e-10")
        if float(np.linalg.eigvalsh(op)[0]) < -1e-10:
            raise StateError("POVM element is not positive semidefinite within 1e-10")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


class RoofResult(NamedTuple):
    value: float
    ensemble: Ensemble


# --------------------------------------------------------------------------
# measure registry: batched evaluators over (K, 2^n) state stacks


def _resolve_measure(
    measure: str, n: int, partition: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    name = measure.lower()
    if name == "one_tangle":
        subset = check_subset(partition, n, allow_full=False)
        return lambda s: _batched.one_tangle_batch(s, n, subset)
    if name in ("three_tangle", "three_tangle_pure"):
        if n != 3:
            raise StateError("three_tangle roof needs a 3-qubit state")
        return _batched.three_tangle_batch
    if name == "e_ms":
        if n < 3:
            raise StateError("e_ms roof needs at least 3 qubits")
        return lambda s: np.maximum(_batched.e_ms_batch(s, n), 0.0)
    raise StateError(f"unsupported roof measure {measure!r}")


def ensemble_from_isometry(rho: DensityMatrix, v: DecompositionIsometry) -> Ensemble:
    """Decomposition with member i proportional to sum_j conj(v_ij) sqrt(lam_j) |e_j>."""
    spec = spectral_decomposition(rho)
    if v.cols != spec.eigenvalues.shape[0]:
        raise StateError(
            f"isometry has {v.cols} columns but the state has rank {spec.eigenvalues.shape[0]}"
        )
    base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    columns = base @ v.entries.conj().T  # (dim, m); column i is the unnormalized member
    ensemble = _ensemble_from_columns(columns, rho.n_qubits)
    ensemble.check_mixture(rho)
    return ensemble


def _ensemble_from_columns(columns: np.ndarray, n_qubits: int) -> Ensemble:
    probs = np.einsum("di,di->i", columns, columns.conj()).real
    members = []
    for i in range(columns.shape[1]):
        if probs[i] < MEMBER_DROP:
            continue
        members.append(
            (float(probs[i]), StateVector(columns[:, i] / np.sqrt(probs[i]), n_qubits))
        )
    return Ensemble(tuple(members))


# --------------------------------------------------------------------------
# optimizer internals, all operating on stacks of member-column matrices


def _contributions(
    columns: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """p_i * measure(psi_i) for every member column; leading axes are batch axes."""
    norms = np.einsum("...di,...di->...i", columns, columns.conj()).real
    safe = np.sqrt(np.maximum(norms, 1e-300))
    states = (columns / safe[..., None, :]).swapaxes(-1, -2)
    flat = np.ascontiguousarray(states.reshape(-1, columns.shape[-2]))
    vals = fn(flat).reshape(norms.shape)
    vals = np.where(norms > 1e-14, vals, 0.0)
    return norms * vals


def _draw_isometries(
    rng_seed: int,
    restarts: int,
    m: int,
    eigenvalues: np.ndarray,
) -> np.ndarray:
    """One isometry per restart: Haar draws, alternating with degeneracy-blocked draws."""
    r = eigenvalues.shape[0]
    clusters: list[list[int]] = [[0]]
    for k in range(1, r):
        if abs(eigenvalues[k] - eigenvalues[k - 1]) <= DEGENERACY_ATOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    degenerate = any(len(c) > 1 for c in clusters)
    out = np.zeros((restarts, m, r), dtype=complex)
    for ridx in range(restarts):
        rng = np.random.default_rng([rng_seed, ridx])
        if degenerate and ridx % 2 == 0:
            out[ridx] = _blocked_draw(rng, m, clusters, r)
        else:
            g = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
            out[ridx], _ = np.linalg.qr(g)
    return out


def _blocked_draw(
    rng: np.random.Generator, m: int, clusters: Sequence[Sequence[int]], r: int
) -> np.ndarray:
    sizes = [len(c) for c in clusters]
    extra = m - r
    extras = [int(round(extra * s / r)) for s in sizes]
    while sum(extras) > extra:
        extras[int(np.argmax(extras))] -= 1
    while sum(extras) < extra:
        extras[int(np.argmax(sizes))] += 1
    v = np.zeros((m, r), dtype=complex)
    row = 0
    for cluster, ex in zip(clusters, extras):
        rc = len(cluster)
        mc = rc + ex
        g = rng.normal(size=(mc, rc)) + 1j * rng.normal(size=(mc, rc))
        q, _ = np.linalg.qr(g)
        v[row : row + mc, cluster[0] : cluster[0] + rc] = q
        row += mc
    return v


def _generator_directions(m: int) -> np.ndarray:
    """Basis of the anti-Hermitian m x m generators, as an (m*m, m, m) stack."""
    dirs = np.zeros((m * m, m, m), dtype=complex)
    idx = 0
    for d in range(m):
        dirs[idx, d, d] = 1j
        idx += 1
    for i in range(m):
        for j in range(i + 1, m):
            dirs[idx, i, j] = 1.0
            dirs[idx, j, i] = -1.0
            idx += 1
            dirs[idx, i, j] = 1j
            dirs[idx, j, i] = 1j
            idx += 1
    return dirs


def _cayley(gen: np.ndarray) -> np.ndarray:
    """(I + A)^{-1} (I - A), unitary for anti-Hermitian A, identity at A = 0."""
    eye = np.eye(gen.shape[-1], dtype=complex)
    return np.linalg.solve(eye + gen, eye - gen)


class _LockstepPolish:
    """Batched Levenberg-Marquardt on the member-mixing unitary of every restart.

    Residuals are sqrt(p_i * measure_i); each iteration recenters the Cayley
    parameterization at the current columns, so the finite-difference probes
    are fixed and shared across restarts and iterations. A probe
    cayley(STEP * dir) differs from the identity in one column for a diagonal
    generator and in two for an off-diagonal one; every other member comes out
    as an exact copy whose Jacobian entry is exactly zero. So ``linearize``
    evaluates only the m current members and the 2m^2 - m probed ones, 2m^2
    rows per restart in one kernel call. A rejected step leaves the columns
    untouched, so its residuals and Jacobian stay exact and are kept.

    STEP is small because the three-tangle residual sqrt(4|D(w)|)/|w| has a
    cusp at every zero of the hyperdeterminant D. Near a zero-valued roof the
    members sit closer to such a zero than a 1e-7 or 1e-8 step, so a forward
    difference that wide straddles the cusp, points the wrong way and stalls
    the search near 1e-7. Residuals are at most 1, so at 1e-9 the rounding
    error of a Jacobian entry stays near 2e-7.
    """

    STEP = 1e-9

    def __init__(self, m: int) -> None:
        self.m = m
        self.n_params = m * m
        self.dirs = _generator_directions(m)
        eye = np.eye(m, dtype=complex)
        probes = _cayley(self.STEP * self.dirs)
        # (parameter, column) of every probed member, parameter-major.
        self.probed_param, self.probed_col = np.nonzero(np.any(probes != eye, axis=1))
        self.columns = np.concatenate(
            [eye, probes[self.probed_param, :, self.probed_col].T], axis=1
        )  # (m, m + Q)
        self.eye_p = np.eye(self.n_params)

    def linearize(
        self, w: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contributions (R, m), residuals (R, m) and Jacobian (P, R, m) at w."""
        m = self.m
        # einsum, not matmul: a BLAS product may fuse the multiply-adds and
        # round the probed members differently from the finite-difference form.
        contrib = _contributions(np.einsum("rdm,mn->rdn", w, self.columns), fn)
        res = np.sqrt(np.maximum(contrib, 0.0))
        base = np.ascontiguousarray(res[:, :m])
        jac = np.zeros((self.n_params, w.shape[0], m))
        jac[self.probed_param, :, self.probed_col] = (
            (res[:, m:] - base[:, self.probed_col]) / self.STEP
        ).T
        return contrib[:, :m], base, jac

    def iterate(
        self,
        w: np.ndarray,
        cost: np.ndarray,
        damping: np.ndarray,
        res: np.ndarray,
        jac: np.ndarray,
        fn: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One damped step per restart; returns (w, cost, damping, accept, res, jac)."""
        grad = np.einsum("prm,rm->rp", jac, res)
        jac_r = jac.transpose(1, 0, 2)
        hess = jac_r @ jac_r.transpose(0, 2, 1)
        hess = hess + damping[:, None, None] * self.eye_p[None]
        try:
            delta = np.linalg.solve(hess, -grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = -grad / np.maximum(damping, 1.0)[:, None]
        # A plain product: each generator entry has a single nonzero term in
        # its real and in its imaginary part, so the result is exact.
        gen = (delta @ self.dirs.reshape(self.n_params, -1)).reshape(-1, self.m, self.m)
        candidates = np.einsum("rdm,rmn->rdn", w, _cayley(gen))
        cand_contrib, cand_res, cand_jac = self.linearize(candidates, fn)
        cand_cost = np.maximum(cand_contrib, 0.0).sum(axis=1)
        # Accept only meaningful drops; float-dust improvements would otherwise
        # keep a stalled restart alive indefinitely.
        accept = (cost - cand_cost) > np.maximum(1e-16, 1e-10 * cost)
        w = np.where(accept[:, None, None], candidates, w)
        cost = np.where(accept, cand_cost, cost)
        damping = np.where(accept, damping * 0.35, damping * 5.0)
        damping = np.clip(damping, 1e-13, 1e8)
        res = np.where(accept[:, None], cand_res, res)
        jac = np.where(accept[None, :, None], cand_jac, jac)
        return w, cost, damping, accept, res, jac


def roof_minimize(
    rho: DensityMatrix,
    measure: str,
    config: RoofConfig | None = None,
    *,
    partition: Iterable[int] = (0,),
) -> RoofResult:
    """Minimize the ensemble-averaged measure over pure-state decompositions.

    Returns the lowest average found and the realizing ensemble. The value is an
    upper bound on the true roof, never exceeds the spectral-ensemble average,
    and is deterministic for a fixed config (restart streams are seeded from
    (seed, restart index), and ties go to the lowest restart index).
    """
    cfg = config or RoofConfig()
    spec = spectral_decomposition(rho)
    rank = spec.eigenvalues.shape[0]
    fn = _resolve_measure(measure, rho.n_qubits, tuple(partition))

    m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else min(2 * rank, 8)
    if rank > m:
        raise StateError(f"rank {rank} exceeds the ensemble-size cap {m}")

    base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    spectral_ensemble = _ensemble_from_columns(base, rho.n_qubits)
    spectral_value = float(np.maximum(_contributions(base, fn), 0.0).sum())
    if rank == 1 or spectral_value <= cfg.objective_tolerance:
        return RoofResult(spectral_value, spectral_ensemble)

    w = base[None] @ _draw_isometries(cfg.seed, cfg.restarts, m, spec.eigenvalues).conj().transpose(
        0, 2, 1
    )
    polish = _LockstepPolish(m)
    contrib, res, jac = polish.linearize(w, fn)
    cost = np.maximum(contrib, 0.0).sum(axis=1)
    damping = np.full(cfg.restarts, 1e-2)
    streak = np.zeros(cfg.restarts, dtype=int)
    active = np.ones(cfg.restarts, dtype=bool)
    iterations = 0
    snapshot = cost.copy()
    while iterations < cfg.max_iterations and np.any(active):
        if float(cost.min()) <= cfg.objective_tolerance:
            break
        idx = np.nonzero(active)[0]
        w_a, cost_a, damp_a, accepted, res_a, jac_a = polish.iterate(
            w[idx], cost[idx], damping[idx], res[idx], jac[:, idx], fn
        )
        w[idx], cost[idx], damping[idx] = w_a, cost_a, damp_a
        res[idx], jac[:, idx] = res_a, jac_a
        iterations += 1
        streak[idx] = np.where(accepted, 0, streak[idx] + 1)
        # Retire restarts that converged or stopped making progress. Seven
        # straight rejections let the damping climb 5^7: a fresh draw on a
        # state with a light degenerate cluster, such as smolin(0.01) for
        # e_ms, can need six before its first accepted step.
        done = (cost[idx] <= cfg.objective_tolerance) | (streak[idx] >= 7)
        active[idx[done]] = False
        if iterations % 8 == 0:
            # Also retire restarts stuck well above the running best: crawling
            # local minima that will not overtake it.
            floor = 10.0 * max(float(cost.min()), cfg.objective_tolerance)
            stuck = active & (cost > floor) & (cost > 0.9 * snapshot)
            active &= ~stuck
            snapshot = cost.copy()

    winner = int(np.argmin(cost))
    if spectral_value <= float(cost[winner]):
        return RoofResult(spectral_value, spectral_ensemble)
    ensemble = _ensemble_from_columns(w[winner], rho.n_qubits)
    ensemble.check_mixture(rho)
    return RoofResult(float(cost[winner]), ensemble)


def measure_env_povm(
    psi: StateVector, env: Iterable[int], povm: Sequence[PovmElement]
) -> Ensemble:
    """Ensemble of post-measurement system states from a POVM on the environment.

    Each element must be rank-1 (a weighted projector); the outcome probability
    is tr[(I (x) E_m) |psi><psi|] and the member is the conditioned system state.
    Mixed conditional states (rank > 1 elements) are not supported.
    """
    env_subset = check_subset(env, psi.n_qubits, allow_full=False)
    system = tuple(q for q in range(psi.n_qubits) if q not in env_subset)
    dim_env = 2 ** len(env_subset)

    total = np.zeros((dim_env, dim_env), dtype=complex)
    for element in povm:
        if element.operator.shape[0] != dim_env:
            raise StateError("POVM element dimension does not match the environment")
        total = total + element.operator
    if not np.allclose(total, np.eye(dim_env), atol=1e-10, rtol=0.0):
        raise StateError("POVM elements do not sum to the identity within 1e-10")

    # Reshape |psi> to (system, environment) with system axes in register order.
    t = psi.amplitudes.reshape([2] * psi.n_qubits)
    t = np.moveaxis(t, list(system) + list(env_subset), range(psi.n_qubits))
    t = t.reshape(-1, dim_env)

    members = []
    for element in povm:
        vals, vecs = np.linalg.eigh(element.operator)
        heavy = vals > 1e-10
        if int(heavy.sum()) > 1:
            raise StateError("mixed-unsupported: POVM element has rank above 1")
        if int(heavy.sum()) == 0:
            continue  # zero element: outcome never occurs
        weight = float(vals[heavy][0])
        direction = vecs[:, heavy][:, 0]
        column = np.sqrt(weight) * (t @ direction.conj())
        prob = float(np.sum(np.abs(column) ** 2))
        if prob < MEMBER_DROP:
            continue
        members.append((prob, StateVector(column / np.sqrt(prob), len(system))))

    ensemble = Ensemble(tuple(members))
    ensemble.check_mixture(partial_trace(psi, system))
    return ensemble
