"""Convex-roof extension of pure-state measures by ensemble-decomposition search.

Every decomposition of a rank-r state into m pure pieces is an m x r isometry
applied to the scaled eigenbasis, so the roof minimum is a search over the
Stiefel manifold. The optimizer has two phases and runs seeded random
restarts in lockstep: each restart draws an isometry, then a batched
Levenberg-Marquardt polish of the member-mixing unitary (Cayley-parameterized,
residuals sqrt(p_i * measure_i)) takes it down, to 1e-8 and below on states
whose optimal ensembles sit in narrow curved valleys. Each step first
linearizes the restarts that moved in their last step: one kernel call over the
2m^2 - m member columns their finite-difference probes change (one per diagonal
generator, two per off-diagonal one). It then prices the candidates, one call
of m rows per restart. A restart retires after 7 straight rejections, or when
even its recent pace over the remaining budget would leave it more than the
tolerance above the best.

Restart draws alternate between Haar isometries and, when the spectrum has a
degenerate cluster, block-diagonal draws that keep each cluster's members inside
its own eigenspace; degenerate states (where the eigenbasis is arbitrary inside
a cluster) are exactly the ones whose optima need that alignment.

Each state keeps one running best, which starts as its spectral ensemble
(the scaled eigenbasis). The search then runs up to two stages, each a full
draw-and-polish run, and a stage runs only while the best is still above the
tolerance. When the rank r is at least 3 and the ensemble size m exceeds it,
the first stage polishes ensembles of r members: zero roofs, such as the e_ms
roof of the Smolin-type mixtures, get there far sooner with r members than
with m. The second stage runs at m, exactly as a single-stage search would.
At rank 2 only the m stage runs, and at rank 1 none. A stage's ensemble
replaces the best only when its cost is strictly lower, so no stage raises a
roof, and ties go to the spectral ensemble, then to the m = r stage, then to
the m stage; within a stage they go to the lowest restart index.

``roof_minimize_many`` searches several states of one register size at once:
each stage polishes the restarts of all its states in one lockstep loop per
ensemble size, which pays the per-step NumPy overhead once for the batch
instead of once per state. The stops stay per state: the tolerance, the
seven-rejection rule and the pace rule each read that state's own restarts,
and a state enters a stage only if its own best is above the tolerance.
Every restart's arithmetic is independent of the others in its kernel calls,
so each roof is bit-identical to a search of its state alone;
``roof_minimize`` is the one-state case. The one exception is a singular
damped system, which sends every restart of that step to the plain gradient
step; with the damping on its diagonal it has not been seen to occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import _batched
from .states import (
    EIGENVALUE_FLOOR,
    RANK_CUTOFF,
    UNIT_ATOL,
    DensityMatrix,
    StateError,
    StateVector,
    check_hermitian,
    check_int,
    check_real,
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
    "roof_minimize_many",
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
        if not np.all(np.isfinite(probs)):
            raise StateError(f"ensemble probabilities must be finite, got {probs!r}")
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
        if not np.allclose(gram, np.eye(v.shape[1]), atol=UNIT_ATOL, rtol=0.0):
            raise StateError(f"isometry columns are not orthonormal within {UNIT_ATOL}")
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
    When that exceeds a rank of 3 or more, a stage at rank members runs
    first, and the stage at the resolved size only when the first misses
    ``objective_tolerance``. ``max_iterations`` caps the Levenberg-Marquardt
    polish steps of each stage. It is also the horizon of the pace rule,
    which retires a restart that could not come within
    ``objective_tolerance`` of the running best in the steps left.
    """

    restarts: int = 32
    max_ensemble_size: int | None = None
    objective_tolerance: float = 1e-8
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("restarts", self.restarts, 1)
        if self.max_ensemble_size is not None:
            check_int("max_ensemble_size", self.max_ensemble_size, 1)
        check_int("max_iterations", self.max_iterations, 0)
        check_int("seed", self.seed, 0)
        check_real("objective_tolerance", self.objective_tolerance, 0.0, np.inf)


@dataclass(frozen=True)
class PovmElement:
    """One positive operator of a measurement; elements must sum to identity."""

    operator: np.ndarray

    def __post_init__(self) -> None:
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise StateError("POVM element must be square")
        check_hermitian(op, "POVM element")
        if float(np.linalg.eigvalsh(op)[0]) < EIGENVALUE_FLOOR:
            raise StateError(f"POVM element has an eigenvalue below {EIGENVALUE_FLOOR}")
        op.setflags(write=False)
        object.__setattr__(self, "operator", op)


class RoofResult(NamedTuple):
    value: float
    ensemble: Ensemble


# --------------------------------------------------------------------------
# measure registry: batched evaluators over (K, 2^n) state stacks


def _resolve_measure(
    measure: str, n: int, partition: Iterable[int]
) -> Callable[[np.ndarray], np.ndarray]:
    name = measure.lower() if isinstance(measure, str) else None
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
        return lambda s: _batched.e_ms_batch(s, n)
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
    """p_i * measure(psi_i) >= 0 for every member column; leading axes are batch axes."""
    norms = np.einsum("...di,...di->...i", columns, columns.conj()).real
    safe = np.sqrt(np.maximum(norms, 1e-300))
    states = (columns / safe[..., None, :]).swapaxes(-1, -2)
    flat = np.ascontiguousarray(states.reshape(-1, columns.shape[-2]))
    vals = fn(flat).reshape(norms.shape)
    vals = np.where(norms > 1e-14, vals, 0.0)
    return np.maximum(norms * vals, 0.0)


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
    as an exact copy whose Jacobian entry is exactly zero. So ``jacobian``
    evaluates only the 2m^2 - m probed members and differences them against
    residuals already priced. ``iterate`` only prices: it makes one kernel
    call on the m candidate members of every restart. The caller computes the
    Jacobian at the top of a step, only for restarts whose columns moved in
    their last step; a rejected step leaves the columns untouched, so its
    residuals and Jacobian stay exact and are kept. Each row of a kernel call
    is computed on its own, so the split changes no value.

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
        probes = _cayley(self.STEP * self.dirs)
        # (parameter, column) of every probed member, parameter-major.
        self.probed_param, self.probed_col = np.nonzero(
            np.any(probes != np.eye(m, dtype=complex), axis=1)
        )
        self.columns = probes[self.probed_param, :, self.probed_col].T  # (m, 2m^2 - m)

    def jacobian(
        self, w: np.ndarray, res: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Jacobian (R, P, m) at w, differenced against its residuals res (R, m)."""
        # einsum, not matmul: a BLAS product may fuse the multiply-adds and
        # round the probed members differently from the finite-difference form.
        probed = _contributions(np.einsum("rdm,mn->rdn", w, self.columns), fn)
        jac = np.zeros((w.shape[0], self.n_params, self.m))
        jac[:, self.probed_param, self.probed_col] = (
            np.sqrt(probed) - res[:, self.probed_col]
        ) / self.STEP
        return jac

    def iterate(
        self,
        w: np.ndarray,
        cost: np.ndarray,
        damping: np.ndarray,
        res: np.ndarray,
        jac: np.ndarray,
        fn: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One damped step per restart; returns (w, cost, damping, accept, res)."""
        grad = np.einsum("rpm,rm->rp", jac, res)
        hess = jac @ jac.transpose(0, 2, 1)
        # The damping goes onto the diagonal in place, so a wide batch holds
        # one (R, P, P) array, not three.
        hess.reshape(hess.shape[0], -1)[:, :: self.n_params + 1] += damping[:, None]
        try:
            delta = np.linalg.solve(hess, -grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = -grad / np.maximum(damping, 1.0)[:, None]
        # A plain product: each generator entry has a single nonzero term in
        # its real and in its imaginary part, so the result is exact.
        gen = (delta @ self.dirs.reshape(self.n_params, -1)).reshape(-1, self.m, self.m)
        candidates = np.einsum("rdm,rmn->rdn", w, _cayley(gen))
        cand_contrib = _contributions(candidates, fn)
        cand_cost = cand_contrib.sum(axis=1)
        # Accept only meaningful drops; float-dust improvements would otherwise
        # keep a stalled restart alive indefinitely.
        accept = (cost - cand_cost) > np.maximum(1e-16, 1e-10 * cost)
        w = np.where(accept[:, None, None], candidates, w)
        cost = np.where(accept, cand_cost, cost)
        damping = np.where(accept, damping * 0.35, damping * 5.0)
        damping = np.clip(damping, 1e-13, 1e8)
        res = np.where(accept[:, None], np.sqrt(cand_contrib), res)
        return w, cost, damping, accept, res


def _polish(
    starts: Sequence[tuple[np.ndarray, np.ndarray]],
    m: int,
    fn: Callable[[np.ndarray], np.ndarray],
    cfg: RoofConfig,
) -> list[tuple[float, np.ndarray]]:
    """Draw cfg.restarts isometries at ensemble size m for every state and
    polish all of them in one lockstep loop.

    Each start is a state's scaled eigenbasis and its eigenvalues. Every stop
    rule reads the state's own restarts, so a state ends exactly where it
    would alone. Returns, per state, the lowest cost and its member columns
    (dim, m); ties go to the lowest restart index.
    """
    restarts = cfg.restarts
    n_states = len(starts)
    w = np.concatenate(
        [
            base[None]
            @ _draw_isometries(cfg.seed, restarts, m, eigenvalues).conj().transpose(0, 2, 1)
            for base, eigenvalues in starts
        ]
    )
    polish = _LockstepPolish(m)
    contrib = _contributions(w, fn)
    cost = contrib.sum(axis=1)
    res = np.sqrt(contrib)
    jac = np.zeros((w.shape[0], polish.n_params, m))
    moved = np.ones(w.shape[0], dtype=bool)  # columns changed since jac was set
    damping = np.full(w.shape[0], 1e-2)
    streak = np.zeros(w.shape[0], dtype=int)
    active = np.ones(w.shape[0], dtype=bool)
    iterations = 0
    snapshot = cost.copy()
    while iterations < cfg.max_iterations:
        # A state stops once its best restart reaches the tolerance or none
        # of its restarts is active.
        best = cost.reshape(n_states, restarts).min(axis=1)
        running = active.reshape(n_states, restarts).any(axis=1) & ~(
            best <= cfg.objective_tolerance
        )
        idx = np.nonzero(active & np.repeat(running, restarts))[0]
        if not idx.size:
            break
        stale = idx[moved[idx]]
        # At most one state's worth of probes per kernel call: a wide batch
        # in one call would set the peak memory of the whole search.
        for lo in range(0, stale.size, restarts):
            block = stale[lo : lo + restarts]
            jac[block] = polish.jacobian(w[block], res[block], fn)
        w[idx], cost[idx], damping[idx], moved[idx], res[idx] = polish.iterate(
            w[idx], cost[idx], damping[idx], res[idx], jac[idx], fn
        )
        iterations += 1
        streak[idx] = np.where(moved[idx], 0, streak[idx] + 1)
        # Retire restarts that converged or stopped making progress. Seven
        # straight rejections let the damping climb 5^7: a fresh draw on a
        # state with a light degenerate cluster, such as smolin(0.01) for
        # e_ms, can need six before its first accepted step.
        done = (cost[idx] <= cfg.objective_tolerance) | (streak[idx] >= 7)
        active[idx[done]] = False
        if iterations % 8 == 0:
            # Retire restarts that cannot catch the running best: even at
            # their pace over the last 8 steps for the whole remaining
            # budget, they would end more than the tolerance above it. The
            # leader always passes. Pace only extrapolates, and a restart on
            # a plateau can escape it later, so the margin is the tolerance
            # the roof is judged by. On a zero roof the rule keeps restarts
            # whose pace could still reach zero; some of them are the
            # eventual winners. The best is the state's own; stopped states
            # never move again, so the rule may touch them.
            pace = (snapshot - cost) / 8
            horizon = cfg.max_iterations - iterations
            best = np.repeat(cost.reshape(n_states, restarts).min(axis=1), restarts)
            active &= cost - pace * horizon <= best + cfg.objective_tolerance
            snapshot = cost.copy()

    costs = cost.reshape(n_states, restarts)
    winners = costs.argmin(axis=1)
    return [(float(costs[s, k]), w[s * restarts + k]) for s, k in enumerate(winners)]


def roof_minimize(
    rho: DensityMatrix,
    measure: str,
    config: RoofConfig | None = None,
    *,
    partition: Iterable[int] = (0,),
) -> RoofResult:
    """Minimize the ensemble-averaged measure over pure-state decompositions.

    Returns the lowest average found and the realizing ensemble, whose
    mixture is checked against rho. The search keeps a running best that
    starts as the spectral ensemble; each stage (m = rank for ranks of 3 or
    more below the ensemble size, then m) runs only while the best is above
    ``objective_tolerance`` and replaces it only with a strictly lower cost.
    So the value is an upper bound on the true roof, never exceeds the
    spectral-ensemble average, and is deterministic for a fixed config:
    restart streams are seeded from (seed, restart index), and ties go to
    the spectral ensemble, then to the m = rank stage, then to the m stage,
    and within a stage to the lowest restart index.
    """
    return roof_minimize_many([rho], measure, config, partition=partition)[0]


def roof_minimize_many(
    rhos: Iterable[DensityMatrix],
    measure: str,
    config: RoofConfig | None = None,
    *,
    partition: Iterable[int] = (0,),
) -> list[RoofResult]:
    """roof_minimize for each state, with their searches polished together.

    The states must share one register size. Each stage runs one lockstep
    loop per ensemble size, in ascending order, over the states whose best
    is still above the tolerance, and every result is bit-identical to
    roof_minimize on its state alone.
    """
    cfg = config or RoofConfig()
    rhos = list(rhos)
    if not rhos:
        return []
    n = rhos[0].n_qubits
    if any(rho.n_qubits != n for rho in rhos):
        raise StateError("roof_minimize_many needs states of one register size")
    fn = _resolve_measure(measure, n, partition)

    best = []  # (cost, member columns) of the lowest ensemble found so far
    starts = []  # (scaled eigenbasis, eigenvalues)
    stages = []  # the ensemble size of each stage, in order
    for rho in rhos:
        spec = spectral_decomposition(rho)
        rank = spec.eigenvalues.shape[0]
        m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else min(2 * rank, 8)
        if rank > m:
            raise StateError(f"rank {rank} exceeds the ensemble-size cap {m}")
        base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
        best.append((float(_contributions(base, fn).sum()), base))
        starts.append((base, spec.eigenvalues))
        # An ensemble of rank members has rank^2 - rank real freedoms (the
        # mixing unitary up to member phases). At rank 2 that is 2 against the
        # 4 real conditions for both members to sit on zeros of the
        # hyperdeterminant, so an m = 2 stage would only add cost. From rank 3
        # on the count no longer rules zero ensembles out, and zero roofs
        # reach the tolerance far sooner at m = rank than at m.
        stages.append(() if rank == 1 else (rank, m) if 3 <= rank < m else (m,))

    for stage in range(max(map(len, stages))):
        due = [
            k for k, sizes in enumerate(stages)
            if len(sizes) > stage and best[k][0] > cfg.objective_tolerance
        ]
        for m in sorted({stages[k][stage] for k in due}):
            group = [k for k in due if stages[k][stage] == m]
            for k, found in zip(group, _polish([starts[k] for k in group], m, fn, cfg)):
                if found[0] < best[k][0]:
                    best[k] = found

    results = []
    for rho, (cost, columns) in zip(rhos, best):
        ensemble = _ensemble_from_columns(columns, n)
        ensemble.check_mixture(rho)
        results.append(RoofResult(cost, ensemble))
    return results


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
    if not np.allclose(total, np.eye(dim_env), atol=UNIT_ATOL, rtol=0.0):
        raise StateError(f"POVM elements do not sum to the identity within {UNIT_ATOL}")

    # |psi> as a (system, environment) matrix, both in register order.
    t = _batched.qubits_first(psi.amplitudes[None], psi.n_qubits, system)[0]

    members = []
    for element in povm:
        vals, vecs = np.linalg.eigh(element.operator)
        heavy = vals > RANK_CUTOFF
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
