"""Convex-roof extension of pure-state measures by ensemble-decomposition search.

Every decomposition of a rank-r state into m pure pieces is an m x r isometry
applied to the scaled eigenbasis B (Hughston, Jozsa and Wootters, Phys. Lett.
A 183, 14 (1993)). So every candidate (the spectral ensemble C = I, an exact
rank-2 start, a polished restart) is the r x m range coordinates C of its
members w = B C, priced by ``_range_contributions``, and ``_ensemble``
builds every returned ensemble from B C.

The roof minimum is a search over the Stiefel manifold. Seeded random
restarts run in lockstep: each draws an isometry, then a batched
Levenberg-Marquardt polish of the member-mixing unitary (Cayley-parameterized,
residuals sqrt(p_i * measure_i)) takes it down, to 1e-8 and below on states
whose optimal ensembles sit in narrow curved valleys. Members exist only as
kernel rows, and a probe mixes at most two of them. A restart retires after
7 straight rejections, or when even its recent pace over the remaining
budget would leave it more than the tolerance above the best. The live
restarts are kept compact, gathered again only after a retirement or a
pace check.

Restart draws alternate between Haar isometries and, when the spectrum has a
degenerate cluster, block-diagonal draws that keep each cluster's members inside
its own eigenspace; degenerate states (where the eigenbasis is arbitrary inside
a cluster) are exactly the ones whose optima need that alignment.

``roof_minimize`` sets out the search order: a running best from the
spectral ensemble, an exact start at rank 2, then up to two draw-and-polish
stages. The stage at r members, for ranks of 3 or more below m, is there
because zero roofs, such as the e_ms roof of the Smolin-type mixtures, get
there far sooner with r members than with m.

``roof_minimize_many`` polishes the restarts of all its states in one
lockstep loop per stage, ensemble size and rank, paying the per-step NumPy
overhead once per batch. Every stop rule reads the state's own restarts, and
every restart's arithmetic, in its kernel calls and its damped solve, is
independent of the others, so each roof is bit-identical to a search of its
state alone; ``roof_minimize`` is the one-state case.
"""

from __future__ import annotations

import functools
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
    _mixture,
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
    """A pure-state decomposition: (probability, StateVector) pairs on one
    register, with finite, positive, real probabilities that sum to 1."""

    members: tuple[tuple[float, StateVector], ...]

    def __post_init__(self) -> None:
        members = self.members
        if not isinstance(members, (tuple, list)) or not all(
            isinstance(m, (tuple, list)) and len(m) == 2 and isinstance(m[1], StateVector)
            for m in members
        ):
            raise StateError("ensemble members must be (probability, StateVector) pairs")
        if not members:
            raise StateError("ensemble needs at least one member")
        probs = [check_real("ensemble probability", p, 0.0, np.inf) for p, _ in members]
        if min(probs) == 0.0:
            raise StateError("ensemble probabilities must be positive")
        if len({psi.n_qubits for _, psi in members}) > 1:
            raise StateError("ensemble members must share one register size")
        if abs(sum(probs) - 1.0) > PROB_SUM_ATOL:
            raise StateError(f"ensemble probabilities sum to {sum(probs)!r}, not 1")
        object.__setattr__(self, "members", tuple(zip(probs, (psi for _, psi in members))))

    def mixture(self) -> np.ndarray:
        """Sum of p_i |psi_i><psi_i| as a plain matrix."""
        probs, states = zip(*self.members)
        return _mixture(probs, [psi.amplitudes for psi in states])

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


def _roof_arguments(measure: str, partition: Iterable[int]) -> tuple[str, tuple[int, ...]]:
    """The measure's name and the partition's qubits, checked as far as they can
    be without a register size."""
    name = measure.lower() if isinstance(measure, str) else None
    if name not in ("one_tangle", "three_tangle", "e_ms"):
        raise StateError(f"unsupported roof measure {measure!r}")
    try:
        qubits = tuple(partition)
    except TypeError:
        raise StateError(f"partition must be an iterable of qubits, got {partition!r}") from None
    return name, tuple(check_int("qubit index", q, 0) for q in qubits)


def _resolve_measure(
    name: str, n: int, partition: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """The batched kernel of a measure name and partition that passed
    ``_roof_arguments``, checked against the register size n."""
    if name == "one_tangle":
        subset = check_subset(partition, n, allow_full=False)
        return lambda s: _batched.one_tangle_batch(s, n, subset)
    if name == "e_ms":
        if n < 3:
            raise StateError("e_ms roof needs at least 3 qubits")
        return lambda s: _batched.e_ms_batch(s, n)
    if n != 3:
        raise StateError("three_tangle roof needs a 3-qubit state")
    return _batched.three_tangle_batch


def ensemble_from_isometry(rho: DensityMatrix, v: DecompositionIsometry) -> Ensemble:
    """Decomposition with member i proportional to sum_j conj(v_ij) sqrt(lam_j) |e_j>."""
    spec = spectral_decomposition(rho)
    if v.cols != spec.eigenvalues.shape[0]:
        raise StateError(
            f"isometry has {v.cols} columns but the state has rank {spec.eigenvalues.shape[0]}"
        )
    base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    return _ensemble(rho, base @ v.entries.conj().T)


def _ensemble(rho: DensityMatrix, columns: np.ndarray) -> Ensemble:
    """The ensemble of rho whose members are the columns (dim, k), unnormalized,
    with empty ones dropped; its mixture is checked against rho."""
    probs = np.einsum("di,di->i", columns, columns.conj()).real
    members = [
        (float(p), StateVector(columns[:, i] / np.sqrt(p), rho.n_qubits))
        for i, p in enumerate(probs) if p >= MEMBER_DROP
    ]
    ensemble = Ensemble(tuple(members))
    ensemble.check_mixture(rho)
    return ensemble


# --------------------------------------------------------------------------
# optimizer internals


def _range_contributions(
    coords: np.ndarray,
    basis_t: np.ndarray,
    eigenvalues: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """_contributions of the members B C of coordinates C (..., r, k), given
    B^T (..., r, dim) and the squared norms ``eigenvalues`` (..., r) of B's
    orthogonal columns."""
    terms = eigenvalues[..., None] * (coords.real**2 + coords.imag**2)
    norms = terms[..., 0, :]  # row by row, faster than .sum(axis=-2)
    for j in range(1, terms.shape[-2]):
        norms = norms + terms[..., j, :]
    safe = np.sqrt(np.maximum(norms, 1e-300))
    states = (coords / safe[..., None, :]).swapaxes(-1, -2) @ basis_t
    vals = fn(states.reshape(-1, states.shape[-1])).reshape(norms.shape)
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
    diag = np.arange(m)
    dirs[diag, diag, diag] = 1j
    i, j = np.triu_indices(m, 1)  # each pair: a real, then an imaginary generator
    k = m + 2 * np.arange(i.size)
    dirs[k, i, j], dirs[k, j, i] = 1.0, -1.0
    dirs[k + 1, i, j], dirs[k + 1, j, i] = 1j, 1j
    return dirs


@functools.cache
def _identity(m: int) -> np.ndarray:
    """The complex m x m identity, read-only, built once per size."""
    eye = np.eye(m, dtype=complex)
    eye.setflags(write=False)
    return eye


def _cayley(gen: np.ndarray) -> np.ndarray:
    """(I + A)^{-1} (I - A), unitary for anti-Hermitian A, identity at A = 0."""
    eye = _identity(gen.shape[-1])
    return np.linalg.solve(eye + gen, eye - gen)


class _LockstepPolish:
    """Batched Levenberg-Marquardt on the member-mixing unitary of every restart.

    A step maps coordinates C to C cayley(gen), recentered at C, so the probes
    cayley(STEP * dir) are fixed and shared. A probe changes one member (two
    for an off-diagonal generator) into a mix of at most two; ``jacobian``
    prices only these 2m^2 - m members, as the others' entries are exactly
    zero. ``iterate`` solves each damped step as an m x m system and prices
    the m candidates of every restart in one call. A rejected step leaves
    everything exact, so the caller recomputes the Jacobian only for
    restarts that moved. Kernel rows are independent, so no batch split
    changes a value.

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
            np.any(probes != _identity(m), axis=1)
        )
        columns = probes[self.probed_param, :, self.probed_col]  # (2m^2 - m, m)
        # (sources, weights) twice; a diagonal probe's second weight is 0.
        sources = np.argsort(columns == 0, axis=1, kind="stable")[:, :2]
        weights = np.take_along_axis(columns, sources, axis=1)
        self.mix = [(sources[:, k].copy(), weights[:, k].copy()) for k in (0, 1)]

    def jacobian(
        self, coords: np.ndarray, res: np.ndarray, price: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Jacobian (R, P, m) at coordinates (R, r, m) with residuals res (R, m)."""
        (s0, w0), (s1, w1) = self.mix
        probed = coords[..., s0] * w0 + coords[..., s1] * w1
        jac = np.zeros((coords.shape[0], self.n_params, self.m))
        jac[:, self.probed_param, self.probed_col] = (
            np.sqrt(price(probed)) - res[:, self.probed_col]
        ) / self.STEP
        return jac

    def iterate(
        self,
        coords: np.ndarray,
        cost: np.ndarray,
        damping: np.ndarray,
        res: np.ndarray,
        jac: np.ndarray,
        price: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One damped step per restart; returns (coords, cost, damping, accept, res)."""
        delta = _damped_steps(jac, res, damping)
        # A plain product: each generator entry has a single nonzero term in
        # its real and in its imaginary part, so the result is exact.
        gen = (delta @ self.dirs.reshape(self.n_params, -1)).reshape(-1, self.m, self.m)
        candidates = np.einsum("rjm,rmn->rjn", coords, _cayley(gen))
        cand_contrib = price(candidates)
        cand_cost = cand_contrib.sum(axis=1)
        # Accept only meaningful drops; float-dust improvements would
        # otherwise keep a stalled restart alive forever.
        accept = (cost - cand_cost) > np.maximum(1e-16, 1e-10 * cost)
        coords = np.where(accept[:, None, None], candidates, coords)
        cost = np.where(accept, cand_cost, cost)
        damping = np.where(accept, damping * 0.35, damping * 5.0)
        damping = np.minimum(np.maximum(damping, 1e-13), 1e8)  # np.clip, faster
        res = np.where(accept[:, None], np.sqrt(cand_contrib), res)
        return coords, cost, damping, accept, res


def _damped_steps(jac: np.ndarray, res: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """The Levenberg-Marquardt step (R, P) of every restart, solved in the
    m-dimensional residual space.

    With J the P x m Jacobian and lam > 0, (J J^T + lam I_P)^{-1} J r equals
    J (J^T J + lam I_m)^{-1} r, so the step is -J y with
    (J^T J + lam I_m) y = r. A restart whose system is singular takes the
    plain gradient step -J r / max(lam, 1) instead; the others are re-solved
    one at a time, so no restart's step depends on another's.
    """
    eye = _identity(jac.shape[2]).real
    gram = jac.transpose(0, 2, 1) @ jac + damping[:, None, None] * eye
    try:
        y = np.linalg.solve(gram, res[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if jac.shape[0] == 1:
            return -np.einsum("rpm,rm->rp", jac, res) / max(damping[0], 1.0)
        return np.concatenate(
            [_damped_steps(jac[k : k + 1], res[k : k + 1], damping[k : k + 1])
             for k in range(jac.shape[0])]
        )
    return -np.einsum("rpm,rm->rp", jac, y)


def _polish(
    spectra: Sequence[tuple[np.ndarray, np.ndarray]],
    m: int,
    fn: Callable[[np.ndarray], np.ndarray],
    cfg: RoofConfig,
) -> list[tuple[float, np.ndarray]]:
    """Draw cfg.restarts isometries at ensemble size m for every state (its
    scaled eigenbasis and eigenvalues, one rank for all) and polish them in
    one lockstep loop. Returns, per state, the lowest cost and its range
    coordinates C (r, m); ties go to the lowest restart index. Candidates are
    priced by ``_range_contributions`` against the eigenvalues.
    """
    restarts = cfg.restarts
    n_states = len(spectra)
    basis_t = np.repeat(np.stack([base.T for base, _ in spectra]), restarts, axis=0)
    eigenvalues = np.repeat(np.stack([values for _, values in spectra]), restarts, axis=0)
    coords = np.concatenate(
        [
            _draw_isometries(cfg.seed, restarts, m, values).conj().transpose(0, 2, 1)
            for _, values in spectra
        ]
    )
    polish = _LockstepPolish(m)
    contrib = _range_contributions(coords, basis_t, eigenvalues, fn)
    cost = contrib.sum(axis=1)
    active = np.ones(cost.size, dtype=bool)
    # The live restarts, compact and in order; coords and cost (of all
    # restarts) are written back before each gather.
    ids = np.arange(cost.size)
    c, c_cost, res = coords, cost, np.sqrt(contrib)
    jac = np.zeros((cost.size, polish.n_params, m))
    damping = np.full(cost.size, 1e-2)
    streak = np.zeros(cost.size, dtype=int)  # rejections since the last move
    iterations = 0
    snapshot = cost.copy()
    regather = True

    def price(rows):
        bt, lam = basis_t[rows], eigenvalues[rows]
        return lambda x: _range_contributions(x, bt, lam, fn)

    while iterations < cfg.max_iterations:
        if regather:
            # A state stops once its best restart reaches the tolerance or none
            # of its restarts is active.
            best = cost.reshape(n_states, restarts).min(axis=1)
            running = active.reshape(n_states, restarts).any(axis=1) & ~(
                best <= cfg.objective_tolerance
            )
            keep = active[ids] & running[ids // restarts]
            live = (ids, c, c_cost, res, jac, damping, streak, basis_t, eigenvalues)
            ids, c, c_cost, res, jac, damping, streak, basis_t, eigenvalues = (
                a[keep] for a in live
            )
            if not ids.size:
                break
        stale = np.nonzero(streak == 0)[0]  # moved since jac was set
        # At most one state's worth of probes per kernel call: a wider batch
        # would set the peak memory of the whole search.
        for lo in range(0, stale.size, restarts):
            block = stale[lo : lo + restarts]
            jac[block] = polish.jacobian(c[block], res[block], price(block))
        c, c_cost, damping, accept, res = polish.iterate(
            c, c_cost, damping, res, jac, price(slice(None))
        )
        iterations += 1
        streak = np.where(accept, 0, streak + 1)
        # Retire restarts that converged or stopped making progress. Seven
        # straight rejections let the damping climb 5^7: a fresh draw on a
        # state with a light degenerate cluster, such as smolin(0.01) for
        # e_ms, can need six before its first accepted step.
        done = (c_cost <= cfg.objective_tolerance) | (streak >= 7)
        regather = iterations % 8 == 0 or bool(done.any())
        if regather:
            active[ids[done]] = False
            coords[ids], cost[ids] = c, c_cost
        if iterations % 8 == 0:
            # Retire restarts that, even at their pace over the last 8 steps
            # for the rest of the budget, would end more than the tolerance
            # above their state's best (the leader always passes). Pace only
            # extrapolates and plateaus can be escaped, so on a zero roof the
            # restarts that could still reach zero stay; some of them win.
            # Stopped states never move again, so the rule may touch them.
            pace = (snapshot - cost) / 8
            horizon = cfg.max_iterations - iterations
            best = np.repeat(cost.reshape(n_states, restarts).min(axis=1), restarts)
            active &= cost - pace * horizon <= best + cfg.objective_tolerance
            snapshot = cost.copy()

    coords[ids], cost[ids] = c, c_cost
    costs = cost.reshape(n_states, restarts)
    winners = costs.argmin(axis=1)
    return [(float(costs[s, k]), coords[s * restarts + k]) for s, k in enumerate(winners)]


# --------------------------------------------------------------------------
# exact rank-2 starts: a pure state of a rank-2 range is a unit vector c in
# its eigenbasis, with Pauli vector (1, n), n = c^H sigma c on the Bloch sphere

# A fixed, generic unitary chart of a rank-2 range, columns in its eigenbasis.
# In the eigenbasis itself a zero of the hyperdeterminant can sit at z = inf:
# for rho_ghz_w(p) with p > 1/2, W is the second eigenvector and a zero.
_CHART = np.array([[0.8, -0.36 + 0.48j], [0.36 + 0.48j, 0.8]])


def _rank2_start(
    name: str, eigenvalues: np.ndarray, eigenvectors: np.ndarray, n: int, subset: tuple[int, ...]
) -> np.ndarray | None:
    """Range coordinates (2, k) of an exact ensemble of a rank-2 state, or None.

    For the one-tangle this is Osborne's optimal ensemble; for the
    three-tangle, zeros of the hyperdeterminant whose mixture is the state.
    Member k is sqrt(weight_k) V ray_k, and B = V Lambda^(1/2).
    """
    # The state's own Pauli vector: it is diagonal in its eigenbasis.
    target = np.array(
        [eigenvalues[0] + eigenvalues[1], 0.0, 0.0, eigenvalues[0] - eigenvalues[1]]
    )
    if name == "one_tangle":
        found = _osborne_members(eigenvectors, target, n, subset)
    else:
        found = _zero_set_members(eigenvectors, target)
    if found is None:
        return None
    rays, weights = found
    return rays * np.sqrt(weights / eigenvalues[:, None])


def _osborne_members(
    eigenvectors: np.ndarray, target: np.ndarray, n: int, subset: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Osborne's optimal two-member ensemble for the one-tangle of ``subset``
    (T. J. Osborne, PRA 72, 022309 (2005)): rays (2, 2) and weights (2,).

    The reduction of a range state to the subset is A_0 + sum_k n_k A_k, so
    its one-tangle 2(1 - tr rho_S^2) is a quadratic form in (1, n). Adding
    t(1 - |n|^2), with t the least eigenvalue of the form's 3 x 3 block,
    changes nothing on the sphere and leaves a convex function that is flat
    along that block's eigenvector u. No ensemble averages below its value at
    the state's Bloch vector r, and the two members where the line r + s u
    meets the sphere attain it.
    """
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    t = _batched.qubits_first(eigenvectors.T, n, subset)  # e_i as (subset, rest)
    a = 0.5 * np.einsum("kij,iac,jbc->kab", sigma, t, t.conj())
    # The block is -2 Re tr(A_j A_k): its least eigenvalue is this one's largest.
    u = np.linalg.eigh(np.einsum("jab,kba->jk", a, a).real)[1][:, -1]
    r = target[1:] / target[0]
    ru = float(r @ u)
    root = np.sqrt(ru * ru + 1.0 - r @ r)
    s = np.array([root - ru, -root - ru])  # s[0] > 0 > s[1], as |r| < 1
    points = r + s[:, None] * u
    rays = np.stack([_bloch_ray(point) for point in points], axis=1)
    return rays, target[0] * np.array([-s[1], s[0]]) / (s[0] - s[1])


def _bloch_ray(point: np.ndarray) -> np.ndarray:
    """A unit 2-vector c with c^H sigma c = point, for a unit Bloch vector."""
    x, y, z = point
    c = np.array([1.0 + z, x + 1j * y]) if z >= 0.0 else np.array([x - 1j * y, 1.0 - z])
    return c / np.linalg.norm(c)


def _zero_set_members(
    eigenvectors: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Up to four zeros of the hyperdeterminant D whose mixture is the state:
    rays (2, 4) and non-negative weights, or None.

    D is a homogeneous quartic, so on the range it vanishes on at most four
    rays (Osterloh, Siewert and Uhlmann, PRA 77, 032310 (2008)): the roots of
    the quartic D(f0 + z f1) in the chart f = eigenvectors @ _CHART. Its five
    coefficients come from D at the fifth roots of unity, and a few Newton
    steps on D itself refine each root. The weights then solve
    sum_k w_k (1, n_k) = target; they are all non-negative exactly when the
    state lies in the convex hull of the rays, where its three-tangle roof
    is zero.
    """
    f = eigenvectors @ _CHART
    unity = np.exp(2j * np.pi * np.arange(5) / 5)
    vander = unity[:, None] ** np.arange(5)  # D(unity_j) = sum_k vander_jk c_k
    values = _batched.hyperdeterminant_batch(f[:, 0] + unity[:, None] * f[:, 1])
    coeffs = (vander.conj().T @ values)[::-1] / 5  # z^4 first
    z = np.roots(coeffs)
    if z.size != 4:
        return None
    slope = np.polyder(coeffs)
    for _ in range(3):
        d = _batched.hyperdeterminant_batch(f[:, 0] + z[:, None] * f[:, 1])
        dz = np.polyval(slope, z)
        z = z - np.divide(d, dz, out=np.zeros_like(d), where=dz != 0)
    if not np.all(np.isfinite(z)):
        return None
    rays = _CHART @ np.stack([np.ones(4), z])
    rays /= np.linalg.norm(rays, axis=0)
    cross = rays[0].conj() * rays[1]
    pop = np.abs(rays) ** 2
    pauli = np.stack([pop[0] + pop[1], 2.0 * cross.real, 2.0 * cross.imag, pop[0] - pop[1]])
    try:
        weights = np.linalg.solve(pauli, target)
    except np.linalg.LinAlgError:
        return None
    if not np.all(weights >= 0.0):
        return None
    return rays, weights


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
    starts as the spectral ensemble. At rank 2, while that best is above
    ``objective_tolerance``, an exact start comes next if it has at most m
    members: Osborne's ensemble for the one-tangle, which ends the search,
    or, for the three-tangle, zeros of the hyperdeterminant whose convex
    hull holds rho, where the roof is zero. Each stage (m = rank for ranks
    of 3 or more below the ensemble size, then m; none at rank 1) runs only
    while the best is above ``objective_tolerance``. A start or a stage
    replaces the best only at a strictly lower cost, and every candidate is
    the range coordinates C of its members B C, priced by one function. So
    the value is an upper bound on the true roof, never exceeds the
    spectral-ensemble average, and is deterministic for a fixed config:
    restart streams are seeded from (seed, restart index), and ties go to the
    spectral ensemble, then to the start, then to the m = rank stage, then to
    the m stage, and within a stage to the lowest restart index.
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
    loop per ensemble size and rank, in ascending order, over the states
    whose best is still above the tolerance, and every result is
    bit-identical to roof_minimize on its state alone.
    """
    cfg = config or RoofConfig()
    rhos = list(rhos)
    name, partition = _roof_arguments(measure, partition)
    if not rhos:
        return []
    n = rhos[0].n_qubits
    if any(rho.n_qubits != n for rho in rhos):
        raise StateError("roof_minimize_many needs states of one register size")
    fn = _resolve_measure(name, n, partition)

    best = []  # (cost, range coordinates) of the lowest ensemble found so far
    spectra = []  # (scaled eigenbasis, eigenvalues)
    stages = []  # the ensemble size of each stage, in order
    for rho in rhos:
        spec = spectral_decomposition(rho)
        rank = spec.eigenvalues.shape[0]
        m = cfg.max_ensemble_size if cfg.max_ensemble_size is not None else min(2 * rank, 8)
        if rank > m:
            raise StateError(f"rank {rank} exceeds the ensemble-size cap {m}")
        base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
        # One-off candidates are priced against B's own squared column norms:
        # the eigenvalues match them only to rounding, and the kernels are not
        # scale-invariant (a pure GHZ's one-tangle of 1 would read 1 + 2e-16).
        norms = np.einsum("di,di->i", base, base.conj()).real
        spectral = _identity(rank)  # C = I
        best.append((float(_range_contributions(spectral, base.T, norms, fn).sum()), spectral))
        spectra.append((base, spec.eigenvalues))
        # An ensemble of rank members has rank^2 - rank real freedoms (the
        # mixing unitary up to member phases). At rank 2 that is 2 against the
        # 4 real conditions for both members to sit on zeros of the
        # hyperdeterminant, so an m = 2 stage would only add cost. From rank 3
        # on the count no longer rules zero ensembles out, and zero roofs
        # reach the tolerance far sooner at m = rank than at m.
        sizes = () if rank == 1 else (rank, m) if 3 <= rank < m else (m,)
        if rank == 2 and name != "e_ms" and best[-1][0] > cfg.objective_tolerance:
            coords = _rank2_start(name, spec.eigenvalues, spec.eigenvectors, n, partition)
            if coords is not None and coords.shape[1] <= m:
                cost = float(_range_contributions(coords, base.T, norms, fn).sum())
                if cost < best[-1][0]:
                    best[-1] = (cost, coords)
                if name == "one_tangle":
                    sizes = ()  # Osborne's ensemble is optimal
        stages.append(sizes)

    for stage in range(max(map(len, stages))):
        due = [
            k for k, sizes in enumerate(stages)
            if len(sizes) > stage and best[k][0] > cfg.objective_tolerance
        ]
        for m, rank in sorted({(stages[k][stage], len(spectra[k][1])) for k in due}):
            group = [k for k in due if (stages[k][stage], len(spectra[k][1])) == (m, rank)]
            for k, found in zip(group, _polish([spectra[k] for k in group], m, fn, cfg)):
                if found[0] < best[k][0]:
                    best[k] = found

    return [
        RoofResult(cost, _ensemble(rho, base @ coords))
        for rho, (cost, coords), (base, _) in zip(rhos, best, spectra)
    ]


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
    try:
        povm = tuple(povm)
    except TypeError:
        raise StateError(f"POVM must be an iterable of PovmElements, got {povm!r}") from None
    if not all(isinstance(element, PovmElement) for element in povm):
        raise StateError("every POVM item must be a PovmElement")

    total = np.zeros((dim_env, dim_env), dtype=complex)
    for element in povm:
        if element.operator.shape[0] != dim_env:
            raise StateError("POVM element dimension does not match the environment")
        total = total + element.operator
    if not np.allclose(total, np.eye(dim_env), atol=UNIT_ATOL, rtol=0.0):
        raise StateError(f"POVM elements do not sum to the identity within {UNIT_ATOL}")

    # |psi> as a (system, environment) matrix, both in register order.
    t = _batched.qubits_first(psi.amplitudes[None], psi.n_qubits, system)[0]

    columns = []
    for element in povm:
        vals, vecs = np.linalg.eigh(element.operator)
        heavy = vals > RANK_CUTOFF
        if int(heavy.sum()) > 1:
            raise StateError("mixed-unsupported: POVM element has rank above 1")
        if heavy.any():  # a zero element's outcome never occurs
            columns.append(np.sqrt(vals[heavy][0]) * (t @ vecs[:, heavy][:, 0].conj()))
    # The elements sum to the identity, so at least one is nonzero.
    return _ensemble(partial_trace(psi, system), np.stack(columns, axis=1))
