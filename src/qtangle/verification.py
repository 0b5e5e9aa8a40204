"""The acceptance checklist behind ``qtangle verify``.

Each numbered criterion runs as one check over its full grid and reports a
single row with a representative (printed, direct) value pair. Known
printed-vs-direct mismatches appear as extra rows with status ``ledgered``;
they are expected and do not fail the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _batched, catalog, formulas, measures
from .roof import PovmElement, RoofConfig, measure_env_povm, roof_minimize, roof_minimize_many
from .states import DensityMatrix, StateVector, _clean_spectrum, partial_trace, purify

__all__ = ["CheckRow", "VerifyReport", "build_report"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    status: str  # pass | fail | ledgered
    printed_value: float
    direct_value: float
    tolerance: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckRow, ...]

    @property
    def failures(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.checks if row.status == "fail")

    @property
    def ledgered(self) -> tuple[CheckRow, ...]:
        return tuple(row for row in self.checks if row.status == "ledgered")

    def row(self, name: str) -> CheckRow:
        for row in self.checks:
            if row.name == name:
                return row
        raise KeyError(name)


def _row(name: str, ok: bool, printed: float, direct: float, tol: float) -> CheckRow:
    return CheckRow(name, "pass" if ok else "fail", float(printed), float(direct), tol)


def _fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    vals, vecs = np.linalg.eigh(a.matrix)
    vals = _clean_spectrum(vals)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    inner = root @ b.matrix @ root
    ev = _clean_spectrum(np.linalg.eigvalsh(inner))
    return float(np.sum(np.sqrt(ev)) ** 2)


def _criterion_1(cfg: RoofConfig) -> CheckRow:
    p0 = formulas.p0()
    ok = abs(p0 - 0.2918) <= 5e-5
    for p in np.linspace(0.0, 1.0, 101):
        c = measures.concurrence(partial_trace(catalog.rho_ghz_w(p), (0, 1)))
        if p >= p0:
            ok = ok and c <= 1e-10
        elif p < p0 - 1e-3:
            ok = ok and c > 0.0
    # Bracket the LOSU three-tangle threshold p1 with two roofs: zero (within
    # the bound of criteria 4 and 5) just below it, clearly nonzero just above.
    p1 = formulas.p1()
    ok = ok and abs(p1 - 0.6269) <= 5e-5
    below, above = roof_minimize_many(
        [catalog.rho_ghz_w(p1 - 0.01), catalog.rho_ghz_w(p1 + 0.01)], "three_tangle", cfg
    )
    ok = ok and below.value <= 1e-6 and above.value > 1e-4
    return _row("criterion_1", ok, 0.2918, p0, 5e-5)


def _criterion_2(cfg: RoofConfig) -> CheckRow:
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    stack = np.stack([catalog.psi4(p).amplitudes for p in grid])
    values = _batched.e_ms_batch(stack, 4)
    peak = int(np.argmax(values))
    peak_value = float(values[peak])
    ok = abs(grid[peak] - 7.0 / 13.0) <= 1e-3 and abs(peak_value - 0.9808) <= 2e-4
    worst = 0.0
    for p in np.linspace(formulas.p0() + 1e-6, 1.0, 501):
        r = formulas.e_ms_psi4_closed(float(p))
        worst = max(worst, abs(r.value_as_printed - r.value_direct))
    ok = ok and worst <= 1e-10
    return _row("criterion_2", ok, 0.9808, peak_value, 2e-4)


def _criterion_3(cfg: RoofConfig) -> CheckRow:
    ok = abs(formulas.alpha0(0.0) - 0.5575) <= 5e-5
    ok = ok and abs(formulas.alpha0(1.0) - 0.7159) <= 5e-5
    worst_tau = 0.0
    worst_mix = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        a0 = formulas.alpha0(float(p))
        _, first, second = catalog.abd_components(float(p))
        target = a0 * np.outer(first.amplitudes, first.amplitudes.conj()) + (
            1.0 - a0
        ) * np.outer(second.amplitudes, second.amplitudes.conj())
        mean = np.zeros((8, 8), dtype=complex)
        for k in range(3):
            phi_state = catalog.phi_abd(a0, float(p), 2.0 * k * np.pi / 3.0)
            worst_tau = max(worst_tau, measures.three_tangle_pure(phi_state))
            mean += np.outer(phi_state.amplitudes, phi_state.amplitudes.conj()) / 3.0
        worst_mix = max(worst_mix, float(np.max(np.abs(mean - target))))
    ok = ok and worst_tau <= 1e-9 and worst_mix <= 1e-10
    return _row("criterion_3", ok, 0.0, worst_tau, 1e-9)


def _criterion_4(cfg: RoofConfig) -> CheckRow:
    rhos = [catalog.rho_abd(float(p)) for p in np.arange(0.1, 0.95, 0.1)]
    worst = max(0.0, *(r.value for r in roof_minimize_many(rhos, "three_tangle", cfg)))
    return _row("criterion_4", worst <= 1e-6, 0.0, worst, 1e-6)


def _criterion_5(cfg: RoofConfig) -> CheckRow:
    ok = True
    grid = (0.7, 0.85, 1.0)
    states = [catalog.smolin(p) for p in grid]
    for p, state in zip(grid, states):
        ok = ok and formulas.c_ab_sq_smolin(p) == 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                pair = measures.concurrence(partial_trace(state, (i, j)))
                ok = ok and pair <= 1e-10
        ok = ok and measures.negativity(state, (0,)) > 1e-3
    reductions = [
        partial_trace(state, tuple(q for q in range(4) if q != drop))
        for state in states
        for drop in range(4)
    ]
    roofs = roof_minimize_many(reductions, "three_tangle", cfg)
    roofs += roof_minimize_many(states, "e_ms", cfg)
    worst_roof = max(0.0, *(r.value for r in roofs))
    ok = ok and worst_roof <= 1e-6
    return _row("criterion_5", ok, 0.0, worst_roof, 1e-6)


def _criterion_6(cfg: RoofConfig) -> CheckRow:
    ok = True
    for n in range(3, 10):
        state = catalog.rho_wn_mix(n, 1.0 / (n + 1))
        for i in range(n):
            for j in range(i + 1, n):
                ok = ok and measures.concurrence(partial_trace(state, (i, j))) <= 1e-10
        value = roof_minimize(state, "one_tangle", cfg, partition=(0,)).value
        ok = ok and abs(value - formulas.tau_a1_formula(n)) <= 1e-9
        if n == 4:  # the row prints the n = 4 pair
            direct = value
    return _row("criterion_6", ok, formulas.tau_a1_formula(4), direct, 1e-9)


def _criterion_7(cfg: RoofConfig) -> CheckRow:
    families: list[Callable[[float], DensityMatrix]] = [
        lambda p: catalog.rho_ghz_w(p),
        lambda p: catalog.smolin(p),
        lambda a: catalog.rho_wn_mix(3, a),
    ]
    worst = 0.0
    for family in families:
        for x in np.linspace(0.0, 1.0, 21):
            rho = family(float(x))
            psi = purify(rho)
            system = tuple(range(rho.n_qubits))
            back = partial_trace(psi, system)
            worst = max(worst, float(np.max(np.abs(back.matrix - rho.matrix))))
    worst_fid = 0.0
    for p in np.linspace(0.0, 1.0, 21):
        lifted = purify(catalog.rho_ghz_w(float(p)))
        reduced = partial_trace(lifted, (0, 1, 2))
        reference = partial_trace(catalog.psi4(float(p)), (0, 1, 2))
        worst_fid = max(worst_fid, abs(1.0 - _fidelity(reduced, reference)))
    ok = worst <= 1e-10 and worst_fid <= 1e-10
    return _row("criterion_7", ok, 0.0, max(worst, worst_fid), 1e-10)


def _criterion_8(cfg: RoofConfig) -> CheckRow:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    povm = [PovmElement(np.outer(v, v.conj())) for v in (plus, minus)]
    # The +/- measurement attains the one-tangle roof of rho_ghz_w, which is
    # exact on rank-2 states (Osborne, PRA 72, 022309 (2005)).
    grid = [float(p) for p in np.arange(0.1, 0.95, 0.1)]
    roofs = roof_minimize_many(
        [catalog.rho_ghz_w(p) for p in grid], "one_tangle", cfg, partition=(0,)
    )
    worst_gap = 0.0
    for p, res in zip(grid, roofs):
        ensemble = measure_env_povm(catalog.psi4(p), (3,), povm)
        average = ensemble.average(lambda s: measures.one_tangle(s, (0,)))
        worst_gap = max(worst_gap, abs(average - res.value))
    return _row("criterion_8", worst_gap <= 1e-9, 0.0, worst_gap, 1e-9)


def _criterion_9(ledgered: tuple[CheckRow, ...]) -> CheckRow:
    ok = len(ledgered) == 3
    by_name = {row.name: row for row in ledgered}
    psi4_row = by_name.get("ledgered_e_ms_psi4_branch_1")
    psi6_row = by_name.get("ledgered_e_ms_psi6_branch_1")
    weight_row = by_name.get("ledgered_conditional_branch_weight")
    ok = ok and psi4_row is not None and psi6_row is not None and weight_row is not None
    if psi4_row is not None:
        ok = ok and abs(psi4_row.printed_value - 0.8235) <= 1e-3
        ok = ok and abs(psi4_row.direct_value - 0.9149) <= 1e-3
    if psi6_row is not None:
        ok = ok and abs(psi6_row.printed_value - 10.0 / 27.0) <= 1e-3
        ok = ok and abs(psi6_row.direct_value - 26.0 / 27.0) <= 1e-3
    printed = psi4_row.printed_value if psi4_row is not None else np.nan
    direct = psi4_row.direct_value if psi4_row is not None else np.nan
    return _row("criterion_9", ok, printed, direct, 1e-3)


def _haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_pure(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(amps / np.linalg.norm(amps), n)


def _apply_local(psi: StateVector, unitaries: list[np.ndarray]) -> StateVector:
    t = psi.amplitudes.reshape([2] * psi.n_qubits)
    for k, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)
    return StateVector(t.reshape(-1), psi.n_qubits)


def _criterion_10(cfg: RoofConfig) -> CheckRow:
    rng = np.random.default_rng(20240817)
    ok = True

    # Schmidt symmetry: the one-tangle of a cut equals that of its complement.
    for _ in range(200):
        n = int(rng.integers(2, 5))
        psi = _random_pure(rng, n)
        size = int(rng.integers(1, n))
        subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        rest = tuple(q for q in range(n) if q not in subset)
        ok = ok and abs(measures.one_tangle(psi, subset) - measures.one_tangle(psi, rest)) <= 1e-9

    # The single-particle property is 2 tr rho_k^2 - 1 of the explicit reduction.
    for _ in range(200):
        psi = _random_pure(rng, int(rng.integers(2, 5)))
        k = int(rng.integers(0, psi.n_qubits))
        reduced = partial_trace(psi, (k,)).matrix
        purity = float(np.einsum("ij,ji->", reduced, reduced).real)
        ok = ok and abs(measures.single_property(psi, (k,)) - (2.0 * purity - 1.0)) <= 1e-9

    # Monogamy residual stays non-negative on random three-qubit states; at
    # N = 3, e_ms is that residual averaged over the choice of qubit A.
    amps = rng.normal(size=(10_000, 8)) + 1j * rng.normal(size=(10_000, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    residuals = _batched.e_ms_batch(amps, 3)
    ok = ok and float(residuals.min()) >= -1e-9

    # The hyperdeterminant kernel agrees with the monogamy residual.
    worst_hd = float(np.max(np.abs(_batched.three_tangle_batch(amps) - residuals)))
    ok = ok and worst_hd <= 1e-9

    # Local unitaries change nothing, for every measure.
    worst_lu = 0.0
    for _ in range(20):
        psi = _random_pure(rng, 3)
        us = [_haar_unitary(rng) for _ in range(3)]
        rotated = _apply_local(psi, us)
        worst_lu = max(
            worst_lu,
            abs(measures.one_tangle(psi, (0,)) - measures.one_tangle(rotated, (0,))),
            abs(measures.three_tangle_pure(psi) - measures.three_tangle_pure(rotated)),
            abs(measures.e_ms(psi) - measures.e_ms(rotated)),
        )
        rho = partial_trace(psi, (0, 1))
        rho_rot = partial_trace(rotated, (0, 1))
        worst_lu = max(
            worst_lu,
            abs(measures.concurrence(rho) - measures.concurrence(rho_rot)),
            abs(measures.negativity(rho, (0,)) - measures.negativity(rho_rot, (0,))),
        )
        psi4q = _random_pure(rng, 4)
        rotated4 = _apply_local(psi4q, [_haar_unitary(rng) for _ in range(4)])
        worst_lu = max(worst_lu, abs(measures.e_ms(psi4q) - measures.e_ms(rotated4)))
    ok = ok and worst_lu <= 1e-9

    # Same seed, same answer, bit for bit.
    first = roof_minimize(catalog.rho_ghz_w(0.45), "three_tangle", cfg)
    second = roof_minimize(catalog.rho_ghz_w(0.45), "three_tangle", cfg)
    ok = ok and first.value == second.value
    ok = ok and len(first.ensemble.members) == len(second.ensemble.members)
    for (pa, sa), (pb, sb) in zip(first.ensemble.members, second.ensemble.members):
        ok = ok and pa == pb and np.array_equal(sa.amplitudes, sb.amplitudes)

    return _row("criterion_10", ok, 0.0, max(worst_lu, worst_hd), 1e-9)


def _ledgered_rows() -> tuple[CheckRow, ...]:
    weight = formulas.abd_excitation_weight(0.5)
    psi4_probe = formulas.e_ms_psi4_closed(formulas.p0())
    psi6_probe = formulas.e_ms_psi6_closed(2.0 / 3.0)
    rows = []
    for name, result in (
        ("ledgered_conditional_branch_weight", weight),
        ("ledgered_e_ms_psi4_branch_1", psi4_probe),
        ("ledgered_e_ms_psi6_branch_1", psi6_probe),
    ):
        status = "ledgered" if result.discrepancy_flag else "fail"
        rows.append(
            CheckRow(
                name,
                status,
                result.value_as_printed,
                result.value_direct,
                formulas.DISCREPANCY_TOL,
            )
        )
    return tuple(rows)


def build_report(config: RoofConfig | None = None) -> VerifyReport:
    """Run every acceptance check and the discrepancy probes, in order."""
    cfg = config or RoofConfig()
    ledgered = _ledgered_rows()
    rows = [
        _criterion_1(cfg),
        _criterion_2(cfg),
        _criterion_3(cfg),
        _criterion_4(cfg),
        _criterion_5(cfg),
        _criterion_6(cfg),
        _criterion_7(cfg),
        _criterion_8(cfg),
        _criterion_9(ledgered),
        _criterion_10(cfg),
    ]
    rows.extend(ledgered)
    return VerifyReport(tuple(rows))
