import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtangle import (
    DecompositionIsometry,
    DensityMatrix,
    Ensemble,
    PovmElement,
    RoofConfig,
    StateError,
    ensemble_from_isometry,
    bell,
    concurrence,
    e_ms,
    ghz,
    measure_env_povm,
    one_tangle,
    partial_trace,
    psi4,
    rho_abd,
    rho_ghz_w,
    rho_wn_mix,
    roof_minimize,
    roof_minimize_many,
    smolin,
    spectral_decomposition,
    three_tangle_pure,
    w,
)

from qtangle import _batched
from qtangle import roof as roof_module
from qtangle.formulas import p1, tau_a1_formula
from qtangle.roof import (
    _damped_steps,
    _draw_isometries,
    _LockstepPolish,
    _range_contributions,
    _resolve_measure,
)
from qtangle.sweep import SweepSpec, run_sweep

from helpers import (
    _contributions,
    dense_linearize,
    dense_lm_step,
    ghz_w_one_tangle_roof,
    losu_tau3_roof,
    random_density,
    wn_mix_one_tangle_roof,
)

LIGHT = RoofConfig(restarts=4, max_iterations=100, seed=1)


def test_ensemble_validation():
    g = ghz(3)
    with pytest.raises(StateError):
        Ensemble(())
    with pytest.raises(StateError):
        Ensemble(((0.6, g), (0.3, w(3))))  # sums to 0.9
    with pytest.raises(StateError):
        Ensemble(((1.2, g), (-0.2, w(3))))
    # NaN fails every comparison, so it must be refused explicitly.
    for members in (
        ((float("nan"), g), (1.0, g)),
        ((float("nan"), g),),
        ((np.nan, g), (0.5, w(3)), (0.5, w(3))),
        ((float("inf"), g), (-float("inf"), w(3))),
    ):
        with pytest.raises(StateError, match="finite"):
            Ensemble(members)


@pytest.mark.parametrize(
    "members",
    [
        ((0.5, ghz(3)), (0.5, bell(0))),  # two register sizes
        ((1.0, ghz(3).amplitudes),),  # a bare array, not a StateVector
        ((1 + 0j, ghz(3)),),
        (("1.0", ghz(3)),),
        (ghz(3),),  # not a pair
    ],
    ids=["mixed_registers", "bare_array", "complex_probability", "string_probability", "bare_state"],
)
def test_ensemble_refuses_malformed_members(members):
    with pytest.raises(StateError):
        Ensemble(members)


def test_ensemble_mixture_and_average():
    ens = Ensemble(((0.25, ghz(3)), (0.75, w(3))))
    np.testing.assert_allclose(ens.mixture(), rho_ghz_w(0.25).matrix, atol=1e-14)
    ens.check_mixture(rho_ghz_w(0.25))
    with pytest.raises(StateError):
        ens.check_mixture(rho_ghz_w(0.5))
    expect = 0.25 * three_tangle_pure(ghz(3)) + 0.75 * three_tangle_pure(w(3))
    assert abs(ens.average(three_tangle_pure) - expect) < 1e-12


def test_isometry_validation():
    DecompositionIsometry(np.eye(3)[:, :2])
    with pytest.raises(StateError):
        DecompositionIsometry(np.array([[1.0, 0.0]]))  # 1 x 2, too flat
    with pytest.raises(StateError):
        DecompositionIsometry(np.ones((2, 2)) / np.sqrt(2.0))
    v = DecompositionIsometry(np.eye(4)[:, :3])
    assert (v.rows, v.cols) == (4, 3)


def test_povm_element_validation():
    PovmElement(np.eye(2) * 0.5)
    with pytest.raises(StateError):
        PovmElement(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        PovmElement(np.diag([1.0, -0.5]))
    with pytest.raises(StateError):
        PovmElement(np.zeros((2, 3)))


def test_roof_config_validation():
    with pytest.raises(StateError):
        RoofConfig(restarts=0)
    with pytest.raises(StateError):
        RoofConfig(max_ensemble_size=0)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(StateError):
            RoofConfig(objective_tolerance=tol)
    with pytest.raises(StateError):
        RoofConfig(max_iterations=-5)
    # Counts must be integers (never bool) and the seed non-negative.
    for bad in (
        {"max_iterations": float("nan")},
        {"max_iterations": 2.5},
        {"seed": -1},
        {"seed": True},
        {"restarts": 2.5},
        {"restarts": float("nan")},
        {"restarts": np.True_},
        {"max_ensemble_size": float("nan")},
        {"max_ensemble_size": False},
    ):
        with pytest.raises(StateError):
            RoofConfig(**bad)
    # The tolerance is a real number, never a bool.
    for tol in ("1e-8", None, 1j, True, np.True_):
        with pytest.raises(StateError):
            RoofConfig(objective_tolerance=tol)
    RoofConfig(objective_tolerance=0.0, max_iterations=0)
    RoofConfig(restarts=np.int64(3), max_ensemble_size=np.int32(4), seed=np.uint8(7))
    for tol in (0, 1e-8, np.float32(1e-6), np.int64(1)):
        RoofConfig(objective_tolerance=tol)


_NON_REAL = st.one_of(
    st.text(), st.none(), st.booleans(), st.complex_numbers(), st.lists(st.floats())
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_NON_REAL)
@example("1e-8")
@example(1j)
def test_roof_config_refuses_non_real_tolerance(value):
    with pytest.raises(StateError):
        RoofConfig(objective_tolerance=value)


def test_ensemble_from_identity_isometry_is_spectral():
    rho = rho_ghz_w(0.7)
    ens = ensemble_from_isometry(rho, DecompositionIsometry(np.eye(2)))
    probs = [p for p, _ in ens.members]
    np.testing.assert_allclose(probs, [0.7, 0.3], atol=1e-12)
    assert abs(abs(np.vdot(ens.members[0][1].amplitudes, ghz(3).amplitudes)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(ens.members[1][1].amplitudes, w(3).amplitudes)) - 1.0) < 1e-12


def test_ensemble_from_balanced_isometry():
    p = 0.7
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ens = ensemble_from_isometry(rho_ghz_w(p), DecompositionIsometry(had))
    assert len(ens.members) == 2
    for sign, (prob, psi) in zip((1.0, -1.0), ens.members):
        assert abs(prob - 0.5) < 1e-12
        expect = np.sqrt(p) * ghz(3).amplitudes + sign * np.sqrt(1.0 - p) * w(3).amplitudes
        assert abs(abs(np.vdot(psi.amplitudes, expect)) - 1.0) < 1e-12


def test_ensemble_from_isometry_drops_empty_rows():
    pad = np.zeros((3, 2))
    pad[0, 0] = pad[1, 1] = 1.0
    ens = ensemble_from_isometry(rho_ghz_w(0.5), DecompositionIsometry(pad))
    assert len(ens.members) == 2


def test_ensemble_from_isometry_rank_mismatch():
    with pytest.raises(StateError):
        ensemble_from_isometry(rho_ghz_w(0.5), DecompositionIsometry(np.eye(3)))


def test_roof_pure_state_shortcut():
    res = roof_minimize(ghz(3).density(), "three_tangle", LIGHT)
    assert abs(res.value - 1.0) < 1e-12
    assert len(res.ensemble.members) == 1
    assert abs(res.ensemble.members[0][0] - 1.0) < 1e-12


def test_roof_spectral_shortcut_on_zero_measure_state():
    # tr_D of the Bell-mixture family: its eigenstates are products of a Bell
    # pair with a one-qubit mixture, so the spectral average already vanishes
    # and the search never starts.
    reduced = partial_trace(smolin(0.8), (0, 1, 2))
    res = roof_minimize(reduced, "three_tangle", LIGHT)
    assert res.value <= 1e-8


def test_roof_never_beats_zero_nor_spectral():
    rng = np.random.default_rng(67)
    for _ in range(5):
        rho = random_density(rng, 3, 2)
        spectral = ensemble_from_isometry(
            rho, DecompositionIsometry(np.eye(2))
        ).average(three_tangle_pure)
        res = roof_minimize(rho, "three_tangle", LIGHT)
        assert -1e-12 <= res.value <= spectral + 1e-12
        assert abs(res.ensemble.average(three_tangle_pure) - res.value) < 1e-12


def test_roof_reports_reachable_average():
    res = roof_minimize(rho_abd(0.5), "three_tangle")
    assert res.value <= 1e-6
    res.ensemble.check_mixture(rho_abd(0.5))


FIG1_GRID = [float(p) for p in np.linspace(0.0, 1.0, 11)]


@pytest.fixture(scope="module")
def fig1_roofs():
    """Per-point roof_minimize results on the 11-point fig1 grid, computed
    once per (measure, seed)."""
    cache: dict[tuple[str, int], list] = {}

    def roofs(measure: str, seed: int) -> list:
        if (measure, seed) not in cache:
            cfg = RoofConfig(seed=seed)
            cache[measure, seed] = [roof_minimize(rho_ghz_w(p), measure, cfg) for p in FIG1_GRID]
        return cache[measure, seed]

    return roofs


def test_roof_matches_losu_exact_roof(fig1_roofs):
    # The fig1 three-tangle column: zero region, convex-hull region and the
    # linear tail of the exact GHZ/W roof, plus a point just below p1.
    values = [r.value for r in fig1_roofs("three_tangle", 0)]
    values.append(roof_minimize(rho_ghz_w(0.62), "three_tangle").value)
    for p, value in zip([*FIG1_GRID, 0.62], values):
        assert -1e-12 <= value - losu_tau3_roof(p) <= 2e-8, p


def test_roof_matches_exact_ghz_w_one_tangle_roof(fig1_roofs):
    # The fig1 one-tangle column against Osborne's exact rank-2 roof.
    for p, res in zip(FIG1_GRID, fig1_roofs("one_tangle", 0)):
        assert abs(res.value - ghz_w_one_tangle_roof(p)) <= 1e-12, p


FIG1_FINE = [float(p) for p in np.linspace(0.0, 1.0, 101)]


def test_fig1_one_tangle_column_matches_exact_roof():
    roofs = roof_minimize_many([rho_ghz_w(p) for p in FIG1_FINE], "one_tangle")
    for p, res in zip(FIG1_FINE, roofs):
        assert abs(res.value - ghz_w_one_tangle_roof(p)) <= 1e-12, p


def test_fig1_three_tangle_zero_region_is_exact():
    # Below p1 the exact GHZ/W roof is zero (LOSU); four zeros of the
    # hyperdeterminant on the range hold every one of these states.
    grid = [p for p in FIG1_FINE if p < p1()]
    roofs = roof_minimize_many([rho_ghz_w(p) for p in grid], "three_tangle")
    for p, res in zip(grid, roofs):
        assert 0.0 <= res.value <= 1e-12, p


# The seed of the two-qubit rank-2 sample of the Wootters pin.
WOOTTERS_SEED = 2005


def test_rank2_two_qubit_one_tangle_roofs_match_wootters():
    # On two qubits the one-tangle of a pure state is its squared
    # concurrence, whose roof is Wootters' C(rho)^2 at every rank.
    rng = np.random.default_rng(WOOTTERS_SEED)
    rhos = [random_density(rng, 2, 2) for _ in range(8)]
    for rho, res in zip(rhos, roof_minimize_many(rhos, "one_tangle")):
        assert abs(res.value - concurrence(rho) ** 2) <= 1e-12


@pytest.mark.parametrize("rank, count", [(3, 4), (4, 2)])
def test_two_qubit_one_tangle_roofs_match_wootters_at_rank_3_and_4(rank, count):
    # The first ``count`` states of rank ``rank`` from a fresh generator, and
    # at rank 4 also the separable I/4, whose roof is 0.
    rng = np.random.default_rng(11)
    rhos = [random_density(rng, 2, rank) for _ in range(count)]
    if rank == 4:
        rhos.append(DensityMatrix(np.eye(4) / 4.0, 2))
    for k, (rho, res) in enumerate(zip(rhos, roof_minimize_many(rhos, "one_tangle"))):
        assert -1e-12 <= res.value - concurrence(rho) ** 2 <= 2e-8, k


@pytest.mark.parametrize("n", range(4, 10))
def test_wn_mix_has_no_multipartite_tangles(n):
    # The paper's headline for its N-qubit family: no genuine three-, ...,
    # N-qubit entanglement, read as zero e_ms and three-tangle roofs.
    states = [rho_wn_mix(n, alpha) for alpha in (1.0 / (n + 1), 0.5)]
    reduced = [partial_trace(rho, (0, 1, 2)) for rho in states]
    roofs = roof_minimize_many(states, "e_ms") + roof_minimize_many(reduced, "three_tangle")
    for res in roofs:
        assert res.value <= 1e-12


def test_wn_mix_one_tangle_oracle_matches_paper_formula():
    for n in range(3, 10):
        assert abs(wn_mix_one_tangle_roof(n, 1.0 / (n + 1)) - tau_a1_formula(n)) < 1e-15, n


def test_wn_mix_one_tangle_column_matches_exact_roof():
    # The wn_mix sweep column at the default config against the exact roof.
    spec = SweepSpec("wn_mix", 0.0, 1.0, 11, ("one_tangle_roof_A1",), RoofConfig())
    _, rows = run_sweep(spec)
    for alpha, value in rows:
        assert abs(value - wn_mix_one_tangle_roof(3, alpha)) <= 1e-12, alpha
    for n in (4, 6):
        alphas = [0.1, 0.5, 0.9]
        roofs = roof_minimize_many([rho_wn_mix(n, a) for a in alphas], "one_tangle")
        for alpha, res in zip(alphas, roofs):
            assert abs(res.value - wn_mix_one_tangle_roof(n, alpha)) <= 1e-12, (n, alpha)


@pytest.mark.parametrize(
    "state, measure, exact",
    [
        (rho_ghz_w(0.3), "three_tangle", 0.0),
        (rho_ghz_w(0.5), "three_tangle", 0.0),
        (rho_ghz_w(0.5), "one_tangle", ghz_w_one_tangle_roof(0.5)),
        (rho_wn_mix(3, 0.5), "one_tangle", wn_mix_one_tangle_roof(3, 0.5)),
    ],
    ids=["zero_0.3", "zero_0.5", "osborne_ghz_w", "osborne_wn_mix"],
)
def test_rank2_starts_end_the_search(monkeypatch, state, measure, exact):
    # An exact rank-2 start ends the roof before any stage: nothing is drawn
    # and nothing is polished.
    def never(*args):
        raise AssertionError("a search ran after an exact start")

    monkeypatch.setattr(roof_module, "_draw_isometries", never)
    monkeypatch.setattr(roof_module, "_polish", never)
    res = roof_minimize(state, measure)
    assert abs(res.value - exact) <= 1e-12
    res.ensemble.check_mixture(state)


def test_zero_set_start_needs_room_for_its_members(monkeypatch):
    # Four zeros of the hyperdeterminant do not fit an ensemble of three,
    # so the m = 3 search runs as it would without a start.
    sizes: list[int] = []
    polish = roof_module._polish

    def recorded_polish(spectra, m, fn, config):
        sizes.append(m)
        return polish(spectra, m, fn, config)

    monkeypatch.setattr(roof_module, "_polish", recorded_polish)
    roof_minimize(rho_ghz_w(0.3), "three_tangle", RoofConfig(**_RANK3_LIGHT, max_ensemble_size=3))
    assert sizes == [3]


@pytest.mark.parametrize(
    "n, partition", [(2, (0,)), (3, (0,)), (3, (1, 2)), (4, (0, 2)), (5, (3,))]
)
def test_polish_never_ends_below_the_osborne_start(n, partition):
    # The start is exact, so a full search without it may only end above it.
    rng = np.random.default_rng(2000 + n)
    rhos = [random_density(rng, n, 2) for _ in range(2)]
    fn = _resolve_measure("one_tangle", n, partition)
    spectra = []
    for rho in rhos:
        spec = spectral_decomposition(rho)
        spectra.append((spec.eigenvectors * np.sqrt(spec.eigenvalues), spec.eigenvalues))
    searched = roof_module._polish(spectra, 4, fn, RoofConfig())
    for rho, (cost, _) in zip(rhos, searched):
        exact = roof_minimize(rho, "one_tangle", partition=partition).value
        assert cost >= exact - 1e-12


@pytest.mark.parametrize(
    "state, measure, cfg",
    [
        (partial_trace(smolin(0.8), (0, 1, 2)), "three_tangle", RoofConfig()),
        (rho_ghz_w(0.5), "one_tangle", RoofConfig()),
        (rho_ghz_w(0.3), "three_tangle", RoofConfig()),
        (random_density(np.random.default_rng(1), 3, 3), "three_tangle", LIGHT),
        (smolin(0.85), "e_ms", RoofConfig()),
    ],
    ids=["spectral", "osborne", "zero_set", "polished_rank3", "smolin_e_ms"],
)
def test_roof_value_is_its_ensemble_average(state, measure, cfg):
    pure = {
        "one_tangle": lambda psi: one_tangle(psi, (0,)),
        "three_tangle": three_tangle_pure,
        "e_ms": e_ms,
    }[measure]
    res = roof_minimize(state, measure, cfg)
    assert abs(res.value - res.ensemble.average(pure)) <= 1e-12


def test_pure_ghz_one_tangle_roof_is_exactly_one():
    # The spectral ensemble is priced against its members' own norms, not
    # the eigenvalue, which is 1 only to rounding.
    assert roof_minimize(rho_ghz_w(1.0), "one_tangle").value == 1.0


def test_roof_stops_before_budget_on_linear_branch(monkeypatch):
    # On the linear branch of the exact GHZ/W roof the minimum is nonzero, so
    # only retirement can end the polish before the budget: losing restarts
    # that cannot catch the leader must retire.
    steps = []
    iterate = _LockstepPolish.iterate

    def counted(self, *args):
        steps.append(1)
        return iterate(self, *args)

    monkeypatch.setattr(_LockstepPolish, "iterate", counted)
    cfg = RoofConfig()
    for p in (0.7, 0.8, 0.9):
        steps.clear()
        value = roof_minimize(rho_ghz_w(p), "three_tangle", cfg).value
        assert len(steps) < cfg.max_iterations, p
        assert -1e-12 <= value - losu_tau3_roof(p) <= 2e-8, p


@pytest.mark.parametrize(
    "p, seed", [*((p, seed) for p in (0.01, 0.03) for seed in range(6)), (0.005, 3)]
)
def test_roof_reaches_zero_on_light_degenerate_cluster(p, seed):
    # smolin(0.01) has eigenvalues 0.9925 and 3 x 0.0025, and every Bell-pair
    # product member has zero e_ms. A fresh draw can need six straight
    # rejections before its first accepted polish step; a polish that retires
    # restarts after five stops near 1e-5 here. At m = 8 and seed 5 the
    # eventual winner crawls at 1e-2 while the best is at 3e-5 (step 24); a
    # rule that retires every slow restart 10x above the best drops it and
    # ends at 4.8e-8. The m = rank = 4 stage reaches the tolerance on all of
    # these.
    assert roof_minimize(smolin(p), "e_ms", RoofConfig(seed=seed)).value <= 1e-8


# A rank-3 three-qubit state whose three-tangle roof is near 0.075.
_RANK3 = random_density(np.random.default_rng(1), 3, 3)
_RANK3_LIGHT = {"restarts": 4, "max_iterations": 100}


@pytest.mark.parametrize(
    "state, measure, cfg, sizes, winner, exact",
    [
        # At rank 2 only the m = 4 search runs. rho_ghz_w(0.8) lies outside
        # the convex hull of the hyperdeterminant's zeros, so no start ends it.
        (rho_ghz_w(0.8), "three_tangle", RoofConfig(), [4], 0, losu_tau3_roof(0.8)),
        # A zero roof reached at m = rank ends the search.
        (smolin(0.85), "e_ms", RoofConfig(), [4], 0, 0.0),
        # A nonzero roof runs both stages and keeps the lower value: at
        # restart seed 1 the m = 6 stage ends lower, at seed 4 the m = 3 one.
        (_RANK3, "three_tangle", RoofConfig(**_RANK3_LIGHT, seed=1), [3, 6], 1, None),
        (_RANK3, "three_tangle", RoofConfig(**_RANK3_LIGHT, seed=4), [3, 6], 0, None),
        (_RANK3, "three_tangle", RoofConfig(**_RANK3_LIGHT, max_ensemble_size=3), [3], 0, None),
    ],
    ids=["rank2", "zero_at_rank", "wide_wins", "rank_wins", "cap_at_rank"],
)
def test_roof_stages(monkeypatch, state, measure, cfg, sizes, winner, exact):
    drawn: list[int] = []
    values: list[float] = []
    draw, polish = roof_module._draw_isometries, roof_module._polish

    def recorded_draw(seed, restarts, m, eigenvalues):
        drawn.append(m)
        return draw(seed, restarts, m, eigenvalues)

    def recorded_polish(*args):
        out = polish(*args)
        values.extend(cost for cost, _ in out)
        return out

    monkeypatch.setattr(roof_module, "_draw_isometries", recorded_draw)
    monkeypatch.setattr(roof_module, "_polish", recorded_polish)
    res = roof_minimize(state, measure, cfg)
    assert drawn == sizes
    assert res.value == min(values) == values[winner]
    if exact is None:
        assert res.value > 1e-2
    else:
        assert -1e-12 <= res.value - exact <= 2e-8
    res.ensemble.check_mixture(state)


def _assert_same_roofs(batch, single):
    assert len(batch) == len(single)
    for a, b in zip(batch, single):
        assert a.value == b.value
        assert len(a.ensemble.members) == len(b.ensemble.members)
        for (pa, sa), (pb, sb) in zip(a.ensemble.members, b.ensemble.members):
            assert pa == pb
            assert np.array_equal(sa.amplitudes, sb.amplitudes)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("measure", ["three_tangle", "one_tangle"])
def test_roof_minimize_many_matches_single_roofs_on_fig1_grid(fig1_roofs, measure, seed):
    rhos = [rho_ghz_w(p) for p in FIG1_GRID]
    batch = roof_minimize_many(rhos, measure, RoofConfig(seed=seed))
    _assert_same_roofs(batch, fig1_roofs(measure, seed))
    for res, rho in zip(batch, rhos):
        res.ensemble.check_mixture(rho)


def test_roof_minimize_many_runs_one_loop_per_stage_and_size(monkeypatch):
    # A rank-1 state, a spectral exit, two rank-2 states at m = 4, _RANK3
    # through both stages (m = 3, then m = 6) and a rank-2 state that ends on
    # its zero-set start, in one batch.
    states = [
        ghz(3).density(),
        partial_trace(smolin(0.8), (0, 1, 2)),
        rho_ghz_w(0.8),
        _RANK3,
        rho_ghz_w(0.9),
        rho_ghz_w(0.5),
    ]
    cfg = RoofConfig(**_RANK3_LIGHT, seed=1)
    loops: list[tuple[int, int]] = []
    polish = roof_module._polish

    def recorded_polish(starts, m, fn, config):
        loops.append((m, len(starts)))
        return polish(starts, m, fn, config)

    monkeypatch.setattr(roof_module, "_polish", recorded_polish)
    batch = roof_minimize_many(states, "three_tangle", cfg)
    assert loops == [(3, 1), (4, 2), (6, 1)]
    loops.clear()
    _assert_same_roofs(batch, [roof_minimize(rho, "three_tangle", cfg) for rho in states])
    assert loops == [(4, 1), (3, 1), (6, 1), (4, 1)]
    assert batch[3].value > 1e-2
    assert batch[5].value <= 1e-12


def test_roof_minimize_many_runs_one_loop_per_rank_and_size(monkeypatch):
    # Ranks 4 and 5 share the m = 6 stage, but each lockstep loop holds
    # coordinate stacks of one rank.
    states = [random_density(np.random.default_rng(7), 3, rank) for rank in (4, 5)]
    cfg = RoofConfig(restarts=4, max_iterations=60, max_ensemble_size=6, seed=2)
    loops: list[tuple[int, set[int], int]] = []
    polish = roof_module._polish

    def recorded_polish(starts, m, fn, config):
        loops.append((m, {len(values) for _, values in starts}, len(starts)))
        return polish(starts, m, fn, config)

    monkeypatch.setattr(roof_module, "_polish", recorded_polish)
    batch = roof_minimize_many(states, "one_tangle", cfg)
    assert loops == [(4, {4}, 1), (5, {5}, 1), (6, {4}, 1), (6, {5}, 1)]
    _assert_same_roofs(batch, [roof_minimize(rho, "one_tangle", cfg) for rho in states])


def test_roof_minimize_many_checks_every_mixture(monkeypatch):
    # Spectral exits (the rank-1 state and the reduction of smolin(0.8))
    # included: each returned ensemble is checked against its state once.
    states = [ghz(3).density(), partial_trace(smolin(0.8), (0, 1, 2)), rho_ghz_w(0.5), _RANK3]
    checked: list[tuple[Ensemble, object]] = []
    check = Ensemble.check_mixture

    def recorded_check(self, rho, *args, **kwargs):
        checked.append((self, rho))
        return check(self, rho, *args, **kwargs)

    monkeypatch.setattr(Ensemble, "check_mixture", recorded_check)
    batch = roof_minimize_many(states, "three_tangle", RoofConfig(**_RANK3_LIGHT, seed=1))
    assert len(checked) == len(states)
    for (ensemble, rho), res, state in zip(checked, batch, states):
        assert ensemble is res.ensemble and rho is state


@pytest.mark.parametrize("size", [None, 4])
def test_roof_minimize_many_matches_single_e_ms_roofs(size):
    cfg = RoofConfig(max_ensemble_size=size)
    states = [smolin(0.85), smolin(0.7), smolin(0.0)]
    batch = roof_minimize_many(states, "e_ms", cfg)
    _assert_same_roofs(batch, [roof_minimize(rho, "e_ms", cfg) for rho in states])
    assert max(r.value for r in batch) <= 1e-8


def test_roof_minimize_many_edges():
    assert roof_minimize_many([], "three_tangle") == []
    # Arguments that are wrong at any register size are refused with or
    # without states; the range of a qubit index waits for a state.
    bad = [
        (None, None),
        ("nope", (0,)),
        ("three_tangle_pure", (0,)),
        (3, (0,)),
        ("one_tangle", None),
        ("e_ms", (0.5,)),
    ]
    for measure, partition in bad:
        for rhos in ([], [rho_ghz_w(0.5)]):
            with pytest.raises(StateError):
                roof_minimize_many(rhos, measure, LIGHT, partition=partition)
    assert roof_minimize_many([], "one_tangle", partition=(7,)) == []
    with pytest.raises(StateError, match="qubit index"):
        roof_minimize_many([rho_ghz_w(0.5)], "one_tangle", LIGHT, partition=(7,))
    with pytest.raises(StateError, match="register size"):
        roof_minimize_many([rho_ghz_w(0.5), smolin(0.5)], "one_tangle", LIGHT)
    with pytest.raises(StateError, match="exceeds the ensemble-size cap"):
        roof_minimize_many(
            [ghz(3).density(), rho_abd(0.5)], "three_tangle", RoofConfig(max_ensemble_size=1)
        )


@pytest.mark.parametrize(
    "state, measure",
    [(rho_ghz_w(0.8), "three_tangle"), (smolin(0.85), "e_ms")],
    ids=["ghz_w", "smolin"],
)
def test_roof_determinism(state, measure):
    cfg = RoofConfig(restarts=6, max_iterations=60, seed=3)
    first = roof_minimize(state, measure, cfg)
    second = roof_minimize(state, measure, cfg)
    assert first.value == second.value
    assert len(first.ensemble.members) == len(second.ensemble.members)
    for (p1, s1), (p2, s2) in zip(first.ensemble.members, second.ensemble.members):
        assert p1 == p2
        assert np.array_equal(s1.amplitudes, s2.amplitudes)


def _random_range(
    rng: np.random.Generator, n: int, rank: int, restarts: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random coordinates (restarts, rank, m), and the transposed scaled
    eigenbasis and the eigenvalues of a random rank-``rank`` state."""
    spec = spectral_decomposition(random_density(rng, n, rank))
    base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    coords = rng.normal(size=(restarts, rank, m)) + 1j * rng.normal(size=(restarts, rank, m))
    return coords / 4.0, base.T, spec.eigenvalues


# Each case draws a state of rank m // 2.
_PRICED = pytest.mark.parametrize(
    "measure, n, m", [("three_tangle", 3, 4), ("one_tangle", 3, 4), ("e_ms", 4, 8)]
)


@_PRICED
def test_range_pricing_matches_column_pricing(measure, n, m):
    fn = _resolve_measure(measure, n, (0,))
    coords, basis_t, eigenvalues = _random_range(np.random.default_rng(89), n, m // 2, 5, m)
    columns = basis_t.swapaxes(-1, -2) @ coords  # w = B C
    priced = _range_contributions(coords, basis_t, eigenvalues, fn)
    assert np.max(np.abs(priced - _contributions(columns, fn))) <= 1e-12


@_PRICED
def test_polish_jacobian_matches_dense_probes(measure, n, m):
    fn = _resolve_measure(measure, n, (0,))
    polish = _LockstepPolish(m)
    coords, basis_t, eigenvalues = _random_range(np.random.default_rng(97), n, m // 2, 3, m)
    res = np.sqrt(_range_contributions(coords, basis_t, eigenvalues, fn))
    dense_res, dense_jac = dense_linearize(coords, basis_t, eigenvalues, fn, polish.STEP)
    assert np.array_equal(res, dense_res)
    jac = polish.jacobian(
        coords, res, lambda x: _range_contributions(x, basis_t, eigenvalues, fn)
    )
    assert np.array_equal(jac, dense_jac)


@pytest.mark.parametrize("m", [4, 8])
def test_polish_iterate_only_prices(m):
    rng = np.random.default_rng(101)
    kernel = _resolve_measure("three_tangle", 3, (0,))
    calls = []

    def fn(states):
        calls.append(states.shape[0])
        return kernel(states)

    polish = _LockstepPolish(m)
    restarts = 5
    coords, basis_t, eigenvalues = _random_range(rng, 3, 2, restarts, m)
    contrib = _range_contributions(coords, basis_t, eigenvalues, kernel)
    res = np.sqrt(contrib)
    jac = polish.jacobian(
        coords, res, lambda x: _range_contributions(x, basis_t, eigenvalues, kernel)
    )
    cost = contrib.sum(axis=1)
    inputs = (coords, cost, np.full(restarts, 1e-2), res, jac)
    before = [a.copy() for a in inputs]

    def price(x):
        return _range_contributions(x, basis_t, eigenvalues, fn)

    c_new, _, _, accept, res_new = polish.iterate(*inputs, price)
    assert accept.any() and not accept.all()
    # One pricing call on the candidate members and nothing else.
    assert calls == [m * restarts]
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    # Accepted restarts carry the candidate's exact residuals; rejected ones
    # keep their coordinates and residuals.
    priced = _range_contributions(c_new, basis_t, eigenvalues, kernel)
    assert np.array_equal(res_new, np.sqrt(priced))
    assert np.array_equal(c_new[~accept], coords[~accept])
    assert np.array_equal(res_new[~accept], res[~accept])

    # Damping 1e8 alone still gives drops near 1e-7, far above the acceptance
    # threshold; with the Jacobian's sign flipped every short step goes uphill.
    calls.clear()
    c_new, _, _, accept, res_new = polish.iterate(
        coords, cost, np.full(restarts, 1e8), res, -jac, price
    )
    assert not accept.any()
    assert calls == [m * restarts]
    assert np.array_equal(c_new, coords)
    assert np.array_equal(res_new, res)


@pytest.mark.parametrize(
    "state, measure, m",
    [
        (rho_ghz_w(0.8), "three_tangle", 4),
        (random_density(np.random.default_rng(3), 3, 2), "one_tangle", 4),
        (random_density(np.random.default_rng(2), 4, 4), "e_ms", 8),
        (random_density(np.random.default_rng(3), 2, 4), "one_tangle", 8),
    ],
)
def test_residual_space_step_matches_dense_normal_equations(state, measure, m):
    spec = spectral_decomposition(state)
    base = spec.eigenvectors * np.sqrt(spec.eigenvalues)
    coords = _draw_isometries(5, 6, m, spec.eigenvalues).conj().transpose(0, 2, 1)
    fn = _resolve_measure(measure, state.n_qubits, (0,))
    res, jac = dense_linearize(coords, base.T, spec.eigenvalues, fn, _LockstepPolish.STEP)
    # Below about 1e-6 damping the P x P oracle itself loses digits: its
    # condition number grows as |J|^2 / damping, the m x m system's does not.
    for lam in (1e-4, 1e-2, 1.0, 1e2, 1e8):
        damping = np.full(coords.shape[0], lam)
        step, dense = _damped_steps(jac, res, damping), dense_lm_step(jac, res, damping)
        scale = np.max(np.abs(dense), axis=1, keepdims=True)
        assert np.all(np.abs(step - dense) <= 1e-9 * scale)


def test_singular_damped_system_falls_back_for_its_restart_alone():
    rng = np.random.default_rng(103)
    m, restarts, bad = 4, 5, 2
    fn = _resolve_measure("three_tangle", 3, (0,))
    polish = _LockstepPolish(m)
    coords, basis_t, eigenvalues = _random_range(rng, 3, 2, restarts, m)

    def price(x):
        return _range_contributions(x, basis_t, eigenvalues, fn)

    contrib = price(coords)
    res = np.sqrt(contrib)
    jac = polish.jacobian(coords, res, price)
    damping = np.full(restarts, 1e-2)
    # A zero Jacobian with zero damping makes restart 2's system exactly singular.
    jac[bad] = 0.0
    damping[bad] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac[bad].T @ jac[bad], res[bad])
    cost = contrib.sum(axis=1)
    out = polish.iterate(coords, cost, damping, res, jac, price)
    rest = np.arange(restarts) != bad
    alone = polish.iterate(*(a[rest] for a in (coords, cost, damping, res, jac)), price)
    assert alone[3].any()
    for got, expect in zip(out, alone):
        assert np.array_equal(got[rest], expect)
    # The failed restart took the gradient step, which is zero here: it stays.
    assert not out[3][bad]
    assert np.array_equal(out[0][bad], coords[bad])


def _separable(rng: np.random.Generator, rank: int) -> DensityMatrix:
    """A mixture of ``rank`` random three-qubit product states: its roof is zero."""
    weights = rng.dirichlet(np.ones(rank))
    mat = np.zeros((8, 8), dtype=complex)
    for wgt in weights:
        amps = np.ones(1, dtype=complex)
        for _ in range(3):
            q = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps = np.kron(amps, q / np.linalg.norm(q))
        mat += wgt * np.outer(amps, amps.conj())
    return DensityMatrix(mat, 3)


@pytest.mark.parametrize(
    "state, measure, kernel",
    [
        (rho_ghz_w(0.8), "three_tangle", "three_tangle_batch"),
        # Zero roofs of rank 3 are out of the starts' reach; this one runs
        # both stages, m = 3 and then m = 6.
        (_separable(np.random.default_rng(1), 3), "three_tangle", "three_tangle_batch"),
        (random_density(np.random.default_rng(0), 3, 3), "one_tangle", "one_tangle_batch"),
    ],
    ids=["budget", "zero", "one_tangle"],
)
def test_roof_computes_only_jacobians_the_next_step_uses(monkeypatch, state, measure, kernel):
    # Log every draw, kernel call, Jacobian and step of one whole roof.
    events = []
    batched = getattr(_batched, kernel)
    draw = roof_module._draw_isometries
    jacobian, iterate = _LockstepPolish.jacobian, _LockstepPolish.iterate

    def logged_draw(*args):
        events.append(("draw", None))
        return draw(*args)

    def logged_kernel(states, *args):
        events.append(("kernel", states.shape[0]))
        return batched(states, *args)

    def logged_jacobian(self, coords, *args):
        events.append(("jacobian", coords.copy()))
        return jacobian(self, coords, *args)

    def logged_iterate(self, coords, *args):
        events.append(("step", coords.copy()))
        out = iterate(self, coords, *args)
        events.append(("stepped", out[0][out[3]].copy()))
        return out

    monkeypatch.setattr(_batched, kernel, logged_kernel)
    monkeypatch.setattr(roof_module, "_draw_isometries", logged_draw)
    monkeypatch.setattr(_LockstepPolish, "jacobian", logged_jacobian)
    monkeypatch.setattr(_LockstepPolish, "iterate", logged_iterate)
    roof_minimize(state, measure, RoofConfig(restarts=6, max_iterations=60, seed=3))

    steps = [i for i, (kind, _) in enumerate(events) if kind == "step"]
    assert len(steps) > 1
    moved = None  # coordinates accepted by the previous step; None before a stage's first
    for i, (kind, c) in enumerate(events):
        if kind == "draw":
            moved = None
        if kind == "stepped":
            moved = {row.tobytes() for row in c}
        if kind != "step":
            continue
        # The restarts this step moves whose coordinates changed in their last
        # step, in restart order: all of them on a stage's first step.
        stale = np.array([moved is None or row.tobytes() in moved for row in c])
        if stale.any():
            kind_before, c_before = events[i - 2]
            assert kind_before == "jacobian"
            assert np.array_equal(c_before, c[stale])
        else:
            assert events[i - 1][0] != "kernel"
    # Every Jacobian is followed by the step that uses it, and the roof ends
    # on a pricing call: m rows per restart of the last step.
    for i, (kind, _) in enumerate(events):
        if kind == "jacobian":
            assert events[i + 2][0] == "step"
    kernels = [i for i, (kind, _) in enumerate(events) if kind == "kernel"]
    assert steps[-1] < kernels[-1]
    last = events[steps[-1]][1]  # (restarts, rank, m)
    assert events[kernels[-1]][1] == last.shape[0] * last.shape[2]


def test_roof_rank_above_cap_rejected():
    with pytest.raises(StateError):
        roof_minimize(rho_abd(0.5), "three_tangle", RoofConfig(max_ensemble_size=1))


def test_roof_measure_validation():
    with pytest.raises(StateError):
        roof_minimize(rho_ghz_w(0.5), "entropy", LIGHT)
    with pytest.raises(StateError):
        roof_minimize(smolin(0.5), "three_tangle", LIGHT)  # needs 3 qubits
    with pytest.raises(StateError):
        roof_minimize(rho_ghz_w(0.5), "one_tangle", LIGHT, partition=(0, 1, 2))


def test_roof_one_tangle_partition():
    # Rank-1 case with a nontrivial partition: the roof is just the pure value.
    psi = psi4(0.3)
    res = roof_minimize(psi.density(), "one_tangle", LIGHT, partition=(0, 1))
    assert abs(res.value - one_tangle(psi, (0, 1))) < 1e-12


def _plus_minus() -> list[PovmElement]:
    return [
        PovmElement(np.array([[0.5, 0.5], [0.5, 0.5]])),
        PovmElement(np.array([[0.5, -0.5], [-0.5, 0.5]])),
    ]


def test_measure_env_povm_plus_minus():
    p = 0.4
    ens = measure_env_povm(psi4(p), (3,), _plus_minus())
    assert len(ens.members) == 2
    for sign, (prob, psi) in zip((1.0, -1.0), ens.members):
        assert abs(prob - 0.5) < 1e-12
        expect = np.sqrt(1.0 - p) * w(3).amplitudes + sign * np.sqrt(p) * ghz(3).amplitudes
        assert abs(abs(np.vdot(psi.amplitudes, expect)) - 1.0) < 1e-12
    ens.check_mixture(rho_ghz_w(p))


def test_measure_env_povm_trine():
    omega = np.exp(2j * np.pi / 3.0)
    elements = []
    for k in range(3):
        m = np.array([1.0, -(omega ** (-k))]) / np.sqrt(2.0)
        elements.append(PovmElement((2.0 / 3.0) * np.outer(m, m.conj())))
    ens = measure_env_povm(psi4(0.6), (3,), elements)
    assert len(ens.members) == 3
    for prob, _ in ens.members:
        assert abs(prob - 1.0 / 3.0) < 1e-12
    ens.check_mixture(rho_ghz_w(0.6))


def test_measure_env_povm_rejects_incomplete_set():
    with pytest.raises(StateError):
        measure_env_povm(psi4(0.5), (3,), _plus_minus()[:1])


def test_measure_env_povm_rejects_mixed_elements():
    half = PovmElement(np.eye(2) * 0.5)
    with pytest.raises(StateError, match="mixed-unsupported"):
        measure_env_povm(psi4(0.5), (3,), [half, half])


def test_measure_env_povm_reads_a_generator_once():
    ens = measure_env_povm(psi4(0.4), (3,), (element for element in _plus_minus()))
    assert len(ens.members) == 2
    ens.check_mixture(rho_ghz_w(0.4))


def test_measure_env_povm_refuses_raw_operators():
    with pytest.raises(StateError, match="PovmElement"):
        measure_env_povm(psi4(0.5), (3,), [e.operator for e in _plus_minus()])
    with pytest.raises(StateError):
        measure_env_povm(psi4(0.5), (3,), 7)


def test_measure_env_povm_rejects_wrong_dimension():
    with pytest.raises(StateError):
        measure_env_povm(psi4(0.5), (3,), [PovmElement(np.eye(4) * 0.5)] * 2)
