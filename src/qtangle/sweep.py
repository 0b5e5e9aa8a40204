"""Parameter sweeps over the state families, as plain (header, rows) tables.

Each family exposes a fixed set of named columns; a sweep evaluates the
requested ones over an even grid. A roof column is described once, by the
roof terms it sums (state builder, measure, partition), and evaluated by one
function that searches each term in one ``roof_minimize_many`` call:
``run_sweep`` calls it on the whole grid, and the per-point function in
``FAMILY_COLUMNS`` on a one-point grid.
The fig1/fig3 presets cover the mixing families' standard column sets on 101
points, fig2 is the (alpha, p) surface of the closed-form family three-tangle
on a 41x41 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import catalog, formulas, measures
from .roof import RoofConfig, roof_minimize_many
from .states import DensityMatrix, StateError, check_int, check_unit, partial_trace

__all__ = ["SweepSpec", "run_sweep", "run_surface", "preset_spec", "FAMILY_COLUMNS"]

_PointColumn = Callable[[float, RoofConfig], float]


class _Roof(NamedTuple):
    """One convex-roof term of a column: the state at each grid point, the
    measure and its partition."""

    state: Callable[[float], DensityMatrix]
    measure: str
    partition: tuple[int, ...] = (0,)


def _pair_sum(state: DensityMatrix) -> float:
    """Sum of the pair concurrences of the state over its qubit pairs i < j."""
    n = state.n_qubits
    return sum(
        measures.concurrence(partial_trace(state, (i, j)))
        for i in range(n)
        for j in range(i + 1, n)
    )


def _smolin_negativity_avg(p: float, cfg: RoofConfig) -> float:
    state = catalog.smolin(p)
    return sum(measures.negativity(state, (k,)) for k in range(4)) / 4.0


# Each family's columns in order: a function of one grid point, or the roof
# terms whose values the column sums.
_TABLES: dict[str, dict[str, _PointColumn | tuple[_Roof, ...]]] = {
    "ghz_w": {
        "concurrence_sq_AB": lambda p, cfg: measures.concurrence(
            partial_trace(catalog.rho_ghz_w(p), (0, 1))
        )
        ** 2,
        "tau3_roof_ABC": (_Roof(catalog.rho_ghz_w, "three_tangle"),),
        "one_tangle_roof_A": (_Roof(catalog.rho_ghz_w, "one_tangle"),),
        "e_ms_psi4": lambda p, cfg: measures.e_ms(catalog.psi4(p)),
    },
    "smolin": {
        "concurrence_sum": lambda p, cfg: _pair_sum(catalog.smolin(p)),
        # Genuine three- plus four-partite content: the three-tangle roof of a
        # representative three-qubit reduction plus the e_ms roof of the whole
        # state. Both vanish on the Smolin family.
        "tau3_plus_tau4_roof": (
            _Roof(lambda p: partial_trace(catalog.smolin(p), (0, 1, 2)), "three_tangle"),
            _Roof(catalog.smolin, "e_ms"),
        ),
        "negativity_avg": _smolin_negativity_avg,
        "e_ms_psi6": lambda p, cfg: measures.e_ms(catalog.psi6(p)),
    },
    # The wn_mix sweep parameter is the mixing weight alpha, at fixed N = 3.
    "wn_mix": {
        "concurrence_sum": lambda a, cfg: _pair_sum(catalog.rho_wn_mix(3, a)),
        "one_tangle_roof_A1": (_Roof(lambda a: catalog.rho_wn_mix(3, a), "one_tangle"),),
    },
}


def _total(values: list[float]) -> float:
    """The sum of a column's roof terms, in order and with no 0 to start from."""
    return sum(values[1:], values[0])


def _roof_column(terms: tuple[_Roof, ...], grid: list[float], cfg: RoofConfig) -> list[float]:
    """A roof column over the grid: one roof_minimize_many call per term."""
    per_term = [
        roof_minimize_many([t.state(x) for x in grid], t.measure, cfg, partition=t.partition)
        for t in terms
    ]
    return [_total([r.value for r in point]) for point in zip(*per_term)]


# Every column as a function of one grid point; a roof column is its search on
# a one-point grid. run_sweep evaluates the roof columns on the whole grid.
FAMILY_COLUMNS: dict[str, dict[str, _PointColumn]] = {
    family: {
        name: (
            (lambda x, cfg, terms=col: _roof_column(terms, [x], cfg)[0])
            if isinstance(col, tuple)
            else col
        )
        for name, col in table.items()
    }
    for family, table in _TABLES.items()
}


@dataclass(frozen=True)
class SweepSpec:
    """A family, an even parameter grid, and the columns to evaluate."""

    family: str
    start: float
    stop: float
    steps: int
    measures: tuple[str, ...]
    roof_config: RoofConfig

    def __post_init__(self) -> None:
        if self.family not in FAMILY_COLUMNS:
            raise StateError(f"unknown sweep family {self.family!r}")
        check_int("steps", self.steps, 2)
        if check_unit("start", self.start) >= check_unit("stop", self.stop):
            raise StateError(f"sweep start {self.start} must lie below its stop {self.stop}")
        if not self.measures:
            raise StateError("a sweep needs at least one measure column")
        known = FAMILY_COLUMNS[self.family]
        for name in self.measures:
            if name not in known:
                raise StateError(f"unknown measure {name!r} for family {self.family!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Evaluate the spec; returns (header, rows) ready for write_table.

    Each roof term of a column is one roof_minimize_many call over the whole
    grid; the values equal the per-point FAMILY_COLUMNS calls bit for bit.
    """
    grid = [float(x) for x in spec.grid()]
    table = _TABLES[spec.family]
    columns = FAMILY_COLUMNS[spec.family]
    values: dict[str, list[float]] = {}
    for name in spec.measures:
        if isinstance(table[name], tuple):
            values[name] = _roof_column(table[name], grid, spec.roof_config)
        else:
            values[name] = [float(columns[name](x, spec.roof_config)) for x in grid]
    header = ["param"] + list(spec.measures)
    rows = [[x] + [values[name][i] for name in spec.measures] for i, x in enumerate(grid)]
    return header, rows


def run_surface(steps: int = 41) -> tuple[list[str], list[list[float]]]:
    """The (alpha, p) surface of the family three-tangle at phase zero."""
    check_int("steps", steps, 2)
    header = ["alpha", "p", "tau3"]
    axis = np.linspace(0.0, 1.0, steps)
    rows = []
    for alpha in axis:
        for p in axis:
            rows.append([float(alpha), float(p), formulas.tau3_family(alpha, p, 0.0)])
    return header, rows


def preset_spec(name: str, config: RoofConfig) -> SweepSpec:
    """The fig1/fig3 sweep presets (fig2 is the surface, not a SweepSpec)."""
    if name == "fig1":
        return SweepSpec("ghz_w", 0.0, 1.0, 101, tuple(FAMILY_COLUMNS["ghz_w"]), config)
    if name == "fig3":
        return SweepSpec("smolin", 0.0, 1.0, 101, tuple(FAMILY_COLUMNS["smolin"]), config)
    raise StateError(f"unknown sweep preset {name!r}")
