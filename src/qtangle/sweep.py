"""Parameter sweeps over the state families, as plain (header, rows) tables.

Each family exposes a fixed set of named columns; a sweep evaluates the
requested ones over an even grid. The fig1/fig3 presets cover the mixing
families' standard column sets on 101 points, fig2 is the (alpha, p) surface
of the closed-form family three-tangle on a 41x41 grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, formulas, measures
from .roof import RoofConfig, roof_minimize
from .states import StateError, is_integer, partial_trace

__all__ = ["SweepSpec", "run_sweep", "run_surface", "preset_spec", "FAMILY_COLUMNS"]

_GhzColumns: dict[str, Callable[[float, RoofConfig], float]] = {
    "concurrence_sq_AB": lambda p, cfg: measures.concurrence(
        partial_trace(catalog.rho_ghz_w(p), (0, 1))
    )
    ** 2,
    "tau3_roof_ABC": lambda p, cfg: roof_minimize(
        catalog.rho_ghz_w(p), "three_tangle", cfg
    ).value,
    "one_tangle_roof_A": lambda p, cfg: roof_minimize(
        catalog.rho_ghz_w(p), "one_tangle", cfg, partition=(0,)
    ).value,
    "e_ms_psi4": lambda p, cfg: measures.e_ms(catalog.psi4(p)),
}


def _smolin_pair_sum(p: float, cfg: RoofConfig) -> float:
    state = catalog.smolin(p)
    return sum(
        measures.concurrence(partial_trace(state, (i, j)))
        for i in range(4)
        for j in range(i + 1, 4)
    )


def _smolin_tangle_roofs(p: float, cfg: RoofConfig) -> float:
    # Genuine three- plus four-partite content: the three-tangle roof of a
    # representative three-qubit reduction plus the e_ms roof of the whole
    # state. Both vanish on the Smolin family.
    state = catalog.smolin(p)
    tau3 = roof_minimize(partial_trace(state, (0, 1, 2)), "three_tangle", cfg).value
    tau4 = roof_minimize(state, "e_ms", cfg).value
    return tau3 + tau4


def _smolin_negativity_avg(p: float, cfg: RoofConfig) -> float:
    state = catalog.smolin(p)
    return sum(measures.negativity(state, (k,)) for k in range(4)) / 4.0


_SmolinColumns: dict[str, Callable[[float, RoofConfig], float]] = {
    "concurrence_sum": _smolin_pair_sum,
    "tau3_plus_tau4_roof": _smolin_tangle_roofs,
    "negativity_avg": _smolin_negativity_avg,
    "e_ms_psi6": lambda p, cfg: measures.e_ms(catalog.psi6(p)),
}


def _wn_pair_sum(alpha: float, cfg: RoofConfig) -> float:
    state = catalog.rho_wn_mix(3, alpha)
    return sum(
        measures.concurrence(partial_trace(state, (i, j)))
        for i in range(3)
        for j in range(i + 1, 3)
    )


# The wn_mix sweep parameter is the mixing weight alpha, at fixed N = 3.
_WnColumns: dict[str, Callable[[float, RoofConfig], float]] = {
    "concurrence_sum": _wn_pair_sum,
    "one_tangle_roof_A1": lambda a, cfg: roof_minimize(
        catalog.rho_wn_mix(3, a), "one_tangle", cfg, partition=(0,)
    ).value,
}

FAMILY_COLUMNS: dict[str, dict[str, Callable[[float, RoofConfig], float]]] = {
    "ghz_w": _GhzColumns,
    "smolin": _SmolinColumns,
    "wn_mix": _WnColumns,
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
        if not (is_integer(self.steps) and self.steps >= 2):
            raise StateError(f"a sweep needs an integer number of steps >= 2, got {self.steps!r}")
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise StateError(
                f"sweep range [{self.start}, {self.stop}] must sit inside [0, 1]"
            )
        if not self.measures:
            raise StateError("a sweep needs at least one measure column")
        known = FAMILY_COLUMNS[self.family]
        for name in self.measures:
            if name not in known:
                raise StateError(f"unknown measure {name!r} for family {self.family!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Evaluate the spec; returns (header, rows) ready for write_table."""
    columns = FAMILY_COLUMNS[spec.family]
    header = ["param"] + list(spec.measures)
    rows = []
    for x in spec.grid():
        row = [float(x)]
        for name in spec.measures:
            row.append(float(columns[name](float(x), spec.roof_config)))
        rows.append(row)
    return header, rows


def run_surface(steps: int = 41) -> tuple[list[str], list[list[float]]]:
    """The (alpha, p) surface of the family three-tangle at phase zero."""
    if not (is_integer(steps) and steps >= 2):
        raise StateError(f"a surface needs an integer number of steps >= 2, got {steps!r}")
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
        return SweepSpec("ghz_w", 0.0, 1.0, 101, tuple(_GhzColumns), config)
    if name == "fig3":
        return SweepSpec("smolin", 0.0, 1.0, 101, tuple(_SmolinColumns), config)
    raise StateError(f"unknown sweep preset {name!r}")
