"""Exact references and the pass/fail bookkeeping behind ``failed`` and ``roof_excess``.

Everything here is independent of the package's own computation paths. The
callers also use the package's closed forms (``c_ab_sq_ghzw``,
``c_ab_sq_smolin`` and the printed ``e_ms`` branches that are not ledgered),
taken from ``qtangle.formulas``.
"""

from __future__ import annotations

import math

import numpy as np

# The optimizer stops once a roof reaches RoofConfig().objective_tolerance, so
# two values below it are equally good. Roof metrics floor each value there;
# otherwise a converged roof's leftover (anything in [0, 1e-8], different for
# every seed) would make the sums pure noise on families whose roof vanishes.
ROOF_RESOLUTION = 1e-8

LOSU_TOL = 1e-6
ZERO_ROOF_TOL = 1e-6
KERNEL_TOL = 1e-9

# Lohmayer, Osterloh, Siewert and Uhlmann, PRL 97, 260502 (2006): the exact
# three-tangle roof of p|GHZ><GHZ| + (1-p)|W><W|.
LOSU_ZERO_END = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))  # 0.626851
LOSU_LINEAR_START = 0.5 + 3.0 * math.sqrt(465.0) / 310.0  # 0.708683


def _losu_g(p: float) -> float:
    return p * p - (8.0 * math.sqrt(6.0) / 9.0) * math.sqrt(p * (1.0 - p) ** 3)


def losu_tau3_roof(p: float) -> float:
    """Zero up to 0.626851, g(p) up to 0.708683, then linear to 1 at p = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p!r} outside [0, 1]")
    if p <= LOSU_ZERO_END:
        return 0.0
    if p <= LOSU_LINEAR_START:
        return _losu_g(p)
    g_b = _losu_g(LOSU_LINEAR_START)
    return g_b + (1.0 - g_b) * (p - LOSU_LINEAR_START) / (1.0 - LOSU_LINEAR_START)


def hyperdet_tau(states: np.ndarray) -> np.ndarray:
    """Three-tangle 4|d1 - 2 d2 + 4 d3| of each row of a (K, 8) batch."""
    a = states.reshape(-1, 2, 2, 2)
    a000, a001, a010, a011 = a[:, 0, 0, 0], a[:, 0, 0, 1], a[:, 0, 1, 0], a[:, 0, 1, 1]
    a100, a101, a110, a111 = a[:, 1, 0, 0], a[:, 1, 0, 1], a[:, 1, 1, 0], a[:, 1, 1, 1]
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


class Checks:
    """Counts checked operations; each miss is kept with a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def near(self, what: str, value: float, reference: float, tol: float) -> None:
        gap = abs(float(value) - float(reference))
        self.expect(bool(gap <= tol), f"{what}: {value!r} vs {reference!r} (tol {tol})")

    def raised(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{what} raised {type(exc).__name__}: {exc}")


class RoofTally:
    """Sum of roof values and of their excess over exact references, both floored."""

    def __init__(self) -> None:
        self.value_sum = 0.0
        self.excess = 0.0

    def add(self, value: float, reference: float | None = None) -> None:
        self.value_sum += max(value, ROOF_RESOLUTION)
        if reference is not None:
            self.excess += max(value - reference, ROOF_RESOLUTION)
