"""Closed-form expressions for the catalog families, with direct cross-checks.

This module holds closed forms only and runs no roof search. Each
``*_closed`` operation returns both the closed-form number and a direct
recomputation from state definitions. The two are never merged: when they
disagree the result simply carries ``discrepancy_flag=True``, so the printed
expressions stay auditable rather than silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import catalog, measures
from .states import StateError, check_unit, is_integer

__all__ = [
    "ClosedFormResult",
    "c_ab_sq_ghzw",
    "p0",
    "tau3_family",
    "alpha0",
    "e_ms_psi4_closed",
    "p1",
    "c_ab_sq_smolin",
    "e_ms_psi6_closed",
    "tau_a1_formula",
    "abd_excitation_weight",
]

DISCREPANCY_TOL = 1e-6


@dataclass(frozen=True)
class ClosedFormResult:
    """A closed-form value next to its from-definitions counterpart."""

    value_as_printed: float
    value_direct: float
    discrepancy_flag: bool = field(init=False)

    def __post_init__(self) -> None:
        flag = abs(self.value_as_printed - self.value_direct) > DISCREPANCY_TOL
        object.__setattr__(self, "discrepancy_flag", flag)


def c_ab_sq_ghzw(p: float) -> float:
    """Squared pair concurrence of the two-qubit reduction of the GHZ/W mixture."""
    p = check_unit("p", p)
    bracket = (2.0 / 3.0) * (1.0 - p) - math.sqrt(p * (2.0 + p) / 3.0)
    return max(0.0, bracket) ** 2


def p0() -> float:
    """Mixing weight where c_ab_sq_ghzw first vanishes: 7 - 3*sqrt(5)."""
    return 7.0 - 3.0 * math.sqrt(5.0)


def tau3_family(alpha: float, p: float, phi: float) -> float:
    """Three-tangle of the two-branch superposition family phi_abd(alpha, p, phi)."""
    alpha = check_unit("alpha", alpha)
    p = check_unit("p", p)
    if not math.isfinite(phi):
        raise StateError(f"phi must be finite, got {phi!r}")
    f1 = 6.0 * alpha**2 * p * (1.0 - p) / (2.0 + p) ** 2
    f2 = (
        24.0
        * (p - p * p)
        / (4.0 - p)
        * math.sqrt(alpha * (1.0 - alpha) ** 3 / (8.0 + 2.0 * p - p * p))
    )
    return 4.0 * abs(f1 - complex(math.cos(3.0 * phi), math.sin(3.0 * phi)) * f2)


def alpha0(p: float) -> float:
    """Branch weight at which tau3_family vanishes for phases 2*k*pi/3."""
    p = check_unit("p", p)
    return 1.0 / (1.0 + (6.0 / (2.0 + p) - 1.0) / (2.0 * 2.0 ** (1.0 / 3.0)))


# Branch I below; its square root reads sqrt(p*(2-p)), which direct evaluation
# contradicts on the whole interval. Kept verbatim: the mismatch is the point.
def e_ms_psi4_closed(p: float) -> ClosedFormResult:
    """Closed-form multipartite entanglement of psi4(p), next to the direct value."""
    p = check_unit("p", p)
    if p <= p0():
        printed = 3.0 * p * (2.0 - 3.0 * p) / 4.0 + 2.0 * (1.0 - p) * math.sqrt(
            p * (2.0 - p)
        ) / math.sqrt(3.0)
    else:
        printed = (8.0 + (14.0 - 13.0 * p) * p) / 12.0
    direct = measures.e_ms(catalog.psi4(p))
    return ClosedFormResult(printed, direct)


def p1() -> float:
    """Mixing weight where the roof three-tangle of the GHZ/W mixture turns on.

    Closed form 4*2^(1/3) / (3 + 4*2^(1/3)) of Lohmayer, Osterloh, Siewert and
    Uhlmann, PRL 97, 260502 (2006).
    """
    cbrt2 = 2.0 ** (1.0 / 3.0)
    return 4.0 * cbrt2 / (3.0 + 4.0 * cbrt2)


def c_ab_sq_smolin(p: float) -> float:
    """Squared pair concurrence of any two-qubit reduction of smolin(p)."""
    p = check_unit("p", p)
    return max(0.0, 1.0 - 3.0 * p / 2.0) ** 2


def e_ms_psi6_closed(p: float) -> ClosedFormResult:
    """Closed-form multipartite entanglement of psi6(p), next to the direct value."""
    p = check_unit("p", p)
    if p <= 2.0 / 3.0:
        printed = 5.0 * p * (1.0 - p) / 3.0
    else:
        printed = (2.0 + 2.0 * p - p * p) / 3.0
    direct = measures.e_ms(catalog.psi6(p))
    return ClosedFormResult(printed, direct)


def tau_a1_formula(n: int) -> float:
    """One-tangle of the first qubit of rho_wn_mix(n, 1/(n+1)): 4(n-1)/(n^2+n)."""
    if not (is_integer(n) and 2 <= n <= 9):
        raise StateError(f"n must be an integer in [2, 9], got {n!r}")
    return 4.0 * (n - 1) / (n * n + n)


def abd_excitation_weight(p: float) -> ClosedFormResult:
    """Closed-form |111> weight of the first conditional branch of rho_abd(p).

    The direct value reads the weight off the branch state itself, as built by
    catalog.abd_components.
    """
    p = check_unit("p", p)
    printed = 3.0 * p / (2.0 - p)
    _, first, _ = catalog.abd_components(p)
    direct = float(abs(first.amplitudes[7]) ** 2)
    return ClosedFormResult(printed, direct)
