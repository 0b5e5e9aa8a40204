"""Multipartite entanglement toolkit: states, tangle measures, convex roofs.

The package builds a small catalog of qubit state families, computes tangle
and concurrence measures on them, extends pure-state measures to mixed states
by convex-roof minimization over decompositions, and cross-checks the catalog's
closed-form expressions against direct computation.
"""

from .catalog import (
    abd_components,
    bell,
    ghz,
    phi_abd,
    psi4,
    psi6,
    psi_n1,
    rho_abd,
    rho_ghz_w,
    rho_wn_mix,
    smolin,
    w,
)
from .formulas import (
    ClosedFormResult,
    abd_excitation_weight,
    alpha0,
    c_ab_sq_ghzw,
    c_ab_sq_smolin,
    e_ms_psi4_closed,
    e_ms_psi6_closed,
    p0,
    p1,
    tau3_family,
    tau_a1_formula,
)
from .measures import (
    concurrence,
    e_ms,
    negativity,
    one_tangle,
    single_property,
    three_tangle_pure,
)
from .roof import (
    DecompositionIsometry,
    Ensemble,
    PovmElement,
    RoofConfig,
    RoofResult,
    ensemble_from_isometry,
    measure_env_povm,
    roof_minimize,
    roof_minimize_many,
)
from .serialize import load_state, save_state
from .states import (
    DensityMatrix,
    StateError,
    StateVector,
    partial_trace,
    partial_transpose,
    purify,
    spectral_decomposition,
    tensor_product,
    trace_norm,
)
from .sweep import SweepSpec, preset_spec, run_surface, run_sweep
from .verification import CheckRow, VerifyReport, build_report

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "StateVector",
    "DensityMatrix",
    "StateError",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "trace_norm",
    "spectral_decomposition",
    "purify",
    # catalog
    "ghz",
    "w",
    "bell",
    "psi4",
    "rho_ghz_w",
    "rho_abd",
    "abd_components",
    "phi_abd",
    "smolin",
    "psi6",
    "rho_wn_mix",
    "psi_n1",
    # measures
    "one_tangle",
    "single_property",
    "concurrence",
    "three_tangle_pure",
    "e_ms",
    "negativity",
    # roofs
    "Ensemble",
    "DecompositionIsometry",
    "RoofConfig",
    "PovmElement",
    "RoofResult",
    "ensemble_from_isometry",
    "roof_minimize",
    "roof_minimize_many",
    "measure_env_povm",
    # closed forms
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
    # state files, sweeps, verification
    "save_state",
    "load_state",
    "SweepSpec",
    "run_sweep",
    "run_surface",
    "preset_spec",
    "CheckRow",
    "VerifyReport",
    "build_report",
]
