"""Boundary-driven tight-binding lattice simulator.

Time-domain propagation of an open chain whose two edge sites carry
harmonically oscillating on-site energies, quasi-energy (one-period
operator) analysis, a high-frequency closed-form oracle for the three-site
chain, and reproducible parameter-scan experiments with CSV/manifest
output.
"""

__version__ = "0.1.0"

from .effective import (
    EffectiveParams,
    analytic_p1,
    effective_params,
)
from .errors import (
    IntegrationFailure,
    NumericsError,
    ScanInterrupted,
    ValidationError,
)
from .experiments import (
    ScanConfig,
    ScanResult,
    figure_config,
    figure_scan_config,
    landmark_zeros,
    reproduce,
    scan_min_p1,
    scan_spectrum,
)
from .floquet import (
    Branch,
    BranchSet,
    ClosestApproach,
    FloquetMode,
    MonodromyOperator,
    classify_closest_approach,
    floquet_modes,
    fold_quasienergy,
    monodromy,
    track_branches,
)
from .model import (
    SystemSpec,
    spec_from_json,
    static_hamiltonian,
)
from .propagator import (
    Trajectory,
    basis_state,
    propagate,
)
from .specfun import bessel_j, j0_zero

__all__ = [
    "__version__",
    "Branch",
    "BranchSet",
    "ClosestApproach",
    "EffectiveParams",
    "FloquetMode",
    "IntegrationFailure",
    "MonodromyOperator",
    "NumericsError",
    "ScanConfig",
    "ScanInterrupted",
    "ScanResult",
    "SystemSpec",
    "Trajectory",
    "ValidationError",
    "analytic_p1",
    "basis_state",
    "bessel_j",
    "classify_closest_approach",
    "effective_params",
    "figure_config",
    "figure_scan_config",
    "floquet_modes",
    "fold_quasienergy",
    "j0_zero",
    "landmark_zeros",
    "monodromy",
    "propagate",
    "reproduce",
    "scan_min_p1",
    "scan_spectrum",
    "spec_from_json",
    "static_hamiltonian",
    "track_branches",
]
