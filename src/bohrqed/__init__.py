"""Numerical laboratory for quaternionic electrodynamics built from
two-body Bohr orbits, roundel ensembles, and lattice renditions."""

from ._domain import DomainError
from .algebra import (
    Biquaternion,
    DiagonalMatrix,
    LorentzTransform,
    Reflector,
    reflector_mul,
)
from .bohr import (
    BohrInput,
    BohrState,
    NonPositiveMass,
    SupercriticalCoupling,
    local_solve_rho,
    mass_shell_residual,
    solve_bohr,
)
from .ensemble import (
    Ensemble,
    InfeasibleCoverage,
    NotOnBoundary,
    count_interactions,
    partition_regions,
    scaling_sweep,
    tile,
    total_charge,
)
from .lattice import (
    HypercubicLattice,
    LatticeField,
    ReflectorField,
    RegionBinding,
    build_lattices,
    dirac_residual,
    equivalence_check,
    limit_sweep,
    photon_residual,
    renormalize_mass,
    transform_field,
)
from .mspace import LPoint, MPoint, RoundelSpec, boundary_points, l_to_m, m_to_l

__version__ = "0.1.0"
