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
    WaveSample,
    assemble_wavefunction,
    local_solve_rho,
    mass_shell_residual,
    roundtrip_consistency,
    solve_bohr,
)
from .ensemble import (
    Ensemble,
    InfeasibleCoverage,
    NotOnBoundary,
    Roundel,
    assign_boundary_point,
    count_interactions,
    partition_regions,
    scaling_sweep,
    tile,
    total_charge,
)
from .lattice import (
    HypercubicLattice,
    LatticeField,
    MassTerm,
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
from .mspace import LPoint, MPoint, RoundelSpec, boundary_points, l_to_m, m_to_l, map_potential

__version__ = "0.1.0"
