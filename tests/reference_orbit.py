"""Reference orbit constructions, shared by the orbit and lattice test suites.

The package samples the Bohr wave function as a whole lattice field
(``bohrqed.lattice.bohr_phi_field``) and solves the local density over a
grid of potentials (``bohrqed.bohr.local_solve_rho``).  The slow
definitions those are checked against live here: the closed-form bispinor
at one point (:func:`assemble_wavefunction`), the orbit -> local solve ->
orbit round trip (:func:`roundtrip_consistency`, acceptance C5) and the
potential map of the L -> M bijection (:func:`map_potential`).  Each keeps
its input checks.
"""

import cmath
import math
from dataclasses import dataclass

from bohrqed._domain import finite, positive
from bohrqed.algebra import Biquaternion
from bohrqed.bohr import BohrInput, BohrState, local_solve_rho, solve_bohr


@dataclass(frozen=True)
class WaveSample:
    """Wave-function bispinor entries at one point of the orbit space."""

    phi1: Biquaternion
    phi2: Biquaternion
    at: tuple[float, float]  # (x0, s)


def assemble_wavefunction(state: BohrState, x0: float, s: float) -> WaveSample:
    """Evaluate the closed-form bispinor pair at time ``x0``, arc ``s``.

    ``phi1`` is the unit phase ``exp(i(mu*s - nu*x0))``; ``phi2`` is the
    constant ``(i*eta + mu*i1)/m`` times the same phase.  The arc axis is
    housed on the ``i1`` basis element.
    """
    finite("x0 and s", x0=x0, s=s)
    phase = state.mu * s - state.nu * x0
    p1 = cmath.exp(1j * phase)
    m = state.input.m
    phi1 = Biquaternion(p1)
    phi2 = Biquaternion(1j * state.eta / m, state.mu / m) * phi1
    return WaveSample(phi1=phi1, phi2=phi2, at=(x0, s))


def roundtrip_consistency(inp: BohrInput) -> float:
    """Close the loop orbit-solve -> (A, rho) -> local solve -> (R, f).

    Returns the maximum relative deviation between the original orbit
    radius / central charge / density and their recovered values.
    """
    state = solve_bohr(inp, allow_repulsive=True)
    # the real potential with the sign of -f (the local-solve convention)
    # and the uniform density producing it at radius R
    A = -state.input.f / state.R
    rho = 3.0 * A / (4.0 * math.pi * state.R**2)
    rec = local_solve_rho([A], inp.e, inp.m, inp.n)
    devs = (
        abs(rec.rho[0] - rho) / abs(rho),
        abs(rec.R[0] - state.R) / state.R,
        abs(rec.f[0] - inp.f) / abs(inp.f),
    )
    return max(devs)


def map_potential(A_L: float, r: float, R: float) -> float:
    """Potential in M corresponding to ``A_L`` at radius ``r`` in L."""
    positive("curve parameter R", R)
    finite("potential and radius", A_L, r)
    return A_L * r / R
