"""Two-body circular-orbit bound states and the local charge-density solve.

Natural units throughout: hbar = 1, c = 1, so Planck's constant is 2*pi
wherever it appears literally.  All stored quantities are real; the
factor-of-i bookkeeping of the underlying quaternionic formalism is
applied only when biquaternion-valued fields are assembled.

Sign conventions (fixed once, used everywhere):

* attraction means ``e*f < 0``; the potential-energy term of the orbiting
  particle is then ``U = e*f/R < 0``, so the total frequency
  ``nu = eta + U`` sits below the rest mass (a bound state).
* the real potential variable of the local solve carries the sign of
  ``-f`` (so ``f = -A*R`` recovers the central charge).

The local solve is one array kernel, :func:`local_solve_rho`, over a 1-D
grid of potentials.  It takes ``A**3`` and ``A**4`` by Python's float
power, point by point, and sums the residual as ``(t0 + t1) + t2``, so its
bits are the same on every Python (``sum()`` of floats compensates from
3.12 on).  The point-by-point bispinor and the orbit -> local solve round
trip are the tests' references (``tests/reference_orbit.py``); the package
samples the wave function as a field with
:func:`bohrqed.lattice.bohr_phi_field`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._domain import DomainError, finite, positive, typed, whole

__all__ = [
    "SupercriticalCoupling",
    "NonPositiveMass",
    "BohrInput",
    "BohrState",
    "LocalSolveGrid",
    "solve_bohr",
    "mass_shell_residual",
    "local_solve_rho",
]


class SupercriticalCoupling(DomainError):
    """|e*f| >= n: the orbital square root vanishes or turns imaginary."""


class NonPositiveMass(DomainError):
    """Rest mass must be strictly positive."""


@dataclass(frozen=True)
class BohrInput:
    """Couplings of the two-body interaction.

    ``e``: charge of the orbiting particle; ``f``: charge of the central
    particle; ``n``: positive integer quantum number; ``m``: rest-mass
    magnitude of the orbiting particle (inverse length).
    """

    e: float
    f: float
    n: int
    m: float

    def __post_init__(self):
        finite("e, f and m", self.e, self.f, self.m)
        whole("n", self.n, 1)
        if self.m <= 0:
            raise NonPositiveMass(f"m must be positive, got {self.m}")
        if abs(self.e * self.f) >= self.n:
            raise SupercriticalCoupling(
                f"|e*f| = {abs(self.e * self.f)} >= n = {self.n}")

    @property
    def attractive(self) -> bool:
        return self.e * self.f < 0


@dataclass(frozen=True)
class BohrState:
    """Solved circular orbit.

    ``v``: orbital speed; ``R``: orbit radius; ``mu``: wave number;
    ``nu``: total frequency; ``eta``: kinetic frequency; ``A``: potential
    magnitude ``|f|/R`` at the orbit.
    """

    v: float
    R: float
    mu: float
    nu: float
    eta: float
    A: float
    input: BohrInput

    @property
    def E(self) -> float:
        """Total energy ``nu``: ``m*sqrt(1 - (e*f/n)**2)`` for attraction."""
        return self.nu

    @property
    def potential_energy(self) -> float:
        """Signed potential-energy term ``U = e*f/R`` (negative when bound)."""
        return self.input.e * self.input.f / self.R


@dataclass(frozen=True)
class LocalSolveGrid:
    """One entry per grid point; a degenerate point (A = 0) has rho = 0,
    NaN ``R`` and ``f`` and residual 0."""

    rho: np.ndarray
    R: np.ndarray
    f: np.ndarray
    residual: np.ndarray


def solve_bohr(inp: BohrInput, allow_repulsive: bool = False) -> BohrState:
    """Solve the two orbit equations for the given couplings.

    The orbital speed is ``v = |e*f|/n`` and the radius follows from the
    angular-momentum quantization ``mu*R = n``, which this construction
    satisfies to the last bit.  Repulsive couplings (``e*f > 0``) are
    rejected unless ``allow_repulsive`` is set; they satisfy the same
    algebra but describe no bound state.
    """
    typed((BohrInput,), inp=inp)
    ef = inp.e * inp.f
    if ef == 0:
        raise DomainError(f"coupling e*f must be nonzero, got {ef}")
    if ef > 0 and not allow_repulsive:
        raise DomainError(f"repulsive coupling e*f = {ef} > 0; pass "
                          "allow_repulsive=True to override")
    v = abs(ef) / inp.n
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    eta = inp.m * gamma
    mu = inp.m * v * gamma
    # the mass shell squares eta and divides by m**2; the radius divides by mu
    finite(f"(m*gamma)**2 at m = {inp.m}", eta * eta)
    positive(f"wave number m*v*gamma at m = {inp.m}", mu)
    positive(f"m**2 at m = {inp.m}", inp.m * inp.m)
    R = inp.n / mu
    finite(f"orbit radius n/(m*v*gamma) at e*f = {ef}", R)  # mu may be subnormal
    A = abs(inp.f) / R
    nu = eta + ef / R
    return BohrState(v=v, R=R, mu=mu, nu=nu, eta=eta, A=A, input=inp)


def mass_shell_residual(state: BohrState) -> float:
    """Relative residual of the mass-shell identity.

    Checked in the tilde (complex) rendition ``m~² = (nu~ - eA~)² + mu²``
    with ``q~ = q/i``; collapsing the i-factors gives the real form
    ``m² = (nu - U)² - mu²``.
    """
    typed((BohrState,), state=state)
    m = state.input.m
    mt = -1j * m
    nut = -1j * state.nu
    eAt = -1j * state.potential_energy
    lhs = mt * mt
    rhs = (nut - eAt) ** 2 + state.mu**2
    return abs(lhs - rhs) / abs(lhs)


def _power(a: float, k: int) -> float:
    """``a**k`` through Python's float power, inf where it raises
    OverflowError (``np.power`` need not give the same bits)."""
    try:
        return a**k
    except OverflowError:
        return math.inf


def _solve_columns(A: np.ndarray, e: float, m: float,
                   n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(rho, R, f, d)`` over the 1-D potentials ``A``; the error names the
    first failing point, as a point-by-point loop would."""
    if A.ndim != 1 or not A.size:
        raise DomainError(f"A must be a non-empty 1-d grid, got shape {A.shape}")
    finite("A, e, m and n", float(A[0]), e, m, n)
    if m < 0:
        raise NonPositiveMass(f"m must not be negative, got {m}")
    if e * e == 0:
        raise DomainError(f"e**2 must be nonzero (the density equation divides by "
                          f"it), got e = {e}")
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    q = 4.0 * m * m / (e * e)
    if not math.isfinite(q):
        raise DomainError(f"4*m**2/e**2 must be finite, got {q} at e = {e}, m = {m}")
    d = 3.0 / (4.0 * math.pi * n * n)
    with np.errstate(all="ignore"):
        root = np.sqrt(A * A + q)
        sign = np.where(A > 0, 1.0, -1.0)
        rho = (A * A * e * e * d / 2.0) * (A + sign * root)
        R = np.sqrt(3.0 * A / (4.0 * math.pi * rho))
        f = -A * R
    zero = A == 0
    bad = ~zero & ~(np.isfinite(rho) & (rho != 0))  # a non-finite A fails here too
    if bad.any():
        a = float(A[bad.argmax()])
        finite("A, e, m and n", a, e, m, n)  # e, m and n passed: a non-finite A
        raise DomainError(f"the density at A = {a} overflows or underflows")
    rho[zero], R[zero], f[zero] = 0.0, math.nan, math.nan
    return rho, R, f, d


def _residual_column(A: np.ndarray, rho: np.ndarray, d: float, e: float,
                     m: float) -> np.ndarray:
    """Relative residual of the density equation at each non-zero ``A``
    (0 at A = 0); the error names the first point whose largest term is not
    a normal float (subnormal terms have lost their digits)."""
    points = A.tolist()
    cube = np.array([_power(a, 3) for a in points])
    fourth = np.array([_power(a, 4) for a in points])
    dee = d * e * e
    with np.errstate(all="ignore"):
        t0, t1, t2 = rho * rho / dee, -cube * rho, -(m * m * d * fourth)
        # no term is NaN once the solve succeeded, so this is Python's max
        scale = np.maximum(np.maximum(abs(t0), abs(t1)), abs(t2))
        residual = abs((t0 + t1) + t2) / scale
    # A**4 overflows wherever A**3 does, and a zero dee divides by 0: both
    # leave an infinite largest term
    scale[np.isinf(fourth) | (dee == 0)] = math.inf
    live = A != 0
    bad = live & ~((sys.float_info.min <= scale) & (scale < math.inf))
    if bad.any():
        i = bad.argmax()
        raise DomainError(f"the density equation at A = {points[i]} leaves the normal "
                          f"floating-point range, its largest term is {float(scale[i])}")
    residual[~live] = 0.0
    return residual


def local_solve_rho(A: Sequence[float], e: float, m: float, n: int) -> LocalSolveGrid:
    """Solve the pointwise equations for the charge density at every
    potential of the non-empty 1-D grid ``A``, in one pass.

    The density satisfies ``rho²/(d e²) - A³ rho - m² d A⁴ = 0`` with
    ``d = 3/(4 pi n²)``; of the two roots
    ``rho = (A² e² d / 2)(A ± sqrt(A² + 4m²/e²))``
    the branch with ``sign(rho) = sign(A)`` is taken (positive root for
    A > 0, negative root for A < 0), which avoids subtractive
    cancellation on either side.  A = 0 yields the degenerate rho = 0
    point with radius and central charge undefined (NaN) and residual 0.
    The residual is the relative back-substitution residual of the
    density equation.

    Raises :class:`NonPositiveMass` for ``m < 0`` (``m = 0`` is the massless
    limit) and :class:`DomainError` for ``A`` of another shape or of values
    that are not real numbers (booleans and complex numbers included), non-finite
    input, a ``4m²/e²`` or a density outside the floating-point range, or a
    density equation whose largest term is not a normal float.  Every point
    is solved before any residual is taken; an error names the first
    failing A.
    """
    try:
        grid = np.asarray(A)
    except ValueError:  # numpy refuses a ragged nesting
        raise DomainError("A must be a grid of real numbers, got a ragged "
                          "sequence") from None
    if grid.dtype.kind not in "iuf":
        raise DomainError(f"A must be a grid of real numbers, got dtype {grid.dtype}")
    A = grid.astype(float, copy=False)
    rho, R, f, d = _solve_columns(A, e, m, n)
    return LocalSolveGrid(rho=rho, R=R, f=f, residual=_residual_column(A, rho, d, e, m))

