"""Biquaternion algebra, reflector matrices, and Lorentz/rotation transforms.

Everything downstream (orbit solver, coordinate maps, lattice operators)
is built on three objects defined here:

* ``Biquaternion`` -- a quaternion with complex coefficients, basis
  ``1, i1, i2, i3`` with ``i1*i2 = i3`` (right-handed) and ``ik**2 = -1``.
* ``Reflector`` -- a 2x2 matrix ``X(a, b)`` with quaternion entries on the
  anti-diagonal only; :func:`reflector_mul` of two reflectors is diagonal.
* ``LorentzTransform`` -- rotations and boosts realized as a sandwich
  ``q -> g q g^dagger`` with ``g`` a unit biquaternion.

Two conjugations:

* ``quat_conj`` (written ``‡`` in comments): negate the vector part.
* ``dagger`` (``†``): complex-conjugate all four coefficients, then ``‡``.

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._domain import DomainError, finite, positive

__all__ = [
    "Biquaternion",
    "Reflector",
    "DiagonalMatrix",
    "LorentzTransform",
    "reflector_mul",
    "ONE",
    "I0",
    "I1",
    "I2",
    "I3",
    "BASIS",
    "bq_mul_arr",
    "bq_mul_planes",
    "bq_frobenius_arr",
]

@dataclass(frozen=True)
class Biquaternion:
    """Quaternion with complex coefficients of ``1, i1, i2, i3``."""

    w: complex = 0j
    x: complex = 0j
    y: complex = 0j
    z: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "w", complex(self.w))
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        object.__setattr__(self, "z", complex(self.z))

    def __add__(self, other: "Biquaternion") -> "Biquaternion":
        other = _coerce(other)
        return Biquaternion(self.w + other.w, self.x + other.x,
                            self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other: "Biquaternion") -> "Biquaternion":
        other = _coerce(other)
        return Biquaternion(self.w - other.w, self.x - other.x,
                            self.y - other.y, self.z - other.z)

    def __rsub__(self, other) -> "Biquaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Biquaternion":
        return Biquaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other) -> "Biquaternion":
        """Hamilton product; ``i1*i2 = i3`` cyclically."""
        b = _coerce(other)
        a = self
        return Biquaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def __rmul__(self, other) -> "Biquaternion":
        return _coerce(other) * self

    def quat_conj(self) -> "Biquaternion":
        """The ‡ conjugation: fix w, negate the vector part."""
        return Biquaternion(self.w, -self.x, -self.y, -self.z)

    def complex_conj(self) -> "Biquaternion":
        """Complex-conjugate all four coefficients (basis untouched)."""
        return Biquaternion(self.w.conjugate(), self.x.conjugate(),
                            self.y.conjugate(), self.z.conjugate())

    def dagger(self) -> "Biquaternion":
        """The † conjugation: complex conjugation composed with ‡."""
        return self.complex_conj().quat_conj()

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=complex)

    def __repr__(self) -> str:
        return (f"Biquaternion(w={self.w:.6g}, x={self.x:.6g}, "
                f"y={self.y:.6g}, z={self.z:.6g})")


def _coerce(value) -> Biquaternion:
    if isinstance(value, Biquaternion):
        return value
    if isinstance(value, (int, float, complex)):
        return Biquaternion(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as Biquaternion")


ONE = Biquaternion(1)
I1 = Biquaternion(0, 1)
I2 = Biquaternion(0, 0, 1)
I3 = Biquaternion(0, 0, 0, 1)
#: Time-axis coefficient of the first-order operator: the complex unit times 1.
I0 = Biquaternion(1j)
#: Basis used by the first-order operator, indexed by axis 0..3.
BASIS = (I0, I1, I2, I3)


@dataclass(frozen=True)
class DiagonalMatrix:
    """2x2 diagonal matrix with biquaternion entries."""

    d1: Biquaternion
    d2: Biquaternion

    def __mul__(self, other):
        if isinstance(other, Reflector):
            return Reflector(self.d1 * other.upper, self.d2 * other.lower)
        return NotImplemented


@dataclass(frozen=True)
class Reflector:
    """Anti-diagonal 2x2 matrix ``X(a, b) = [[0, a], [b, 0]]``.

    Houses the wave function, the first-order operator, the potential,
    the mass term, and the current. The off-diagonal entries of any
    product of two reflectors vanish identically, so squares of the
    operator reflector act componentwise as a scalar.
    """

    upper: Biquaternion
    lower: Biquaternion

    def __mul__(self, other):
        if isinstance(other, DiagonalMatrix):
            return Reflector(self.upper * other.d2, self.lower * other.d1)
        return NotImplemented


def reflector_mul(a: Reflector, b: Reflector) -> DiagonalMatrix:
    """Product of two reflectors: ``X(a1,b1) X(a2,b2) = diag(a1 b2, b1 a2)``."""
    return DiagonalMatrix(a.upper * b.lower, a.lower * b.upper)


# ---------------------------------------------------------------------------
# Lorentz transforms
# ---------------------------------------------------------------------------

#: Largest |rapidity| whose cosh(rapidity/2) is a finite float.
_MAX_RAPIDITY = 2.0 * math.acosh(sys.float_info.max)


def _unit_axis(axis) -> np.ndarray:
    v = np.asarray(axis, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"axis must be a 3-vector, got {v.tolist()}")
    try:  # an exact sum, no BLAS call: the same bits on every CPU
        n = math.sqrt(math.fsum(x * x for x in v.tolist()))
    except OverflowError:  # fsum's intermediate overflow: rejected below
        n = math.inf
    positive(f"norm of axis {v.tolist()}", n)
    return v / n


@dataclass(frozen=True)
class LorentzTransform:
    """Rotation and boost acting on biquaternions by ``q -> g q g†``.

    ``g`` is a unit biquaternion (``g g‡ = 1``).  Rotations have real
    coefficients, boosts have a real scalar and imaginary vector part,
    and any composition is again a single ``g``, so composition is just
    the Hamilton product and the inverse is ``g‡``.  Four-vectors are
    housed as ``i*v0 + v1 i1 + v2 i2 + v3 i3``; the sandwich preserves
    the complex form ``q q‡ = w² + x² + y² + z²``, which restricts to
    ``-v0² + |v|²`` on them.
    """

    g: Biquaternion

    @staticmethod
    def identity() -> "LorentzTransform":
        return LorentzTransform(ONE)

    @staticmethod
    def rotation(axis, angle: float) -> "LorentzTransform":
        n = _unit_axis(axis)
        finite("rotation angle", angle)
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        return LorentzTransform(Biquaternion(c, s * n[0], s * n[1], s * n[2]))

    @staticmethod
    def boost(axis, rapidity: float) -> "LorentzTransform":
        n = _unit_axis(axis)
        finite("rapidity", rapidity)
        if abs(rapidity) > _MAX_RAPIDITY:
            raise DomainError(f"|rapidity| must be at most {_MAX_RAPIDITY:.6g}, past "
                              f"which cosh(rapidity/2) overflows, got {rapidity}")
        c, s = np.cosh(rapidity / 2.0), np.sinh(rapidity / 2.0)
        return LorentzTransform(
            Biquaternion(c, 1j * s * n[0], 1j * s * n[1], 1j * s * n[2]))

    def inverse(self) -> "LorentzTransform":
        return LorentzTransform(self.g.quat_conj())

    def apply(self, q: Biquaternion) -> Biquaternion:
        return self.g * q * self.g.dagger()

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Act sitewise on a ``(..., 4)`` complex biquaternion array."""
        ga = self.g.as_array()
        gd = self.g.dagger().as_array()
        return bq_mul_arr(bq_mul_arr(ga, values), gd)


# ---------------------------------------------------------------------------
# Vectorized biquaternion arithmetic on (..., 4) complex arrays
# ---------------------------------------------------------------------------

#: Signs of the terms ``a[i] * b[i ^ k]`` of component k of a Hamilton product.
_HAMILTON_SIGNS = ((1, -1, -1, -1), (1, 1, 1, -1), (1, -1, 1, 1), (1, 1, -1, 1))


def bq_mul_planes(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Hamilton product of component planes (first axis; a constant is a
    ``(4,)`` array) into ``out``, which must not overlap ``a`` or ``b``.

    Component k is ``((t0 ± t1) ± t2) ± t3`` with ``ti = a[i] * b[i ^ k]``,
    in the scalar product's order; terms after the first go through the
    scratch plane ``tmp``."""
    for k, signs in enumerate(_HAMILTON_SIGNS):
        plane = np.multiply(a[0], b[k], out=out[k, ...])
        for i in range(1, 4):
            term = np.multiply(a[i], b[i ^ k], out=tmp)
            (np.add if signs[i] > 0 else np.subtract)(plane, term, out=plane)
    return out


def bq_mul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of ``(..., 4)`` arrays, broadcasting over leading axes."""
    a = np.moveaxis(np.asarray(a, dtype=complex), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=complex), -1, 0)
    out = np.empty((4,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), complex)
    return np.moveaxis(bq_mul_planes(a, b, out, np.empty(out.shape[1:], complex)),
                       0, -1)


def bq_frobenius_arr(a: np.ndarray) -> np.ndarray:
    """Per-site Frobenius magnitude of a ``(..., 4)`` array: the squared
    moduli of the four components summed in place, in component order; a
    scalar for one site."""
    a = np.asarray(a)
    out, term = np.empty(a.shape[:-1]), np.empty(a.shape[:-1])
    np.square(np.abs(a[..., 0], out=out), out=out)
    for k in range(1, 4):
        out += np.square(np.abs(a[..., k], out=term), out=term)
    return np.sqrt(out, out=out)[()]
