"""Bijection between position space L and the arc-coordinate space M.

L carries polar coordinates ``(r, theta)`` in the orbital plane with arc
``s' = r*theta``; M replaces the angle by the arc ``s = R*theta`` at the
fixed curve parameter R, so ``s' = (r/R) s``.  Everything else
(``x0, r, x3``) passes through unchanged.  A potential ``A`` in L maps
to ``A*r/R`` in M, which is what makes the boundary value of a Coulomb
field constant on an orbit circle; the tests check that map through their
reference ``map_potential`` (``tests/reference_orbit.py``).
:func:`bohrqed.ensemble.tile` samples roundel boundaries with the
generator behind :func:`boundary_points`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import DomainError, positive, typed, whole

__all__ = [
    "LPoint",
    "MPoint",
    "RoundelSpec",
    "l_to_m",
    "m_to_l",
    "boundary_points",
]

TWO_PI = 2.0 * math.pi

#: Spatial dimension of each roundel kind: circles and spheres.
KINDS = {"pure": 2, "superposition": 3}


def kind_dim(kind: str) -> int:
    """The spatial dimension of a roundel ``kind``."""
    if kind not in KINDS:
        raise DomainError(f"unknown ensemble kind {kind!r}")
    return KINDS[kind]


def _normalize_angle(angle: float) -> tuple[float, int]:
    """Reduce to [0, 2*pi), returning the whole-turn count removed."""
    turns = math.floor(angle / TWO_PI)
    reduced = angle - turns * TWO_PI
    if reduced >= TWO_PI:  # guard the rounding edge at exactly 2*pi
        reduced -= TWO_PI
        turns += 1
    return reduced, turns


@dataclass(frozen=True)
class LPoint:
    """Point of L in cylindrical-polar form ``(x0, r, theta, x3)``."""

    x0: float
    r: float
    theta: float
    x3: float
    turns: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.r, self.theta, self.x3))):
            raise DomainError(f"L coordinates must be finite, got {self}")
        if self.r < 0:
            raise DomainError(f"radial coordinate must be nonnegative, got {self.r}")
        reduced, extra = _normalize_angle(self.theta)
        object.__setattr__(self, "theta", reduced)
        object.__setattr__(self, "turns", self.turns + extra)

    def to_cartesian(self) -> np.ndarray:
        return np.array([self.r * math.cos(self.theta),
                         self.r * math.sin(self.theta), self.x3])


@dataclass(frozen=True)
class MPoint:
    """Point of M with coordinates ``(x0, s, r, x3)``; ``s = R*theta``."""

    x0: float
    s: float
    r: float
    x3: float
    turns: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.s, self.r, self.x3))):
            raise DomainError(f"M coordinates must be finite, got {self}")


def l_to_m(p: LPoint, R: float) -> MPoint:
    typed((LPoint,), p=p)
    positive("curve parameter R", R)
    return MPoint(x0=p.x0, s=R * p.theta, r=p.r, x3=p.x3, turns=p.turns)


def m_to_l(p: MPoint, R: float) -> LPoint:
    typed((MPoint,), p=p)
    positive("curve parameter R", R)
    return LPoint(x0=p.x0, r=p.r, theta=p.s / R, x3=p.x3, turns=p.turns)


@dataclass(frozen=True)
class RoundelSpec:
    """Circle (pure state) or sphere (superposition) of radius R about a center."""

    center: LPoint
    R: float
    kind: str = "pure"  # "pure" | "superposition"

    def __post_init__(self):
        typed((LPoint,), center=self.center)
        positive("roundel radius", self.R)
        kind_dim(self.kind)


def _boundary_samples(centers: np.ndarray, radii: np.ndarray, kind: str,
                      count: int, seed: int) -> np.ndarray:
    """:func:`boundary_points` of ``(M, d)`` centers, roundel after roundel."""
    k = np.arange(count)
    R = radii[:, None]
    if kind == "pure":
        angles = TWO_PI * k / count
        offsets = (R * np.cos(angles), R * np.sin(angles))
    else:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        # midpoint z-stratification keeps poles off the set for any count
        zu = 1.0 - 2.0 * (k + 0.5) / count
        ring = np.sqrt(np.maximum(0.0, 1.0 - zu * zu))
        lon = (seed * golden) % TWO_PI + golden * k
        offsets = (R * ring * np.cos(lon), R * ring * np.sin(lon), R * zu)
    pts = centers[:, None, :] + np.stack(offsets, axis=-1)
    return pts.reshape(-1, centers.shape[1])


def boundary_points(spec: RoundelSpec, count: int, seed: int = 0) -> list[LPoint]:
    """Deterministic points on the roundel boundary.

    Pure roundels get ``count`` uniformly spaced circle points starting at
    theta = 0 in the (x1, x2) plane of the center.  Superposition roundels
    get a golden-angle spherical point set (González, Math. Geosci. 42:49,
    2010); the seed rotates the longitude origin so distinct seeds give
    distinct, reproducible sets.
    """
    typed((RoundelSpec,), spec=spec)
    whole("count", count, 1)
    c = spec.center.to_cartesian()
    dim = KINDS[spec.kind]
    xyz = np.repeat(c[None], count, axis=0)  # a circle keeps the center's x3
    xyz[:, :dim] = _boundary_samples(c[None, :dim], np.array([spec.R]), spec.kind,
                                     count, seed)
    return [_cartesian_lpoint(spec.center.x0, *p) for p in xyz.tolist()]


def _cartesian_lpoint(x0: float, x: float, y: float, z: float) -> LPoint:
    return LPoint(x0=x0, r=math.hypot(x, y), theta=math.atan2(y, x) % TWO_PI, x3=z)
