"""Bijection between position space L and the arc-coordinate space M.

L carries polar coordinates ``(r, theta)`` in the orbital plane with arc
``s' = r*theta``; M replaces the angle by the arc ``s = R*theta`` at the
fixed curve parameter R, so ``s' = (r/R) s``.  Everything else
(``x0, r, x3``) passes through unchanged.  A potential ``A`` in L maps
to ``A*r/R`` in M, which is what makes the boundary value of a Coulomb
field constant on an orbit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LPoint",
    "MPoint",
    "RoundelSpec",
    "l_to_m",
    "m_to_l",
    "map_potential",
    "boundary_points",
]

TWO_PI = 2.0 * math.pi


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
        if self.r < 0:
            raise ValueError("radial coordinate must be nonnegative")
        reduced, extra = _normalize_angle(self.theta)
        object.__setattr__(self, "theta", reduced)
        object.__setattr__(self, "turns", self.turns + extra)

    @property
    def arc(self) -> float:
        """The L arc ``s' = r * theta``."""
        return self.r * self.theta

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


def l_to_m(p: LPoint, R: float) -> MPoint:
    if R <= 0:
        raise ValueError("curve parameter R must be positive")
    return MPoint(x0=p.x0, s=R * p.theta, r=p.r, x3=p.x3, turns=p.turns)


def m_to_l(p: MPoint, R: float) -> LPoint:
    if R <= 0:
        raise ValueError("curve parameter R must be positive")
    return LPoint(x0=p.x0, r=p.r, theta=p.s / R, x3=p.x3, turns=p.turns)


def map_potential(A_L: float, r: float, R: float) -> float:
    """Potential in M corresponding to ``A_L`` at radius ``r`` in L."""
    if R <= 0:
        raise ValueError("curve parameter R must be positive")
    return A_L * r / R


@dataclass(frozen=True)
class RoundelSpec:
    """Circle (pure state) or sphere (superposition) of radius R about a center."""

    center: LPoint
    R: float
    kind: str = "pure"  # "pure" | "superposition"

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("roundel radius must be positive")
        if self.kind not in ("pure", "superposition"):
            raise ValueError(f"unknown roundel kind {self.kind!r}")


def boundary_points(spec: RoundelSpec, count: int, seed: int = 0) -> list[LPoint]:
    """Deterministic points on the roundel boundary.

    Pure roundels get ``count`` uniformly spaced circle points starting at
    theta = 0 in the (x1, x2) plane of the center.  Superposition roundels
    get a golden-angle (Fibonacci) spherical point set; the seed rotates
    the longitude origin so distinct seeds give distinct, reproducible sets.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    c = spec.center.to_cartesian()
    pts = []
    if spec.kind == "pure":
        for k in range(count):
            theta = TWO_PI * k / count
            x = c[0] + spec.R * math.cos(theta)
            y = c[1] + spec.R * math.sin(theta)
            pts.append(_cartesian_lpoint(spec.center.x0, x, y, c[2]))
    else:
        golden = math.pi * (3.0 - math.sqrt(5.0))
        offset = (seed * golden) % TWO_PI
        for k in range(count):
            # midpoint z-stratification keeps poles off the set for any count
            zu = 1.0 - 2.0 * (k + 0.5) / count
            ring = math.sqrt(max(0.0, 1.0 - zu * zu))
            lon = offset + golden * k
            x = c[0] + spec.R * ring * math.cos(lon)
            y = c[1] + spec.R * ring * math.sin(lon)
            z = c[2] + spec.R * zu
            pts.append(_cartesian_lpoint(spec.center.x0, x, y, z))
    return pts


def _cartesian_lpoint(x0: float, x: float, y: float, z: float) -> LPoint:
    return LPoint(x0=x0, r=math.hypot(x, y), theta=math.atan2(y, x) % TWO_PI, x3=z)
