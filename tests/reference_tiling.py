"""Reference tilings built cell by cell, shared by the ensemble test suites.

``bohrqed.ensemble.tile`` packs roundels of one radius.  The cell-list
oracles also need ensembles with mixed radii, where a point's candidate
search must widen past its own cells; :func:`ref_ensemble` builds them from
a radius field by quadtree/octree refinement.  The ownership rule the cell
list applies to every boundary point at once is defined here one point at a
time: :func:`assign_boundary_point` picks the lexicographically smallest
center among :class:`Roundel` candidates, within the package's
``_BOUNDARY_TOL`` of each radius (acceptance C6).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from bohrqed._domain import DomainError, finite, positive
from bohrqed.ensemble import _BOUNDARY_TOL, Ensemble, NotOnBoundary, _owners_of
from bohrqed.mspace import _boundary_samples


@dataclass(frozen=True)
class Roundel:
    id: int
    center: tuple[float, ...]  # spatial (x1, x2) or (x1, x2, x3)
    R: float

    def __post_init__(self):
        positive("roundel radius", self.R)
        finite("roundel center", *self.center)


def assign_boundary_point(point, candidates: Sequence[Roundel]) -> int:
    """Owner of a shared boundary point: lexicographically smallest center.

    The point must lie on the boundary of every candidate to 1e-9 of its
    radius; ordering of the candidate list never affects the result.
    """
    if not candidates:
        raise DomainError("need at least one candidate roundel")
    point = tuple(float(p) for p in point)
    for r in candidates:
        if not abs(math.dist(point, r.center) - r.R) <= _BOUNDARY_TOL * r.R:  # NaN is off
            raise NotOnBoundary(
                f"point {point} is off the boundary of roundel {r.id}")
    return min(candidates, key=lambda r: r.center).id


def _split_cell(center, h, dim):
    center, half = np.asarray(center, dtype=float), h / 2.0
    return [(tuple(center + np.array([half if s else -half for s in signs])), half)
            for signs in np.ndindex(*(2,) * dim)]


def ref_cells(domain, R, dim, max_ratio=4.0):
    """Centers and radii of the roundels, built cell by cell.

    A constant ``R`` gives ``tile``'s grid.  A callable ``R`` is a radius
    field: a square/cubic domain is split depth first, the last child first,
    until each cell's half-side is at most the field at its center; then any
    cell more than ``max_ratio`` times the smallest is split in place.
    """
    if callable(R):
        cells = []
        stack = [(np.array([(lo + hi) / 2.0 for lo, hi in domain]),
                  (domain[0][1] - domain[0][0]) / 2.0)]
        while stack:
            center, h = stack.pop()
            if h <= float(R(np.asarray(center))) + 1e-12:
                cells.append((tuple(center), h))
            else:
                stack.extend((np.asarray(ctr), hh)
                             for ctr, hh in _split_cell(center, h, dim))
    else:
        counts = [int(math.floor((hi - lo) / (2.0 * R) + 1e-9)) for lo, hi in domain]
        axes = [lo + R + 2.0 * R * np.arange(n) for (lo, _), n in zip(domain, counts)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        cells = [(tuple(ctr), R) for ctr in grid]
    radii = np.array([h for _, h in cells])
    while radii.max() / radii.min() > max_ratio:
        cells = [child for center, h in cells for child in
                 (_split_cell(center, h, dim)
                  if h > max_ratio * radii.min() else [(center, h)])]
        radii = np.array([h for _, h in cells])
    return np.array([ctr for ctr, _ in cells], dtype=float), radii


def ref_ensemble(domain, field, kind="pure", boundary_samples=8, seed=0):
    """The ensemble of the radius field ``field``, laid out as ``tile`` lays
    out its grid: uncharged, one region, default coverage slack."""
    dim = 2 if kind == "pure" else 3
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    centers, radii = ref_cells(domain, field, dim)
    ids = np.arange(len(radii))
    pts = _boundary_samples(centers, radii, kind, boundary_samples, seed)
    return Ensemble(ids=ids, centers=centers, radii=radii, charges=np.zeros(len(radii)),
                    regions=np.zeros(len(radii), dtype=int), kind=kind, c=math.sqrt(dim),
                    boundary=pts, owners=_owners_of(pts, centers, radii, ids), domain=domain)
