"""Ensembles of non-overlapping touching roundels and their scaling laws.

A tiling covers a box with circles (pure state, 2-d) or spheres
(superposition, 3-d) packed on a square/cubic grid of interval twice the
radius.  Boundary points shared by several roundels are owned by the
lexicographically smallest center, and as radii shrink the boundary set
fills the box.  :func:`_owners_of` applies that rule to every sampled point
at once; its one-point reference over candidate roundels is in
``tests/reference_tiling.py``.  :func:`tile` only builds; :func:`verify_ensemble` measures
overlap and coverage (how many radii from a boundary a point of the box may
lie), and the caller judges them against the ensemble's ``c``.  An
:class:`Ensemble` is read-only arrays, per roundel (id, center, radius,
charge, region) and per boundary point (point, owning roundel, whose region it takes).
Ownership, overlap and coverage are found in O(N) through a uniform cell
list (Allen & Tildesley, *Computer Simulation of Liquids*, ch. 5) whose
cell side is the largest roundel diameter.  Driving the orbit equations
while the bare mass and charge scale inversely with the radius produces
the limit power laws that :func:`scaling_sweep` tabulates and fits as a
:class:`~bohrqed.fitting.Sweep`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._domain import DomainError, finite, positive, whole
from .bohr import BohrInput
from .fitting import Sweep, fit_sweep
from .mspace import _boundary_samples, kind_dim

__all__ = [
    "InfeasibleCoverage",
    "NotOnBoundary",
    "Ensemble",
    "tile",
    "partition_regions",
    "count_interactions",
    "total_charge",
    "verify_ensemble",
    "boundary_fill_distance",
    "scaling_sweep",
    "SCALING_EXPONENTS",
]

# a point lies on a roundel's boundary to this fraction of its radius
_BOUNDARY_TOL = 1e-9
# cell-list cells are this much wider than the largest diameter, so no
# pair one diameter apart lands two cells apart through rounding
_CELL_SLACK = 1e-9
# evenly spaced points per axis of the box that verify_ensemble and
# boundary_fill_distance sample
_VERIFY_SAMPLES, _FILL_SAMPLES = 17, 33


class InfeasibleCoverage(DomainError):
    """The requested coverage slack c cannot be met by the tiling."""


class NotOnBoundary(DomainError):
    """A point handed to the ownership rule is not on every candidate boundary."""


def _checked_domain(domain, kind: str) -> tuple[tuple[float, float], ...]:
    """``domain`` as float pairs: one per axis of ``kind``, finite, lo < hi."""
    dim = kind_dim(kind)
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    if len(domain) != dim:
        raise DomainError(f"{kind} tiling needs a {dim}-d domain, got {domain}")
    if not all(-math.inf < lo < hi < math.inf for lo, hi in domain):
        raise DomainError("domain bounds must be finite with positive extent "
                          f"on every axis, got {domain}")
    return domain


@dataclass(frozen=True, eq=False)
class Ensemble:
    ids: np.ndarray  # (M,) roundel ids
    centers: np.ndarray  # (M, d) spatial (x1, x2) or (x1, x2, x3)
    radii: np.ndarray  # (M,)
    charges: np.ndarray  # (M,)
    regions: np.ndarray  # (M,) region id of each roundel
    kind: str  # "pure" | "superposition"
    c: float
    boundary: np.ndarray  # (N, d) sample points
    owners: np.ndarray  # (N,) id of the roundel owning each point
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):  # every array is a read-only view
        for name in ("ids", "centers", "radii", "charges", "regions", "boundary", "owners"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        m, dim = len(self.ids), kind_dim(self.kind)
        shapes = {a.shape for a in (self.ids, self.radii, self.charges, self.regions)}
        if shapes != {(m,)} or self.centers.shape != (m, dim):
            raise DomainError(f"{self.kind} roundel arrays {shapes} mismatch "
                              f"centers {self.centers.shape}")
        repeats = np.delete(self.ids, np.unique(self.ids, return_index=True)[1])
        if repeats.size:  # the owner -> region lookup needs one roundel per id
            raise DomainError(f"roundel id {repeats[0]} is repeated")
        for name in ("centers", "radii", "charges", "boundary"):
            values = getattr(self, name)
            if values.dtype.kind not in "iuf":
                raise DomainError(f"roundel {name} must be finite real numbers, "
                                  f"got {values.ravel()[:3].tolist()}")
        if not (np.isfinite(self.centers).all() and np.isfinite(self.radii).all()
                and (self.radii > 0).all()):
            raise DomainError("roundel centers must be finite, radii finite and positive")
        bad = self.charges[~np.isfinite(self.charges)]
        if bad.size:
            raise DomainError("roundel charges must be finite real numbers, "
                              f"got {bad[:3].tolist()}")
        n, shapes = len(self.boundary), {self.owners.shape}
        if (shapes != {(n,)} or self.boundary.shape != (n, dim)
                or not np.isfinite(self.boundary).all()):
            raise DomainError(f"{self.kind} boundary {self.boundary.shape} and owner arrays "
                              f"{shapes} must be finite {dim}-d points, one owner each")
        unknown = self.owners[~np.isin(self.owners, self.ids)]
        if unknown.size:
            raise DomainError(f"boundary owners {unknown[:3].tolist()} are not ids "
                              "of the ensemble's roundels")
        finite("coverage slack c", self.c)
        object.__setattr__(self, "domain", _checked_domain(self.domain, self.kind))

    @property
    def dim(self) -> int:
        return kind_dim(self.kind)

    @property
    def boundary_regions(self) -> np.ndarray:
        """``(N,)`` region id of each point's owner, read-only."""
        by_id = np.argsort(self.ids)
        found = self.regions[by_id[np.searchsorted(self.ids, self.owners, sorter=by_id)]]
        found.setflags(write=False)
        return found


def _distance(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum((p - c) ** 2, axis=-1))


def _cell_pairs(points: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Candidate (point, roundel) index pairs from a uniform cell list.

    Centers are binned into cubes of side ``2*max(R)`` plus the slack; each
    batch pairs every point with the roundels of one of the 3**d cubes
    around its own.
    """
    cell = 2.0 * radii.max() * (1.0 + _CELL_SLACK)
    lo = centers.min(axis=0)
    # past 2**20 cubes along an axis two cubes may share a key: more candidates
    stride = np.int64(1 << 21) ** np.arange(centers.shape[1])
    home = np.floor((centers - lo) / cell).astype(np.int64) @ stride
    probe = np.floor((points - lo) / cell).astype(np.int64) @ stride
    order = np.argsort(home, kind="stable")
    keys, first, count = np.unique(home[order], return_index=True,
                                   return_counts=True)
    for step in itertools.product((-1, 0, 1), repeat=centers.shape[1]):
        key = probe + np.dot(step, stride)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        n = np.where(keys[at] == key, count[at], 0)
        skip = np.cumsum(n) - n - first[at]  # batch slot -> sorted slot
        yield (np.repeat(np.arange(len(points)), n),
               order[np.arange(n.sum()) - np.repeat(skip, n)])


def _least(points: np.ndarray, centers: np.ndarray, radii: np.ndarray,
           score: Callable, bound: Callable) -> np.ndarray:
    """Least ``score(i, j, d)`` per point i over every roundel j at distance d.

    A point whose least candidate score exceeds ``bound(far)``, a lower bound
    on the score of any roundel farther than ``far``, is scored against all.
    """
    least = np.full(len(points), np.inf)
    for pi, ri in _cell_pairs(points, centers, radii):
        np.minimum.at(least, pi, score(pi, ri, _distance(points[pi], centers[ri])))
    # under a million cubes across, binning rounds by far less than the
    # slack, so every roundel outside a point's stencil is farther than this
    far = 2.0 * radii.max() * (1.0 + _CELL_SLACK / 2)
    for i in np.flatnonzero(~(least <= bound(far))):
        least[i] = score(i, np.arange(len(centers)), _distance(points[i], centers)).min()
    return least


def _owners_of(points: np.ndarray, centers: np.ndarray, radii: np.ndarray,
              ids: np.ndarray) -> np.ndarray:
    """Owning roundel id per point; ties go to the smallest center."""
    by_rank = np.lexsort(centers.T[::-1])  # roundel index in center order
    rank = np.argsort(by_rank).astype(float)
    # a boundary through the point is within max(R) * (1 + tol): never widen
    best = _least(points, centers, radii, lambda i, j, d: np.where(
        np.abs(d - radii[j]) <= _BOUNDARY_TOL * radii[j], rank[j], np.inf),
        lambda far: np.inf)
    if np.isinf(best).any():
        bad = points[np.isinf(best)][0]
        raise NotOnBoundary(f"point {tuple(bad.tolist())} lies on no roundel boundary")
    return ids[by_rank[best.astype(int)]]


def tile(domain: Sequence[tuple[float, float]],
         R: float,
         kind: str = "pure",
         c: float | None = None,
         boundary_samples: int = 8,
         seed: int = 0) -> Ensemble:
    """Tile a box with uncharged touching roundels of radius ``R`` on a
    square/cubic packing, keeping ``c`` (``sqrt(dim)`` by default) for the
    caller to judge :func:`verify_ensemble` by.  Raises
    :class:`InfeasibleCoverage` only when no roundel fits in the domain."""
    dim = kind_dim(kind)
    domain = _checked_domain(domain, kind)
    whole("boundary_samples", boundary_samples, 1)
    if c is None:
        c = math.sqrt(dim)
    finite("coverage slack c", c)  # before the tiling work; Ensemble checks it again
    positive("radius", R)

    centers, radii = _grid_cells(domain, float(R))
    ids = np.arange(len(radii))
    pts = _boundary_samples(centers, radii, kind, boundary_samples, seed)
    return Ensemble(ids=ids, centers=centers, radii=radii, charges=np.zeros(len(radii)),
                    regions=np.zeros(len(radii), dtype=int), kind=kind, c=c, boundary=pts,
                    owners=_owners_of(pts, centers, radii, ids), domain=domain)


def _grid_cells(domain, R):
    counts = np.floor([(hi - lo) / (2.0 * R) + 1e-9 for lo, hi in domain])
    if min(counts) < 1:
        raise InfeasibleCoverage(
            f"a roundel of radius {R} does not fit in the domain {domain}")
    whole(f"roundel count at radius {R} in {domain}", math.prod(counts.tolist()), 1)
    counts = [int(n) for n in counts]
    centers = _mesh([lo + R + 2.0 * R * np.arange(n)
                     for (lo, _), n in zip(domain, counts)])
    return centers, np.full(len(centers), R)


def _mesh(axes) -> np.ndarray:
    """Every point of the grid spanned by ``axes``, one per row."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _box_samples(domain, samples_per_axis: int) -> np.ndarray:
    return _mesh([np.linspace(lo, hi, samples_per_axis) for lo, hi in domain])


def verify_ensemble(ensemble: Ensemble) -> dict:
    """Measure the two tiling invariants.

    Returns ``max_overlap`` (positive means interiors intersect) and
    ``max_coverage_ratio`` (the least c that would cover the box, sampled
    at 17 evenly spaced points per axis).
    """
    centers, radii = ensemble.centers, ensemble.radii
    clearance = _least(
        centers, centers, radii,
        lambda i, j, d: np.where(i == j, np.inf, d - (radii[i] + radii[j])),
        lambda far: far - (radii + radii.max()))
    # 0 - x rather than -x, so that a touching pair reads 0.0, not -0.0
    max_overlap = float((0.0 - clearance).max()) if len(centers) > 1 else 0.0
    ratio = _least(_box_samples(ensemble.domain, _VERIFY_SAMPLES), centers, radii,
                   lambda i, j, d: np.abs(d - radii[j]) / radii[j],
                   lambda far: far / radii.max() - 1.0)
    return {"max_overlap": max_overlap,
            "max_coverage_ratio": float(ratio.max(initial=0.0))}


def boundary_fill_distance(ensemble: Ensemble) -> float:
    """Greatest distance to the union of boundaries from the box, sampled at
    33 evenly spaced points per axis."""
    centers, radii = ensemble.centers, ensemble.radii
    gap = _least(_box_samples(ensemble.domain, _FILL_SAMPLES), centers, radii,
                 lambda i, j, d: np.abs(d - radii[j]),
                 lambda far: far - radii.max())
    return float(gap.max(initial=0.0))


def partition_regions(ensemble: Ensemble, regions_per_axis: int) -> Ensemble:
    """Split the ensemble into an axis-aligned grid of regions.

    Each roundel joins the region containing its center; boundary points
    follow their owning roundel's region (:attr:`Ensemble.boundary_regions`).
    """
    los = np.array([lo for lo, _ in ensemble.domain])
    whole("regions_per_axis", regions_per_axis, 1)
    whole(f"region count regions_per_axis**{len(los)}", regions_per_axis ** len(los), 1)
    his = np.array([hi for _, hi in ensemble.domain])
    frac = (ensemble.centers - los) / (his - los)
    cell = np.clip((frac * regions_per_axis).astype(int), 0, regions_per_axis - 1)
    flat = np.ravel_multi_index(cell.T, (regions_per_axis,) * len(los))
    return replace(ensemble, regions=flat)


def count_interactions(T: float, R: float, kind: str) -> int:
    """Local interactions inside a box of side T tiled at radius R."""
    dim = kind_dim(kind)
    finite("box side T", T)
    positive("roundel radius R", R)
    if T <= 2.0 * R:
        raise DomainError(f"box side T = {T} must exceed one roundel diameter {2 * R}")
    cells = T / (2.0 * R)
    if not dim * math.log(cells) < math.log(sys.float_info.max):  # no overflow
        raise DomainError(f"box side T = {T} holds more roundels of radius "
                          f"R = {R} than a float counts")
    return int(math.floor(cells ** dim + 1e-9))


def total_charge(ensemble: Ensemble) -> float:
    """Sum of the roundel charges."""
    # a left-to-right fold: numpy's pairwise sum need not match it, nor does
    # sum(), which compensates from Python 3.12 on
    return float(functools.reduce(operator.add, ensemble.charges.tolist(), 0))


# ---------------------------------------------------------------------------
# Limit scaling of the bare variables
# ---------------------------------------------------------------------------

#: Expected log-log slopes against the roundel radius.
SCALING_EXPONENTS = {
    "mB": -1.0, "eB": -1.0, "eBa": -1.0, "f": 1.0,
    "A": 0.0, "rho": -2.0,
}


def scaling_sweep(template: BohrInput, radii: Sequence[float], T: float,
                  kind: str = "pure") -> Sweep:
    """Shrink the roundels while the orbit equations stay exactly valid.

    The bare mass and charge are pinned to ``m/R`` and ``e/R``; the central
    charge then follows from the orbit condition
    ``|eB*f| = n² / sqrt((mB*R)² + n²)``, which keeps every row sub-critical
    and the orbital speed radius-independent.  The columns are
    ``R, mB, eB, eBa, f, A, rho, nl``.
    """
    dim = kind_dim(kind)
    if template.e == 0:
        raise DomainError(f"template charge e must be non-zero, got {template.e}")
    n = template.n

    def row(R: float) -> dict:
        mB = template.m / R
        finite(f"bare mass m/R and (mB*R)**2 at m = {template.m}, R = {R}",
               mB, mB * R * (mB * R))  # ** raises OverflowError
        eB = abs(template.e) / R
        u = n * n / math.sqrt((mB * R) ** 2 + n * n)  # |eB * f|
        f = u / eB
        A = f / R
        rho = 3.0 * A / (4.0 * math.pi * R * R)
        nl = count_interactions(T, R, kind)
        return {"R": R, "mB": mB, "eB": eB, "eBa": nl * f, "f": f, "A": A,
                "rho": rho, "nl": nl}

    expected = dict(SCALING_EXPONENTS)
    expected["nl"] = -float(dim)
    expected["eBa"] = 1.0 - dim  # eBa = nl*f ~ R**-dim * R
    return fit_sweep(radii, "radii", row, expected)
