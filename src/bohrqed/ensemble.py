"""Ensembles of non-overlapping touching roundels and their scaling laws.

A tiling covers a box with circles (pure state, 2-d) or spheres
(superposition, 3-d) packed on a square/cubic grid of interval twice the
radius; a quadtree/octree refinement handles position-dependent radii.
Every point of the box must lie within ``c`` local radii of some roundel
boundary, boundary points shared by several roundels are owned by the
lexicographically smallest center, and as radii shrink the boundary set
fills the box.  An :class:`Ensemble` is read-only arrays, per roundel (id,
center, radius, charge, region) and per boundary point (point, owning
roundel, its region).  Ownership, overlap and coverage are found in O(N) through
a uniform cell list (Allen & Tildesley, *Computer Simulation of Liquids*,
ch. 5) whose cell side is the largest roundel diameter.  Driving the
orbit equations while the bare mass and charge scale inversely with the
radius produces the limit power laws measured by :func:`scaling_sweep`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bohr import BohrInput, solve_bohr
from .fitting import PowerFit, fit_loglog
from .mspace import _boundary_samples

__all__ = [
    "InfeasibleCoverage",
    "NotOnBoundary",
    "Roundel",
    "Ensemble",
    "tile",
    "assign_boundary_point",
    "partition_regions",
    "count_interactions",
    "total_charge",
    "verify_ensemble",
    "boundary_fill_distance",
    "ScalingSweepRow",
    "ScalingSweepResult",
    "scaling_sweep",
    "SCALING_EXPONENTS",
]

_OVERLAP_TOL = 1e-12
_BOUNDARY_TOL = 1e-9
_MAX_DEPTH = 16
# cell-list cells are this much wider than the largest diameter, so no
# pair one diameter apart lands two cells apart through rounding
_CELL_SLACK = 1e-9


class InfeasibleCoverage(ValueError):
    """The requested coverage slack c cannot be met by the tiling."""


class NotOnBoundary(ValueError):
    """A point handed to the ownership rule is not on every candidate boundary."""


@dataclass(frozen=True)
class Roundel:
    id: int
    center: tuple[float, ...]  # spatial (x1, x2) or (x1, x2, x3)
    R: float

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ValueError(f"roundel radius must be finite and positive, got {self.R}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"roundel center must be finite, got {self.center}")


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
    boundary_regions: np.ndarray  # (N,) region id of each point's owner
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):  # every array is a read-only view
        for name in ("ids", "centers", "radii", "charges", "regions",
                     "boundary", "owners", "boundary_regions"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        m, dim = len(self.ids), _check_kind(self.kind)
        shapes = {a.shape for a in (self.ids, self.radii, self.charges, self.regions)}
        if shapes != {(m,)} or self.centers.shape != (m, dim):
            raise ValueError(f"{self.kind} roundel arrays {shapes} mismatch "
                             f"centers {self.centers.shape}")
        if not (np.isfinite(self.centers).all() and np.isfinite(self.radii).all()
                and (self.radii > 0).all()):
            raise ValueError("roundel centers must be finite, radii finite and positive")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "pure" else 3

    def region_of(self, roundel_id: int) -> int:
        at = np.flatnonzero(self.ids == roundel_id)
        if not len(at):
            raise KeyError(f"roundel {roundel_id} not in any region")
        return int(self.regions[at[0]])


def _check_kind(kind: str) -> int:
    if kind == "pure":
        return 2
    if kind == "superposition":
        return 3
    raise ValueError(f"unknown ensemble kind {kind!r}")


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
    # a boundary through the point is within max(R) + tol: never widen
    best = _least(points, centers, radii, lambda i, j, d: np.where(
        np.abs(d - radii[j]) <= _BOUNDARY_TOL, rank[j], np.inf),
        lambda far: np.inf)
    if np.isinf(best).any():
        bad = points[np.isinf(best)][0]
        raise NotOnBoundary(f"point {tuple(bad)} lies on no roundel boundary")
    return ids[by_rank[best.astype(int)]]


def tile(domain: Sequence[tuple[float, float]],
         R: float | Callable[[np.ndarray], float],
         kind: str = "pure",
         c: float | None = None,
         charge: float = 0.0,
         boundary_samples: int = 8,
         seed: int = 0,
         max_ratio: float = 4.0,
         verify: bool = True) -> Ensemble:
    """Tile a box with touching roundels on a square/cubic packing.

    ``R`` may be a constant radius or a callable radius field evaluated at
    cell centers; the callable case subdivides quadtree/octree style until
    each leaf's inscribed roundel respects the requested local radius,
    keeping the global radius ratio at most ``max_ratio``.  Raises
    :class:`InfeasibleCoverage` when the result leaves some sampled point
    farther than ``c`` local radii from every boundary.
    """
    dim = _check_kind(kind)
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    if len(domain) != dim:
        raise ValueError(f"{kind} tiling needs a {dim}-d domain")
    if not all(-math.inf < lo < hi < math.inf for lo, hi in domain):
        raise ValueError("domain bounds must be finite with positive extent "
                         f"on every axis, got {domain}")
    if boundary_samples < 1:
        raise ValueError(f"boundary_samples must be >= 1, got {boundary_samples}")
    if c is None:
        c = math.sqrt(dim)
    elif not math.isfinite(c):
        raise ValueError(f"coverage slack c must be finite, got {c}")

    if callable(R):
        cells = _refine_cells(domain, R, dim)
    else:
        if not 0 < R < math.inf:
            raise ValueError(f"radius must be finite and positive, got {R}")
        cells = _grid_cells(domain, float(R), dim)
    radii = np.array([h for _, h in cells])
    while radii.max() / radii.min() > max_ratio:
        cells = [child for center, h in cells for child in
                 (_split_cell(center, h, dim)
                  if h > max_ratio * radii.min() else [(center, h)])]
        radii = np.array([h for _, h in cells])

    centers = np.array([ctr for ctr, _ in cells], dtype=float)
    ids = np.arange(len(cells))
    pts = _boundary_samples(centers, radii, kind, boundary_samples, seed)
    ens = Ensemble(ids=ids, centers=centers, radii=radii,
                   charges=np.full(len(cells), charge, dtype=float),
                   regions=np.zeros(len(cells), dtype=int), kind=kind, c=c,
                   boundary=pts, owners=_owners_of(pts, centers, radii, ids),
                   boundary_regions=np.zeros(len(pts), dtype=int), domain=domain)
    if verify:
        report = verify_ensemble(ens)
        if report["max_overlap"] > _OVERLAP_TOL:
            raise InfeasibleCoverage(
                f"tiling overlaps by {report['max_overlap']:.3e}")
        if report["max_coverage_ratio"] > c:
            raise InfeasibleCoverage(
                f"coverage needs c >= {report['max_coverage_ratio']:.6f}, "
                f"got c = {c}")
    return ens


def _grid_cells(domain, R, dim):
    counts = [int(math.floor((hi - lo) / (2.0 * R) + 1e-9)) for lo, hi in domain]
    if min(counts) < 1:
        raise InfeasibleCoverage(
            f"a roundel of radius {R} does not fit in the domain {domain}")
    centers = _mesh([lo + R + 2.0 * R * np.arange(n)
                     for (lo, _), n in zip(domain, counts)])
    return [(tuple(ctr), R) for ctr in centers]


def _refine_cells(domain, radius_field, dim):
    sides = [hi - lo for lo, hi in domain]
    if max(sides) - min(sides) > 1e-9 * max(sides):
        raise ValueError("radius-field tilings require a square/cubic domain")
    root_center = np.array([(lo + hi) / 2.0 for lo, hi in domain])
    root_h = sides[0] / 2.0
    leaves: list[tuple[tuple, float]] = []
    stack = [(root_center, root_h, 0)]
    while stack:
        center, h, depth = stack.pop()
        want = float(radius_field(np.asarray(center)))
        if not 0 < want < math.inf:
            raise ValueError(f"radius field must be finite and positive, got {want}")
        if h <= want + 1e-12:
            leaves.append((tuple(center), h))
            continue
        if depth >= _MAX_DEPTH:
            raise InfeasibleCoverage(
                "radius field demands subdivision beyond the depth limit")
        stack.extend((np.asarray(ctr), hh, depth + 1)
                     for ctr, hh in _split_cell(center, h, dim))
    return leaves


def _split_cell(center, h, dim):
    center, half = np.asarray(center, dtype=float), h / 2.0
    return [(tuple(center + np.array([half if s else -half for s in signs])), half)
            for signs in np.ndindex(*(2,) * dim)]


def _mesh(axes) -> np.ndarray:
    """Every point of the grid spanned by ``axes``, one per row."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _box_samples(domain, samples_per_axis: int) -> np.ndarray:
    return _mesh([np.linspace(lo, hi, samples_per_axis) for lo, hi in domain])


def verify_ensemble(ensemble: Ensemble, samples_per_axis: int = 17) -> dict:
    """Measure the two tiling invariants.

    Returns ``max_overlap`` (positive means interiors intersect) and
    ``max_coverage_ratio`` (the least c that would cover the sampled box).
    """
    centers, radii = ensemble.centers, ensemble.radii
    clearance = _least(
        centers, centers, radii,
        lambda i, j, d: np.where(i == j, np.inf, d - (radii[i] + radii[j])),
        lambda far: far - (radii + radii.max()))
    # 0 - x rather than -x, so that a touching pair reads 0.0, not -0.0
    max_overlap = float((0.0 - clearance).max()) if len(centers) > 1 else 0.0
    ratio = _least(_box_samples(ensemble.domain, samples_per_axis), centers, radii,
                   lambda i, j, d: np.abs(d - radii[j]) / radii[j],
                   lambda far: far / radii.max() - 1.0)
    return {"max_overlap": max_overlap,
            "max_coverage_ratio": float(ratio.max(initial=0.0))}


def boundary_fill_distance(ensemble: Ensemble, samples_per_axis: int = 33) -> float:
    """Greatest distance from a sampled box point to the union of boundaries."""
    centers, radii = ensemble.centers, ensemble.radii
    gap = _least(_box_samples(ensemble.domain, samples_per_axis), centers, radii,
                 lambda i, j, d: np.abs(d - radii[j]),
                 lambda far: far - radii.max())
    return float(gap.max(initial=0.0))


def assign_boundary_point(point, candidates: Sequence[Roundel]) -> int:
    """Owner of a shared boundary point: lexicographically smallest center.

    The point must lie on the boundary of every candidate to 1e-9;
    ordering of the candidate list never affects the result.
    """
    if not candidates:
        raise ValueError("need at least one candidate roundel")
    point = tuple(float(p) for p in point)
    for r in candidates:
        if not abs(math.dist(point, r.center) - r.R) <= _BOUNDARY_TOL:  # NaN is off
            raise NotOnBoundary(
                f"point {point} is off the boundary of roundel {r.id}")
    return min(candidates, key=lambda r: r.center).id


def partition_regions(ensemble: Ensemble, regions_per_axis: int) -> Ensemble:
    """Split the ensemble into an axis-aligned grid of regions.

    Each roundel joins the region containing its center; boundary points
    follow their owning roundel's region.
    """
    if regions_per_axis < 1:
        raise ValueError("regions_per_axis must be >= 1")
    los = np.array([lo for lo, _ in ensemble.domain])
    his = np.array([hi for _, hi in ensemble.domain])
    frac = (ensemble.centers - los) / (his - los)
    cell = np.clip((frac * regions_per_axis).astype(int), 0, regions_per_axis - 1)
    flat = np.ravel_multi_index(cell.T, (regions_per_axis,) * len(los))
    ids = ensemble.ids
    by_id = np.argsort(ids)
    at = np.searchsorted(ids, ensemble.owners, sorter=by_id)
    owner_at = by_id[np.minimum(at, len(ids) - 1)]
    if not np.array_equal(ids[owner_at], ensemble.owners):
        raise KeyError("a boundary point's owner is not a roundel of the ensemble")
    return replace(ensemble, regions=flat, boundary_regions=flat[owner_at])


def count_interactions(T: float, R: float, kind: str) -> int:
    """Local interactions inside a box of side T tiled at radius R."""
    dim = _check_kind(kind)
    if not math.isfinite(T):
        raise ValueError(f"box side T must be finite, got {T}")
    if T <= 2.0 * R:
        raise ValueError("box side T must exceed one roundel diameter")
    return int(math.floor((T / (2.0 * R)) ** dim + 1e-9))


def total_charge(ensemble: Ensemble, region_id: int | None = None) -> float:
    """Sum of roundel charges, optionally restricted to one region."""
    charges = (ensemble.charges if region_id is None
               else ensemble.charges[ensemble.regions == region_id])
    # Python's left-to-right sum, which numpy's pairwise sum need not match
    return float(sum(charges.tolist()))


# ---------------------------------------------------------------------------
# Limit scaling of the bare variables
# ---------------------------------------------------------------------------

#: Expected log-log slopes against the roundel radius.
SCALING_EXPONENTS = {
    "mB": -1.0, "eB": -1.0, "eBa": -1.0, "f": 1.0,
    "A": 0.0, "rho": -2.0,
}


@dataclass(frozen=True)
class ScalingSweepRow:
    """Magnitudes of one radius step of the limit sweep."""

    R: float
    mB: float
    eB: float
    eBa: float
    f: float
    A: float
    rho: float
    nl: int


@dataclass(frozen=True)
class ScalingSweepResult:
    rows: tuple[ScalingSweepRow, ...]
    slopes: dict[str, PowerFit]
    expected: dict[str, float]
    closure: float  # worst relative deviation of the re-solved orbit radius
    low_confidence: bool


def scaling_sweep(template: BohrInput, radii: Sequence[float], T: float,
                  kind: str = "pure", reference_R: float = 1.0) -> ScalingSweepResult:
    """Shrink the roundels while the orbit equations stay exactly valid.

    The bare mass and charge are pinned to ``m*reference_R/R`` and
    ``e*reference_R/R``; the central charge then follows from the orbit
    condition ``|eB*f| = n² / sqrt((mB*R)² + n²)``, which keeps every row
    sub-critical and the orbital speed radius-independent.  Each row is
    re-solved through :func:`bohrqed.bohr.solve_bohr` and the recovered
    radius compared with the imposed one.
    """
    dim = _check_kind(kind)
    radii = sorted(float(R) for R in radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if any(R <= 0 for R in radii):
        raise ValueError("radii must be positive")
    n = template.n
    sign_e = math.copysign(1.0, template.e)
    rows = []
    closure = 0.0
    for R in radii:
        mB = template.m * reference_R / R
        eB = abs(template.e) * reference_R / R
        u = n * n / math.sqrt((mB * R) ** 2 + n * n)  # |eB * f|
        f = u / eB
        A = f / R
        rho = 3.0 * A / (4.0 * math.pi * R * R)
        nl = count_interactions(T, R, kind)
        eBa = nl * f
        state = solve_bohr(
            BohrInput(e=sign_e * eB, f=-sign_e * f, n=n, m=mB))
        closure = max(closure, abs(state.R - R) / R)
        rows.append(ScalingSweepRow(R=R, mB=mB, eB=eB, eBa=eBa, f=f,
                                    A=A, rho=rho, nl=nl))

    expected = dict(SCALING_EXPONENTS)
    expected["nl"] = -float(dim)
    expected["eBa"] = 1.0 - dim  # eBa = nl*f ~ R**-dim * R
    slopes = {}
    rv = np.array([r.R for r in rows])
    for name in expected:
        vals = np.array([float(getattr(r, name)) for r in rows])
        slopes[name] = fit_loglog(rv, vals)
    low = any(fit.low_confidence for fit in slopes.values())
    return ScalingSweepResult(rows=tuple(rows), slopes=slopes,
                              expected=expected, closure=closure,
                              low_confidence=low)
