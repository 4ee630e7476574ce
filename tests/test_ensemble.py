import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed.bohr import BohrInput, solve_bohr
from bohrqed.ensemble import (
    Ensemble,
    InfeasibleCoverage,
    NotOnBoundary,
    Roundel,
    _owners_of,
    assign_boundary_point,
    boundary_fill_distance,
    count_interactions,
    partition_regions,
    scaling_sweep,
    tile,
    total_charge,
    verify_ensemble,
)
from bohrqed.mspace import _boundary_samples

UNIT_SQUARE = [(0.0, 1.0), (0.0, 1.0)]
UNIT_CUBE = [(0.0, 1.0)] * 3


class TestTile:
    def test_unit_square_four_circles(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        centers = sorted(map(tuple, ens.centers.tolist()))
        assert centers == [(0.25, 0.25), (0.25, 0.75),
                           (0.75, 0.25), (0.75, 0.75)]

    def test_unit_cube_single_sphere(self):
        ens = tile(UNIT_CUBE, 0.5, kind="superposition")
        assert len(ens.ids) == 1
        assert ens.centers.tolist() == [[0.5, 0.5, 0.5]]

    def test_non_overlap(self):
        ens = tile(UNIT_SQUARE, 0.125, kind="pure")
        assert verify_ensemble(ens)["max_overlap"] <= 1e-12

    def test_coverage_within_default_c(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        stats = verify_ensemble(ens)
        assert stats["max_coverage_ratio"] <= math.sqrt(2.0)
        # centers alone force c >= 1
        assert stats["max_coverage_ratio"] >= 1.0 - 1e-9

    def test_infeasible_c(self):
        with pytest.raises(InfeasibleCoverage):
            tile(UNIT_SQUARE, 0.25, kind="pure", c=0.5)

    def test_radius_field_quadtree(self):
        field = lambda p: 0.08 + 0.2 * p[0]  # finer roundels near x1 = 0
        ens = tile(UNIT_SQUARE, field, kind="pure")
        radii = sorted(set(ens.radii.tolist()))
        assert len(radii) > 1
        assert max(radii) / min(radii) <= 4.0
        stats = verify_ensemble(ens)
        assert stats["max_overlap"] <= 1e-12
        assert stats["max_coverage_ratio"] <= ens.c

    def test_radius_wider_than_domain_is_infeasible(self):
        with pytest.raises(InfeasibleCoverage):
            tile([(0, 1)] * 2, 0.6)
        with pytest.raises(InfeasibleCoverage):
            tile([(0.0, 2.0), (0.0, 1.0)], 0.6)
        with pytest.raises(InfeasibleCoverage):
            tile(UNIT_CUBE, 0.75, kind="superposition")

    def test_radius_field_needs_square_domain(self):
        with pytest.raises(ValueError):
            tile([(0, 1), (0, 2)], lambda p: 0.2, kind="pure")

    @pytest.mark.parametrize(("domain", "R", "named"), [
        (UNIT_SQUARE, math.nan, "radius must be finite and positive, got nan"),
        (UNIT_SQUARE, math.inf, "radius must be finite and positive, got inf"),
        (UNIT_SQUARE, lambda p: math.nan,
         "radius field must be finite and positive, got nan"),
        ([(0.0, math.inf), (0.0, 1.0)], 0.25, "got ((0.0, inf), (0.0, 1.0))"),
        ([(0.0, 1.0), (math.nan, 1.0)], 0.25, "got ((0.0, 1.0), (nan, 1.0))"),
    ])
    def test_non_finite_input_named(self, domain, R, named):
        # int(nan) or int(inf) used to escape from the grid, and a NaN radius
        # field subdivided to the depth limit
        with pytest.raises(ValueError) as info:
            tile(domain, R)
        assert named in str(info.value)
        assert not isinstance(info.value, InfeasibleCoverage)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_c_named(self, c):
        # NaN used to be reported as InfeasibleCoverage, infinity accepted
        message = f"coverage slack c must be finite, got {c}"
        with pytest.raises(ValueError, match=message) as info:
            tile(UNIT_SQUARE, 0.25, c=c)
        assert not isinstance(info.value, InfeasibleCoverage)

    def test_needs_a_boundary_sample(self):
        # zero samples used to give an ensemble without a boundary set
        with pytest.raises(ValueError, match="boundary_samples must be >= 1, got 0"):
            tile(UNIT_SQUARE, 0.25, boundary_samples=0)

    def test_single_region_by_default(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        assert ens.ids.tolist() == [0, 1, 2, 3]
        assert ens.regions.tolist() == [0, 0, 0, 0]

    def test_boundary_points_sampled(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure", boundary_samples=8)
        assert len(ens.boundary) == 4 * 8
        for point, owner in zip(ens.boundary.tolist(), ens.owners.tolist()):
            d = math.dist(point, ens.centers[owner])
            assert abs(d - ens.radii[owner]) < 1e-9


class TestAssignment:
    def test_smaller_x1_wins(self):
        a = Roundel(id=0, center=(0.0, 0.0), R=1.0)
        b = Roundel(id=1, center=(2.0, 0.0), R=1.0)
        assert assign_boundary_point((1.0, 0.0), [a, b]) == 0
        assert assign_boundary_point((1.0, 0.0), [b, a]) == 0

    def test_x2_tiebreak(self):
        a = Roundel(id=0, center=(0.0, 0.0), R=1.0)
        b = Roundel(id=1, center=(0.0, 2.0), R=1.0)
        assert assign_boundary_point((0.0, 1.0), [b, a]) == 0

    def test_x3_tiebreak(self):
        a = Roundel(id=5, center=(0.0, 0.0, 0.0), R=1.0)
        b = Roundel(id=6, center=(0.0, 0.0, 2.0), R=1.0)
        assert assign_boundary_point((0.0, 0.0, 1.0), [b, a]) == 5

    def test_single_candidate(self):
        a = Roundel(id=3, center=(0.0, 0.0), R=1.0)
        assert assign_boundary_point((1.0, 0.0), [a]) == 3

    def test_not_on_boundary(self):
        a = Roundel(id=0, center=(0.0, 0.0), R=1.0)
        with pytest.raises(NotOnBoundary):
            assign_boundary_point((0.5, 0.0), [a])

    @pytest.mark.parametrize("point", [(math.nan, math.nan), (1.0, math.inf)])
    def test_non_finite_point_named(self, point):
        # a NaN point used to pass as on every boundary and be owned
        a = Roundel(id=4, center=(0.0, 0.0), R=1.0)
        with pytest.raises(NotOnBoundary, match=re.escape(
                f"point {point} is off the boundary of roundel 4")):
            assign_boundary_point(point, [a])

    @pytest.mark.parametrize(("center", "R", "named"), [
        ((0.0, 0.0), math.nan, "radius must be finite and positive, got nan"),
        ((0.0, 0.0), math.inf, "radius must be finite and positive, got inf"),
        ((0.0, 0.0), 0.0, "radius must be finite and positive, got 0.0"),
        ((math.nan, 0.0), 1.0, "center must be finite, got (nan, 0.0)"),
        ((0.0, 0.0, -math.inf), 1.0, "center must be finite, got (0.0, 0.0, -inf)"),
    ])
    def test_roundel_rejects_non_finite(self, center, R, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            Roundel(id=0, center=center, R=R)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            point = (1.0, 0.0, 0.0)
            cands = []
            for i in range(k):
                # every candidate passes through the shared point
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                R = rng.uniform(0.5, 2.0)
                center = np.array(point) - R * direction
                cands.append(Roundel(id=i, center=tuple(center), R=R))
            owner = assign_boundary_point(point, cands)
            for _ in range(5):
                perm = list(rng.permutation(k))
                assert assign_boundary_point(
                    point, [cands[j] for j in perm]) == owner


class TestRegions:
    def test_one_region(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        out = partition_regions(ens, 1)
        assert set(out.regions.tolist()) == {0}

    def test_two_by_two(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        out = partition_regions(ens, 2)
        regions, members = np.unique(out.regions, return_counts=True)
        assert len(regions) == 4
        assert members.tolist() == [1, 1, 1, 1]

    def test_every_roundel_exactly_once(self):
        ens = tile(UNIT_SQUARE, 0.125, kind="pure")
        out = partition_regions(ens, 2)
        assert out.ids.tolist() == ens.ids.tolist()
        regions, members = np.unique(out.regions, return_counts=True)
        assert regions.tolist() == [0, 1, 2, 3]
        assert members.sum() == len(ens.ids)

    def test_boundary_points_follow_owner(self):
        ens = partition_regions(tile(UNIT_SQUARE, 0.25, kind="pure"), 2)
        for owner, region in zip(ens.owners.tolist(),
                                 ens.boundary_regions.tolist()):
            assert region == ens.region_of(owner)


class TestCounts:
    def test_pure_count(self):
        assert count_interactions(2.0, 0.5, "pure") == 4

    def test_superposition_count(self):
        assert count_interactions(2.0, 0.5, "superposition") == 8

    def test_fine_count(self):
        assert count_interactions(1.0, 0.05, "pure") == 100

    def test_requires_room(self):
        with pytest.raises(ValueError):
            count_interactions(1.0, 0.5, "pure")

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_non_finite_side_named(self, T):
        # NaN used to fail in int(nan), +inf to overflow in int(inf)
        with pytest.raises(ValueError, match=f"box side T must be finite, got {T}"):
            count_interactions(T, 0.25, "pure")


class TestTotalCharge:
    def test_uniform_sum(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure", charge=0.1)
        assert total_charge(ens) == pytest.approx(0.4, rel=1e-12)

    def test_matches_interaction_count(self):
        ens = tile([(0.0, 2.0), (0.0, 2.0)], 0.25, kind="pure", charge=0.3)
        nl = count_interactions(2.0, 0.25, "pure")
        assert total_charge(ens) == pytest.approx(nl * 0.3, rel=1e-12)

    def test_missing_region_contributes_zero(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure", charge=0.1)
        assert total_charge(ens, region_id=99) == 0.0


def test_boundary_set_fills_domain():
    # halving the radius halves the worst distance to a boundary
    dists = []
    for k in range(5):
        ens = tile(UNIT_SQUARE, 0.25 / 2**k, kind="pure",
                   boundary_samples=4, verify=False)
        dists.append(boundary_fill_distance(ens))
    assert all(b < a - 1e-9 for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.02


class TestScalingSweep:
    def test_expected_exponents(self):
        template = BohrInput(e=1.0, f=-0.01, n=1, m=1.0)
        radii = np.geomspace(1e-3, 1e-1, 9)
        res = scaling_sweep(template, radii, T=10.0, kind="pure")
        for name, expected in res.expected.items():
            assert res.slopes[name].slope == pytest.approx(
                expected, abs=0.02), name
        assert not res.low_confidence

    def test_superposition_expected_exponents(self):
        template = BohrInput(e=1.0, f=-0.01, n=1, m=1.0)
        radii = np.geomspace(1e-3, 1e-1, 9)
        res = scaling_sweep(template, radii, T=10.0, kind="superposition")
        for name, expected in res.expected.items():
            assert res.slopes[name].slope == pytest.approx(
                expected, abs=0.02), name
        assert not res.low_confidence

    def test_superposition_interaction_slope(self):
        template = BohrInput(e=1.0, f=-0.01, n=1, m=1.0)
        radii = np.geomspace(1e-3, 1e-1, 7)
        res = scaling_sweep(template, radii, T=10.0, kind="superposition")
        assert res.slopes["nl"].slope == pytest.approx(-3.0, abs=0.02)

    def test_orbit_equations_stay_valid(self):
        template = BohrInput(e=1.0, f=-0.01, n=2, m=0.5)
        res = scaling_sweep(template, np.geomspace(1e-3, 1e-1, 5), T=10.0)
        assert res.closure < 1e-12

    def test_speed_is_radius_independent(self):
        template = BohrInput(e=1.0, f=-0.01, n=1, m=1.0)
        res = scaling_sweep(template, np.geomspace(1e-3, 1e-1, 5), T=10.0)
        speeds = [solve_bohr(BohrInput(e=r.eB, f=-r.f, n=1, m=r.mB)).v
                  for r in res.rows]
        assert np.ptp(speeds) < 1e-12

    def test_two_points_flagged(self):
        template = BohrInput(e=1.0, f=-0.01, n=1, m=1.0)
        res = scaling_sweep(template, [0.01, 0.1], T=10.0)
        assert res.low_confidence

    def test_rows_all_positive(self):
        template = BohrInput(e=-1.0, f=0.01, n=1, m=1.0)
        res = scaling_sweep(template, np.geomspace(1e-2, 1e-1, 5), T=10.0)
        for row in res.rows:
            for name in ("R", "mB", "eB", "eBa", "f", "A", "rho", "nl"):
                assert getattr(row, name) > 0


def test_randomized_tilings_hold_invariants():
    rng = np.random.default_rng(61)
    for _ in range(25):
        kind = rng.choice(["pure", "superposition"])
        dim = 2 if kind == "pure" else 3
        side = float(rng.choice([1.0, 2.0]))
        k = int(rng.integers(1, 4 if dim == 3 else 5))
        R = side / (2.0 * k)
        ens = tile([(0.0, side)] * dim, R, kind=kind, boundary_samples=4)
        stats = verify_ensemble(ens, samples_per_axis=9)
        assert stats["max_overlap"] <= 1e-12
        assert stats["max_coverage_ratio"] <= ens.c


# ---------------------------------------------------------------------------
# The cell-list geometry against the all-pairs search it replaced
# ---------------------------------------------------------------------------

def _all_pairs_owners(points, roundels, chunk=2048):
    centers = np.array([r.center for r in roundels])
    radii = np.array([r.R for r in roundels])
    ids = np.array([r.id for r in roundels])
    order = np.lexsort(centers.T[::-1])
    ranks = np.empty(len(roundels), dtype=int)
    ranks[order] = np.arange(len(roundels))
    owners = np.empty(len(points), dtype=int)
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        d = np.sqrt(np.sum((block[:, None, :] - centers[None, :, :]) ** 2,
                           axis=-1))
        on = np.abs(d - radii[None, :]) <= 1e-9
        assert on.any(axis=1).all()
        ranked = np.where(on, ranks[None, :], np.iinfo(int).max)
        owners[start:start + chunk] = ids[np.argmin(ranked, axis=1)]
    return owners


def _box_points(domain, samples_per_axis):
    axes = [np.linspace(lo, hi, samples_per_axis) for lo, hi in domain]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _roundels(ensemble):
    """The ``Roundel`` tuple ensembles used to hold, rebuilt from the arrays."""
    return tuple(Roundel(id=i, center=tuple(c), R=R) for i, c, R in zip(
        ensemble.ids.tolist(), ensemble.centers.tolist(), ensemble.radii.tolist()))


def _all_pairs_verify(ensemble, samples_per_axis=17, chunk=1024):
    roundels = _roundels(ensemble)
    centers = np.array([r.center for r in roundels])
    radii = np.array([r.R for r in roundels])
    n = len(centers)
    max_overlap = -math.inf
    for start in range(0, n, chunk):
        cb, rb = centers[start:start + chunk], radii[start:start + chunk]
        dist = np.sqrt(np.sum((cb[:, None, :] - centers[None, :, :]) ** 2,
                              axis=-1))
        gap = (rb[:, None] + radii[None, :]) - dist
        rows = np.arange(start, min(start + chunk, n))
        gap[rows - start, rows] = -np.inf
        max_overlap = max(max_overlap, float(gap.max()))
    if n == 1:
        max_overlap = 0.0
    pts = _box_points(ensemble.domain, samples_per_axis)
    max_cov = 0.0
    for start in range(0, len(pts), chunk):
        block = pts[start:start + chunk]
        d = np.sqrt(np.sum((block[:, None, :] - centers[None, :, :]) ** 2,
                           axis=-1))
        ratio = np.abs(d - radii[None, :]) / radii[None, :]
        max_cov = max(max_cov, float(ratio.min(axis=1).max()))
    return {"max_overlap": max_overlap, "max_coverage_ratio": max_cov}


def _all_pairs_fill(ensemble, samples_per_axis=33):
    roundels = _roundels(ensemble)
    centers = np.array([r.center for r in roundels])
    radii = np.array([r.R for r in roundels])
    pts = _box_points(ensemble.domain, samples_per_axis)
    d = np.sqrt(np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=-1))
    return float(np.abs(d - radii[None, :]).min(axis=1).max())


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_matches_all_pairs(ens, samples_per_axis=17):
    points = ens.boundary
    if len(points):
        assert (ens.owners.tolist()
                == _all_pairs_owners(points, _roundels(ens)).tolist())
    got = verify_ensemble(ens, samples_per_axis)
    want = _all_pairs_verify(ens, samples_per_axis)
    assert got.keys() == want.keys()
    for key in want:
        assert _same_bits(got[key], want[key]), (key, got[key], want[key])
    assert _same_bits(boundary_fill_distance(ens, samples_per_axis),
                      _all_pairs_fill(ens, samples_per_axis))


class TestCellListOracle:
    @pytest.mark.parametrize("kind,R", [
        ("pure", 0.25), ("pure", 0.05), ("pure", 0.02),
        ("superposition", 0.25), ("superposition", 1.0 / 12.0)])
    def test_grid_tilings(self, kind, R):
        dim = 2 if kind == "pure" else 3
        assert_matches_all_pairs(tile([(0.0, 1.0)] * dim, R, kind=kind, seed=3,
                                      verify=False))

    @pytest.mark.parametrize("R", [0.007, 0.3, 0.45])
    def test_non_dividing_radii(self, R):
        # strips the roundels leave uncovered along the far walls; the one
        # sample per roundel sits where it touches its right neighbour
        assert_matches_all_pairs(tile(UNIT_SQUARE, R, boundary_samples=1,
                                      verify=False))

    def test_non_dividing_superposition(self):
        assert_matches_all_pairs(tile(UNIT_CUBE, 0.07, kind="superposition",
                                      verify=False), samples_per_axis=9)

    @pytest.mark.parametrize("field", [
        lambda p: 0.08 + 0.2 * p[0],
        lambda p: 0.01 + 0.3 * p[0] * p[1],  # clipped to max_ratio = 4
    ])
    def test_quadtree(self, field):
        ens = tile(UNIT_SQUARE, field, verify=False)
        radii = set(ens.radii.tolist())
        assert 1 < max(radii) / min(radii) <= 4.0
        assert_matches_all_pairs(ens)

    def test_octree(self):
        ens = tile(UNIT_CUBE, lambda p: 0.05 + 0.2 * p[2], kind="superposition",
                   seed=2, verify=False)
        assert_matches_all_pairs(ens, samples_per_axis=9)

    @pytest.mark.parametrize("kind", ["pure", "superposition"])
    def test_single_roundel(self, kind):
        dim = 2 if kind == "pure" else 3
        ens = tile([(0.0, 1.0)] * dim, 0.5, kind=kind, verify=False)
        assert len(ens.ids) == 1
        assert_matches_all_pairs(ens)

    def test_partitioned(self):
        ens = partition_regions(tile(UNIT_SQUARE, 0.03, verify=False), 3)
        assert len(set(ens.regions.tolist())) == 9
        assert_matches_all_pairs(ens)

    def test_off_origin_rectangle(self):
        assert_matches_all_pairs(tile([(-3.0, -1.0), (2.0, 4.5)], 0.13,
                                      verify=False))

    @given(kind=st.sampled_from(["pure", "superposition"]),
           side=st.floats(0.1, 10.0),
           per_axis=st.integers(1, 10),
           shrink=st.floats(0.6, 1.0),
           seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_random_radii_and_sides(self, kind, side, per_axis, shrink, seed):
        dim = 2 if kind == "pure" else 3
        if dim == 3:
            per_axis = min(per_axis, 5)
        R = side / (2.0 * per_axis) * shrink
        ens = tile([(0.0, side)] * dim, R, kind=kind, seed=seed,
                   boundary_samples=4, verify=False)
        assert_matches_all_pairs(ens, samples_per_axis=9)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40),
           dim=st.sampled_from([2, 3]), spread=st.floats(0.5, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_scattered_roundels(self, seed, count, dim, spread):
        # overlapping, isolated and far-flung roundels: most sample points
        # have no candidate nearby, so the search widens to every roundel
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, spread, (count, dim))
        radii = rng.uniform(0.02, 1.0, count)
        ens = Ensemble(ids=np.arange(count), centers=centers, radii=radii,
                       charges=np.zeros(count), regions=np.zeros(count, dtype=int),
                       kind="pure" if dim == 2 else "superposition", c=1.0,
                       boundary=np.empty((0, dim)), owners=np.empty(0, dtype=int),
                       boundary_regions=np.empty(0, dtype=int),
                       domain=((0.0, spread),) * dim)
        assert_matches_all_pairs(ens, samples_per_axis=7)
        points = _boundary_samples(centers, radii, ens.kind, 6, seed % 7)
        assert (_owners_of(points, centers, radii, ens.ids).tolist()
                == _all_pairs_owners(points, _roundels(ens)).tolist())


# ---------------------------------------------------------------------------
# The boundary arrays against the per-point objects they replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BoundaryPoint:
    point: tuple[float, ...]
    owner: int
    region: int


def _ref_boundary(roundels, kind, samples, seed):
    """The tuple ``tile`` used to build: one object per sample, region 0."""
    centers = np.array([r.center for r in roundels], dtype=float)
    radii = np.array([r.R for r in roundels], dtype=float)
    ids = np.array([r.id for r in roundels])
    pts = _boundary_samples(centers, radii, kind, samples, seed)
    return tuple(_BoundaryPoint(point=tuple(p), owner=o, region=0) for p, o
                 in zip(pts.tolist(), _owners_of(pts, centers, radii, ids).tolist()))


def _ref_assignment(roundels, domain, regions_per_axis):
    """Roundel id -> region id, the way ``partition_regions`` grouped them."""
    los = np.array([lo for lo, _ in domain])
    his = np.array([hi for _, hi in domain])
    frac = (np.array([r.center for r in roundels]) - los) / (his - los)
    cell = np.clip((frac * regions_per_axis).astype(int), 0, regions_per_axis - 1)
    flat = np.ravel_multi_index(cell.T, (regions_per_axis,) * len(los))
    return dict(zip((r.id for r in roundels), flat.tolist()))


def _ref_partition(roundels, domain, boundary, regions_per_axis):
    """``partition_regions``' per-object rebuild through an id -> region dict."""
    assignment = _ref_assignment(roundels, domain, regions_per_axis)
    return tuple(_BoundaryPoint(bp.point, bp.owner, assignment[bp.owner])
                 for bp in boundary)


def _relabelled(grid, seed):
    """``grid``'s roundels under ids that are not a range, with random charges."""
    rng = np.random.default_rng(seed)
    ids = 1000 - 7 * rng.permutation(len(grid.ids))
    pts = _boundary_samples(grid.centers, grid.radii, grid.kind, 4, 1)
    return Ensemble(ids=ids, centers=grid.centers, radii=grid.radii,
                    charges=rng.uniform(-1.0, 1.0, len(ids)),
                    regions=np.zeros(len(ids), dtype=int), kind=grid.kind, c=1.0,
                    boundary=pts,
                    owners=_owners_of(pts, grid.centers, grid.radii, ids),
                    boundary_regions=np.zeros(len(pts), dtype=int),
                    domain=grid.domain)


def _as_objects(ens):
    return tuple(_BoundaryPoint(tuple(p), o, g) for p, o, g in zip(
        ens.boundary.tolist(), ens.owners.tolist(), ens.boundary_regions.tolist()))


class TestBoundaryArrayOracle:
    @pytest.mark.parametrize("kind,R,samples,seed", [
        ("pure", 0.25, 8, 0), ("pure", 0.05, 5, 3), ("pure", 0.3, 1, 0),
        ("superposition", 0.25, 8, 1), ("superposition", 1.0 / 12.0, 6, 4)])
    @pytest.mark.parametrize("regions", [1, 2, 3])
    def test_grid_tilings(self, kind, R, samples, seed, regions):
        dim = 2 if kind == "pure" else 3
        ens = tile([(0.0, 1.0)] * dim, R, kind=kind, boundary_samples=samples,
                   seed=seed, verify=False)
        want = _ref_boundary(_roundels(ens), kind, samples, seed)
        assert _as_objects(ens) == want
        if regions > 1:
            parted = partition_regions(ens, regions)
            assert _as_objects(parted) == _ref_partition(
                _roundels(ens), ens.domain, want, regions)
            assert np.shares_memory(parted.boundary, ens.boundary)

    def test_quadtree(self):
        ens = tile(UNIT_SQUARE, lambda p: 0.05 + 0.2 * p[0], boundary_samples=4,
                   seed=2, verify=False)
        want = _ref_boundary(_roundels(ens), "pure", 4, 2)
        assert _as_objects(ens) == want
        assert _as_objects(partition_regions(ens, 4)) == _ref_partition(
            _roundels(ens), ens.domain, want, 4)

    @pytest.mark.parametrize("kind", ["pure", "superposition"])
    def test_ids_not_a_range(self, kind):
        # owner -> region must look ids up, not use them as indices
        dim = 2 if kind == "pure" else 3
        grid = tile([(0.0, 1.0)] * dim, 0.125, kind=kind, verify=False)
        ens = _relabelled(grid, seed=5)
        roundels = _roundels(ens)
        boundary = _ref_boundary(roundels, kind, 4, 1)
        assert _as_objects(ens) == boundary
        assert _as_objects(partition_regions(ens, 3)) == _ref_partition(
            roundels, grid.domain, boundary, 3)

    def test_unknown_owner_raises(self):
        ens = tile(UNIT_SQUARE, 0.25, verify=False)
        for bad in (4, -1, 99):
            owners = ens.owners.copy()
            owners[3] = bad
            with pytest.raises(KeyError):
                partition_regions(replace(ens, owners=owners), 2)

    def test_arrays_are_read_only(self):
        ens = partition_regions(tile(UNIT_SQUARE, 0.25), 2)
        for values in (ens.ids, ens.centers, ens.radii, ens.charges, ens.regions,
                       ens.boundary, ens.owners, ens.boundary_regions):
            with pytest.raises(ValueError):
                values[0] = 1


# ---------------------------------------------------------------------------
# The roundel arrays against the Region objects they replaced
# ---------------------------------------------------------------------------

def _ref_regions(roundels, assignment):
    """The ``Region`` tuple as ``(id, roundel_ids)`` pairs, sorted by id."""
    grouped: dict[int, set[int]] = {}
    for r in roundels:
        grouped.setdefault(assignment[r.id], set()).add(r.id)
    return tuple((region, frozenset(members))
                 for region, members in sorted(grouped.items()))


def _ref_region_of(regions, roundel_id):
    for region_id, members in regions:
        if roundel_id in members:
            return region_id
    raise KeyError(f"roundel {roundel_id} not in any region")


def _ref_total_charge(roundels, charges, regions, region_id=None):
    """The loop over ``Roundel.f`` charges, with ``charges[i]`` for ``roundels[i].f``."""
    if region_id is None:
        return float(sum(charges))
    for rid, members in regions:
        if rid == region_id:
            return float(sum(f for r, f in zip(roundels, charges) if r.id in members))
    return 0.0


_NOT_FINITE = "roundel centers must be finite, radii finite and positive"


class TestRegionArrayOracle:
    @pytest.mark.parametrize("kind,R,per_axis", [
        ("pure", 0.125, 1), ("pure", 0.125, 2), ("pure", 0.05, 3),
        ("superposition", 0.125, 3)])
    def test_ids_not_a_range(self, kind, R, per_axis):
        dim = 2 if kind == "pure" else 3
        ens = partition_regions(_relabelled(
            tile([(0.0, 1.0)] * dim, R, kind=kind, verify=False), seed=11), per_axis)
        roundels = _roundels(ens)
        regions = _ref_regions(roundels, _ref_assignment(roundels, ens.domain, per_axis))
        for r in roundels:
            assert ens.region_of(r.id) == _ref_region_of(regions, r.id)
        for missing in (1001, 0, -7):
            with pytest.raises(KeyError):
                ens.region_of(missing)
        for region_id in (None, *range(per_axis**dim), per_axis**dim + 3):
            assert (total_charge(ens, region_id)
                    == _ref_total_charge(roundels, ens.charges.tolist(), regions,
                                         region_id))

    @pytest.mark.parametrize(("change", "named"), [
        (dict(radii=np.full(3, 0.25)), "mismatch centers (4, 2)"),
        (dict(charges=np.zeros(5)), "mismatch centers (4, 2)"),
        (dict(regions=np.zeros((4, 1), dtype=int)), "mismatch centers (4, 2)"),
        (dict(ids=np.arange(3)), "mismatch centers (4, 2)"),
        (dict(centers=np.full((4, 3), 0.5)), "pure roundel arrays {(4,)} mismatch"),
        (dict(kind="hexagonal"), "unknown ensemble kind 'hexagonal'"),
        (dict(radii=[0.25, 0.0, 0.25, 0.25]), _NOT_FINITE),
        (dict(radii=[0.25, 0.25, -0.25, 0.25]), _NOT_FINITE),
        (dict(radii=[0.25, 0.25, 0.25, math.nan]), _NOT_FINITE),
        (dict(radii=[math.inf] * 4), _NOT_FINITE),
        (dict(centers=[[0.25, 0.25], [math.nan, 0.75], [0.75, 0.25], [0.75, 0.75]]),
         _NOT_FINITE),
    ])
    def test_ensemble_rejects(self, change, named):
        ens = tile(UNIT_SQUARE, 0.25, verify=False)
        with pytest.raises(ValueError, match=re.escape(named)):
            replace(ens, **change)
