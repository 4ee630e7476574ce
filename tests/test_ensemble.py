import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed.bohr import BohrInput, solve_bohr
from bohrqed.ensemble import (
    Ensemble,
    InfeasibleCoverage,
    NotOnBoundary,
    Region,
    Roundel,
    _boundary_samples,
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

UNIT_SQUARE = [(0.0, 1.0), (0.0, 1.0)]
UNIT_CUBE = [(0.0, 1.0)] * 3


class TestTile:
    def test_unit_square_four_circles(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        centers = sorted(r.center for r in ens.roundels)
        assert centers == [(0.25, 0.25), (0.25, 0.75),
                           (0.75, 0.25), (0.75, 0.75)]

    def test_unit_cube_single_sphere(self):
        ens = tile(UNIT_CUBE, 0.5, kind="superposition")
        assert len(ens.roundels) == 1
        assert ens.roundels[0].center == (0.5, 0.5, 0.5)

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
        radii = sorted({r.R for r in ens.roundels})
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
        assert len(ens.regions) == 1
        assert ens.regions[0].roundel_ids == frozenset(range(4))

    def test_boundary_points_sampled(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure", boundary_samples=8)
        assert len(ens.boundary) == 4 * 8
        for point, owner in zip(ens.boundary.tolist(), ens.owners.tolist()):
            r = ens.roundels[owner]
            d = math.dist(point, r.center)
            assert abs(d - r.R) < 1e-9


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
        assert len(out.regions) == 1

    def test_two_by_two(self):
        ens = tile(UNIT_SQUARE, 0.25, kind="pure")
        out = partition_regions(ens, 2)
        assert len(out.regions) == 4
        for region in out.regions:
            assert len(region.roundel_ids) == 1

    def test_every_roundel_exactly_once(self):
        ens = tile(UNIT_SQUARE, 0.125, kind="pure")
        out = partition_regions(ens, 2)
        seen = [rid for reg in out.regions for rid in reg.roundel_ids]
        assert sorted(seen) == [r.id for r in ens.roundels]

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


def _all_pairs_verify(ensemble, samples_per_axis=17, chunk=1024):
    centers = np.array([r.center for r in ensemble.roundels])
    radii = np.array([r.R for r in ensemble.roundels])
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
    centers = np.array([r.center for r in ensemble.roundels])
    radii = np.array([r.R for r in ensemble.roundels])
    pts = _box_points(ensemble.domain, samples_per_axis)
    d = np.sqrt(np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=-1))
    return float(np.abs(d - radii[None, :]).min(axis=1).max())


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_matches_all_pairs(ens, samples_per_axis=17):
    points = ens.boundary
    if len(points):
        assert (ens.owners.tolist()
                == _all_pairs_owners(points, ens.roundels).tolist())
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
        radii = {r.R for r in ens.roundels}
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
        assert len(ens.roundels) == 1
        assert_matches_all_pairs(ens)

    def test_partitioned(self):
        ens = partition_regions(tile(UNIT_SQUARE, 0.03, verify=False), 3)
        assert len(ens.regions) == 9
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
        roundels = tuple(Roundel(id=i, center=tuple(c), R=float(R))
                         for i, (c, R) in enumerate(zip(centers, radii)))
        ens = Ensemble(roundels=roundels,
                       regions=(Region(id=0, roundel_ids=frozenset(range(count))),),
                       kind="pure" if dim == 2 else "superposition", c=1.0,
                       boundary=np.empty((0, dim)), owners=np.empty(0, dtype=int),
                       boundary_regions=np.empty(0, dtype=int),
                       domain=((0.0, spread),) * dim)
        assert_matches_all_pairs(ens, samples_per_axis=7)
        points = _boundary_samples(centers, radii, ens.kind, 6, seed % 7)
        assert (_owners_of(points, roundels).tolist()
                == _all_pairs_owners(points, roundels).tolist())


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
    pts = _boundary_samples(centers, radii, kind, samples, seed)
    return tuple(_BoundaryPoint(point=tuple(p), owner=o, region=0) for p, o
                 in zip(pts.tolist(), _owners_of(pts, roundels).tolist()))


def _ref_partition(roundels, domain, boundary, regions_per_axis):
    """``partition_regions``' per-object rebuild through an id -> region dict."""
    los = np.array([lo for lo, _ in domain])
    his = np.array([hi for _, hi in domain])
    frac = (np.array([r.center for r in roundels]) - los) / (his - los)
    cell = np.clip((frac * regions_per_axis).astype(int), 0, regions_per_axis - 1)
    flat = np.ravel_multi_index(cell.T, (regions_per_axis,) * len(los))
    assignment = dict(zip((r.id for r in roundels), flat.tolist()))
    return tuple(_BoundaryPoint(bp.point, bp.owner, assignment[bp.owner])
                 for bp in boundary)


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
        want = _ref_boundary(ens.roundels, kind, samples, seed)
        assert _as_objects(ens) == want
        if regions > 1:
            parted = partition_regions(ens, regions)
            assert _as_objects(parted) == _ref_partition(
                ens.roundels, ens.domain, want, regions)
            assert np.shares_memory(parted.boundary, ens.boundary)

    def test_quadtree(self):
        ens = tile(UNIT_SQUARE, lambda p: 0.05 + 0.2 * p[0], boundary_samples=4,
                   seed=2, verify=False)
        want = _ref_boundary(ens.roundels, "pure", 4, 2)
        assert _as_objects(ens) == want
        assert _as_objects(partition_regions(ens, 4)) == _ref_partition(
            ens.roundels, ens.domain, want, 4)

    @pytest.mark.parametrize("kind", ["pure", "superposition"])
    def test_ids_not_a_range(self, kind):
        # owner -> region must look ids up, not use them as indices
        dim = 2 if kind == "pure" else 3
        grid = tile([(0.0, 1.0)] * dim, 0.125, kind=kind, verify=False)
        ids = 1000 - 7 * np.random.default_rng(5).permutation(len(grid.roundels))
        roundels = tuple(Roundel(id=int(i), center=r.center, R=r.R)
                         for i, r in zip(ids, grid.roundels))
        boundary = _ref_boundary(roundels, kind, 4, 1)
        pts = np.array([bp.point for bp in boundary])
        ens = Ensemble(roundels=roundels,
                       regions=(Region(id=0, roundel_ids=frozenset(ids.tolist())),),
                       kind=kind, c=1.0, boundary=pts,
                       owners=_owners_of(pts, roundels),
                       boundary_regions=np.zeros(len(pts), dtype=int),
                       domain=grid.domain)
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
        for values in (ens.boundary, ens.owners, ens.boundary_regions):
            with pytest.raises(ValueError):
                values[0] = 1
