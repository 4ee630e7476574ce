import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed.mspace import (
    TWO_PI,
    LPoint,
    MPoint,
    RoundelSpec,
    _cartesian_lpoint,
    boundary_points,
    l_to_m,
    m_to_l,
)
from reference_orbit import map_potential


class TestBijection:
    def test_fixed_point_at_r_equals_R(self):
        p = LPoint(x0=0.0, r=2.0, theta=1.1, x3=0.0)
        q = l_to_m(p, R=2.0)
        assert q.s == pytest.approx(p.r * p.theta)  # arcs coincide when r = R

    def test_zero_angle(self):
        p = LPoint(x0=0.0, r=3.0, theta=0.0, x3=1.0)
        assert l_to_m(p, R=1.5).s == 0.0

    def test_r_twice_R(self):
        p = LPoint(x0=0.0, r=2.0, theta=math.pi / 2, x3=0.0)
        q = l_to_m(p, R=1.0)
        assert q.s == pytest.approx(math.pi / 2)      # s = R*theta
        assert p.r * p.theta == pytest.approx(math.pi)  # s' = r*theta = 2 s

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10_000):
            p = LPoint(x0=rng.normal(), r=rng.uniform(0, 10),
                       theta=rng.uniform(0, 2 * math.pi), x3=rng.normal())
            R = rng.uniform(0.1, 5.0)
            back = m_to_l(l_to_m(p, R), R)
            worst = max(worst, abs(back.theta - p.theta), abs(back.r - p.r),
                        abs(back.x0 - p.x0), abs(back.x3 - p.x3))
        assert worst < 1e-14

    def test_near_full_turn(self):
        R, eps = 2.0, 1e-6
        q = MPoint(x0=0.0, s=2 * math.pi * R - eps, r=1.0, x3=0.0)
        assert m_to_l(q, R).theta == pytest.approx(2 * math.pi - eps / R)

    def test_multi_turn_metadata(self):
        R = 1.0
        q = MPoint(x0=0.0, s=2 * math.pi * R + 0.5, r=1.0, x3=0.0)
        p = m_to_l(q, R)
        assert p.turns == 1
        assert p.theta == pytest.approx(0.5)

    def test_invalid_R(self):
        with pytest.raises(ValueError):
            l_to_m(LPoint(0, 1, 0, 0), R=0.0)

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    def test_non_finite_R_named(self, R):
        # l_to_m gave s = nan and m_to_l read s/inf as theta = 0
        named = f"curve parameter R must be finite and positive, got {R}"
        with pytest.raises(ValueError, match=named):
            l_to_m(LPoint(0, 1, 0.5, 0), R)
        with pytest.raises(ValueError, match=named):
            m_to_l(MPoint(0, 0.5, 1, 0), R)
        with pytest.raises(ValueError, match=named):
            map_potential(1.0, 1.0, R)

    @pytest.mark.parametrize("fields", [
        dict(r=math.nan), dict(theta=math.nan), dict(theta=math.inf),
        dict(x0=-math.inf), dict(x3=math.nan)])
    def test_non_finite_l_point_named(self, fields):
        # r = nan was accepted; theta = nan failed in int(), theta = inf overflowed
        values = {"x0": 0.0, "r": 1.0, "theta": 0.5, "x3": 0.0, **fields}
        named = ", ".join(f"{k}={v}" for k, v in values.items())
        with pytest.raises(ValueError, match=re.escape(
                f"L coordinates must be finite, got LPoint({named}, turns=0)")):
            LPoint(**values)

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_m_point_named(self, s):
        with pytest.raises(ValueError, match=re.escape(
                f"M coordinates must be finite, got MPoint(x0=0.0, s={s}, r=1.0")):
            MPoint(x0=0.0, s=s, r=1.0, x3=0.0)


class TestPotentialMap:
    def test_r_equals_R(self):
        assert map_potential(3.7, r=2.0, R=2.0) == 3.7

    def test_coulomb_boundary_constancy(self):
        # A = |f|/r in L maps to the constant |f|/R in M, whatever r is
        f, R = 0.25, 1.7
        for r in (0.3, 1.0, 1.7, 4.2):
            assert map_potential(f / r, r, R) == pytest.approx(f / R, rel=1e-15)

    def test_r_zero(self):
        assert map_potential(123.0, r=0.0, R=1.0) == 0.0

    @pytest.mark.parametrize("A_L,r", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_input_named(self, A_L, r):
        with pytest.raises(ValueError, match=re.escape(
                f"potential and radius must be finite, got {A_L}, {r}")):
            map_potential(A_L, r, 1.0)


class TestBoundaryPoints:
    def test_pure_four_points(self):
        spec = RoundelSpec(center=LPoint(0, 0, 0, 0), R=1.0, kind="pure")
        pts = boundary_points(spec, 4)
        angles = [p.theta for p in pts]
        assert angles == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
        for p in pts:
            assert p.r == pytest.approx(1.0)

    def test_single_point_convention(self):
        spec = RoundelSpec(center=LPoint(0, 0, 0, 0), R=2.0, kind="pure")
        (p,) = boundary_points(spec, 1)
        assert p.theta == 0.0 and p.r == pytest.approx(2.0)

    def test_pure_keeps_plane(self):
        center = LPoint(x0=0.0, r=1.0, theta=0.4, x3=2.5)
        pts = boundary_points(RoundelSpec(center=center, R=0.5), 16)
        for p in pts:
            assert p.x3 == center.x3

    @pytest.mark.parametrize("count", [1, 7, 50, 333])
    def test_sphere_membership(self, count):
        center = LPoint(x0=0.0, r=2.0, theta=1.0, x3=-1.0)
        spec = RoundelSpec(center=center, R=0.75, kind="superposition")
        c = center.to_cartesian()
        for p in boundary_points(spec, count, seed=4):
            assert np.linalg.norm(p.to_cartesian() - c) == pytest.approx(
                0.75, abs=1e-12)

    def test_sphere_spans_all_axes(self):
        spec = RoundelSpec(center=LPoint(0, 0, 0, 0), R=1.0,
                           kind="superposition")
        xyz = np.array([p.to_cartesian() for p in boundary_points(spec, 64)])
        assert np.ptp(xyz, axis=0).min() > 0.5

    def test_seed_determinism(self):
        spec = RoundelSpec(center=LPoint(0, 0, 0, 0), R=1.0,
                           kind="superposition")
        a = boundary_points(spec, 32, seed=9)
        b = boundary_points(spec, 32, seed=9)
        c = boundary_points(spec, 32, seed=10)
        assert a == b
        assert a != c

    def test_count_validation(self):
        spec = RoundelSpec(center=LPoint(0, 0, 0, 0), R=1.0)
        with pytest.raises(ValueError):
            boundary_points(spec, 0)

    @pytest.mark.parametrize("R", [math.nan, math.inf, 0.0])
    def test_spec_radius_named(self, R):
        # R = nan was accepted and R = inf failed in int(nan) when sampled
        with pytest.raises(ValueError, match=re.escape(
                f"roundel radius must be finite and positive, got {R}")):
            RoundelSpec(center=LPoint(0, 0, 0, 0), R=R)


def _ref_boundary_points(spec, count, seed=0):
    """The scalar ``math.cos``/``math.sin`` loop ``boundary_points`` replaced."""
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
            zu = 1.0 - 2.0 * (k + 0.5) / count
            ring = math.sqrt(max(0.0, 1.0 - zu * zu))
            lon = offset + golden * k
            x = c[0] + spec.R * ring * math.cos(lon)
            y = c[1] + spec.R * ring * math.sin(lon)
            z = c[2] + spec.R * zu
            pts.append(_cartesian_lpoint(spec.center.x0, x, y, z))
    return pts


def _bits(p: LPoint):
    return (p.x0.hex(), p.r.hex(), p.theta.hex(), float(p.x3).hex(), p.turns)


class TestBoundaryPointsOracle:
    @given(kind=st.sampled_from(["pure", "superposition"]),
           count=st.integers(1, 64), seed=st.integers(0, 50),
           R=st.floats(1e-4, 10.0),
           x0=st.floats(-10.0, 10.0), r=st.floats(0.0, 10.0),
           theta=st.floats(0.0, TWO_PI, exclude_max=True),
           x3=st.floats(-10.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_loop_bitwise(self, kind, count, seed, R, x0, r,
                                         theta, x3):
        spec = RoundelSpec(center=LPoint(x0, r, theta, x3), R=R, kind=kind)
        got = boundary_points(spec, count, seed)
        want = _ref_boundary_points(spec, count, seed)
        assert [_bits(p) for p in got] == [_bits(p) for p in want]
