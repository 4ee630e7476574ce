import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed import DomainError
from bohrqed.bohr import BohrInput, SupercriticalCoupling
from bohrqed.ensemble import SCALING_EXPONENTS, count_interactions, scaling_sweep
from bohrqed.fitting import fit_loglog, fit_sweep
from bohrqed.lattice import LIMIT_EXPONENTS, limit_sweep


def test_slope_of_exact_power_law():
    xs = np.geomspace(1e-3, 1e-1, 9)
    fit = fit_loglog(xs, 3.0 * xs ** -2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert not fit.low_confidence


@pytest.mark.parametrize("xs", [[0.1, 0.1], [0.5, 0.5, 0.5]])
def test_zero_span_abscissa_rejected(capfd, xs):
    # duplicate radii used to reach LAPACK, which printed DLASCL errors to
    # stderr before raising LinAlgError
    with pytest.raises(ValueError, match="abscissa has zero span"):
        fit_loglog(xs, np.arange(1.0, len(xs) + 1.0))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("xs,ys", [
    ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
    ([-1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
])
def test_non_positive_or_non_finite_data_rejected(capfd, xs, ys):
    with pytest.raises(ValueError, match="positive finite data"):
        fit_loglog(xs, ys)
    assert capfd.readouterr() == ("", "")


class TestFitSweep:
    def test_rows_in_ascending_order(self):
        seen = []

        def row(x):
            seen.append(x)
            return {"x": x, "y": 2.0 * x ** 3}

        sweep = fit_sweep([0.1, 0.001, 0.01], "points", row, {"y": 3.0})
        assert seen == [0.001, 0.01, 0.1]
        assert sweep.columns == {"x": (0.001, 0.01, 0.1),
                                 "y": tuple(2.0 * x ** 3 for x in seen)}
        assert sweep.slopes["y"].slope == pytest.approx(3.0, abs=1e-12)
        assert sweep.expected == {"y": 3.0}
        assert not sweep.low_confidence

    @pytest.mark.parametrize("row", [
        lambda x: {"y": x ** -2.0},  # OverflowError at 1e-300
        lambda x: {"y": 1.0 / (x * x)},  # ZeroDivisionError at 1e-300
        lambda x: {"y": x * x},  # 0.0
        lambda x: {"y": 1e300 / x},  # inf
        lambda x: {"y": math.nan},
        lambda x: {},  # no fitted column
    ])
    def test_row_out_of_float_range_named(self, row):
        with pytest.raises(DomainError) as info:
            fit_sweep([1e-300, 0.1], "points", row, {"y": 1.0})
        assert str(info.value) == ("points must keep the fitted columns finite "
                                   "and positive, got 1e-300")

    def test_unfitted_column_may_leave_range(self):
        sweep = fit_sweep([1e-300, 0.1], "points",
                          lambda x: {"y": x, "z": x * x}, {"y": 1.0})
        assert sweep.columns["z"] == (0.0, 0.1 * 0.1)

    @pytest.mark.parametrize("xs,message", [
        ([0.1], "need at least two points"),
        ([], "need at least two points"),
        ([0.1, math.nan, -1.0], "points must be finite and positive, got nan"),
        ([0.1, -0.0], "points must be finite and positive, got -0.0"),
        ([math.inf, 0.1], "points must be finite and positive, got inf"),
    ])
    def test_bad_abscissa_named_before_any_row(self, xs, message):
        def row(x):
            raise AssertionError("no row before the check")

        with pytest.raises(ValueError) as info:
            fit_sweep(xs, "points", row, {})
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Oracle: the row-based sweeps that fit_sweep replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ScalingRow:
    R: float
    mB: float
    eB: float
    eBa: float
    f: float
    A: float
    rho: float
    nl: int


@dataclass(frozen=True)
class _LimitRow:
    a: float
    R_k: float
    J: float
    A: float
    f: float
    eB: float
    eBa: float
    M: float
    nl: float


def _ref_scaling_sweep(template, radii, T, kind="pure"):
    dim = 2 if kind == "pure" else 3
    radii = sorted(float(R) for R in radii)
    n = template.n
    rows = []
    for R in radii:
        mB = template.m / R
        eB = abs(template.e) / R
        u = n * n / math.sqrt((mB * R) ** 2 + n * n)
        f = u / eB
        A = f / R
        rho = 3.0 * A / (4.0 * math.pi * R * R)
        nl = count_interactions(T, R, kind)
        eBa = nl * f
        rows.append(_ScalingRow(R=R, mB=mB, eB=eB, eBa=eBa, f=f, A=A, rho=rho,
                                nl=nl))
    expected = dict(SCALING_EXPONENTS)
    expected["nl"] = -float(dim)
    expected["eBa"] = 1.0 - dim
    rv = np.array([r.R for r in rows])
    slopes = {name: fit_loglog(rv, np.array([float(getattr(r, name))
                                             for r in rows]))
              for name in expected}
    return rows, slopes, expected, any(f.low_confidence for f in slopes.values())


def _ref_limit_sweep(p, spacings, n=1, T=1.0):
    spacings = sorted(float(a) for a in spacings)
    rows = []
    for a in spacings:
        R_k = a ** p
        A = (4.0 * math.pi / 3.0) * a * a
        f = a * A
        nl = (T / (2.0 * a)) ** 3
        eBa = nl * f
        eB = eBa
        u = eB * f
        if u >= n:
            raise SupercriticalCoupling(
                f"|eB*f| = {u} >= n = {n} at spacing a = {a}")
        M = n * n * math.sqrt(1.0 - (u / n) ** 2) / (R_k * u)
        rows.append(_LimitRow(a=a, R_k=R_k, J=1.0, A=A, f=f, eB=eB, eBa=eBa,
                              M=M, nl=nl))
    expected = dict(LIMIT_EXPONENTS)
    expected["M"] = -(3.0 + p)
    expected["R_k"] = p
    expected["nl"] = -3.0
    av = np.array([r.a for r in rows])
    slopes = {name: fit_loglog(av, np.array([float(getattr(r, name))
                                             for r in rows]))
              for name in expected}
    return rows, slopes, expected, any(f.low_confidence for f in slopes.values())


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:  # the domain errors subclass ValueError
        return type(exc), str(exc)


def _assert_same_sweep(new, ref, row_type):
    if isinstance(ref, tuple) and isinstance(ref[0], type):
        assert new == ref  # both raised, alike
        return
    rows, slopes, expected, low = ref
    names = list(row_type.__dataclass_fields__)
    assert list(new.columns) == names
    for name in names:
        want = [getattr(r, name) for r in rows]
        got = new.columns[name]
        assert [type(v) for v in got] == [type(v) for v in want], name
        if isinstance(want[0], int):
            assert list(got) == want, name
        else:
            assert np.array(got).tobytes() == np.array(want).tobytes(), name
    assert set(new.slopes) == set(slopes)
    for name, fit in slopes.items():
        got = new.slopes[name]
        assert np.float64(got.slope).tobytes() == np.float64(fit.slope).tobytes(), name
        assert got == fit, name
    assert new.expected == expected
    assert new.low_confidence is low


# abscissae at least 10**0.05 apart, from 1e-1 down to 1e-4, in any order
_ABSCISSAE = st.lists(st.integers(0, 60), min_size=2, max_size=12,
                      unique=True).map(lambda ks: [10.0 ** (-1 - k / 20) for k in ks])


class TestSweepOracle:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["pure", "superposition"]),
           e=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
           f=st.floats(-0.09, -1e-3),  # |e*f| < 1 <= n: a sub-critical template
           n=st.integers(1, 4),
           m=st.floats(1e-3, 100.0),
           radii=_ABSCISSAE,
           T=st.floats(0.05, 20.0))
    def test_scaling_sweep_matches_rows(self, kind, e, f, n, m, radii, T):
        template = BohrInput(e=e, f=f, n=n, m=m)
        _assert_same_sweep(_outcome(scaling_sweep, template, radii, T, kind),
                           _outcome(_ref_scaling_sweep, template, radii, T, kind),
                           _ScalingRow)

    @settings(max_examples=150, deadline=None)
    @given(p=st.floats(0.1, 4.0),
           spacings=_ABSCISSAE,
           n=st.integers(1, 4),
           T=st.floats(0.05, 20.0))
    def test_limit_sweep_matches_rows(self, p, spacings, n, T):
        _assert_same_sweep(_outcome(limit_sweep, p, spacings, n, T),
                           _outcome(_ref_limit_sweep, p, spacings, n, T),
                           _LimitRow)
