import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed import DomainError
from bohrqed.algebra import bq_frobenius_arr
from bohrqed.bohr import (
    BohrInput,
    NonPositiveMass,
    SupercriticalCoupling,
    local_solve_rho,
    mass_shell_residual,
    solve_bohr,
)
from reference_orbit import assemble_wavefunction, roundtrip_consistency

ALPHA = 1.0 / 137.035999

# frozen with a 50-digit independent evaluation of the closed forms
FROZEN_V = 0.0072973525737569148
FROZEN_R = 137.03235027513759
FROZEN_MU = 0.0072975468784719122
FROZEN_ETA = 1.0000266267407301
FROZEN_E = 0.99997337396823436
FROZEN_RHO_A1 = 0.3862771611003629  # local solve at A=1, e=1, m=1, n=1


def alpha_state():
    return solve_bohr(BohrInput(e=1.0, f=-ALPHA, n=1, m=1.0))


def random_input(rng) -> BohrInput:
    n = int(rng.integers(1, 9))
    coupling = rng.uniform(0.01, 0.995) * n
    e = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
    f = -coupling / e
    m = rng.uniform(0.1, 10.0)
    return BohrInput(e=e, f=f, n=n, m=m)


class TestSolve:
    def test_alpha_case_frozen(self):
        st_ = alpha_state()
        assert st_.v == pytest.approx(FROZEN_V, rel=1e-15)
        assert st_.R == pytest.approx(FROZEN_R, rel=1e-14)
        assert st_.mu == pytest.approx(FROZEN_MU, rel=1e-15)
        assert st_.eta == pytest.approx(FROZEN_ETA, rel=1e-15)
        assert st_.E == pytest.approx(FROZEN_E, rel=1e-14)

    def test_quantization_exact(self):
        st_ = alpha_state()
        assert abs(st_.mu * st_.R - 1.0) < 1e-12

    def test_supercritical_at_boundary(self):
        with pytest.raises(SupercriticalCoupling):
            BohrInput(e=1.0, f=-1.0, n=1, m=1.0)
        with pytest.raises(SupercriticalCoupling):
            BohrInput(e=2.0, f=-1.0, n=1, m=1.0)

    def test_nonpositive_mass(self):
        with pytest.raises(NonPositiveMass):
            BohrInput(e=1.0, f=-0.1, n=1, m=0.0)

    @pytest.mark.parametrize("field", ["e", "f", "m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, field, value):
        # e = nan used to solve to an all-NaN state, m = inf to raise a bare
        # ZeroDivisionError
        args = {"e": 1.0, "f": -0.1, "n": 1, "m": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            solve_bohr(BohrInput(**args))

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError):
            solve_bohr(BohrInput(e=0.0, f=1.0, n=1, m=1.0))

    def test_mass_squared_underflow_rejected(self):
        # m**2 underflows to 0: mass_shell_residual used to divide by it
        with pytest.raises(DomainError, match=r"m\*\*2 at m = 1e-300"):
            solve_bohr(BohrInput(e=1.0, f=-0.1, n=1, m=1e-300))
        assert mass_shell_residual(solve_bohr(BohrInput(e=1.0, f=-0.1, n=1,
                                                        m=1e-150))) < 1e-12

    @pytest.mark.parametrize(("e", "f", "n"), [(1.0, -1e-310, 1), (1e-200, -1e-110, 1),
                                              (1.0, -3e-310, 3)])
    def test_radius_overflow_rejected(self, e, f, n):
        # the wave number m*v*gamma is subnormal, so n/mu is inf: the state
        # used to carry R = inf, which bohr_state.json wrote as Infinity
        ef = e * f
        with pytest.raises(DomainError, match=re.escape(
                f"orbit radius n/(m*v*gamma) at e*f = {ef} must be finite, got inf")):
            solve_bohr(BohrInput(e=e, f=f, n=n, m=1.0))
        assert solve_bohr(BohrInput(e=e, f=f * 1e10, n=n, m=1.0)).R < math.inf

    def test_repulsive_needs_override(self):
        inp = BohrInput(e=1.0, f=0.5, n=1, m=1.0)
        with pytest.raises(ValueError):
            solve_bohr(inp)
        st_ = solve_bohr(inp, allow_repulsive=True)
        assert st_.E > inp.m  # no bound state on this branch

    def test_sweep_invariants(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            inp = random_input(rng)
            st_ = solve_bohr(inp)
            assert 0.0 < st_.v < 1.0
            assert st_.R > 0.0
            assert abs(st_.mu * st_.R - inp.n) / inp.n < 1e-12
            assert mass_shell_residual(st_) < 1e-12
            assert st_.E < inp.m

    def test_radius_closed_form(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            inp = random_input(rng)
            st_ = solve_bohr(inp)
            ef = abs(inp.e * inp.f)
            want = inp.n**2 * math.sqrt(1.0 - (ef / inp.n) ** 2) / (inp.m * ef)
            assert st_.R == pytest.approx(want, rel=1e-12)


class TestEnergy:
    def test_alpha_energy(self):
        assert alpha_state().E == pytest.approx(FROZEN_E, rel=1e-14)

    def test_closed_form_identity(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            inp = random_input(rng)
            st_ = solve_bohr(inp)
            want = inp.m * math.sqrt(1.0 - (inp.e * inp.f / inp.n) ** 2)
            assert abs(st_.E - want) / inp.m < 1e-12

    def test_free_limit(self):
        st_ = solve_bohr(BohrInput(e=1.0, f=-1e-8, n=1, m=1.0))
        assert st_.E == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_n(self):
        energies = [solve_bohr(BohrInput(e=1.0, f=-0.5, n=n, m=1.0)).E
                    for n in range(1, 51)]
        diffs = np.diff(energies)
        assert np.all(diffs > 0)
        assert energies[-1] < 1.0

    def test_nonrelativistic_oracle(self):
        # textbook level: E - m = -m (e f)^2 / (2 n^2)
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            ef = rng.uniform(1e-5, 1e-3)
            m = rng.uniform(0.5, 2.0)
            st_ = solve_bohr(BohrInput(e=1.0, f=-ef, n=n, m=m))
            textbook = -m * ef**2 / (2.0 * n**2)
            assert (st_.E - m) == pytest.approx(textbook, rel=1e-5)


class TestWavefunction:
    def test_zero_phase(self):
        ws = assemble_wavefunction(alpha_state(), 0.0, 0.0)
        assert ws.phi1.w == pytest.approx(1.0)
        assert ws.phi1.x == ws.phi1.y == ws.phi1.z == 0j

    def test_unit_phase(self):
        rng = np.random.default_rng(113)
        st_ = alpha_state()
        for _ in range(50):
            ws = assemble_wavefunction(st_, rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert bq_frobenius_arr(ws.phi1.as_array()) == pytest.approx(1.0, abs=1e-14)

    def test_full_period_shift(self):
        st_ = alpha_state()
        period = 2.0 * math.pi / st_.mu
        a = assemble_wavefunction(st_, 0.3, 1.2)
        b = assemble_wavefunction(st_, 0.3, 1.2 + period)
        assert bq_frobenius_arr((a.phi1 - b.phi1).as_array()) < 1e-9

    def test_phi2_structure(self):
        st_ = alpha_state()
        ws = assemble_wavefunction(st_, 0.0, 0.0)
        m = st_.input.m
        assert ws.phi2.w == pytest.approx(1j * st_.eta / m)
        assert ws.phi2.x == pytest.approx(st_.mu / m)


class TestLocalSolve:
    def test_zero_potential_degenerate(self):
        res = local_solve_rho([0.0], 1.0, 1.0, 1)
        assert (res.rho.tolist(), res.residual.tolist()) == ([0.0], [0.0])
        assert math.isnan(res.R[0]) and math.isnan(res.f[0])

    def test_massless_reduction(self):
        # with m = 0 the positive branch collapses to rho = A^3 d e^2
        grid = np.array([0.5, 1.0, 2.0])
        res = local_solve_rho(grid, 1.5, 0.0, 2)
        d = 3.0 / (4.0 * math.pi * 2**2)
        assert res.rho == pytest.approx(grid**3 * d * 1.5**2, rel=1e-14)

    def test_frozen_example(self):
        res = local_solve_rho([1.0], 1.0, 1.0, 1)
        assert res.rho[0] == pytest.approx(FROZEN_RHO_A1, rel=1e-14)
        assert res.residual[0] < 1e-10

    def test_sign_rules(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            A = rng.uniform(-5, 5, 20)
            A = A[A != 0]
            e = rng.uniform(0.2, 3.0)
            m = rng.uniform(0.0, 5.0)
            res = local_solve_rho(A, e, m, int(rng.integers(1, 5)))
            assert np.all(res.rho * A > 0)
            assert np.all(res.f * A < 0)
            assert np.all(res.R > 0)
            assert np.all(res.residual < 1e-10)

    def test_monotone_in_A(self):
        # dρ/dA > 0 on both branches, by finite differences
        e, m, n = 1.3, 0.7, 1
        for grid in (np.linspace(1e-3, 4.0, 500), np.linspace(-4.0, -1e-3, 500)):
            assert np.all(np.diff(local_solve_rho(grid, e, m, n).rho) > 0)

    @pytest.mark.parametrize("A,named", [
        # a scalar A was the one-point call form: it must not solve as a grid
        pytest.param(0.5, "a non-empty 1-d grid, got shape ()", id="0.5-()"),
        pytest.param([[0.5, 1.0]], "a non-empty 1-d grid, got shape (1, 2)",
                     id="A1-(1, 2)"),
        pytest.param([], "a non-empty 1-d grid, got shape (0,)", id="A2-(0,)"),
        # numpy's ValueError or TypeError used to leave, and [True] solved as 1
        pytest.param([[1.0], [2.0, 3.0]], "a grid of real numbers, got a ragged sequence",
                     id="ragged"),
        pytest.param(["a"], "a grid of real numbers, got dtype <U1", id="str"),
        pytest.param([1 + 1j], "a grid of real numbers, got dtype complex128",
                     id="complex"),
        pytest.param([True], "a grid of real numbers, got dtype bool", id="bool"),
    ])
    def test_grid_shape_rejected(self, A, named):
        with pytest.raises(DomainError, match=re.escape(f"A must be {named}")):
            local_solve_rho(A, 1.0, 1.0, 1)

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError):
            local_solve_rho([1.0], 0.0, 1.0, 1)

    @pytest.mark.parametrize("m", [-1.0, -1e-300])
    def test_negative_mass_rejected(self, m):
        with pytest.raises(NonPositiveMass):
            local_solve_rho([1.0], 1.0, m, 1)

    @pytest.mark.parametrize("A,e,m", [
        (math.nan, 1.0, 1.0),  # used to take the negative-root branch
        (math.inf, 1.0, 1.0),
        (1.0, math.nan, 1.0),
        (1.0, -math.inf, 1.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ])
    def test_non_finite_input_rejected(self, A, e, m):
        with pytest.raises(ValueError, match="finite"):
            local_solve_rho([A], e, m, 1)

    def test_overflow_rejected(self):
        # used to return rho = inf, R = 0
        with pytest.raises(ValueError, match="overflows"):
            local_solve_rho([1e200], 1.0, 1.0, 1)

    def test_underflow_rejected(self):
        # A**2 underflows to 0, so rho = 0: used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="underflows"):
            local_solve_rho([1e-200], 1.0, 1.0, 1)

    def test_charge_squared_underflow_rejected(self):
        # e*e underflows to 0: used to raise ZeroDivisionError
        with pytest.raises(DomainError, match="got e = 1e-300"):
            local_solve_rho([1.0], 1e-300, 1.0, 1)

    @pytest.mark.parametrize("A", [1e100, -1e100, 1e-120, -1e-120])
    def test_residual_out_of_float_range_rejected(self, A):
        # A**4 used to raise OverflowError, a zero largest term
        # ZeroDivisionError; the density itself is in range
        with pytest.raises(DomainError, match=re.escape(f"equation at A = {A} ")):
            local_solve_rho([A], 1.0, 1.0, 1)

    @pytest.mark.parametrize("A", [1e-78, 1e-80, -1e-80])
    def test_residual_terms_subnormal_rejected(self, A):
        # subnormal terms lose their digits: at A = 1e-80 the residual read
        # 0.00207, a failed check where a domain error belongs
        with pytest.raises(DomainError, match=re.escape(f"equation at A = {A} ")):
            local_solve_rho([A], 1.0, 1.0, 1)

    @pytest.mark.parametrize("e,m", [(1e-160, 1.0), (1.0, 1e160), (1e-100, 1e100)])
    def test_mass_over_charge_overflow_named(self, e, m):
        # 4 m**2 / e**2 overflows: the message used to name only A
        with pytest.raises(DomainError, match=re.escape(f"e = {e}, m = {m}")):
            local_solve_rho([-2.0], e, m, 1)


# ---------------------------------------------------------------------------
# Oracle: the scalar solve and residual, one grid point at a time
# ---------------------------------------------------------------------------

def _ref_local_solve_rho(A, e, m, n):
    """The scalar solve the array kernel replaced: ``(rho, R, f, d)`` at A."""
    if not (math.isfinite(A) and math.isfinite(e) and math.isfinite(m)
            and math.isfinite(n)):
        raise DomainError(f"A, e, m and n must be finite, got {A}, {e}, {m}, {n}")
    if m < 0:
        raise NonPositiveMass(f"m must not be negative, got {m}")
    if e * e == 0:
        raise DomainError(f"e**2 must be nonzero (the density equation divides by "
                          f"it), got e = {e}")
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    q = 4.0 * m * m / (e * e)
    if not math.isfinite(q):
        raise DomainError(f"4*m**2/e**2 must be finite, got {q} at e = {e}, m = {m}")
    d = 3.0 / (4.0 * math.pi * n * n)
    if A == 0:
        return 0.0, math.nan, math.nan, d
    root = math.sqrt(A * A + q)
    sign = 1.0 if A > 0 else -1.0
    rho = (A * A * e * e * d / 2.0) * (A + sign * root)
    if not math.isfinite(rho) or rho == 0:
        raise DomainError(f"the density at A = {A} overflows or underflows")
    R = math.sqrt(3.0 * A / (4.0 * math.pi * rho))
    return rho, R, -A * R, d


def _ref_cubic_residual(A, rho, d, e, m):
    """The scalar residual at a solved A, summed as ``(t0 + t1) + t2``:
    ``sum()`` of floats is compensated from Python 3.12 on."""
    if A == 0:
        return 0.0
    try:
        terms = (rho * rho / (d * e * e), -(A**3) * rho, -(m * m * d * A**4))
    except (OverflowError, ZeroDivisionError):
        terms = (math.inf,)
    scale = max(abs(t) for t in terms)
    if not sys.float_info.min <= scale < math.inf:
        raise DomainError(f"the density equation at A = {A} leaves the normal "
                          f"floating-point range, its largest term is {scale}")
    t0, t1, t2 = terms
    return abs((t0 + t1) + t2) / scale


def _cli_grid(a_min, a_max, count, include_zero):
    """The potentials ``bohrqed local-solve`` solves at, ascending."""
    grid = np.linspace(a_min, a_max, count).tolist()
    if include_zero and 0.0 not in grid:
        grid.append(0.0)
    return sorted(grid)


def _ref_outcome(grid, e, m, n):
    """The columns of a point-by-point reference solve of ``grid``, or the
    error it raises: every point is solved before any residual is taken."""
    try:
        solved = [_ref_local_solve_rho(A, e, m, n) for A in grid]
        residuals = [_ref_cubic_residual(A, rho, d, e, m)
                     for A, (rho, _, _, d) in zip(grid, solved)]
    except DomainError as err:
        return type(err), str(err)
    rho, R, f, _ = zip(*solved)
    return [np.array(col, dtype=float).view(np.int64).tolist()
            for col in (rho, R, f, residuals)]


def _kernel_outcome(grid, e, m, n):
    """The columns of one :func:`local_solve_rho` call, or its error."""
    try:
        solved = local_solve_rho(grid, e, m, n)
    except DomainError as err:
        return type(err), str(err)
    columns = [solved.rho, solved.R, solved.f, solved.residual]
    assert all(col.dtype == np.float64 and col.shape == (len(grid),)
               for col in columns)
    return [col.view(np.int64).tolist() for col in columns]


OUTCOMES = [pytest.param(_kernel_outcome, id="kernel")]

#: (grid, e, m, n) whose point-by-point solve fails
FAILING = {
    "pow-overflow": ([1e100], 1.0, 1.0, 1),
    "pow-overflow-negative": ([-1e100], 1.0, 1.0, 1),
    "subnormal-scale": (_cli_grid(1e-80, 1e-79, 41, False), 1.0, 1.0, 1),
    "coupling-overflow": (_cli_grid(-2.0, 2.0, 41, False), 1e-160, 1.0, 1),
    "scale-underflow": ([0.0, 1e50], 1e-20, 1.0, 10**150),
    "solve-after-residual": ([1e-80, 0.5, 1e100, 1e200, 1e-200], 1.0, 1.0, 1),
    "nan-after-residual": ([1e100, math.nan], 1.0, 1.0, 1),
    "negative-mass": ([math.inf, 1.0], 1.0, -1.0, 1),
}


class TestLocalSolveOracle:
    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("grid", [
        pytest.param(_cli_grid(-2.0, 2.0, 20001, True), id="benchmark-20001"),
        pytest.param(_cli_grid(-2.0, 2.0, 40, True), id="golden-40"),
    ])
    def test_cli_grids_bitwise(self, outcome, grid):
        want = _ref_outcome(grid, 1.0, 1.0, 1)
        assert isinstance(want[0], list)
        assert outcome(grid, 1.0, 1.0, 1) == want

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @given(grid=st.lists(st.floats(-10.0, 10.0)
                         | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=30),
           e=st.floats(-10.0, 10.0).filter(bool), m=st.floats(0.0, 10.0),
           n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_random_grids_bitwise(self, outcome, grid, e, m, n):
        assert outcome(grid, e, m, n) == _ref_outcome(grid, e, m, n)

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_same_error(self, outcome, case):
        want = _ref_outcome(*FAILING[case])
        assert not isinstance(want[0], list)
        assert outcome(*FAILING[case]) == want

    def test_failing_cases_fail_where_named(self):
        # each case reaches the check its name says
        messages = {case: _ref_outcome(*args)[1] for case, args in FAILING.items()}
        assert messages["pow-overflow"].endswith("its largest term is inf")
        assert messages["subnormal-scale"].endswith("largest term is 2.386e-321")
        assert "got inf at e = 1e-160" in messages["coupling-overflow"]
        assert messages["scale-underflow"] == (
            "the density equation at A = 1e+50 leaves the normal floating-point "
            "range, its largest term is inf")
        assert messages["solve-after-residual"] == (
            "the density at A = 1e+200 overflows or underflows")
        assert "got nan, 1.0" in messages["nan-after-residual"]
        assert messages["negative-mass"].startswith("A, e, m and n must be finite")


class TestRoundtrip:
    def test_alpha(self):
        assert roundtrip_consistency(
            BohrInput(e=1.0, f=-ALPHA, n=1, m=1.0)) < 1e-9

    def test_n2(self):
        assert roundtrip_consistency(
            BohrInput(e=1.0, f=-ALPHA, n=2, m=1.0)) < 1e-9

    def test_near_critical(self):
        assert roundtrip_consistency(
            BohrInput(e=1.0, f=-0.99, n=1, m=1.0)) < 1e-7

    @given(st.integers(1, 6), st.floats(0.05, 0.9), st.floats(0.2, 5.0))
    @settings(max_examples=100)
    def test_random(self, n, frac, m):
        inp = BohrInput(e=1.0, f=-frac * n, n=n, m=m)
        assert roundtrip_consistency(inp) < 1e-9


class TestChargeConjugate:
    def test_flips_e(self):
        inp = BohrInput(e=1.0, f=-0.3, n=1, m=1.0)
        assert replace(inp, e=-inp.e).e == -1.0
        assert replace(inp, e=-inp.e).f == -0.3

    def test_involution(self):
        inp = BohrInput(e=0.7, f=-0.3, n=2, m=2.0)
        conj = replace(inp, e=-inp.e)
        assert replace(conj, e=-conj.e) == inp

    def test_conjugate_pair_stays_attractive(self):
        inp = BohrInput(e=1.0, f=-0.3, n=1, m=1.0)
        both = BohrInput(e=-inp.e, f=-inp.f, n=inp.n, m=inp.m)
        assert both.attractive
