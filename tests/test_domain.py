import json
import math
import re

import numpy as np
import pytest

import bohrqed
from bohrqed import (BohrInput, DomainError, HypercubicLattice, InfeasibleCoverage,
                     LatticeField, LorentzTransform, LPoint, NonPositiveMass,
                     NotOnBoundary, ReflectorField, RoundelSpec,
                     SupercriticalCoupling, build_lattices, count_interactions,
                     dirac_residual, equivalence_check, limit_sweep,
                     photon_residual, solve_bohr, tile, transform_field)
from bohrqed import ensemble
from bohrqed._domain import finite, positive, whole
from bohrqed.cli import RunReport, main
from bohrqed.ensemble import Ensemble
from bohrqed.fitting import fit_loglog
from bohrqed.lattice import bohr_phi_field, charge_conjugate_field, write_field
from bohrqed.mspace import KINDS, kind_dim

INTP_MAX = np.iinfo(np.intp).max


class TestValidators:
    @pytest.mark.parametrize("values", [(0.0,), (-1e308, 5e-324, 2.0), ()])
    def test_finite_accepts(self, values):
        assert finite("x", *values) is None

    @pytest.mark.parametrize(("values", "got"), [
        ((math.nan,), "nan"), ((1.0, math.inf), "1.0, inf"),
        ((-math.inf, 0.0, 2.0), "-inf, 0.0, 2.0")])
    def test_finite_names_every_value(self, values, got):
        with pytest.raises(DomainError) as info:
            finite("x and y", *values)
        assert str(info.value) == f"x and y must be finite, got {got}"

    def test_finite_shows_named_values_by_name(self):
        with pytest.raises(DomainError) as info:
            finite("a and b", 1.0, b=math.nan)
        assert str(info.value) == "a and b must be finite, got 1.0, b=nan"

    @pytest.mark.parametrize("value", [5e-324, 1.0, 1.7976931348623157e308, 3])
    def test_positive_accepts(self, value):
        assert positive("x", value) is None

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan, math.inf,
                                       -math.inf])
    def test_positive_rejects(self, value):
        with pytest.raises(DomainError) as info:
            positive("radius", value)
        assert str(info.value) == f"radius must be finite and positive, got {value}"

    @pytest.mark.parametrize("value", [2, 2.0, np.int64(7), INTP_MAX])
    def test_whole_accepts(self, value):
        assert whole("count", value, 2) is None

    @pytest.mark.parametrize("value", [1, 0, -1, 2.5, math.nan, math.inf,
                                       -math.inf])
    def test_whole_rejects(self, value):
        with pytest.raises(DomainError) as info:
            whole("count", value, 2)
        assert str(info.value) == f"count must be an integer >= 2, got {value}"
        with pytest.raises(DomainError, match=re.escape(
                f"n must be a positive integer, got {value - 1}")):
            whole("n", value - 1, 1)

    @pytest.mark.parametrize("value", [INTP_MAX + 1, 2**63, 10**400, 1e19])
    def test_whole_past_intp(self, value):
        with pytest.raises(DomainError) as info:
            whole("count", value, 2)
        assert str(info.value) == f"count must be at most {INTP_MAX}, got {value}"

    def test_domain_error_is_a_value_error(self):
        assert bohrqed.DomainError is DomainError
        assert issubclass(DomainError, ValueError)

    @pytest.mark.parametrize("error", [SupercriticalCoupling, NonPositiveMass,
                                       InfeasibleCoverage, NotOnBoundary])
    def test_named_errors_are_domain_errors(self, error):
        assert issubclass(error, DomainError)


class TestKindTable:
    def test_one_table(self):
        assert KINDS == {"pure": 2, "superposition": 3}
        assert [kind_dim(kind) for kind in KINDS] == [2, 3]

    @pytest.mark.parametrize("build", [
        lambda: kind_dim("hexagonal"),
        lambda: RoundelSpec(center=LPoint(0, 0, 0, 0), R=1.0, kind="hexagonal"),
        lambda: tile([(0.0, 1.0)] * 2, 0.25, kind="hexagonal"),
        lambda: count_interactions(1.0, 0.25, "hexagonal"),
    ], ids=["kind_dim", "RoundelSpec", "tile", "count_interactions"])
    def test_unknown_kind(self, build):
        with pytest.raises(DomainError, match=re.escape(
                "unknown ensemble kind 'hexagonal'")):
            build()

    def test_ensemble_dim_from_table(self):
        ens = tile([(0.0, 1.0)] * 3, 0.5, kind="superposition")
        assert isinstance(ens, Ensemble) and ens.dim == 3


class TestOverflowingInput:
    @pytest.mark.parametrize("rapidity", [1421.0, -2000.0, 1e308])
    def test_boost_rapidity_past_cosh_overflow(self, rapidity):
        # cosh/sinh overflowed into an inf/NaN g with two RuntimeWarnings
        with pytest.raises(DomainError, match=re.escape(f"got {rapidity}")):
            LorentzTransform.boost([1, 0, 0], rapidity)

    def test_largest_boost_is_finite(self):
        g = LorentzTransform.boost([1, 0, 0], -1420.0).g.as_array()
        assert np.isfinite(g).all()

    @pytest.mark.parametrize("make", [
        lambda axis: LorentzTransform.rotation(axis, 0.5),
        lambda axis: LorentzTransform.boost(axis, 0.5)])
    def test_axis_whose_norm_overflows(self, make):
        # the axis used to become the zero vector without complaint
        with pytest.raises(DomainError, match=re.escape(
                "norm of axis [1e+200, 1e+200, 0.0] must be finite and positive, "
                "got inf")):
            make([1e200, 1e200, 0.0])

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0]])
    def test_axis_whose_norm_vanishes(self, axis):
        with pytest.raises(DomainError, match="norm of axis"):
            LorentzTransform.rotation(axis, 0.5)

    @pytest.mark.parametrize(("T", "R"), [(1e308, 1e-3), (1e200, 1e-3)])
    def test_interaction_count_past_the_float_range(self, T, R):
        # (T/2R)**dim used to raise OverflowError or floor an infinity
        with pytest.raises(DomainError, match=re.escape(f"T = {T}")):
            count_interactions(T, R, "pure")

    @pytest.mark.parametrize("R", [0.0, -0.25, math.nan])
    def test_interaction_count_needs_a_positive_radius(self, R):
        # a negative radius used to count (T/2R)**2 roundels
        with pytest.raises(DomainError, match="roundel radius R"):
            count_interactions(1.0, R, "pure")

    def test_tile_past_intp_roundels(self):
        with pytest.raises(DomainError, match="roundel count at radius 0.25"):
            tile([(0.0, 1e308)] * 2, 0.25)

    @pytest.mark.parametrize("spacing", [1e300, 1e-300, 1e-155])
    def test_stencil_divisor_out_of_range(self, spacing):
        # the squared site interval raised OverflowError or divided by zero,
        # and a subnormal square's reciprocal overflowed to a FloatingPointError
        lat = HypercubicLattice(spacing=spacing, extent=3)
        field = LatticeField(lat, np.zeros(lat.extent + (4,), complex))
        with pytest.raises(DomainError, match=re.escape(
                f"(2*spacing)**2 at spacing {spacing}")):
            photon_residual(field, field)

    def test_coordinates_past_the_float_range(self):
        # an infinite site interval gave NaN coordinates and a warning
        lat = HypercubicLattice(spacing=1e308, extent=3)
        with pytest.raises(DomainError, match=re.escape("spacing 1e+308")):
            bohr_phi_field(lat, solve_bohr(BohrInput(e=1.0, f=-0.1, n=1, m=1.0)))

    @pytest.mark.parametrize(("p", "spacings"), [(1e308, [1e-3, 1e-2]),
                                                 (400.0, [10.0, 20.0])])
    def test_limit_sweep_r_k_out_of_range(self, p, spacings):
        # a**p underflowed to 0 (ZeroDivisionError) or overflowed (OverflowError)
        with pytest.raises(DomainError, match=re.escape(f"p = {p}")):
            limit_sweep(p, spacings)

    @pytest.mark.parametrize(("m", "named"), [(1e308, "(m*gamma)**2 at m = 1e+308"),
                                              (5e-324, "wave number m*v*gamma")])
    def test_orbit_mass_out_of_range(self, m, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            solve_bohr(BohrInput(e=1.0, f=-0.1, n=1, m=m))


# ---------------------------------------------------------------------------
# Input checks that no other test reaches: the exception type and the whole
# message, which names the input at fault
# ---------------------------------------------------------------------------

def _zero_field(lattice):
    return LatticeField(lattice, np.zeros(lattice.extent + (4,), complex))


def test_overlapping_tile_fails_its_check(monkeypatch, tmp_path):
    # tile only builds; the tile command judges the overlap it measures
    monkeypatch.setattr(ensemble, "_grid_cells", lambda domain, R: (
        np.array([[0.25, 0.5], [0.5, 0.5]]), np.array([0.25, 0.25])))
    assert main(["tile", "--c", "2", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "tile_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["non-overlap"]["measured"] == 0.25
    assert not checks["non-overlap"]["passed"] and checks["coverage-ratio"]["passed"]


_, _LAT_K, _BINDING = build_lattices(a=0.1, R_k=0.2, extent=3,
                                     Z=LorentzTransform.identity())


def _zero_reflector(lattice):
    zeros = np.zeros(lattice.extent + (4,), complex)
    return ReflectorField(lattice, zeros, zeros)


@pytest.mark.parametrize(("call", "error", "message"), [
    pytest.param(lambda mp: photon_residual(
        _zero_field(HypercubicLattice(spacing=0.1, extent=3)),
        _zero_field(HypercubicLattice(spacing=0.2, extent=3))),
        DomainError, "fields must live on the same lattice",
        id="photon_residual-two-lattices"),
    pytest.param(lambda mp: transform_field("charge", _zero_field(_LAT_K), _BINDING),
                 DomainError, "unknown transform kind 'charge'",
                 id="transform_field-kind"),
    pytest.param(lambda mp: transform_field("current", np.zeros((3,) * 4 + (4,)),
                                            _BINDING),
                 TypeError, "field must be a LatticeField or ReflectorField",
                 id="transform_field-non-field"),
    # a field of the wrong kind is a TypeError naming the parameter, not an
    # AttributeError from deep inside the kernel
    pytest.param(lambda mp: photon_residual(_zero_field(_LAT_K), _zero_reflector(_LAT_K)),
                 TypeError, "J must be a LatticeField", id="photon_residual-J-type"),
    pytest.param(lambda mp: photon_residual(_zero_reflector(_LAT_K), _zero_field(_LAT_K)),
                 TypeError, "A must be a LatticeField", id="photon_residual-A-type"),
    pytest.param(lambda mp: equivalence_check(_BINDING, _zero_reflector(_LAT_K),
                                              _zero_field(_LAT_K)),
                 TypeError, "A_k must be a LatticeField", id="equivalence_check-A_k-type"),
    pytest.param(lambda mp: equivalence_check(_BINDING, _zero_field(_LAT_K),
                                              _zero_reflector(_LAT_K)),
                 TypeError, "J_k must be a LatticeField", id="equivalence_check-J_k-type"),
    pytest.param(lambda mp: dirac_residual(_zero_field(_LAT_K), _zero_field(_LAT_K),
                                           e=1.0, mass=1.0),
                 TypeError, "phi must be a ReflectorField", id="dirac_residual-phi-type"),
    pytest.param(lambda mp: charge_conjugate_field(_zero_field(_LAT_K)),
                 TypeError, "phi must be a ReflectorField",
                 id="charge_conjugate_field-type"),
    pytest.param(lambda mp: write_field("no-such-directory/field.txt",
                                        np.zeros((3,) * 4 + (4,), complex)),
                 TypeError, "obj must be a LatticeField or ReflectorField",
                 id="write_field-type"),
    pytest.param(lambda mp: HypercubicLattice(spacing=0.1, extent=(3, 3, 3)),
                 DomainError, "extent and origin must have 4 axes, got (3, 3, 3) "
                 "and (0.0, 0.0, 0.0, 0.0)", id="HypercubicLattice-extent"),
    pytest.param(lambda mp: HypercubicLattice(spacing=0.1, extent=3,
                                              origin=(0.0, 0.0)),
                 DomainError, "extent and origin must have 4 axes, got 3 "
                 "and (0.0, 0.0)", id="HypercubicLattice-origin"),
    pytest.param(lambda mp: tile([(0.0, 1.0)] * 3, 0.25),
                 DomainError, "pure tiling needs a 2-d domain, got "
                 "((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))", id="tile-domain"),
    pytest.param(lambda mp: fit_loglog([1.0, 2.0], [1.0, 2.0, 3.0]),
                 DomainError, "xs and ys must be 1-d arrays of equal length",
                 id="fit_loglog-shape"),
    pytest.param(lambda mp: fit_loglog([[1.0, 2.0]], [[1.0, 2.0]]),
                 DomainError, "xs and ys must be 1-d arrays of equal length",
                 id="fit_loglog-2d"),
    pytest.param(lambda mp: fit_loglog([1.0], [2.0]),
                 DomainError, "need at least two points to fit a slope, got 1",
                 id="fit_loglog-size"),
    pytest.param(lambda mp: LPoint(x0=0.0, r=-1.0, theta=0.0, x3=0.0),
                 DomainError, "radial coordinate must be nonnegative, got -1.0",
                 id="LPoint-r"),
    # a check mode is the program's own choice: a bug, not a domain error
    pytest.param(lambda mp: RunReport("tile", 0, "").check("c", 1.0, 1.0, 0.0,
                                                           mode="near"),
                 ValueError, "unknown check mode 'near'", id="RunReport.check-mode"),
])
def test_input_check_names_the_input(monkeypatch, call, error, message):
    with pytest.raises(Exception) as info:
        call(monkeypatch)
    assert type(info.value) is error
    assert str(info.value) == message
