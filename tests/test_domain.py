import inspect
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
from bohrqed import algebra, bohr, ensemble, fitting, lattice, mspace
from bohrqed._domain import finite, positive, whole
from bohrqed.algebra import ONE, DiagonalMatrix, Reflector, reflector_mul
from bohrqed.cli import RunReport, main
from bohrqed.ensemble import Ensemble
from bohrqed.fitting import fit_loglog
from bohrqed.lattice import (RegionBinding, bohr_phi_field, bohr_potential_field,
                             charge_conjugate_field, dirac_apply_values, wave_apply,
                             write_field)
from bohrqed.mspace import KINDS, MPoint, boundary_points, kind_dim, l_to_m, m_to_l

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


#: An argument of no package class, and a solved orbit to sample.
_OBJ = object()
_ORBIT = solve_bohr(BohrInput(e=1.0, f=-0.5, n=1, m=1.0))
#: Package objects to pass where another class is asked for.
_L = LPoint(x0=0.0, r=1.0, theta=0.0, x3=0.0)
_M = MPoint(x0=0.0, s=0.0, r=1.0, x3=0.0)
_SPEC = RoundelSpec(center=_L, R=0.25)


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
    # an argument of the wrong kind is a TypeError naming the parameter;
    # the id is "<callable>-<parameter>-type"
    pytest.param(lambda mp: solve_bohr(_OBJ),
                 TypeError, "inp must be a BohrInput", id="solve_bohr-inp-type"),
    pytest.param(lambda mp: bohr.mass_shell_residual(_OBJ),
                 TypeError, "state must be a BohrState", id="mass_shell_residual-state-type"),
    pytest.param(lambda mp: ensemble.total_charge(_OBJ),
                 TypeError, "ensemble must be an Ensemble", id="total_charge-ensemble-type"),
    pytest.param(lambda mp: ensemble.verify_ensemble(_OBJ),
                 TypeError, "ensemble must be an Ensemble", id="verify_ensemble-ensemble-type"),
    pytest.param(lambda mp: ensemble.boundary_fill_distance(_OBJ),
                 TypeError, "ensemble must be an Ensemble", id="boundary_fill_distance-ensemble-type"),
    pytest.param(lambda mp: ensemble.partition_regions(_OBJ, 2),
                 TypeError, "ensemble must be an Ensemble", id="partition_regions-ensemble-type"),
    pytest.param(lambda mp: ensemble.scaling_sweep(_OBJ, [0.1, 0.05], 1.0),
                 TypeError, "template must be a BohrInput", id="scaling_sweep-template-type"),
    pytest.param(lambda mp: LatticeField(_OBJ, np.zeros((3,) * 4 + (4,), complex)),
                 TypeError, "lattice must be a HypercubicLattice", id="LatticeField-lattice-type"),
    pytest.param(lambda mp: ReflectorField(_OBJ, *[np.zeros((3,) * 4 + (4,), complex)] * 2),
                 TypeError, "lattice must be a HypercubicLattice", id="ReflectorField-lattice-type"),
    pytest.param(lambda mp: dirac_apply_values(np.zeros((3,) * 4 + (4,), complex), _OBJ),
                 TypeError, "lattice must be a HypercubicLattice", id="dirac_apply_values-lattice-type"),
    pytest.param(lambda mp: wave_apply(np.zeros((3,) * 4 + (4,), complex), _OBJ),
                 TypeError, "lattice must be a HypercubicLattice", id="wave_apply-lattice-type"),
    pytest.param(lambda mp: bohr_phi_field(_OBJ, _ORBIT),
                 TypeError, "lattice must be a HypercubicLattice", id="bohr_phi_field-lattice-type"),
    pytest.param(lambda mp: bohr_phi_field(_LAT_K, _OBJ),
                 TypeError, "state must be a BohrState", id="bohr_phi_field-state-type"),
    pytest.param(lambda mp: bohr_potential_field(_OBJ, _ORBIT),
                 TypeError, "lattice must be a HypercubicLattice", id="bohr_potential_field-lattice-type"),
    pytest.param(lambda mp: bohr_potential_field(_LAT_K, _OBJ),
                 TypeError, "state must be a BohrState", id="bohr_potential_field-state-type"),
    pytest.param(lambda mp: transform_field("current", _zero_field(_LAT_K), _OBJ),
                 TypeError, "binding must be a RegionBinding", id="transform_field-binding-type"),
    pytest.param(lambda mp: equivalence_check(_OBJ, _zero_field(_LAT_K), _zero_field(_LAT_K)),
                 TypeError, "binding must be a RegionBinding", id="equivalence_check-binding-type"),
    pytest.param(lambda mp: dirac_residual(_zero_reflector(_LAT_K), _zero_reflector(_LAT_K), e=1.0, mass=1.0),
                 TypeError, "A must be a LatticeField", id="dirac_residual-A-type"),
    pytest.param(lambda mp: RegionBinding(_OBJ, _LAT_K, _LAT_K),
                 TypeError, "Z must be a LorentzTransform", id="RegionBinding-Z-type"),
    pytest.param(lambda mp: RegionBinding(LorentzTransform.identity(), _OBJ, _LAT_K),
                 TypeError, "lattice_k must be a HypercubicLattice", id="RegionBinding-lattice_k-type"),
    pytest.param(lambda mp: RegionBinding(LorentzTransform.identity(), _LAT_K, _OBJ),
                 TypeError, "lattice_p must be a HypercubicLattice", id="RegionBinding-lattice_p-type"),
    pytest.param(lambda mp: build_lattices(a=0.1, R_k=0.2, extent=3, Z=_OBJ),
                 TypeError, "Z must be a LorentzTransform", id="build_lattices-Z-type"),
    pytest.param(lambda mp: reflector_mul(_OBJ, Reflector(ONE, ONE)),
                 TypeError, "a must be a Reflector", id="reflector_mul-a-type"),
    pytest.param(lambda mp: reflector_mul(Reflector(ONE, ONE), _OBJ),
                 TypeError, "b must be a Reflector", id="reflector_mul-b-type"),
    pytest.param(lambda mp: Reflector(_OBJ, ONE),
                 TypeError, "upper must be a Biquaternion", id="Reflector-upper-type"),
    pytest.param(lambda mp: Reflector(ONE, _OBJ),
                 TypeError, "lower must be a Biquaternion", id="Reflector-lower-type"),
    pytest.param(lambda mp: DiagonalMatrix(_OBJ, ONE),
                 TypeError, "d1 must be a Biquaternion", id="DiagonalMatrix-d1-type"),
    pytest.param(lambda mp: DiagonalMatrix(ONE, _OBJ),
                 TypeError, "d2 must be a Biquaternion", id="DiagonalMatrix-d2-type"),
    pytest.param(lambda mp: LorentzTransform(_OBJ),
                 TypeError, "g must be a Biquaternion", id="LorentzTransform-g-type"),
    pytest.param(lambda mp: LorentzTransform.identity().apply(_OBJ),
                 TypeError, "q must be a Biquaternion", id="LorentzTransform.apply-q-type"),
    pytest.param(lambda mp: RoundelSpec(center=_OBJ, R=0.25),
                 TypeError, "center must be a LPoint", id="RoundelSpec-center-type"),
    pytest.param(lambda mp: l_to_m(_OBJ, 1.0),
                 TypeError, "p must be a LPoint", id="l_to_m-p-type"),
    pytest.param(lambda mp: m_to_l(_OBJ, 1.0),
                 TypeError, "p must be a MPoint", id="m_to_l-p-type"),
    pytest.param(lambda mp: boundary_points(_OBJ, 4),
                 TypeError, "spec must be a RoundelSpec", id="boundary_points-spec-type"),
    # and so is a package object of another class, the id naming its class
    pytest.param(lambda mp: solve_bohr(_ORBIT),
                 TypeError, "inp must be a BohrInput", id="solve_bohr-inp-BohrState"),
    pytest.param(lambda mp: bohr.mass_shell_residual(_ORBIT.input),
                 TypeError, "state must be a BohrState", id="mass_shell_residual-state-BohrInput"),
    pytest.param(lambda mp: ensemble.total_charge(_SPEC),
                 TypeError, "ensemble must be an Ensemble", id="total_charge-ensemble-RoundelSpec"),
    pytest.param(lambda mp: ensemble.verify_ensemble(_SPEC),
                 TypeError, "ensemble must be an Ensemble", id="verify_ensemble-ensemble-RoundelSpec"),
    pytest.param(lambda mp: ensemble.boundary_fill_distance(_SPEC),
                 TypeError, "ensemble must be an Ensemble", id="boundary_fill_distance-ensemble-RoundelSpec"),
    pytest.param(lambda mp: ensemble.partition_regions(_SPEC, 2),
                 TypeError, "ensemble must be an Ensemble", id="partition_regions-ensemble-RoundelSpec"),
    pytest.param(lambda mp: ensemble.scaling_sweep(_ORBIT, [0.1, 0.05], 1.0),
                 TypeError, "template must be a BohrInput", id="scaling_sweep-template-BohrState"),
    pytest.param(lambda mp: LatticeField(_BINDING, np.zeros((3,) * 4 + (4,), complex)),
                 TypeError, "lattice must be a HypercubicLattice", id="LatticeField-lattice-RegionBinding"),
    pytest.param(lambda mp: ReflectorField(_BINDING, *[np.zeros((3,) * 4 + (4,), complex)] * 2),
                 TypeError, "lattice must be a HypercubicLattice", id="ReflectorField-lattice-RegionBinding"),
    pytest.param(lambda mp: dirac_apply_values(np.zeros((3,) * 4 + (4,), complex), _zero_field(_LAT_K)),
                 TypeError, "lattice must be a HypercubicLattice", id="dirac_apply_values-lattice-LatticeField"),
    pytest.param(lambda mp: wave_apply(np.zeros((3,) * 4 + (4,), complex), _zero_field(_LAT_K)),
                 TypeError, "lattice must be a HypercubicLattice", id="wave_apply-lattice-LatticeField"),
    pytest.param(lambda mp: bohr_phi_field(_BINDING, _ORBIT),
                 TypeError, "lattice must be a HypercubicLattice", id="bohr_phi_field-lattice-RegionBinding"),
    pytest.param(lambda mp: bohr_phi_field(_LAT_K, _ORBIT.input),
                 TypeError, "state must be a BohrState", id="bohr_phi_field-state-BohrInput"),
    pytest.param(lambda mp: bohr_potential_field(_BINDING, _ORBIT),
                 TypeError, "lattice must be a HypercubicLattice", id="bohr_potential_field-lattice-RegionBinding"),
    pytest.param(lambda mp: bohr_potential_field(_LAT_K, _ORBIT.input),
                 TypeError, "state must be a BohrState", id="bohr_potential_field-state-BohrInput"),
    pytest.param(lambda mp: transform_field("current", _LAT_K, _BINDING),
                 TypeError, "field must be a LatticeField or ReflectorField", id="transform_field-field-HypercubicLattice"),
    pytest.param(lambda mp: transform_field("current", _zero_field(_LAT_K), _BINDING.Z),
                 TypeError, "binding must be a RegionBinding", id="transform_field-binding-LorentzTransform"),
    pytest.param(lambda mp: equivalence_check(_BINDING.Z, _zero_field(_LAT_K), _zero_field(_LAT_K)),
                 TypeError, "binding must be a RegionBinding", id="equivalence_check-binding-LorentzTransform"),
    pytest.param(lambda mp: write_field("no-such-directory/field.txt", _LAT_K),
                 TypeError, "obj must be a LatticeField or ReflectorField", id="write_field-obj-HypercubicLattice"),
    pytest.param(lambda mp: RegionBinding(ONE, _LAT_K, _LAT_K),
                 TypeError, "Z must be a LorentzTransform", id="RegionBinding-Z-Biquaternion"),
    pytest.param(lambda mp: RegionBinding(LorentzTransform.identity(), _zero_field(_LAT_K), _LAT_K),
                 TypeError, "lattice_k must be a HypercubicLattice", id="RegionBinding-lattice_k-LatticeField"),
    pytest.param(lambda mp: RegionBinding(LorentzTransform.identity(), _LAT_K, _zero_field(_LAT_K)),
                 TypeError, "lattice_p must be a HypercubicLattice", id="RegionBinding-lattice_p-LatticeField"),
    pytest.param(lambda mp: build_lattices(a=0.1, R_k=0.2, extent=3, Z=ONE),
                 TypeError, "Z must be a LorentzTransform", id="build_lattices-Z-Biquaternion"),
    pytest.param(lambda mp: reflector_mul(DiagonalMatrix(ONE, ONE), Reflector(ONE, ONE)),
                 TypeError, "a must be a Reflector", id="reflector_mul-a-DiagonalMatrix"),
    pytest.param(lambda mp: reflector_mul(Reflector(ONE, ONE), DiagonalMatrix(ONE, ONE)),
                 TypeError, "b must be a Reflector", id="reflector_mul-b-DiagonalMatrix"),
    pytest.param(lambda mp: Reflector(DiagonalMatrix(ONE, ONE), ONE),
                 TypeError, "upper must be a Biquaternion", id="Reflector-upper-DiagonalMatrix"),
    pytest.param(lambda mp: Reflector(ONE, DiagonalMatrix(ONE, ONE)),
                 TypeError, "lower must be a Biquaternion", id="Reflector-lower-DiagonalMatrix"),
    pytest.param(lambda mp: DiagonalMatrix(Reflector(ONE, ONE), ONE),
                 TypeError, "d1 must be a Biquaternion", id="DiagonalMatrix-d1-Reflector"),
    pytest.param(lambda mp: DiagonalMatrix(ONE, Reflector(ONE, ONE)),
                 TypeError, "d2 must be a Biquaternion", id="DiagonalMatrix-d2-Reflector"),
    pytest.param(lambda mp: LorentzTransform(LorentzTransform.identity()),
                 TypeError, "g must be a Biquaternion", id="LorentzTransform-g-LorentzTransform"),
    pytest.param(lambda mp: LorentzTransform.identity().apply(_L),
                 TypeError, "q must be a Biquaternion", id="LorentzTransform.apply-q-LPoint"),
    pytest.param(lambda mp: RoundelSpec(center=_M, R=0.25),
                 TypeError, "center must be a LPoint", id="RoundelSpec-center-MPoint"),
    pytest.param(lambda mp: l_to_m(_M, 1.0),
                 TypeError, "p must be a LPoint", id="l_to_m-p-MPoint"),
    pytest.param(lambda mp: m_to_l(_L, 1.0),
                 TypeError, "p must be a MPoint", id="m_to_l-p-LPoint"),
    pytest.param(lambda mp: boundary_points(_L, 4),
                 TypeError, "spec must be a RoundelSpec", id="boundary_points-spec-LPoint"),
])
def test_input_check_names_the_input(monkeypatch, call, error, message):
    with pytest.raises(Exception) as info:
        call(monkeypatch)
    assert type(info.value) is error
    assert str(info.value) == message


#: Parameters annotated with a package class that are no input: the result
#: types are built by the package from checked inputs.
TYPED_OUTPUTS = {"BohrState", "LocalSolveGrid", "PowerFit", "Sweep"}


def _public_typed_parameters() -> set[tuple[str, str]]:
    """``(callable, parameter)`` for every parameter whose annotation names a
    package class, over every ``__all__`` callable and the public methods and
    static methods of its classes."""
    modules = (algebra, bohr, ensemble, fitting, lattice, mspace)
    classes = {name for m in modules for name in m.__all__
               if inspect.isclass(getattr(m, name))}
    found = set()
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            if name in TYPED_OUTPUTS or (inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            targets = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                targets += [(f"{name}.{key}", getattr(obj, key)) for key, member in vars(obj).items()
                            if not key.startswith("_")
                            and (inspect.isfunction(member) or isinstance(member, staticmethod))]
            for target_name, target in targets:
                found |= {(target_name, p.name)
                          for p in inspect.signature(target).parameters.values()
                          if classes & set(re.findall(r"\w+", str(p.annotation)))}
    return found


def test_every_typed_parameter_has_a_row():
    # a TypeError row of test_input_check_names_the_input covers the callable
    # its id starts with and the parameter its message names
    (mark,) = [m for m in test_input_check_names_the_input.pytestmark
               if m.name == "parametrize"]
    rows = {(row.id.split("-")[0], row.values[2].split(" must be ")[0])
            for row in mark.args[1] if row.values[1] is TypeError}
    assert _public_typed_parameters() - rows == set()
