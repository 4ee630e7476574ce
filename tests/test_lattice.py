import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from bohrqed.algebra import (
    BASIS,
    I0,
    I1,
    Biquaternion,
    LorentzTransform,
    bq_frobenius_arr,
)
from bohrqed.bohr import BohrInput, SupercriticalCoupling, solve_bohr
from bohrqed import DomainError, lattice as lattice_module
from bohrqed.fitting import fit_loglog
from bohrqed.lattice import (
    HypercubicLattice,
    LatticeField,
    ReflectorField,
    bohr_phi_field,
    bohr_potential_field,
    build_lattices,
    charge_conjugate_field,
    dirac_apply_values,
    dirac_residual,
    equivalence_check,
    limit_sweep,
    photon_residual,
    read_field,
    renormalize_mass,
    transform_field,
    wave_apply,
    write_field,
)
import reference_lattice as reference
from reference_lattice import center_index, mapped_site, site_position, write_field_rows
from reference_orbit import assemble_wavefunction

ALPHA = 1.0 / 137.035999


def pairwise_orders(spacings, residuals) -> list[float]:
    """log2 refinement ratios for successive spacing halvings."""
    return [math.log(residuals[i] / residuals[i + 1])
            / math.log(spacings[i] / spacings[i + 1])
            for i in range(len(spacings) - 1)]


def boosted_rotation(axis, angle, boost_axis, rapidity) -> LorentzTransform:
    """A boost along ``boost_axis``, then a rotation about ``axis``."""
    return LorentzTransform(LorentzTransform.rotation(axis, angle).g
                            * LorentzTransform.boost(boost_axis, rapidity).g)


def small_lattice(spacing=0.25, extent=(6, 6, 6, 6)):
    return HypercubicLattice(spacing=spacing, extent=extent)


def scalar_field(lattice, grid_fn):
    grids = lattice.coordinate_grids()
    vals = np.zeros(lattice.extent + (4,), dtype=complex)
    vals[..., 0] = grid_fn(grids)
    return LatticeField(lattice, vals)


BACKWARD = reference.MARGINS["backward"]


def inside(values, margins=reference.WAVE):
    """``values`` at the sites ``margins`` in from the ends of every axis, by
    default the 3-point interior."""
    return values[reference.interior(np.shape(values), margins)]


def partial_values(field, mu, mode="backward"):
    """``d_mu`` of a scalar field (component 0 alone) at every site: component
    ``mu`` of ``D`` on it, whose basis unit on axis ``mu`` is 1 for space and
    ``i`` for time; NaN off the stencil.  The backward ``D`` is the kernel's;
    another mode's is the reference's, whose bits the Dirac residual's match."""
    lat = field.lattice
    values = (dirac_apply_values(field.values, lat) if mode == "backward" else
              reference.padded(reference.dirac(field.values, lat.step, mode),
                               field.values.shape, reference.MARGINS[mode]))
    return -1j * values[..., mu] if mu == 0 else values[..., mu]


def alpha_state():
    return solve_bohr(BohrInput(e=1.0, f=-ALPHA, n=1, m=1.0))


def constant_field(lattice, q: Biquaternion) -> LatticeField:
    """The constant ``q`` on ``lattice`` as ``bohr_potential_field`` stores its
    potential, built from a broadcast view: one site's planes, which the field
    broadcasts with zero strides."""
    return LatticeField(lattice, np.broadcast_to(q.as_array(), lattice.extent + (4,)))


class TestLatticeType:
    def test_step_is_twice_spacing(self):
        lat = small_lattice(0.3)
        assert lat.step == pytest.approx(0.6)
        assert np.allclose(np.diff(lat.axis_coords(2)), 0.6)

    def test_coordinate_grids_are_open(self):
        lat = HypercubicLattice(spacing=0.3, extent=(5, 3, 4, 6),
                                origin=(0.5, -1.0, 0.0, 2.0))
        grids = lat.coordinate_grids()
        for ax, g in enumerate(grids):
            assert g.shape == tuple(n if k == ax else 1
                                    for k, n in enumerate(lat.extent))
        dense = np.meshgrid(*(lat.axis_coords(ax) for ax in range(4)),
                            indexing="ij")
        for got, want in zip(np.broadcast_arrays(*grids), dense, strict=True):
            assert got.tobytes() == want.tobytes()
        # dense grids at 16^4 would take 4 x 65,536 x 8 B = 2 MiB
        peak, _ = _traced_peak(
            HypercubicLattice(spacing=0.1, extent=16).coordinate_grids)
        assert peak < 64 * 1024

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            HypercubicLattice(spacing=1.0, extent=(2, 4, 4, 4))
        with pytest.raises(ValueError):
            HypercubicLattice(spacing=0.0, extent=(4, 4, 4, 4))

    def test_int_extent_broadcast(self):
        lat = HypercubicLattice(spacing=1.0, extent=4)
        assert lat.extent == (4, 4, 4, 4)

    @pytest.mark.parametrize("extent", [4, 4.0, np.int64(4), (4, 4.0, np.int64(4), 4)])
    def test_integral_extent_accepted(self, extent):
        lat = HypercubicLattice(spacing=1.0, extent=extent)
        assert lat.extent == (4, 4, 4, 4)
        assert all(type(e) is int for e in lat.extent)

    @pytest.mark.parametrize("kwargs", [
        {"spacing": math.nan}, {"spacing": math.inf}, {"spacing": -math.inf},
        {"origin": (math.nan, 0.0, 0.0, 0.0)}, {"origin": (0.0, 0.0, math.inf, 0.0)},
        {"extent": 3.7}, {"extent": (4, 3.7, 4, 4)}, {"extent": (4, 4, math.nan, 4)},
        {"extent": (4, 4, 4, math.inf)}])
    def test_non_finite_or_fractional_rejected(self, kwargs):
        # regression: these were accepted, 3.7 silently becoming 3 sites
        with pytest.raises(ValueError):
            HypercubicLattice(**{"spacing": 1.0, "extent": 4, **kwargs})

    @pytest.mark.parametrize("apply", [dirac_apply_values, wave_apply])
    @pytest.mark.parametrize("shape", [(4, 4, 4, 4), (4, 4, 4, 5, 4), (5, 4, 4, 4, 4)])
    def test_apply_rejects_wrong_shape(self, apply, shape):
        # regression: a (4, 4, 4, 4) array returned NaN-padded garbage
        lat = HypercubicLattice(spacing=0.1, extent=4)
        with pytest.raises(ValueError, match="shape"):
            apply(np.ones(shape, dtype=complex), lat)

    def test_field_shape_checked(self):
        lat = small_lattice()
        with pytest.raises(ValueError):
            LatticeField(lat, np.zeros((2, 2, 2, 2, 4)))

    def test_field_shape_named(self):
        # the message gives the values' shape as they were passed
        lat = small_lattice(extent=(3, 3, 3, 3))
        with pytest.raises(DomainError) as info:
            LatticeField(lat, np.zeros((3, 3, 3, 4, 4), complex))
        assert str(info.value) == ("field shape (3, 3, 3, 4, 4) does not match "
                                   "lattice extent (3, 3, 3, 3) + (4,)")

    def test_non_finite_value_found_at_the_last_site(self):
        # the finiteness check walks the slabs of the stored block out to the
        # last site of every axis
        lat = HypercubicLattice(spacing=0.1, extent=(6, 5, 4, 3))
        vals = np.zeros(lat.extent + (4,), complex)
        vals[5, 4, 3, 2, 3] = np.nan
        with pytest.raises(DomainError, match="field values must be finite"):
            LatticeField(lat, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("entry", ["phi1", "phi2"])
    def test_reflector_entries_must_be_finite(self, bad, entry):
        lat = small_lattice(extent=(3, 3, 3, 3))
        good = np.zeros(lat.extent + (4,), dtype=complex)
        broken = good.copy()
        broken[1, 2, 0, 1, 3] = bad
        entries = {"phi1": good, "phi2": good, entry: broken}
        with pytest.raises(ValueError, match="finite"):
            ReflectorField(lat, **entries)


class TestDiscretePartial:
    def test_constant_field(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: np.full(lat.extent, 3.7))
        assert abs(partial_values(f, mu=1)[2, 2, 2, 2]) < 1e-14

    def test_linear_field_exact(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = partial_values(f, mu=1)[2, 3, 2, 2]
        assert out == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_backward_bias(self):
        # backward difference of x^2 over step 2h gives 2x - 2h
        lat = small_lattice(spacing=0.25)
        f = scalar_field(lat, lambda g: g[2] ** 2)
        x = lat.axis_coords(2)[3]
        out = partial_values(f, mu=2)[2, 2, 3, 2]
        assert out == pytest.approx(2 * x - 2 * lat.spacing, rel=1e-12)

    def test_boundary_raises(self):
        # a site without a backward neighbor has no value: NaN
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[0])
        assert np.isnan(partial_values(f, mu=0)[0, 2, 2, 2])

    def test_central_mode(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[3] ** 2)
        x = lat.axis_coords(3)[2]
        out = partial_values(f, mu=3, mode="central")[2, 2, 2, 2]
        assert out == pytest.approx(2 * x, rel=1e-12)  # central is exact here


class TestDiracApply:
    def test_constant_field(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: np.full(lat.extent, 2.0 + 1j))
        out = dirac_apply_values(f.values, lat)[2, 2, 2, 2]
        assert bq_frobenius_arr(out) < 1e-14

    def test_linear_x1_gives_i1(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = dirac_apply_values(f.values, lat)[2, 2, 2, 2]
        assert bq_frobenius_arr(out - I1.as_array()) < 1e-13

    def test_scalar_times_basis_consistency(self):
        # sum_mu i_mu (d_mu of scalar) times a constant basis element
        lat = small_lattice()
        grids = lat.coordinate_grids()
        scalar = np.sin(grids[1]) * np.cos(0.5 * grids[0])
        for k in (1, 2, 3):
            vals = np.zeros(lat.extent + (4,), dtype=complex)
            vals[..., k] = scalar
            applied = dirac_apply_values(vals, lat)
            base = np.zeros(lat.extent + (4,), dtype=complex)
            base[..., 0] = scalar
            ref = dirac_apply_values(base, lat)
            want = np.stack([Biquaternion(*v) *
                             [Biquaternion(0, 1), Biquaternion(0, 0, 1),
                              Biquaternion(0, 0, 0, 1)][k - 1]
                             for v in inside(ref, BACKWARD)
                             .reshape(-1, 4)]).reshape(-1)
            got = np.array([c for q in inside(applied, BACKWARD)
                            .reshape(-1, 4)
                            for c in Biquaternion(*q).as_array()])
            want_flat = np.array([c for q in want for c in q.as_array()])
            assert np.allclose(got, want_flat, atol=1e-14)

    def test_dagger_flips_spatial_basis(self):
        # D‡, the Dirac residual's second row: the reference's at a site, and
        # the row's norm alone in the residual's report
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = reference.dirac(f.values, lat.step, dagger=True)[1, 1, 1, 1]
        assert bq_frobenius_arr(out + I1.as_array()) < 1e-13
        zero = LatticeField(lat, np.zeros(lat.extent + (4,), complex))
        report = dirac_residual(ReflectorField(lat, f.values, zero.values), zero, 0.0, 0.0)
        assert report.max_residual == pytest.approx(1.0, abs=1e-13)

    def test_plane_wave_converges_to_analytic(self):
        # D on exp(i(mu s - nu x0)) tends to (nu + i mu i1) times the phase
        nu, mu = 0.8, 0.5
        spacings = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for h in spacings:
            lat = HypercubicLattice(spacing=h, extent=(10, 10, 3, 3))
            grids = lat.coordinate_grids()
            phase = np.exp(1j * (mu * grids[1] - nu * grids[0]))
            vals = np.zeros(lat.extent + (4,), dtype=complex)
            vals[..., 0] = phase
            got = dirac_apply_values(vals, lat)
            want = np.zeros_like(vals)
            want[..., 0] = nu * phase
            want[..., 1] = 1j * mu * phase
            err = inside(got - want, BACKWARD)
            errors.append(float(np.max(bq_frobenius_arr(err))))
        orders = pairwise_orders(spacings, errors)
        assert all(o > 0.95 for o in orders)


class TestImmutability:
    def test_field_values_frozen(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[0])
        with pytest.raises(ValueError):
            f.values[0, 0, 0, 0, 0] = 1.0

    def test_reflector_entries_frozen(self):
        phi = bohr_phi_field(
            HypercubicLattice(spacing=0.1, extent=(3, 3, 3, 3)),
            alpha_state())
        with pytest.raises(ValueError):
            phi.phi1[0, 0, 0, 0, 0] = 0.0

    def test_composition_equals_wave_on_quadratics(self):
        # D after D‡ (backward then forward) collapses to the scalar
        # stencil; mixed quadratic terms exercise the cross-axis
        # cancellation, on which both routes are exact.  The forward
        # difference is the reference's alone: the kernel has none; the
        # forward interior of D‡'s backward one is the 3-point interior
        lat = small_lattice(spacing=0.2)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = (1.5 * grids[1] ** 2 - 0.5 * grids[0] ** 2
                        + 0.7 * grids[0] * grids[1]
                        + 1j * grids[2] * grids[3] + 2.0 * grids[3])
        inner = reference.dirac(vals, lat.step, dagger=True)
        outer = reference.dirac(inner, lat.step, mode="forward")
        direct = inside(wave_apply(vals, lat))
        scale = np.max(bq_frobenius_arr(direct))
        assert np.max(bq_frobenius_arr(outer - direct)) < 1e-12 * max(scale, 1.0)
        # and the result is the exact constant wave of the quadratic
        want = -2.0 * (-0.5) + 2.0 * 1.5
        assert np.allclose(outer[..., 0], want, atol=1e-11)


class TestWaveOperator:
    def test_exact_on_quadratics(self):
        lat = small_lattice(spacing=0.17)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = (2.0 * grids[1] ** 2 - 0.5 * grids[0] ** 2
                        + grids[3] * 1.0 + 4.0)
        out = wave_apply(vals, lat)
        # -d0^2 + d1^2 applied: -(-1.0) + 4.0 = 5.0
        want = 5.0
        interior = inside(out)
        assert np.allclose(interior[..., 0], want, atol=1e-11)


class TestPhotonResidual:
    def test_zero_fields(self):
        lat = small_lattice()
        zero = LatticeField(lat, np.zeros(lat.extent + (4,), dtype=complex))
        assert photon_residual(zero, zero).max_residual == 0.0

    def test_quadratic_with_matching_source(self):
        lat = small_lattice(spacing=0.2)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = 1.5 * grids[2] ** 2
        A = LatticeField(lat, vals)
        src = np.zeros_like(vals)
        src[..., 0] = 3.0
        rep = photon_residual(A, LatticeField(lat, src))
        assert rep.max_residual < 1e-12

    def test_uniform_sphere_source(self):
        # quadratic interior potential against the 8*pi/3 constant source
        rho = 0.02
        for spacing in (0.2, 0.1, 0.05):
            lat = small_lattice(spacing=spacing)
            grids = lat.coordinate_grids()
            vals = np.zeros(lat.extent + (4,), dtype=complex)
            vals[..., 0] = 1j * (4 * math.pi / 3) * rho * grids[2] ** 2
            src = np.zeros_like(vals)
            src[..., 0] = 1j * (8 * math.pi / 3) * rho
            rep = photon_residual(LatticeField(lat, vals),
                                  LatticeField(lat, src))
            assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(), LorentzTransform.boost([0, 0, 1], 0.6)],
        ids=["identity", "boost"])
    def test_equals_equivalence_lk_residual(self, Z):
        # one photon rule: both walk _wave(A) - J on the composed interior
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=(6, 5, 4, 5),
                                          Z=Z)
        rng = np.random.default_rng(31)
        A = LatticeField(latk, _random_values(rng, latk))
        J = LatticeField(latk, _random_values(rng, latk, 10.0))
        assert (photon_residual(A, J).max_residual
                == equivalence_check(binding, A, J).lk_residual)

    def test_equals_wave_apply(self):
        # the residual is the public operator's: wave_apply(A) - J at its
        # interior sites, bit for bit
        rng = np.random.default_rng(41)
        for extent in ((7, 5, 4, 6), (3, 3, 3, 3), (12, 4, 3, 5)):
            lat = HypercubicLattice(spacing=0.17, extent=extent)
            A = LatticeField(lat, _random_values(rng, lat))
            J = LatticeField(lat, _random_values(rng, lat, 10.0))
            resid = wave_apply(A.values, lat) - J.values
            assert (photon_residual(A, J).max_residual
                    == np.max(bq_frobenius_arr(inside(resid))))

    def test_smooth_convergence_order_two(self):
        spacings = [0.2, 0.1, 0.05, 0.025]
        residuals = []
        for h in spacings:
            lat = HypercubicLattice(spacing=h, extent=(12, 12, 3, 3))
            grids = lat.coordinate_grids()
            vals = np.zeros(lat.extent + (4,), dtype=complex)
            vals[..., 0] = np.exp(1j * (0.9 * grids[1] - 0.5 * grids[0]))
            src = (0.5**2 - 0.9**2) * vals
            rep = photon_residual(LatticeField(lat, vals),
                                  LatticeField(lat, src))
            residuals.append(rep.max_residual)
        assert fit_loglog(spacings, residuals).slope > 1.9


class TestDiracResidual:
    def test_potential_on_other_lattice_raises(self):
        # regression: a 5^4 potential against a 4^4 phi returned a residual;
        # an (upper, lower) pair is no potential form, on any lattice, and a
        # constant is a field too
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=4)
        phi = bohr_phi_field(lat, state)
        same = bohr_potential_field(lat, state)
        for other in (HypercubicLattice(spacing=0.1, extent=5),
                      HypercubicLattice(spacing=0.2, extent=4)):
            pot = bohr_potential_field(other, state)
            with pytest.raises(ValueError, match="lattice"):
                dirac_residual(phi, pot, e=1.0, mass=1.0)
            for A in ((same, pot), (same, same), Biquaternion(-0.3j)):
                with pytest.raises(TypeError, match="^A must be a LatticeField$"):
                    dirac_residual(phi, A, e=1.0, mass=1.0)

    def test_zero_wavefunction(self):
        lat = HypercubicLattice(spacing=0.1, extent=(6, 6, 3, 3))
        zeros = np.zeros(lat.extent + (4,), dtype=complex)
        phi = ReflectorField(lat, zeros, zeros)
        rep = dirac_residual(phi, constant_field(lat, Biquaternion(0)), e=1.0, mass=1.0)
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("f", [-ALPHA, -0.1, -0.3])
    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_zero_stride_potential_matches_copied_field(self, mode, f):
        # the orbit potential stores one site and broadcasts it; a field
        # holding a copy at every site gives the same report, bit for bit
        state = solve_bohr(BohrInput(e=1.0, f=f, n=1, m=1.0))
        lat = HypercubicLattice(spacing=0.05, extent=(12, 12, 3, 3))
        phi = bohr_phi_field(lat, state)
        pot = bohr_potential_field(lat, state)
        assert pot.values.strides[:4] == (0, 0, 0, 0)
        copied = LatticeField(lat, np.array(pot.values))
        assert np.moveaxis(copied.values, -1, 0).flags.c_contiguous
        for field, e in ((phi, 1.0), (charge_conjugate_field(phi), -1.0)):
            assert (dirac_residual(field, pot, e=e, mass=1.0, mode=mode)
                    == dirac_residual(field, copied, e=e, mass=1.0, mode=mode))

    @pytest.mark.parametrize(("e", "mass", "named"), [
        (math.nan, 1.0, "e=nan, mass=1.0"),
        (1.0, math.inf, "e=1.0, mass=inf"),
        (1.0, -math.inf, "mass=-inf"),
        (-math.inf, math.nan, "e=-inf, mass=nan"),
    ])
    def test_non_finite_coupling_or_mass_named(self, monkeypatch, e, mass, named):
        # a full pass used to end in FloatingPointError, and mass = inf
        # leaked "invalid value encountered in multiply" to stderr
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=(6, 6, 3, 3))
        phi = bohr_phi_field(lat, state)
        pot = bohr_potential_field(lat, state)

        def no_slab(*args):
            raise AssertionError("a slab ran before the inputs were checked")

        monkeypatch.setattr(lattice_module, "_walk", no_slab)
        with pytest.raises(ValueError, match=re.escape(named)):
            dirac_residual(phi, pot, e=e, mass=mass)

    def test_closed_form_first_order(self):
        state = alpha_state()
        inp = state.input
        spacings = [0.2, 0.1, 0.05, 0.025]
        residuals = []
        for h in spacings:
            lat = HypercubicLattice(spacing=h, extent=(12, 12, 3, 3))
            phi = bohr_phi_field(lat, state)
            pot = bohr_potential_field(lat, state)
            rep = dirac_residual(phi, pot, e=inp.e, mass=inp.m)
            residuals.append(rep.max_residual)
        orders = pairwise_orders(spacings, residuals)
        assert all(o > 0.95 for o in orders)
        assert residuals[-1] < residuals[0] / 6

    def test_closed_form_second_order_central(self):
        state = alpha_state()
        inp = state.input
        spacings = [0.2, 0.1, 0.05, 0.025]
        residuals = []
        for h in spacings:
            lat = HypercubicLattice(spacing=h, extent=(12, 12, 3, 3))
            phi = bohr_phi_field(lat, state)
            pot = bohr_potential_field(lat, state)
            rep = dirac_residual(phi, pot, e=inp.e, mass=inp.m, mode="central")
            residuals.append(rep.max_residual)
        orders = pairwise_orders(spacings, residuals)
        assert all(o > 1.95 for o in orders)

    def test_renormalized_mass_consistency(self):
        # rescaling mass and leaving the orbit solution fixed must not
        # change the residual when a = R_k (identity rescaling)
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.05, extent=(8, 8, 3, 3))
        phi = bohr_phi_field(lat, state)
        pot = bohr_potential_field(lat, state)
        mass = renormalize_mass(state.input.m, a=0.3, R_k=0.3)
        direct = dirac_residual(phi, pot, e=state.input.e, mass=state.input.m)
        viamt = dirac_residual(phi, pot, e=state.input.e, mass=mass)
        assert viamt.max_residual == pytest.approx(direct.max_residual)

    def test_charge_conjugation_invariance(self):
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.05, extent=(10, 10, 3, 3))
        phi = bohr_phi_field(lat, state)
        pot = bohr_potential_field(lat, state)
        base = dirac_residual(phi, pot, e=state.input.e, mass=state.input.m)
        conj = dirac_residual(charge_conjugate_field(phi), pot,
                              e=-state.input.e, mass=state.input.m)
        rel = abs(conj.max_residual - base.max_residual) / base.max_residual
        assert rel < 1e-12

    def test_conjugation_is_involution_up_to_sign(self):
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=(4, 4, 3, 3))
        phi = bohr_phi_field(lat, state)
        twice = charge_conjugate_field(charge_conjugate_field(phi))
        assert np.allclose(twice.phi1, -phi.phi1)
        assert np.allclose(twice.phi2, -phi.phi2)


class TestBohrFieldSampling:
    def test_matches_pointwise_assembly(self):
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.15, extent=(5, 6, 3, 3),
                                origin=(0.2, -0.4, 0.0, 0.0))
        phi = bohr_phi_field(lat, state)
        rng = np.random.default_rng(43)
        for _ in range(20):
            idx = tuple(int(rng.integers(e)) for e in lat.extent)
            x0 = lat.axis_coords(0)[idx[0]]
            s = lat.axis_coords(1)[idx[1]]
            ws = assemble_wavefunction(state, x0, s)
            assert np.allclose(phi.phi1[idx], ws.phi1.as_array(), atol=1e-14)
            assert np.allclose(phi.phi2[idx], ws.phi2.as_array(), atol=1e-14)

    def test_time_extension_advances_phase(self):
        # successive time slices differ by exp(-i nu * step), never by copies
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=(6, 6, 3, 3))
        phi = bohr_phi_field(lat, state)
        step_phase = np.exp(-1j * state.nu * lat.step)
        ratio = phi.phi1[1:, ..., 0] / phi.phi1[:-1, ..., 0]
        assert np.allclose(ratio, step_phase, atol=1e-12)
        assert abs(step_phase - 1.0) > 0.01

    def test_bitwise_equal_to_broadcast_copy(self):
        # reference: the phase broadcast to a 4-D complex copy, then scaled;
        # scaling the 2-D phase and broadcasting the result is the same
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.07, extent=(5, 6, 4, 3),
                                origin=(0.3, -0.2, 0.0, 0.1))
        x0 = lat.axis_coords(0)[:, None]
        s = lat.axis_coords(1)[None, :]
        phase = np.exp(1j * (state.mu * s - state.nu * x0))
        phase4 = np.broadcast_to(phase[:, :, None, None],
                                 lat.extent).astype(complex)
        m = state.input.m
        phi = bohr_phi_field(lat, state)
        assert phi.phi1[..., 0].tobytes() == phase4.tobytes()
        assert phi.phi2[..., 0].tobytes() == (
            (1j * state.eta / m) * phase4).tobytes()
        assert phi.phi2[..., 1].tobytes() == ((state.mu / m) * phase4).tobytes()
        assert not phi.phi1[..., 1:].any() and not phi.phi2[..., 2:].any()

    def test_peak_memory(self):
        # one (x0, s) block per entry, broadcast: a 16^4 field would be 4 MiB
        lat = HypercubicLattice(spacing=0.05, extent=(16,) * 4)
        peak, _ = _traced_peak(lambda: bohr_phi_field(lat, alpha_state()))
        assert peak < 64 * 1024

    def test_potential_peak_memory(self):
        lat = HypercubicLattice(spacing=0.05, extent=(12,) * 4)
        peak, pot = _traced_peak(lambda: bohr_potential_field(lat, alpha_state()))
        assert peak <= 1.05 * pot.values.nbytes

    def test_potential_allocates_no_field(self):
        # one site's planes broadcast: a 16^4 field would be 4 MiB
        lat = HypercubicLattice(spacing=0.05, extent=(16,) * 4)
        state = alpha_state()
        peak, pot = _traced_peak(lambda: bohr_potential_field(lat, state))
        assert peak < 64 * 1024
        assert pot.values.tobytes() == np.broadcast_to(
            [-1j * state.input.f / state.R, 0, 0, 0], lat.extent + (4,)).tobytes()

    def test_charge_conjugate_peak_memory(self):
        lat = HypercubicLattice(spacing=0.05, extent=(12,) * 4)
        phi = bohr_phi_field(lat, alpha_state())
        peak, _ = _traced_peak(lambda: charge_conjugate_field(phi))
        assert peak <= 2.05 * phi.phi1.nbytes

    def test_charge_conjugate_allocates_no_field(self):
        # the stored blocks are conjugated, not their broadcast
        lat = HypercubicLattice(spacing=0.05, extent=(16,) * 4)
        phi = bohr_phi_field(lat, alpha_state())
        peak, conj = _traced_peak(lambda: charge_conjugate_field(phi))
        assert peak < 64 * 1024
        assert conj.phi1.tobytes() == (-np.conj(phi.phi2)).tobytes()
        assert conj.phi2.tobytes() == np.conj(phi.phi1).tobytes()


def neighbors(center) -> list[tuple[int, ...]]:
    """The eight sites one step from ``center`` along an axis."""
    return [tuple(c + step * (ax == axis) for ax, c in enumerate(center))
            for axis in range(4) for step in (-1, +1)]


class TestBuildLattices:
    def test_identity_same_spacing_pure_translation(self):
        latp, latk, binding = build_lattices(
            a=0.2, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        center = center_index(binding)
        for idx in neighbors(center):
            orig_offset = site_position(latk, idx) - site_position(latk, center)
            mapped_offset = mapped_site(binding, idx) - mapped_site(binding, center)
            assert np.allclose(mapped_offset, orig_offset)

    def test_scaling_doubles_separation(self):
        latp, latk, binding = build_lattices(
            a=0.4, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        center = center_index(binding)
        mapped_offset = (mapped_site(binding, neighbors(center)[0])
                         - mapped_site(binding, center))
        assert np.linalg.norm(mapped_offset) == pytest.approx(0.8)

    def test_spacings_read_from_the_lattices(self):
        # R_k and a were stored beside the lattices, and a direct
        # RegionBinding(R_k=nan, ...) was accepted
        latp, latk, binding = build_lattices(
            a=0.13, R_k=0.29, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        assert (binding.R_k, binding.a) == (latk.spacing, latp.spacing) == (0.29, 0.13)
        with pytest.raises(TypeError):
            dataclasses.replace(binding, R_k=math.nan)

    def test_neighbors_inside_region(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=(3, 5, 4, 3), Z=LorentzTransform.identity())
        for idx in neighbors(center_index(binding)):
            assert all(0 <= i < e for i, e in zip(idx, latk.extent))

    def test_rotation_moves_neighbor_axis(self):
        Z = LorentzTransform.rotation([0, 0, 1], math.pi / 2)
        _, _, binding = build_lattices(a=0.2, R_k=0.2, extent=(4, 4, 4, 4), Z=Z)
        center = mapped_site(binding, center_index(binding))
        idx = list(center_index(binding))
        idx[1] += 1  # +x1 neighbor maps onto the +x2 axis
        offset = mapped_site(binding, tuple(idx)) - center
        assert offset[2] == pytest.approx(0.4, abs=1e-12)
        assert abs(offset[1]) < 1e-12


class TestTransformField:
    def make_field(self, lat, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=lat.extent + (4,)) \
            + 1j * rng.normal(size=lat.extent + (4,))
        return LatticeField(lat, vals)

    @pytest.mark.parametrize("kind", sorted(lattice_module.TRANSFORM_EXPONENTS))
    def test_in_place_scale_bitwise(self, kind):
        # the product is scaled in place; it must equal factor * product
        _, latk, binding = build_lattices(
            a=0.13, R_k=0.29, extent=(4, 3, 5, 3),
            Z=boosted_rotation([1, -2, 0.5], 0.8, [0.3, 1, -1], 0.7))
        power = lattice_module.TRANSFORM_EXPONENTS[kind]
        factor = (binding.R_k / binding.a) ** power
        field = self.make_field(latk, seed=3)
        phi = ReflectorField(latk, self.make_field(latk, seed=4).values,
                             self.make_field(latk, seed=5).values)
        got = transform_field(kind, field, binding)
        assert got.values.tobytes() == (
            factor * binding.Z.apply_array(field.values)).tobytes()
        got = transform_field(kind, phi, binding)
        for name in ("phi1", "phi2"):
            assert getattr(got, name).tobytes() == (factor * binding.Z.apply_array(
                getattr(phi, name))).tobytes()

    def test_field_off_lattice_k_raises(self):
        # a field on another lattice used to be carried as if on lattice_k
        latp, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        other = HypercubicLattice(spacing=0.7, extent=latk.extent, frame="compromise")
        f = self.make_field(other)
        for field in (f, self.make_field(latp), ReflectorField(other, f.values, f.values)):
            with pytest.raises(DomainError, match="lattice_k"):
                transform_field("current", field, binding)

    def test_current_scales_cubed(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        f = self.make_field(latk)
        out = transform_field("current", f, binding)
        assert np.allclose(out.values, 8.0 * f.values)

    def test_equal_spacing_identity(self):
        _, latk, binding = build_lattices(
            a=0.2, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        f = self.make_field(latk)
        for kind in ("current", "potential", "derivative", "operator"):
            out = transform_field(kind, f, binding)
            assert np.allclose(out.values, f.values)

    def test_reflector_transforms_both_entries(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        rng = np.random.default_rng(3)
        phi = ReflectorField(
            latk,
            rng.normal(size=latk.extent + (4,)) + 0j,
            rng.normal(size=latk.extent + (4,)) + 0j)
        out = transform_field("potential", phi, binding)
        assert np.allclose(out.phi1, 2.0 * phi.phi1)
        assert np.allclose(out.phi2, 2.0 * phi.phi2)

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 1, 0], 0.7),
        LorentzTransform.boost([0, 0, 1], 1.0),
    ])
    def test_derivative_covariance(self, Z):
        # first difference of the transported potential equals the
        # transported difference with the extra R/a factor, axis by axis
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(5, 5, 5, 5), Z=Z)
        f = self.make_field(latk, seed=11)
        fp = transform_field("potential", f, binding)
        for mu in range(4):
            lhs = reference.difference(fp.values, binding.lattice_p.step, mu, "backward")
            rhs = transform_field("derivative", LatticeField(latk, np.nan_to_num(reference.padded(
                reference.difference(f.values, latk.step, mu, "backward"),
                f.values.shape, BACKWARD))), binding).values
            scale = np.max(bq_frobenius_arr(lhs))
            err = np.max(bq_frobenius_arr(lhs - inside(rhs, BACKWARD)))
            assert err < 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([1, 0, 0], 1.2),
        LorentzTransform.boost([1, 0, 0], 1.0),
    ])
    def test_wave_covariance(self, Z):
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(5, 5, 5, 5), Z=Z)
        f = self.make_field(latk, seed=13)
        fp = transform_field("potential", f, binding)
        lhs = wave_apply(fp.values, binding.lattice_p)
        rhs = transform_field(
            "current",
            LatticeField(latk, np.nan_to_num(wave_apply(f.values, latk))),
            binding).values
        sel = inside(lhs - rhs)
        scale = np.nanmax(bq_frobenius_arr(inside(lhs)))
        assert np.nanmax(bq_frobenius_arr(sel)) < 1e-10 * max(scale, 1.0)

    def test_operator_covariance_rotation_basis(self):
        # for exact lattice rotations the transformed basis contraction
        # (the reference's: the kernel takes no basis) reproduces Z applied
        # after the compromise-frame operator
        from bohrqed.algebra import BASIS
        Z = LorentzTransform.rotation([0, 0, 1], math.pi / 2)
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(5, 5, 5, 5), Z=Z)
        f = self.make_field(latk, seed=17)
        fp = transform_field("potential", f, binding)
        basis_p = [Z.apply(b) for b in BASIS]
        lhs = reference.dirac(fp.values, binding.lattice_p.step, basis=basis_p)
        rhs = (binding.R_k / binding.a) ** 2 * Z.apply_array(
            inside(dirac_apply_values(f.values, latk), BACKWARD))
        sel = lhs - rhs
        scale = np.nanmax(bq_frobenius_arr(lhs))
        assert np.nanmax(bq_frobenius_arr(sel)) < 1e-10 * max(scale, 1.0)


class TestEquivalence:
    def exact_pair(self, latk):
        grids = latk.coordinate_grids()
        vals = np.zeros(latk.extent + (4,), dtype=complex)
        vals[..., 0] = 1j * np.sin(0.8 * grids[1]) * np.cos(0.3 * grids[0])
        vals[..., 2] = 0.5 * np.cos(0.6 * grids[3])
        A = LatticeField(latk, vals)
        J = LatticeField(latk, np.nan_to_num(wave_apply(vals, latk)))
        return A, J

    def test_fields_off_lattice_k_raise(self):
        lat_p, latk, binding = build_lattices(a=0.1, R_k=0.2, extent=(4, 4, 4, 4),
                                              Z=LorentzTransform.identity())
        A, J = self.exact_pair(latk)
        A_p, J_p = self.exact_pair(lat_p)
        for pair in ((A_p, J), (A, J_p), (A_p, J_p)):
            with pytest.raises(ValueError, match="lattice_k"):
                equivalence_check(binding, *pair)

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        LorentzTransform.boost([1, 0, 0], 1.0),
    ])
    def test_exact_solution_stays_exact(self, Z):
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(6, 6, 6, 6), Z=Z)
        A, J = self.exact_pair(latk)
        eq = equivalence_check(binding, A, J)
        assert eq.commutation_residual < 1e-10
        assert eq.lp_residual < 1e-10 * eq.scale_factor

    def test_perturbation_scales_linearly(self):
        Z = LorentzTransform.boost([1, 0, 0], 1.0)
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(6, 6, 6, 6), Z=Z)
        A, J = self.exact_pair(latk)
        residuals = []
        for delta in (1e-3, 2e-3):
            vals = A.values.copy()
            vals[3, 3, 3, 3, 0] += delta
            eq = equivalence_check(binding, LatticeField(latk, vals), J)
            assert eq.commutation_residual < 1e-10
            residuals.append(eq.lp_residual)
        assert residuals[1] == pytest.approx(2 * residuals[0], rel=1e-6)


class TestMassTerm:
    def test_identity_rescale(self):
        assert renormalize_mass(1.7, a=0.3, R_k=0.3) == pytest.approx(1.7)

    def test_doubling(self):
        assert renormalize_mass(1.0, a=0.4, R_k=0.2) == pytest.approx(2.0)

    def test_bookkeeping_tight(self):
        assert abs(renormalize_mass(2.5, a=0.1, R_k=0.4) - (0.1 / 0.4) * 2.5) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            renormalize_mass(1.0, a=0.0, R_k=1.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.1, 0.2), (math.inf, 0.1, 0.2),
                                      (1.0, math.nan, 0.2), (1.0, 0.1, math.inf)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            renormalize_mass(*args)


class TestLimitSweep:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_expected_exponents(self, p):
        res = limit_sweep(p, np.geomspace(1e-3, 1e-1, 9))
        assert res.slopes["A"].slope == pytest.approx(2.0, abs=0.02)
        assert res.slopes["f"].slope == pytest.approx(3.0, abs=0.02)
        assert res.slopes["eB"].slope == pytest.approx(0.0, abs=0.02)
        assert res.slopes["eBa"].slope == pytest.approx(0.0, abs=0.02)
        assert res.slopes["M"].slope == pytest.approx(-(3.0 + p), abs=0.02)
        assert not res.low_confidence

    def test_mass_closes_orbit_at_region_radius(self):
        # the bare mass of each row is exactly the mass whose orbit
        # radius equals R_k for the row's charges
        cols = limit_sweep(1.0, np.geomspace(1e-3, 1e-1, 7)).columns
        for R_k, eB, f, M in zip(cols["R_k"], cols["eB"], cols["f"], cols["M"]):
            state = solve_bohr(BohrInput(e=eB, f=-f, n=1, m=M))
            assert state.R == pytest.approx(R_k, rel=1e-12)

    def test_supercritical_propagates(self):
        with pytest.raises(SupercriticalCoupling):
            limit_sweep(1.0, [0.5, 1.0], T=10.0)

    def test_two_point_low_confidence(self):
        res = limit_sweep(1.0, [1e-3, 1e-1])
        assert res.low_confidence

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_sweep(0.0, [0.01, 0.1])
        with pytest.raises(ValueError):
            limit_sweep(1.0, [0.01])

    @pytest.mark.parametrize("kwargs,message", [
        # zero and infinity used to raise ZeroDivisionError, NaN and
        # negative values to fail in the log-log fit
        ({"T": 0.0}, "box side T must be finite and positive, got 0.0"),
        ({"p": -1.0}, "exponent p must be finite and positive, got -1.0"),
        ({"p": math.inf}, "exponent p must be finite and positive, got inf"),
        ({"T": math.nan}, "box side T must be finite and positive, got nan"),
        ({"T": -1.0}, "box side T must be finite and positive, got -1.0"),
        ({"spacings": [0.0, 0.1]}, "spacings must be finite and positive, got 0.0"),
        ({"spacings": [0.01, -0.1]}, "spacings must be finite and positive, got -0.1"),
        ({"spacings": [0.01, math.inf]},
         "spacings must be finite and positive, got inf"),
        ({"spacings": [0.01, math.nan, -1.0]},
         "spacings must be finite and positive, got nan"),
        # n <= 0 used to raise SupercriticalCoupling, n = 1.5 to run
        ({"n": 0}, "quantum number n must be a positive integer, got 0"),
        ({"n": -1}, "quantum number n must be a positive integer, got -1"),
        ({"n": 1.5}, "quantum number n must be a positive integer, got 1.5"),
        ({"n": math.nan}, "quantum number n must be a positive integer, got nan"),
        ({"n": math.inf, "spacings": [0.01, math.nan]},
         "quantum number n must be a positive integer, got inf"),
    ])
    def test_bad_input_named(self, kwargs, message):
        args = {"p": 1.0, "spacings": [0.01, 0.1], **kwargs}
        with pytest.raises(ValueError) as info:
            limit_sweep(**args)
        assert type(info.value) is DomainError  # not SupercriticalCoupling
        assert str(info.value) == message


class TestSerialization:
    def test_biquaternion_roundtrip(self, tmp_path):
        lat = HypercubicLattice(spacing=0.125, extent=(3, 4, 3, 3),
                                origin=(0.5, 0, 0, -1))
        rng = np.random.default_rng(19)
        vals = rng.normal(size=lat.extent + (4,)) \
            + 1j * rng.normal(size=lat.extent + (4,))
        f = LatticeField(lat, vals)
        path = tmp_path / "field.txt"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, LatticeField)
        assert back.lattice == lat
        assert np.array_equal(back.values, f.values)

    def test_reflector_roundtrip(self, tmp_path):
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=(3, 3, 3, 3))
        phi = bohr_phi_field(lat, state)
        path = tmp_path / "phi.txt"
        write_field(path, phi)
        back = read_field(path)
        assert isinstance(back, ReflectorField)
        assert np.array_equal(back.phi1, phi.phi1)
        assert np.array_equal(back.phi2, phi.phi2)

    def test_rejects_other_files(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("hello\n")
        with pytest.raises(ValueError):
            read_field(p)

    def written_lines(self, tmp_path):
        lat = HypercubicLattice(spacing=0.25, extent=(3, 3, 3, 3))
        rng = np.random.default_rng(5)
        vals = rng.normal(size=lat.extent + (4,)) + 0j
        path = tmp_path / "field.txt"
        write_field(path, LatticeField(lat, vals))
        return path, path.read_text().splitlines()

    def test_truncated_file_names_first_missing_site(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        path.write_text("\n".join(lines[:7]) + "\n")  # header and one row
        with pytest.raises(ValueError, match=r"missing site \(0, 0, 0, 1\)"):
            read_field(path)

    def test_missing_interior_site(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        del lines[6 + 40]  # site (1, 1, 1, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"missing site \(1, 1, 1, 1\)"):
            read_field(path)

    def test_duplicate_site(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        lines[6 + 5] = lines[6 + 4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"duplicate site \(0, 0, 1, 1\)"):
            read_field(path)

    # each row error below used to be numpy's bare ValueError, which named
    # neither the file nor the line
    def test_site_outside_extent(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        lines[6] = "3" + lines[6][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(
                f"site (3, 0, 0, 0) outside extent (3, 3, 3, 3) at line 7 of {path}")):
            read_field(path)

    def test_negative_site_index(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        tokens = lines[6 + 9].split()  # site (0, 1, 0, 0)
        tokens[1] = "-1"
        lines[6 + 9] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(
                f"site (0, -1, 0, 0) outside extent (3, 3, 3, 3) at line 16 of {path}")):
            read_field(path)

    @pytest.mark.parametrize("edit", [
        lambda row: row.rsplit(" ", 1)[0],  # a value short
        lambda row: row + " 0+0j",  # a value too many
        lambda row: row[:len(row) // 2],  # cut mid-row
    ])
    def test_wrong_token_count(self, tmp_path, edit):
        path, lines = self.written_lines(tmp_path)
        lines[6 + 7] = edit(lines[6 + 7])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"malformed row at line 14 of {path}")):
            read_field(path)

    @pytest.mark.parametrize(("column", "edit"), [
        (5, lambda token: token[:-1] + "q"),  # a value not complex
        (0, lambda token: token + ".0"),  # an index not whole
    ])
    def test_non_numeric_token(self, tmp_path, column, edit):
        path, lines = self.written_lines(tmp_path)
        tokens = lines[6 + 6].split()
        tokens[column] = edit(tokens[column])
        lines[6 + 6] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"malformed row at line 13 of {path}")):
            read_field(path)

    @pytest.mark.parametrize("token", ["nan+0j", "1e400+0j", "0+infj"])
    def test_non_finite_value(self, tmp_path, token):
        # raised the field's own "must be finite", naming neither the file nor the line
        path, lines = self.written_lines(tmp_path)
        tokens = lines[6 + 6].split()
        tokens[6] = token
        lines[6 + 6] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"non-finite value at line 13 of {path}")):
            read_field(path)

    def test_truncated_header(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_field(path)

    @pytest.mark.parametrize(("line", "text", "named"), [
        (0, "bohrqed-field 7", "unknown field format '7'"),
        (1, "kind banana", "unknown field kind 'banana'"),
        (5, "frame banana", "unknown lattice frame 'banana'"),
    ])
    def test_unknown_header_value(self, tmp_path, line, text, named):
        # each used to read, the unknown kind as a biquaternion field
        path, lines = self.written_lines(tmp_path)
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(named)):
            read_field(path)

    @pytest.mark.parametrize(("key", "value"), [
        ("spacing", "banana"), ("extent", "3 3 x 3"), ("origin", "0 0 zero 0")])
    def test_non_numeric_header_value(self, tmp_path, key, value):
        # each raised a bare ValueError that named neither the field nor the file
        path, lines = self.written_lines(tmp_path)
        (at,) = [i for i, text in enumerate(lines[:6]) if text.startswith(f"{key} ")]
        lines[at] = f"{key} {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"non-numeric {key} {value!r} in {path}")):
            read_field(path)

    @pytest.mark.parametrize(("key", "value", "named"), [
        ("spacing", "-1", "spacing must be finite and positive, got -1.0"),
        ("extent", "3 3 3 2", "extent must be an integer >= 3, got 2"),
        ("origin", "nan 0 0 0", "origin must be finite, got nan, 0.0, 0.0, 0.0"),
        ("frame", "banana", "unknown lattice frame 'banana'")])
    def test_header_value_no_lattice_takes(self, tmp_path, key, value, named):
        # each parsed, and the lattice's error named no file
        path, lines = self.written_lines(tmp_path)
        (at,) = [i for i, text in enumerate(lines[:6]) if text.startswith(f"{key} ")]
        lines[at] = f"{key} {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(f"{named} in {path}")):
            read_field(path)

    @pytest.mark.parametrize("line", [2, 6 + 4])  # the spacing, a body row
    def test_undecodable_byte(self, tmp_path, line):
        # raised UnicodeDecodeError, which named no file
        path, lines = self.written_lines(tmp_path)
        data = [text.encode() for text in lines]
        data[line] = data[line][:-2] + b"\xff" + data[line][-1:]
        path.write_bytes(b"\n".join(data) + b"\n")
        with pytest.raises(DomainError, match=re.escape(str(path))):
            read_field(path)

    def test_extent_larger_than_the_file(self, tmp_path):
        # allocated planes for 27e9 sites (1.57 TiB), a MemoryError
        path, lines = self.written_lines(tmp_path)
        lines[3] = "extent 3 3 3 1000000000"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"missing site (0, 0, 0, 3) in {path}")):
            read_field(path)

    def test_shortest_rows_fill_the_extent(self, tmp_path):
        # the size bound admits a file of the shortest rows there are
        path, lines = self.written_lines(tmp_path)
        rows = [" ".join(map(str, site)) + " 0 0 0 0"
                for site in itertools.product(range(3), repeat=4)]
        path.write_text("\n".join(lines[:6] + rows))
        assert not read_field(path).values.any()


def _write_field_per_value(path, obj):
    """The field writer as it was before it was vectorized: one f-string
    per complex value.  Kept as the byte-level reference."""
    lattice = obj.lattice
    if isinstance(obj, ReflectorField):
        kind, flat = "reflector", np.concatenate([obj.phi1, obj.phi2], axis=-1)
    else:
        kind, flat = "biquaternion", obj.values
    lines = [
        "bohrqed-field 1",
        f"kind {kind}",
        f"spacing {lattice.spacing:.17g}",
        "extent " + " ".join(str(e) for e in lattice.extent),
        "origin " + " ".join(f"{o:.17g}" for o in lattice.origin),
        f"frame {lattice.frame}",
    ]
    comps = flat.reshape(-1, flat.shape[-1])
    for flat_idx, site in enumerate(np.ndindex(*lattice.extent)):
        row = " ".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in comps[flat_idx])
        lines.append(" ".join(str(i) for i in site) + " " + row)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


#: Doubles the text format must carry exactly: signed zeros, subnormals,
#: the extremes of the normal range and values near 1e+-300.
EDGE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e300, -1e-300]),
    st.floats(min_value=1e-310, max_value=1e-300),
    st.floats(min_value=-1e300, max_value=-1e290),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestFieldTextRoundTrip:
    slab_bytes = lattice_module._SLAB_BYTES  # one slab at these extents

    @given(pool=st.lists(EDGE_DOUBLES, min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1), reflector=st.booleans(),
           extent=st.tuples(*[st.integers(3, 4)] * 4),
           spacing=st.floats(min_value=1e-300, max_value=1e300),
           origin=st.tuples(*[EDGE_DOUBLES] * 4))
    # TestFieldBlocks runs it too, from its own instances
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    def test_bytes_and_values(self, tmp_path_factory, pool, seed, reflector,
                              extent, spacing, origin):
        # every real and imaginary part is drawn from the pool
        lat = HypercubicLattice(spacing=spacing, extent=extent, origin=origin)
        shape = lat.extent + ((8,) if reflector else (4,))
        parts = np.random.default_rng(seed).choice(
            np.array(pool), size=2 * math.prod(shape))
        vals = parts.view(complex).reshape(shape)
        obj = (ReflectorField(lat, vals[..., :4], vals[..., 4:]) if reflector
               else LatticeField(lat, vals))
        tmp = tmp_path_factory.mktemp("roundtrip")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_module, "_SLAB_BYTES", self.slab_bytes)
            write_field(tmp / "new.txt", obj)
            back = read_field(tmp / "new.txt")
        _write_field_per_value(tmp / "old.txt", obj)
        assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()
        assert back.lattice == lat
        got = (np.concatenate([back.phi1, back.phi2], axis=-1) if reflector
               else back.values)
        assert got.tobytes() == vals.tobytes()


class TestFieldBlocks(TestFieldTextRoundTrip):
    """The text round trip and the body errors with one time slice per slab:
    ``read_field`` parses one slab of lines at a time, so every file here
    spans three or four blocks."""

    slab_bytes = 1

    def written_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", self.slab_bytes)
        lat = HypercubicLattice(spacing=0.25, extent=(3, 4, 3, 3))  # 36-line blocks
        vals = np.random.default_rng(6).normal(size=lat.extent + (4,)) + 0j
        path = tmp_path / "field.txt"
        write_field(path, LatticeField(lat, vals))
        return path, path.read_text().splitlines()

    def test_duplicate_of_a_site_in_another_block(self, tmp_path, monkeypatch):
        path, lines = self.written_lines(tmp_path, monkeypatch)
        lines[6 + 80] = lines[6 + 5]  # block 2 repeats a site of block 0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"duplicate site (0, 0, 1, 2) in {path}")):
            read_field(path)

    def test_site_missing_from_the_last_block(self, tmp_path, monkeypatch):
        path, lines = self.written_lines(tmp_path, monkeypatch)
        del lines[6 + 100]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"missing site (2, 3, 0, 1) in {path}")):
            read_field(path)

    @pytest.mark.parametrize(("row", "problem"), [
        (50, "malformed row"), (107, "site (3, 3, 2, 2) outside extent (3, 4, 3, 3)")])
    def test_row_error_names_the_file_line(self, tmp_path, monkeypatch, row,
                                           problem):
        path, lines = self.written_lines(tmp_path, monkeypatch)
        lines[6 + row] = ("3" + lines[6 + row][1:] if "site" in problem
                          else lines[6 + row][:20])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=re.escape(problem)) as err:
            read_field(path)
        assert f"at line {7 + row} of {path}" in str(err.value)

    def test_non_finite_value_in_a_later_block(self, tmp_path, monkeypatch):
        path, lines = self.written_lines(tmp_path, monkeypatch)
        lines[6 + 90] = lines[6 + 90].rsplit(" ", 1)[0] + " nan+0j"  # block 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError,
                           match=re.escape(f"non-finite value at line 97 of {path}")):
            read_field(path)


#: Doubles whose shortest and 17-digit forms differ, or that sit at the ends
#: of the range: every row must carry them exactly, in any slab.
WRITER_DOUBLES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e16, 1e-5, 0.1, 3.0, -2.0, 1e22]


class TestFieldWriterParts:
    """``write_field`` formats one slab at a time in its own process: the
    bytes are the one-process writer's, and a failed write leaves the
    previous file, or none, and no temporary file."""

    extent = (6, 3, 3, 3)  # 1,728 bytes of one field per time slice

    def field(self, reflector: bool):
        lat = HypercubicLattice(spacing=0.1, extent=self.extent, origin=(0.1, 0, -1e-5, 3))
        shape = lat.extent + ((8,) if reflector else (4,))
        rng = np.random.default_rng(23)
        parts = rng.normal(size=2 * math.prod(shape))
        parts[:2 * len(WRITER_DOUBLES)] = WRITER_DOUBLES * 2
        parts[-len(WRITER_DOUBLES):] = WRITER_DOUBLES
        vals = parts.view(complex).reshape(shape)
        obj = (ReflectorField(lat, vals[..., :4], vals[..., 4:]) if reflector
               else LatticeField(lat, vals))
        return obj, vals

    @pytest.mark.parametrize("reflector", [False, True], ids=["biquaternion", "reflector"])
    @pytest.mark.parametrize(("slab_bytes", "slabs"), [(1 << 18, 1), (3 * 1728, 2), (1, 6)])
    def test_bytes_match_the_one_process_writer(self, tmp_path, monkeypatch, reflector,
                                                slab_bytes, slabs):
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", slab_bytes)
        obj, vals = self.field(reflector)
        write_field(tmp_path / "new.txt", obj)
        write_field_rows(tmp_path / "old.txt", obj)
        assert len(lattice_module._slabs(self.extent)) == slabs
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
        back = read_field(tmp_path / "new.txt")
        got = (np.concatenate([back.phi1, back.phi2], axis=-1) if reflector
               else back.values)
        assert got.tobytes() == vals.tobytes()

    def test_six_slabs_start_no_process(self, tmp_path, monkeypatch):
        calls = []

        class Spy(subprocess.Popen):
            def __init__(self, args, **kwargs):
                calls.append(args)
                super().__init__(args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Spy)
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", 1)
        assert len(lattice_module._slabs(self.extent)) == 6
        write_field(tmp_path / "f.txt", self.field(True)[0])
        assert calls == []

    def failed_write(self, tmp_path, monkeypatch, error: BaseException) -> None:
        """A six-slab write to ``f.txt`` whose formatter raises ``error`` on
        its second slab, after the header and the first slab's rows."""
        rows, calls = lattice_module._rows, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error
            return rows(*args)

        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", 1)
        monkeypatch.setattr(lattice_module, "_rows", failing)
        with pytest.raises(type(error)):
            write_field(tmp_path / "f.txt", self.field(False)[0])
        assert len(calls) == 2

    @pytest.mark.parametrize("previous", [False, True], ids=["no-file", "previous-file"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, previous):
        # regression: the header and the first rows stayed at the path, and
        # read_field then named a missing site
        path = tmp_path / "f.txt"
        if previous:
            write_field(path, self.field(True)[0])
        before = path.read_bytes() if previous else None
        self.failed_write(tmp_path, monkeypatch, RuntimeError("formatting failed"))
        assert [p.name for p in tmp_path.iterdir()] == (["f.txt"] if previous else [])
        assert (path.read_bytes() if previous else None) == before

    def test_interrupt_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        self.failed_write(tmp_path, monkeypatch, KeyboardInterrupt())
        assert list(tmp_path.iterdir()) == []

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        # the mode open(path, "wb") gives, not a temporary file's 0600
        write_field(tmp_path / "f.txt", self.field(False)[0])
        with open(tmp_path / "plain.txt", "wb"):
            pass
        assert ((tmp_path / "f.txt").stat().st_mode
                == (tmp_path / "plain.txt").stat().st_mode)

    def test_the_package_imports_no_subprocess(self):
        script = "import sys, bohrqed.cli; print('subprocess' in sys.modules)"
        src = str(Path(lattice_module.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.stdout == "False\n", done.stderr


# ---------------------------------------------------------------------------
# The kernels against the one definitional reference, ``reference_lattice``:
# reports by ``float.hex``, operator outputs by bytes.  The property draws
# lattices, stored shapes and slab budgets; the classes after it hold fixed
# cases.  An id that names an option the kernels no longer have (the
# forward difference, another basis for D) checks that it stays refused.
# ---------------------------------------------------------------------------

def _random_values(rng, lattice, scale=1.0):
    shape = lattice.extent + (4,)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _hexes(report) -> list[str]:
    """A report's values, bit for bit."""
    return list(map(float.hex, dataclasses.astuple(report)))


def _assert_refused(lattice, mode, basis=None):
    """The forward difference is an unknown mode, and no kernel takes a basis."""
    zero = np.zeros(lattice.extent + (4,), complex)
    if mode == "forward":
        with pytest.raises(DomainError, match="unknown difference mode 'forward'"):
            dirac_residual(ReflectorField(lattice, zero, zero), LatticeField(lattice, zero),
                           e=1.0, mass=1.0, mode=mode)
    if basis is not None:
        with pytest.raises(TypeError, match="basis"):
            dirac_apply_values(zero, lattice, basis=basis)


def _assert_report(phi, A, e, mass, mode):
    """``dirac_residual`` against the reference on dense copies of its operands."""
    want = reference.dirac_report(np.array(phi.phi1), np.array(phi.phi2), np.array(A.values),
                                  e, mass, phi.lattice.step, mode)
    assert _hexes(dirac_residual(phi, A, e, mass, mode)) == _hexes(want)


def _assert_dirac(values, lattice, mode, dagger):
    """``D`` (``D‡`` with ``dagger``) of ``values`` as the kernels give it: the
    backward ``D`` by ``dirac_apply_values``, bytewise, and each row by the
    report of a residual of it alone (one entry zero, no coupling, no mass)."""
    if mode == "forward":
        return _assert_refused(lattice, mode)
    if mode == "backward" and not dagger:
        want = reference.padded(reference.dirac(values, lattice.step), values.shape, BACKWARD)
        assert dirac_apply_values(values, lattice).tobytes() == want.tobytes()
    zero = np.zeros(values.shape, complex)
    phi = ReflectorField(lattice, *((values, zero) if dagger else (zero, values)))
    _assert_report(phi, LatticeField(lattice, zero), 0.0, 0.0, mode)


def _assert_wave(values, lattice):
    want = reference.padded(reference.wave(values, lattice.step), values.shape, reference.WAVE)
    assert wave_apply(values, lattice).tobytes() == want.tobytes()


def _assert_photon(A, J):
    want = reference.photon_report(np.array(A.values), np.array(J.values), A.lattice.step)
    assert _hexes(photon_residual(A, J)) == _hexes(want)


def _assert_equivalence(binding, A_k, J_k):
    want = reference.equivalence_report(binding, np.array(A_k.values), np.array(J_k.values))
    assert _hexes(equivalence_check(binding, A_k, J_k)) == _hexes(want)


def _zero_laden(rng, values):
    """``values`` with +0.0 or -0.0 in about half the real and half the
    imaginary parts, in place."""
    for part in (values.real, values.imag):
        zero = rng.random(part.shape) < 0.5
        part[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    return values


class TestDefinitionalReference:
    """Every public lattice kernel against ``reference_lattice``, bit for bit.
    Each operand is a public broadcast view of a random block with one site
    on the drawn axes, its dense copy, or (mixed) the wave function stored
    and the rest dense, with a slab budget of ``width`` time slices of the
    shape the walk takes, so that a last slab is often narrower."""

    @given(extent=st.tuples(*[st.integers(3, 7)] * 4),
           ones=st.sets(st.integers(0, 3)),
           width=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1),
           spacing=st.floats(min_value=1e-3, max_value=10.0),
           zeros=st.booleans(),
           potential=st.sampled_from(["field", Biquaternion(-0.2j, 0.1, 0, 0.03), I1, -I0,
                                      Biquaternion(0)]),
           e=st.sampled_from([0.0, -0.0, 1.0]) | st.floats(min_value=-3.0, max_value=3.0),
           mass=st.sampled_from([0.0, -0.0, 1.3]) | st.floats(min_value=-3.0, max_value=3.0))
    # every example is small, so a failure is reported as drawn, unshrunk
    @settings(max_examples=40, deadline=None, derandomize=True,
              phases=[Phase.generate])
    def test_kernels_match_the_reference(self, extent, ones, width, seed, spacing, zeros,
                                         potential, e, mass):
        rng = np.random.default_rng(seed)
        stored = tuple(1 if k in ones else n for k, n in enumerate(extent)) + (4,)
        blocks = [rng.normal(size=stored) + 1j * rng.normal(size=stored) for _ in range(4)]
        if zeros:
            blocks = [_zero_laden(rng, b) for b in blocks]
        views = [np.broadcast_to(b, extent + (4,)) for b in blocks]
        dense = [np.array(v) for v in views]
        if potential != "field":
            dense[2] = np.broadcast_to(potential.as_array(), extent + (4,))
        lat = HypercubicLattice(spacing=spacing, extent=extent)
        _, latk, binding = build_lattices(
            a=spacing, R_k=spacing * rng.uniform(0.5, 2.0), extent=extent,
            Z=boosted_rotation(rng.normal(size=3), rng.normal(), rng.normal(size=3),
                               rng.normal()))
        step = lat.step
        want = {"D": reference.padded(reference.dirac(dense[0], step), dense[0].shape, BACKWARD),
                "wave": reference.padded(reference.wave(dense[0], step), dense[0].shape,
                                         reference.WAVE),
                "photon": reference.photon_report(dense[0], dense[3], step),
                "equivalence": reference.equivalence_report(binding, dense[0], dense[3])}
        for mode in ("backward", "central"):
            want[mode] = reference.dirac_report(*dense[:3], e, mass, step, mode)
        for kind in reference.POWERS:
            want[kind] = [reference.transport(v, binding, kind) for v in dense[:2]]
        saved = lattice_module._SLAB_BYTES
        try:
            for (v0, v1, v2, v3), walked in ((views, stored[:4]), (dense, extent),
                                             (views[:2] + dense[2:], extent)):
                lattice_module._SLAB_BYTES = width * _slice_bytes(walked)
                assert dirac_apply_values(v0, lat).tobytes() == want["D"].tobytes()
                assert wave_apply(v0, lat).tobytes() == want["wave"].tobytes()
                phi = ReflectorField(lat, v0, v1)
                A = (LatticeField(lat, v2) if potential == "field"
                     else constant_field(lat, potential))
                for mode in ("backward", "central"):
                    assert _hexes(dirac_residual(phi, A, e, mass, mode)) == _hexes(want[mode])
                assert (_hexes(photon_residual(LatticeField(lat, v0), LatticeField(lat, v3)))
                        == _hexes(want["photon"]))
                assert (_hexes(equivalence_check(binding, LatticeField(latk, v0),
                                                 LatticeField(latk, v3)))
                        == _hexes(want["equivalence"]))
                for kind in reference.POWERS:
                    carried = transform_field(kind, ReflectorField(latk, v0, v1), binding)
                    assert ([carried.phi1.tobytes(), carried.phi2.tobytes()]
                            == [w.tobytes() for w in want[kind]])
        finally:
            lattice_module._SLAB_BYTES = saved


class TestInteriorStencilOracle:
    """Fixed cases on one lattice at the default slab budget."""

    lattice = HypercubicLattice(spacing=0.13, extent=(5, 4, 6, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply(self, mode, dagger):
        _assert_dirac(_random_values(np.random.default_rng(1), self.lattice),
                      self.lattice, mode, dagger)

    @pytest.mark.parametrize("basis", ["mixed", "transformed"])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_custom_basis(self, mode, basis):
        _assert_refused(self.lattice, mode, basis)

    def test_wave_apply(self):
        _assert_wave(_random_values(np.random.default_rng(3), self.lattice), self.lattice)

    def test_photon_residual(self):
        rng = np.random.default_rng(5)
        _assert_photon(LatticeField(self.lattice, _random_values(rng, self.lattice)),
                       LatticeField(self.lattice, _random_values(rng, self.lattice, 40.0)))

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        boosted_rotation([1, 2, 0.5], 0.4, [0, 1, 1], 0.9),
    ])
    def test_equivalence(self, Z):
        rng = np.random.default_rng(6)
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=(5, 6, 4, 5), Z=Z)
        _assert_equivalence(binding, LatticeField(latk, _random_values(rng, latk)),
                            LatticeField(latk, _random_values(rng, latk, 10.0)))


class TestSiteLocalStencils:
    """The reference at every site next to the edge of each mode's interior:
    D and D‡ against the scalar algebra's ``sum_mu basis[mu] * d_mu``, each
    partial against the reference's difference, and the kernels' interiors."""

    lattice = HypercubicLattice(spacing=0.21, extent=(4, 5, 3, 4))

    def edge_sites(self, mode):
        lo, hi = reference.MARGINS[mode]
        return list(itertools.product(*(sorted({lo, n - hi - 1})
                                        for n in self.lattice.extent)))

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_matches_array(self, mode, dagger):
        vals = _random_values(np.random.default_rng(7), self.lattice)
        step, lo = self.lattice.step, reference.MARGINS[mode][0]
        full = reference.dirac(vals, step, mode, dagger)
        basis = [b.quat_conj() if dagger else b for b in BASIS]
        diffs = [reference.difference(vals, step, mu, mode) for mu in range(4)]
        for site in self.edge_sites(mode):
            inner = tuple(i - lo for i in site)
            want = sum((b * Biquaternion(*d[inner]) for b, d in zip(basis, diffs)),
                       Biquaternion())
            np.testing.assert_allclose(full[inner], want.as_array(), rtol=1e-14, atol=1e-14)
        if mode == "backward" and not dagger:
            assert inside(dirac_apply_values(vals, self.lattice), BACKWARD).tobytes() == full.tobytes()

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_partial_matches_array(self, mode):
        # each partial of a scalar field is a component of D on it
        f = scalar_field(self.lattice, lambda g: _random_values(
            np.random.default_rng(8), self.lattice)[..., 0])
        lo = reference.MARGINS[mode][0]
        for mu in range(4):
            want = reference.difference(f.values, self.lattice.step, mu, mode)[..., 0]
            got = partial_values(f, mu, mode)
            for site in self.edge_sites(mode):
                inner = tuple(i - lo for i in site)
                assert np.array_equal(got[site], want[inner])

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_outside_interior_is_nan(self, mode):
        # a site lacking any axis's neighbors has no value, even for a
        # component whose difference runs along another axis (the 3-point
        # interior of wave_apply is the central one's); a second-order mode
        # and the forward difference are refused
        f = LatticeField(self.lattice,
                         _random_values(np.random.default_rng(9), self.lattice))
        lo, hi = reference.MARGINS[mode]
        outside = np.ones(self.lattice.extent, dtype=bool)
        outside[tuple(slice(lo, n - hi) for n in self.lattice.extent)] = False
        if mode != "forward":
            got = (dirac_apply_values if mode == "backward" else wave_apply)(
                f.values, self.lattice)
            assert np.array_equal(np.isnan(got).all(axis=-1), outside)
            assert np.isfinite(got[~outside]).all()
        phi = ReflectorField(self.lattice, f.values, f.values)
        for refused in ("composed", "forward"):
            with pytest.raises(DomainError, match="unknown difference mode"):
                dirac_residual(phi, f, e=1.0, mass=1.0, mode=refused)


# ---------------------------------------------------------------------------
# Slab streaming: the residuals one axis-0 slab at a time, at every slab
# width, against the reference
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    """The tracemalloc peak of ``fn()`` in bytes, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _slice_bytes(extent):
    """Bytes of one time slice of a biquaternion field."""
    return math.prod(extent[1:]) * 4 * np.dtype(complex).itemsize


class TestSlabOracle:
    """Every slabbed kernel against the reference, bitwise, with the slab
    budget set to each width from one time slice to the extent."""

    lattice = HypercubicLattice(spacing=0.13, extent=(7, 4, 5, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))

    @pytest.fixture(autouse=True, params=range(1, 8))
    def width(self, request, monkeypatch):
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES",
                            request.param * _slice_bytes(self.lattice.extent))
        return request.param

    def fields(self, seed, count):
        rng = np.random.default_rng(seed)
        return [_random_values(rng, self.lattice) for _ in range(count)]

    def site(self, *index):
        """``index`` on axes 1-3, moved in to the interior of every mode."""
        return tuple(min(i, n - 2) for i, n in zip(index, self.lattice.extent[1:]))

    def test_slabs_tile_axis_0(self, width):
        slabs = lattice_module._slabs(self.lattice.extent)
        starts = [box[0].start for box in slabs]
        assert starts == list(range(0, 7, width))
        assert [box[0].stop for box in slabs] == starts[1:] + [7]
        assert all(box[1:] == tuple(slice(0, n) for n in self.lattice.extent[1:])
                   for box in slabs)

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply(self, mode, dagger):
        (vals,) = self.fields(1, 1)
        _assert_dirac(vals, self.lattice, mode, dagger)

    @pytest.mark.parametrize("basis", ["mixed", "transformed"])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_custom_basis(self, mode, basis):
        _assert_refused(self.lattice, mode, basis)

    def test_wave_apply(self):
        (vals,) = self.fields(3, 1)
        _assert_wave(vals, self.lattice)

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_residual_one_row(self, mode, dagger):
        # with no mass and one zero entry, the residual is the D row (or,
        # with ``dagger``, the D‡ row) alone
        if mode == "forward":
            return _assert_refused(self.lattice, mode)
        vals, potential = self.fields(4, 2)
        zero = np.zeros_like(vals)
        phi = ReflectorField(self.lattice, *((vals, zero) if dagger else (zero, vals)))
        _assert_report(phi, LatticeField(self.lattice, potential), 0.61, 0.0, mode)

    @pytest.mark.parametrize("potential", [
        "field", "pair", Biquaternion(-0.2j, 0.1, 0, 0.03), I1, -I0,
        Biquaternion(0)])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_residual_potentials(self, mode, potential):
        # a field, or a constant with general, ±1, ±1j and zero coefficients;
        # an (upper, lower) pair of fields is no potential form
        phi1, phi2, values = self.fields(5, 3)
        phi = ReflectorField(self.lattice, phi1, phi2)
        mass = renormalize_mass(1.3, a=0.1, R_k=0.2)
        if potential == "pair":
            field = LatticeField(self.lattice, values)
            with pytest.raises(TypeError):
                dirac_residual(phi, (field, field), -0.8, mass, mode)
            return
        if mode == "forward":
            return _assert_refused(self.lattice, mode)
        pot = (LatticeField(self.lattice, values) if potential == "field"
               else constant_field(self.lattice, potential))
        for field in (phi, charge_conjugate_field(phi)):
            _assert_report(field, pot, -0.8, mass, mode)

    def test_photon_residual(self):
        a_vals, j_vals = self.fields(6, 2)
        _assert_photon(LatticeField(self.lattice, a_vals), LatticeField(self.lattice, j_vals))

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        LorentzTransform.boost([1, 0, 0], 0.9),
    ], ids=["identity", "rotation", "boost"])
    def test_equivalence(self, Z):
        _, latk, binding = build_lattices(a=0.1, R_k=0.23,
                                          extent=self.lattice.extent, Z=Z)
        a_vals, j_vals = self.fields(7, 2)
        _assert_equivalence(binding, LatticeField(latk, a_vals), LatticeField(latk, j_vals))

    @pytest.mark.parametrize("reflector", [False, True])
    def test_write_field(self, tmp_path, reflector):
        vals = self.fields(8, 2)
        obj = (ReflectorField(self.lattice, *vals) if reflector
               else LatticeField(self.lattice, vals[0]))
        write_field(tmp_path / "new.txt", obj)
        _write_field_per_value(tmp_path / "old.txt", obj)
        new, old = (tmp_path / "new.txt").read_bytes(), (tmp_path / "old.txt").read_bytes()
        assert new == old

    @pytest.mark.parametrize("residual", ["dirac", "photon", "equivalence"])
    def test_non_finite_interior_raises(self, residual):
        # an overflowing axis-0 difference in any one slab is found; the
        # equivalence residual used to report it as lk = lp = inf with a
        # commutation residual of 0, which reads as a pass
        (base,) = self.fields(9, 1)
        _, latk, binding = build_lattices(  # R_k = a: transport stays finite
            a=self.lattice.spacing, R_k=self.lattice.spacing,
            extent=self.lattice.extent, Z=LorentzTransform.identity())
        site = self.site(2, 2, 1)
        for t in range(2, 7):
            vals = base.copy()
            vals[(t - 1, *site, 0)], vals[(t, *site, 0)] = -1e308, 1e308
            with pytest.raises(FloatingPointError):  # and no warning
                if residual == "dirac":
                    dirac_residual(ReflectorField(self.lattice, base, vals),
                                   constant_field(self.lattice, Biquaternion(0.5)),
                                   e=1.0, mass=1.0)
                elif residual == "photon":
                    photon_residual(LatticeField(self.lattice, vals),
                                    LatticeField(self.lattice, base))
                else:
                    equivalence_check(binding, LatticeField(latk, vals),
                                      LatticeField(latk, base))

    @pytest.mark.parametrize("kind", ["potential", "current"])
    def test_overflowing_transport_raises(self, kind):
        # R_k/a > 1 carries a value near the largest double past it; A_k is
        # carried on every slice, J_k on the interior the residual reads
        _, latk, binding = build_lattices(a=0.1, R_k=0.23,
                                          extent=self.lattice.extent,
                                          Z=LorentzTransform.identity())
        a_vals, j_vals = self.fields(10, 2)
        for t in range(7) if kind == "potential" else range(1, 6):
            vals = (a_vals if kind == "potential" else j_vals).copy()
            vals[(t, *self.site(1, 2, 1), 2)] = 1.5e308
            A = LatticeField(latk, vals if kind == "potential" else a_vals)
            J = LatticeField(latk, vals if kind == "current" else j_vals)
            with pytest.raises(DomainError, match=f"transported {kind}"):
                equivalence_check(binding, A, J)

    def test_current_read_on_the_interior_only(self):
        # the flat kernel carries J_k on whole time slices; an overflowing
        # value at an edge site of axes 1-3, which no stencil reads, changes
        # nothing, and the same value inside still raises
        _, latk, binding = build_lattices(a=0.1, R_k=0.23,
                                          extent=self.lattice.extent,
                                          Z=LorentzTransform.identity())
        a_vals, j_vals = self.fields(10, 2)
        A = LatticeField(latk, a_vals)
        want = equivalence_check(binding, A, LatticeField(latk, j_vals))
        inside = self.site(1, 2, 1)

        def overflowing(t, site):
            vals = j_vals.copy()
            vals[(t, *site, 2)] = 1.5e308
            return LatticeField(latk, vals)

        for t in (1, 3, 5):
            for axis, end in itertools.product((0, 1, 2), (0, -1)):
                edge = list(inside)
                edge[axis] = end % self.lattice.extent[axis + 1]
                assert equivalence_check(binding, A, overflowing(t, edge)) == want
            with pytest.raises(DomainError, match="transported current"):
                equivalence_check(binding, A, overflowing(t, inside))


class TestSlabOracleNarrowAxis1(TestSlabOracle):
    """The slab oracle with axis 1 three sites wide: two thirds of every
    time slice lie on an edge of axis 1, and the 3-point interior is one
    site wide."""

    lattice = HypercubicLattice(spacing=0.13, extent=(7, 3, 5, 4),
                                origin=(0.1, -0.3, 0.2, 0.0))


class TestSlabOracleNarrowAxis2(TestSlabOracle):
    """The slab oracle with axis 2 three sites wide."""

    lattice = HypercubicLattice(spacing=0.13, extent=(7, 4, 3, 5),
                                origin=(0.1, -0.3, 0.2, 0.0))


class TestSlabOracleNarrowAxes(TestSlabOracle):
    """The slab oracle with axes 1-3 three sites wide: 26 of the 27 sites of
    a time slice are edge sites, one is interior to the 3-point stencil."""

    lattice = HypercubicLattice(spacing=0.13, extent=(7, 3, 3, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))


class TestBroadcastFieldOracle:
    """The orbit wave function, stored as one ``(x0, s)`` block broadcast
    along ``r`` and ``x3``, against a dense copy of its values, bitwise, with
    the slab budget set to each width from one time slice to the extent."""

    extent = (7, 4, 5, 3)

    @pytest.fixture(autouse=True, params=range(1, 8))
    def width(self, request, monkeypatch):
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES",
                            request.param * _slice_bytes(self.extent))
        return request.param

    def orbit_fields(self, lattice):
        """The orbit field and its charge conjugate, each with a dense copy."""
        phi = bohr_phi_field(lattice, alpha_state())
        pairs = []
        for field in (phi, charge_conjugate_field(phi)):
            dense = ReflectorField(lattice, np.array(field.phi1), np.array(field.phi2))
            for compact, copy in ((field.phi1, dense.phi1), (field.phi2, dense.phi2)):
                assert np.moveaxis(compact, -1, 0).strides[3:] == (0, 0)
                assert np.moveaxis(copy, -1, 0).flags.c_contiguous
            pairs.append((field, dense))
        return pairs

    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_dirac_residual(self, mode, width, monkeypatch):
        # the budget in slices of the stored (x0, s) block, so that the walk
        # over it is cut into slabs too
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES",
                            width * _slice_bytes(self.extent[:2] + (1, 1)))
        lat = HypercubicLattice(spacing=0.13, extent=self.extent,
                                origin=(0.1, -0.3, 0.2, 0.0))
        potentials = (bohr_potential_field(lat, alpha_state()),
                      LatticeField(lat, _random_values(np.random.default_rng(17), lat)))
        for field, dense in self.orbit_fields(lat):
            for pot, e in itertools.product(potentials, (1.0, -0.8)):
                got, want = (_hexes(dirac_residual(f, pot, e, 1.3, mode))
                             for f in (field, dense))
                assert got == want

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_dirac_residual_stored_axis(self, mode, axis, width, monkeypatch):
        # blocks stored with one site on ``axis``, built from public broadcast
        # views as ``constant_field`` is, against dense copies; the budget is
        # in slices of the stored block, so the walk over it is cut into slabs
        shape = tuple(1 if k == axis else n for k, n in enumerate(self.extent))
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", width * _slice_bytes(shape))
        lat = HypercubicLattice(spacing=0.13, extent=self.extent,
                                origin=(0.1, -0.3, 0.2, 0.0))
        rng = np.random.default_rng(19 + axis)
        psi, chi, block = (rng.normal(size=(4,) + shape) + 1j * rng.normal(size=(4,) + shape)
                           for _ in range(3))
        zero = np.zeros_like(psi)

        def view(planes):
            return np.moveaxis(np.broadcast_to(planes, (4,) + self.extent), 0, -1)

        potentials = (constant_field(lat, Biquaternion(0.2, -0.4j, 0.1, 0.3j)),
                      LatticeField(lat, view(block)),
                      LatticeField(lat, _random_values(rng, lat)))
        # with one entry zero and no mass, one row alone is the report
        for (phi1, phi2), mass in (((psi, chi), 1.3), ((zero, chi), 0.0), ((psi, zero), 0.0)):
            field = ReflectorField(lat, view(phi1), view(phi2))
            copy = ReflectorField(lat, np.array(view(phi1)), np.array(view(phi2)))
            assert np.moveaxis(field.phi1, -1, 0).strides[axis + 1] == 0
            for pot, e in itertools.product(potentials, (1.0, -0.8)):
                got = _hexes(dirac_residual(field, pot, e, mass, mode))
                want = _hexes(dirac_residual(
                    copy, LatticeField(lat, np.array(pot.values)), e, mass, mode))
                assert got == want

    def test_write_field(self, tmp_path):
        lat = HypercubicLattice(spacing=0.13, extent=self.extent,
                                origin=(0.1, -0.3, 0.2, 0.0))
        for field, dense in self.orbit_fields(lat):
            write_field(tmp_path / "compact.txt", field)
            write_field(tmp_path / "dense.txt", dense)
            assert ((tmp_path / "compact.txt").read_bytes()
                    == (tmp_path / "dense.txt").read_bytes())

    @pytest.mark.parametrize("kind", ["derivative", "operator"])
    def test_transform_field(self, kind, width, monkeypatch):
        # the budget in slices of the carried (x0, s) block, as for the residual
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES",
                            width * _slice_bytes(self.extent[:2] + (1, 1)))
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=self.extent,
                                          Z=boosted_rotation([0, 1, 1], 0.4, [1, 0, 0], 0.7))
        for field, dense in self.orbit_fields(latk):
            got, want = (transform_field(kind, f, binding) for f in (field, dense))
            assert got.phi1.tobytes() == want.phi1.tobytes()
            assert got.phi2.tobytes() == want.phi2.tobytes()

    # Fields built from public broadcast views of random blocks with one
    # stored site on the axes ``ones``, each operand stored or a dense copy.

    def views(self, seed, ones, count):
        """``count`` broadcast views of random blocks, one site on ``ones``."""
        rng = np.random.default_rng(seed)
        shape = tuple(1 if k in ones else n for k, n in enumerate(self.extent)) + (4,)
        return [np.broadcast_to(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                                self.extent + (4,)) for _ in range(count)]

    def stored_or_dense(self, lattice, views, ones, width, monkeypatch):
        """Every choice of a stored field or a dense copy per view, with the
        slab budget in slices of the shape the walk takes: the stored block
        when all are stored, else the extent."""
        for stored in itertools.product((True, False), repeat=len(views)):
            walked = tuple(1 if k in ones and all(stored) else n
                           for k, n in enumerate(self.extent))
            monkeypatch.setattr(lattice_module, "_SLAB_BYTES", width * _slice_bytes(walked))
            fields = [LatticeField(lattice, v if s else np.array(v))
                      for v, s in zip(views, stored)]
            for f, s in zip(fields, stored):
                assert all(np.moveaxis(f.values, -1, 0).strides[k + 1] == 0
                           for k in ones) == s
            yield fields

    @pytest.mark.parametrize("ones", [(0,), (1,), (2, 3), (0, 1, 2, 3)],
                             ids=["axis0", "axis1", "axes23", "scalar"])
    def test_photon_residual_stored_operands(self, ones, width, monkeypatch):
        lat = HypercubicLattice(spacing=0.13, extent=self.extent,
                                origin=(0.1, -0.3, 0.2, 0.0))
        reports = [_hexes(photon_residual(A, J))
                   for A, J in self.stored_or_dense(lat, self.views(23, ones, 2), ones,
                                                    width, monkeypatch)]
        assert reports == [reports[-1]] * 4

    @pytest.mark.parametrize("ones", [(0,), (1,), (2, 3), (0, 1, 2, 3)],
                             ids=["axis0", "axis1", "axes23", "scalar"])
    def test_equivalence_check_stored_operands(self, ones, width, monkeypatch):
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=self.extent,
                                          Z=boosted_rotation([0, 1, 1], 0.4, [1, 0, 0], 0.7))
        reports = [_hexes(equivalence_check(binding, A, J))
                   for A, J in self.stored_or_dense(latk, self.views(29, ones, 2), ones,
                                                    width, monkeypatch)]
        assert reports == [reports[-1]] * 4

    @pytest.mark.parametrize("kind", ["current", "derivative"])
    @pytest.mark.parametrize("ones", [(0,), (1,), (2, 3), (0, 1, 2, 3)],
                             ids=["axis0", "axis1", "axes23", "scalar"])
    def test_transform_field_stored_block(self, ones, kind, width, monkeypatch):
        # the transport carries the stored block, which stays stored; the
        # budget is in slices of that block
        shape = tuple(1 if k in ones else n for k, n in enumerate(self.extent))
        monkeypatch.setattr(lattice_module, "_SLAB_BYTES", width * _slice_bytes(shape))
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=self.extent,
                                          Z=boosted_rotation([0, 1, 1], 0.4, [1, 0, 0], 0.7))
        views = self.views(31, ones, 2)
        got = [transform_field(kind, f, binding) for f in (
            LatticeField(latk, views[0]), ReflectorField(latk, *views))]
        want = [transform_field(kind, f, binding) for f in (
            LatticeField(latk, np.array(views[0])),
            ReflectorField(latk, *map(np.array, views)))]
        for g, w in zip([got[0].values, got[1].phi1, got[1].phi2],
                        [want[0].values, want[1].phi1, want[1].phi2]):
            assert all(np.moveaxis(g, -1, 0).strides[k + 1] == 0 for k in ones)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("residual", ["photon", "equivalence"])
    def test_overflowing_constant_raises_stored_and_dense(self, residual):
        # (v - 2v) + v overflows at v = 1e308: a one-site axis reads itself
        # as its neighbour, so the stored walk raises as the dense one does
        _, latk, binding = build_lattices(  # R_k = a: transport stays finite
            a=0.13, R_k=0.13, extent=self.extent, Z=LorentzTransform.identity())
        big = np.broadcast_to(np.array([1e308, 0, 0, 0], complex), self.extent + (4,))
        (source,) = self.views(37, (0, 1, 2, 3), 1)
        for a, j in ((big, source), (np.array(big), np.array(source))):
            A, J = LatticeField(latk, a), LatticeField(latk, j)
            with pytest.raises(FloatingPointError):
                if residual == "photon":
                    photon_residual(A, J)
                else:
                    equivalence_check(binding, A, J)


class TestBroadcastFieldOracleNarrowAxes(TestBroadcastFieldOracle):
    """The broadcast oracle with axes 1-3 three sites wide."""

    extent = (7, 3, 3, 3)


# ---------------------------------------------------------------------------
# The reciprocal step: the kernels scale each difference's parts by 1/h, as
# the reference does, on signed zeros and on overflowing differences
# ---------------------------------------------------------------------------

class TestReciprocalStep:
    """Scaling by the step's reciprocal keeps the reference's bits, zero
    signs and overflows included; no numpy warning leaks."""

    lattice = HypercubicLattice(spacing=0.37, extent=(6, 5, 4, 5))

    def overflowing(self, rng):
        """Zero-laden values whose axis-0 and axis-1 differences at interior
        sites overflow in every mode: ``1e308 - (-1e308)``, zero imaginary
        parts."""
        vals = _zero_laden(rng, _random_values(rng, self.lattice))
        vals[1:3, 2, 2, 2, 1], vals[3, 2, 2, 2, 1] = -1e308 + 0j, 1e308 - 0j
        vals[2, 1, 2, 2, 1], vals[2, 3, 2, 2, 1] = -1e308 + 0j, 1e308 - 0j
        return vals

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply(self, mode):
        rng = np.random.default_rng(21)
        finite = _zero_laden(rng, _random_values(rng, self.lattice))
        for dagger in (False, True):
            with np.errstate(all="raise"):  # and so no warning either
                _assert_dirac(finite, self.lattice, mode, dagger)
        if mode == "backward":
            # the overflowing differences: D subtracts the axis-1 one (its
            # unit's -1), so -inf stays -inf, and multiplies the axis-0 one
            # by i, whose product with inf has a NaN part, as in the reference
            vals = self.overflowing(rng)
            with np.errstate(all="raise"):
                got = dirac_apply_values(vals, self.lattice)
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference.padded(reference.dirac(vals, self.lattice.step),
                                        vals.shape, BACKWARD)
            assert got.tobytes() == want.tobytes() and np.isinf(got).any()

    def test_wave_apply(self):
        rng = np.random.default_rng(22)
        for vals in (_zero_laden(rng, _random_values(rng, self.lattice)),
                     self.overflowing(rng)):
            with np.errstate(all="raise"):
                got = wave_apply(vals, self.lattice)
            with np.errstate(over="ignore", invalid="ignore"):
                want = reference.padded(reference.wave(vals, self.lattice.step),
                                        vals.shape, reference.WAVE)
            assert got.tobytes() == want.tobytes()

    def test_residual_reports_unchanged(self):
        rng = np.random.default_rng(23)
        lat = self.lattice
        phi1, phi2, pot, J = (_zero_laden(rng, _random_values(rng, lat)) for _ in range(4))
        phi = ReflectorField(lat, phi1, phi2)
        _assert_refused(lat, "forward")
        for mode in ("backward", "central"):
            _assert_report(phi, LatticeField(lat, pot), 0.7, 1.1, mode)
        _, latk, binding = build_lattices(a=0.3, R_k=0.37, extent=lat.extent,
                                          Z=LorentzTransform.boost([0, 1, 0], 0.5))
        _assert_photon(LatticeField(lat, pot), LatticeField(lat, J))
        _assert_equivalence(binding, LatticeField(latk, pot), LatticeField(latk, J))

    def test_infinite_value_leaks_no_warning(self):
        # the division warned "invalid value encountered in divide" at each
        # axis the inf is differenced along; the wrapped sites next to it,
        # computed and discarded, must not warn either
        lat = HypercubicLattice(spacing=0.25, extent=(4,) * 4)
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[3, 3, 3, 3, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dirac_apply_values(vals, lat)
        assert np.isinf(got[3, 3, 3, 3]).any()
        assert np.isnan(got[0]).all() and np.isfinite(got[1, 1, 1, 1]).all()


class TestSlabMemory:
    """At the default slab budget the residuals' temporaries stay under half
    a field; whole-array kernels need about four fields."""

    extent = (16,) * 4

    def test_dirac_residual(self):
        lat = HypercubicLattice(spacing=0.05, extent=self.extent)
        rng = np.random.default_rng(11)
        phi = ReflectorField(lat, _random_values(rng, lat),
                             _random_values(rng, lat))
        pot = LatticeField(lat, _random_values(rng, lat))
        for A in (pot, constant_field(lat, Biquaternion(-0.3j))):
            peak, _ = _traced_peak(lambda: dirac_residual(phi, A, e=1.0, mass=1.0))
            assert peak <= 0.19 * phi.phi1.nbytes

    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_dirac_residual_broadcast_wave_function(self, mode):
        # the orbit field's residual walks its stored (x0, s) blocks: the
        # temporaries are a few such blocks, none the size of a slab
        lat = HypercubicLattice(spacing=0.05, extent=self.extent)
        state = alpha_state()
        phi, pot = bohr_phi_field(lat, state), bohr_potential_field(lat, state)
        stored = math.prod(self.extent[:2]) * 4 * np.dtype(complex).itemsize
        for psi in (phi, charge_conjugate_field(phi)):
            peak, _ = _traced_peak(lambda: dirac_residual(psi, pot, 1.0, 1.0, mode))
            assert peak <= 6 * stored

    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_dirac_residual_orbit_cross_section(self, mode):
        # the r and x3 extents cost nothing: one orbit state on a 3 x 3 and
        # on a 64 x 64 cross-section gives the same reports and peak
        state = alpha_state()
        runs = []
        for extent in ((8, 8, 3, 3), (8, 8, 64, 64)):
            lat = HypercubicLattice(spacing=0.05, extent=extent)
            phi, pot = bohr_phi_field(lat, state), bohr_potential_field(lat, state)
            fields = (phi, charge_conjugate_field(phi))
            dirac_residual(phi, pot, 1.0, 1.0, mode)  # the unit rows are cached
            runs.append(_traced_peak(lambda: [
                _hexes(dirac_residual(psi, pot, e, 1.0, mode))
                for psi, e in zip(fields, (1.0, -1.0))]))
        (small_peak, small), (big_peak, big) = runs
        assert big == small
        assert big_peak <= small_peak

    def test_photon_residual(self):
        # two slab buffers: the source is read in place, never copied
        lat = HypercubicLattice(spacing=0.05, extent=self.extent)
        rng = np.random.default_rng(13)
        A = LatticeField(lat, _random_values(rng, lat))
        J = LatticeField(lat, _random_values(rng, lat))
        peak, _ = _traced_peak(lambda: photon_residual(A, J))
        assert peak <= 0.2 * A.values.nbytes

    def test_equivalence_check(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=self.extent,
            Z=LorentzTransform.boost([1, 0, 0], 0.7))
        rng = np.random.default_rng(12)
        A = LatticeField(latk, _random_values(rng, latk))
        J = LatticeField(latk, _random_values(rng, latk))
        peak, _ = _traced_peak(lambda: equivalence_check(binding, A, J))
        assert peak <= 0.5 * A.values.nbytes

    def test_zero_stride_potential_in_the_wave_residuals(self):
        # the orbit potential's broadcast planes are shifted and carried as
        # views: the same report as a copied field, and no field allocated
        state = alpha_state()
        rng = np.random.default_rng(15)
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=self.extent,
            Z=LorentzTransform.boost([1, 0, 0], 0.7))
        pot = bohr_potential_field(latk, state)
        copied = LatticeField(latk, np.array(pot.values))
        J = LatticeField(latk, _random_values(rng, latk))
        for residual, bound in ((photon_residual, 0.2), (
                lambda A, J: equivalence_check(binding, A, J), 0.5)):
            peak, got = _traced_peak(lambda: residual(pot, J))
            assert got == residual(copied, J)
            assert peak <= bound * copied.values.nbytes

    def test_stored_wave_residuals(self):
        # fields built from broadcast views of (x0, x1) blocks keep those
        # blocks, and both wave residuals walk them: construction included,
        # the peak is a few stored blocks (5 and 8 measured), not the dense
        # field of 256 blocks a copied view costs
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=self.extent,
            Z=LorentzTransform.boost([1, 0, 0], 0.7))
        rng = np.random.default_rng(16)
        shape = self.extent[:2] + (1, 1, 4)
        a, j = (np.broadcast_to(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                                self.extent + (4,)) for _ in range(2))
        stored = math.prod(shape) * np.dtype(complex).itemsize
        for residual in (photon_residual, lambda A, J: equivalence_check(binding, A, J)):
            residual(LatticeField(latk, a), LatticeField(latk, j))  # caches warm
            peak, _ = _traced_peak(
                lambda: residual(LatticeField(latk, a), LatticeField(latk, j)))
            assert peak <= 10 * stored

    def test_read_field(self, tmp_path):
        # the body is parsed one slab of lines at a time, never held whole
        lat = HypercubicLattice(spacing=0.05, extent=self.extent)
        rng = np.random.default_rng(14)
        write_field(tmp_path / "phi.txt", ReflectorField(
            lat, _random_values(rng, lat), _random_values(rng, lat)))
        peak, back = _traced_peak(lambda: read_field(tmp_path / "phi.txt"))
        assert peak <= 1.6 * (back.phi1.nbytes + back.phi2.nbytes)


# ---------------------------------------------------------------------------
# Component-major storage and the plane kernels: the reference's bits from
# either layout
# ---------------------------------------------------------------------------

def _component_major(values):
    """``values`` stored as C-contiguous component planes, seen as before."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)


class TestPlaneKernels:
    lattice = HypercubicLattice(spacing=0.13, extent=(5, 4, 6, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))

    @pytest.mark.parametrize("basis", [None, "mixed", "transformed"])
    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_signed_zeros(self, mode, dagger, basis):
        # half the parts are +0.0 or -0.0, so that differences of
        # neighbours are often signed zeros
        if mode == "forward" or basis is not None:
            return _assert_refused(self.lattice, mode, basis)
        rng = np.random.default_rng(31)
        vals = _zero_laden(rng, _random_values(rng, self.lattice))
        for layout in (vals, _component_major(vals)):
            _assert_dirac(layout, self.lattice, mode, dagger)

    def test_max_norm_per_site(self):
        rng = np.random.default_rng(37)
        shape = (3, 4, 5, 2, 4)
        vals = (10.0 ** rng.uniform(-300, 300, size=shape)
                * np.exp(1j * rng.uniform(0, 2 * np.pi, size=shape)))
        vals[1, 2, 3, 0, 2] = complex(np.nan, 1.0)
        with np.errstate(over="ignore", under="ignore"):
            want = bq_frobenius_arr(vals)
            for values in (vals, _component_major(vals)):
                planes = np.moveaxis(values, -1, 0)
                got = [lattice_module._max_norm(
                    planes[(slice(None),) + tuple(slice(i, i + 1) for i in site)])
                    for site in np.ndindex(shape[:-1])]
                np.testing.assert_array_equal(np.reshape(got, want.shape), want)
                assert math.isnan(lattice_module._max_norm(planes))
            vals[1, 2, 3, 0, 2] = 1.0
            assert (lattice_module._max_norm(np.moveaxis(vals, -1, 0))
                    == np.max(bq_frobenius_arr(vals)))

    def test_every_constructor_stores_component_planes(self, tmp_path):
        lat = self.lattice
        rng = np.random.default_rng(41)
        vals, other = _random_values(rng, lat), _random_values(rng, lat)
        _, latk, binding = build_lattices(a=0.1, R_k=0.2, extent=lat.extent,
                                          Z=LorentzTransform.boost([1, 0, 0], 0.4))
        phi = ReflectorField(lat, vals, other)
        field = LatticeField(lat, vals)
        write_field(tmp_path / "reflector", phi)
        write_field(tmp_path / "field", field)
        state = alpha_state()
        built = {
            "public": field,
            "public-reflector": phi,
            "public-component-major": LatticeField(lat, _component_major(vals)),
            "internal": LatticeField(lat, lattice_module._Planes(
                np.ascontiguousarray(np.moveaxis(vals, -1, 0)))),
            "orbit-bohr_phi_field": bohr_phi_field(lat, state),
            "orbit-charge_conjugate_field": charge_conjugate_field(
                bohr_phi_field(lat, state)),
            "bohr_potential_field": bohr_potential_field(lat, state),
            "charge_conjugate_field": charge_conjugate_field(phi),
            "read_field": read_field(tmp_path / "field"),
            "read_field-reflector": read_field(tmp_path / "reflector"),
            "transform_field": transform_field("current", LatticeField(latk, vals),
                                               binding),
            "transform_field-reflector": transform_field(
                "derivative", ReflectorField(latk, vals, other), binding),
        }
        for name, f in built.items():
            entries = ((f.phi1, f.phi2) if isinstance(f, ReflectorField)
                       else (f.values,))
            for v in entries:
                assert v.shape == lat.extent + (4,), name
                assert v.dtype == complex and not v.flags.writeable, name
                planes = np.moveaxis(v, -1, 0)
                if name == "bohr_potential_field":  # one site, broadcast
                    assert planes.strides[1:] == (0, 0, 0, 0), name
                elif name.startswith("orbit"):  # one (x0, s) block, broadcast
                    assert planes.strides[3:] == (0, 0), name
                    assert lattice_module._stored(planes).shape == (4, *lat.extent[:2], 1, 1)
                    assert lattice_module._stored(planes).flags.c_contiguous, name
                else:
                    assert planes.flags.c_contiguous, name
        assert np.array_equal(built["read_field"].values, vals)
        assert np.array_equal(built["read_field-reflector"].phi2, other)

    def test_public_constructor_snapshots_input(self):
        vals = _random_values(np.random.default_rng(43), self.lattice)
        for layout in (vals, _component_major(vals)):
            field = LatticeField(self.lattice, layout)
            assert not np.shares_memory(field.values, layout)
            assert field.values.tobytes() == vals.tobytes()

    def test_public_constructor_keeps_a_views_stored_block(self):
        # a broadcast view keeps its stored block, copied and read-only; a
        # broadcast scalar strides its components by 0 too, and keeps all four
        extent = self.lattice.extent
        rng = np.random.default_rng(44)
        block = rng.normal(size=(5, 1, 6, 1, 4)) + 1j * rng.normal(size=(5, 1, 6, 1, 4))
        for view, stored in ((np.broadcast_to(block, extent + (4,)), (4, 5, 1, 6, 1)),
                             (np.broadcast_to(2.5j, extent + (4,)), (4, 1, 1, 1, 1))):
            pair = ReflectorField(self.lattice, view, view)
            for values in (LatticeField(self.lattice, view).values, pair.phi1, pair.phi2):
                planes = lattice_module._stored(np.moveaxis(values, -1, 0))
                assert planes.shape == stored and planes.flags.c_contiguous
                assert not values.flags.writeable and not planes.flags.writeable
                assert not np.shares_memory(values, view)
                assert values.tobytes() == np.array(view).tobytes()

    def test_adopted_planes_are_checked(self):
        planes = np.zeros((4,) + self.lattice.extent, dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            LatticeField(self.lattice, lattice_module._Planes(planes[:, 1:]))
        planes[2, 1, 1, 1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LatticeField(self.lattice, lattice_module._Planes(planes))
