import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bohrqed.algebra import (
    BASIS,
    I0,
    I1,
    Biquaternion,
    LorentzTransform,
    bq_frobenius_arr,
    bq_mul_arr,
)
from bohrqed.bohr import BohrInput, SupercriticalCoupling, solve_bohr
from bohrqed import lattice as lattice_module
from bohrqed.fitting import fit_loglog
from bohrqed.lattice import (
    BoundarySite,
    EquivalenceReport,
    HypercubicLattice,
    LatticeField,
    MassTerm,
    ReflectorField,
    ResidualReport,
    bohr_phi_field,
    bohr_potential_field,
    build_lattices,
    charge_conjugate_field,
    dirac_apply_values,
    dirac_residual,
    discrete_dirac_apply,
    discrete_partial,
    equivalence_check,
    interior_view,
    limit_sweep,
    photon_residual,
    read_field,
    renormalize_mass,
    transform_field,
    wave_apply,
    write_field,
)

ALPHA = 1.0 / 137.035999


def pairwise_orders(spacings, residuals) -> list[float]:
    """log2 refinement ratios for successive spacing halvings."""
    return [math.log(residuals[i] / residuals[i + 1])
            / math.log(spacings[i] / spacings[i + 1])
            for i in range(len(spacings) - 1)]


def small_lattice(spacing=0.25, extent=(6, 6, 6, 6)):
    return HypercubicLattice(spacing=spacing, extent=extent)


def scalar_field(lattice, grid_fn):
    grids = lattice.coordinate_grids()
    vals = np.zeros(lattice.extent + (4,), dtype=complex)
    vals[..., 0] = grid_fn(grids)
    return LatticeField(lattice, vals)


def alpha_state():
    return solve_bohr(BohrInput(e=1.0, f=-ALPHA, n=1, m=1.0))


class TestLatticeType:
    def test_step_is_twice_spacing(self):
        lat = small_lattice(0.3)
        assert lat.step == pytest.approx(0.6)
        assert np.allclose(np.diff(lat.axis_coords(2)), 0.6)

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
        out = discrete_partial(f, (2, 2, 2, 2), mu=1)
        assert out.frobenius() < 1e-14

    def test_linear_field_exact(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = discrete_partial(f, (2, 3, 2, 2), mu=1)
        assert out.w == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_backward_bias(self):
        # backward difference of x^2 over step 2h gives 2x - 2h
        lat = small_lattice(spacing=0.25)
        f = scalar_field(lat, lambda g: g[2] ** 2)
        site = (2, 2, 3, 2)
        x = lat.axis_coords(2)[3]
        out = discrete_partial(f, site, mu=2)
        assert out.w == pytest.approx(2 * x - 2 * lat.spacing, rel=1e-12)

    def test_boundary_raises(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[0])
        with pytest.raises(BoundarySite):
            discrete_partial(f, (0, 2, 2, 2), mu=0)

    def test_central_mode(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[3] ** 2)
        x = lat.axis_coords(3)[2]
        out = discrete_partial(f, (2, 2, 2, 2), mu=3, mode="central")
        assert out.w == pytest.approx(2 * x, rel=1e-12)  # central is exact here


class TestDiracApply:
    def test_constant_field(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: np.full(lat.extent, 2.0 + 1j))
        out = discrete_dirac_apply(f, (2, 2, 2, 2))
        assert out.frobenius() < 1e-14

    def test_linear_x1_gives_i1(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = discrete_dirac_apply(f, (2, 2, 2, 2))
        assert (out - I1).frobenius() < 1e-13

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
            want = np.stack([Biquaternion.from_array(v) *
                             [Biquaternion(0, 1), Biquaternion(0, 0, 1),
                              Biquaternion(0, 0, 0, 1)][k - 1]
                             for v in interior_view(ref, "backward")
                             .reshape(-1, 4)]).reshape(-1)
            got = np.array([c for q in interior_view(applied, "backward")
                            .reshape(-1, 4)
                            for c in Biquaternion.from_array(q).as_array()])
            want_flat = np.array([c for q in want for c in q.as_array()])
            assert np.allclose(got, want_flat, atol=1e-14)

    def test_dagger_flips_spatial_basis(self):
        lat = small_lattice()
        f = scalar_field(lat, lambda g: g[1])
        out = discrete_dirac_apply(f, (2, 2, 2, 2), dagger=True)
        assert (out + I1).frobenius() < 1e-13

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
            err = interior_view(got - want, "backward")
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
        # cancellation, on which both routes are exact
        lat = small_lattice(spacing=0.2)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = (1.5 * grids[1] ** 2 - 0.5 * grids[0] ** 2
                        + 0.7 * grids[0] * grids[1]
                        + 1j * grids[2] * grids[3] + 2.0 * grids[3])
        inner = dirac_apply_values(vals, lat, dagger=True, mode="backward")
        outer = dirac_apply_values(inner, lat, dagger=False, mode="forward")
        direct = wave_apply(vals, lat, mode="composed")
        diff = interior_view(outer - direct, "composed")
        scale = np.nanmax(bq_frobenius_arr(interior_view(direct, "composed")))
        assert np.nanmax(bq_frobenius_arr(diff)) < 1e-12 * max(scale, 1.0)
        # and the result is the exact constant wave of the quadratic
        want = -2.0 * (-0.5) + 2.0 * 1.5
        assert np.allclose(interior_view(outer, "composed")[..., 0], want,
                           atol=1e-11)


class TestWaveOperator:
    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_exact_on_quadratics(self, mode):
        lat = small_lattice(spacing=0.17)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = (2.0 * grids[1] ** 2 - 0.5 * grids[0] ** 2
                        + grids[3] * 1.0 + 4.0)
        out = wave_apply(vals, lat, mode=mode)
        # -d0^2 + d1^2 applied: -(-1.0) + 4.0 = 5.0
        want = 5.0
        interior = interior_view(out, mode)
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

    def test_onesided_convergence_order_one(self):
        spacings = [0.2, 0.1, 0.05, 0.025]
        residuals = []
        for h in spacings:
            lat = HypercubicLattice(spacing=h, extent=(12, 12, 3, 3))
            grids = lat.coordinate_grids()
            vals = np.zeros(lat.extent + (4,), dtype=complex)
            vals[..., 0] = np.exp(1j * (0.9 * grids[1] - 0.5 * grids[0]))
            src = (0.5**2 - 0.9**2) * vals
            rep = photon_residual(LatticeField(lat, vals),
                                  LatticeField(lat, src), mode="onesided")
            residuals.append(rep.max_residual)
        slope = fit_loglog(spacings, residuals).slope
        assert 0.9 < slope < 1.5

    def test_half_point_collocation_constant_source(self):
        lat = small_lattice(spacing=0.2)
        grids = lat.coordinate_grids()
        vals = np.zeros(lat.extent + (4,), dtype=complex)
        vals[..., 0] = 1.5 * grids[2] ** 2
        src = np.zeros_like(vals)
        src[..., 0] = 3.0
        a = photon_residual(LatticeField(lat, vals), LatticeField(lat, src))
        b = photon_residual(LatticeField(lat, vals), LatticeField(lat, src),
                            collocation="half-point")
        assert b.max_residual == pytest.approx(a.max_residual, abs=1e-12)


class TestDiracResidual:
    def test_potential_on_other_lattice_raises(self):
        # regression: a 5^4 potential against a 4^4 phi returned a residual
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.1, extent=4)
        phi = bohr_phi_field(lat, state)
        same = bohr_potential_field(lat, state)
        for other in (HypercubicLattice(spacing=0.1, extent=5),
                      HypercubicLattice(spacing=0.2, extent=4)):
            pot = bohr_potential_field(other, state)
            for A in (pot, (same, pot), (pot, same)):
                with pytest.raises(ValueError, match="lattice"):
                    dirac_residual(phi, A, e=1.0, mass=1.0)

    def test_zero_wavefunction(self):
        lat = HypercubicLattice(spacing=0.1, extent=(6, 6, 3, 3))
        zeros = np.zeros(lat.extent + (4,), dtype=complex)
        phi = ReflectorField(lat, zeros, zeros)
        rep = dirac_residual(phi, Biquaternion(0), e=1.0, mass=1.0)
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize(("e", "mass", "named"), [
        (math.nan, 1.0, "e=nan, mass=1.0"),
        (1.0, math.inf, "e=1.0, mass=inf"),
        (1.0, MassTerm(global_magnitude=1.0, a=math.nan, R_k=0.3), "mass=nan"),
        (-math.inf, MassTerm(global_magnitude=math.inf, a=0.3, R_k=0.3),
         "e=-inf, mass=inf"),
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

        monkeypatch.setattr(lattice_module, "_with_buffers", no_slab)
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
        mt = renormalize_mass(state.input.m, a=0.3, R_k=0.3)
        direct = dirac_residual(phi, pot, e=state.input.e, mass=state.input.m)
        viamt = dirac_residual(phi, pot, e=state.input.e, mass=mt)
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
        from bohrqed.bohr import assemble_wavefunction
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
        # the two entries, which the field adopts uncopied, nothing 4-D more
        lat = HypercubicLattice(spacing=0.05, extent=(12,) * 4)
        peak, phi = _traced_peak(lambda: bohr_phi_field(lat, alpha_state()))
        assert peak <= 2.05 * phi.phi1.nbytes

    def test_potential_peak_memory(self):
        lat = HypercubicLattice(spacing=0.05, extent=(12,) * 4)
        peak, pot = _traced_peak(lambda: bohr_potential_field(lat, alpha_state()))
        assert peak <= 1.05 * pot.values.nbytes

    def test_charge_conjugate_peak_memory(self):
        lat = HypercubicLattice(spacing=0.05, extent=(12,) * 4)
        phi = bohr_phi_field(lat, alpha_state())
        peak, _ = _traced_peak(lambda: charge_conjugate_field(phi))
        assert peak <= 2.05 * phi.phi1.nbytes


class TestBuildLattices:
    def test_identity_same_spacing_pure_translation(self):
        latp, latk, binding = build_lattices(
            a=0.2, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        for idx in binding.neighbor_indices:
            orig_offset = (latk.site_position(idx)
                           - latk.site_position(binding.center_index))
            mapped_offset = (binding.mapped_site(idx)
                             - binding.mapped_site(binding.center_index))
            assert np.allclose(mapped_offset, orig_offset)

    def test_scaling_doubles_separation(self):
        latp, latk, binding = build_lattices(
            a=0.4, R_k=0.2, extent=(4, 4, 4, 4), Z=LorentzTransform.identity())
        idx = binding.neighbor_indices[0]
        mapped_offset = (binding.mapped_site(idx)
                         - binding.mapped_site(binding.center_index))
        assert np.linalg.norm(mapped_offset) == pytest.approx(0.8)

    def test_neighbors_inside_region(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=(3, 5, 4, 3), Z=LorentzTransform.identity())
        for idx in binding.neighbor_indices:
            assert all(0 <= i < e for i, e in zip(idx, latk.extent))

    def test_rotation_moves_neighbor_axis(self):
        Z = LorentzTransform.rotation([0, 0, 1], math.pi / 2)
        _, _, binding = build_lattices(a=0.2, R_k=0.2, extent=(4, 4, 4, 4), Z=Z)
        center = binding.mapped_site(binding.center_index)
        idx = list(binding.center_index)
        idx[1] += 1  # +x1 neighbor maps onto the +x2 axis
        offset = binding.mapped_site(tuple(idx)) - center
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
            Z=LorentzTransform.from_parts([1, -2, 0.5], 0.8, [0.3, 1, -1], 0.7))
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
            # a basis with a single unit coefficient picks out d_mu
            axis = [Biquaternion(int(nu == mu)) for nu in range(4)]
            lhs = dirac_apply_values(fp.values, binding.lattice_p, basis=axis)
            rhs = transform_field(
                "derivative",
                LatticeField(latk, np.nan_to_num(
                    dirac_apply_values(f.values, latk, basis=axis))),
                binding).values
            sel = interior_view(lhs - rhs, "backward")
            scale = np.max(bq_frobenius_arr(interior_view(lhs, "backward")))
            assert np.max(bq_frobenius_arr(sel)) < 1e-10 * max(scale, 1.0)

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
        sel = interior_view(lhs - rhs, "composed")
        scale = np.nanmax(bq_frobenius_arr(interior_view(lhs, "composed")))
        assert np.nanmax(bq_frobenius_arr(sel)) < 1e-10 * max(scale, 1.0)

    def test_operator_covariance_rotation_basis(self):
        # for exact lattice rotations the transformed basis contraction
        # reproduces Z applied after the compromise-frame operator
        from bohrqed.algebra import BASIS
        Z = LorentzTransform.rotation([0, 0, 1], math.pi / 2)
        _, latk, binding = build_lattices(a=0.1, R_k=0.2,
                                          extent=(5, 5, 5, 5), Z=Z)
        f = self.make_field(latk, seed=17)
        fp = transform_field("potential", f, binding)
        basis_p = [Z.apply(b) for b in BASIS]
        lhs = dirac_apply_values(fp.values, binding.lattice_p, basis=basis_p)
        rhs = (binding.R_k / binding.a) ** 2 * Z.apply_array(
            dirac_apply_values(f.values, latk))
        sel = interior_view(lhs - rhs, "backward")
        scale = np.nanmax(bq_frobenius_arr(interior_view(lhs, "backward")))
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

    @pytest.mark.parametrize("mode", ["backward", "bogus"])
    def test_unknown_mode_raises(self, mode):
        _, latk, binding = build_lattices(a=0.1, R_k=0.2, extent=(4, 4, 4, 4),
                                          Z=LorentzTransform.identity())
        with pytest.raises(ValueError, match="unknown difference mode"):
            equivalence_check(binding, *self.exact_pair(latk), mode=mode)

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
        mt = renormalize_mass(1.7, a=0.3, R_k=0.3)
        assert mt.per_region == pytest.approx(1.7)

    def test_doubling(self):
        mt = renormalize_mass(1.0, a=0.4, R_k=0.2)
        assert mt.per_region == pytest.approx(2.0)

    def test_bookkeeping_tight(self):
        mt = renormalize_mass(2.5, a=0.1, R_k=0.4)
        assert abs(mt.per_region - (0.1 / 0.4) * 2.5) < 1e-14

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
        res = limit_sweep(1.0, np.geomspace(1e-3, 1e-1, 7))
        for row in res.rows:
            state = solve_bohr(BohrInput(e=row.eB, f=-row.f, n=1, m=row.M))
            assert state.R == pytest.approx(row.R_k, rel=1e-12)

    def test_supercritical_propagates(self):
        with pytest.raises(SupercriticalCoupling):
            limit_sweep(1.0, [0.5, 1.0], T=10.0, J0=10.0)

    def test_two_point_low_confidence(self):
        res = limit_sweep(1.0, [1e-3, 1e-1])
        assert res.low_confidence

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_sweep(0.0, [0.01, 0.1])
        with pytest.raises(ValueError):
            limit_sweep(1.0, [0.01])


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

    def test_site_outside_extent(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        lines[6] = "3" + lines[6][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            read_field(path)

    def test_truncated_header(self, tmp_path):
        path, lines = self.written_lines(tmp_path)
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ValueError, match="header"):
            read_field(path)


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
    @given(pool=st.lists(EDGE_DOUBLES, min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1), reflector=st.booleans(),
           extent=st.tuples(*[st.integers(3, 4)] * 4),
           spacing=st.floats(min_value=1e-300, max_value=1e300),
           origin=st.tuples(*[EDGE_DOUBLES] * 4))
    @settings(max_examples=40, deadline=None)
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
        write_field(tmp / "new.txt", obj)
        _write_field_per_value(tmp / "old.txt", obj)
        assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()
        back = read_field(tmp / "new.txt")
        assert back.lattice == lat
        got = (np.concatenate([back.phi1, back.phi2], axis=-1) if reflector
               else back.values)
        assert got.tobytes() == vals.tobytes()


# ---------------------------------------------------------------------------
# Reference: the full-array stencils the interior kernels replaced.  Every
# difference is a NaN-padded full array and every basis unit a full Hamilton
# product; the interior kernels must reproduce their interiors bit for bit.
# ---------------------------------------------------------------------------

def _ref_slices(axis, sel):
    idx = [slice(None)] * 5
    idx[axis] = sel
    return tuple(idx)


def _ref_interior(values, mode):
    lo, hi = {"backward": (1, 0), "forward": (0, 1), "central": (1, 1),
              "composed": (1, 1), "onesided": (2, 0)}[mode]
    return values[tuple(slice(lo, values.shape[ax] - hi) for ax in range(4))]


def _ref_first_diff(values, axis, step, mode):
    out = np.full_like(values, np.nan + 0j)
    if mode == "backward":
        out[_ref_slices(axis, slice(1, None))] = (
            values[_ref_slices(axis, slice(1, None))]
            - values[_ref_slices(axis, slice(None, -1))]) / step
    elif mode == "forward":
        out[_ref_slices(axis, slice(None, -1))] = (
            values[_ref_slices(axis, slice(1, None))]
            - values[_ref_slices(axis, slice(None, -1))]) / step
    elif mode == "central":
        out[_ref_slices(axis, slice(1, -1))] = (
            values[_ref_slices(axis, slice(2, None))]
            - values[_ref_slices(axis, slice(None, -2))]) / (2.0 * step)
    else:
        raise ValueError(mode)
    return out


def _ref_dirac_apply(values, lattice, dagger=False, mode="backward", basis=None):
    if basis is None:
        basis = [BASIS[mu].quat_conj() if dagger else BASIS[mu]
                 for mu in range(4)]
    out = np.zeros(values.shape, dtype=complex)
    for mu in range(4):
        diff = _ref_first_diff(values, mu, lattice.step, mode)
        out = out + bq_mul_arr(basis[mu].as_array(), diff)
    return out


def _ref_wave_apply(values, lattice, mode="composed"):
    h2 = lattice.step ** 2
    out = np.zeros(values.shape, dtype=complex)
    for mu in range(4):
        second = np.full_like(values, np.nan + 0j)
        sel = slice(1, -1) if mode == "composed" else slice(2, None)
        second[_ref_slices(mu, sel)] = (
            values[_ref_slices(mu, slice(2, None))]
            - 2.0 * values[_ref_slices(mu, slice(1, -1))]
            + values[_ref_slices(mu, slice(None, -2))]) / h2
        out = out + (-second if mu == 0 else second)
    return out


def _ref_photon_residual(A, J, mode="composed", collocation="site"):
    lhs = _ref_wave_apply(A.values, A.lattice, mode=mode)
    rhs = J.values
    if collocation == "half-point":
        shifted = np.zeros_like(rhs)
        for mu in range(4):
            back = np.full_like(rhs, np.nan + 0j)
            back[_ref_slices(mu, slice(1, None))] = rhs[
                _ref_slices(mu, slice(None, -1))]
            shifted = shifted + back
        rhs = 0.5 * rhs + 0.5 * (shifted / 4.0)
    resid = bq_frobenius_arr(_ref_interior(lhs - rhs, mode))
    scale = float(np.max(bq_frobenius_arr(_ref_interior(rhs, mode))))
    scale = max(scale, float(np.max(bq_frobenius_arr(
        _ref_interior(lhs, mode)))), 1e-300)
    return ResidualReport(max_residual=float(resid.max()), field_scale=scale)


def _ref_dirac_residual(phi, a_upper, a_lower, e, m_k, mode="backward"):
    d_phi2 = _ref_dirac_apply(phi.phi2, phi.lattice, dagger=False, mode=mode)
    d_phi1 = _ref_dirac_apply(phi.phi1, phi.lattice, dagger=True, mode=mode)
    im = np.zeros(4, dtype=complex)
    im[0] = 1j * m_k
    r11 = d_phi2 - 1j * e * bq_mul_arr(a_upper, phi.phi2) \
        - bq_mul_arr(phi.phi1, im)
    r22 = d_phi1 - 1j * e * bq_mul_arr(a_lower, phi.phi1) \
        + bq_mul_arr(phi.phi2, im)
    n11 = bq_frobenius_arr(_ref_interior(r11, mode))
    n22 = bq_frobenius_arr(_ref_interior(r22, mode))
    scale = max(float(np.max(bq_frobenius_arr(phi.phi1))),
                float(np.max(bq_frobenius_arr(phi.phi2))), 1e-300)
    return ResidualReport(max_residual=max(float(n11.max()), float(n22.max())),
                          field_scale=scale)


def _ref_equivalence_check(binding, A_k, J_k, mode="composed"):
    lhs_k = _ref_wave_apply(A_k.values, binding.lattice_k, mode=mode)
    resid_k = lhs_k - J_k.values
    A_p = transform_field("potential", A_k, binding)
    J_p = transform_field("current", J_k, binding)
    lhs_p = _ref_wave_apply(A_p.values, binding.lattice_p, mode=mode)
    resid_p = lhs_p - J_p.values
    factor = (binding.R_k / binding.a) ** 3
    expected_p = factor * binding.Z.apply_array(resid_k)
    mismatch = bq_frobenius_arr(_ref_interior(resid_p - expected_p, mode))
    scale = max(float(np.max(bq_frobenius_arr(_ref_interior(lhs_p, mode)))),
                1e-300)
    return EquivalenceReport(
        lk_residual=float(np.max(bq_frobenius_arr(_ref_interior(resid_k, mode)))),
        lp_residual=float(np.max(bq_frobenius_arr(_ref_interior(resid_p, mode)))),
        commutation_residual=float(mismatch.max()) / scale,
        scale_factor=factor,
    )


def _random_values(rng, lattice, scale=1.0):
    shape = lattice.extent + (4,)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


#: Bases with general, ±1, ±1j and zero coefficients.
CUSTOM_BASES = {
    "transformed": [LorentzTransform.from_parts([0.3, -1, 2], 0.77,
                                                [1, 0.5, -0.2], 0.61).apply(b)
                    for b in BASIS],
    "mixed": [I1, -I0, Biquaternion(0.5, -1, 0, 2j), Biquaternion(-1j, 1, -1, 1j)],
}


def _assert_interior_equal(got, want, mode):
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.array_equal(_ref_interior(got, mode), _ref_interior(want, mode))


class TestInteriorStencilOracle:
    """The interior kernels against the full-array reference, bitwise."""

    lattice = HypercubicLattice(spacing=0.13, extent=(5, 4, 6, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply(self, mode, dagger):
        vals = _random_values(np.random.default_rng(1), self.lattice)
        _assert_interior_equal(
            dirac_apply_values(vals, self.lattice, dagger=dagger, mode=mode),
            _ref_dirac_apply(vals, self.lattice, dagger=dagger, mode=mode), mode)

    @pytest.mark.parametrize("basis", sorted(CUSTOM_BASES))
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_custom_basis(self, mode, basis):
        vals = _random_values(np.random.default_rng(2), self.lattice)
        b = CUSTOM_BASES[basis]
        _assert_interior_equal(
            dirac_apply_values(vals, self.lattice, mode=mode, basis=b),
            _ref_dirac_apply(vals, self.lattice, mode=mode, basis=b), mode)

    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_wave_apply(self, mode):
        vals = _random_values(np.random.default_rng(3), self.lattice)
        _assert_interior_equal(wave_apply(vals, self.lattice, mode=mode),
                               _ref_wave_apply(vals, self.lattice, mode=mode),
                               mode)

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_residual_general_pair(self, mode):
        rng = np.random.default_rng(4)
        lat = self.lattice
        phi = ReflectorField(lat, _random_values(rng, lat),
                             _random_values(rng, lat))
        upper = LatticeField(lat, _random_values(rng, lat, 0.3))
        lower = LatticeField(lat, _random_values(rng, lat, 0.7))
        got = dirac_residual(phi, (upper, lower), e=-0.37, mass=1.9, mode=mode)
        assert got == _ref_dirac_residual(phi, upper.values, lower.values,
                                          -0.37, 1.9, mode)

    @pytest.mark.parametrize("mode", ["backward", "central"])
    def test_dirac_residual_constant_potential_and_mass_term(self, mode):
        state = alpha_state()
        lat = HypercubicLattice(spacing=0.05, extent=(7, 6, 3, 3))
        phi = bohr_phi_field(lat, state)
        pot = Biquaternion(-0.2j, 0.1, 0, 0.03)
        mass = renormalize_mass(1.3, a=0.1, R_k=0.2)
        arr = np.broadcast_to(pot.as_array(), lat.extent + (4,))
        for field in (phi, charge_conjugate_field(phi)):
            got = dirac_residual(field, pot, e=0.8, mass=mass, mode=mode)
            assert got == _ref_dirac_residual(field, arr, arr, 0.8,
                                              mass.per_region, mode)

    @pytest.mark.parametrize("collocation", ["site", "half-point"])
    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_photon_residual(self, mode, collocation):
        rng = np.random.default_rng(5)
        A = LatticeField(self.lattice, _random_values(rng, self.lattice))
        J = LatticeField(self.lattice, _random_values(rng, self.lattice, 40.0))
        assert (photon_residual(A, J, mode=mode, collocation=collocation)
                == _ref_photon_residual(A, J, mode=mode, collocation=collocation))

    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_half_point_source_alone(self, mode):
        # with A = 0 the residual is the largest collocated source value,
        # so on a lattice of one or a few interior sites every last bit of
        # the averaged source shows
        lat = HypercubicLattice(spacing=0.3, extent=(3, 3, 4, 3))
        zero = LatticeField(lat, np.zeros(lat.extent + (4,), dtype=complex))
        rng = np.random.default_rng(9)
        for _ in range(40):
            J = LatticeField(lat, _random_values(rng, lat))
            assert (photon_residual(zero, J, mode=mode, collocation="half-point")
                    == _ref_photon_residual(zero, J, mode=mode,
                                            collocation="half-point"))

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        LorentzTransform.from_parts([1, 2, 0.5], 0.4, [0, 1, 1], 0.9),
    ])
    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_equivalence(self, mode, Z):
        rng = np.random.default_rng(6)
        _, latk, binding = build_lattices(a=0.1, R_k=0.23, extent=(5, 6, 4, 5),
                                          Z=Z)
        A = LatticeField(latk, _random_values(rng, latk))
        J = LatticeField(latk, _random_values(rng, latk, 10.0))
        assert (equivalence_check(binding, A, J, mode=mode)
                == _ref_equivalence_check(binding, A, J, mode=mode))

    @given(extent=st.tuples(*[st.integers(3, 7)] * 4),
           spacing=st.floats(min_value=1e-3, max_value=10.0),
           seed=st.integers(0, 2**32 - 1),
           first=st.sampled_from(["backward", "forward", "central"]),
           second=st.sampled_from(["composed", "onesided"]),
           collocation=st.sampled_from(["site", "half-point"]))
    @settings(max_examples=30, deadline=None)
    def test_random_lattices(self, extent, spacing, seed, first, second,
                             collocation):
        rng = np.random.default_rng(seed)
        lat = HypercubicLattice(spacing=spacing, extent=extent)
        vals = _random_values(rng, lat)
        for dagger in (False, True):
            _assert_interior_equal(
                dirac_apply_values(vals, lat, dagger=dagger, mode=first),
                _ref_dirac_apply(vals, lat, dagger=dagger, mode=first), first)
        _assert_interior_equal(wave_apply(vals, lat, mode=second),
                               _ref_wave_apply(vals, lat, mode=second), second)
        phi = ReflectorField(lat, vals, _random_values(rng, lat))
        upper = LatticeField(lat, _random_values(rng, lat))
        lower = LatticeField(lat, _random_values(rng, lat))
        e, m = rng.normal(), rng.normal()
        assert (dirac_residual(phi, (upper, lower), e=e, mass=m, mode=first)
                == _ref_dirac_residual(phi, upper.values, lower.values, e, m,
                                       first))
        A, J = LatticeField(lat, vals), LatticeField(lat, phi.phi2)
        assert (photon_residual(A, J, mode=second, collocation=collocation)
                == _ref_photon_residual(A, J, mode=second,
                                        collocation=collocation))
        _, latk, binding = build_lattices(
            a=spacing, R_k=spacing * rng.uniform(0.5, 2.0), extent=extent,
            Z=LorentzTransform.from_parts(rng.normal(size=3), rng.normal(),
                                          rng.normal(size=3), rng.normal()))
        A_k, J_k = LatticeField(latk, vals), LatticeField(latk, phi.phi2)
        assert (equivalence_check(binding, A_k, J_k, mode=second)
                == _ref_equivalence_check(binding, A_k, J_k, mode=second))


class TestSiteLocalStencils:
    """The one-site entry points against the array API, at every site next
    to the edge of each mode's interior."""

    lattice = HypercubicLattice(spacing=0.21, extent=(4, 5, 3, 4))

    def edge_sites(self, mode, axes):
        lo, hi = {"backward": (1, 0), "forward": (0, 1), "central": (1, 1)}[mode]
        ranges = [sorted({lo, n - hi - 1}) if ax in axes else [0, n - 1]
                  for ax, n in enumerate(self.lattice.extent)]
        return list(itertools.product(*ranges))

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_matches_array(self, mode, dagger):
        f = LatticeField(self.lattice,
                         _random_values(np.random.default_rng(7), self.lattice))
        full = dirac_apply_values(f.values, self.lattice, dagger=dagger,
                                  mode=mode)
        for site in self.edge_sites(mode, range(4)):
            got = discrete_dirac_apply(f, site, mode=mode, dagger=dagger)
            assert np.array_equal(got.as_array(), full[site])

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_partial_matches_array(self, mode):
        f = LatticeField(self.lattice,
                         _random_values(np.random.default_rng(8), self.lattice))
        for mu in range(4):
            full = _ref_first_diff(f.values, mu, self.lattice.step, mode)
            for site in self.edge_sites(mode, (mu,)):
                got = discrete_partial(f, site, mu=mu, mode=mode)
                assert np.array_equal(got.as_array(), full[site])

    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_outside_interior_raises(self, mode):
        f = LatticeField(self.lattice,
                         np.zeros(self.lattice.extent + (4,), dtype=complex))
        lo, hi = {"backward": (1, 0), "forward": (0, 1), "central": (1, 1)}[mode]
        for bad in ([lo - 1, 1, 1, 1], [1, 5 - hi, 1, 1]):
            with pytest.raises(BoundarySite):
                discrete_dirac_apply(f, bad, mode=mode)
            axis = 0 if bad[0] != 1 else 1
            with pytest.raises(BoundarySite):
                discrete_partial(f, bad, mu=axis, mode=mode)
        with pytest.raises(BoundarySite):
            discrete_partial(f, (1, 1, 3, 1), mu=0, mode=mode)
        with pytest.raises(ValueError):
            discrete_partial(f, (1, 1, 1, 1), mu=0, mode="composed")
        with pytest.raises(ValueError):
            discrete_dirac_apply(f, (1, 1, 1), mode=mode)


# ---------------------------------------------------------------------------
# Slab streaming: the residuals one axis-0 slab at a time, at every slab
# width, against the whole-array reference above
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
    """Every slabbed kernel against the whole-array reference, bitwise, with
    the slab budget set to each width from one time slice to the extent."""

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

    def test_slabs_tile_axis_0(self, width):
        slabs = lattice_module._slabs(self.lattice.extent)
        starts = [box[0].start for box in slabs]
        assert starts == list(range(0, 7, width))
        assert [box[0].stop for box in slabs] == starts[1:] + [7]
        assert all(box[1:] == (slice(0, 4), slice(0, 5), slice(0, 3))
                   for box in slabs)

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply(self, mode, dagger):
        (vals,) = self.fields(1, 1)
        _assert_interior_equal(
            dirac_apply_values(vals, self.lattice, dagger=dagger, mode=mode),
            _ref_dirac_apply(vals, self.lattice, dagger=dagger, mode=mode), mode)

    @pytest.mark.parametrize("basis", sorted(CUSTOM_BASES))
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_custom_basis(self, mode, basis):
        (vals,) = self.fields(2, 1)
        b = CUSTOM_BASES[basis]
        _assert_interior_equal(
            dirac_apply_values(vals, self.lattice, mode=mode, basis=b),
            _ref_dirac_apply(vals, self.lattice, mode=mode, basis=b), mode)

    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_wave_apply(self, mode):
        (vals,) = self.fields(3, 1)
        _assert_interior_equal(wave_apply(vals, self.lattice, mode=mode),
                               _ref_wave_apply(vals, self.lattice, mode=mode),
                               mode)

    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_residual_one_row(self, mode, dagger):
        # with no mass and one zero entry, the residual is the D row (or,
        # with ``dagger``, the D‡ row) alone
        vals, upper, lower = self.fields(4, 3)
        zero = np.zeros_like(vals)
        phi = ReflectorField(self.lattice, *((vals, zero) if dagger
                                             else (zero, vals)))
        pot = (LatticeField(self.lattice, upper), LatticeField(self.lattice, lower))
        assert (dirac_residual(phi, pot, e=0.61, mass=0.0, mode=mode)
                == _ref_dirac_residual(phi, upper, lower, 0.61, 0.0, mode))

    @pytest.mark.parametrize("potential", [
        "field", "pair", Biquaternion(-0.2j, 0.1, 0, 0.03), I1, -I0,
        Biquaternion(0)])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_residual_potentials(self, mode, potential):
        phi1, phi2, upper, lower = self.fields(5, 4)
        phi = ReflectorField(self.lattice, phi1, phi2)
        if potential == "field":
            pot, lower = LatticeField(self.lattice, upper), upper
        elif potential == "pair":
            pot = (LatticeField(self.lattice, upper),
                   LatticeField(self.lattice, lower))
        else:
            pot = potential
            upper = lower = np.broadcast_to(potential.as_array(), phi1.shape)
        mass = renormalize_mass(1.3, a=0.1, R_k=0.2)
        for field in (phi, charge_conjugate_field(phi)):
            assert (dirac_residual(field, pot, e=-0.8, mass=mass, mode=mode)
                    == _ref_dirac_residual(field, upper, lower, -0.8,
                                           mass.per_region, mode))

    @pytest.mark.parametrize("collocation", ["site", "half-point"])
    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_photon_residual(self, mode, collocation):
        a_vals, j_vals = self.fields(6, 2)
        A = LatticeField(self.lattice, a_vals)
        J = LatticeField(self.lattice, j_vals)
        assert (photon_residual(A, J, mode=mode, collocation=collocation)
                == _ref_photon_residual(A, J, mode=mode, collocation=collocation))

    @pytest.mark.parametrize("Z", [
        LorentzTransform.identity(),
        LorentzTransform.rotation([0, 0, 1], math.pi / 2),
        LorentzTransform.boost([1, 0, 0], 0.9),
    ], ids=["identity", "rotation", "boost"])
    @pytest.mark.parametrize("mode", ["composed", "onesided"])
    def test_equivalence(self, mode, Z):
        _, latk, binding = build_lattices(a=0.1, R_k=0.23,
                                          extent=self.lattice.extent, Z=Z)
        a_vals, j_vals = self.fields(7, 2)
        A, J = LatticeField(latk, a_vals), LatticeField(latk, j_vals)
        assert (equivalence_check(binding, A, J, mode=mode)
                == _ref_equivalence_check(binding, A, J, mode=mode))

    @pytest.mark.parametrize("reflector", [False, True])
    def test_write_field(self, tmp_path, reflector):
        vals = self.fields(8, 2)
        obj = (ReflectorField(self.lattice, *vals) if reflector
               else LatticeField(self.lattice, vals[0]))
        write_field(tmp_path / "new.txt", obj)
        _write_field_per_value(tmp_path / "old.txt", obj)
        new, old = (tmp_path / "new.txt").read_bytes(), (tmp_path / "old.txt").read_bytes()
        assert new == old

    @pytest.mark.parametrize("residual", ["dirac", "photon"])
    def test_non_finite_interior_raises(self, residual):
        # an overflowing axis-0 difference in any one slab is found
        (base,) = self.fields(9, 1)
        for t in range(2, 7):
            vals = base.copy()
            vals[t - 1, 2, 2, 1, 0], vals[t, 2, 2, 1, 0] = -1e308, 1e308
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(FloatingPointError):
                if residual == "dirac":
                    dirac_residual(ReflectorField(self.lattice, base, vals),
                                   Biquaternion(0.5), e=1.0, mass=1.0)
                else:
                    photon_residual(LatticeField(self.lattice, vals),
                                    LatticeField(self.lattice, base))

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
            vals[t, 1, 2, 1, 2] = 1.5e308
            A = LatticeField(latk, vals if kind == "potential" else a_vals)
            J = LatticeField(latk, vals if kind == "current" else j_vals)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match=f"transported {kind}"):
                equivalence_check(binding, A, J)


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
        for A in (pot, Biquaternion(-0.3j)):
            peak, _ = _traced_peak(lambda: dirac_residual(phi, A, e=1.0, mass=1.0))
            assert peak <= 0.5 * phi.phi1.nbytes

    def test_equivalence_check(self):
        _, latk, binding = build_lattices(
            a=0.1, R_k=0.2, extent=self.extent,
            Z=LorentzTransform.boost([1, 0, 0], 0.7))
        rng = np.random.default_rng(12)
        A = LatticeField(latk, _random_values(rng, latk))
        J = LatticeField(latk, _random_values(rng, latk))
        peak, _ = _traced_peak(lambda: equivalence_check(binding, A, J))
        assert peak <= 0.5 * A.values.nbytes


# ---------------------------------------------------------------------------
# Component-major storage and the plane kernels, against the interleaved
# kernels they replaced, bit for bit
# ---------------------------------------------------------------------------

def _ref_left_mul_dirac(values, lattice, dagger=False, mode="backward", basis=None):
    """The interleaved Dirac kernel the plane kernel replaced: each axis's
    difference is left-multiplied by its basis element term by term (zero
    coefficients skipped, ±1 as an add or a subtract) and added into a
    zero-filled sum; NaN outside the stencil."""
    if basis is None:
        basis = [b.quat_conj() if dagger else b for b in BASIS]
    total = np.zeros(_ref_interior(values, mode).shape, dtype=complex)
    for mu in range(4):
        diff = _ref_interior(_ref_first_diff(values, mu, lattice.step, mode), mode)
        columns = [(basis[mu] * unit).as_array()
                   for unit in (Biquaternion(1), *BASIS[1:])]
        for k in range(4):
            acc = None
            for i in range(4):
                coef, part = columns[i ^ k][k], diff[..., i ^ k]
                if coef == 0:
                    continue
                term, add = ((part, coef == 1) if coef in (1, -1)
                             else (coef * part, True))
                if acc is None:
                    acc = term if add else -term
                else:
                    acc = acc + term if add else acc - term
            if acc is not None:
                total[..., k] += acc
    out = np.full(values.shape, np.nan + 0j)
    _ref_interior(out, mode)[...] = total
    return out


def _component_major(values):
    """``values`` stored as C-contiguous component planes, seen as before."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)


class TestPlaneKernels:
    lattice = HypercubicLattice(spacing=0.13, extent=(5, 4, 6, 3),
                                origin=(0.1, -0.3, 0.2, 0.0))

    def signed_zero_values(self, seed):
        # a third of the parts are +0.0 or -0.0, so that differences of
        # neighbours are often signed zeros
        vals = _random_values(np.random.default_rng(seed), self.lattice)
        rng = np.random.default_rng(seed + 1)
        for part in (vals.real, vals.imag):
            part[rng.random(vals.shape) < 0.35] = 0.0
            part[rng.random(vals.shape) < 0.35] = -0.0
        return vals

    @pytest.mark.parametrize("basis", [None, *sorted(CUSTOM_BASES)])
    @pytest.mark.parametrize("dagger", [False, True])
    @pytest.mark.parametrize("mode", ["backward", "forward", "central"])
    def test_dirac_apply_signed_zeros(self, mode, dagger, basis):
        vals = self.signed_zero_values(31)
        b = None if basis is None else CUSTOM_BASES[basis]
        want = _ref_left_mul_dirac(vals, self.lattice, dagger, mode, b)
        for layout in (vals, _component_major(vals)):
            got = dirac_apply_values(layout, self.lattice, dagger=dagger,
                                     mode=mode, basis=b)
            assert got.tobytes() == want.tobytes()

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
            "bohr_phi_field": bohr_phi_field(lat, state),
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
                assert np.moveaxis(v, -1, 0).flags.c_contiguous, name
        assert np.array_equal(built["read_field"].values, vals)
        assert np.array_equal(built["read_field-reflector"].phi2, other)

    def test_public_constructor_snapshots_input(self):
        vals = _random_values(np.random.default_rng(43), self.lattice)
        for layout in (vals, _component_major(vals)):
            field = LatticeField(self.lattice, layout)
            assert not np.shares_memory(field.values, layout)
            assert field.values.tobytes() == vals.tobytes()

    def test_adopted_planes_are_checked(self):
        planes = np.zeros((4,) + self.lattice.extent, dtype=complex)
        with pytest.raises(ValueError, match="shape"):
            LatticeField(self.lattice, lattice_module._Planes(planes[:, 1:]))
        planes[2, 1, 1, 1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LatticeField(self.lattice, lattice_module._Planes(planes))
