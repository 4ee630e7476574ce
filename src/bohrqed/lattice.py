"""Dual-lattice rendition of the photon and Dirac equations.

Two hypercubic lattices: a compromise-frame lattice with half-interval
``R_k`` (site separation ``2 R_k``) and a snapshot-frame lattice with
half-interval ``a``, related by a translation, a scaling ``R_k -> a``
and a Lorentz transform ``Z``.  First derivatives are one-sided
backward differences over one full site interval; the second-order wave
operator composes a backward with a forward difference per axis, giving
the standard 3-point stencil (exact on quadratics).  A central mode is
available for convergence studies.

Field values are biquaternions seen as ``(*extent, 4)`` complex arrays
and stored component-major: one C-contiguous ``(4, *extent)`` block of
component planes per entry.  Wave functions are reflector pairs
``(phi1, phi2)``.  The first-order operator is
``D = i d0 + i1 d1 + i2 d2 + i3 d3`` and ``D‡`` flips the sign of the
spatial basis elements.  Residuals are computed on interior arrays (the
sites with a full stencil) by one difference kernel on the component
planes; basis units act by signed permutation (times ``i`` on time).
They stream one axis-0 slab of time slices at a time (as many as fit in
``_SLAB_BYTES`` of one field, at least one), writing into slab buffers
allocated once per call, and report the max of the per-slab maxima, the
whole-array value bit for bit; frame transport is per slab too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import (
    BASIS,
    Biquaternion,
    LorentzTransform,
    bq_complex_conj_arr,
    bq_mul_planes,
)
from .bohr import BohrState, SupercriticalCoupling
from .fitting import PowerFit, fit_loglog

__all__ = [
    "BoundarySite",
    "HypercubicLattice",
    "LatticeField",
    "ReflectorField",
    "RegionBinding",
    "MassTerm",
    "build_lattices",
    "discrete_partial",
    "discrete_dirac_apply",
    "wave_apply",
    "photon_residual",
    "dirac_residual",
    "bohr_phi_field",
    "bohr_potential_field",
    "charge_conjugate_field",
    "transform_field",
    "equivalence_check",
    "renormalize_mass",
    "limit_sweep",
    "LIMIT_EXPONENTS",
    "write_field",
    "read_field",
]

TRANSFORM_EXPONENTS = {"current": 3, "potential": 1, "derivative": 2,
                       "operator": 1}


class BoundarySite(ValueError):
    """Requested stencil has no neighbor inside the lattice."""


@dataclass(frozen=True)
class HypercubicLattice:
    """Four-axis lattice; ``spacing`` is the half-interval, sites sit
    ``2*spacing`` apart along each axis."""

    spacing: float
    extent: tuple[int, int, int, int]
    origin: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    frame: str = "snapshot"

    def __post_init__(self):
        if not 0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        ext = [float(e) for e in ((self.extent,) * 4 if np.ndim(self.extent) == 0
                                  else self.extent)]
        if len(ext) != 4 or not all(e.is_integer() and e >= 3 for e in ext):
            raise ValueError(f"extent must give >= 3 whole sites on each of 4 axes, "
                             f"got {self.extent}")
        origin = tuple(float(o) for o in self.origin)
        if len(origin) != 4 or not all(map(math.isfinite, origin)):
            raise ValueError(f"origin must be 4 finite numbers, got {self.origin}")
        object.__setattr__(self, "extent", tuple(int(e) for e in ext))
        object.__setattr__(self, "origin", origin)

    @property
    def step(self) -> float:
        return 2.0 * self.spacing

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.step * np.arange(self.extent[axis])

    def site_position(self, index) -> np.ndarray:
        idx = np.asarray(index, dtype=float)
        return np.asarray(self.origin) + self.step * idx

    def coordinate_grids(self) -> list[np.ndarray]:
        return np.meshgrid(*(self.axis_coords(ax) for ax in range(4)),
                           indexing="ij")


class _Planes(NamedTuple):
    """Fresh C-contiguous ``(4, *extent)`` complex planes a field adopts."""

    array: np.ndarray


def _planes(values) -> np.ndarray:
    """The component planes of ``(..., 4)`` values, a view."""
    return np.moveaxis(values, -1, 0)


def _field_values(values, lattice: HypercubicLattice, name: str) -> np.ndarray:
    """Read-only finite values of shape ``(*extent, 4)``, fields being
    immutable snapshots: one C-contiguous ``(4, *extent)`` block of planes
    seen through ``np.moveaxis``; ``_Planes`` are adopted, the rest copied."""
    fresh = isinstance(values, _Planes)
    planes = values.array if fresh else _planes(np.asarray(values))
    if planes.shape != (4,) + lattice.extent:
        raise ValueError(f"{name} shape {planes.shape[1:] + planes.shape[:1]} "
                         f"does not match lattice extent {lattice.extent} + (4,)")
    if not fresh:
        planes = planes.astype(complex, order="C")
    if not all(np.isfinite(plane[box]).all()  # contiguous: no ufunc buffer
               for plane in planes for box in _slabs(lattice.extent)):
        raise ValueError(f"{name} values must be finite")
    planes.setflags(write=False)
    return np.moveaxis(planes, 0, -1)


@dataclass(frozen=True, eq=False)
class LatticeField:
    """Biquaternion-valued field: ``values`` has shape ``(*extent, 4)``."""

    lattice: HypercubicLattice
    values: np.ndarray
    label: str = "field"

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _field_values(self.values, self.lattice, "field"))


@dataclass(frozen=True, eq=False)
class ReflectorField:
    """Wave-function field: reflector entries ``(phi1, phi2)`` per site."""

    lattice: HypercubicLattice
    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, _field_values(
                getattr(self, name), self.lattice, name))


@dataclass(frozen=True)
class MassTerm:
    """Global mass magnitude and its per-region rescaling ``(a/R_k) * M``."""

    global_magnitude: float
    a: float
    R_k: float
    frame: str = "compromise"

    @property
    def per_region(self) -> float:
        return (self.a / self.R_k) * self.global_magnitude


def renormalize_mass(M_global: float, a: float, R_k: float) -> MassTerm:
    if not all(map(math.isfinite, (M_global, a, R_k))):
        raise ValueError(f"mass inputs must be finite, got {(M_global, a, R_k)}")
    if a <= 0 or R_k <= 0:
        raise ValueError("spacings must be positive")
    return MassTerm(global_magnitude=float(M_global), a=float(a), R_k=float(R_k))


@dataclass(frozen=True)
class RegionBinding:
    """One region's choice of roundel, compromise frame, and site mapping."""

    region_id: int
    R_k: float
    a: float
    Z: LorentzTransform
    lattice_k: HypercubicLattice
    lattice_p: HypercubicLattice
    center_index: tuple[int, int, int, int]
    neighbor_indices: tuple[tuple[int, int, int, int], ...]

    @property
    def scale(self) -> float:
        """Geometric scale of the site map, ``a / R_k``."""
        return self.a / self.R_k

    def map_position(self, position) -> np.ndarray:
        """The site bijection: translate, scale ``R_k -> a``, then ``Z``."""
        x = np.asarray(position, dtype=float)
        xk = self.lattice_k.site_position(self.center_index)
        t = self.lattice_p.site_position(self.center_index)
        return t + self.Z.apply_vec4(self.scale * (x - xk))

    def mapped_site(self, index) -> np.ndarray:
        return self.map_position(self.lattice_k.site_position(index))


def build_lattices(a: float, R_k: float, extent, Z: LorentzTransform,
                   origin=(0.0, 0.0, 0.0, 0.0), region_id: int = 0,
                   ) -> tuple[HypercubicLattice, HypercubicLattice, RegionBinding]:
    """Snapshot lattice, compromise lattice, and the binding tying them.

    Both lattices share the index structure; the binding's site map
    carries compromise positions onto snapshot positions and sends every
    neighbor of the center site onto the image center's neighbors.
    """
    lat_k = HypercubicLattice(spacing=R_k, extent=extent, origin=origin,
                              frame="compromise")
    lat_p = HypercubicLattice(spacing=a, extent=lat_k.extent, origin=origin,
                              frame="snapshot")
    center = tuple(e // 2 for e in lat_k.extent)  # extents >= 3: all neighbors exist
    neighbors = [tuple(c + step * (ax == axis) for ax, c in enumerate(center))
                 for axis in range(4) for step in (-1, +1)]
    binding = RegionBinding(region_id=region_id, R_k=R_k, a=a, Z=Z,
                            lattice_k=lat_k, lattice_p=lat_p,
                            center_index=center,
                            neighbor_indices=tuple(neighbors))
    return lat_p, lat_k, binding


# ---------------------------------------------------------------------------
# Discrete differentials
# ---------------------------------------------------------------------------

#: Sites without a full stencil at the low and high end of every axis.
_FIRST_ORDER = {"backward": (1, 0), "forward": (0, 1), "central": (1, 1)}
_WAVE_ORDER = {"composed": (1, 1), "onesided": (2, 0)}
_MODES = {**_FIRST_ORDER, **_WAVE_ORDER}


#: Bytes of one field's slab.  A slab's temporaries are a few times its
#: size: 256 KiB keeps them near a 2 MiB L2 and under half a 16^4 field.
_SLAB_BYTES = 1 << 18


def _slabs(extent, box=None) -> list[tuple[slice, ...]]:
    """``box`` (all sites by default) cut along axis 0 into slabs of at most
    ``_SLAB_BYTES`` of one field on a lattice of ``extent``, or one slice."""
    box = tuple(slice(0, n) for n in extent[:4]) if box is None else box
    width = max(1, _SLAB_BYTES // (math.prod(extent[1:4]) * 4 * 16))
    t0, t1 = box[0].start, box[0].stop
    return [(slice(t, min(t + width, t1)),) + box[1:]
            for t in range(t0, t1, width)]


def _interior(shape, mode: str, modes=_MODES) -> tuple[slice, ...]:
    """The box of sites where ``mode``, one of ``modes``, has a full stencil."""
    if mode not in modes:
        raise ValueError(f"unknown difference mode {mode!r}")
    lo, hi = modes[mode]
    return tuple(slice(lo, n - hi) for n in shape[:4])


def _shifted(box: tuple[slice, ...], axis: int, offset: int) -> tuple[slice, ...]:
    moved = slice(box[axis].start + offset, box[axis].stop + offset)
    return box[:axis] + (moved,) + box[axis + 1:]


def interior_view(values: np.ndarray, mode: str) -> np.ndarray:
    return values[_interior(values.shape, mode)]


def _with_buffers(slabs, count: int) -> list:
    """Each slab with ``count`` complex ``(4, *slab)`` buffers, allocated once
    at the first slab's shape (no later slab is larger) and cut to each."""
    bufs = np.empty((count, 4) + tuple(s.stop - s.start for s in slabs[0]), complex)
    return [(box, bufs[(..., *(slice(0, s.stop - s.start) for s in box))])
            for box in slabs]


def _stencil(P: np.ndarray, axis: int, step: float, mode: str, box,
             out: np.ndarray) -> np.ndarray:
    """The ``mode`` difference along ``axis`` of the planes ``P`` on ``box``
    into ``out``, reading only the box and its shifts along ``axis``;
    ``composed`` is backward then forward (the 3-point stencil),
    ``onesided`` backward twice."""
    def at(offset):
        return P[(..., *_shifted(box, axis, offset))]

    # offsets -lo..hi, in the order of (a - b) / h, (a - 2b + c) / h²
    lo, hi = _MODES[mode]
    if mode in _WAVE_ORDER:
        np.subtract(at(hi), np.multiply(2.0, at(hi - 1), out=out), out=out)
        out += at(hi - 2)
        out /= step ** 2
    else:
        np.subtract(at(hi), at(-lo), out=out)
        out /= (lo + hi) * step
    return out


@functools.lru_cache(maxsize=64)  # bases and constant potentials
def _rows(c: Biquaternion) -> tuple:
    """Left multiplication by ``c`` as rows of ``(source, coefficient)``
    terms: component k of ``c * b`` sums ``coef * b[source]`` over row k in
    the order of the Hamilton product, zero coefficients dropped.  A basis
    unit has one ±1 term per row (±1j for ``I0``): a signed permutation."""
    columns = [(c * unit).as_array() for unit in (Biquaternion(1), *BASIS[1:])]
    return tuple(tuple((i ^ k, columns[i ^ k][k]) for i in range(4)
                       if columns[i ^ k][k] != 0) for k in range(4))


def _row(terms, P: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One row of ``_rows`` applied to the planes ``P``, term by term: the
    plane itself for a lone +1 term, else summed in ``acc``; ``tmp`` holds
    a scaled term after the first."""
    (j, coef), *rest = terms
    out = (P[j] if coef == 1 else np.negative(P[j], out=acc) if coef == -1
           else np.multiply(coef, P[j], out=acc))
    for j, coef in rest:
        if coef in (1, -1):
            out = (np.add if coef == 1 else np.subtract)(out, P[j], out=acc)
        else:
            out = np.add(out, np.multiply(coef, P[j], out=tmp), out=acc)
    return out


def _dirac(P: np.ndarray, step: float, mode: str, box, bufs, dagger: bool = False,
           basis: Sequence[Biquaternion] | None = None) -> np.ndarray:
    """``sum_mu basis[mu] * d_mu P`` on ``box``, axis terms in order, added
    into the first of ``bufs`` from zero; the other two buffers hold a
    difference and scratch planes."""
    basis = [b.quat_conj() if dagger else b for b in BASIS] if basis is None else basis
    out, diff, scratch = bufs
    out[...] = 0
    for mu in range(4):
        _stencil(P, mu, step, mode, box, diff)
        for plane, terms in zip(out, _rows(basis[mu])):
            if len(terms) == 1 and terms[0][1] == -1:  # subtract: no negated copy
                plane -= diff[terms[0][0]]
            elif terms:
                plane += _row(terms, diff, scratch[0], scratch[1])
    return out


def _wave(P: np.ndarray, step: float, mode: str, box, bufs) -> np.ndarray:
    """``-d0² + d1² + d2² + d3²`` of the planes ``P`` on ``box`` into the
    first of ``bufs``; the second holds each axis's difference."""
    out, diff = bufs
    np.negative(_stencil(P, 0, step, mode, box, out), out=out)
    for mu in range(1, 4):
        out += _stencil(P, mu, step, mode, box, diff)
    return out


def _site_box(site, extent, mode: str, axes) -> tuple[slice, ...]:
    """The box of ``site``, which needs the stencil's neighbors along ``axes``."""
    inner = _interior(extent, mode, _FIRST_ORDER)
    site = tuple(int(s) for s in site)
    for ax, (s, n) in enumerate(zip(site, extent, strict=True)):
        if s not in range(n)[inner[ax] if ax in axes else slice(None)]:
            raise BoundarySite(f"site {site} lacks axis-{ax} neighbors ({mode})")
    return tuple(slice(s, s + 1) for s in site)


def discrete_partial(field: LatticeField, site, mu: int,
                     mode: str = "backward") -> Biquaternion:
    """Discrete partial along axis ``mu`` at one site.

    Backward by default: ``(A_k - A_{k-mu}) / (2*spacing)``; a central
    mode is available for convergence studies.
    """
    box = _site_box(site, field.lattice.extent, mode, axes=(mu,))
    diff = _stencil(_planes(field.values), mu, field.lattice.step, mode, box,
                    np.empty((4, 1, 1, 1, 1), complex))
    return Biquaternion.from_array(diff[:, 0, 0, 0, 0])


def _padded(kernel, values, lattice: HypercubicLattice, mode: str, modes,
            count: int, *args) -> np.ndarray:
    """``kernel`` applied to raw field values on every slab of ``mode``'s
    interior, with ``count`` buffers; NaN outside the stencil."""
    if np.shape(values) != lattice.extent + (4,):
        raise ValueError(f"values shape {np.shape(values)} does not match "
                         f"lattice extent {lattice.extent} + (4,)")
    out = np.full((4,) + lattice.extent, np.nan + 0j)
    for box, bufs in _with_buffers(_slabs(
            lattice.extent, _interior(lattice.extent, mode, modes)), count):
        out[(..., *box)] = kernel(_planes(values), lattice.step, mode, box, bufs,
                                  *args)
    return np.moveaxis(out, 0, -1)


def dirac_apply_values(values: np.ndarray, lattice: HypercubicLattice,
                       dagger: bool = False, mode: str = "backward",
                       basis: Sequence[Biquaternion] | None = None,
                       ) -> np.ndarray:
    """Apply ``D`` (or ``D‡``) to raw field values; NaN outside the stencil."""
    return _padded(_dirac, values, lattice, mode, _FIRST_ORDER, 3, dagger, basis)


def discrete_dirac_apply(field: LatticeField, site, mode: str = "backward",
                         dagger: bool = False) -> Biquaternion:
    """``sum_mu i_mu * d_mu`` of the field at one site."""
    box = _site_box(site, field.lattice.extent, mode, axes=range(4))
    ((_, bufs),) = _with_buffers([box], 3)
    applied = _dirac(_planes(field.values), field.lattice.step, mode, box, bufs,
                     dagger)
    return Biquaternion.from_array(applied[:, 0, 0, 0, 0])


def wave_apply(values: np.ndarray, lattice: HypercubicLattice,
               mode: str = "composed") -> np.ndarray:
    """The scalar second-order operator ``-d0² + d1² + d2² + d3²``; NaN
    outside the stencil.

    ``composed`` pairs a backward with a forward difference per axis
    (the 3-point stencil); ``onesided`` repeats the backward difference,
    which is the fully one-sided variant.
    """
    return _padded(_wave, values, lattice, mode, _WAVE_ORDER, 2)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    field_scale: float


def _max_norm(P: np.ndarray) -> float:
    """Largest sitewise Frobenius magnitude of the component planes ``P``;
    NaN if any site is NaN.  The squared magnitudes are summed in place in
    the order ``((s0 + s1) + s2) + s3``, as ``bq_frobenius_arr`` sums them."""
    total, part = np.abs(P[0]), np.empty(P.shape[1:])
    np.square(total, out=total)
    for plane in P[1:]:
        total += np.square(np.abs(plane, out=part), out=part)
    return float(np.sqrt(np.max(total)))


def photon_residual(A: LatticeField, J: LatticeField, mode: str = "composed",
                    collocation: str = "site") -> ResidualReport:
    """Max interior residual of the lattice photon equation ``DD A = J``.

    The operator acts componentwise (products of the operator reflector
    are diagonal and scalar), so the reflector-form and componentwise
    residuals coincide.  ``collocation="half-point"`` averages the
    source over the backward half-interval neighbors instead of reading
    it at sites.
    """
    if A.lattice != J.lattice:
        raise ValueError("fields must live on the same lattice")
    if collocation not in ("site", "half-point"):
        raise ValueError(f"unknown collocation {collocation!r}")
    a, j = _planes(A.values), _planes(J.values)
    rows = []
    for box, (lhs, diff, rhs) in _with_buffers(_slabs(
            A.lattice.extent, _interior(A.lattice.extent, mode, _WAVE_ORDER)), 3):
        _wave(a, A.lattice.step, mode, box, (lhs, diff))
        if collocation == "half-point":
            shifted = np.add(0, j[(..., *_shifted(box, 0, -1))], out=diff)
            for mu in range(1, 4):
                shifted += j[(..., *_shifted(box, mu, -1))]
            shifted /= 4.0
            np.add(np.multiply(0.5, j[(..., *box)], out=rhs),
                   np.multiply(0.5, shifted, out=shifted), out=rhs)
        else:
            rhs = j[(..., *box)]
        scales = _max_norm(rhs), _max_norm(lhs)
        lhs -= rhs
        rows.append((_max_norm(lhs), *scales))
    worst, rhs_max, lhs_max = (float(m) for m in np.max(rows, axis=0))
    if not math.isfinite(worst):
        raise FloatingPointError("residual contains non-finite interior values")
    return ResidualReport(max_residual=worst,
                          field_scale=max(rhs_max, lhs_max, 1e-300))


def _potential_entries(A, lattice: HypercubicLattice) -> tuple:
    """The potential's upper and lower entries: component planes of a
    field, or the ``_rows`` of a constant."""
    if isinstance(A, Biquaternion):
        return _rows(A), _rows(A)
    entries = (A, A) if isinstance(A, LatticeField) else A
    if not (isinstance(entries, tuple) and len(entries) == 2):
        raise TypeError("potential must be a LatticeField, a pair, or a constant")
    if any(f.lattice != lattice for f in entries):
        raise ValueError("potential must live on the wave function's lattice")
    return tuple(_planes(f.values) for f in entries)


def dirac_residual(phi: ReflectorField, A, e: float, mass: MassTerm | float,
                   mode: str = "backward") -> ResidualReport:
    """Max interior residual of ``(D - i e A) Phi = Phi M`` in reflector form.

    Component equations (anti-diagonal layout, mass ``m~ = -i m``):
    ``D phi2 - i e A~ phi2 - phi1 (i m) = 0`` and
    ``D‡ phi1 - i e A~ phi1 + phi2 (i m) = 0``.
    """
    m_k = mass.per_region if isinstance(mass, MassTerm) else float(mass)
    if not (math.isfinite(e) and math.isfinite(m_k)):
        raise ValueError(f"coupling and mass must be finite, got e={e}, mass={m_k}")
    a_upper, a_lower = _potential_entries(A, phi.lattice)
    extent, step = phi.lattice.extent, phi.lattice.step
    phi1, phi2 = _planes(phi.phi1), _planes(phi.phi2)

    def row(box, bufs, psi, chi, a, dagger: bool) -> float:
        """One equation's max on ``box``; ``chi`` is ``psi``'s mass partner."""
        r = _dirac(psi, step, mode, box, bufs, dagger)
        prod, (acc, tmp) = bufs[1], bufs[2][:2]  # the difference is spent
        psi = psi[(..., *box)]
        if isinstance(a, tuple):  # a constant's rows: no field of it
            for plane, terms in zip(r, a):
                if terms:
                    plane -= np.multiply(1j * e, _row(terms, psi, acc, tmp), out=acc)
        else:
            r -= np.multiply(1j * e, bq_mul_planes(a[(..., *box)], psi, prod, acc),
                             out=prod)
        mass_term = np.multiply(chi[(..., *box)], 1j * m_k, out=prod)
        if dagger:
            r += mass_term
        else:
            r -= mass_term
        return _max_norm(r)

    n11, n22 = (float(m) for m in np.max([
        (row(box, bufs, phi2, phi1, a_upper, False),
         row(box, bufs, phi1, phi2, a_lower, True))
        for box, bufs in _with_buffers(
            _slabs(extent, _interior(extent, mode, _FIRST_ORDER)), 3)], axis=0))
    if not (math.isfinite(n11) and math.isfinite(n22)):
        raise FloatingPointError("residual contains non-finite interior values")
    scale = np.max([(_max_norm(phi1[(..., *box)]), _max_norm(phi2[(..., *box)]))
                    for box in _slabs(extent)])
    return ResidualReport(max_residual=max(n11, n22),
                          field_scale=max(float(scale), 1e-300))


# ---------------------------------------------------------------------------
# Field constructors
# ---------------------------------------------------------------------------

def bohr_phi_field(lattice: HypercubicLattice, state: BohrState) -> ReflectorField:
    """Sample the closed-form orbit wave function on an orbit-space lattice.

    Axes are ``(x0, s, r, x3)``; the phase advances as ``mu*s - nu*x0``
    and is constant along the radial and x3 axes.
    """
    x0 = lattice.axis_coords(0)[:, None]
    s = lattice.axis_coords(1)[None, :]
    phase = np.exp(1j * (state.mu * s - state.nu * x0))[:, :, None, None]
    phi1 = np.zeros((4,) + lattice.extent, dtype=complex)
    phi1[0] = phase
    m = state.input.m
    phi2 = np.zeros_like(phi1)
    phi2[0] = (1j * state.eta / m) * phase
    phi2[1] = (state.mu / m) * phase
    return ReflectorField(lattice=lattice, phi1=_Planes(phi1), phi2=_Planes(phi2))


def bohr_potential_field(lattice: HypercubicLattice,
                         state: BohrState) -> LatticeField:
    """Constant orbit-space potential ``A~ = -i f / R`` (scalar entry)."""
    values = np.zeros((4,) + lattice.extent, dtype=complex)
    values[0] = -1j * state.input.f / state.R
    return LatticeField(lattice=lattice, values=_Planes(values), label="potential")


def charge_conjugate_field(phi: ReflectorField) -> ReflectorField:
    """Conjugate partner solving the sign-flipped-charge equation.

    ``phi1 -> -conj(phi2)``, ``phi2 -> conj(phi1)`` with coefficientwise
    complex conjugation; pairing it with ``e -> -e`` leaves the Dirac
    residual magnitudes unchanged.
    """
    phi1 = bq_complex_conj_arr(_planes(phi.phi2))
    return ReflectorField(lattice=phi.lattice,
                          phi1=_Planes(np.negative(phi1, out=phi1)),
                          phi2=_Planes(bq_complex_conj_arr(_planes(phi.phi1))))


# ---------------------------------------------------------------------------
# Frame transport between the two lattices
# ---------------------------------------------------------------------------

def _transport(P: np.ndarray, binding: RegionBinding, power: int,
               out: np.ndarray, mid: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``(R_k/a)**power`` times ``Z`` acting sitewise on the planes ``P``
    into ``out``, with ``mid`` for ``g P`` and a scratch plane ``tmp``; the
    product is scaled in place, the same ufunc as ``factor * product``."""
    g = binding.Z.g
    bq_mul_planes(g.as_array(), P, mid, tmp)
    bq_mul_planes(mid, g.dagger().as_array(), out, tmp)
    out *= (binding.R_k / binding.a) ** power
    return out


def transform_field(kind: str, field, binding: RegionBinding):
    """Carry a compromise-frame field to the snapshot lattice.

    Values pick up ``(R_k/a)**p`` with p = 3 (current), 1 (potential),
    2 (derivative of a potential), 1 (first-order operator), and are
    rotated/boosted entrywise by ``Z``; reflector fields transform both
    entries (matrix mode).
    """
    try:
        power = TRANSFORM_EXPONENTS[kind]
    except KeyError:
        raise ValueError(f"unknown transform kind {kind!r}") from None

    def carried(values):
        P = _planes(values)
        out = np.empty(P.shape, complex)
        for box, (mid, scratch) in _with_buffers(_slabs(P.shape[1:]), 2):
            _transport(P[(..., *box)], binding, power, out[(..., *box)], mid,
                       scratch[0])
        return _Planes(out)

    if isinstance(field, ReflectorField):
        return ReflectorField(lattice=binding.lattice_p,
                              phi1=carried(field.phi1), phi2=carried(field.phi2))
    if isinstance(field, LatticeField):
        return LatticeField(lattice=binding.lattice_p,
                            values=carried(field.values), label=field.label)
    if isinstance(field, Biquaternion):
        return (binding.R_k / binding.a) ** power * binding.Z.apply(field)
    raise TypeError("field must be a LatticeField, ReflectorField, or Biquaternion")


@dataclass(frozen=True)
class EquivalenceReport:
    lk_residual: float
    lp_residual: float
    commutation_residual: float
    scale_factor: float


def equivalence_check(binding: RegionBinding, A_k: LatticeField,
                      J_k: LatticeField, mode: str = "composed",
                      ) -> EquivalenceReport:
    """The photon equation holds on the snapshot lattice iff it holds on
    the compromise lattice.

    Scaling both sides by ``(R_k/a)³`` and transforming by ``Z`` commutes
    exactly with the discrete second-order operator, so the snapshot
    residual field equals the transported compromise residual field;
    ``commutation_residual`` measures that identity relative to the
    operator's own scale.  ``ValueError`` if a field is not on
    ``binding.lattice_k`` or a transported field is not finite.
    """
    if not A_k.lattice == J_k.lattice == binding.lattice_k:
        raise ValueError("A_k and J_k must live on binding.lattice_k")
    extent = binding.lattice_k.extent
    a_k, j_k = _planes(A_k.values), _planes(J_k.values)
    slabs = _with_buffers(_slabs(extent, _interior(extent, mode, _WAVE_ORDER)), 3)
    lo, hi = _WAVE_ORDER[mode]
    # the snapshot potential on slices start.. of the slab and its axis-0
    # halo; the halo comes over from the last slab, so each slice of A_k is
    # carried once, up to ``done``
    window = np.empty((4, slabs[0][0][0].stop + hi) + extent[1:], complex)
    # g P for a transport, and a scratch plane, on up to a slab of slices
    carry = np.empty((5, slabs[0][0][0].stop - lo) + extent[1:], complex)

    def carried(P, out, kind, checked=True):
        mid = carry[(..., *(slice(0, n) for n in P.shape[1:]))]
        _transport(P, binding, TRANSFORM_EXPONENTS[kind], out, mid[:4], mid[4])
        if checked and not np.all(np.isfinite(out)):
            raise ValueError(f"transported {kind} values must be finite")
        return out

    start = done = 0
    rows = []
    for slab, (resid_k, resid_p, diff) in slabs:
        t0, t1 = slab[0].start, slab[0].stop
        _wave(a_k, binding.lattice_k.step, mode, slab, (resid_k, diff))
        resid_k -= j_k[(..., *slab)]
        shift, start = t0 - lo - start, t0 - lo
        for t in range(done - start):  # slice by slice: no overlap to buffer
            window[:, t] = window[:, shift + t]
        for t in range(done, t1 + hi):
            carried(a_k[:, t:t + 1], window[:, t - start:t - start + 1], "potential")
        done = t1 + hi
        _wave(window, binding.lattice_p.step, mode,
              (slice(lo, lo + t1 - t0),) + slab[1:], (resid_p, diff))
        scale = _max_norm(resid_p)
        resid_p -= carried(j_k[(..., *slab)], diff, "current")
        lp = _max_norm(resid_p)
        resid_p -= carried(resid_k, diff, "current", checked=False)
        rows.append((_max_norm(resid_k), lp, _max_norm(resid_p), scale))
    lk, lp, mismatch, scale = (float(m) for m in np.max(rows, axis=0))
    return EquivalenceReport(
        lk_residual=lk, lp_residual=lp,
        commutation_residual=mismatch / max(scale, 1e-300),
        scale_factor=(binding.R_k / binding.a) ** 3)


# ---------------------------------------------------------------------------
# Limit behaviour of the bare lattice variables
# ---------------------------------------------------------------------------

#: Expected log-log slopes against the snapshot half-interval a
#: (the mass slope additionally subtracts the chosen exponent p).
LIMIT_EXPONENTS = {"A": 2.0, "f": 3.0, "eB": 0.0, "eBa": 0.0, "J": 0.0}


@dataclass(frozen=True)
class LimitSweepRow:
    a: float
    R_k: float
    J: float
    A: float
    f: float
    eB: float
    eBa: float
    M: float
    nl: float


@dataclass(frozen=True)
class LimitSweepResult:
    rows: tuple[LimitSweepRow, ...]
    slopes: dict[str, PowerFit]
    expected: dict[str, float]
    p: float
    low_confidence: bool


def limit_sweep(p: float, spacings: Sequence[float], n: int = 1,
                T: float = 1.0, J0: float = 1.0) -> LimitSweepResult:
    """Shrink the snapshot spacing with ``R_k = a**p`` and a fixed source.

    A unit-order current makes the potential scale like ``a²`` and the
    site charge like ``a³``; normalizing over a cube of side T keeps the
    bare charges finite while the global mass magnitude blows up as
    ``a**-(3+p)``.  Raises :class:`~bohrqed.bohr.SupercriticalCoupling`
    if any row's ``|eB * f|`` reaches n.
    """
    if p <= 0:
        raise ValueError("exponent p must be positive")
    spacings = sorted(float(a) for a in spacings)
    if len(spacings) < 2:
        raise ValueError("need at least two spacings")
    if any(a <= 0 for a in spacings):
        raise ValueError("spacings must be positive")
    rows = []
    for a in spacings:
        R_k = a ** p
        A = (4.0 * math.pi / 3.0) * a * a * J0
        f = a * A
        nl = (T / (2.0 * a)) ** 3
        eBa = nl * f
        eB = eBa
        u = eB * f
        if u >= n:
            raise SupercriticalCoupling(
                f"|eB*f| = {u} >= n = {n} at spacing a = {a}")
        M = n * n * math.sqrt(1.0 - (u / n) ** 2) / (R_k * u)
        rows.append(LimitSweepRow(a=a, R_k=R_k, J=J0, A=A, f=f, eB=eB,
                                  eBa=eBa, M=M, nl=nl))
    expected = dict(LIMIT_EXPONENTS)
    expected["M"] = -(3.0 + p)
    expected["R_k"] = p
    expected["nl"] = -3.0
    av = np.array([r.a for r in rows])
    slopes = {name: fit_loglog(av, np.array([float(getattr(r, name))
                                             for r in rows]))
              for name in expected}
    low = any(fit.low_confidence for fit in slopes.values())
    return LimitSweepResult(rows=tuple(rows), slopes=slopes,
                            expected=expected, p=float(p), low_confidence=low)


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

def write_field(path, obj: LatticeField | ReflectorField) -> None:
    """Flat text format: header, then one line per site with the index
    quadruple and the complex components (4 per biquaternion entry)."""
    lattice = obj.lattice
    reflector = isinstance(obj, ReflectorField)
    header = [
        "bohrqed-field 1",
        f"kind {'reflector' if reflector else 'biquaternion'}",
        f"spacing {lattice.spacing:.17g}",
        "extent " + " ".join(str(e) for e in lattice.extent),
        "origin " + " ".join(f"{o:.17g}" for o in lattice.origin),
        f"frame {lattice.frame}",
    ]
    width = 8 if reflector else 4
    row = "%d %d %d %d " + " ".join(["%.17g%+.17gj"] * width) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        for box in _slabs(lattice.extent):
            block = np.ascontiguousarray(  # so that rows view as floats
                np.concatenate([obj.phi1[box], obj.phi2[box]], axis=-1)
                if reflector else obj.values[box])
            index = np.indices(block.shape[:4])
            index[0] += box[0].start
            sites = index.reshape(4, -1).T.tolist()
            parts = block.reshape(-1, width).view(float).tolist()  # re, im, ...
            fh.write("".join([row % (*site, *vals)
                              for site, vals in zip(sites, parts)]))


def read_field(path) -> LatticeField | ReflectorField:
    """Inverse of :func:`write_field`; ``ValueError`` on a malformed,
    truncated or incomplete file, naming the first missing site."""
    with open(path) as fh:
        magic = fh.readline().split()
        if magic[:1] != ["bohrqed-field"]:
            raise ValueError("not a field file")
        header = dict(fh.readline().strip().partition(" ")[::2] for _ in range(5))
        missing = {"kind", "spacing", "extent", "origin", "frame"} - header.keys()
        if missing:
            raise ValueError(f"truncated header: no {', '.join(sorted(missing))}")
        extent = tuple(int(t) for t in header["extent"].split())
        lattice = HypercubicLattice(
            spacing=float(header["spacing"]), extent=extent,
            origin=tuple(float(t) for t in header["origin"].split()),
            frame=header["frame"])
        kind = header["kind"]
        width = 8 if kind == "reflector" else 4
        rows = np.dtype([("site", np.intp, (4,)), ("values", complex, (width,))])
        body = fh.read()
    # loadtxt raises ValueError on a row with the wrong token count
    table = (np.loadtxt(body.splitlines(), dtype=rows, ndmin=1) if body.strip()
             else np.empty(0, dtype=rows))
    flat = np.ravel_multi_index(table["site"].T, extent)  # ValueError outside
    count = np.bincount(flat, minlength=math.prod(extent))
    for bad, problem in ((count > 1, "duplicate"), (count == 0, "missing")):
        if bad.any():
            site = tuple(int(i) for i in np.unravel_index(bad.argmax(), extent))
            raise ValueError(f"{problem} site {site} in {path}")
    planes = np.empty((width,) + extent, complex)  # sites in order, per component
    np.take(table["values"].T, np.argsort(flat), axis=1, mode="clip",
            out=planes.reshape(width, -1))
    if kind == "reflector":
        return ReflectorField(lattice=lattice, phi1=_Planes(planes[:4]),
                              phi2=_Planes(planes[4:]))
    return LatticeField(lattice=lattice, values=_Planes(planes))
