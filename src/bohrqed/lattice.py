"""Dual-lattice rendition of the photon and Dirac equations.

Two hypercubic lattices: a compromise-frame lattice with half-interval
``R_k`` (site separation ``2 R_k``) and a snapshot-frame lattice with
half-interval ``a``, related by a translation, a scaling ``R_k -> a``
and a Lorentz transform ``Z``.  First derivatives are one-sided
backward differences over one full site interval; the Dirac residual
also takes central ones, for convergence studies.  The second-order
wave operator composes a backward with a forward difference per axis,
giving the standard 3-point stencil (exact on quadratics).  Site
coordinates come as open grids, one broadcastable array per axis, so a
field built from them allocates only its own values.

Field values are biquaternions seen as ``(*extent, 4)`` complex arrays
and stored component-major: one C-contiguous ``(4, *extent)`` block of
component planes per entry, of length 1 on the axes a field is constant
along (the orbit's potential and wave function, a broadcast view's) and
broadcast there with zero strides.  Wave functions are reflector pairs
``(phi1, phi2)``.  The first-order operator is
``D = i d0 + i1 d1 + i2 d2 + i3 d3``; its ``D‡``, which flips the sign of
the spatial basis elements, acts only in the Dirac residual's second row.
Every kernel walks the broadcast shape of its operands' stored blocks,
one site, its own neighbour, on an axis all are constant along: the orbit
field costs its ``(x0, s)`` sites, a dense one the lattice's, with the
same bits.  It streams one axis-0 slab of whole time slices at a time (as
many as fit in ``_SLAB_BYTES`` of one field, at least one) through
buffers allocated once per call.  One flat kernel forms each difference
from contiguous ranges of the component planes offset by the axis stride,
scaled by the step's reciprocal; sites at an edge of axes 1-3 read
wrapped neighbours; norms and finiteness tests run over whole slices,
and only reductions read the interior (the sites with a full stencil).
Basis units act by signed permutation (times ``i`` on time); a report,
the max of per-slab maxima, is the whole-array value.
:func:`limit_sweep` tabulates the bare variables as the spacing shrinks
and fits their power laws as a :class:`~bohrqed.fitting.Sweep`.
:func:`write_field` formats its slabs in one contiguous part per CPU
(one slab's text per process at a time): part 0 here, each later one in
a ``python -I -S`` child running the stdlib-only ``_rows.py``, with the
same bytes; one slab or one CPU starts no child.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _rows
from ._domain import DomainError, finite, positive, whole
from .algebra import (
    BASIS,
    Biquaternion,
    LorentzTransform,
    bq_frobenius_arr,
    bq_mul_planes,
)
from .bohr import BohrState, SupercriticalCoupling
from .fitting import Sweep, fit_sweep

__all__ = [
    "HypercubicLattice",
    "LatticeField",
    "ReflectorField",
    "RegionBinding",
    "build_lattices",
    "dirac_apply_values",
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


@dataclass(frozen=True)
class HypercubicLattice:
    """Four-axis lattice; ``spacing`` is the half-interval, sites sit
    ``2*spacing`` apart along each axis."""

    spacing: float
    extent: tuple[int, int, int, int]
    origin: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    frame: str = "snapshot"

    def __post_init__(self):
        positive("spacing", self.spacing)
        ext = (self.extent,) * 4 if np.ndim(self.extent) == 0 else tuple(self.extent)
        origin = tuple(float(o) for o in self.origin)
        if len(ext) != 4 or len(origin) != 4:
            raise DomainError(f"extent and origin must have 4 axes, got "
                              f"{self.extent} and {self.origin}")
        for e in ext:
            whole("extent", e, 3)
        finite("origin", *origin)
        if self.frame not in ("snapshot", "compromise"):
            raise DomainError(f"unknown lattice frame {self.frame!r}")
        object.__setattr__(self, "extent", tuple(int(e) for e in ext))
        object.__setattr__(self, "origin", origin)

    @property
    def step(self) -> float:
        """The site interval; the stencils scale by its square's reciprocal,
        which a subnormal square overflows."""
        step = 2.0 * self.spacing
        square = float(step * step)  # a Python float: 1/square overflows silently
        positive(f"(2*spacing)**2 at spacing {self.spacing}", square)
        positive(f"1/(2*spacing)**2 at spacing {self.spacing}", 1 / square)
        return step

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.step * np.arange(self.extent[axis])

    def coordinate_grids(self) -> Sequence[np.ndarray]:
        """Open site-coordinate grids, one per axis: grid ``k`` has shape
        ``extent[k]`` on axis ``k`` and 1 on the others, so arithmetic on
        them broadcasts to the full extent without building it;
        ``np.broadcast_arrays(*grids)`` gives the dense ones."""
        return np.meshgrid(*(self.axis_coords(ax) for ax in range(4)),
                           indexing="ij", sparse=True)


class _Planes(NamedTuple):
    """A fresh C-contiguous complex block a field adopts as its ``(4, *extent)``
    planes, broadcast along its axes of length 1 with zero strides."""

    array: np.ndarray


def _planes(values) -> np.ndarray:
    """The component planes of ``(..., 4)`` values, a view."""
    return np.moveaxis(values, -1, 0)


def _stored(planes: np.ndarray) -> np.ndarray:
    """The block ``planes`` store: each zero-stride axis but the components' cut to one."""
    return planes[(slice(None), *(slice(None if s else 1) for s in planes.strides[1:]))]


def _field_values(values, lattice: HypercubicLattice, name: str) -> np.ndarray:
    """Read-only finite values of shape ``(*extent, 4)``, fields being
    immutable snapshots: planes broadcast from a stored block, a ``_Planes``
    array or a C-contiguous copy of the input's, seen through ``np.moveaxis``."""
    fresh = isinstance(values, _Planes)
    planes = (np.broadcast_to(values.array, (4,) + lattice.extent) if fresh
              else _planes(np.asarray(values)))
    if planes.shape != (4,) + lattice.extent:
        raise DomainError(f"{name} shape {planes.shape[1:] + planes.shape[:1]} "
                          f"does not match lattice extent {lattice.extent} + (4,)")
    block = values.array if fresh else _stored(planes).astype(complex, order="C")
    if not all(np.isfinite(plane[box]).all()  # contiguous: no ufunc buffer
               for plane in block for box in _slabs(block.shape[1:])):
        raise DomainError(f"{name} values must be finite")
    block.setflags(write=False)
    return np.moveaxis(np.broadcast_to(block, planes.shape), 0, -1)


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


def _typed(types: tuple, **values) -> None:
    """A ``TypeError`` naming the first of ``values`` that is none of ``types``."""
    for name, value in values.items():
        if not isinstance(value, types):
            raise TypeError(f"{name} must be a {' or '.join(t.__name__ for t in types)}")


def renormalize_mass(M_global: float, a: float, R_k: float) -> float:
    """The per-region mass ``(a/R_k) * M_global`` of a global magnitude."""
    M_global, a, R_k = float(M_global), float(a), float(R_k)
    finite("global mass", M_global)
    positive("spacing a", a)
    positive("spacing R_k", R_k)
    return (a / R_k) * M_global


@dataclass(frozen=True)
class RegionBinding:
    """One region's choice of roundel, compromise frame, and site mapping:
    translate by the center site, scale ``R_k -> a``, then ``Z``.  The
    transports apply it to whole fields; its one-site form is the tests'
    reference (``tests/reference_lattice.py``)."""

    Z: LorentzTransform
    lattice_k: HypercubicLattice
    lattice_p: HypercubicLattice

    @property
    def R_k(self) -> float:
        """The compromise half-interval, ``lattice_k.spacing``."""
        return self.lattice_k.spacing

    @property
    def a(self) -> float:
        """The snapshot half-interval, ``lattice_p.spacing``."""
        return self.lattice_p.spacing


def build_lattices(a: float, R_k: float, extent, Z: LorentzTransform,
                   ) -> tuple[HypercubicLattice, HypercubicLattice, RegionBinding]:
    """Snapshot lattice, compromise lattice, and the binding tying them.

    Both lattices sit at the origin and share the index structure; the
    binding's site map carries compromise positions onto snapshot positions
    and sends every neighbor of the center site onto the image center's
    neighbors (``tests/reference_lattice.py`` defines it site by site).
    """
    lat_k = HypercubicLattice(spacing=R_k, extent=extent, frame="compromise")
    lat_p = HypercubicLattice(spacing=a, extent=lat_k.extent, frame="snapshot")
    return lat_p, lat_k, RegionBinding(Z=Z, lattice_k=lat_k, lattice_p=lat_p)


# ---------------------------------------------------------------------------
# Discrete differentials
# ---------------------------------------------------------------------------

#: Sites without a full stencil at the low and high end of every axis, for
#: each first-order mode and for the 3-point wave stencil.
_FIRST_ORDER = {"backward": (1, 0), "central": (1, 1)}
_WAVE = (1, 1)


#: Bytes of one field's slab.  A slab's temporaries are a few times its
#: size: 256 KiB keeps them near a 2 MiB L2 and under half a 16^4 field.
_SLAB_BYTES = 1 << 18


def _interior(shape, margins) -> tuple[slice, ...]:
    """The box of sites ``(lo, hi) = margins`` in from the ends of each axis;
    on an axis of length 1 (a stored block, constant along it) its one site."""
    return tuple(slice(0, 1) if n == 1 else slice(margins[0], n - margins[1])
                 for n in shape[:4])


def _slabs(extent, margins=(0, 0)) -> list[tuple[slice, ...]]:
    """The sites ``margins`` in from the ends of every axis of ``extent`` (all
    by default), cut along axis 0 into slabs of at most ``_SLAB_BYTES`` of
    one field on a lattice of ``extent``, or one slice."""
    box = _interior(extent, margins)
    width = max(1, _SLAB_BYTES // (math.prod(extent[1:4]) * 4 * 16))
    t0, t1 = box[0].start, box[0].stop
    return [(slice(t, min(t + width, t1)),) + box[1:]
            for t in range(t0, t1, width)]


def _walk(operands, planes, margins=(0, 0)) -> tuple[list, list]:
    """The planes ``operands`` cut to the broadcast shape of their ``_stored``
    blocks, and that shape's ``_slabs`` of ``margins``, each with one complex
    ``(p, *slices)`` buffer of its whole time slices per ``p`` of ``planes``,
    allocated once for the first (no later one is wider), cut to each."""
    shape = np.broadcast_shapes(*(_stored(P).shape for P in operands))
    cut = [P[(slice(None), *map(slice, shape[1:]))] for P in operands]
    slabs = _slabs(shape[1:], margins)
    first = slabs[0][0]
    block = np.empty((sum(planes), first.stop - first.start, *shape[2:]), complex)
    cuts = np.cumsum(planes)[:-1]
    return cut, [(box, np.split(block[:, :box[0].stop - box[0].start], cuts)) for box in slabs]


def _inner(P: np.ndarray, box) -> np.ndarray:
    """The sites of ``box`` in the planes ``P`` of its whole time slices."""
    return P[(slice(None), slice(None), *box[1:])]


def _window(P: np.ndarray, box, margins) -> tuple[np.ndarray, tuple]:
    """``box``'s time slices of ``P`` and their ``margins`` halo (none on an
    axis 0 of one site) as flat planes, a copy only of planes broadcast to a
    larger extent than they store, and ``box`` within them."""
    lo, hi = margins if P.shape[1] > 1 else (0, 0)
    P = P[:, box[0].start - lo:box[0].stop + hi].reshape(4, -1).reshape((4, -1) + P.shape[2:])
    return P, (slice(lo, P.shape[1] - hi),) + box[1:]


def _stencil(P: np.ndarray, axis: int, step: float, mode: str | None, box,
             out: np.ndarray) -> np.ndarray:
    """The first-order ``mode`` difference along ``axis`` of the flat planes
    ``P`` on ``box``'s time slices into ``out``, or for None the 3-point
    second difference (backward then forward).  Each term is one flat range
    of each plane, offset by the axis stride: a move across an edge of axes
    1-3 wraps, into sites outside the interior, and where ``P`` has no
    axis-0 halo to wrap into, those sites of ``out`` are left as they were.
    An axis of one site is its own neighbour (stride 0): ``v - v`` or
    ``(v - 2v) + v``, a dense walk's bits there, overflow included.
    Numpy divides by a real ``h`` as ``(re + im*0) * (1/h)`` (Smith's
    method), so scaling the float view by ``1/h`` differs only in zero
    signs and NaN."""
    lo, hi = _WAVE if mode is None else _FIRST_ORDER[mode]
    size = math.prod(P.shape[2:])
    stride = math.prod(P.shape[axis + 2:]) if P.shape[axis + 1] > 1 else 0
    start, n = box[0].start * size, (box[0].stop - box[0].start) * size
    first, stop = max(0, lo * stride - start), min(n, P[0].size - start - hi * stride)
    flat, o = P.reshape(4, -1), out.reshape(4, -1)[:, first:stop]

    def at(offset: int) -> np.ndarray:
        return flat[:, start + first + offset * stride:start + stop + offset * stride]

    if mode is None:  # (a - 2b + c) / h²
        np.subtract(at(1), np.multiply(2.0, at(0), out=o), out=o)
        o += at(-1)
        scale = 1 / step ** 2
    else:  # (a - b) / h over the offsets -lo..hi
        np.subtract(at(hi), at(-lo), out=o)
        scale = 1 / ((lo + hi) * step)
    np.multiply(o.view(float), scale, out=o.view(float))
    return out


@functools.lru_cache(maxsize=8)  # the units of D and D‡
def _unit_rows(c: Biquaternion) -> tuple:
    """Left multiplication by the basis unit ``c`` as a signed permutation:
    component k of ``c * b`` is ``coef * b[source]`` for row k's
    ``(source, coef)``, ``coef`` being ±1, or ±1j for ``I0``."""
    columns = [(c * unit).as_array() for unit in (Biquaternion(1), *BASIS[1:])]
    return tuple(next((j, columns[j][k]) for j in range(4) if columns[j][k] != 0)
                 for k in range(4))


def _dirac(P: np.ndarray, step: float, box, bufs, mode: str,
           dagger: bool = False) -> np.ndarray:
    """``D P`` (``D‡ P`` with ``dagger``) on ``box``, read by ``_window``: each
    axis's difference permuted by ``_unit_rows`` of its basis unit and added
    into the first of ``bufs`` from zero, axes in order; the second holds the
    difference and the third, one plane, a ±1j term."""
    P, box = _window(P, box, _FIRST_ORDER[mode])
    out, diff, scratch = bufs
    out[...] = 0
    for mu, unit in enumerate(BASIS):
        _stencil(P, mu, step, mode, box, diff)
        for plane, (j, coef) in zip(out, _unit_rows(unit.quat_conj() if dagger else unit)):
            if coef == 1:
                plane += diff[j]
            elif coef == -1:  # subtract: no negated copy
                plane -= diff[j]
            else:
                plane += np.multiply(coef, diff[j], out=scratch[0])
    return out


def _wave(P: np.ndarray, step: float, box, bufs) -> np.ndarray:
    """``-d0² + d1² + d2² + d3²`` of ``P`` on ``box``, read by ``_window``,
    into the first of ``bufs``; the second holds each axis's difference."""
    P, box = _window(P, box, _WAVE)
    out, diff = bufs
    np.negative(_stencil(P, 0, step, None, box, out), out=out)
    for mu in range(1, 4):
        out += _stencil(P, mu, step, None, box, diff)
    return out


@np.errstate(over="ignore", invalid="ignore")  # non-finite output says it
def _padded(kernel, values, lattice: HypercubicLattice, margins, planes,
            *args) -> np.ndarray:
    """``kernel`` applied to raw field values, as C-contiguous planes, on every
    slab of the sites ``margins`` in, with ``_walk(planes)`` buffers; NaN elsewhere."""
    if np.shape(values) != lattice.extent + (4,):
        raise DomainError(f"values shape {np.shape(values)} does not match "
                          f"lattice extent {lattice.extent} + (4,)")
    (P,), slabs = _walk((np.ascontiguousarray(_planes(values)),), planes, margins)
    out = np.full((4,) + lattice.extent, np.nan + 0j)
    for box, bufs in slabs:
        out[(..., *box)] = _inner(kernel(P, lattice.step, box, bufs, *args), box)
    return np.moveaxis(out, 0, -1)


def dirac_apply_values(values: np.ndarray, lattice: HypercubicLattice) -> np.ndarray:
    """Apply ``D`` to raw field values with backward differences; NaN
    outside the stencil."""
    return _padded(_dirac, values, lattice, _FIRST_ORDER["backward"], (4, 4, 1), "backward")


def wave_apply(values: np.ndarray, lattice: HypercubicLattice) -> np.ndarray:
    """The scalar second-order operator ``-d0² + d1² + d2² + d3²`` on the
    3-point stencil, a backward then a forward difference per axis (exact
    on quadratics); NaN outside the stencil."""
    return _padded(_wave, values, lattice, _WAVE, (4, 4))


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    max_residual: float
    field_scale: float


def _max_norm(P: np.ndarray, box=(slice(None),) * 4) -> float:
    """Largest sitewise Frobenius magnitude of the component planes ``P`` of
    ``box``'s time slices on its sites; NaN if any site is NaN.  The norm
    runs over the whole contiguous slices, the max over the sites."""
    norms = bq_frobenius_arr(np.moveaxis(P, 0, -1))
    return float(np.max(norms[(slice(None), *box[1:])]))


def _maxima(rows, checked: int) -> list[float]:
    """The column-wise max of the per-slab ``rows``; ``FloatingPointError``
    if one of the first ``checked`` columns, the residuals, is not finite."""
    maxima = [float(m) for m in np.max(rows, axis=0)]
    if not all(map(math.isfinite, maxima[:checked])):
        raise FloatingPointError("residual contains non-finite interior values")
    return maxima


@np.errstate(over="ignore", invalid="ignore")  # raised as typed errors
def photon_residual(A: LatticeField, J: LatticeField) -> ResidualReport:
    """Max interior residual of ``DD A = J`` on the composed 3-point stencil.

    The operator acts componentwise (products of the operator reflector
    are diagonal and scalar), so the reflector-form and componentwise
    residuals coincide.  The source is read at the sites where the
    operator acts.
    """
    _typed((LatticeField,), A=A, J=J)
    if A.lattice != J.lattice:
        raise DomainError("fields must live on the same lattice")
    (a, j), slabs = _walk((_planes(A.values), _planes(J.values)), (4, 4), _WAVE)
    rows = []
    for box, bufs in slabs:
        lhs, rhs = _wave(a, A.lattice.step, box, bufs), j[:, box[0]]
        scales = _max_norm(rhs, box), _max_norm(lhs, box)
        lhs -= rhs
        rows.append((_max_norm(lhs, box), *scales))
    worst, rhs_max, lhs_max = _maxima(rows, 1)
    return ResidualReport(max_residual=worst,
                          field_scale=max(rhs_max, lhs_max, 1e-300))


@np.errstate(over="ignore", invalid="ignore")  # raised as typed errors
def dirac_residual(phi: ReflectorField, A: LatticeField, e: float,
                   mass: float, mode: str = "backward") -> ResidualReport:
    """Max interior residual of ``(D - i e A) Phi = Phi M`` in reflector form.

    The potential ``A`` is a :class:`LatticeField` on ``phi``'s lattice
    (anything else is a ``TypeError``); a constant one, such as
    :func:`bohr_potential_field`'s, is a zero-stride field.  ``mass`` is a
    float, :func:`renormalize_mass`'s per-region mass for one.
    It walks ``_walk``'s cut of ``phi1``, ``phi2`` and ``A``, with a dense
    copy's bits: the full extent if one is dense, ``(T, S, 1, 1)`` for
    :func:`bohr_phi_field`'s orbit field.
    Component equations (anti-diagonal layout, mass ``m~ = -i m``):
    ``D phi2 - i e A~ phi2 - phi1 (i m) = 0`` and
    ``D‡ phi1 - i e A~ phi1 + phi2 (i m) = 0``.
    """
    finite("coupling and mass", e=e, mass=mass)
    _typed((ReflectorField,), phi=phi)
    _typed((LatticeField,), potential=A)
    if A.lattice != phi.lattice:
        raise DomainError("potential must live on the wave function's lattice")
    if mode not in _FIRST_ORDER:
        raise DomainError(f"unknown difference mode {mode!r}")
    step = phi.lattice.step
    (a, phi1, phi2), slabs = _walk([_planes(v) for v in (A.values, phi.phi1, phi.phi2)],
                                   (4, 4, 1), _FIRST_ORDER[mode])

    def row(box, bufs, psi, chi, dagger: bool) -> float:
        """One equation's max on ``box``; ``chi`` is ``psi``'s mass partner."""
        r = _dirac(psi, step, box, bufs, mode, dagger)
        prod = bufs[1]  # the difference is spent
        r -= np.multiply(1j * e, bq_mul_planes(a[:, box[0]], psi[:, box[0]],
                                               prod, bufs[2][0]), out=prod)
        mass_term = np.multiply(chi[:, box[0]], 1j * mass, out=prod)
        (np.add if dagger else np.subtract)(r, mass_term, out=r)
        return _max_norm(r, box)

    n11, n22 = _maxima([(row(box, bufs, phi2, phi1, False),
                         row(box, bufs, phi1, phi2, True)) for box, bufs in slabs], 2)
    scale = _maxima([(_max_norm(phi1[:, box[0]]), _max_norm(phi2[:, box[0]]))
                     for box in _slabs(phi1.shape[1:])], 0)
    return ResidualReport(max_residual=max(n11, n22),
                          field_scale=max(*scale, 1e-300))


# ---------------------------------------------------------------------------
# Field constructors
# ---------------------------------------------------------------------------

def bohr_phi_field(lattice: HypercubicLattice, state: BohrState) -> ReflectorField:
    """Sample the closed-form orbit wave function on an orbit-space lattice.

    Axes are ``(x0, s, r, x3)``; the phase advances as ``mu*s - nu*x0``
    and is constant along the radial and x3 axes, so each entry stores one
    ``(4, T, S, 1, 1)`` block, broadcast along them with zero strides.
    """
    x0 = lattice.axis_coords(0)[:, None]
    s = lattice.axis_coords(1)[None, :]
    phase = np.exp(1j * (state.mu * s - state.nu * x0))[:, :, None, None]
    phi1 = np.zeros((4,) + phase.shape, dtype=complex)
    phi1[0] = phase
    m = state.input.m
    phi2 = np.zeros_like(phi1)
    phi2[0] = (1j * state.eta / m) * phase
    phi2[1] = (state.mu / m) * phase
    return ReflectorField(lattice=lattice, phi1=_Planes(phi1), phi2=_Planes(phi2))


def bohr_potential_field(lattice: HypercubicLattice,
                         state: BohrState) -> LatticeField:
    """Constant orbit-space potential ``A~ = -i f / R`` (scalar entry), stored
    as one site's planes broadcast with zero strides: no per-site storage."""
    block = np.zeros((4, 1, 1, 1, 1), dtype=complex)
    block[0] = -1j * state.input.f / state.R
    return LatticeField(lattice=lattice, label="potential", values=_Planes(block))


def charge_conjugate_field(phi: ReflectorField) -> ReflectorField:
    """Conjugate partner solving the sign-flipped-charge equation.

    ``phi1 -> -conj(phi2)``, ``phi2 -> conj(phi1)`` with coefficientwise
    complex conjugation; pairing it with ``e -> -e`` leaves the Dirac
    residual magnitudes unchanged.  Each entry's stored block is conjugated,
    so the partner of a broadcast field is broadcast, of a dense one dense.
    """
    _typed((ReflectorField,), phi=phi)
    phi1 = np.conj(_stored(_planes(phi.phi2)))
    return ReflectorField(lattice=phi.lattice,
                          phi1=_Planes(np.negative(phi1, out=phi1)),
                          phi2=_Planes(np.conj(_stored(_planes(phi.phi1)))))


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
    entries (matrix mode).  :class:`~bohrqed.DomainError` if the field is
    not on ``binding.lattice_k``.
    """
    _typed((LatticeField, ReflectorField), field=field)
    if field.lattice != binding.lattice_k:
        raise DomainError("the field must live on binding.lattice_k")
    try:
        power = TRANSFORM_EXPONENTS[kind]
    except KeyError:
        raise DomainError(f"unknown transform kind {kind!r}") from None

    def carried(values):  # the stored block, sitewise
        (P,), slabs = _walk((_planes(values),), (4, 1))
        out = np.empty(P.shape, complex)
        for box, (mid, scratch) in slabs:
            _transport(P[:, box[0]], binding, power, out[:, box[0]], mid, scratch[0])
        return _Planes(out)

    if isinstance(field, ReflectorField):
        return ReflectorField(lattice=binding.lattice_p,
                              phi1=carried(field.phi1), phi2=carried(field.phi2))
    return LatticeField(lattice=binding.lattice_p,
                        values=carried(field.values), label=field.label)


@dataclass(frozen=True)
class EquivalenceReport:
    lk_residual: float
    lp_residual: float
    commutation_residual: float
    scale_factor: float


@np.errstate(over="ignore", invalid="ignore")  # raised as typed errors
def equivalence_check(binding: RegionBinding, A_k: LatticeField,
                      J_k: LatticeField) -> EquivalenceReport:
    """The photon equation holds on the snapshot lattice iff it holds on
    the compromise lattice.

    Scaling both sides by ``(R_k/a)³`` and transforming by ``Z`` commutes
    exactly with the 3-point stencil of :func:`wave_apply`, so the snapshot
    residual field equals the transported compromise residual field;
    ``commutation_residual`` measures that identity relative to the
    operator's own scale.  :class:`~bohrqed.DomainError` if a field is not
    on ``binding.lattice_k`` or a transported field is not finite,
    ``FloatingPointError`` if a residual is not finite.
    """
    _typed((LatticeField,), A_k=A_k, J_k=J_k)
    if not A_k.lattice == J_k.lattice == binding.lattice_k:
        raise DomainError("A_k and J_k must live on binding.lattice_k")
    (a_k, j_k), slabs = _walk((_planes(A_k.values), _planes(J_k.values)), (4, 4, 4), _WAVE)
    lo, hi = slabs[0][0][0].start, a_k.shape[1] - slabs[-1][0][0].stop  # axis-0 margins
    # the snapshot potential on slices start.. of the slab and its axis-0
    # halo; the halo comes over from the last slab, so each slice of A_k is
    # carried once, up to ``done``
    window = np.empty((4, slabs[0][0][0].stop + hi) + a_k.shape[2:], complex)
    # g P for a transport, and a scratch plane, on up to a slab of slices
    carry = np.empty((5, slabs[0][0][0].stop - lo) + a_k.shape[2:], complex)

    def carried(P, out, kind, box=(slice(None),) * 4):
        """``P`` carried into ``out``, finite on ``box``'s axes 1-3 unless None."""
        mid = carry[:, :P.shape[1]]
        _transport(P, binding, TRANSFORM_EXPONENTS[kind], out, mid[:4], mid[4])
        if box is not None and not _inner(np.isfinite(out), box).all():
            raise DomainError(f"transported {kind} values must be finite")
        return out

    start = done = 0
    rows = []
    for slab, (resid_k, resid_p, diff) in slabs:
        t0, t1 = slab[0].start, slab[0].stop
        _wave(a_k, binding.lattice_k.step, slab, (resid_k, diff))
        resid_k -= j_k[:, slab[0]]
        shift, start = t0 - lo - start, t0 - lo
        for t in range(done - start):  # plane by plane, slice by slice: the
            for plane in window:          # bounds are disjoint, no copy buffer
                plane[t] = plane[shift + t]
        for t in range(done, t1 + hi):
            carried(a_k[:, t:t + 1], window[:, t - start:t - start + 1], "potential")
        done = t1 + hi
        _wave(window, binding.lattice_p.step, (slice(lo, lo + t1 - t0),) + slab[1:],
              (resid_p, diff))
        scale = _max_norm(resid_p, slab)
        resid_p -= carried(j_k[:, slab[0]], diff, "current", slab)
        lp = _max_norm(resid_p, slab)
        resid_p -= carried(resid_k, diff, "current", None)
        rows.append((_max_norm(resid_k, slab), lp, _max_norm(resid_p, slab), scale))
    lk, lp, mismatch, scale = _maxima(rows, 3)
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

#: ``a**p`` is a normal float while ``p*log(a)`` lies between these logs.
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)


def limit_sweep(p: float, spacings: Sequence[float], n: int = 1,
                T: float = 1.0) -> Sweep:
    """Shrink the snapshot spacing with ``R_k = a**p`` and a fixed source.

    A unit source current ``J`` makes the potential scale like ``a²`` and the
    site charge like ``a³``; normalizing over a cube of side T keeps the
    bare charges finite while the global mass magnitude blows up as
    ``a**-(3+p)``.  The columns are ``a, R_k, J, A, f, eB, eBa, M, nl``.
    Raises :class:`~bohrqed.bohr.SupercriticalCoupling` if any row's
    ``|eB * f|`` reaches n.
    """
    positive("exponent p", p)
    positive("box side T", T)
    whole("quantum number n", n, 1)

    def row(a: float) -> dict:
        if not _LOG_TINY < p * math.log(a) < _LOG_HUGE:
            raise DomainError(f"R_k = a**p leaves the normal float range at "
                              f"a = {a}, p = {p}")
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
        return {"a": a, "R_k": R_k, "J": 1.0, "A": A, "f": f, "eB": eB,
                "eBa": eBa, "M": M, "nl": nl}

    expected = dict(LIMIT_EXPONENTS)
    expected["M"] = -(3.0 + p)
    expected["R_k"] = p
    expected["nl"] = -3.0
    return fit_sweep(spacings, "spacings", row, expected)


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _replacing(path, mode: str = "wb", **kwargs):
    """A new file in ``path``'s directory, opened for ``mode`` with the
    permissions ``open(path, mode)`` gives, that replaces ``path`` when the
    block ends; on any error it is removed, and ``path`` keeps what it held,
    or stays absent."""
    temp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(temp, "x" + mode[1:], **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def write_field(path, obj: LatticeField | ReflectorField) -> None:
    """Flat text format: header, then one line per site with the index
    quadruple and the complex components (4 per biquaternion entry).

    The ``_slabs`` are cut into as many contiguous parts as there are CPUs
    this process may run on, or slabs if fewer.  This process formats part
    0 straight into the file.  Each later part is formatted by a fresh
    ``python -I -S`` child running ``bohrqed/_rows.py``, which imports
    nothing but the standard library: it reads the part's raw doubles from
    an unnamed temporary file and writes its rows to another, appended
    here in order.  Both sides format with ``_rows.rows``, so the bytes do
    not depend on the split.  One slab or one CPU starts no child.  Each
    process holds one slab's text at a time.  A child that fails raises a
    ``RuntimeError`` naming ``path``; on every exit no child is left
    running and every temporary file is gone.  The rows go to a new file
    that replaces ``path`` once complete, so a failed write leaves the
    previous file, or none."""
    _typed((LatticeField, ReflectorField), obj=obj)
    import subprocess  # only here: the package imports without it

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
    slabs = _slabs(lattice.extent)
    n = min(_cpus(), len(slabs))
    parts = [slabs[len(slabs) * k // n:len(slabs) * (k + 1) // n] for k in range(n)]

    def block(box) -> np.ndarray:  # C-contiguous, so that rows view as floats
        return np.ascontiguousarray(
            np.concatenate([obj.phi1[box], obj.phi2[box]], axis=-1)
            if reflector else obj.values[box])

    with _replacing(path) as fh, contextlib.ExitStack() as stack:
        fh.write(("\n".join(header) + "\n").encode())
        children = []
        for part in parts[1:]:
            with tempfile.TemporaryFile() as raw:
                for box in part:
                    raw.write(block(box))
                raw.seek(0)
                text = stack.enter_context(tempfile.TemporaryFile())
                first, last = part[0][0], part[-1][0]
                child = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-I", "-S", _rows.__file__, str(width),
                     str(first.start), str(last.stop), str(first.stop - first.start),
                     *map(str, lattice.extent[1:])], stdin=raw, stdout=text))
                stack.callback(child.kill)  # on an error; runs before the wait
            children.append((child, text))
        for box in parts[0]:
            values = block(box)
            fh.write(_rows.rows(values.view(float).ravel().tolist(), box[0].start,
                                values.shape[:4], width).encode())
        for child, text in children:
            if child.wait():
                raise RuntimeError(f"formatting the rows of {path} failed: "
                                   f"{sys.executable} exited with {child.returncode}")
            text.seek(0)
            shutil.copyfileobj(text, fh)


def _header_value(header: dict[str, str], key: str, path, parse):
    """``parse`` of a header line's value; a :class:`DomainError` naming the
    field and the file where it is not a number."""
    try:
        return parse(header[key])
    except ValueError:
        raise DomainError(f"non-numeric {key} {header[key]!r} in {path}") from None


def _bad_row(path, number: int, lines, rows, extent) -> DomainError:
    """The error of the first bad row of ``lines``, which start at line ``number``."""
    for number, line in enumerate(lines, number):
        if not line.strip():  # a blank line holds no row (and loadtxt would warn)
            continue
        try:
            row = np.loadtxt([line], dtype=rows)
        except ValueError:
            return DomainError(f"malformed row at line {number} of {path}: {line.strip()!r}")
        site = tuple(row["site"].tolist())
        if not all(0 <= i < n for i, n in zip(site, extent)):
            return DomainError(f"site {site} outside extent {extent} at line {number} of {path}")
        if not np.isfinite(row["values"]).all():
            return DomainError(f"non-finite value at line {number} of {path}: {line.strip()!r}")


def read_field(path) -> LatticeField | ReflectorField:
    """Inverse of :func:`write_field`; ``DomainError`` on a malformed,
    truncated or incomplete file, naming the bad line or the first missing site.

    An undecodable byte stays in its line as a lone surrogate, so the line
    fails to parse; a file too short to hold a row per site is parsed
    without allocating the field."""
    with open(path, errors="surrogateescape") as fh:
        magic = fh.readline().split()
        if magic[:1] != ["bohrqed-field"]:
            raise DomainError(f"{path} is not a field file")
        if magic[1:] != ["1"]:
            raise DomainError(f"unknown field format {' '.join(magic[1:])!r} in {path}")
        header = dict(fh.readline().strip().partition(" ")[::2] for _ in range(5))
        missing = {"kind", "spacing", "extent", "origin", "frame"} - header.keys()
        if missing:
            raise DomainError(f"truncated header: no {', '.join(sorted(missing))} "
                              f"in {path}")
        extent = _header_value(header, "extent", path, lambda v: tuple(map(int, v.split())))
        spacing = _header_value(header, "spacing", path, float)
        origin = _header_value(header, "origin", path, lambda v: tuple(map(float, v.split())))
        try:  # values that parse but make no lattice
            lattice = HypercubicLattice(spacing=spacing, extent=extent, origin=origin,
                                        frame=header["frame"])
        except DomainError as err:
            raise DomainError(f"{err} in {path}") from None
        kind = header["kind"]
        if kind not in ("reflector", "biquaternion"):
            raise DomainError(f"unknown field kind {kind!r} in {path}")
        width = 8 if kind == "reflector" else 4
        rows = np.dtype([("site", np.intp, (4,)), ("values", complex, (width,))])
        sites = math.prod(extent)
        # a row is 4 + width tokens of one character or more, each followed by
        # a space or a newline (but the file's last): a file too short for a
        # row per site misses a site, which the parse names without the field
        short = sites * 2 * (4 + width) - 1 > os.fstat(fh.fileno()).st_size - fh.tell()
        planes = None if short else np.empty((width,) + extent, complex)
        seen = []  # the flat index of every row's site
        first = _slabs(extent)[0][0]  # one slab's lines at a time, from line 7
        size = (first.stop - first.start) * math.prod(extent[1:])
        for k, lines in enumerate(iter(lambda: list(itertools.islice(fh, size)), [])):
            if any(map(str.strip, lines)):  # loadtxt warns on blank lines alone
                try:  # a wrong token count, a non-numeric token, a site outside
                    table = np.loadtxt(lines, dtype=rows, ndmin=1)
                    flat = np.ravel_multi_index(table["site"].T, extent)
                    if not np.isfinite(table["values"]).all():  # or a non-finite value
                        raise ValueError
                except ValueError:
                    raise _bad_row(path, 7 + k * size, lines, rows, extent) from None
                if planes is not None:
                    planes.reshape(width, -1)[:, flat] = table["values"].T
                seen.append(flat)
    # every row's site between the ends -1 and ``sites``, sorted: a step of
    # 0 repeats a site, a step of more than 1 skips one
    ends = np.concatenate([[-1], *seen, [sites]])
    ends.sort()
    step = np.diff(ends)
    for bad, problem in ((ends[:-1][step == 0], "duplicate"),
                         (ends[:-1][step > 1] + 1, "missing")):
        if bad.size:
            site = tuple(int(i) for i in np.unravel_index(bad[0], extent))
            raise DomainError(f"{problem} site {site} in {path}")
    if kind == "reflector":
        return ReflectorField(lattice=lattice, phi1=_Planes(planes[:4]),
                              phi2=_Planes(planes[4:]))
    return LatticeField(lattice=lattice, values=_Planes(planes))
