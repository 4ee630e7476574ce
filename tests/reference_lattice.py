"""The definitional references of ``bohrqed.lattice``.

The lattice kernels, each evaluated at every site of its interior from
its definition, on dense ``(*extent, 4)`` values with plain numpy
indexing: no slabs, windows, flat offsets or stored blocks.  Every
kernel walks slabs of its operands' stored blocks; these functions hold
the one definition each walk must reproduce, bit for bit, in the
kernels' documented operation order:

- :func:`difference`: the first difference of one mode along one axis,
  ``v(x + hi) - v(x - lo)``, each part times the reciprocal of
  ``(lo + hi) * step``;
- :func:`dirac`: ``D = i d0 + i1 d1 + i2 d2 + i3 d3`` (with ``dagger``
  ``D‡``, the spatial units negated), axes 0..3 added in order from
  zero, each unit acting by the signed permutation its scalar products
  give (:func:`unit_rows`);
- :func:`wave`: ``-d0² + d1² + d2² + d3²`` on the 3-point stencil;
- :func:`transport`: ``(R_k/a)**p g q g†``;
- :func:`dirac_rows`: both rows of ``(D - i e A) Phi = Phi M``;
- :func:`dirac_report`, :func:`photon_report` and
  :func:`equivalence_report`: each report as the max of site norms.

Two rules make the agreement bitwise rather than close: a general
complex product goes through the ``np.multiply`` ufunc, never Python's
``*`` (numpy may fuse its multiply-adds where Python does not), and a
norm goes through ``bq_frobenius_arr`` (Python's ``abs`` of a complex
differs from numpy's in the last bit).  A later kernel that changes the
operation order is held to 1e-15 relative to a site's largest term.

The site bijection between the compromise and snapshot lattices is
defined here one position at a time: :func:`site_position` places a
site index, :func:`map_position` translates by the center site, scales
``R_k -> a`` and applies ``Z`` through :func:`transform_vec4`, and
:func:`mapped_site` maps a compromise site onto the snapshot frame.

:func:`write_field_rows` is the field writer one row at a time, a ``%``
per site: the byte-level reference of ``bohrqed.lattice.write_field``,
which formats a whole slab with one ``%``.
"""

import numpy as np

from bohrqed.algebra import BASIS, I1, I2, I3, Biquaternion, bq_frobenius_arr
from bohrqed.lattice import EquivalenceReport, ReflectorField, ResidualReport, _slabs


def transform_vec4(Z, v) -> np.ndarray:
    """``Z`` acting on the real four-vector ``v``, housed as
    ``i*v0 + v1 i1 + v2 i2 + v3 i3``."""
    v = np.asarray(v, dtype=float)
    q = Z.apply(Biquaternion(1j * v[0], *v[1:]))
    return np.array([q.w.imag, q.x.real, q.y.real, q.z.real])


def center_index(binding) -> tuple[int, ...]:
    """The center site, ``e // 2`` on each axis: extents >= 3 give it all
    its neighbors."""
    return tuple(e // 2 for e in binding.lattice_k.extent)


def site_position(lattice, index) -> np.ndarray:
    idx = np.asarray(index, dtype=float)
    return np.asarray(lattice.origin) + lattice.step * idx


def map_position(binding, position) -> np.ndarray:
    """The site bijection: translate, scale ``R_k -> a``, then ``Z``."""
    x = np.asarray(position, dtype=float)
    xk = site_position(binding.lattice_k, center_index(binding))
    t = site_position(binding.lattice_p, center_index(binding))
    return t + transform_vec4(binding.Z, binding.a / binding.R_k * (x - xk))


def mapped_site(binding, index) -> np.ndarray:
    return map_position(binding, site_position(binding.lattice_k, index))


def write_field_rows(path, obj) -> None:
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


# ---------------------------------------------------------------------------
# The kernels at every site of their interiors
# ---------------------------------------------------------------------------

#: Sites without a full stencil at the low and high end of every axis: for
#: each first difference, and for the 3-point second difference.
MARGINS = {"backward": (1, 0), "forward": (0, 1), "central": (1, 1)}
WAVE = (1, 1)

#: The powers of ``R_k/a`` each kind of field picks up in transport.
POWERS = {"current": 3, "potential": 1, "derivative": 2, "operator": 1}

#: The units ``1, i1, i2, i3``: unit ``i`` times unit ``i ^ k`` is ``±`` unit ``k``.
UNITS = (Biquaternion(1), I1, I2, I3)

#: ``SIGNS[k][i]``: the sign of ``a[i] b[i ^ k]`` in component ``k`` of ``a b``.
SIGNS = tuple(tuple((UNITS[i] * UNITS[i ^ k]).as_array()[k].real for i in range(4))
              for k in range(4))


def interior(shape, margins) -> tuple[slice, ...]:
    """The sites ``margins = (lo, hi)`` in from the ends of each of the four
    axes of ``shape``: those with a full stencil."""
    lo, hi = margins
    return tuple(slice(lo, n - hi) for n in shape[:4])


def padded(inner, shape, margins) -> np.ndarray:
    """``inner`` on the interior of ``margins`` of a ``shape`` array, NaN
    elsewhere: the public operators' output."""
    out = np.full(shape, np.nan + 0j)
    out[interior(shape, margins)] = inner
    return out


def _moved(values, sites, axis: int, offset: int) -> np.ndarray:
    """``values`` at each of ``sites`` moved ``offset`` sites along ``axis``."""
    box = list(sites)
    box[axis] = slice(sites[axis].start + offset, sites[axis].stop + offset)
    return values[tuple(box)]


def _scaled(d, s: float) -> np.ndarray:
    """``complex(re * s, im * s)`` for each value: both parts times the real ``s``."""
    out = np.empty_like(d)
    out.real, out.imag = d.real * s, d.imag * s
    return out


def difference(values, step: float, axis: int, mode: str) -> np.ndarray:
    """The first ``mode`` difference along ``axis`` at each site ``x`` of the
    mode's interior: ``v(x + hi) - v(x - lo)``, times ``1 / ((lo + hi) * step)``."""
    lo, hi = MARGINS[mode]
    sites = interior(values.shape, MARGINS[mode])
    return _scaled(_moved(values, sites, axis, hi) - _moved(values, sites, axis, -lo),
                   1 / ((lo + hi) * step))


def unit_rows(c: Biquaternion) -> list[tuple[int, complex]]:
    """Left multiplication by the unit ``c`` as a signed permutation: component
    ``k`` of ``c b`` is ``coefficient * b[source]``, read off the scalar
    products ``c * unit``."""
    columns = [(c * unit).as_array() for unit in UNITS]
    return [next((j, columns[j][k]) for j in range(4) if columns[j][k] != 0)
            for k in range(4)]


def product(a, b) -> np.ndarray:
    """The Hamilton product ``a b`` of ``(..., 4)`` values at each site (a
    constant is a ``(4,)`` array): component ``k`` is ``((t0 ± t1) ± t2) ± t3``
    with ``ti = a[i] b[i ^ k]``, the scalar product's order."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), complex)
    for k in range(4):
        acc = np.multiply(a[..., 0], b[..., k])
        for i in range(1, 4):
            term = np.multiply(a[..., i], b[..., i ^ k])
            acc = acc + term if SIGNS[k][i] > 0 else acc - term
        out[..., k] = acc
    return out


def dirac(values, step: float, mode: str = "backward", dagger: bool = False,
          basis=None) -> np.ndarray:
    """``sum_mu basis[mu] d_mu`` of ``values`` at each site of ``mode``'s
    interior, added from zero in axis order; by default the basis of ``D``
    (of ``D‡`` with ``dagger``).  A unit adds or subtracts the difference's
    component its row takes, or adds its product with ``±1j``; any other
    basis element adds its Hamilton product with the difference."""
    units = basis or [u.quat_conj() if dagger else u for u in BASIS]
    out = np.zeros(values[interior(values.shape, MARGINS[mode])].shape, complex)
    for mu, unit in enumerate(units):
        d = difference(values, step, mu, mode)
        if basis is not None:
            out = out + product(unit.as_array(), d)
            continue
        for k, (j, coef) in enumerate(unit_rows(unit)):
            if coef == 1:
                out[..., k] += d[..., j]
            elif coef == -1:
                out[..., k] -= d[..., j]
            else:
                out[..., k] += np.multiply(coef, d[..., j])
    return out


def wave(values, step: float) -> np.ndarray:
    """``-d0² + d1² + d2² + d3²`` at each site ``x`` of the 3-point interior:
    along each axis ``(v(x + 1) - 2 v(x)) + v(x - 1)`` times ``1 / step**2``;
    the time term negated, then the space terms added in axis order."""
    sites = interior(values.shape, WAVE)
    centre = np.multiply(2.0, values[sites])
    out = None
    for mu in range(4):
        second = _scaled((_moved(values, sites, mu, 1) - centre)
                         + _moved(values, sites, mu, -1), 1 / step ** 2)
        out = -second if out is None else out + second
    return out


def transport(values, binding, kind: str) -> np.ndarray:
    """``(R_k/a)**p g q g†`` of each value ``q``, ``p`` the power of ``kind``:
    the two Hamilton products, then the product with the factor."""
    g = binding.Z.g
    factor = (binding.R_k / binding.a) ** POWERS[kind]
    return np.multiply(product(product(g.as_array(), values), g.dagger().as_array()),
                       factor)


def max_norm(values) -> float:
    """The largest site norm of ``values``; NaN if any site's is."""
    return float(np.max(bq_frobenius_arr(values)))


def dirac_rows(phi1, phi2, A, e: float, mass: float, step: float,
               mode: str = "backward") -> tuple[np.ndarray, np.ndarray]:
    """The equations of ``(D - i e A) Phi = Phi M`` at each site of ``mode``'s
    interior: ``(D phi2 - (i e) A phi2) - phi1 (i m)`` and
    ``(D‡ phi1 - (i e) A phi1) + phi2 (i m)``."""
    sites = interior(phi1.shape, MARGINS[mode])

    def row(psi, chi, dagger: bool) -> np.ndarray:
        r = dirac(psi, step, mode, dagger) - np.multiply(
            1j * e, product(A[sites], psi[sites]))
        mass_term = np.multiply(chi[sites], 1j * mass)
        return r + mass_term if dagger else r - mass_term

    return row(phi2, phi1, False), row(phi1, phi2, True)


def dirac_report(phi1, phi2, A, e: float, mass: float, step: float,
                 mode: str = "backward") -> ResidualReport:
    """``dirac_residual``: the largest site norm of either row, and of either
    entry at any site, at least 1e-300."""
    rows = dirac_rows(phi1, phi2, A, e, mass, step, mode)
    return ResidualReport(max_residual=float(np.max([max_norm(r) for r in rows])),
                          field_scale=max(max_norm(phi1), max_norm(phi2), 1e-300))


def photon_report(A, J, step: float) -> ResidualReport:
    """``photon_residual``: the largest site norm of ``wave(A) - J`` on the
    3-point interior, and of either side there, at least 1e-300."""
    lhs, rhs = wave(A, step), J[interior(J.shape, WAVE)]
    return ResidualReport(max_residual=max_norm(lhs - rhs),
                          field_scale=max(max_norm(rhs), max_norm(lhs), 1e-300))


def equivalence_report(binding, A_k, J_k) -> EquivalenceReport:
    """``equivalence_check``: the compromise residual ``wave(A_k) - J_k``, the
    snapshot residual of the transported fields, and the snapshot residual
    less the transported compromise one, relative to the snapshot operator's
    largest site norm."""
    sites = interior(A_k.shape, WAVE)
    resid_k = wave(A_k, binding.lattice_k.step) - J_k[sites]
    lhs_p = wave(transport(A_k, binding, "potential"), binding.lattice_p.step)
    resid_p = lhs_p - transport(J_k[sites], binding, "current")
    mismatch = resid_p - transport(resid_k, binding, "current")
    return EquivalenceReport(
        lk_residual=max_norm(resid_k), lp_residual=max_norm(resid_p),
        commutation_residual=max_norm(mismatch) / max(max_norm(lhs_p), 1e-300),
        scale_factor=(binding.R_k / binding.a) ** 3)
