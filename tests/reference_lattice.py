"""Reference site map between the compromise and snapshot lattices.

``bohrqed.lattice.build_lattices`` returns a ``RegionBinding`` whose
transports act on whole fields.  The site bijection it stands for, one
position at a time, is defined here as functions of a lattice or binding:
:func:`site_position` places a site index, :func:`map_position`
translates by the center site, scales ``R_k -> a`` and applies ``Z``
through :func:`transform_vec4`, and :func:`mapped_site` maps a compromise
site onto the snapshot frame.

:func:`write_field_rows` is the field writer as it was while one process
formatted every row: the byte-level reference of
``bohrqed.lattice.write_field``.
"""

import numpy as np

from bohrqed.algebra import Biquaternion
from bohrqed.lattice import ReflectorField, _slabs


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
