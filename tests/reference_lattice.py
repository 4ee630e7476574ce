"""Reference site map between the compromise and snapshot lattices.

``bohrqed.lattice.build_lattices`` returns a ``RegionBinding`` whose
transports act on whole fields.  The site bijection it stands for, one
position at a time, is defined here as functions of a lattice or binding:
:func:`site_position` places a site index, :func:`map_position`
translates by the center site, scales ``R_k -> a`` and applies ``Z``
through :func:`transform_vec4`, and :func:`mapped_site` maps a compromise
site onto the snapshot frame.
"""

import numpy as np

from bohrqed.algebra import Biquaternion


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
