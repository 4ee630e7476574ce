"""Reference site map between the compromise and snapshot lattices.

``bohrqed.lattice.build_lattices`` returns a ``RegionBinding`` whose
transports act on whole fields.  The site bijection it stands for, one
position at a time, is defined here as functions of a lattice or binding:
:func:`site_position` places a site index, :func:`map_position`
translates, scales ``R_k -> a`` and applies ``Z``, and :func:`mapped_site`
maps a compromise site onto the snapshot frame.
"""

import numpy as np


def site_position(lattice, index) -> np.ndarray:
    idx = np.asarray(index, dtype=float)
    return np.asarray(lattice.origin) + lattice.step * idx


def map_position(binding, position) -> np.ndarray:
    """The site bijection: translate, scale ``R_k -> a``, then ``Z``."""
    x = np.asarray(position, dtype=float)
    xk = site_position(binding.lattice_k, binding.center_index)
    t = site_position(binding.lattice_p, binding.center_index)
    return t + binding.Z.apply_vec4(binding.scale * (x - xk))


def mapped_site(binding, index) -> np.ndarray:
    return map_position(binding, site_position(binding.lattice_k, index))
