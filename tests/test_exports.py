import pytest

from bohrqed import algebra, bohr, ensemble, fitting, lattice, mspace


@pytest.mark.parametrize("module", [algebra, bohr, ensemble, fitting, lattice,
                                    mspace], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks only ``from module import *``
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
