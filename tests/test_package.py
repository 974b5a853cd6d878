import types

import pytest

import bestexec
from bestexec import estimation, market, simulation, strategies, valuation

# the library modules; cli is a front end and exports nothing to the package
LIBRARY = (market, estimation, strategies, valuation, simulation)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda module: module.__name__)
def test_the_package_exports_every_name_of_a_library_modules_all(module):
    missing = [name for name in module.__all__ if not hasattr(bestexec, name)]
    assert missing == []
    assert all(getattr(bestexec, name) is getattr(module, name) for name in module.__all__)


def test_every_public_package_name_is_in_a_library_modules_all():
    listed = set().union(*(module.__all__ for module in LIBRARY))
    public = {name for name, value in vars(bestexec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - listed) == []
