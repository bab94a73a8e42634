import importlib
import pkgutil

import pytest

import nonlocal_sis

MODULES = [info.name for info in pkgutil.iter_modules(nonlocal_sis.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_package_publishes_every_public_name(module):
    # the package republishes each module's __all__, so the two cannot drift
    names = getattr(importlib.import_module(f"nonlocal_sis.{module}"),
                    "__all__", [])
    missing = [name for name in names if not hasattr(nonlocal_sis, name)]
    assert not missing, missing
