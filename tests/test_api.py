"""The package's public names: `__all__` lists exactly what it imports."""

import types

import enetcpu


def test_every_name_in_all_resolves():
    assert len(set(enetcpu.__all__)) == len(enetcpu.__all__)
    missing = [name for name in enetcpu.__all__ if not hasattr(enetcpu, name)]
    assert missing == []


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from enetcpu import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(enetcpu.__all__)


def test_all_is_the_public_names_the_package_imports():
    # submodules are attributes of the package too, but not exports
    imported = {name for name, obj in vars(enetcpu).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(enetcpu.__all__) == sorted(imported)
