"""The package's public names are the union of its modules' ``__all__``."""
import importlib
import pkgutil

import mfbm

# modules whose names stay under their module path
NOT_REEXPORTED = {"cli", "__main__"}


def test_package_all_is_the_union_of_module_lists():
    modules = [
        importlib.import_module(f"mfbm.{info.name}")
        for info in pkgutil.iter_modules(mfbm.__path__)
        if info.name not in NOT_REEXPORTED
    ]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared twice"
    assert len(mfbm.__all__) == len(set(mfbm.__all__))
    assert sorted(mfbm.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(mfbm, name) is getattr(module, name), name
