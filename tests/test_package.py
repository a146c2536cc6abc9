"""The package's public names are the union of its modules' ``__all__``."""
import dataclasses
import importlib
import pkgutil

import mfbm

# modules whose names stay under their module path
NOT_REEXPORTED = {"cli", "__main__"}


def package_modules():
    return [
        importlib.import_module(f"mfbm.{info.name}")
        for info in pkgutil.iter_modules(mfbm.__path__)
        if info.name not in NOT_REEXPORTED
    ]


def test_package_all_is_the_union_of_module_lists():
    modules = package_modules()
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared twice"
    assert len(mfbm.__all__) == len(set(mfbm.__all__))
    assert sorted(mfbm.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(mfbm, name) is getattr(module, name), name


def test_dataclasses_holding_arrays_compare_by_identity():
    # a generated __eq__ compares array fields inside a tuple and raises
    # "truth value of an array is ambiguous"; eq=False keeps identity
    holders = {
        cls.__name__: cls
        for module in package_modules()
        for cls in vars(module).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    }
    assert sorted(holders) == sorted([
        "CirculantPlan", "Ensemble", "LimitTarget", "MfbmParams",
        "MovingAveragePair", "SamplePath", "SpectralFactor",
    ])
    for name, cls in holders.items():
        assert not cls.__dataclass_params__.eq, name
