import importlib
import pkgutil

import tritwalk


def test_every_exported_name_resolves():
    # A stale __all__ entry makes `from module import *` raise.
    names = [f"tritwalk.{info.name}" for info in pkgutil.iter_modules(tritwalk.__path__)]
    for mod in [tritwalk] + [importlib.import_module(name) for name in names]:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing name {name!r}"
