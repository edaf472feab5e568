import importlib
import pkgutil

import returnstats


def test_every_exported_name_resolves():
    # a stale __all__ entry would only fail at `from ... import *` time
    modules = [m.name for m in pkgutil.iter_modules(returnstats.__path__, "returnstats.")]
    assert len(modules) >= 10
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
