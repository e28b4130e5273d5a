import importlib
import pkgutil

import marlift


def test_every_all_entry_is_an_attribute_of_its_module():
    # `from marlift.<module> import *` fails on a name that __all__ lists
    # but the module no longer defines
    modules = [importlib.import_module(f"marlift.{info.name}")
               for info in pkgutil.iter_modules(marlift.__path__)]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) >= 9
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
