import importlib
import pkgutil
from collections import Counter

import polygcd


def test_no_public_name_is_declared_by_two_modules():
    # The package re-exports each module's __all__ with a star import, so a
    # name declared twice would silently bind to the module imported last.
    declared = Counter(
        name
        for info in pkgutil.iter_modules(polygcd.__path__)
        for name in importlib.import_module(f"polygcd.{info.name}").__all__
    )
    assert [name for name, count in declared.items() if count > 1] == []
