"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists, per defining module, the names it
re-exports and installs the pair :func:`lazy_exports` returns as its
module-level ``__getattr__`` and ``__dir__``.  The defining module is
imported on the first access of one of its names, and the resolved
object is cached in the package namespace, so every later lookup is a
plain attribute read.  Importing a package therefore loads only the
layers its caller touches: ``from repro.costs import PlatformCosts``
loads the cost vocabulary, not the characterization harness behind
``repro.costs.cache``.
"""

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a lazily re-exporting
    package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    defining module's absolute name to the names the package re-exports
    from it.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
