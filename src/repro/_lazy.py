"""Load-on-first-use package exports (PEP 562).

A package that should not pay for its heavier submodules at import
time names, per submodule, the attributes it exports from it, and
installs the returned module ``__getattr__`` / ``__dir__``.  The first
access to such a name imports its submodule and caches the value in
the package namespace, so later accesses are plain attribute reads.
A name equal to its submodule's name exports the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it provides.
    """
    where = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
