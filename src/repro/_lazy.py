"""Lazy package exports (PEP 562).

Every package ``__init__`` re-exports its public names through
:func:`lazy_exports`, so ``import repro.runtime`` loads no submodule and
``from repro.runtime import serial_reference`` loads only
:mod:`repro.runtime.training` and what *it* imports.  A name is imported
the first time it is read and then stored in the package's globals, so
later reads are plain attribute lookups that never reach ``__getattr__``.

One caveat is the import system's, not this module's: when a submodule is
first imported, Python binds it as an attribute of its package.  A package
that exports a function under the same name as the submodule defining it
(``repro.topology.dgx1_trees``) therefore imports that function eagerly,
so that the submodule is bound first and the function then replaces it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    Args:
        package: the package's ``__name__``.
        exports: public name -> the submodule (relative to ``package``)
            that defines it.

    A name that is not in ``exports`` but names a submodule resolves to
    that submodule, imported on first use, so every submodule is
    reachable as an attribute of its package.

    Use as ``__getattr__, __dir__ = lazy_exports(__name__, {...})``.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name in exports:
            module = importlib.import_module(f"{package}.{exports[name]}")
            value = getattr(module, name)
        elif importlib.util.find_spec(f"{package}.{name}") is not None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports, *namespace.get("__all__", ())})

    return __getattr__, __dir__
