"""Lazy package exports (PEP 562).

A package's ``__init__`` names each public object once, under the
submodule that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "kernel": ("Simulator",),
        "..obs.recorder": ("TracingConfig",),
    })

The submodule is imported on the first access of one of its names, so
importing a package compiles none of its submodules, and a run compiles
only the modules it executes.  ``from pkg import name``, ``pkg.name``
and ``from pkg import *`` all resolve through the table.  Module names
are relative to the package; leading dots climb out of it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for *package*, whose
    *table* maps each submodule to the public names it defines."""
    home = {}
    for module, names in table.items():
        for name in names:
            if name in home:
                raise ValueError(f"{package}: {name!r} is exported twice")
            home[name] = module if module.startswith(".") else "." + module

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        # Cached on the package: later lookups never reach here.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, sorted(home)
