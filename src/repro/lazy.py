"""Lazy package namespaces: a package names its API, a use loads it.

Every package ``__init__`` under :mod:`repro` is one call::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "kernel": ("Environment", "SimulationError"),
        "stats": ("Counter", "Histogram"),
    })

The table maps each submodule to the public names it defines, so a
name is written once and ``__all__`` is derived from it.  A name's
submodule is imported the first time the name is read (a PEP 562
module ``__getattr__``, the pattern of Scientific Python's SPEC 1), and
the value is then stored on the package, so later reads are plain
attribute hits.  A process loads only the submodules it uses:
``import repro.sim`` loads that ``__init__`` and nothing else.
"""

from __future__ import annotations

import importlib
import sys
import typing


def attach(
    package: str, table: typing.Mapping[str, typing.Sequence[str]]
) -> typing.Tuple[
    typing.Callable[[str], typing.Any],
    typing.Callable[[], typing.List[str]],
    typing.List[str],
]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from ``table``."""
    owner = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> typing.Any:
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> typing.List[str]:
        return sorted({*vars(sys.modules[package]), *owner})

    return __getattr__, __dir__, sorted(owner)
