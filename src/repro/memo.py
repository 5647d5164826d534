"""The one place memos are built, each of :data:`MEMO_SIZE` entries.

A memo saves the host work and nothing else: the simulation is charged
as if the work were done every time.  Each memo reads the size when it
is built, so a process that sets ``repro.memo.MEMO_SIZE = 0`` before it
imports anything else runs with every memo empty, and must read what a
memo-on run reads (``tests/test_memo_off.py``).  :func:`memoised` keys
a pure function of immutable input by the argument *values* (new input
is a new key; a raise is not remembered; what it returns is shared, so
immutable); a :class:`Table`'s owner decides when an entry is stale.
A value an object derives once, on first use, is :class:`first_use`.
"""

from __future__ import annotations

import functools
import typing

#: entries per memo; a testbed's working set is a few hundred strings
MEMO_SIZE = 4096


def memoised(func):
    """Decorator: ``func`` behind its own LRU of :data:`MEMO_SIZE` entries."""
    return functools.lru_cache(maxsize=MEMO_SIZE)(func)


class Table(dict):
    """A dict read with ``get`` and filled with :meth:`keep`: emptied
    whole when full, and at size 0 it keeps nothing."""

    __slots__ = ("size",)

    def __init__(self) -> None:
        self.size = MEMO_SIZE

    def keep(self, key: object, value: typing.Any) -> typing.Any:
        """Remember ``value`` under ``key``; returns ``value``."""
        if len(self) >= self.size:
            self.clear()
        if self.size:
            self[key] = value
        return value


class first_use:
    """Decorator: a method whose value becomes an attribute of the
    instance the first time it is read, as ``functools.cached_property``
    does — a stat counter that exists only once counted, say — but with
    ``setattr``: writing ``__dict__`` makes later attribute reads dearer
    (docs/architecture.md §2, rule 2).
    """

    def __init__(self, func: typing.Callable[[typing.Any], typing.Any]):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance: object, owner: typing.Optional[type] = None) -> typing.Any:
        if instance is None:
            return self
        value = self.func(instance)
        setattr(instance, self.name, value)
        return value
