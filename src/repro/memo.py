"""The one memo for pure functions of immutable input.

A warm lookup derives the same few hundred values all day: the labels
of a domain name, the fields of a meta record, the octets of a dotted
quad.  Each such function is wrapped in :data:`memoised`, an LRU of
:data:`MEMO_SIZE` entries keyed by the argument *values* — so changed
input (the new bytes of a re-registered record) is simply another key
and nothing ever needs invalidating, and a call that raises is not
remembered and raises again next time.

What a memoised function returns is shared by every caller, so it must
be immutable: a tuple, a frozen dataclass, a ``MappingProxyType``.

A value an object derives once, on first use, is :class:`first_use`.
"""

from __future__ import annotations

import functools
import typing

#: entries per memo; a testbed's working set is a few hundred strings
MEMO_SIZE = 4096

#: decorator: each function it wraps gets its own LRU of that size
memoised = functools.lru_cache(maxsize=MEMO_SIZE)


class first_use:
    """Decorator: a method whose value becomes an attribute of the
    instance the first time it is read, as ``functools.cached_property``
    does — a stat counter that exists only once counted, say.

    The value is stored with ``setattr``.  ``cached_property`` writes it
    through ``__dict__``, and on CPython 3.11 that turns the instance's
    shared-key attributes into a plain dict, so every later attribute
    read on it costs about twice as much.
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
