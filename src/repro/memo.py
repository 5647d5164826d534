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
"""

from __future__ import annotations

import functools

#: entries per memo; a testbed's working set is a few hundred strings
MEMO_SIZE = 4096

#: decorator: each function it wraps gets its own LRU of that size
memoised = functools.lru_cache(maxsize=MEMO_SIZE)
