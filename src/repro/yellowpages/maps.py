"""Yellow Pages maps: flat key/value tables grouped into a domain."""

from __future__ import annotations

import typing

from repro.yellowpages.errors import NoSuchKey, NoSuchMap


class YpMap:
    """One map (e.g. ``hosts.byname``): case-sensitive keys, str values."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("map needs a name")
        self.name = name
        self._entries: typing.Dict[str, str] = {}
        self.order = 0  # bumped on every change, like a dbm timestamp

    def set(self, key: str, value: str) -> None:
        if not key:
            raise ValueError("empty key")
        self._entries[key] = value
        self.order += 1

    def delete(self, key: str) -> bool:
        removed = self._entries.pop(key, None) is not None
        if removed:
            self.order += 1
        return removed

    def match(self, key: str) -> str:
        try:
            return self._entries[key]
        except KeyError:
            raise NoSuchKey(f"{key!r} in map {self.name}") from None

    def keys(self) -> typing.List[str]:
        return sorted(self._entries)


class YpDomain:
    """A YP domain: the collection of maps one server is master for."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("domain needs a name")
        self.name = name
        self._maps: typing.Dict[str, YpMap] = {}

    def map(self, name: str) -> YpMap:
        """Get-or-create a map."""
        if name not in self._maps:
            self._maps[name] = YpMap(name)
        return self._maps[name]

    def existing_map(self, name: str) -> YpMap:
        m = self._maps.get(name)
        if m is None:
            raise NoSuchMap(f"{name!r} in domain {self.name}")
        return m

    def map_names(self) -> typing.List[str]:
        return sorted(self._maps)

    def __len__(self) -> int:
        return len(self._maps)
