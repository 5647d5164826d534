"""The Clearinghouse property database.

Each object maps to a property list; values are uninterpreted bytes.
The database is disk-resident: the *server* charges a disk access per
retrieval, using the size estimates this module provides.
"""

from __future__ import annotations

import typing

from repro.clearinghouse.errors import NoSuchObject, NoSuchProperty
from repro.clearinghouse.names import CHName


class PropertyDatabase:
    """All objects of one Clearinghouse server."""

    def __init__(self) -> None:
        self._objects: typing.Dict[CHName, typing.Dict[str, bytes]] = {}

    def register(self, name: CHName, properties: typing.Mapping[str, bytes]) -> None:
        """Create or extend an object with the given properties."""
        if not properties:
            raise ValueError("register needs at least one property")
        for prop, value in properties.items():
            if not isinstance(value, bytes):
                raise TypeError(f"property {prop!r} value must be bytes")
        self._objects.setdefault(name, {}).update(properties)

    def retrieve(self, name: CHName, prop: str) -> bytes:
        obj = self._objects.get(name)
        if obj is None:
            raise NoSuchObject(str(name))
        if prop not in obj:
            raise NoSuchProperty(f"{name} has no property {prop!r}")
        return obj[prop]

    def record_size(self, name: CHName, prop: str) -> int:
        """Bytes read from disk for one retrieval (value + overhead)."""
        return len(self.retrieve(name, prop)) + 64
