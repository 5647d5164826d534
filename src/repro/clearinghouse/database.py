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

    def delete_property(self, name: CHName, prop: str) -> None:
        obj = self._objects.get(name)
        if obj is None:
            raise NoSuchObject(str(name))
        if prop not in obj:
            raise NoSuchProperty(f"{name} has no property {prop!r}")
        del obj[prop]
        if not obj:
            del self._objects[name]

    def delete_object(self, name: CHName) -> None:
        if name not in self._objects:
            raise NoSuchObject(str(name))
        del self._objects[name]

    def contains(self, name: CHName) -> bool:
        return name in self._objects

    def properties_of(self, name: CHName) -> typing.List[str]:
        obj = self._objects.get(name)
        if obj is None:
            raise NoSuchObject(str(name))
        return sorted(obj)

    def objects_in_domain(
        self, domain: str, organization: str
    ) -> typing.List[CHName]:
        key = (domain.lower(), organization.lower())
        return sorted(n for n in self._objects if n.domain_key == key)

    def record_size(self, name: CHName, prop: str) -> int:
        """Bytes read from disk for one retrieval (value + overhead)."""
        return len(self.retrieve(name, prop)) + 64
