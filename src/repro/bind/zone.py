"""Authoritative zones with SOA serial numbers.

A zone maps (owner name, record type) to record sets.  Dynamic updates
— the HNS modification to BIND — bump the SOA serial, which NOTIFY
pushes and incremental transfers use to tell a cache how far behind it is.

Each update is also journalled: the zone keeps a bounded list of
:class:`ZoneDelta` entries, one per serial bump, recording the record
set for the touched ``(name, type)`` *after* the change (an empty set
means the key was deleted).  :meth:`Zone.delta_since` replays the
journal for incremental zone transfer (IXFR); when the requested serial
predates the journal window, it returns ``None`` and the caller falls
back to a full AXFR.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Annotated

from repro.bind.errors import NameNotFound
from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.serial import ArrayType, StringType, U32Type, WireMessage


@dataclasses.dataclass(frozen=True)
class ZoneDelta(WireMessage):
    """One journalled dynamic update: the state of ``(name, rtype)``
    after the serial bump that produced it.  ``records`` empty means
    the key was deleted.  IXFR answers carry these as they are."""

    serial: Annotated[int, U32Type()]
    name: Annotated[DomainName, StringType(255)]
    rtype: Annotated[RRType, U32Type()]
    records: Annotated[
        typing.Tuple[ResourceRecord, ...], ArrayType(ResourceRecord.idl_type, 64)
    ]


#: how many serial bumps a zone's journal keeps for IXFR
JOURNAL_LIMIT = 512


class Zone:
    """All authoritative data under one origin."""

    def __init__(self, origin: typing.Union[str, DomainName]):
        self.origin = DomainName(origin)
        self.serial = 1
        self._journal: typing.List[ZoneDelta] = []
        self._records: typing.Dict[
            typing.Tuple[DomainName, RRType], typing.List[ResourceRecord]
        ] = {}

    # ------------------------------------------------------------------
    def _check_in_zone(self, name: DomainName) -> None:
        if not name.is_subdomain_of(self.origin):
            raise ValueError(f"{name} is outside zone {self.origin}")

    def _journal_current(self, name: DomainName, rtype: RRType) -> None:
        """Journal the post-change state of (name, rtype) at the
        current serial."""
        records = tuple(self._records.get((name, rtype), ()))
        self._journal.append(ZoneDelta(self.serial, name, rtype, records))
        if len(self._journal) > JOURNAL_LIMIT:
            del self._journal[: len(self._journal) - JOURNAL_LIMIT]

    def add(self, record: ResourceRecord) -> None:
        """Add one record (duplicates by exact data are collapsed)."""
        self._check_in_zone(record.name)
        key = (record.name, record.rtype)
        existing = self._records.setdefault(key, [])
        if any(r.data == record.data for r in existing):
            # Same data: treat as a TTL refresh.
            self._records[key] = [
                record if r.data == record.data else r for r in existing
            ]
        else:
            existing.append(record)
        self.serial += 1
        self._journal_current(record.name, record.rtype)

    def remove(self, name: typing.Union[str, DomainName], rtype: RRType) -> int:
        """Delete all records for (name, type); returns how many."""
        name = DomainName(name)
        removed = self._records.pop((name, rtype), [])
        if removed:
            self.serial += 1
            self._journal_current(name, rtype)
        return len(removed)

    def replace(
        self, name: typing.Union[str, DomainName], rtype: RRType, records: typing.Sequence[ResourceRecord]
    ) -> None:
        """Atomically replace the record set for (name, type)."""
        name = DomainName(name)
        self._check_in_zone(name)
        for record in records:
            if record.name != name or record.rtype is not rtype:
                raise ValueError(f"{record} does not belong to ({name}, {rtype})")
        if records:
            self._records[(name, rtype)] = list(records)
        else:
            self._records.pop((name, rtype), None)
        self.serial += 1
        self._journal_current(name, rtype)

    # ------------------------------------------------------------------
    def delta_since(self, serial: int) -> typing.Optional[typing.List[ZoneDelta]]:
        """Journal entries newer than ``serial``, oldest first.

        Returns ``[]`` when the requester is already current, and
        ``None`` when the journal no longer reaches back far enough
        (truncated at :data:`JOURNAL_LIMIT`, or the requester predates the
        journal entirely) — the IXFR signal to fall back to AXFR.
        Serial bumps are one journal entry each, so coverage holds iff
        the oldest entry's serial is ``<= serial + 1``.  The journal is
        in serial order (each write bumps by one and journals one
        entry), so the first newer entry is found by bisection.
        """
        if serial >= self.serial:
            return []
        journal = self._journal
        if not journal or journal[0].serial > serial + 1:
            return None
        lo, hi = 0, len(journal)
        while lo < hi:
            mid = (lo + hi) // 2
            if journal[mid].serial > serial:
                hi = mid
            else:
                lo = mid + 1
        return journal[lo:]

    def lookup(
        self, name: typing.Union[str, DomainName], rtype: RRType
    ) -> typing.List[ResourceRecord]:
        """Exact-match lookup; raises :class:`NameNotFound` on miss."""
        name = DomainName(name)
        records = self._records.get((name, rtype))
        if not records:
            raise NameNotFound(f"{name} {rtype} in zone {self.origin}")
        return list(records)

    def all_records(self) -> typing.List[ResourceRecord]:
        """Every record in the zone, in stable order (for AXFR)."""
        out: typing.List[ResourceRecord] = []
        for key in sorted(self._records, key=lambda k: (k[0], k[1].value)):
            out.extend(self._records[key])
        return out

    def wire_size(self) -> int:
        """Approximate transfer size of the whole zone (bytes)."""
        return sum(r.wire_size() for r in self.all_records())

    def __repr__(self) -> str:
        return f"<Zone {self.origin} serial={self.serial} records={sum(map(len, self._records.values()))}>"
