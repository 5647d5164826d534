"""The resolver cache, in both formats from Table 3.2.

"In the initial version, we kept data in its marshalled form, and
demarshalled it upon every access, expecting that marshalling was a
minor expense.  To our surprise, the cost of marshalling was very high
... by simply changing the cache to keep demarshalled information, the
times decreased dramatically."

The cache is TTL-invalidated ("Cached data is tagged with a
time-to-live field for cache invalidation"), matching BIND's own
mechanism, and charges the calibrated probe/copy/insert costs so that
cache-hit experiments land on the paper's numbers.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing

from repro.bind.messages import STATUS_OK, QueryResponse
from repro.bind.rr import ResourceRecord
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.memo import first_use, memoised
from repro.serial import HandcodedMarshaller
from repro.sim.kernel import Environment
from repro.sim.stats import Counter

#: sentinel payload marking a cached NXDOMAIN answer
NEGATIVE = object()


@memoised
def _wire_response() -> HandcodedMarshaller:
    """What a marshalled cache stores for a record set: the bytes a
    server would have sent for it, whatever the reading client's style."""
    return HandcodedMarshaller(QueryResponse.idl_type)


class CacheFormat(enum.Enum):
    """What representation the cache stores."""

    MARSHALLED = "marshalled"      # wire bytes; demarshal on every hit
    DEMARSHALLED = "demarshalled"  # ready-to-use values; copy on hit


@dataclasses.dataclass
class CacheEntry:
    """One cached result."""

    payload: typing.Any      # bytes if MARSHALLED, value if DEMARSHALLED
    record_count: int
    expires_at: float
    inserted_at: float


class ResolverCache:
    """TTL cache with optional LRU capacity bound.

    Probe/copy/insert charge *returned costs* (ms) that the calling
    process is responsible for yielding as CPU time — the cache itself
    is pure bookkeeping, so it can also be used outside a simulation.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "cache",
        fmt: CacheFormat = CacheFormat.DEMARSHALLED,
        capacity: typing.Optional[int] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        stale_retention_ms: float = 0.0,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        if stale_retention_ms < 0:
            raise ValueError("stale retention must be >= 0")
        self.env = env
        self.name = name
        self.format = fmt
        self.capacity = capacity
        self.calibration = calibration
        #: how long expired entries are kept around for serve-stale
        #: (0 = drop on the probe that finds them expired, the
        #: prototype's behaviour)
        self.stale_retention_ms = stale_retention_ms
        self._entries: "collections.OrderedDict[object, CacheEntry]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        #: lookups that piggybacked on another caller's in-flight fetch
        self.coalesced = 0
        #: background refresh-ahead renewals spawned for entries here
        self.refreshes = 0
        #: the ``env.stats`` mirrors counted so far, by attribute name
        self._mirrors: typing.Dict[str, Counter] = {}

    def _count(self, counter: str) -> None:
        """Mirror an attribute counter into ``env.stats`` under the
        stable ``cache.<name>.<counter>`` scheme, so benchmarks and
        traces read every cache uniformly.  The stat is named on its
        first increment and kept."""
        mirror = self._mirrors.get(counter)
        if mirror is None:
            mirror = self._mirrors[counter] = self.env.stats.counter(
                f"cache.{self.name}.{counter}"
            )
        mirror.increment()

    @first_use
    def _hit_mirror(self) -> Counter:
        """``cache.<name>.hits``, bound at the first hit: a hit names no
        stat and enters no :meth:`_count` frame."""
        return self.env.stats.counter(f"cache.{self.name}.hits")

    # ------------------------------------------------------------------
    def probe(self, key: object) -> typing.Tuple[typing.Optional[CacheEntry], float]:
        """Look up ``key``.

        Returns ``(entry or None, cost_ms)``.  Expired entries count as
        misses and are removed.  The cost covers the probe only; hit
        payload processing (copy or demarshal) is charged separately via
        :meth:`hit_cost`.
        """
        cost = self.calibration.cache_probe_ms
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("misses")
            return None, cost
        if entry.expires_at <= self.env.now:
            # Within the stale-retention window the entry stays resident
            # (a fallback for serve-stale); it still reads as a miss.
            if self.env.now - entry.expires_at >= self.stale_retention_ms:
                del self._entries[key]
                self.expirations += 1
                self._count("expirations")
            self.misses += 1
            self._count("misses")
            return None, cost
        self._entries.move_to_end(key)  # LRU maintenance
        self.hits += 1
        self._hit_mirror.increment()
        return entry, cost

    def stale_entry(
        self, key: object, window_ms: float
    ) -> typing.Optional[CacheEntry]:
        """An entry usable under serve-stale, or None.

        Returns the entry if it is still fresh *or* expired no more than
        ``window_ms`` ago.  Pure bookkeeping: no cost is charged and no
        hit/miss counters move — the caller accounts for stale hits.
        """
        if window_ms < 0:
            raise ValueError("stale window must be >= 0")
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self.env.now - entry.expires_at > window_ms:
            return None
        return entry

    # ------------------------------------------------------------------
    # Iteration (the public face of ``_entries``)
    # ------------------------------------------------------------------
    def entries(
        self, include_stale: bool = False
    ) -> typing.Iterator[typing.Tuple[object, CacheEntry]]:
        """Iterate ``(key, entry)`` pairs without disturbing LRU order.

        By default only live (unexpired) entries are yielded; pass
        ``include_stale=True`` to include expired entries still resident
        under the stale-retention window.
        """
        now = self.env.now
        for key, entry in list(self._entries.items()):
            if include_stale or entry.expires_at > now:
                yield key, entry

    def warm_entries(
        self, suffix: str
    ) -> typing.Iterator[typing.Tuple[str, CacheEntry]]:
        """Live entries whose owner name ends with ``suffix``.

        Keys are matched on their name component: either the key itself
        (a string) or the first element of a tuple key such as the
        resolver's ``(owner, rtype)``.  Yields ``(owner, entry)``.
        """
        for key, entry in self.entries():
            owner = key[0] if isinstance(key, tuple) and key else key
            if isinstance(owner, str) and owner.endswith(suffix):
                yield owner, entry

    def hit_cost(self, entry: CacheEntry, demarshal_cost_ms: float = 0.0) -> float:
        """Cost of materialising a hit for the caller.

        For a demarshalled cache this is the copy cost alone; for a
        marshalled cache the caller passes the (generated or hand-coded)
        demarshal cost of the stored bytes, and pays the copy on top —
        matching the 11.11 vs 0.83 ms split of Table 3.2.
        """
        copy = (
            self.calibration.cache_copy_base_ms
            + self.calibration.cache_copy_per_record_ms * entry.record_count
        )
        if self.format is CacheFormat.MARSHALLED:
            return demarshal_cost_ms + copy
        return copy

    def insert(
        self,
        key: object,
        payload: object,
        record_count: int,
        ttl_ms: float,
    ) -> float:
        """Store a result; returns the insert cost (ms).

        A non-positive TTL means "uncacheable": nothing is stored, and
        whatever ``key`` held before is dropped, since the answer that
        replaces it may not be kept (the probe cost of the failed future
        lookup is the caller's problem).
        """
        if ttl_ms <= 0:
            self._entries.pop(key, None)
            return 0.0
        if self.capacity is not None and len(self._entries) >= self.capacity:
            if key not in self._entries:
                self._evict_one()
        self._entries[key] = CacheEntry(
            payload=payload,
            record_count=record_count,
            expires_at=self.env.now + ttl_ms,
            inserted_at=self.env.now,
        )
        self._entries.move_to_end(key)
        return self.calibration.cache_insert_ms

    def store(
        self, key: object, records: typing.Sequence[ResourceRecord]
    ) -> float:
        """Insert a record set under ``key`` in this cache's format.

        Returns the insert cost; whether it is charged is the caller's
        call (a zone install has already paid per record).
        """
        payload: object
        if self.format is CacheFormat.MARSHALLED:
            payload, _ = _wire_response().encode(
                QueryResponse(STATUS_OK, list(records))
            )
        else:
            payload = list(records)
        return self.insert(
            key, payload, len(records), min(r.ttl for r in records)
        )

    def _evict_one(self) -> None:
        """Make room for one insert.

        Expired entries (including stale-retained ones kept around for
        serve-stale) are sacrificed first, oldest first, so a stale
        resident never pushes out a live hot entry; only a cache full of
        live entries falls back to plain LRU.
        """
        now = self.env.now
        victim = None
        for key, entry in self._entries.items():  # OrderedDict: LRU first
            if entry.expires_at <= now:
                victim = key
                break
        if victim is not None:
            del self._entries[victim]
        else:
            self._entries.popitem(last=False)
        self.evictions += 1
        self._count("evictions")

    def needs_refresh(self, entry: CacheEntry, fraction: float) -> bool:
        """Is ``entry`` inside the refresh-ahead window?

        True when less than ``fraction`` of the entry's original TTL
        remains — the trigger for spawning a background renewal so the
        entry is replaced before it can expire.
        """
        if fraction <= 0:
            return False
        ttl = entry.expires_at - entry.inserted_at
        if ttl <= 0:
            return False
        return (entry.expires_at - self.env.now) <= fraction * ttl

    def record_coalesced(self) -> None:
        """Count a lookup that joined another caller's in-flight fetch."""
        self.coalesced += 1
        self._count("coalesced")

    def record_refresh(self) -> None:
        """Count a refresh-ahead renewal spawned for an entry here."""
        self.refreshes += 1
        self._count("refreshes")

    def invalidate(self, key: object) -> bool:
        """Drop one entry; True if it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def __contains__(self, key: object) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.expires_at > self.env.now

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
