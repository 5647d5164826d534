"""The primary-only RPCs, and the one way a cache follows a primary.

Reads fail over across the replica set and go through the resolver's
cache (:class:`~repro.bind.resolver.BindResolver`, a read path only).
:class:`PrimaryClient`'s calls do neither: only the primary accepts
writes and owns the journal, so each is one request to one server.
:class:`CacheInstaller` writes what those calls bring back into a
cache: an AXFR preload, and the IXFR (or snapshot) pull each NOTIFY
push triggers.
"""

from __future__ import annotations

import typing

from repro.bind.cache import NEGATIVE, ResolverCache
from repro.bind.errors import BindError, NameNotFound, UpdateRefused, ZoneNotFound
from repro.bind.messages import (
    STATUS_NXDOMAIN,
    STATUS_OK,
    STATUS_REFUSED,
    IxfrRequest,
    IxfrResponse,
    NotifyRequest,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    UpdateBatchRequest,
    UpdateBatchResponse,
    UpdateOp,
    UpdateRequest,
    UpdateResponse,
    XferRequest,
    XferResponse,
)
from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.addresses import Endpoint
from repro.net.errors import NetworkError
from repro.net.host import Host, Service
from repro.net.transport import Transport
from repro.serial import HandcodedMarshaller

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

#: zone transfers move whole zones; give them longer than a query
XFER_TIMEOUT_MS = 10_000

#: ``(cache key, record set)`` pairs to install; an empty set deletes
Groups = typing.List[typing.Tuple[typing.Tuple[str, int], typing.List[ResourceRecord]]]


def charge(host: Host, cost_ms: float, background: bool = False) -> "Event":
    """Charge ``cost_ms`` of ``host``'s CPU, optionally at low priority:
    the event to ``yield``.

    Foreground work takes the host CPU FIFO as usual.  Background work
    (refresh-ahead renewals, NOTIFY-pushed installs) rides the CPU's
    idle-time lane (:meth:`repro.sim.resources.Resource.use`): it runs
    only when nothing else wants the CPU, in small slices, so it never
    head-of-line-blocks a foreground cache hit — and turns foreground
    after a bounded wait rather than starving on a saturated CPU.
    """
    if cost_ms > 0:
        return host.cpu.compute(cost_ms, background)
    # Nothing to pay: already over, so not even a wait for the CPU.
    return host.env.event().succeed_now()


class PrimaryClient:
    """Client side of the calls only a zone's primary server answers."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        name: str = "resolver",
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        self.name = name
        self._marshallers: typing.Dict[type, HandcodedMarshaller] = {}

    def _call(
        self,
        request: typing.Any,
        reply_type: type,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        """Marshal ``request``, pay for it, send it, type-check the reply."""
        marshaller = self._marshallers.get(type(request))
        if marshaller is None:
            marshaller = HandcodedMarshaller(request.idl_type)
            self._marshallers[type(request)] = marshaller
        # A write or transfer carries a serial or new data, so it never
        # repeats: marshalled afresh from its wire value, not recalled.
        request_bytes, marshal_cost = marshaller.encode(request.to_idl())
        yield self.host.cpu.compute(marshal_cost)
        reply = yield self.transport.request(
            self.host, self.server, request, len(request_bytes), timeout_ms
        )
        if not isinstance(reply, reply_type):
            raise BindError(f"unexpected reply {reply!r}")
        return reply

    def _check_update(self, status: int, name: object, what: str) -> None:
        if status == STATUS_REFUSED:
            raise UpdateRefused(
                f"server at {self.server} does not accept dynamic updates"
            )
        if status == STATUS_NXDOMAIN:
            raise NameNotFound(f"no zone for {name}")
        if status != STATUS_OK:
            raise BindError(f"{what} failed with status {status}")

    # ------------------------------------------------------------------
    def update(
        self,
        mode: int,
        name: typing.Union[str, DomainName],
        rtype: RRType,
        records: typing.Sequence[ResourceRecord] = (),
    ) -> typing.Generator:
        """Dynamic update (requires the modified BIND); returns new serial.

        ``mode`` is an :class:`~repro.bind.messages.UpdateMode`: ADD,
        DELETE (of the whole record set) or REPLACE.
        """
        name = DomainName(name)
        reply = yield from self._call(
            UpdateRequest(mode, name, rtype, list(records)), UpdateResponse
        )
        self._check_update(reply.status, name, "update")
        return reply.serial

    def update_batch(
        self, ops: typing.Sequence[UpdateOp]
    ) -> typing.Generator:
        """Send several dynamic-update operations in one datagram.

        Returns ``(serial, statuses)`` — the zone's serial after the
        batch and one status per operation.  Raises on the first failed
        operation, like the single-op :meth:`update` would have.
        """
        ops = list(ops)
        if not ops:
            raise ValueError("empty update batch")
        self.env.stats.counter(
            f"bind.{self.name}.update_batches"
        ).increment()
        reply = yield from self._call(
            UpdateBatchRequest(ops), UpdateBatchResponse
        )
        for op, status in zip(ops, reply.statuses):
            self._check_update(
                status, op.name, f"batched update of {op.name}"
            )
        self._check_update(reply.status, ops[0].name, "update batch")
        return reply.serial, list(reply.statuses)

    def subscribe_notify(
        self, origin: DomainName, listener: Endpoint
    ) -> typing.Generator:
        """Ask the primary to push ``origin``'s serial bumps to
        ``listener``; returns the zone serial the subscription starts at."""
        reply = yield from self._call(
            NotifySubscribeRequest(
                origin, str(listener.address), listener.port
            ),
            NotifySubscribeResponse,
        )
        if reply.status != STATUS_OK:
            raise BindError(f"NOTIFY subscription for {origin} refused")
        return reply.serial

    def zone_transfer(
        self, origin: typing.Union[str, DomainName]
    ) -> typing.Generator:
        """AXFR: fetch every record of a zone; returns (serial, records)."""
        origin = DomainName(origin)
        reply = yield from self._call(
            XferRequest(origin), XferResponse, XFER_TIMEOUT_MS
        )
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"zone transfer of {origin} refused/unknown")
        return reply.serial, list(reply.records)

    def incremental_zone_transfer(
        self, origin: typing.Union[str, DomainName], serial: int
    ) -> typing.Generator:
        """IXFR: fetch the zone's dynamic updates past ``serial``.

        Returns ``(serial, full, deltas, records)``; ``full`` is true
        when the primary's journal no longer covered ``serial`` and the
        reply is a whole-zone snapshot in ``records`` instead.
        """
        origin = DomainName(origin)
        reply = yield from self._call(
            IxfrRequest(origin, serial), IxfrResponse, XFER_TIMEOUT_MS
        )
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"incremental transfer of {origin} refused/unknown")
        return reply.serial, bool(reply.full), list(reply.deltas), list(reply.records)


class CacheInstaller(Service):
    """Follows a primary into one cache: the only writer of transfers.

    "The BIND zone transfer mechanism ... was employed to preload the
    caches": :meth:`preload` is one AXFR, installed record set by
    record set.  Beyond the paper, :meth:`subscribe_notify` makes this
    installer the listener for the primary's NOTIFY pushes; each push
    past the cache's serial pulls the journal delta through IXFR (or,
    past a truncated journal, the snapshot the same reply carries) and
    installs it in the background, so changed bindings stop being
    served long before their TTL would have run out.
    """

    def __init__(
        self,
        primary: PrimaryClient,
        cache: ResolverCache,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.primary = primary
        self.host = primary.host
        self.env = primary.env
        self.name = primary.name
        self.cache = cache
        self.calibration = calibration
        #: origin -> the zone serial this cache reflects (IXFR baseline)
        self._serials: typing.Dict[str, int] = {}
        #: origin -> the highest serial pushed since its pull began
        #: (present only while a pull is in flight)
        self._pushed: typing.Dict[str, int] = {}
        #: where the primary's NOTIFY pushes land (bound on first use)
        self._endpoint: typing.Optional[Endpoint] = None

    def subscribe_notify(
        self, origin: typing.Union[str, DomainName]
    ) -> typing.Generator:
        """Subscribe to the primary's NOTIFY push for ``origin``;
        returns the zone serial the subscription starts from."""
        origin = DomainName(origin)
        if self._endpoint is None:
            # Replies never route through port dispatch, so an
            # ephemeral-range port is safe to claim for the listener.
            port = self.host.ephemeral_endpoint().port
            self._endpoint = self.host.bind(port, self)
        serial = yield from self.primary.subscribe_notify(origin, self._endpoint)
        key = str(origin)
        self._serials[key] = max(serial, self._serials.get(key, 0))
        return serial

    def handle(self, datagram, responder):
        request = datagram.payload
        if isinstance(request, NotifyRequest):
            yield from self._on_notify(DomainName(request.origin), request.serial)

    def _on_notify(self, origin: DomainName, serial: int) -> typing.Generator:
        """A push landed: pull the delta since our serial into the cache.

        Nobody waits for a push, so the install runs at background
        priority, one record set at a time: readers on this host keep
        hitting the cache throughout, and each changed binding is
        served from the moment its own install is paid for.  A push at
        or behind our serial is dropped; one that lands during a pull
        is kept, and the pull goes again if it ends below it.
        """
        key = str(origin)
        have = self._serials.get(key)
        if have is None or serial <= have:
            return
        if key in self._pushed:  # a pull is in flight: it goes again if need be
            self._pushed[key] = max(self._pushed[key], serial)
            return
        self._pushed[key] = serial
        try:
            while self._serials[key] < self._pushed[key]:
                self.env.stats.counter(
                    f"bind.{self.name}.notify_pulls"
                ).increment()
                new_serial, full, deltas, records = (
                    yield from self.primary.incremental_zone_transfer(
                        origin, self._serials[key]
                    )
                )
                if full:
                    yield from self._install_zone(origin, records, background=True)
                else:
                    # A delta's record set is its key's after the update;
                    # an empty one means the update deleted the key.
                    yield from self._install(
                        [
                            ((str(delta.name), delta.rtype.value), list(delta.records))
                            for delta in deltas
                        ],
                        background=True,
                    )
                self._serials[key] = new_serial
        except (NetworkError, BindError):
            # Missed delta: TTL expiry still bounds the staleness, and
            # the next push pulls again.
            self.env.stats.counter(
                f"bind.{self.name}.notify_pull_failures"
            ).increment()
        finally:
            self._pushed.pop(key, None)

    def preload(self, origin: typing.Union[str, DomainName]) -> typing.Generator:
        """Preload the cache from one zone transfer; returns records loaded.

        Each transferred record set is installed under its (name, type)
        key with its own TTL.
        """
        origin = DomainName(origin)
        serial, records = yield from self.primary.zone_transfer(origin)
        yield from self._install_zone(origin, records)
        self._serials[str(origin)] = serial
        return len(records)

    def _install_zone(
        self,
        origin: DomainName,
        records: typing.List[ResourceRecord],
        background: bool = False,
    ) -> typing.Generator:
        """Install a full transfer's records into the cache.

        A snapshot is the whole zone: a cached record set under
        ``origin`` that it lacks was deleted at the primary, so it is
        dropped first, uncharged like a delta's deletion.  Cached
        NXDOMAINs stay.
        """
        groups: typing.Dict[typing.Tuple[str, int], typing.List[ResourceRecord]] = {}
        for record in records:
            groups.setdefault((str(record.name), record.rtype.value), []).append(record)
        apex = str(origin)
        for key, entry in self.cache.entries(include_stale=True):
            if key not in groups and entry.payload is not NEGATIVE and (
                key[0] == apex or key[0].endswith("." + apex)
            ):
                self.cache.invalidate(key)
        yield from self._install(list(groups.items()), background)

    def _install(self, groups: Groups, background: bool) -> typing.Generator:
        """Pay for and insert ``(key, record set)`` groups.

        Each record pays the per-record install cost (the dominant term
        of the paper's 390 ms preload).  In the foreground the caller is
        waiting for the whole install, so it is one charge up front;
        in the background each record set is paid for and inserted in
        turn, so it is visible as soon as its own cost is paid.  An
        empty record set is a deletion and invalidates its key.
        """
        per_record = self.calibration.xfer_install_per_record_ms
        if not background:
            yield charge(self.host, per_record * sum(len(group) for _, group in groups))
        for key, group in groups:
            if background:
                yield charge(self.host, per_record * len(group), background=True)
            if group:
                self.cache.store(key, group)
            else:
                self.cache.invalidate(key)

