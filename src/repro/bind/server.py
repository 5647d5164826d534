"""The BIND server.

One class serves both roles from the paper:

- a **public** BIND holding actual naming data (construct with default
  flags and ``lookup_cost_ms=Calibration.public_bind_lookup_ms``); and
- the **modified** BIND used as the HNS meta-naming repository
  (``allow_dynamic_update=True`` and a small dedicated-zone lookup
  cost), "a version of BIND, modified to support both dynamic updates
  and also data of unspecified type [Schwartz 1987]".

The server answers queries, dynamic updates, NOTIFY subscriptions and
zone-transfer (AXFR and IXFR) requests, and pushes a NOTIFY to each
subscriber when a write bumps a zone's serial.  Errors travel as status codes, as in DNS, so a missing name
is an answer, not a crashed call.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bind.errors import NameNotFound
from repro.bind.messages import (
    STATUS_NXDOMAIN,
    STATUS_OK,
    STATUS_REFUSED,
    STATUS_SERVFAIL,
    BatchQueryRequest,
    BatchQueryResponse,
    IxfrRequest,
    IxfrResponse,
    NotifyRequest,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    QueryRequest,
    QueryResponse,
    UpdateBatchRequest,
    UpdateBatchResponse,
    UpdateMode,
    UpdateOp,
    UpdateRequest,
    UpdateResponse,
    XferRequest,
    XferResponse,
    meta_field,
    substitute_label,
)
from repro.bind.names import DomainName
from repro.bind.rr import RRType
from repro.bind.zone import Zone
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.memo import first_use
from repro.net.addresses import WELL_KNOWN_PORTS, Endpoint, NetworkAddress
from repro.net.host import Host, Service
from repro.obs.span import NULL_SPAN
from repro.resolution import UpdatePolicy
from repro.serial import Encoded, HandcodedMarshaller
from repro.serial.idl import IdlType

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.transport import Transport
    from repro.sim.stats import Counter

#: debounce before a serial bump fans out to NOTIFY subscribers
NOTIFY_DELAY_MS = 1.0


class BindServer(Service):
    """An authoritative name server bound to a host."""

    def __init__(
        self,
        host: Host,
        zones: typing.Optional[typing.Sequence[Zone]] = None,
        lookup_cost_ms: typing.Optional[float] = None,
        allow_dynamic_update: bool = False,
        allow_zone_transfer: bool = True,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "",
        update_policy: UpdatePolicy = UpdatePolicy.disabled(),
        transport: typing.Optional["Transport"] = None,
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self.name = name or f"bind@{host.name}"
        self.zones: typing.List[Zone] = list(zones or [])
        self.lookup_cost_ms = (
            lookup_cost_ms
            if lookup_cost_ms is not None
            else calibration.public_bind_lookup_ms
        )
        self.allow_dynamic_update = allow_dynamic_update
        self.allow_zone_transfer = allow_zone_transfer
        #: write-pipeline knobs (leases granted, NOTIFY pushed)
        self.update_policy = update_policy
        #: needed only to push NOTIFYs; queries never use it
        self.transport = transport
        # Server-side marshalling uses the standard (hand-coded) BIND
        # routines regardless of what the client uses.
        self._marshallers: typing.Dict[IdlType, HandcodedMarshaller] = {}
        self.endpoint: typing.Optional[Endpoint] = None
        #: (name, rtype) -> absolute expiry of the granted lease
        self._leases: typing.Dict[
            typing.Tuple[DomainName, RRType], float
        ] = {}
        self._lease_sweeper = None
        #: zone origin -> subscribed NOTIFY endpoints, in subscription order
        self._subscribers: typing.Dict[
            DomainName, typing.List[Endpoint]
        ] = {}
        #: origins with a debounced NOTIFY fan-out already scheduled
        self._notify_pending: typing.Set[DomainName] = set()
        #: zone origin -> its last IXFR answer: (from serial, to serial,
        #: full), the reply, and its value marshalled once for every
        #: subscriber that pulls that range
        self._ixfr_replies: typing.Dict[
            DomainName, typing.Tuple[typing.Tuple[int, int, int], IxfrResponse, Encoded]
        ] = {}

    # Per-exchange counters, each bound at its first increment so the
    # stat exists only once counted.  ``requests`` counts datagrams (a
    # batch is one), ``queries`` counts database walks — the
    # requests-per-resolution metric the fast-path benchmarks report
    # divides over the former.
    @first_use
    def _requests(self) -> "Counter":
        return self.env.stats.counter(f"bind.{self.name}.requests")

    @first_use
    def _queries(self) -> "Counter":
        return self.env.stats.counter(f"bind.{self.name}.queries")

    @first_use
    def _batches(self) -> "Counter":
        return self.env.stats.counter(f"bind.{self.name}.batches")

    @first_use
    def _updates(self) -> "Counter":
        return self.env.stats.counter(f"bind.{self.name}.updates")

    # ------------------------------------------------------------------
    def listen(self, port: int = WELL_KNOWN_PORTS["bind"]) -> Endpoint:
        """Bind to ``port`` on the server's host."""
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def add_zone(self, zone: Zone) -> None:
        if any(z.origin == zone.origin for z in self.zones):
            raise ValueError(f"duplicate zone {zone.origin}")
        self.zones.append(zone)

    def zone_for(self, name: DomainName) -> typing.Optional[Zone]:
        """Longest-match authoritative zone for ``name``."""
        best: typing.Optional[Zone] = None
        for zone in self.zones:
            if name.is_subdomain_of(zone.origin):
                if best is None or len(zone.origin.labels) > len(best.origin.labels):
                    best = zone
        return best

    def zone_named(self, origin: DomainName) -> typing.Optional[Zone]:
        for zone in self.zones:
            if zone.origin == origin:
                return zone
        return None

    # ------------------------------------------------------------------
    def _encode_reply(
        self, message, value: object = None
    ) -> typing.Tuple[object, int, float]:
        """Marshal ``message`` as ``value`` — the one time its bytes are
        produced; they ride with it (``message.wire``) for whoever
        receives it.

        A query's answer repeats whenever its records do, so it is
        handed over whole (``value`` is ``message``) to recall the bytes
        of an equal one sent before
        (:class:`~repro.serial.generated.Marshaller`).  An IXFR answer is
        handed over as the :class:`~repro.serial.Encoded` its zone's slot
        keeps (:meth:`_send_ixfr`).  Anything else carries a serial or
        zone state that moves with every write and is marshalled afresh
        from its wire value, the default.
        """
        marshaller = self._marshallers.get(message.idl_type)
        if marshaller is None:
            marshaller = HandcodedMarshaller(message.idl_type)
            self._marshallers[message.idl_type] = marshaller
        message.wire, cost = marshaller.encode(
            message.to_idl() if value is None else value
        )
        return message, len(message.wire), cost

    # ------------------------------------------------------------------
    # Service interface
    # ------------------------------------------------------------------
    def handle(self, datagram, responder):
        """Dispatch on the request kind, returning what its method does.

        Every kind but an update batch answers from its charges'
        callbacks (``responder.after``) and returns ``None``: no process.
        The batch's ``bind.update`` span encloses its charges, so it is a
        generator.  Any other kind — a NOTIFY among them, which only a
        :class:`~repro.bind.primary.CacheInstaller` listens for — is
        answered SERVFAIL.
        """
        request = datagram.payload
        if isinstance(request, QueryRequest):
            return self._handle_query(request, responder)
        if isinstance(request, BatchQueryRequest):
            return self._handle_batch_query(request, responder)
        if isinstance(request, UpdateRequest):
            return self._handle_update(request, responder)
        if isinstance(request, UpdateBatchRequest):
            return self._handle_update_batch(request, responder)
        if isinstance(request, NotifySubscribeRequest):
            return self._handle_subscribe(request, responder)
        if isinstance(request, XferRequest):
            return self._handle_xfer(request, responder)
        if isinstance(request, IxfrRequest):
            return self._handle_ixfr(request, responder)
        self._reply(QueryResponse(STATUS_SERVFAIL, []), responder)
        return None

    def _reply(self, message, responder) -> None:
        """Marshal ``message``, charge for it, then send it."""
        reply, size, cost = self._encode_reply(message)
        responder.after(self.host.cpu.compute(cost), responder, reply, size)

    def _answer_one(self, name: DomainName, rtype) -> QueryResponse:
        """The database side of one question (no cost accounting)."""
        zone = self.zone_for(name)
        if zone is None:
            return QueryResponse(STATUS_NXDOMAIN, [])
        try:
            records = zone.lookup(name, rtype)
        except NameNotFound:
            return QueryResponse(STATUS_NXDOMAIN, [])
        return QueryResponse(STATUS_OK, self._cap_to_lease(name, rtype, records))

    def _cap_to_lease(self, name, rtype, records):
        """Cap advertised TTLs to the lease remainder for leased keys.

        A cache must never hold a leased binding past the point where
        the primary would retract it; without this cap a reader that
        fetched just before a lease lapse would serve the stale binding
        for the record's full TTL.
        """
        if not self._leases:
            return records
        expiry = self._leases.get((name, rtype))
        if expiry is None:
            return records
        remaining = max(0.0, expiry - self.env.now)
        return [
            dataclasses.replace(r, ttl=remaining) if r.ttl > remaining else r
            for r in records
        ]

    def _handle_query(self, request: QueryRequest, responder) -> None:
        self._requests.increment()
        self._queries.increment()
        # In-memory database walk: the calibrated fixed per-query cost.
        responder.after(
            self.host.cpu.compute(self.lookup_cost_ms),
            self._answer_query,
            request,
            responder,
        )

    def _answer_query(self, request: QueryRequest, responder) -> None:
        reply = self._answer_one(request.name, request.rtype)
        reply, size, marshal_cost = self._encode_reply(reply, reply)
        responder.after(
            self.host.cpu.compute(marshal_cost),
            self._send_answer,
            request,
            reply,
            size,
            responder,
        )

    def _send_answer(self, request: QueryRequest, reply, size, responder) -> None:
        if self.env.trace.enabled:
            self.env.trace.emit(
                "bind",
                f"{self.name}: {request.name} {request.rtype} -> "
                f"{'OK' if reply.status == STATUS_OK else 'NXDOMAIN'}",
                records=len(reply.records),
            )
        responder(reply, size)

    def _handle_batch_query(self, request: BatchQueryRequest, responder) -> None:
        """Answer several (possibly chained) questions in one exchange.

        Questions are resolved in order; each pays the full per-query
        database-walk cost — batching saves round trips and per-call
        overheads, not server work.  A chained question whose dependency
        failed (bad index, non-OK answer, or missing field) yields a
        SERVFAIL answer in its slot rather than failing the batch.
        """
        self._requests.increment()
        self._batches.increment()
        self._next_question(request, [], responder)

    def _next_question(
        self,
        request: BatchQueryRequest,
        answers: typing.List[QueryResponse],
        responder,
    ) -> None:
        """Charge the walk for the next unanswered question, or reply."""
        if len(answers) < len(request.questions):
            self._queries.increment()
            responder.after(
                self.host.cpu.compute(self.lookup_cost_ms),
                self._answer_question,
                request,
                answers,
                responder,
            )
            return
        reply = BatchQueryResponse(answers)
        reply, size, marshal_cost = self._encode_reply(reply, reply)
        responder.after(
            self.host.cpu.compute(marshal_cost),
            self._send_batch,
            request,
            reply,
            size,
            responder,
        )

    def _answer_question(
        self,
        request: BatchQueryRequest,
        answers: typing.List[QueryResponse],
        responder,
    ) -> None:
        question = request.questions[len(answers)]
        name_text = question.name
        answer = None
        if question.chain_from >= 0:
            value = None
            if 0 <= question.chain_from < len(answers):
                dep = answers[question.chain_from]
                if dep.status == STATUS_OK and dep.records:
                    value = meta_field(dep.records[0].data, question.chain_field)
            if value is None:
                answer = QueryResponse(STATUS_SERVFAIL, [])
            else:
                name_text = substitute_label(name_text, value)
        if answer is None:
            try:
                name = DomainName(name_text)
            except ValueError:
                answer = QueryResponse(STATUS_SERVFAIL, [])
            else:
                answer = self._answer_one(name, question.rtype)
        answers.append(answer)
        self._next_question(request, answers, responder)

    def _send_batch(
        self, request: BatchQueryRequest, reply, size, responder
    ) -> None:
        if self.env.trace.enabled:
            self.env.trace.emit(
                "bind",
                f"{self.name}: batch of {len(request.questions)} -> "
                f"{sum(1 for a in reply.answers if a.status == STATUS_OK)} OK",
            )
        responder(reply, size)

    def _handle_update(self, request: UpdateRequest, responder) -> None:
        self._updates.increment()
        responder.after(
            self.host.cpu.compute(self.lookup_cost_ms),
            self._apply_update,
            request,
            responder,
        )

    def _apply_update(self, request: UpdateRequest, responder) -> None:
        """The single-op update: one lease-less batch operation."""
        if not self.allow_dynamic_update:
            reply = UpdateResponse(STATUS_REFUSED, 0)
        else:
            changed: typing.List[Zone] = []
            status = self._apply_update_op(
                UpdateOp(
                    request.mode, request.name, request.rtype, records=tuple(request.records)
                ),
                changed,
            )
            zone = self.zone_for(request.name)
            reply = UpdateResponse(status, 0 if zone is None else zone.serial)
            if changed:
                self._after_write(changed)
        self._reply(reply, responder)

    # ------------------------------------------------------------------
    # Batched updates, leases, and NOTIFY fan-out (the write pipeline)
    # ------------------------------------------------------------------
    def _handle_update_batch(self, request: UpdateBatchRequest, responder):
        """Apply several coalesced update operations in one exchange.

        Each operation pays the full per-update database cost — the
        batch saves round trips and per-call overheads, not server
        work.  A failing operation gets a status in its slot rather
        than aborting the batch; the overall status is OK only when
        every operation succeeded.
        """
        env = self.env
        self._requests.increment()
        env.stats.counter(f"bind.{self.name}.update_batches").increment()
        env.stats.counter("bind.update.batches").increment()
        obs = env.obs
        with (
            obs.span("bind.update", server=self.name, ops=len(request.ops))
            if obs.enabled
            else NULL_SPAN
        ) as span:
            if not self.allow_dynamic_update:
                reply = UpdateBatchResponse(STATUS_REFUSED, 0, [])
            else:
                statuses: typing.List[int] = []
                changed: typing.List[Zone] = []
                for op in request.ops:
                    self._updates.increment()
                    env.stats.counter("bind.update.ops").increment()
                    yield self.host.cpu.compute(self.lookup_cost_ms)
                    statuses.append(self._apply_update_op(op, changed))
                serial = max((zone.serial for zone in changed), default=0)
                ok = all(s == STATUS_OK for s in statuses)
                reply = UpdateBatchResponse(
                    STATUS_OK if ok else STATUS_SERVFAIL, serial, statuses
                )
                span.set(serial=serial, ok=ok)
                env.trace.emit(
                    "bind",
                    f"{self.name}: update batch of {len(request.ops)} -> "
                    f"serial {serial}",
                )
                self._after_write(changed)
        reply, size, cost = self._encode_reply(reply)
        yield self.host.cpu.compute(cost)
        responder(reply, size)

    def _apply_update_op(
        self, op: UpdateOp, changed: typing.List[Zone]
    ) -> int:
        """Apply one batched operation; returns its status code."""
        zone = self.zone_for(op.name)
        if zone is None:
            return STATUS_NXDOMAIN
        if op.mode == UpdateMode.ADD:
            for record in op.records:
                zone.add(record)
        elif op.mode == UpdateMode.DELETE:
            zone.remove(op.name, op.rtype)
            self._leases.pop((op.name, op.rtype), None)
        elif op.mode == UpdateMode.REPLACE:
            zone.replace(op.name, op.rtype, list(op.records))
        else:
            return STATUS_SERVFAIL
        if op.lease_ms > 0 and op.mode != UpdateMode.DELETE:
            self._grant_lease(op.name, op.rtype, op.lease_ms)
        if zone not in changed:
            changed.append(zone)
        return STATUS_OK

    def _grant_lease(self, name: DomainName, rtype: RRType, lease_ms: float):
        """(Re-)grant a lease; the sweeper retracts it unless renewed."""
        self._leases[(name, rtype)] = self.env.now + lease_ms
        self.env.stats.counter("bind.update.lease_grants").increment()
        if self._lease_sweeper is None or not self._lease_sweeper.is_alive:
            self._lease_sweeper = self.env.process(
                self._sweep_leases(), name=f"bind.{self.name}.leases"
            )

    def _sweep_leases(self):
        """Retract leased bindings whose owners stopped renewing."""
        while self._leases:
            next_expiry = min(self._leases.values())
            if next_expiry > self.env.now:
                yield self.env.timeout(next_expiry - self.env.now)
            changed: typing.List[Zone] = []
            for key, expiry in list(self._leases.items()):
                if expiry > self.env.now:
                    continue
                del self._leases[key]
                name, rtype = key
                zone = self.zone_for(name)
                if zone is not None and zone.remove(name, rtype):
                    if zone not in changed:
                        changed.append(zone)
                    self.env.stats.counter(
                        "bind.update.lease_expirations"
                    ).increment()
                    self.env.trace.emit(
                        "bind",
                        f"{self.name}: lease lapsed, retracted "
                        f"{name} {rtype}",
                    )
            if changed:
                self._after_write(changed)

    def _handle_subscribe(
        self, request: NotifySubscribeRequest, responder
    ) -> None:
        """Register a subscriber for NOTIFY pushes on one zone."""
        self.env.stats.counter(f"bind.{self.name}.subscriptions").increment()
        responder.after(
            self.host.cpu.compute(1.0), self._subscribe, request, responder
        )

    def _subscribe(self, request: NotifySubscribeRequest, responder) -> None:
        zone = self.zone_named(DomainName(request.origin))
        if not self.update_policy.notify or self.transport is None:
            reply = NotifySubscribeResponse(STATUS_REFUSED, 0)
        elif zone is None:
            reply = NotifySubscribeResponse(STATUS_NXDOMAIN, 0)
        else:
            endpoint = Endpoint(NetworkAddress(request.address), request.port)
            subscribers = self._subscribers.setdefault(zone.origin, [])
            if endpoint not in subscribers:
                subscribers.append(endpoint)
            reply = NotifySubscribeResponse(STATUS_OK, zone.serial)
        self._reply(reply, responder)

    def _after_write(self, zones: typing.Iterable[Zone]) -> None:
        """Schedule a debounced NOTIFY fan-out for each changed zone.

        A no-op unless NOTIFY mode is on and someone subscribed, so the
        prototype write path stays bit-identical.
        """
        if not self.update_policy.notify or self.transport is None:
            return
        for zone in zones:
            if not self._subscribers.get(zone.origin):
                continue
            if zone.origin in self._notify_pending:
                continue
            self._notify_pending.add(zone.origin)
            self.env.process(
                self._notify_origin(zone), name=f"bind.{self.name}.notify"
            )

    def _notify_origin(self, zone: Zone):
        """Push the zone's current serial to every subscriber.

        The debounce window lets a burst of writes collapse into one
        push; subscribers pull the whole delta through IXFR anyway.
        """
        assert self.transport is not None
        yield self.env.timeout(NOTIFY_DELAY_MS)
        self._notify_pending.discard(zone.origin)
        serial = zone.serial
        obs = self.env.obs
        with (
            obs.span(
                "bind.notify",
                server=self.name,
                origin=str(zone.origin),
                serial=serial,
            )
            if obs.enabled
            else NULL_SPAN
        ):
            request = NotifyRequest(zone.origin, serial)
            _, size, marshal_cost = self._encode_reply(request)
            for subscriber in list(self._subscribers.get(zone.origin, ())):
                yield self.host.cpu.compute(marshal_cost)
                self.env.stats.counter("bind.update.notifies").increment()
                # One-way push: a dead subscriber just misses it and
                # catches up from TTL expiry like everyone else.
                yield from self.transport.send(
                    self.host,
                    subscriber,
                    NotifyRequest(zone.origin, serial),
                    size,
                )

    def _handle_xfer(self, request: XferRequest, responder) -> None:
        self.env.stats.counter(f"bind.{self.name}.xfers").increment()
        zone = self.zone_named(request.origin)
        if not self.allow_zone_transfer or zone is None:
            self._reply(
                XferResponse(STATUS_REFUSED if zone else STATUS_NXDOMAIN, 0, []),
                responder,
            )
            return
        records = zone.all_records()
        # Streaming the zone costs setup plus a per-record charge.
        responder.after(
            self.host.cpu.compute(self._stream_ms(len(records))),
            self._send_zone,
            zone,
            records,
            responder,
        )

    def _send_zone(self, zone: Zone, records, responder) -> None:
        self._reply(XferResponse(STATUS_OK, zone.serial, records), responder)

    def _stream_ms(self, records: int) -> float:
        """What streaming ``records`` records of a transfer costs."""
        return (
            self.calibration.xfer_setup_ms
            + self.calibration.xfer_per_record_ms * records
        )

    def _handle_ixfr(self, request: IxfrRequest, responder) -> None:
        """Incremental zone transfer: stream only the journal entries
        past the requester's serial.  When the journal no longer covers
        the requested serial the reply degrades to a full AXFR-style
        snapshot (``full=1``) in the same exchange, so the requester
        never pays an extra round trip to discover truncation."""
        self.env.stats.counter(f"bind.{self.name}.ixfrs").increment()
        zone = self.zone_named(request.origin)
        if not self.allow_zone_transfer or zone is None:
            self._reply(
                IxfrResponse(
                    STATUS_REFUSED if zone else STATUS_NXDOMAIN, 0, 0, [], []
                ),
                responder,
            )
            return
        deltas = zone.delta_since(request.serial)
        if deltas is None:
            self.env.stats.counter(
                f"bind.{self.name}.ixfr_fallbacks"
            ).increment()
            records = zone.all_records()
            responder.after(
                self.host.cpu.compute(self._stream_ms(len(records))),
                self._send_ixfr,
                zone,
                (request.serial, zone.serial, 1),
                (),
                records,
                responder,
            )
            return
        # Walking the journal costs setup plus the same per-record
        # streaming charge as AXFR, over only the delta.
        responder.after(
            self.host.cpu.compute(
                self._stream_ms(sum(len(d.records) for d in deltas))
            ),
            self._send_ixfr,
            zone,
            (request.serial, zone.serial, 0),
            deltas,
            [],
            responder,
        )

    def _send_ixfr(
        self, zone: Zone, walked: typing.Tuple[int, int, int], deltas, records, responder
    ) -> None:
        """Send the answer to a journal walk, ``walked`` = (from serial,
        to serial, full) with the deltas or snapshot records it found.

        A zone's state is a function of its serial, so the answer to a
        walk is too: every subscriber a NOTIFY sent pulls the same range,
        and the zone's one slot marshals it once.  Each send still enters
        ``encode`` and pays its cost.  The reply carries the serial the
        walk ended at, even when a write landed during the walk's charge:
        the requester then pulls that write next, instead of taking its
        NOTIFY as already seen.
        """
        slot = self._ixfr_replies.get(zone.origin)
        if slot is None or slot[0] != walked:
            _since, serial, full = walked
            reply = IxfrResponse(STATUS_OK, serial, full, list(deltas), records)
            slot = self._ixfr_replies[zone.origin] = (
                walked, reply, Encoded(reply.to_idl())
            )
        reply, size, cost = self._encode_reply(slot[1], slot[2])
        responder.after(self.host.cpu.compute(cost), responder, reply, size)
